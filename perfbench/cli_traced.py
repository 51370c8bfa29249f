"""Run `hankelc.cli` with the tracer installed.

    python3 perfbench/cli_traced.py OUT.json <cli arguments>

Behaves like `python -m hankelc.cli <cli arguments>` and, however the
command ends, writes the additive layer counters and the spans of this
process to OUT.json.
"""

import json
import sys

from tracer import Tracer, layer_counters


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import hankelc.cli

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        return hankelc.cli.main(argv)
    finally:
        tracer.active = False
        with open(out, "w") as fh:
            json.dump({"counters": layer_counters(tracer.spans), "spans": tracer.rows()}, fh)


if __name__ == "__main__":
    sys.exit(main())
