"""The workload process started by run.py; prints its result as one JSON line.

    python3 perfbench/worker.py --root DIR --workdir DIR --workload NAME
        --seed N --seconds S --mode {setup,run,trace}

setup  imports hankelc, builds the first cycle of inputs, prints `ready`
       and exits (the caller times this from process start);
run    the same, then the closed loop for at least S seconds in whole
       cycles of the schedule, taking more set-up samples spread over the
       run (SETUP_SAMPLES in-process, one after each request for cli);
trace  the loop with cycles alternately untraced and traced, followed by
       the per-layer probes.

    python3 perfbench/worker.py --root DIR --probe-verify {suites,all1,all2}

times in-process verify runs in a fresh interpreter (cold kernel cache).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5


def import_hankelc(root: str):
    """Import hankelc from the checkout's src/ and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import hankelc

    if not os.path.abspath(hankelc.__file__).startswith(src + os.sep):
        raise SystemExit(f"hankelc imported from {hankelc.__file__}, not from {src}")
    return hankelc


def child_env(root: str) -> dict:
    """Environment of every process the benchmark starts: hankelc from src/,
    one BLAS thread (the single client never needs more than nproc)."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def make_workload(name, seed, workdir, env):
    if name == "cli":
        return workloads.Cli(seed, workdir, env)
    return {"transform": workloads.Transform, "kernel": workloads.Kernel,
            "calculus": workloads.Calculus}[name](seed)


def library_facts(hk) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "hankelc": getattr(hk, "__version__", "unknown")}


class Loop:
    """The closed loop: one request at a time, timed one by one."""

    def __init__(self, hk, wl, tracer=None):
        self.hk, self.wl, self.tracer = hk, wl, tracer
        self.records = []
        self.cache = {}

    def spec_and_call(self, i):
        if i in self.cache:
            return self.cache.pop(i)
        spec = self.wl.request(i)
        return spec, self.wl.prepare(self.hk, spec, i)

    def prefetch(self, count):
        for i in range(count):
            self.cache[i] = self.spec_and_call(i)

    def one(self, i, traced):
        spec, call = self.spec_and_call(i)
        if traced:
            self.tracer.request = i
            self.tracer.active = True
        result, error, seconds = workloads.timed(call)
        if traced:
            self.tracer.active = False
        if error is None:
            ok, disagreement = self.wl.check(self.hk, spec, result)
        else:
            ok, disagreement = False, None
        self.records.append({
            "cycle": i // len(self.wl.SLOTS), "slot": spec["slot"],
            "group": spec.get("group", spec["slot"]), "seconds": seconds, "ok": bool(ok),
            "disagreement": disagreement, "traced": traced,
            "defect": spec.get("defect"),
            "error": f"{type(error).__name__}: {error}" if error else None if ok else "gate failed",
        })
        return result

    def run(self, seconds, trace=False, on_cycle=None, between=None):
        """Requests until `seconds` have passed, in whole cycles; on_cycle
        runs before each cycle and `between` after each request, both
        outside the timed region."""
        cycle = len(self.wl.SLOTS)
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            if i % cycle == 0:
                # a traced run needs at least one untraced and one traced cycle
                if i >= (2 * cycle if trace else 1) and time.perf_counter() >= deadline:
                    break
                traced = trace and (i // cycle) % 2 == 1
                if on_cycle:
                    on_cycle(traced)
            self.one(i, traced)
            if between:
                between()
            i += 1


def median_ms(values):
    return 1e3 * statistics.median(values) if values else 0.0


def python_ms(env, code, repeat=3):
    """Median wall time of `python -c code` from spawn to exit."""
    out = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)
        out.append(time.perf_counter() - t0)
    return median_ms(out)


def probe_verify(root, env):
    """verify.* metrics: in-process run_suite / run_all, each group in a
    fresh interpreter so the kernel cache starts cold as in the CLI."""
    out = {}
    for what in ("suites", "all1", "all2"):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--root", root, "--probe-verify", what],
            env=env, check=True, capture_output=True, text=True, timeout=170,
        )
        out.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def verify_child(root, what):
    hk = import_hankelc(root)
    out = {}
    if what == "suites":
        for name in hk.SUITES:
            t0 = time.perf_counter()
            res = hk.run_suite(name, negative_controls=True, threads=1)
            out[f"verify.{name}_ms"] = 1e3 * (time.perf_counter() - t0)
            if not res["passed"]:
                raise SystemExit(f"verify suite {name} failed")
    else:
        threads = int(what[-1])
        t0 = time.perf_counter()
        res = hk.run_all(negative_controls=True, threads=threads)
        out[f"verify.all_threads{threads}_ms"] = 1e3 * (time.perf_counter() - t0)
        if not all(s["passed"] for s in res):
            raise SystemExit("verify failed")
    print(json.dumps(out))


CLI_METRIC = {
    "transform": "transform", "kernel": "kernel", "verify1": "verify", "verify2": "verify",
    "seminorm": "seminorm", "taylor": "taylor", "pair_delta": "pair_delta",
    "multiplier": "multiplier", "invalid_handled": "invalid", "invalid_mishandled": "invalid",
}


def cli_metrics(records):
    groups = {}
    for r in records:
        if not r["traced"]:
            groups.setdefault(CLI_METRIC[r["slot"]], []).append(r["seconds"])
    return {f"cli.{k}_ms": median_ms(groups.get(k, [])) for k in sorted(set(CLI_METRIC.values()))}


def certified_3d(hk):
    """Fixed 3-D solves with the weak certificate; counts those certified
    (weak residuals <= 1e-6).  A solve that raises counts 0."""
    count = 0
    mu = ["1/2", "0", "3/2"]
    for degree, terms in ((1, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}),
                          (2, {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 1})):
        try:
            basis, cert = hk.liouville_solve(hk.OperatorPoly(3, terms), mu, degree)
        except hk.HankelcError:
            continue
        if basis and cert.consistent and len(cert.weak_residuals) == len(basis) \
                and max(cert.weak_residuals) <= 1e-6:
            count += 1
    return count


def weak_control_min(hk):
    """Smallest weak-check score of polynomial (non-decaying) non-kernel
    candidates at the largest orders; the gate for negative controls is
    0.1, which these do not reach in hankelc 0.1.0."""
    mu = ["5/2", "5/2"]
    f = hk.SymbolicHFunction(mu, hk.EvenPolynomial.monomial((1, 1)), 0)
    return min(hk.weak_spectral_check(f, hk.OperatorPoly(2, terms), mu)
               for terms in ({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 4}))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--mode", choices=("setup", "run", "trace"))
    ap.add_argument("--probe-verify", choices=("suites", "all1", "all2"))
    args = ap.parse_args()
    if args.probe_verify:
        return verify_child(args.root, args.probe_verify)

    env = child_env(args.root)
    in_process = args.workload != "cli"
    if in_process:
        hk = import_hankelc(args.root)
    else:
        hk = None  # the cli workload never imports hankelc in this process
    wl = make_workload(args.workload, args.seed, args.workdir, env)
    loop = Loop(hk, wl)
    cycle = len(wl.SLOTS)
    setup_cmd = [sys.executable, os.path.abspath(__file__), "--root", args.root, "--workdir", args.workdir,
                 "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0", "--mode", "setup"]

    def setup_sample():
        """Set-up time once more: a fresh worker until `ready` for the
        in-process workloads, input generation alone for cli."""
        t0 = time.perf_counter()
        if in_process:
            proc = subprocess.Popen(setup_cmd, env=env, stdout=subprocess.PIPE, text=True)
            ready = proc.stdout.readline().strip() == "ready"
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=60)
            if not ready or proc.returncode:
                raise SystemExit("set-up probe failed")
            return elapsed
        for i in range(cycle):
            wl.prepare(hk, wl.request(i), i)
        return time.perf_counter() - t0

    setup_samples = [] if in_process else [setup_sample() for _ in range(5)]
    loop.prefetch(cycle)
    print("ready", flush=True)
    if args.mode == "setup":
        return

    result = {"setup_samples": setup_samples}
    if args.mode == "run" and in_process:
        # more set-up samples spread over the run, so that a slow spell of
        # the shared machine covers few of them
        interval = args.seconds / SETUP_SAMPLES
        last = [time.perf_counter()]

        def on_cycle(traced):
            if time.perf_counter() - last[0] >= interval:
                setup_samples.append(setup_sample())
                last[0] = time.perf_counter()

        loop.run(args.seconds, on_cycle=on_cycle)
    elif args.mode == "run":
        # cli input generation takes about 2 ms: sample it after every request
        loop.run(args.seconds, between=lambda: setup_samples.append(setup_sample()))
    else:
        from tracer import Tracer, layer_counters, layer_metrics, merge_counters

        parts, processes = [], []
        if in_process:
            tracer = loop.tracer = Tracer()

            def on_cycle(traced):
                tracer.uninstall()
                if traced:
                    tracer.install()

            loop.run(args.seconds, trace=True, on_cycle=on_cycle)
            tracer.uninstall()
            parts.append(layer_counters(tracer.spans))
            processes.append({"label": args.workload, "spans": tracer.rows()})
        else:
            span_file = os.path.join(args.workdir, "trace_request.json")
            plain = wl.launcher
            traced_launcher = [sys.executable, os.path.join(HERE, "cli_traced.py"), span_file]

            def on_cycle(traced):
                wl.launcher = traced_launcher if traced else plain

            def one(i, traced):
                Loop.one(loop, i, traced=False)
                loop.records[-1]["traced"] = traced
                if traced and os.path.exists(span_file):
                    with open(span_file) as fh:
                        data = json.load(fh)
                    os.remove(span_file)
                    parts.append(data["counters"])
                    processes.append({"label": f"request {i}", "spans": data["spans"]})

            loop.one = one
            loop.run(args.seconds, trace=True, on_cycle=on_cycle)
            wl.launcher = plain
        layer = layer_metrics(merge_counters(parts))
        probe_hk = hk or import_hankelc(args.root)
        layer["liouville.certified_3d"] = (float(certified_3d(probe_hk)), "count")
        layer["liouville.weak_control_min"] = (weak_control_min(probe_hk), "score")
        for k, v in probe_verify(args.root, env).items():
            layer[k] = (v, "ms")
        layer["cli.python_start_ms"] = (python_ms(env, "pass"), "ms")
        layer["cli.import_ms"] = (python_ms(env, "import hankelc") - layer["cli.python_start_ms"][0], "ms")
        # per-subcommand CLI times exist only where the CLI runs: 0 elsewhere
        for k, v in cli_metrics([] if in_process else loop.records).items():
            layer[k] = (v, "ms")
        result["layer"] = layer
        span_path = os.path.join(args.workdir, "..", f"spans-{args.workload}-{args.seed}.json")
        with open(span_path, "w") as fh:
            json.dump({"fields": ["name", "site", "start", "end", "parent", "request", "attrs"],
                       "processes": processes}, fh)
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    result["peak_rss_kb"] = usage.ru_maxrss
    result["records"] = loop.records
    result["libraries"] = library_facts(hk or import_hankelc(args.root))
    print(json.dumps(result, default=float))


if __name__ == "__main__":
    main()
