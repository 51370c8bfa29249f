"""Property test: a mutated spec never makes the CLI escape with a traceback.

Each example starts from a small valid spec, applies one value-level
mutation (a value replaced, a key deleted or an unknown key added) and
runs the cheap subcommands in-process.  Every run must end with one of
the documented exit codes: 0 success, 2 input, 3 numeric, 4 hypothesis.
"""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from hankelc.cli import main

BASES = [
    {
        "mu": ["1/2"],
        "function": {"decay": "1/2", "terms": [{"k": [0], "q": 1}, {"k": [1], "q": "-1/3"}]},
        "operator": {"terms": [{"k": [1], "a": 1}]},
        "window": {"kind": "cutoff", "inner": 1.0, "outer": 2.0},
        "multiplier": {
            "numer": [{"k": [0], "q": 1}],
            "denom": [{"k": [0], "q": 1}, {"k": [1], "q": 1}],
            "power": 1,
        },
    },
    {
        "mu": ["0", "3/2"],
        "function": {"decay": 1, "terms": [{"k": [0, 0], "q": 2}, {"k": [1, 1], "q": -1}]},
        "operator": {"terms": [{"k": [1, 0], "a": 1}, {"k": [0, 1], "a": "1/2"}]},
        "window": {"kind": "outer", "inner": 0.5, "outer": 1.5},
        "multiplier": {"numer": [{"k": [1, 0], "q": 1}, {"k": [0, 1], "q": 1}]},
    },
    {
        "mu": ["3/4"],
        "function": {"decay": "1/3", "terms": [{"k": [2], "q": 0.5}]},
        "operator": {"terms": [{"k": [0], "a": 1}, {"k": [2], "a": 1}]},
        "window": {"kind": "outer", "inner": 1, "outer": 3},
        "multiplier": {"numer": [{"k": [1], "q": 1}], "denom": [{"k": [1], "q": 1}], "power": 2},
    },
]

REPLACEMENTS = [None, True, "abc", "1/0", math.inf, -1, 1.5, [], {}, 10**11]


def _commands(dim):
    k = ",".join(["0"] * dim)
    return [
        ["transform", "--grid", "0.5:2:3", "--quad", "8:4"],
        ["kernel", "--degree", "1", "--skip-weak"],
        ["taylor", "--order", "1"],
        ["seminorm", "--kind", "gamma", "-m", "0", "-k", k],
        ["pair-delta", "-k", k],
        ["multiplier", "--max-order", "1"],
    ]


def _paths(node, prefix=()):
    """Every position in a JSON tree, as a tuple of keys and indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _containers(node, prefix=()):
    """Positions of every JSON object, the root included."""
    if isinstance(node, dict):
        yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _containers(value, prefix + (key,))


def _at(spec, path):
    for key in path:
        spec = spec[key]
    return spec


@st.composite
def mutated_specs(draw):
    base = draw(st.sampled_from(BASES))
    spec = copy.deepcopy(base)
    kind = draw(st.sampled_from(["replace", "delete", "add"]))
    if kind == "add":
        path = draw(st.sampled_from(list(_containers(spec))))
        _at(spec, path)["junk"] = draw(st.sampled_from(REPLACEMENTS))
        return spec
    keyed = [p for p in _paths(spec) if kind == "replace" or isinstance(p[-1], str)]
    path = draw(st.sampled_from(keyed))
    parent = _at(spec, path[:-1])
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(REPLACEMENTS))
    return spec


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(spec=mutated_specs())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mutated_spec_exits_with_a_documented_code(spec_path, spec):
    spec_path.write_text(json.dumps(spec))
    dim = len(spec["mu"]) if isinstance(spec.get("mu"), list) and spec["mu"] else 1
    for argv in _commands(dim):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv + ["--spec", str(spec_path)])
        assert code in (0, 2, 3, 4), (argv, spec, sink.getvalue())
