"""Command line behavior: spec validation, outputs, exit codes."""

import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hankelc
from hankelc import quadrature as quadrature_module
from hankelc.cli import build_parser, main

GAUSS_1D = {
    "mu": ["1/2"],
    "function": {"decay": "1/2", "terms": [{"k": [0], "q": 1}]},
}


def _write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# transform


def test_transform_json(tmp_path, capsys):
    spec = _write_spec(tmp_path, GAUSS_1D)
    code, out = _run(capsys, ["transform", "--spec", spec, "--grid", "0.5:2:4"])
    assert code == 0
    data = json.loads(out)
    assert len(data["values"]) == 4
    # self-reciprocal member at mu = 1/2: value at y is y e^{-y^2/2}
    assert data["values"][0] == pytest.approx(0.5 * math.exp(-0.125), rel=1e-9)


def test_transform_csv_and_out_file(tmp_path, capsys):
    spec = _write_spec(tmp_path, GAUSS_1D)
    out_file = tmp_path / "result.csv"
    code, _ = _run(
        capsys,
        [
            "transform",
            "--spec",
            spec,
            "--grid",
            "geometric:0.5:2:3",
            "--format",
            "csv",
            "--out",
            str(out_file),
        ],
    )
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "x1,value"
    assert len(lines) == 4


def test_transform_direct_small_rule(tmp_path, capsys):
    spec = _write_spec(tmp_path, GAUSS_1D)
    code, out = _run(
        capsys,
        ["transform", "--spec", spec, "--grid", "0.5:2:4", "--quad", "12:8", "--direct"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["values"][0] == pytest.approx(0.5 * math.exp(-0.125), rel=1e-8)


def test_transform_windowed(tmp_path, capsys):
    spec = dict(GAUSS_1D)
    spec["window"] = {"kind": "cutoff", "inner": 3.0, "outer": 6.0}
    path = _write_spec(tmp_path, spec)
    code, out = _run(capsys, ["transform", "--spec", path, "--grid", "0.5:2:4"])
    assert code == 0
    windowed = json.loads(out)["values"]
    code, out = _run(capsys, ["transform", "--spec", _write_spec(tmp_path, GAUSS_1D, "p.json"), "--grid", "0.5:2:4"])
    plain = json.loads(out)["values"]
    # wide plateau: the window barely changes the transform
    assert windowed == pytest.approx(plain, abs=1e-3)


@pytest.mark.parametrize(
    "kind, quad, code",
    [("outer", "24:16:10", 2), ("outer", "24:16:20", 2), ("cutoff", "24:16:1.5", 2), ("cutoff", "24:16:4", 0)],
)
def test_decay_zero_member_under_a_window(tmp_path, capsys, kind, quad, code):
    # x^(1/2) never decays: under an outer window the printed value was the
    # rule's truncation (-8.024 at radius 10, 24.61 at 20), and a cutoff
    # rule that stops inside the window printed 0.3743 for 0.4372
    spec = {
        "mu": ["1/2"],
        "function": {"decay": 0, "terms": [{"k": [0], "q": 1}]},
        "window": {"kind": kind, "inner": 1, "outer": 2},
    }
    path = _write_spec(tmp_path, spec)
    got, out = _run(capsys, ["transform", "--spec", path, "--grid", "0.5:2:3", "--quad", quad])
    assert got == code
    if code == 0:
        assert json.loads(out)["values"][0] == pytest.approx(0.43724597, rel=1e-7)


def _laguerre(n, alpha, t):
    """L_n^alpha(t) by the three-term recurrence in the degree."""
    prev, cur = np.zeros_like(t), np.ones_like(t)
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 + alpha - t) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def test_default_rule_covers_a_high_degree_member(tmp_path, capsys):
    # x^(mu+1/2) s^40 e^(-x^2/2) peaks at x = 9, inside the bulk that a rule
    # sized for e^(-x^2/2) alone cuts off: it printed -1.2961e58 at y = 4
    # for -1.2624e58.  Weber: the transform of x^(mu+1/2) s^n e^(-c x^2) is
    # y^(mu+1/2) n! / (2^(mu+1) c^(mu+n+1)) e^(-t) L_n^mu(t), t = y^2 / 4c
    mu, c, n = 0.5, 0.5, 40
    spec = {"mu": ["1/2"], "function": {"decay": "1/2", "terms": [{"k": [n], "q": 1}]}}
    code, out = _run(capsys, ["transform", "--spec", _write_spec(tmp_path, spec), "--grid", "0.1:4:40"])
    assert code == 0
    y = np.linspace(0.1, 4.0, 40)
    t = y * y / (4 * c)
    want = y ** (mu + 0.5) * math.factorial(n) / (2 ** (mu + 1) * c ** (mu + n + 1)) * np.exp(-t) * _laguerre(n, mu, t)
    got = np.array(json.loads(out)["values"])
    assert float(np.max(np.abs(got - want))) <= 1e-12 * float(np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# kernel


def test_kernel_solve(tmp_path, capsys):
    spec = {"mu": ["1/2"], "operator": {"terms": [{"k": [1], "a": 1}]}}
    path = _write_spec(tmp_path, spec)
    code, out = _run(capsys, ["kernel", "--spec", path, "--degree", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["certificate"]["dimension"] == 1
    assert data["certificate"]["exact_zero"] == [True]
    assert all(r < 1e-6 for r in data["certificate"]["weak_residuals"])


def test_kernel_hypothesis_exit_code(tmp_path, capsys):
    # S_1 - S_2, S_1 S_2 and S_1 + S_1 S_2
    for terms in [
        [{"k": [1, 0], "a": 1}, {"k": [0, 1], "a": -1}],
        [{"k": [1, 1], "a": 1}],
        [{"k": [1, 0], "a": 1}, {"k": [1, 1], "a": 1}],
    ]:
        path = _write_spec(tmp_path, {"mu": ["1/2", "1/2"], "operator": {"terms": terms}})
        assert main(["kernel", "--spec", path, "--degree", "2"]) == 4
        assert "hypothesis failed" in capsys.readouterr().err


def _tiny_operator_spec(second_axis_power):
    # S_1 + 10^-400 S_2^p: the second coefficient is 0.0 as a double
    return {
        "mu": ["1/2", "1/2"],
        "operator": {
            "terms": [{"k": [1, 0], "a": 1}, {"k": [0, second_axis_power], "a": "1e-400"}]
        },
    }


def test_kernel_term_below_the_float_range_passes_the_gate(tmp_path, capsys):
    path = _write_spec(tmp_path, _tiny_operator_spec(2))
    code, out = _run(capsys, ["kernel", "--spec", path, "--degree", "2"])
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["exact_zero"] == [True] * 3
    assert all(r <= 1e-6 for r in cert["weak_residuals"])
    assert cert["hypothesis"] == {
        "passed": True,
        "same_sign": True,
        "sign": 1,
        "orthant_nonvanishing": True,
        "failing_axis": None,
        "reason": None,
    }


def test_kernel_coefficient_beyond_the_float_range_exit_3(tmp_path, capsys):
    path = _write_spec(tmp_path, _tiny_operator_spec(1))
    assert main(["kernel", "--spec", path, "--degree", "2"]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err
    code, out = _run(capsys, ["kernel", "--spec", path, "--degree", "2", "--skip-weak"])
    assert code == 0
    assert json.loads(out)["certificate"]["exact_zero"] == [True] * 3


def test_kernel_float_coefficients_exact(tmp_path, capsys):
    # 0.1 is solved as its binary value, so every basis element is exact
    spec = {
        "mu": ["1/2", "1/2"],
        "operator": {"terms": [{"k": [1, 0], "a": 0.1}, {"k": [0, 1], "a": 1}]},
    }
    path = _write_spec(tmp_path, spec)
    code, out = _run(capsys, ["kernel", "--spec", path, "--degree", "3"])
    assert code == 0
    assert json.loads(out)["certificate"]["exact_zero"] == [True] * 4


# ---------------------------------------------------------------------------
# verify


def test_verify_taylor_suite(capsys):
    code, out = _run(capsys, ["verify", "taylor"])
    assert code == 0
    lines = [l for l in out.strip().split("\n") if l.startswith("[")]
    assert lines and all(l.startswith("[PASS] taylor/") for l in lines)
    assert "value=" in lines[0] and "tolerance=" in lines[0]
    assert out.strip().endswith("verify: all checks passed")


def test_verify_json_writes_only_the_report_on_stdout(capsys):
    code = main(["verify", "taylor", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["passed"] is True and report["suites"][0]["suite"] == "taylor"
    assert "[PASS] taylor/" in captured.err
    assert captured.err.strip().endswith("verify: all checks passed")


def test_verify_unknown_suite():
    assert main(["verify", "nonsense"]) == 2


def test_verify_reports_failures(capsys, monkeypatch):
    import hankelc.cli as cli_mod

    def fake_run_all(names, negative_controls, threads):
        return [
            {
                "suite": "taylor",
                "passed": False,
                "checks": [
                    {
                        "name": "made_up",
                        "value": 1.0,
                        "tolerance": 1e-6,
                        "passed": False,
                        "expected_fail": False,
                    }
                ],
            }
        ]

    monkeypatch.setattr(cli_mod, "run_all", fake_run_all)
    code, out = _run(capsys, ["verify", "taylor"])
    assert code == 1
    assert "[FAIL] taylor/made_up" in out
    assert out.strip().endswith("verify: FAILURES above")


def test_parser_is_built_once_and_reads_threads_at_parse_time(monkeypatch):
    import hankelc.cli as cli_mod

    seen = []

    def fake_run_all(names, negative_controls, threads):
        seen.append(threads)
        return []

    monkeypatch.setattr(cli_mod, "run_all", fake_run_all)
    assert main(["verify", "taylor"]) == 0
    # --threads is the one setting: the environment is not read
    monkeypatch.setenv("HANKELC_THREADS", "3")
    assert main(["verify", "taylor"]) == 0
    assert main(["--threads", "4", "verify", "taylor"]) == 0
    assert main(["verify", "taylor"]) == 0
    assert seen == [1, 1, 4, 1]
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "abc", "verify", "taylor"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# seminorm / taylor / pair-delta / multiplier


def test_seminorm_gamma(tmp_path, capsys):
    path = _write_spec(tmp_path, GAUSS_1D)
    code, out = _run(
        capsys, ["seminorm", "--spec", path, "--kind", "gamma", "-m", "1", "-k", "0"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(2 * math.exp(-0.5), rel=1e-9)


def test_seminorm_rho_requires_order(tmp_path):
    path = _write_spec(tmp_path, GAUSS_1D)
    assert main(["seminorm", "--spec", path, "--kind", "rho"]) == 2


def test_taylor_command(tmp_path, capsys):
    path = _write_spec(tmp_path, GAUSS_1D)
    code, out = _run(capsys, ["taylor", "--spec", path, "--order", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 2
    assert len(data["coefficients"]) == 3


def test_pair_delta_command(tmp_path, capsys):
    path = _write_spec(tmp_path, GAUSS_1D)
    code, out = _run(capsys, ["pair-delta", "--spec", path, "-k", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(-math.sqrt(math.pi / 2), rel=1e-9)


def test_pair_delta_transform_check(tmp_path, capsys):
    path = _write_spec(tmp_path, GAUSS_1D)
    code, out = _run(
        capsys, ["pair-delta", "--spec", path, "-k", "1", "--transform-check"]
    )
    assert code == 0
    data = json.loads(out)
    tc = data["transform_check"]
    assert tc["difference"] <= 1e-5 * abs(tc["rhs"])


@pytest.mark.parametrize("k", [50, 100])
def test_pair_delta_transform_check_at_a_high_order(tmp_path, capsys, k):
    # the pairing weight x^(mu+2k+1/2) moves the integrand's bulk out to
    # x = sqrt(2k + 2): with the Gaussian's radius alone both routes read
    # 1.19983 at k = 50 and 1.55e-5 at k = 100, agreeing with each other
    path = _write_spec(tmp_path, GAUSS_1D)
    code, out = _run(capsys, ["pair-delta", "--spec", path, "-k", str(k), "--transform-check"])
    assert code == 0
    data = json.loads(out)
    tc = data["transform_check"]
    for side in (tc["lhs"], tc["rhs"]):
        assert side == pytest.approx(data["value"], rel=1e-12)


def test_pair_delta_transform_check_rejects_window(tmp_path):
    spec = dict(GAUSS_1D)
    spec["window"] = {"kind": "cutoff", "inner": 1.0, "outer": 2.0}
    path = _write_spec(tmp_path, spec)
    code = main(["pair-delta", "--spec", path, "-k", "0", "--transform-check"])
    assert code == 2


def test_multiplier_command(tmp_path, capsys):
    spec = {
        "mu": ["1/2"],
        "multiplier": {
            "numer": [{"k": [0], "q": 1}],
            "denom": [{"k": [0], "q": 1}, {"k": [1], "q": 1}],
        },
    }
    path = _write_spec(tmp_path, spec)
    code, out = _run(capsys, ["multiplier", "--spec", path, "--max-order", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["bounded"] is True


def test_multiplier_hypothesis_exit_code(tmp_path):
    spec = {
        "mu": ["1/2"],
        "multiplier": {
            "numer": [{"k": [0], "q": 1}],
            "denom": [{"k": [1], "q": 1}],
        },
    }
    path = _write_spec(tmp_path, spec)
    assert main(["multiplier", "--spec", path, "--max-order", "1"]) == 4


# ---------------------------------------------------------------------------
# spec validation and exit codes


def test_unknown_top_level_key(tmp_path):
    spec = dict(GAUSS_1D)
    spec["Function"] = {}
    path = _write_spec(tmp_path, spec)
    assert main(["transform", "--spec", path]) == 2


def test_bad_mu_exit_code(tmp_path):
    spec = {"mu": ["-3/4"], "function": GAUSS_1D["function"]}
    path = _write_spec(tmp_path, spec)
    assert main(["transform", "--spec", path]) == 2


def test_missing_spec_file():
    assert main(["transform", "--spec", "/nonexistent/spec.json"]) == 2


@pytest.mark.parametrize(
    "raw", [b'{"mu": [' + b"1" * 5000 + b"]}", b'\xff\xfe{"mu": [1]}'], ids=["integer-of-5000-digits", "not-utf-8"]
)
def test_unreadable_spec_text_exit_2(tmp_path, raw, capsys):
    path = tmp_path / "spec.json"
    path.write_bytes(raw)
    assert main(["transform", "--spec", str(path), "--grid", "0.5:2:4"]) == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "spec",
    [
        {"mu": "1/2", "function": GAUSS_1D["function"]},
        {"mu": ["1/2"], "function": [{"k": [0], "q": 1}]},
        {"mu": ["1/2"], "function": {"terms": [{"k": 0, "q": 1}]}},
        {"mu": ["1/2"], "function": {"terms": [{"k": [0]}]}},
        {"mu": ["1/2"], "function": {"terms": [5]}},
        {"mu": ["1/2"], "function": {"terms": 7}},
        {"mu": ["1/2"], "function": {"terms": [{"q": 1}]}},
        {"mu": {"1": 0}, "function": GAUSS_1D["function"]},
        {"mu": None, "function": GAUSS_1D["function"]},
        {
            "mu": ["1/2", "1/2"],
            "operator": {"terms": [{"k": [1, 0]}]},
        },
        {
            "mu": ["1/2"],
            "multiplier": {"numer": {"terms": [{"k": [0], "q": 1}]}},
        },
        {
            "mu": ["1/2"],
            "multiplier": {"numer": [{"k": [0], "q": 1}], "denom": {}},
        },
    ],
    ids=[
        "mu-not-a-list",
        "function-not-an-object",
        "term-k-not-a-list",
        "term-missing-q",
        "int-term",
        "terms-not-a-list",
        "k-missing",
        "mu-dict",
        "mu-null",
        "operator-term-missing-a",
        "multiplier-numer-not-a-list",
        "multiplier-denom-not-a-list",
    ],
)
def test_malformed_spec_shapes_exit_2(tmp_path, spec, capsys):
    path = _write_spec(tmp_path, spec)
    if "operator" in spec:
        argv = ["kernel", "--spec", path, "--degree", "1"]
    elif "multiplier" in spec:
        argv = ["multiplier", "--spec", path, "--max-order", "0"]
    else:
        argv = ["transform", "--spec", path, "--grid", "0.5:2:4"]
    assert main(argv) == 2
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize(
    "term",
    ['"q": "1/0"', '"q": "abc"', '"q": 1e400', '"q": true', '"q": 1, "junk": 3'],
    ids=["zero-denominator", "not-a-number", "overflow", "bool", "unknown-term-key"],
)
def test_malformed_coefficient_exit_2(tmp_path, term, capsys):
    path = tmp_path / "spec.json"
    path.write_text(
        '{"mu": ["1/2"], "function": {"decay": "1/2", "terms": [{"k": [0], %s}]}}' % term
    )
    assert main(["transform", "--spec", str(path), "--grid", "0.5:2:4"]) == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "spec",
    [
        '{"mu": [true], "function": {"decay": "1/2", "terms": [{"k": [0], "q": 1}]}}',
        '{"mu": [NaN], "function": {"decay": "1/2", "terms": [{"k": [0], "q": 1}]}}',
        '{"mu": ["1e400"], "function": {"decay": "1/2", "terms": [{"k": [0], "q": 1}]}}',
        '{"mu": ["1/2"], "function": {"decay": "1/2", "terms": [{"k": [true], "q": 1}]}}',
    ],
    ids=["mu-bool", "mu-nan", "mu-overflow", "k-bool"],
)
def test_malformed_order_or_index_exit_2(tmp_path, spec, capsys):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    assert main(["transform", "--spec", str(path), "--grid", "0.5:2:4"]) == 2
    captured = capsys.readouterr()
    assert "invalid input" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


_FN = '"function": {"decay": "1/2", "terms": [{"k": [0], "q": 1}]}'
_MULT = '"multiplier": {"numer": [{"k": [0], "q": 1}], "denom": [{"k": [0], "q": 1}, {"k": [1], "q": 1}]'
_NEG_MULT = '"multiplier": {"numer": [{"k": [0], "q": 1}], "denom": [{"k": [0], "q": -1}, {"k": [1], "q": -1}]'
# decay 0: an explicit rule gets past the default rule's decay check
_DECAY_0 = '{"mu": ["1/2"], "function": {"terms": [{"k": [0], "q": 1}]}}'
_QUAD = ["transform", "--grid", "0.1:2:4", "--quad", "24:16:10"]


@pytest.mark.parametrize(
    "spec, argv",
    [
        ('{"mu": ["1/2"], "function": {"terms": [{"k": [1e400], "q": 1}]}}', ["transform"]),
        ('{"mu": ["1/2"], %s, "window": {"kind": "cutoff", "inner": "a", "outer": 2}}' % _FN, ["transform"]),
        ('{"mu": ["1/2"], %s, "window": {"kind": "cutoff", "inner": null, "outer": 2}}' % _FN, ["transform"]),
        ('{"mu": ["1/2"], %s, "window": {"kind": "cutoff", "outer": 2}}' % _FN, ["transform"]),
        ('{"mu": ["1/2"], %s, "window": {"kind": "outer", "inner": 1}}' % _FN, ["transform"]),
        ('{"mu": ["1/2"], %s, "window": {"kind": "outer", "inner": 1, "outer": 1e400}}' % _FN, ["transform"]),
        ('{"mu": ["1/2"], %s, "window": {"kind": "mystery", "inner": 1, "outer": 2}}' % _FN, ["transform"]),
        ('{%s, "power": "x"}}' % _MULT, ["multiplier", "--max-order", "0"]),
        ('{%s, "power": 1.5}}' % _NEG_MULT, ["multiplier", "--max-order", "1"]),
        (_DECAY_0, _QUAD),
        (_DECAY_0, _QUAD + ["--direct"]),
        ('{"mu": ["1/2"], %s}' % _FN, ["transform", "--grid", "0.1:inf:4"]),
        ('{"mu": ["1/2"], %s}' % _FN, ["transform", "--grid", "0.1:1e300:4"]),
    ],
    ids=[
        "k-overflow",
        "window-inner-string",
        "window-inner-null",
        "window-inner-missing",
        "window-outer-missing",
        "window-outer-overflow",
        "window-kind-unknown",
        "power-string",
        "power-of-a-negative-denominator",
        "decay-0-with-a-rule",
        "decay-0-with-a-rule-direct",
        "grid-infinite",
        "grid-huge",
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_malformed_value_exit_2(tmp_path, spec, argv, capsys):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    assert main(argv + ["--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert "invalid input" in captured.err and "Traceback" not in captured.err
    # one short line: a huge kernel argument is not printed digit by digit
    assert len(captured.err.splitlines()) == 1 and len(captured.err) < 200
    assert captured.out == ""


_HUGE = '{"mu": ["1/2"], "function": {"decay": "1/2", "terms": [%s]}}' % ", ".join(
    '{"k": [%d], "q": 1.7e308}' % k for k in range(3)
)


@pytest.mark.parametrize(
    "spec, argv",
    [
        (_HUGE, ["transform", "--grid", "0.5:2:4"]),
        (_HUGE, ["transform", "--grid", "0.5:2:4", "--format", "csv"]),
        (
            '{"mu": ["1/2"], "function": {"decay": "1/2", "terms": [{"k": [400], "q": 1}]}}',
            ["seminorm", "--kind", "gamma", "-m", "1", "-k", "0"],
        ),
        (
            '{"mu": ["1/2"], "function": {"decay": 1e300, "terms": [{"k": [0], "q": 1e300}]}}',
            ["taylor", "--order", "2", "--method", "exact"],
        ),
        (
            '{"mu": ["5/2"], "function": {"decay": "1/3", "terms": [{"k": [0], "q": 1.7e308}]}}',
            ["seminorm", "--kind", "lambda", "-m", "0", "-k", "1"],
        ),
    ],
    ids=["transform-json", "transform-csv", "seminorm-nan", "taylor-exact-overflow", "seminorm-lambda-overflow"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_result_exit_3(tmp_path, spec, argv, capsys):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    assert main(argv + ["--spec", str(path)]) == 3
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


_BIG = 100000000000


@pytest.mark.parametrize(
    "spec, argv, code",
    [
        (GAUSS_1D, ["pair-delta", "-k", str(_BIG)], 3),
        (GAUSS_1D, ["taylor", "--order", "100000"], 3),
        ({"multiplier": {"numer": [{"k": [1], "q": 1}]}}, ["multiplier", "--max-order", "100000"], 3),
        (
            {"mu": ["1/2"], "function": {"decay": "1/2", "terms": [{"k": [_BIG], "q": 1}]}},
            ["transform", "--grid", "0.5:2:4"],
            3,
        ),
        ({"mu": ["1/2"], "operator": {"terms": [{"k": [_BIG], "a": 1}]}}, ["kernel", "--degree", "1", "--skip-weak"], 3),
        ({"mu": ["1/2"], "operator": {"terms": [{"k": [1], "a": 1}]}}, ["kernel", "--degree", "100000"], 3),
        (dict(GAUSS_1D, mu=[_BIG]), ["pair-delta", "-k", "0"], 2),
        (dict(GAUSS_1D, mu=[10**400]), ["transform", "--grid", "0.5:2:4"], 2),
    ],
    ids=[
        "pair-delta-k", "taylor-order", "multiplier-order", "transform-k", "kernel-k", "kernel-degree",
        "pair-delta-mu", "transform-mu-beyond-float",
    ],
)
def test_oversized_input_is_refused(tmp_path, spec, argv, code, capsys):
    # each size is checked before the loop or array it would drive
    path = _write_spec(tmp_path, spec)
    assert main(argv + ["--spec", path]) == code
    err = capsys.readouterr().err
    assert ("numerical failure" if code == 3 else "invalid input") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_out_into_missing_directory_exit_2(tmp_path, fmt, capsys):
    spec = _write_spec(tmp_path, GAUSS_1D)
    out = str(tmp_path / "missing" / "x")
    argv = ["transform", "--spec", spec, "--grid", "0.5:2:4", "--format", fmt, "--out", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and "Traceback" not in err


def test_power_without_denominator(tmp_path):
    spec = {
        "mu": ["1/2"],
        "multiplier": {"numer": [{"k": [0], "q": 1}], "power": 2},
    }
    path = _write_spec(tmp_path, spec)
    assert main(["multiplier", "--spec", path, "--max-order", "0"]) == 2


def test_3d_windowed_transform_hits_the_node_grid_cap(tmp_path, capsys):
    # the windowed member is sampled on the default rule's 384^3 nodes,
    # which the cap refuses before any mesh is formed
    spec = {
        "mu": ["1/2", "1/2", "1/2"],
        "function": {"decay": "1/2", "terms": [{"k": [0, 0, 0], "q": 1}]},
        "window": {"kind": "outer", "inner": 1.0, "outer": 2.0},
    }
    path = _write_spec(tmp_path, spec)
    tracemalloc.start()
    try:
        code = main(["transform", "--spec", path, "--grid", "0.5:2:4"])
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 3
    assert "4000000 points" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert peak < 5_000_000


def test_quad_cap_exit_code(tmp_path):
    path = _write_spec(tmp_path, GAUSS_1D)
    code = main(
        ["transform", "--spec", path, "--grid", "0.5:2:4", "--quad", "1000:300"]
    )
    assert code == 3


def test_points_per_panel_cap_exit_code(tmp_path, capsys, monkeypatch):
    def refuse(points):
        raise AssertionError(f"Gauss-Legendre nodes for {points} points were built")

    monkeypatch.setattr(quadrature_module, "_gauss_legendre", refuse)
    path = _write_spec(tmp_path, GAUSS_1D)
    code = main(["transform", "--spec", path, "--grid", "0.5:2:4", "--quad", "250000:1"])
    assert code == 3
    assert "per panel" in capsys.readouterr().err


def test_bad_grid_syntax(tmp_path):
    path = _write_spec(tmp_path, GAUSS_1D)
    assert main(["transform", "--spec", path, "--grid", "alpha:1:2:3"]) == 2


@pytest.mark.parametrize("grid", ["0.1:4:1000000000000", "geometric:0.1:4:1000000000000"])
def test_huge_grid_count_exit_3(tmp_path, grid, monkeypatch, capsys):
    # the count is checked before np.linspace/np.geomspace would allocate it
    def no_allocation(*args, **kwargs):
        raise AssertionError("grid axis allocated before the size check")

    monkeypatch.setattr(quadrature_module.np, "linspace", no_allocation)
    monkeypatch.setattr(quadrature_module.np, "geomspace", no_allocation)
    path = _write_spec(tmp_path, GAUSS_1D)
    assert main(["transform", "--spec", path, "--grid", grid]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err


def test_import_loads_no_scipy():
    # scipy is a test-only oracle; the runtime must not load it
    code = "import sys, hankelc; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=Path(hankelc.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point(tmp_path):
    spec = _write_spec(tmp_path, GAUSS_1D)
    # run from the directory that holds the package, so the child process
    # imports it whether or not it is installed
    proc = subprocess.run(
        [sys.executable, "-m", "hankelc.cli", "taylor", "--spec", spec, "--order", "1"],
        capture_output=True,
        text=True,
        cwd=Path(hankelc.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 1
