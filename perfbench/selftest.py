"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that inputs follow the seed, that every gate rejects a wrong
answer (each oracle's negative control), that the printed metric names
and units are those of BENCHMARK.json, and that the benchmark refuses to
run without the program's sources.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from worker import child_env, import_hankelc  # noqa: E402

hk = import_hankelc(ROOT)

import oracles  # noqa: E402
import workloads  # noqa: E402
from run import group_rate, tail, trimmed_rate  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench_run", "selftest")


def factories():
    env = child_env(ROOT)
    return {
        "transform": workloads.Transform,
        "kernel": workloads.Kernel,
        "calculus": workloads.Calculus,
        "cli": lambda seed: workloads.Cli(seed, SCRATCH, env),
    }


def run_result(seed, i, wl):
    spec = wl.request(i)
    return spec, wl.prepare(hk, spec, i)()


class Inputs(unittest.TestCase):
    def test_seed_determines_inputs(self):
        for name, make in factories().items():
            with self.subTest(workload=name):
                n = 2 * len(make(0).SLOTS)
                first = [make(5).request(i) for i in range(n)]
                again = [make(5).request(i) for i in range(n)]
                other = [make(6).request(i) for i in range(n)]
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)


class Gates(unittest.TestCase):
    """Each gate passes the program's answer and fails a wrong one."""

    def test_transform_coarse_rule_fails(self):
        wl = workloads.Transform(3)
        for i, slot in enumerate(wl.SLOTS):
            spec, values = run_result(3, i, wl)
            self.assertTrue(wl.check(hk, spec, values)[0], slot)
            coarse = hk.build_quadrature(hk.truncation_radius(float(spec["decay"])), 4, 2)
            f = workloads._member(hk, spec["mu"], spec["terms"], spec["decay"])
            target = f
            if "window" in spec:
                wf = hk.WindowedHFunction(f, hk.OuterWindow(*spec["window"]))
                target = lambda *cols: wf.evaluate(cols)  # noqa: E731
            bad = hk.hankel_nd(list(spec["mu"]), target, hk.GridSpec(wl.grid_axes(spec)), coarse).values
            ok, err = wl.check(hk, spec, bad)
            self.assertFalse(ok, f"{slot}: 4-point 2-panel rule passed with error {err}")

    def test_window_oracle_sees_a_shifted_window(self):
        wl = workloads.Transform(3)
        i = [s[0] for s in wl.SLOTS].index("window")
        spec = wl.request(i)
        moved = dict(spec, window=(spec["window"][0] + 0.3, spec["window"][1] + 0.3))
        values = wl.prepare(hk, moved, i)()
        self.assertFalse(wl.check(hk, spec, values)[0])

    def test_kernel_gates(self):
        wl = workloads.Kernel(4)
        slots = [f"{k}:{s}" for k, s in wl.SLOTS]
        spec, (basis, cert) = run_result(4, slots.index("solve:S2"), wl)
        self.assertTrue(wl.check(hk, spec, (basis, cert))[0])
        # a non-kernel element, a missing element, a large weak residual
        wrong = hk.SymbolicHFunction(list(spec["mu"]), hk.EvenPolynomial.monomial((2,)), 0)
        self.assertFalse(wl.check(hk, spec, (basis[:-1] + [wrong], cert))[0])
        self.assertFalse(wl.check(hk, spec, (basis[:-1], cert))[0])
        cert.weak_residuals = [1e-3] * len(basis)
        self.assertFalse(wl.check(hk, spec, (basis, cert))[0])
        # a control whose candidate is in the kernel scores near zero
        spec = wl.request(slots.index("control:S"))
        self.assertTrue(wl.check(hk, spec, wl.prepare(hk, spec, 0)())[0])
        spec = dict(spec, candidate=(0,), candidate_decay=0)
        self.assertFalse(wl.check(hk, spec, wl.prepare(hk, spec, 0)())[0])

    def test_calculus_gates(self):
        wl = workloads.Calculus(7)
        seen = set()
        for i in range(2 * len(wl.SLOTS)):
            spec, result = run_result(7, i, wl)
            slot = spec["slot"]
            self.assertTrue(wl.check(hk, spec, result)[0], slot)
            if slot in seen:
                continue
            seen.add(slot)
            with self.subTest(slot=slot):
                self.assertFalse(wl.check(hk, spec, self.tamper(spec, result))[0])
        self.assertEqual(seen, set(wl.SLOTS))

    @staticmethod
    def tamper(spec, result):
        slot = spec["slot"]
        if slot in ("solve2d", "solve3d"):
            basis, cert = result
            extra = hk.SymbolicHFunction(list(spec["mu"]), hk.EvenPolynomial.monomial((1,) * len(spec["mu"])), 0)
            return basis + [extra], cert
        if slot == "powers":
            sk, tk = result
            return sk.scale(Fraction(11, 10)), tk
        if slot.startswith("taylor"):
            k = min(result.coefficients)
            result.coefficients[k] = result.coefficients[k] + Fraction(1, 10**6)
            return result
        if slot == "pair":
            value, both = result
            scale = oracles.pairing_scale(spec["k"], spec["mu"], spec["terms"], spec["decay"])
            return value, dict(both, lhs=both["lhs"] + 1e-3 * scale)
        if slot == "seminorm_gamma":
            return result * 1.1
        if slot == "seminorm_lambda":
            lam, bound, terms = result
            return lam, 0.5 * lam, terms
        if slot == "reconstruct":
            k = min(result.terms)
            result.terms[k] *= 1.001
            return result
        if slot == "multiplier":
            k = max(result.entries)
            result.entries[k] = dict(result.entries[k], exponent=result.entries[k]["exponent"] - 1)
            return result
        raise AssertionError(slot)

    def test_gamma_gate_also_fails_low(self):
        wl = workloads.Calculus(7)
        i = wl.SLOTS.index("seminorm_gamma")
        spec, value = run_result(7, i, wl)
        self.assertFalse(wl.check(hk, spec, 0.9 * value)[0])

    def test_cli_gates(self):
        os.makedirs(SCRATCH, exist_ok=True)
        wl = factories()["cli"](2)
        for i, slot in enumerate(wl.ROUND):
            spec = wl.request(i)
            if slot == "transform":
                code, out, err = wl.prepare(hk, spec, i)()
                self.assertTrue(wl.check(hk, spec, (code, out, err))[0])
                data = json.loads(out)
                top = max(range(len(data["values"])), key=lambda j: abs(data["values"][j]))
                data["values"][top] *= 1.0 + 1e-6
                self.assertFalse(wl.check(hk, spec, (0, json.dumps(data), ""))[0])
                self.assertFalse(wl.check(hk, spec, (1, out, "Traceback"))[0])
            if slot == "taylor":
                code, out, err = wl.prepare(hk, spec, i)()
                self.assertTrue(wl.check(hk, spec, (code, out, err))[0])
                data = json.loads(out)
                data["coefficients"][0]["a"] = str(Fraction(data["coefficients"][0]["a"]) + 1)
                self.assertFalse(wl.check(hk, spec, (0, json.dumps(data), ""))[0])
            if slot == "invalid_handled":
                self.assertTrue(wl.check(hk, spec, (2, "", "invalid input: x"))[0])
                self.assertFalse(wl.check(hk, spec, (2, "", "Traceback (most recent call last)"))[0])
                self.assertFalse(wl.check(hk, spec, (0, "{}", ""))[0])
                self.assertFalse(wl.check(hk, spec, (1, "", ""))[0])


class Oracles(unittest.TestCase):
    def test_weber_laguerre_reduces_to_the_gaussian(self):
        y = [0.3, 1.0, 2.5]
        got = oracles.weber_laguerre([Fraction(1, 2)], {(0,): 1}, Fraction(1, 2), [y])
        want = [v ** 1.0 * math.exp(-v * v / 2) for v in y]
        self.assertLess(oracles.relative_error(got, want), 1e-15)

    def test_laguerre_first_terms(self):
        t, a = 0.7, 0.25
        self.assertAlmostEqual(float(oracles.laguerre(1, a, t)), 1 + a - t, places=15)
        want = ((t * t) - 2 * (a + 2) * t + (a + 1) * (a + 2)) / 2
        self.assertAlmostEqual(float(oracles.laguerre(2, a, t)), want, places=14)


class Statistics(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        value, pct, n = tail(list(range(100)))
        self.assertEqual((value, n), (89, 100))
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(tail([3, 1, 2])[0], 3)

    def test_trimmed_rate_leaves_out_a_fifth_at_each_end(self):
        recs = [{"cycle": c, "ok": True, "seconds": s} for c, s in enumerate((9.0, 1.0, 1.0, 1.0, 0.1))]
        recs.append({"cycle": 2, "ok": False, "seconds": 1.0})
        self.assertEqual(trimmed_rate(recs), 3 / 4.0)

    def test_group_rate_counts_each_request_at_its_group_median(self):
        recs = [{"group": "a", "ok": True, "seconds": s} for s in (0.5, 0.5, 9.0)]
        recs.append({"group": "b", "ok": False, "seconds": 0.5})
        self.assertEqual(group_rate(recs), 3 / 2.0)


class Contract(unittest.TestCase):
    def run_bench(self, cwd, *args):
        return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                              cwd=cwd, capture_output=True, text=True, timeout=180)

    def test_metric_names_and_units_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                proc = self.run_bench(ROOT, "--workload", "calculus", "--seed", "1",
                                      "--seconds", "0.2", "--trace", str(trace))
                self.assertEqual(proc.returncode, 0, proc.stderr)
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(line["correct"])
                got = {n: m["unit"] for n, m in line["metrics"].items()}
                want = {m["name"]: m["unit"] for m in bench[key]}
                self.assertEqual(got, want)

    def test_refuses_to_run_without_the_sources(self):
        empty = os.path.join(SCRATCH, "empty")
        shutil.rmtree(empty, ignore_errors=True)
        os.makedirs(empty)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
        shutil.copytree(HERE, os.path.join(empty, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = self.run_bench(empty, "--workload", "transform", "--seed", "1",
                                  "--seconds", "1", "--trace", "0")
        finally:
            shutil.rmtree(empty, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        unittest.main()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
