"""Acceptance gate: one test per shipped criterion.

Each test prints a single `[PASS] criterion N: ...` line (visible with
`pytest -s`) and asserts the criterion at its stated tolerance, so the
plain `pytest -v` run also shows exactly one pass/fail line per
criterion.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from hankelc import (
    CutoffSpec,
    DeltaCombination,
    EvenPolynomial,
    EvenRational,
    GaussianPolynomial,
    GridSpec,
    MultiIndex,
    MultiplierForm,
    MuVector,
    OperatorPoly,
    OuterWindow,
    SymbolicHFunction,
    apply_S,
    apply_T,
    apply_Tk,
    apply_Sk,
    bessel_j,
    default_rule_for,
    gamma_fn,
    hankel_1d,
    hankel_nd,
    koh_zemanian_coeffs_nd,
    lambda_gamma_bound_terms,
    leibniz_Tk,
    liouville_solve,
    multiplier_check,
    pair_delta_transform,
    reconstruct_point_supported,
    taylor_coeffs,
    weak_spectral_check,
)
from hankelc.multiindex import mi_below, mi_graded_enumerate, unit_index


def _axis_index(n, axis, power):
    return MultiIndex(power if i == axis else 0 for i in range(n))

HALF = Fraction(1, 2)
MU_SWEEP = ["-1/2", "0", "1/2", "3/2"]
MU_POOL = [Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(3, 2), Fraction(2)]


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")


def _gauss(mu, poly=None, decay=HALF):
    mu = MuVector(mu)
    poly = poly if poly is not None else EvenPolynomial.constant(mu.dim, 1)
    return SymbolicHFunction(mu, poly, decay)


def _random_poly(rng, dim, max_degree, density=0.35):
    coeffs = {}
    for k in mi_graded_enumerate(dim, max_degree):
        if rng.random() < density:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            if c:
                coeffs[k] = c
    if not coeffs:
        coeffs[MultiIndex([0] * dim)] = Fraction(1)
    return EvenPolynomial(dim, coeffs)


def _random_index(rng, dim, max_total):
    k = [0] * dim
    for _ in range(rng.randint(0, max_total)):
        k[rng.randrange(dim)] += 1
    return MultiIndex(k)


def _series_coeff(poly, decay, k):
    """Independent Taylor oracle: coefficient of v^k in Q(v) e^{-decay sum v}."""
    k = MultiIndex(k)
    total = Fraction(0)
    for j in mi_below(k):
        q = poly.coefficient(j)
        if q == 0:
            continue
        piece = Fraction(q)
        for a in range(len(k)):
            r = k[a] - j[a]
            piece *= (-Fraction(decay)) ** r / math.factorial(r)
        total += piece
    return total


# ---------------------------------------------------------------------------


def test_criterion_01_exact_operator_identities():
    """Leibniz, normal-ordered expansion, T-commutativity and the monomial
    rules hold with exact rational equality on 100 random cases."""
    rng = random.Random(314159)
    decays = [Fraction(0), Fraction(1, 3), HALF, Fraction(1)]
    cases = 100
    for _ in range(cases):
        n = rng.randint(1, 3)
        mu = MuVector([rng.choice(MU_POOL) for _ in range(n)])
        k = _random_index(rng, n, 4)

        # product rule
        theta = GaussianPolynomial(_random_poly(rng, n, 6), rng.choice(decays))
        phi = GaussianPolynomial(_random_poly(rng, n, 6), rng.choice(decays))
        direct = apply_Tk(k, theta * phi)
        split = leibniz_Tk(k, theta, phi)
        assert direct.poly == split.poly and direct.decay == split.decay

        # order of axis applications is irrelevant
        expanded = [axis for axis in range(n) for _ in range(k[axis])]
        rng.shuffle(expanded)
        out = theta
        for axis in expanded:
            out = apply_T(axis, out)
        assert out.poly == apply_Tk(k, theta).poly

        # normal-ordered expansion of the operator powers
        f = SymbolicHFunction(mu, _random_poly(rng, n, 6), rng.choice(decays))
        lhs = apply_Sk(k, f).poly
        rhs = EvenPolynomial(n)
        for l, b in koh_zemanian_coeffs_nd(k, mu).items():
            rhs = rhs + apply_Tk(k + l, f.u).poly.shift(l).scale(b)
        assert lhs == rhs

        # monomial displays, one random axis each
        axis = rng.randrange(n)
        p, r = rng.randint(0, 6), rng.randint(0, 4)
        mono = GaussianPolynomial(EvenPolynomial.monomial(_axis_index(n, axis, p)), 0)
        image = apply_Tk(_axis_index(n, axis, r), mono)
        if r > p:
            assert image.poly.is_zero
        else:
            want = Fraction(2**r * math.factorial(p), math.factorial(p - r))
            assert image.poly == EvenPolynomial.monomial(_axis_index(n, axis, p - r), want)

        km = _random_index(rng, n, 4)
        fmono = SymbolicHFunction(mu, EvenPolynomial.monomial(km), 0)
        simage = apply_S(axis, fmono)
        if km[axis] == 0:
            assert simage.poly.is_zero
        else:
            coeff = 4 * km[axis] * (km[axis] + mu[axis])
            assert simage.poly == EvenPolynomial.monomial(km - unit_index(n, axis), coeff)
    _report(1, True, f"exact operator identities on {cases} random cases (zero tolerance)")


def test_criterion_02_self_reciprocity():
    """The transform fixes x^(mu+1/2) e^{-|x|^2/2} to 1e-6 over the order sweep."""
    t0 = time.monotonic()
    rule = default_rule_for(HALF)
    worst = 0.0
    ys = np.linspace(0.1, 4.0, 64)
    for m in MU_SWEEP:
        f = _gauss([m])
        out = hankel_1d(float(Fraction(m)), f, ys, rule)
        worst = max(worst, float(np.max(np.abs(out.values - f.evaluate([ys])))))
    grid = GridSpec.linear(0.1, 4.0, 24, dim=2)
    mesh = grid.meshgrid()
    for m1 in MU_SWEEP:
        for m2 in MU_SWEEP:
            f = _gauss([m1, m2])
            out = hankel_nd(f.mu, f, grid, rule)
            worst = max(worst, float(np.max(np.abs(out.values - f.evaluate(mesh)))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed <= 60.0
    _report(2, ok, f"self-reciprocity sup error {worst:.3e} <= 1e-6 in {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed <= 60.0


def test_criterion_03_diagonalization():
    """Transforming the one-axis operator image multiplies by -y_i^2."""
    rule = default_rule_for(HALF)
    worst = 0.0
    ys = np.linspace(0.1, 4.0, 64)
    for m in MU_SWEEP:
        phi = _gauss([m], EvenPolynomial(1, {(0,): 1, (1,): -HALF}))
        lhs = hankel_1d(float(Fraction(m)), apply_S(0, phi), ys, rule).values
        rhs = -(ys**2) * hankel_1d(float(Fraction(m)), phi, ys, rule).values
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    grid = GridSpec.linear(0.1, 4.0, 24, dim=2)
    mesh = grid.meshgrid()
    for m1 in MU_SWEEP:
        for m2 in MU_SWEEP:
            mu = MuVector([m1, m2])
            phi = _gauss(mu, EvenPolynomial(2, {(0, 0): 1, (1, 1): HALF}))
            base = hankel_nd(mu, phi, grid, rule).values
            for axis in range(2):
                lhs = hankel_nd(mu, apply_S(axis, phi), grid, rule).values
                rhs = -(mesh[axis] ** 2) * base
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-6
    _report(3, ok, f"diagonalization sup error {worst:.3e} <= 1e-6")
    assert ok


def test_criterion_04_delta_transform_consistency():
    """Both routes to (T^k delta, transform) agree to 1e-5 relative, and the
    closed case equals -sqrt(pi/2) to 1e-6."""
    worst = 0.0
    for mu, poly in [
        (MuVector(["1/2"]), EvenPolynomial(1, {(0,): 1, (1,): -HALF})),
        (MuVector(["1/2", "0"]), EvenPolynomial(2, {(0, 0): 1, (1, 0): -HALF})),
    ]:
        phi = _gauss(mu, poly)
        for k in mi_graded_enumerate(mu.dim, 2):
            out = pair_delta_transform(k, mu, phi)
            rel = abs(out["lhs"] - out["rhs"]) / max(abs(out["rhs"]), 1e-12)
            worst = max(worst, rel)
    closed = pair_delta_transform((1,), ["1/2"], _gauss(["1/2"]))
    closed_err = abs(closed["lhs"] + math.sqrt(math.pi / 2))
    ok = worst <= 1e-5 and closed_err <= 1e-6
    _report(
        4,
        ok,
        f"delta/transform agreement rel {worst:.3e} <= 1e-5, "
        f"closed value error {closed_err:.3e} <= 1e-6",
    )
    assert worst <= 1e-5
    assert closed_err <= 1e-6


def test_criterion_05_structure_roundtrip():
    """50 random delta combinations are recovered from their functionals."""
    rng = random.Random(271828)
    cut = CutoffSpec(1.0, 2.0)
    worst = 0.0
    for case in range(50):
        n = 1 + case % 2
        mu = MuVector([rng.choice(MU_POOL) for _ in range(n)])
        order = rng.randint(0, 2)
        terms = {}
        for k in mi_graded_enumerate(n, order):
            if rng.random() < 0.7:
                mag = rng.uniform(0.25, 3.0)
                terms[k] = mag if rng.random() < 0.5 else -mag
        if not terms:
            terms[MultiIndex([0] * n)] = 1.0
        truth = DeltaCombination(mu, terms)
        got = reconstruct_point_supported(truth.pair, mu, 2, cut)
        keys = set(truth.terms) | set(got.terms)
        err = max(
            abs(truth.terms.get(k, 0.0) - got.terms.get(k, 0.0)) for k in keys
        )
        worst = max(worst, err)
    ok = worst <= 1e-8
    _report(5, ok, f"50 structure round-trips, max coefficient error {worst:.3e} <= 1e-8")
    assert ok


def test_criterion_06_taylor_machinery():
    """Exact germs match the series oracle exactly; extrapolation to 1e-8;
    remainders decay monotonically below 1e-6 at x = 2^-12."""
    rng = random.Random(161803)
    extrapolation_worst = 0.0
    for _ in range(10):
        n = rng.randint(1, 2)
        mu = MuVector([rng.choice(MU_POOL) for _ in range(n)])
        poly = _random_poly(rng, n, 3, density=0.5)

        plain = SymbolicHFunction(mu, poly, 0)
        report = taylor_coeffs(mu, plain, 3, method="exact")
        for k, got in report.coefficients.items():
            assert got == _series_coeff(poly, 0, k)  # decay-free path, exact

        decayed = SymbolicHFunction(mu, poly, HALF)
        exact = taylor_coeffs(mu, decayed, 3, method="exact")
        for k, got in exact.coefficients.items():
            assert got == _series_coeff(poly, HALF, k)
        extr = taylor_coeffs(mu, decayed, 3, method="extrapolate")
        for k in exact.coefficients:
            extrapolation_worst = max(
                extrapolation_worst,
                abs(float(extr.coefficients[k]) - float(exact.coefficients[k])),
            )

    tail = taylor_coeffs(["1/2"], _gauss(["1/2"]), 3)
    assert tail.remainder_samples[-1][0] == 12  # deepest sample at 2^-12
    final = abs(tail.remainder_samples[-1][1])
    monotone = tail.remainder_nonincreasing()
    tk_final = tail.tk_final_max()
    ok = (
        extrapolation_worst <= 1e-8
        and monotone
        and final < 1e-6
        and tk_final < 1e-6
    )
    _report(
        6,
        ok,
        f"taylor exact==oracle, extrapolated {extrapolation_worst:.3e} <= 1e-8, "
        f"remainder at 2^-12 {final:.3e} and T^k remainder {tk_final:.3e} < 1e-6",
    )
    assert extrapolation_worst <= 1e-8
    assert monotone and final < 1e-6 and tk_final < 1e-6


def test_criterion_07_seminorm_domination():
    """lambda_{m,k} <= sum_l |b_{l,k}| gamma_{m+|l|,k+l} on every sampled
    grid; the reverse ratio is reported observationally."""
    rng = random.Random(577215)
    worst_ratio = 0.0
    checked = 0
    for case in range(20):
        n = 1 + case % 2
        mu = MuVector([rng.choice(MU_POOL) for _ in range(n)])
        f = SymbolicHFunction(mu, _random_poly(rng, n, 2, density=0.5), HALF)
        for m in range(3):
            for k in mi_graded_enumerate(n, 2):
                lam, bound, _ = lambda_gamma_bound_terms(m, k, mu, f)
                assert lam <= bound * (1 + 1e-12), (m, tuple(k), lam, bound)
                checked += 1
                if lam > 1e-12:
                    worst_ratio = max(worst_ratio, bound / lam)
    _report(
        7,
        True,
        f"domination holds on {checked} (m,k,f) samples; "
        f"observed max gamma-sum/lambda ratio {worst_ratio:.2f}",
    )


def test_criterion_08_liouville_end_to_end():
    """Kernel solves across the operator and order sweeps: exact zeros,
    weak residuals <= 1e-6, and the shipped negative control >= 0.1."""
    operators = {
        1: [
            {(0,): 1},
            {(1,): 1},
            {(0,): 1, (1,): 1},
            {(2,): 1},
        ],
        2: [
            {(0, 0): 1},
            {(1, 0): 1, (0, 1): 1},
            {(0, 0): 1, (1, 0): 1, (0, 1): 1},
            {(2, 0): 1, (0, 2): 1},
        ],
    }
    worst_weak = 0.0
    solves = 0
    for n in (1, 2):
        sweeps = (
            [[m] for m in MU_SWEEP]
            if n == 1
            else [[m1, m2] for m1 in MU_SWEEP for m2 in MU_SWEEP]
        )
        for coeffs in operators[n]:
            P = OperatorPoly(n, coeffs)
            for mu in sweeps:
                basis, cert = liouville_solve(P, mu, 2)
                solves += 1
                assert cert.consistent  # operator images identically zero
                if cert.weak_residuals:
                    worst_weak = max(worst_weak, max(cert.weak_residuals))

    # shipped negative control: f = x^(mu+1/2) x_1^2 against P = sum x_i
    controls = []
    for n in (1, 2):
        mu = MuVector(["1/2"] * n)
        f = SymbolicHFunction(mu, EvenPolynomial.monomial(unit_index(n, 0)), 0)
        P = OperatorPoly(n, {(1,): 1} if n == 1 else {(1, 0): 1, (0, 1): 1})
        residual = weak_spectral_check(f, P)
        controls.append(residual)
        print(
            f"    negative control (n={n}): residual {residual:.3f} >= 0.1 "
            f"(expected-fail: non-kernel candidate correctly rejected)"
        )
    ok = worst_weak <= 1e-6 and all(r >= 0.1 for r in controls)
    _report(
        8,
        ok,
        f"{solves} kernel solves exact-zero, weak residuals <= {worst_weak:.3e}, "
        f"controls {', '.join(f'{r:.2f}' for r in controls)} >= 0.1",
    )
    assert worst_weak <= 1e-6
    assert all(r >= 0.1 for r in controls)


def test_criterion_09_bessel_layer():
    """Half-order closed forms, the derivative identity against finite
    differences, and the Gamma recurrence."""
    z = np.linspace(0.1, 40.0, 400)
    half_err = max(
        float(np.max(np.abs(bessel_j(0.5, z) - np.sqrt(2 / (np.pi * z)) * np.sin(z)))),
        float(np.max(np.abs(bessel_j(-0.5, z) - np.sqrt(2 / (np.pi * z)) * np.cos(z)))),
        float(
            np.max(
                np.abs(
                    bessel_j(1.5, z)
                    - np.sqrt(2 / (np.pi * z)) * (np.sin(z) / z - np.cos(z))
                )
            )
        ),
    )

    zz = np.linspace(0.5, 30.0, 60)
    h = 1e-5
    deriv_err = 0.0
    for nu in (0.5, 1.0, 1.5, 2.0):
        identity = 0.5 * (bessel_j(nu - 1, zz) - bessel_j(nu + 1, zz))
        fd = (bessel_j(nu, zz + h) - bessel_j(nu, zz - h)) / (2 * h)
        deriv_err = max(deriv_err, float(np.max(np.abs(identity - fd))))

    gamma_err = 0.0
    for x in np.linspace(0.1, 169.0, 300):
        lhs = gamma_fn(x + 1.0)
        gamma_err = max(gamma_err, abs(lhs - x * gamma_fn(x)) / lhs)

    ok = half_err <= 1e-10 and deriv_err <= 1e-6 and gamma_err <= 1e-12
    _report(
        9,
        ok,
        f"half-order {half_err:.3e} <= 1e-10, derivative vs FD {deriv_err:.3e} <= 1e-6, "
        f"gamma recurrence {gamma_err:.3e} <= 1e-12",
    )
    assert half_err <= 1e-10
    assert deriv_err <= 1e-6
    assert gamma_err <= 1e-12


def test_criterion_10_multiplier_stability():
    """Reported exponents are grid-independent and bounds move <= 5% when
    the scan grid is doubled."""
    one1 = EvenPolynomial.constant(1, 1)
    one2 = EvenPolynomial.constant(2, 1)
    forms = [
        MultiplierForm.polynomial(EvenPolynomial.monomial((1,))),
        MultiplierForm.quotient(one1, EvenPolynomial(1, {(0,): 1, (1,): 1})),
        MultiplierForm.quotient(
            one2, EvenPolynomial(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        ),
        MultiplierForm(
            EvenRational(one1, EvenPolynomial.monomial((1,))), OuterWindow(1.0, 2.0)
        ),
    ]
    worst_drift = 0.0
    for form in forms:
        base = multiplier_check(form, 2, points_per_axis=200)
        fine = multiplier_check(form, 2, points_per_axis=400)
        assert base.bounded and fine.bounded
        for k, entry in base.entries.items():
            other = fine.entries[k]
            assert entry["exponent"] == other["exponent"]
            c0, c1 = entry["bound"], other["bound"]
            if max(c0, c1) > 0:
                drift = abs(c1 - c0) / max(c0, c1)
                worst_drift = max(worst_drift, drift)
                assert drift <= 0.05
    ok = worst_drift <= 0.05
    _report(10, ok, f"multiplier exponents stable, max bound drift {100 * worst_drift:.2f}% <= 5%")
    assert ok
