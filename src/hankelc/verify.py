"""Self-contained verification suites behind the `verify` CLI command.

Each suite evaluates a list of named checks; a check records a scalar
value, a tolerance, and whether it passed.  Checks marked expected_fail
are negative controls: they pass when the value EXCEEDS the tolerance,
guarding against a silently vacuous pipeline.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np

from .bessel import MuVector, bessel_j, c_mu, gamma_fn
from .distributions import pair_delta, pair_s_delta, taylor_coeffs
from .errors import DomainError, HypothesisFailed
from .liouville import liouville_solve, weak_spectral_check
from .multiindex import MultiIndex
from .quadrature import GridSpec
from .seminorms import (
    lambda_gamma_bound_terms,
    seminorm_gamma,
    seminorm_lambda,
    seminorm_rho,
)
from .symbolic import (
    EvenPolynomial,
    OperatorPoly,
    SymbolicHFunction,
    apply_Sk,
    apply_Tk,
    koh_zemanian_coeffs_nd,
)
from .transform import (
    default_rule_for,
    hankel_nd,
    hankel_roundtrip_residual,
    orthant_pair,
    sample_on_nodes,
)

__all__ = ["SUITES", "run_suite", "run_all", "parallel_map"]

SUITES = ("identities", "roundtrip", "taylor", "seminorms", "liouville")


def parallel_map(fn, items, threads: int = 1):
    items = list(items)
    if threads is None or threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _check(name: str, value, tolerance: float, expected_fail: bool = False) -> dict:
    value = float(value)
    passed = value > tolerance if expected_fail else value <= tolerance
    return {
        "name": name,
        "value": value,
        "tolerance": tolerance,
        "passed": bool(passed),
        "expected_fail": expected_fail,
    }


def _gauss_member(mu, extra=None) -> SymbolicHFunction:
    mu = MuVector(mu)
    poly = EvenPolynomial.constant(mu.dim, 1) if extra is None else extra
    return SymbolicHFunction(mu, poly, Fraction(1, 2))


# ---------------------------------------------------------------------------
# identities


def _chk_gamma_recurrence() -> list:
    xs = np.linspace(0.1, 40.0, 173)
    worst = max(
        abs(gamma_fn(x + 1.0) - x * gamma_fn(x)) / gamma_fn(x + 1.0) for x in xs
    )
    return [_check("gamma_recurrence", worst, 1e-12)]


def _chk_half_order() -> list:
    z = np.linspace(0.05, 60.0, 500)
    sin_form = np.sqrt(2.0 / (math.pi * z)) * np.sin(z)
    cos_form = np.sqrt(2.0 / (math.pi * z)) * np.cos(z)
    err = max(
        float(np.max(np.abs(bessel_j(0.5, z) - sin_form))),
        float(np.max(np.abs(bessel_j(-0.5, z) - cos_form))),
    )
    return [_check("bessel_half_order", err, 1e-10)]


def _chk_bessel_derivative() -> list:
    h = 1e-5
    worst = 0.0
    for nu in (0.0, 0.5, 1.5, 3.0):
        z = np.linspace(0.5, 40.0, 160)
        fd = (bessel_j(nu, z + h) - bessel_j(nu, z - h)) / (2.0 * h)
        exact = 0.5 * (bessel_j(nu - 1.0, z) - bessel_j(nu + 1.0, z)) if nu >= 0.5 else None
        if exact is None:
            # J_0' = -J_1
            exact = -bessel_j(1.0, z)
        worst = max(worst, float(np.max(np.abs(fd - exact))))
    return [_check("bessel_derivative_identity", worst, 1e-6)]


def _chk_bessel_operator_fd() -> list:
    # the symbolic one-axis operator image must match the second-order
    # differential expression f'' - (4 mu^2 - 1) / (4 x^2) f
    mu = MuVector(["1/2"])
    f = _gauss_member(mu, EvenPolynomial(1, {(0,): 1, (1,): "1/3"}))
    g = apply_Sk((1,), f)
    xs = np.linspace(0.4, 3.0, 41)
    h = 1e-4
    m = float(mu[0])

    def val(x):
        return f.evaluate([x])

    second = (val(xs + h) - 2.0 * val(xs) + val(xs - h)) / (h * h)
    direct = second - (4.0 * m * m - 1.0) / (4.0 * xs * xs) * val(xs)
    err = float(np.max(np.abs(direct - g.evaluate([xs]))))
    return [_check("bessel_operator_vs_fd", err, 1e-6)]


def _chk_koh_zemanian() -> list:
    # S^k u-side == sum_l b_{l,k} x^(2l) T^(k+l) u, exactly
    cases = [
        (MuVector(["1/2"]), MultiIndex((2,)), EvenPolynomial(1, {(0,): 1, (1,): Fraction(1, 3)})),
        (MuVector(["1/2", "3/2"]), MultiIndex((1, 1)), EvenPolynomial(2, {(0, 0): 1, (1, 0): -2, (0, 1): 1})),
    ]
    worst = Fraction(0)
    for mu, k, poly in cases:
        f = SymbolicHFunction(mu, poly, Fraction(1, 2))
        lhs = apply_Sk(k, f).u.poly
        rhs = EvenPolynomial.zero(mu.dim)
        for l, b in koh_zemanian_coeffs_nd(k, mu).items():
            rhs = rhs + apply_Tk(k + l, f.u).poly.shift(l).scale(b)
        diff = lhs - rhs
        for _, v in diff.items():
            worst = max(worst, abs(v))
    return [_check("koh_zemanian_expansion", float(worst), 0.0)]


def _chk_s_delta_scaling() -> list:
    mu = MuVector(["1/2"])
    phi = _gauss_member(mu, EvenPolynomial(1, {(0,): 2, (1,): -1}))
    worst = 0.0
    for k in [(1,), (2,)]:
        lhs = pair_s_delta(k, mu, phi)
        ratio = c_mu(mu.shifted(k)) / c_mu(mu)
        rhs = ratio * pair_delta(k, mu, phi)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    return [_check("s_delta_scaling", worst, 1e-12)]


def _chk_transform_eigenfunction() -> list:
    mu = MuVector(["1/2"])
    f = _gauss_member(mu)
    rule = default_rule_for(0.5)
    grid = GridSpec.linear(0.1, 4.0, 80)
    got = hankel_nd(mu, f, grid, rule).values
    want = sample_on_nodes(f, grid.axes)
    return [_check("transform_gaussian_fixed_point", float(np.max(np.abs(got - want))), 1e-9)]


def _chk_transform_degree2() -> list:
    mu = MuVector(["3/4"])
    a = float(mu[0])
    f = _gauss_member(mu, EvenPolynomial(1, {(1,): 1}))
    rule = default_rule_for(0.5)
    grid = GridSpec.linear(0.1, 4.0, 80)
    got = hankel_nd(mu, f, grid, rule).values
    y = grid.axes[0]
    want = y ** (a + 0.5) * (2.0 * (a + 1.0) - y * y) * np.exp(-0.5 * y * y)
    return [_check("transform_degree_two_closed_form", float(np.max(np.abs(got - want))), 1e-9)]


def _chk_self_adjoint() -> list:
    mu = MuVector(["1/2"])
    rule = default_rule_for(0.5)
    grid = GridSpec([rule.nodes])
    f = _gauss_member(mu, EvenPolynomial(1, {(0,): 1, (1,): 1}))
    g = _gauss_member(mu, EvenPolynomial(1, {(0,): 2, (1,): -1}))
    hf = hankel_nd(mu, f, grid, rule).values
    hg = hankel_nd(mu, g, grid, rule).values
    lhs = orthant_pair(hf, g, rule)
    rhs = orthant_pair(f, hg, rule)
    return [_check("transform_self_adjoint", abs(lhs - rhs) / max(abs(lhs), 1e-30), 1e-9)]


def _chk_diagonalization() -> list:
    mu = MuVector(["1/2", "1/2"])
    f = _gauss_member(mu, EvenPolynomial(2, {(0, 0): 1, (1, 0): Fraction(1, 2)}))
    rule = default_rule_for(0.5, points_per_panel=16, panels=12)
    grid = GridSpec.linear(0.2, 3.0, 24, dim=2)
    sf = apply_Sk((1, 0), f)
    lhs = hankel_nd(mu, sf, grid, rule).values
    hf = hankel_nd(mu, f, grid, rule).values
    ym = grid.meshgrid()
    rhs = -(ym[0] ** 2) * hf
    return [_check("transform_diagonalizes_operator", float(np.max(np.abs(lhs - rhs))), 1e-6)]


def _chk_direct_vs_factorized() -> list:
    mu = MuVector(["1/2", "3/2"])
    f = _gauss_member(mu, EvenPolynomial(2, {(0, 0): 1, (0, 1): -1}))
    rule = default_rule_for(0.5, points_per_panel=12, panels=8)
    grid = GridSpec.linear(0.3, 2.0, 10, dim=2)
    fast = hankel_nd(mu, f, grid, rule).values
    slow = hankel_nd(mu, f, grid, rule, direct=True).values
    return [_check("direct_vs_factorized", float(np.max(np.abs(fast - slow))), 1e-9)]


# ---------------------------------------------------------------------------
# roundtrip


def _chk_roundtrip_1d() -> list:
    mu = MuVector(["1/2"])
    f = _gauss_member(mu, EvenPolynomial(1, {(0,): 1, (1,): Fraction(-1, 4)}))
    res = hankel_roundtrip_residual(f, GridSpec.linear(0.1, 4.0, 60))
    return [
        _check("roundtrip_sup_1d", res["residual"], 1e-6),
        _check("roundtrip_sup_1d_coarse", res["coarse_residual"], 1e-5),
    ]


def _chk_roundtrip_2d() -> list:
    mu = MuVector(["1/2", "3/4"])
    f = _gauss_member(mu, EvenPolynomial(2, {(0, 0): 1, (1, 0): Fraction(1, 3)}))
    res = hankel_roundtrip_residual(f, GridSpec.linear(0.1, 4.0, 24, dim=2))
    return [_check("roundtrip_sup_2d", res["residual"], 1e-6)]


# ---------------------------------------------------------------------------
# taylor


def _chk_taylor_exact() -> list:
    mu = MuVector(["1/2"])
    f = _gauss_member(mu)
    rep = taylor_coeffs(mu, f, 2, method="exact")
    want = {(0,): Fraction(1), (1,): Fraction(-1, 2), (2,): Fraction(1, 8)}
    worst = max(
        abs(rep.coefficients[MultiIndex(k)] - v) for k, v in want.items()
    )
    return [_check("taylor_exact_gaussian", float(worst), 0.0)]


def _chk_taylor_extrapolated() -> list:
    mu = MuVector(["1/2"])
    f = _gauss_member(mu)
    rep = taylor_coeffs(mu, f, 2, method="extrapolate")
    want = {(0,): 1.0, (1,): -0.5, (2,): 0.125}
    worst = max(
        abs(float(rep.coefficients[MultiIndex(k)]) - v) for k, v in want.items()
    )
    return [_check("taylor_extrapolated_gaussian", worst, 1e-8)]


def _chk_taylor_remainder() -> list:
    mu = MuVector(["1/2"])
    f = _gauss_member(mu, EvenPolynomial(1, {(0,): 1, (1,): Fraction(1, 5)}))
    rep = taylor_coeffs(mu, f, 3, method="exact")
    final = abs(rep.remainder_samples[-1][1])
    ok = rep.remainder_nonincreasing()
    value = final if ok else 1.0
    return [_check("taylor_remainder_decay", value, 1e-6)]


def _chk_taylor_tk_remainder() -> list:
    mu = MuVector(["1/2", "1/2"])
    f = _gauss_member(mu, EvenPolynomial(2, {(0, 0): 1, (1, 1): Fraction(-1, 2)}))
    rep = taylor_coeffs(mu, f, 2, method="exact")
    return [_check("taylor_derivative_remainder", rep.tk_final_max(), 1e-6)]


# ---------------------------------------------------------------------------
# seminorms


def _chk_lambda_00() -> list:
    mu = MuVector(["1/2"])
    f = _gauss_member(mu)
    return [_check("lambda_0_0_gaussian", abs(seminorm_lambda(0, (0,), mu, f) - 1.0), 1e-9)]


def _chk_lambda_01() -> list:
    mu = MuVector(["1/2"])
    f = _gauss_member(mu)
    return [_check("lambda_0_1_gaussian", abs(seminorm_lambda(0, (1,), mu, f) - 3.0), 1e-7)]


def _chk_gamma_10() -> list:
    mu = MuVector(["1/2"])
    f = _gauss_member(mu)
    want = 2.0 * math.exp(-0.5)
    return [_check("gamma_1_0_gaussian", abs(seminorm_gamma(1, (0,), mu, f) - want), 1e-7)]


def _chk_lambda_11() -> list:
    mu = MuVector(["1/2"])
    f = _gauss_member(mu)
    v = 3.0 - 2.0 * math.sqrt(2.0)
    want = (3.0 - v) * (1.0 + v) * math.exp(-0.5 * v)
    return [_check("lambda_1_1_gaussian", abs(seminorm_lambda(1, (1,), mu, f) - want), 1e-6)]


def _chk_lambda_bound() -> list:
    mu = MuVector(["1/2", "3/4"])
    f = _gauss_member(mu, EvenPolynomial(2, {(0, 0): 1, (1, 0): -1, (0, 1): Fraction(1, 2)}))
    worst = 0.0
    for m in range(0, 2):
        for k in [(1, 0), (1, 1), (2, 0)]:
            lam, bound, _ = lambda_gamma_bound_terms(m, k, mu, f)
            worst = max(worst, lam - bound)
    return [_check("lambda_dominated_by_gamma", max(worst, 0.0), 1e-9)]


def _chk_rho_consistency() -> list:
    mu = MuVector(["1/2"])
    f = _gauss_member(mu)
    total = seminorm_rho(1, mu, f)
    parts = sum(
        seminorm_lambda(m, k, mu, f)
        for m in range(0, 2)
        for k in [(0,), (1,)]
    )
    return [_check("rho_equals_lambda_sum", abs(total - parts) / parts, 1e-12)]


# ---------------------------------------------------------------------------
# liouville


def _op_sum_coords(n: int) -> OperatorPoly:
    e = lambda a: tuple(1 if i == a else 0 for i in range(n))
    return OperatorPoly(n, {e(a): 1 for a in range(n)})


def _chk_kernel_1d() -> list:
    mu = MuVector(["1/2"])
    basis, cert = liouville_solve(_op_sum_coords(1), mu, 3)
    expected = [SymbolicHFunction(mu, EvenPolynomial.constant(1, 1), 0)]
    exact = 0.0 if cert.consistent else 1.0
    return [
        _check("kernel_basis_1d", 0.0 if basis == expected else 1.0, 0.0),
        _check("kernel_residuals_1d", max(exact, *cert.weak_residuals), 1e-6),
    ]


def _chk_kernel_2d() -> list:
    mu = MuVector(["1/2", "1/2"])
    basis, cert = liouville_solve(_op_sum_coords(2), mu, 2)
    # degree <= 2 solve: constants and the odd pair difference survive
    sols = {b.poly for b in basis}
    want_member = EvenPolynomial(2, {(1, 0): 1, (0, 1): -1})
    value = 0.0 if (
        cert.consistent
        and EvenPolynomial.constant(2, 1) in sols
        and any(p == want_member or p == -want_member for p in sols)
    ) else 1.0
    return [
        _check("kernel_basis_2d", value, 0.0),
        _check("kernel_residuals_2d", max(cert.weak_residuals), 1e-6),
    ]


def _chk_hypothesis_gate() -> list:
    mu = MuVector(["1/2", "1/2"])
    P = OperatorPoly(2, {(1, 0): 1, (0, 1): -1})
    try:
        liouville_solve(P, mu, 2)
    except HypothesisFailed:
        return [_check("hypothesis_gate_rejects_sign_change", 0.0, 0.0)]
    return [_check("hypothesis_gate_rejects_sign_change", 1.0, 0.0)]


def _chk_negative_control_1d() -> list:
    mu = MuVector(["1/2"])
    f = SymbolicHFunction(mu, EvenPolynomial.monomial((1,)), 0)
    r = weak_spectral_check(f, _op_sum_coords(1), mu)
    return [_check("weak_check_detects_nonkernel_1d", r, 0.1, expected_fail=True)]


def _chk_negative_control_2d() -> list:
    mu = MuVector(["1/2", "1/2"])
    f = SymbolicHFunction(mu, EvenPolynomial.monomial((1, 1)), 0)
    r = weak_spectral_check(f, _op_sum_coords(2), mu)
    return [_check("weak_check_detects_nonkernel_2d", r, 0.1, expected_fail=True)]


_NEGATIVE = {
    "liouville": [_chk_negative_control_1d, _chk_negative_control_2d],
}

# each builder returns a list of checks, so one computation can feed several
_BUILDERS = {
    "identities": (
        _chk_gamma_recurrence,
        _chk_half_order,
        _chk_bessel_derivative,
        _chk_bessel_operator_fd,
        _chk_koh_zemanian,
        _chk_s_delta_scaling,
        _chk_transform_eigenfunction,
        _chk_transform_degree2,
        _chk_self_adjoint,
        _chk_diagonalization,
        _chk_direct_vs_factorized,
    ),
    "roundtrip": (
        _chk_roundtrip_1d,
        _chk_roundtrip_2d,
    ),
    "taylor": (
        _chk_taylor_exact,
        _chk_taylor_extrapolated,
        _chk_taylor_remainder,
        _chk_taylor_tk_remainder,
    ),
    "seminorms": (
        _chk_lambda_00,
        _chk_lambda_01,
        _chk_gamma_10,
        _chk_lambda_11,
        _chk_lambda_bound,
        _chk_rho_consistency,
    ),
    "liouville": (
        _chk_kernel_1d,
        _chk_kernel_2d,
        _chk_hypothesis_gate,
    ),
}


def run_suite(name: str, negative_controls: bool = False, threads: int = 1) -> dict:
    if name not in _BUILDERS:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITES}")
    builders = list(_BUILDERS[name])
    if negative_controls:
        builders += _NEGATIVE.get(name, [])
    results = [c for group in parallel_map(lambda b: b(), builders, threads) for c in group]
    return {
        "suite": name,
        "checks": results,
        "passed": all(c["passed"] for c in results),
    }


def run_all(names=None, negative_controls: bool = False, threads: int = 1) -> list:
    names = list(names) if names else list(SUITES)
    return [run_suite(n, negative_controls, threads) for n in names]
