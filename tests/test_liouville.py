"""Kernel solves with exact certificates and the independent weak check."""

from fractions import Fraction

import pytest

from hankelc import (
    EvenPolynomial,
    HypothesisFailed,
    KernelCertificate,
    LimitExceeded,
    MuVector,
    OperatorPoly,
    SymbolicHFunction,
    default_rule_for,
    default_weak_family,
    liouville_solve,
    weak_spectral_check,
)


def _operator(dim, coeffs):
    return OperatorPoly(dim, coeffs)


def test_first_order_1d_kernel_is_constants():
    basis, cert = liouville_solve(_operator(1, {(1,): 1}), ["1/2"], 3)
    assert cert.dimension == 1
    assert basis[0].poly == EvenPolynomial.constant(1, 1)
    assert cert.consistent
    assert all(r < 1e-6 for r in cert.weak_residuals)


def test_identity_operator_kernel_trivial():
    basis, cert = liouville_solve(_operator(1, {(0,): 1}), ["1/2"], 4)
    assert cert.dimension == 0 and basis == []


def test_shifted_operator_kernel_trivial():
    # 1 + sum x_i: the operator Id + L' has a triangular matrix with unit
    # diagonal on the monomial basis, hence no kernel
    basis, cert = liouville_solve(
        _operator(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}), ["1/2", "1/2"], 2
    )
    assert cert.dimension == 0


def test_second_order_1d_kernel_grows():
    # P = x^2 gives L = S^2, which also kills the degree-one monomial
    basis, cert = liouville_solve(_operator(1, {(2,): 1}), ["1/2"], 3)
    assert cert.dimension == 2
    polys = [b.poly for b in basis]
    assert EvenPolynomial.constant(1, 1) in polys
    assert EvenPolynomial.monomial((1,)) in polys
    assert cert.consistent
    assert all(r < 1e-6 for r in cert.weak_residuals)


def test_2d_kernel_degree_two():
    mu = ["1/2", "1/2"]
    basis, cert = liouville_solve(_operator(2, {(1, 0): 1, (0, 1): 1}), mu, 2)
    assert cert.dimension == 3
    polys = [b.poly for b in basis]
    assert EvenPolynomial.constant(2, 1) in polys
    diff = EvenPolynomial(2, {(1, 0): 1, (0, 1): -1})
    assert any(p == diff or p == -diff for p in polys)
    quad = EvenPolynomial(
        2, {(2, 0): 1, (1, 1): Fraction(-10, 3), (0, 2): 1}
    )
    assert any(p == quad or p == -quad for p in polys)
    assert cert.consistent
    assert all(r < 1e-6 for r in cert.weak_residuals)


def test_hypothesis_gate():
    with pytest.raises(HypothesisFailed):
        liouville_solve(_operator(2, {(1, 0): 1, (0, 1): -1}), ["1/2", "1/2"], 2)
    with pytest.raises(HypothesisFailed):
        liouville_solve(_operator(2, {(1, 1): 1}), ["1/2", "1/2"], 2)


def test_weak_check_rejects_non_kernel_element():
    mu = MuVector(["1/2"])
    f = SymbolicHFunction(mu, EvenPolynomial.monomial((1,)), 0)  # x^(mu+1/2) x^2
    residual = weak_spectral_check(f, _operator(1, {(1,): 1}))
    assert residual >= 0.1


def test_weak_check_accepts_kernel_element():
    mu = MuVector(["1/2"])
    f = SymbolicHFunction(mu, EvenPolynomial.constant(1, 1), 0)
    residual = weak_spectral_check(f, _operator(1, {(1,): 1}))
    assert residual < 1e-6


def test_weak_family_reproducible():
    fam1 = default_weak_family(["1/2", "0"], count=6, seed=42)
    fam2 = default_weak_family(["1/2", "0"], count=6, seed=42)
    assert len(fam1) == 6
    assert all(a == b for a, b in zip(fam1, fam2))
    fam3 = default_weak_family(["1/2", "0"], count=6, seed=43)
    assert any(a != b for a, b in zip(fam1, fam3))
    assert all(f.decay == Fraction(1, 2) for f in fam1)


def test_skip_weak_and_json():
    basis, cert = liouville_solve(_operator(1, {(1,): 1}), ["1/2"], 2, skip_weak=True)
    assert cert.weak_residuals == []
    assert cert.family_size == 0
    data = cert.to_json()
    assert data["dimension"] == 1
    assert data["exact_zero"] == [True]
    assert isinstance(cert, KernelCertificate)
    assert data["hypothesis"]["passed"] is True


def test_solve_residuals_equal_per_candidate_checks():
    P = _operator(2, {(1, 0): 1, (0, 1): 1})
    mu = MuVector(["0", "3/2"])
    basis, cert = liouville_solve(P, mu, 2)
    family = default_weak_family(mu, count=10, seed=7)
    rule = default_rule_for(Fraction(1, 2))
    assert len(basis) == 3
    assert cert.weak_residuals == [
        weak_spectral_check(b, P, mu, family, rule) for b in basis
    ]


def test_3d_weak_check_hits_grid_cap():
    P = _operator(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    with pytest.raises(LimitExceeded):
        liouville_solve(P, ["1/2"] * 3, 1)
