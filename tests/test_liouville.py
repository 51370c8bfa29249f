"""Kernel solves with exact certificates and the independent weak check."""

import builtins
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hankelc import (
    DecayRequired,
    DomainError,
    EvenPolynomial,
    GridSpec,
    HypothesisFailed,
    KernelCertificate,
    LimitExceeded,
    MuVector,
    NumericError,
    OperatorPoly,
    SymbolicHFunction,
    apply_L,
    build_quadrature,
    default_rule_for,
    default_weak_family,
    hankel_nd,
    liouville,
    liouville_solve,
    sample_on_nodes,
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
    with pytest.raises(HypothesisFailed):
        liouville_solve(_operator(2, {(1, 0): 1, (1, 1): 1}), ["1/2", "1/2"], 2)


_TINY = Fraction(1, 10**400)  # 0.0 as a double


def test_term_below_the_float_range_passes_the_gate():
    # S_1 + 10^-400 S_2^2 meets the hypothesis: the gate reads the
    # coefficients exactly and never evaluates P in floats
    basis, cert = liouville_solve(_operator(2, {(1, 0): 1, (0, 2): _TINY}), ["1/2", "1/2"], 2)
    assert cert.dimension == 3
    assert cert.exact_zero == [True] * 3
    assert len(cert.weak_residuals) == 3
    assert all(r <= 1e-6 for r in cert.weak_residuals)
    assert cert.hypothesis["passed"] is True


def test_kernel_coefficient_beyond_the_float_range_is_a_numeric_error():
    # S_1 + 10^-400 S_2 has a kernel element with a coefficient of order
    # 10^400: the exact basis stands, the float weak check cannot run
    P = _operator(2, {(1, 0): 1, (0, 1): _TINY})
    with pytest.raises(NumericError):
        liouville_solve(P, ["1/2", "1/2"], 2)
    basis, cert = liouville_solve(P, ["1/2", "1/2"], 2, skip_weak=True)
    assert cert.exact_zero == [True] * len(basis)
    assert any(abs(v) > 10**300 for b in basis for _, v in b.poly.items())


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


def test_weak_defaults_built_once():
    fam = default_weak_family(["1/2", "0"], count=6, seed=42)
    assert isinstance(fam, tuple)
    assert default_weak_family(MuVector(["1/2", "0"]), count=6, seed=42) is fam
    # a float order gets its own members, whose orders stay floats
    floats = default_weak_family([0.5, 0.0], count=6, seed=42)
    assert floats is not fam
    assert all(type(m) is float for f in floats for m in f.mu)
    rule = liouville._default_weak_rule()
    assert rule is liouville._default_weak_rule()
    assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable


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


@pytest.mark.parametrize(
    "mu, op, poly",
    [
        (["0", "3/2"], {(1, 0): 1, (0, 1): 2}, {(1, 0): 1, (0, 2): 3, (1, 1): -1}),
        (["3/2"], {(1,): 1}, {(1,): 1, (2,): -2}),
    ],
    ids=["2d", "1d"],
)
def test_weak_check_matches_brute_force_pairing(mu, op, poly):
    # orders, operator and candidate are all asymmetric in the two axes,
    # so pairing values flattened in different orders cannot agree
    mu = MuVector(mu)
    P = _operator(mu.dim, op)
    f = SymbolicHFunction(mu, EvenPolynomial(mu.dim, poly), 0)
    rule = build_quadrature(default_rule_for(Fraction(1, 2)).radius, 8, 4)
    family = default_weak_family(mu, count=4, seed=3)
    mesh = np.meshgrid(*[rule.nodes] * mu.dim, indexing="ij")
    weight = np.prod(np.meshgrid(*[rule.weights] * mu.dim, indexing="ij"), axis=0)
    wf = weight * f.evaluate(mesh)
    expected = 0.0
    for phi in family:
        g = SymbolicHFunction(mu, phi.poly * P, phi.decay)
        grid = GridSpec([rule.nodes] * mu.dim)
        hg = hankel_nd(mu, g.evaluate(mesh), grid, rule, direct=True).values
        expected = max(expected, abs(np.sum(wf * hg)) / np.sum(np.abs(wf * hg)))
    assert expected >= 0.01
    assert weak_spectral_check(f, P, mu, family, rule) == pytest.approx(
        expected, rel=1e-12
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_weak_check_refuses_non_finite_pairing():
    # the pairings overflow to inf and their ratio is NaN, which max() drops
    f = SymbolicHFunction(["1/2"], EvenPolynomial(1, {(1,): 1, (6,): 1e300}), 0)
    with pytest.raises(NumericError):
        weak_spectral_check(f, _operator(1, {(1,): 1}))


@pytest.mark.parametrize("a", [1e-300, 0.1, 1 / 3])
def test_float_operator_coefficients_solve_exactly(a):
    P = _operator(2, {(1, 0): a, (0, 1): 1})
    basis, cert = liouville_solve(P, ["1/2", "3/2"], 4)
    assert cert.dimension == 5
    assert cert.exact_zero == [True] * 5
    exact = _operator(2, {(1, 0): Fraction(a), (0, 1): 1})
    assert all(apply_L(exact, b).poly.is_zero for b in basis)
    assert all(r < 1e-6 for r in cert.weak_residuals)


def _reference_weak_residuals(basis, P, mu, family, rule):
    """The per-member loop: hankel_nd of every P[x^2] phi on the node grid
    and one sum over the grid per pairing."""
    mu = MuVector(mu)
    grid = GridSpec([rule.nodes] * mu.dim)
    weight = np.prod(np.meshgrid(*[rule.weights] * mu.dim, indexing="ij"), axis=0)
    weighted = [weight * sample_on_nodes(f, grid.axes) for f in basis]
    worst = [0.0] * len(basis)
    for phi in family:
        g = SymbolicHFunction(mu, phi.poly * P, phi.decay)
        hg = hankel_nd(mu, g, grid, rule).values
        for i, wf in enumerate(weighted):
            ratio = abs(np.sum(wf * hg)) / np.sum(np.abs(wf) * np.abs(hg))
            worst[i] = max(worst[i], ratio)
    return worst


def _agrees(got, want, kernel_count):
    """Kernel residuals within 1e-14 absolute, control scores within 1e-12
    relative; the first kernel_count entries are kernel elements."""
    return all(
        abs(g - w) <= (1e-14 if i < kernel_count else 1e-12 * abs(w))
        for i, (g, w) in enumerate(zip(got, want, strict=True))
    )


_SMALL_RADIUS = default_rule_for(Fraction(1, 2)).radius
_PAIRING_CASES = [
    # (mu, operator, degree, controls, custom family and rule)
    (["-1/4"], {(1,): 1}, 0, [{(1,): 1}], False),
    (["1/3"], {(2,): 1}, 3, [{(2,): 1}, {(0,): 1, (3,): 2}], False),
    (["5/2"], {(1,): 2, (2,): 1}, 2, [], True),
    (["-1/4", "1/2"], {(1, 0): 1, (0, 1): 1}, 0, [], False),
    (["1/3", "3/4"], {(1, 0): 1, (0, 1): 2}, 1, [{(1, 0): 1}], False),
    (["1/3", "3/4"], {(1, 0): 1, (0, 1): 1}, 2, [{(1, 0): 1}, {(0, 2): 1, (1, 1): -3}], True),
    (["5/2", "5/2"], {(1, 0): 1, (0, 1): 1}, 2, [{(1, 0): 1}], False),
    # 3-D needs the small rule: the default rule's node grid is over the cap
    (["1/3", "1/2", "3/2"], {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}, 1, [{(0, 1, 0): 1}], True),
]


def _pairing_case(mu, op, degree, controls, custom):
    mu = MuVector(mu)
    P = _operator(mu.dim, op)
    basis, _ = liouville_solve(P, mu, degree, skip_weak=True)
    candidates = basis + [SymbolicHFunction(mu, EvenPolynomial(mu.dim, c), 0) for c in controls]
    family, rule = default_weak_family(mu), liouville._default_weak_rule()
    if custom:
        rule = build_quadrature(_SMALL_RADIUS, 8, 4)
        family = default_weak_family(mu, count=4, seed=3) + (
            SymbolicHFunction(mu, EvenPolynomial(mu.dim, {(1,) * mu.dim: 1, (0,) * mu.dim: -2}), 1),
        )
    return P, mu, candidates, len(basis), family, rule


@pytest.mark.parametrize("case", _PAIRING_CASES, ids=[f"{len(c[0])}d-{i}" for i, c in enumerate(_PAIRING_CASES)])
def test_weak_pairing_matches_per_member_reference(case):
    P, mu, candidates, kernel_count, family, rule = _pairing_case(*case)
    assert 1 <= len(candidates) <= 5
    got = liouville._weak_residuals(candidates, P, mu, family, rule)
    want = _reference_weak_residuals(candidates, P, mu, family, rule)
    assert _agrees(got, want, kernel_count), (got, want)


def test_weak_pairing_reference_rejects_swapped_axis_images(monkeypatch):
    # negative control: the images of the two axes exchanged
    P, mu, candidates, kernel_count, family, rule = _pairing_case(*_PAIRING_CASES[5])
    want = _reference_weak_residuals(candidates, P, mu, family, rule)
    images = liouville._axis_images
    monkeypatch.setattr(liouville, "_axis_images", lambda *args: images(*args)[::-1])
    got = liouville._weak_residuals(candidates, P, mu, family, rule)
    assert not _agrees(got, want, kernel_count)


@pytest.mark.parametrize("count", [1, 3])
def test_weak_check_memory_stays_a_few_grid_arrays(count):
    # the normaliser runs over blocks of grid rows, so the peak is one block
    # buffer (about one array of the 384^2 grid) plus small terms, whatever
    # the candidate count; a grid-sized |w f| per candidate would read
    # count + 1 arrays
    P = _operator(2, {(1, 0): 1, (0, 1): 1})
    mu = MuVector(["1/2", "1/2"])
    basis, _ = liouville_solve(P, mu, 2, skip_weak=True)
    basis = basis[:count]
    assert len(basis) == count
    liouville._weak_residuals(basis, P, mu, None, None)  # kernel cache filled
    grid_bytes = liouville._default_weak_rule().size ** 2 * 8
    tracemalloc.start()
    try:
        liouville._weak_residuals(basis, P, mu, None, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * grid_bytes, peak / grid_bytes


def _half_blocks(monkeypatch, case):
    """The case with the normaliser's block set to rows // 2 + 1 grid rows,
    so a full block is followed by a partial one holding half the grid: a
    partial block of the last few rows lies in the Gaussian tail, and
    dropping it would move no residual by a visible amount."""
    P, mu, candidates, kernel_count, family, rule = _pairing_case(*case)
    rows = rule.size ** (mu.dim - 1)
    block = rows // 2 + 1
    assert rows % block
    monkeypatch.setattr(liouville, "_BLOCK_BYTES", block * 8 * rule.size * (len(family) + 1))
    return P, mu, candidates, kernel_count, family, rule


# the default 2-D rule and the 3-D small rule
_BLOCK_CASES = [_PAIRING_CASES[4], _PAIRING_CASES[7]]


@pytest.mark.parametrize("case", _BLOCK_CASES, ids=["2d", "3d"])
def test_weak_pairing_with_a_partial_last_block(monkeypatch, case):
    P, mu, candidates, kernel_count, family, rule = _half_blocks(monkeypatch, case)
    got = liouville._weak_residuals(candidates, P, mu, family, rule)
    want = _reference_weak_residuals(candidates, P, mu, family, rule)
    assert _agrees(got, want, kernel_count), (got, want)


@pytest.mark.parametrize("case", _BLOCK_CASES, ids=["2d", "3d"])
def test_weak_pairing_reference_rejects_a_dropped_last_block(monkeypatch, case):
    # negative control: the block loop stops before the partial block
    P, mu, candidates, kernel_count, family, rule = _half_blocks(monkeypatch, case)
    want = _reference_weak_residuals(candidates, P, mu, family, rule)
    monkeypatch.setattr(
        liouville, "range", lambda a, b, c: builtins.range(a, b - b % c, c), raising=False
    )
    got = liouville._weak_residuals(candidates, P, mu, family, rule)
    assert not _agrees(got, want, kernel_count)


def test_weak_check_refuses_a_test_function_of_decay_0():
    # its transform is a distribution supported at the origin, so the
    # truncated quadrature would return a number that means nothing
    mu = MuVector(["1/2"])
    f = SymbolicHFunction(mu, EvenPolynomial.constant(1, 1), 0)
    family = (SymbolicHFunction(mu, EvenPolynomial.monomial((1,)), 0),)
    with pytest.raises(DecayRequired):
        weak_spectral_check(f, _operator(1, {(1,): 1}), mu, family)


def test_weak_check_refuses_an_empty_family():
    # with no test function the largest residual would read 0 and certify
    # any candidate
    f = SymbolicHFunction(["1/2"], EvenPolynomial.monomial((1,)), 0)
    with pytest.raises(DomainError):
        weak_spectral_check(f, _operator(1, {(1,): 1}), family=())
