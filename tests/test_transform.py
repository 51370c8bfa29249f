"""Numerical transforms: fixed points, closed forms, adjointness, inversion."""

import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hankelc import (
    DecayRequired,
    DomainError,
    EvenPolynomial,
    GridSpec,
    LimitExceeded,
    MuVector,
    OperatorPoly,
    SymbolicHFunction,
    apply_S,
    build_quadrature,
    default_rule_for,
    hankel_1d,
    hankel_nd,
    hankel_roundtrip_residual,
    orthant_pair,
    sample_on_nodes,
)
from hankelc import transform as transform_module

HALF = Fraction(1, 2)


def _gaussian(mu):
    mu = MuVector(mu)
    return SymbolicHFunction(mu, EvenPolynomial.constant(mu.dim, 1), HALF)


@pytest.mark.parametrize("alpha", ["-1/2", "0", "1/2", "3/2"])
def test_gaussian_fixed_point_1d(alpha):
    f = _gaussian([alpha])
    rule = default_rule_for(HALF)
    ys = np.linspace(0.1, 4.0, 40)
    out = hankel_1d(float(Fraction(alpha)), f, ys, rule)
    want = f.evaluate([ys])
    assert float(np.max(np.abs(out.values - want))) < 1e-9


def test_gaussian_fixed_point_2d():
    f = _gaussian(["1/2", "3/2"])
    rule = default_rule_for(HALF)
    grid = GridSpec.linear(0.1, 4.0, 12, dim=2)
    out = hankel_nd(f.mu, f, grid, rule)
    xs, ys = grid.meshgrid()
    want = f.evaluate([xs, ys])
    assert float(np.max(np.abs(out.values - want))) < 1e-9


def test_degree_two_closed_form():
    # with u = s e^{-s/2}: image polynomial is (2(mu+1) - y^2) e^{-y^2/2}
    a = 0.0
    f = SymbolicHFunction(MuVector([a]), EvenPolynomial.monomial((1,)), HALF)
    rule = default_rule_for(HALF)
    ys = np.linspace(0.1, 4.0, 40)
    out = hankel_1d(a, f, ys, rule)
    want = ys ** (a + 0.5) * (2 * (a + 1) - ys * ys) * np.exp(-ys * ys / 2)
    assert float(np.max(np.abs(out.values - want))) < 1e-9


def test_direct_matches_factorized():
    mu = MuVector(["1/2", "0"])
    f = SymbolicHFunction(mu, EvenPolynomial(2, {(1, 0): 1, (0, 0): 1}), HALF)
    # a leaner rule keeps the direct path's Kronecker kernel under its cap
    rule = default_rule_for(HALF, points_per_panel=12, panels=8)
    grid = GridSpec.linear(0.2, 3.0, 8, dim=2)
    fac = hankel_nd(mu, f, grid, rule)
    direct = hankel_nd(mu, f, grid, rule, direct=True)
    assert float(np.max(np.abs(fac.values - direct.values))) < 1e-9


def test_transform_is_self_adjoint():
    mu = MuVector(["1/2"])
    f = SymbolicHFunction(mu, EvenPolynomial.monomial((1,)), HALF)
    g = SymbolicHFunction(mu, EvenPolynomial.constant(1, 1), Fraction(1, 3))
    rule = default_rule_for(Fraction(1, 3))
    grid = GridSpec([rule.nodes])

    hf = hankel_nd(mu, f, grid, rule).values
    hg = hankel_nd(mu, g, grid, rule).values
    w = rule.weights
    lhs = float(w @ (hf * sample_on_nodes(g, [rule.nodes])))
    rhs = float(w @ (sample_on_nodes(f, [rule.nodes]) * hg))
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_transform_diagonalizes_bessel_operator():
    # h(S_1 phi) = -y_1^2 h(phi)
    mu = MuVector(["3/2", "0"])
    phi = SymbolicHFunction(mu, EvenPolynomial(2, {(1, 1): 1, (0, 0): 2}), HALF)
    rule = default_rule_for(HALF)
    grid = GridSpec.linear(0.1, 3.5, 9, dim=2)
    lhs = hankel_nd(mu, apply_S(0, phi), grid, rule).values
    base = hankel_nd(mu, phi, grid, rule).values
    y1 = grid.meshgrid()[0]
    rhs = -(y1**2) * base
    assert float(np.max(np.abs(lhs - rhs))) < 1e-6


def test_orthant_pair_value():
    # (f, f) for f = x e^{-x^2/2}: int_0^inf x^2 e^{-x^2} dx = sqrt(pi)/4
    mu = MuVector(["1/2"])
    f = SymbolicHFunction(mu, EvenPolynomial.constant(1, 1), HALF)
    rule = default_rule_for(HALF)
    got = orthant_pair(f, f, rule)
    assert got == pytest.approx(math.sqrt(math.pi) / 4, rel=1e-12)


def test_roundtrip_residual_small():
    mu = MuVector(["1/2"])
    f = SymbolicHFunction(mu, EvenPolynomial(1, {(0,): 1, (1,): -HALF}), HALF)
    report = hankel_roundtrip_residual(f, GridSpec.linear(0.1, 4.0, 50))
    assert report["residual"] < 1e-6
    assert report["coarse_residual"] < 1e-5


def test_roundtrip_on_nodes_reaches_roundoff():
    # the first transform lands on the rule's own nodes, so no
    # interpolation error enters: 1-D at roundoff, 2-D near it
    mu1 = MuVector(["1/2"])
    f1 = SymbolicHFunction(mu1, EvenPolynomial(1, {(0,): 1, (1,): Fraction(-1, 4)}), HALF)
    assert hankel_roundtrip_residual(f1, GridSpec.linear(0.1, 4.0, 60))["residual"] <= 1e-12
    mu2 = MuVector(["1/2", "3/4"])
    f2 = SymbolicHFunction(mu2, EvenPolynomial(2, {(0, 0): 1, (1, 0): Fraction(1, 3)}), HALF)
    report = hankel_roundtrip_residual(f2, GridSpec.linear(0.1, 4.0, 24, dim=2))
    assert report["residual"] <= 1e-9
    assert report["coarse_residual"] <= 1e-6


@pytest.mark.parametrize(
    "decay", [Fraction(1, 8), Fraction(1, 4), 1, 2, 8], ids=["1/8", "1/4", "1", "2", "8"]
)
def test_roundtrip_covers_the_transform_decay(decay):
    # H f decays at rate 1/(4c), so its nodes come from the rule scaled by
    # 2c; the rule of f alone truncates H f for c > 1/2 and overruns the
    # Bessel cap for c < 0.32
    f = SymbolicHFunction(MuVector(["1/2"]), EvenPolynomial(1, {(0,): 1, (1,): Fraction(-1, 4)}), decay)
    report = hankel_roundtrip_residual(f, GridSpec.linear(0.1, 4.0, 60))
    assert report["residual"] <= 1e-12
    assert report["coarse_residual"] <= 1e-12


def test_roundtrip_truncated_rule_is_reported():
    # negative control: a 4-point, 2-panel rule cannot resolve the member
    f = SymbolicHFunction(MuVector(["1/2"]), EvenPolynomial(1, {(0,): 1, (1,): -HALF}), HALF)
    rule = default_rule_for(HALF, points_per_panel=4, panels=2)
    report = hankel_roundtrip_residual(f, GridSpec.linear(0.1, 4.0, 50), rule=rule)
    assert report["residual"] > 0.1


def test_roundtrip_3d():
    mu = MuVector(["1/2", "3/4", "0"])
    f = SymbolicHFunction(mu, EvenPolynomial(3, {(0, 0, 0): 1, (1, 0, 1): Fraction(1, 3)}), HALF)
    grid = GridSpec.linear(0.1, 4.0, 8, dim=3)
    report = hankel_roundtrip_residual(f, grid, rule=default_rule_for(HALF, 16, 8))
    assert report["residual"] <= 1e-6
    # the default 384-node rule would need a 384^3 node grid
    with pytest.raises(LimitExceeded):
        hankel_roundtrip_residual(f, grid)


def test_argument_cap():
    f = _gaussian(["1/2"])
    rule = default_rule_for(HALF)  # radius ~ 11.4
    ys = np.array([30.0])  # 30 * 11.4 > 200
    with pytest.raises(DomainError):
        hankel_1d(0.5, f, ys, rule)


def test_default_rule_requires_decay():
    with pytest.raises(DecayRequired):
        default_rule_for(0)


@pytest.mark.parametrize("direct", [False, True], ids=["factorized", "direct"])
def test_decay_zero_member_is_refused_with_an_explicit_rule(direct):
    # the transform of x^(1/2) is a distribution supported at the origin,
    # so no rule gives its values on a grid
    f = SymbolicHFunction(["1/2"], EvenPolynomial.constant(1, 1), 0)
    rule = build_quadrature(10.0, 24, 16)
    grid = GridSpec.linear(0.1, 2.0, 4)
    with pytest.raises(DecayRequired, match="DeltaCombination"):
        hankel_nd(["1/2"], f, grid, rule, direct=direct)
    # the same values as a callable or an array are transformed as given
    g = hankel_nd(["1/2"], np.sqrt, grid, rule, direct=direct)
    h = hankel_nd(["1/2"], np.sqrt(rule.nodes), grid, rule, direct=direct)
    assert np.all(np.isfinite(g.values)) and np.array_equal(g.values, h.values)


def test_sample_on_nodes_inputs():
    axes = [np.array([0.5, 1.0, 2.0])]
    f = _gaussian(["1/2"])
    sym = sample_on_nodes(f, axes)
    fn = sample_on_nodes(lambda x: x * np.exp(-x * x / 2), axes)
    np.testing.assert_allclose(sym, fn, rtol=1e-14)
    arr = sample_on_nodes(sym, axes)
    np.testing.assert_allclose(arr, sym, rtol=0)
    with pytest.raises(DomainError):
        sample_on_nodes(np.ones(5), axes)


def test_transform_l_is_multiplication():
    """Applying the operator polynomial then transforming equals multiplying
    the transform by the polynomial in y^2."""
    from hankelc import apply_L

    mu = MuVector(["1/2"])
    P = OperatorPoly(1, {(0,): 1, (1,): 2})
    phi = SymbolicHFunction(mu, EvenPolynomial.monomial((1,)), HALF)
    rule = default_rule_for(HALF)
    ys = np.linspace(0.2, 3.0, 25)
    lhs = hankel_1d(0.5, apply_L(P, phi), ys, rule).values
    base = hankel_1d(0.5, phi, ys, rule).values
    rhs = (1 + 2 * ys * ys) * base
    assert float(np.max(np.abs(lhs - rhs))) < 1e-6


def _sparse_member(dim, mu, decay):
    """Q with degree gaps in every axis, mixed signs and a zero constant."""
    terms = {(3,) + (0,) * (dim - 1): Fraction(2, 3), (1,) * dim: -1}
    if dim > 1:
        terms[(0,) * (dim - 1) + (2,)] = Fraction(5, 7)
    return SymbolicHFunction([mu] * dim, EvenPolynomial(dim, terms), decay)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("mu", ["-1/2", "15/2"])
@pytest.mark.parametrize("decay", [0, 2])
def test_separable_sampling_matches_mesh(dim, mu, decay):
    f = _sparse_member(dim, mu, decay)
    axes = [np.linspace(0.05, 2.5, 11 + 3 * a) for a in range(dim)]
    got = sample_on_nodes(f, axes)
    want = f.evaluate(np.meshgrid(*axes, indexing="ij"))
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want))) <= 1e-14 * float(np.max(np.abs(want)))


@pytest.mark.parametrize("dim", [1, 2])
def test_symbolic_transform_matches_sampled_routes(dim):
    f = _sparse_member(dim, "3/2", HALF)
    mu = f.mu
    rule = default_rule_for(HALF, points_per_panel=12, panels=8)
    grid = GridSpec.linear(0.2, 3.0, 7, dim=dim)
    got = hankel_nd(mu, f, grid, rule).values
    direct = hankel_nd(mu, f, grid, rule, direct=True).values
    sampled = hankel_nd(mu, lambda *c: f.evaluate(c), grid, rule).values
    scale = float(np.max(np.abs(direct)))
    assert float(np.max(np.abs(got - direct))) <= 1e-12 * scale
    assert float(np.max(np.abs(got - sampled))) <= 1e-12 * scale


def test_cached_kernels_are_read_only():
    rule = default_rule_for(HALF)
    ys = np.linspace(0.1, 4.0, 9) + 1e-3  # a grid no other test uses
    for _ in range(2):  # a cache miss, then a hit
        kernel = transform_module._kernel_matrix(0.5, ys, rule)
        with pytest.raises(ValueError):
            kernel[0, 0] = 1.0


def test_kernel_cache_keeps_a_key_that_is_hit_after_every_insertion():
    # least recently used eviction: 32 fresh kernels push out other keys
    rule = build_quadrature(8.0, points_per_panel=8, panels=4)
    ys = np.linspace(0.1, 2.0, 5) + 2e-3  # grids no other test uses
    kept = transform_module._kernel_matrix(0.5, ys, rule)
    for i in range(transform_module._kernel.cache_parameters()["maxsize"]):
        transform_module._kernel_matrix(0.5, np.linspace(0.1, 3.0 + 0.01 * i, 5) + 2e-3, rule)
        assert transform_module._kernel_matrix(0.5, ys, rule) is kept


def test_kernel_cache_shared_by_two_threads():
    # more distinct grids than the cache holds, so both threads evict
    f = _gaussian(["1/2"])
    rule = build_quadrature(8.0, points_per_panel=8, panels=4)
    grids = [np.linspace(0.1, 2.0 + 0.01 * i, 5) for i in range(100)]
    want = [hankel_1d(0.5, f, ys, rule).values for ys in grids]
    errors, results = [], {}

    def work(start):
        try:
            for i in range(start, len(grids), 2):
                results[i] = hankel_1d(0.5, f, grids[i], rule).values
        except Exception as exc:  # noqa: BLE001  (reported by the assertion)
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    cache = transform_module._kernel
    assert cache.cache_info().currsize <= cache.cache_parameters()["maxsize"]
    for i, values in enumerate(want):
        np.testing.assert_array_equal(results[i], values)


def test_coefficient_tensor_is_capped_before_allocation():
    f = SymbolicHFunction(["1/2"], EvenPolynomial.monomial((100000000000,)), HALF)
    with pytest.raises(LimitExceeded):
        sample_on_nodes(f, [np.array([1.0])])


def _peak_bytes(call):
    """Peak traced allocation while call() runs."""
    tracemalloc.start()
    try:
        call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_node_grid_cap_refuses_a_callable_before_the_mesh():
    rule = default_rule_for(0.5)
    calls = []

    def f(*coords):
        calls.append(len(coords))
        return coords[0]

    def refused():
        with pytest.raises(LimitExceeded, match="4000000"):
            sample_on_nodes(f, [rule.nodes] * 3)

    assert rule.size**3 > 4_000_000
    assert _peak_bytes(refused) < 1_000_000
    assert calls == []


def test_node_grid_cap_refuses_orthant_pair_of_3d_members():
    rule = default_rule_for(0.5)
    f = _gaussian(["1/2", "0", "3/2"])
    g = SymbolicHFunction(f.mu, EvenPolynomial(3, {(0, 0, 0): 1, (1, 0, 1): -2}), HALF)

    def refused():
        with pytest.raises(LimitExceeded, match="4000000"):
            orthant_pair(f, g, rule)

    assert _peak_bytes(refused) < 1_000_000
