"""Composite Gauss-Legendre rules, truncation radii, and grid containers."""

import math

import numpy as np
import pytest

from hankelc import (
    DimensionMismatch,
    DomainError,
    EvenPolynomial,
    GridFunction,
    GridSpec,
    LimitExceeded,
    MultiplierForm,
    QuadratureRule,
    build_quadrature,
    multiplier_check,
    truncation_radius,
)
from hankelc import quadrature as quadrature_module


def test_two_point_panel_nodes():
    # 2-point Gauss-Legendre on a single panel [0, 1]: (1 -+ 1/sqrt(3)) / 2
    rule = build_quadrature(1.0, points_per_panel=2, panels=1)
    want = np.array([(1 - 1 / math.sqrt(3)) / 2, (1 + 1 / math.sqrt(3)) / 2])
    np.testing.assert_allclose(rule.nodes, want, rtol=1e-15)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], rtol=1e-15)


def test_weights_sum_to_radius():
    for radius in (1.0, 7.5, 11.36):
        rule = build_quadrature(radius, points_per_panel=8, panels=5)
        assert rule.weights @ np.ones(rule.size) == pytest.approx(radius, rel=1e-14)


def test_polynomial_exactness():
    # an n-point Gauss rule is exact through degree 2n-1 on each panel
    rule = build_quadrature(2.0, points_per_panel=4, panels=3)
    for deg in range(0, 8):
        got = rule.weights @ rule.nodes**deg
        want = 2.0 ** (deg + 1) / (deg + 1)
        assert got == pytest.approx(want, rel=1e-13)


def test_gaussian_tail_integral():
    decay = 0.5
    radius = truncation_radius(decay)
    rule = build_quadrature(radius)
    got = rule.weights @ np.exp(-decay * rule.nodes**2)
    assert got == pytest.approx(math.sqrt(math.pi / 2), rel=1e-13)


def test_truncation_radius_value():
    # exp(-c r^2) = tol at r = sqrt(2 ln(1/tol) / (2c)) ... with the 2x safety
    r = truncation_radius(0.5)
    assert r == pytest.approx(math.sqrt(2 * math.log(1e14) / 0.5))
    with pytest.raises(DomainError):
        truncation_radius(0.0)


def test_rule_validation():
    with pytest.raises(DomainError):
        build_quadrature(-1.0)
    with pytest.raises(DomainError):
        build_quadrature(1.0, points_per_panel=1)
    with pytest.raises(DomainError):
        build_quadrature(1.0, panels=0)
    with pytest.raises(LimitExceeded):
        build_quadrature(1.0, points_per_panel=1000, panels=300)
    with pytest.raises(DomainError):
        QuadratureRule([0.5, 0.4], [1, 1], 1.0, 2, 1)  # not increasing
    with pytest.raises(DomainError):
        QuadratureRule([0.5, 1.5], [1, 1], 1.0, 2, 1)  # node outside radius


def test_points_per_panel_are_capped_before_the_legendre_matrix(monkeypatch):
    # leggauss(p) forms a p x p matrix: 466 GiB at p = 250000, within the total cap
    def refuse(points):
        raise AssertionError(f"Gauss-Legendre nodes for {points} points were built")

    monkeypatch.setattr(quadrature_module, "_gauss_legendre", refuse)
    for points in (250_000, quadrature_module.MAX_PANEL_POINTS + 1):
        with pytest.raises(LimitExceeded):
            build_quadrature(1.0, points_per_panel=points, panels=1)


def test_geometric_grid():
    g = GridSpec.geometric(1e-3, 10.0, 9).axes[0]
    assert g[0] == pytest.approx(1e-3)
    assert g[-1] == pytest.approx(10.0)
    ratios = g[1:] / g[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
    with pytest.raises(DomainError):
        GridSpec.geometric(0.0, 1.0, 5)


def test_grid_spec_properties():
    spec = GridSpec.linear(0.1, 4.0, 5, dim=2)
    assert spec.dim == 2
    assert spec.shape == (5, 5)
    assert spec.size == 25
    m = spec.meshgrid()
    assert m[0].shape == (5, 5)
    assert m[0][0, 0] == pytest.approx(0.1)
    assert m[1][0, -1] == pytest.approx(4.0)


def test_grid_spec_cap():
    with pytest.raises(LimitExceeded):
        GridSpec.linear(0.1, 1.0, 3000, dim=2)


def _no_allocation(*args, **kwargs):
    raise AssertionError("grid axis allocated before the size check")


@pytest.mark.parametrize(
    "make",
    [
        lambda: GridSpec.linear(0.1, 4.0, 10**12),
        lambda: GridSpec.geometric(0.1, 4.0, 10**12),
        lambda: GridSpec.linear(0.1, 4.0, 200, dim=3),  # 8e6 points
        lambda: GridSpec.geometric(0.1, 4.0, 2001, dim=2),
        # a 10^4-point axis per dimension, so a 10^8-point mesh
        lambda: multiplier_check(
            MultiplierForm.polynomial(EvenPolynomial(2, {(1, 0): 1, (0, 1): 1})),
            0,
            points_per_axis=20000,
        ),
    ],
    ids=["linear", "geometric", "linear-3d", "geometric-2d", "multiplier"],
)
def test_grid_count_is_capped_before_allocation(make, monkeypatch):
    monkeypatch.setattr(np, "linspace", _no_allocation)
    monkeypatch.setattr(np, "geomspace", _no_allocation)
    with pytest.raises(LimitExceeded):
        make()


def test_grid_function_roundtrip_and_csv():
    spec = GridSpec.linear(0.5, 2.0, 3, dim=2)
    xs, ys = spec.meshgrid()
    f = GridFunction(spec, xs + 2 * ys, ["1/2", "1/2"])
    assert f.to_json() == {
        "spec": {"axes": [[0.5, 1.25, 2.0], [0.5, 1.25, 2.0]]},
        "mu": ["1/2", "1/2"],
        "values": [1.5, 3.0, 4.5, 2.25, 3.75, 5.25, 3.0, 4.5, 6.0],
    }

    csv = f.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "x1,x2,value"
    assert len(lines) == 1 + 9
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.5, 0.5, 1.5]


def test_grid_function_validation():
    spec = GridSpec.linear(0.5, 2.0, 3, dim=1)
    with pytest.raises(DimensionMismatch):
        GridFunction(spec, np.ones((3, 3)), ["1/2"])
    with pytest.raises(DimensionMismatch):
        GridFunction(spec, np.ones(3), ["1/2", "1/2"])


def _looped_rule(radius, points_per_panel, panels):
    """Panel-by-panel assembly of the composite rule, the reference for
    build_quadrature's vectorized one."""
    base_x, base_w = np.polynomial.legendre.leggauss(points_per_panel)
    width = radius / panels
    nodes = np.empty(points_per_panel * panels)
    weights = np.empty(points_per_panel * panels)
    for p in range(panels):
        mid = p * width + 0.5 * width
        half = 0.5 * width
        sl = slice(p * points_per_panel, (p + 1) * points_per_panel)
        nodes[sl] = mid + half * base_x
        weights[sl] = half * base_w
    return nodes, weights


@pytest.mark.parametrize("radius", [0.3, 1.0, 7.5, 11.36, 1e3])
@pytest.mark.parametrize("points, panels", [(2, 1), (3, 7), (8, 5), (24, 16), (13, 40)])
def test_rule_is_bit_identical_to_the_panel_loop(radius, points, panels):
    rule = build_quadrature(radius, points_per_panel=points, panels=panels)
    nodes, weights = _looped_rule(radius, points, panels)
    assert np.array_equal(rule.nodes, nodes)
    assert np.array_equal(rule.weights, weights)


def test_rules_do_not_share_the_cached_base_pair():
    first = build_quadrature(2.0, points_per_panel=6, panels=1)
    first.nodes[:] = 0.0
    first.weights[:] = 0.0
    again = build_quadrature(2.0, points_per_panel=6, panels=1)
    nodes, weights = _looped_rule(2.0, 6, 1)
    assert np.array_equal(again.nodes, nodes)
    assert np.array_equal(again.weights, weights)
