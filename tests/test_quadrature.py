"""Composite Gauss-Legendre rules, truncation radii, and grid containers."""

import math

import numpy as np
import pytest

from hankelc import (
    DimensionMismatch,
    DomainError,
    GridFunction,
    GridSpec,
    LimitExceeded,
    QuadratureRule,
    build_quadrature,
    geometric_grid,
    truncation_radius,
)


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


def test_geometric_grid():
    g = geometric_grid(1e-3, 10.0, 9)
    assert g[0] == pytest.approx(1e-3)
    assert g[-1] == pytest.approx(10.0)
    ratios = g[1:] / g[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
    with pytest.raises(DomainError):
        geometric_grid(0.0, 1.0, 5)


def test_grid_spec_properties():
    spec = GridSpec.linear(0.1, 4.0, 5, dim=2)
    assert spec.dim == 2
    assert spec.shape == (5, 5)
    assert spec.size == 25
    m = spec.meshgrid()
    assert m[0].shape == (5, 5)
    assert m[0][0, 0] == pytest.approx(0.1)
    assert m[1][0, -1] == pytest.approx(4.0)


def test_grid_spec_json_roundtrip():
    spec = GridSpec.geometric(0.01, 8.0, 7, dim=2)
    back = GridSpec.from_json(spec.to_json())
    assert back.dim == 2
    for a, b in zip(spec.axes, back.axes):
        np.testing.assert_allclose(a, b, rtol=0, atol=0)


def test_grid_spec_cap():
    with pytest.raises(LimitExceeded):
        GridSpec.linear(0.1, 1.0, 3000, dim=2)


def test_grid_function_roundtrip_and_csv():
    spec = GridSpec.linear(0.5, 2.0, 3, dim=2)
    xs, ys = spec.meshgrid()
    f = GridFunction(spec, xs + 2 * ys, ["1/2", "1/2"])
    back = GridFunction.from_json(f.to_json())
    np.testing.assert_allclose(back.values, f.values, rtol=0, atol=0)
    assert back.mu == f.mu

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
