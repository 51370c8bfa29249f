"""Smooth radial windows and windowed family members."""

from fractions import Fraction

import numpy as np
import pytest

from hankelc import (
    CutoffSpec,
    DomainError,
    EvenPolynomial,
    MuVector,
    OuterWindow,
    SymbolicHFunction,
    WindowedHFunction,
    smooth_step,
)


def test_smooth_step_endpoints():
    assert smooth_step(-1.0) == 0.0
    assert smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(2.0) == 1.0
    assert smooth_step(0.5) == pytest.approx(0.5)  # symmetric bridge


def test_smooth_step_monotone():
    t = np.linspace(-0.5, 1.5, 101)
    vals = smooth_step(t)
    assert np.all(np.diff(vals) >= 0)
    assert np.all((vals >= 0) & (vals <= 1))


def test_cutoff_plateau_and_tail():
    w = CutoffSpec(1.0, 2.0)
    assert w.value([np.array(0.5)]) == 1.0
    assert w.value([np.array(1.0)]) == 1.0
    assert w.value([np.array(2.0)]) == 0.0
    assert w.value([np.array(3.0)]) == 0.0
    mid = w.value([np.array(1.5)])
    assert 0.0 < mid < 1.0


def test_outer_window_reverses():
    w = OuterWindow(1.0, 2.0)
    assert w.value([np.array(0.5)]) == 0.0
    assert w.value([np.array(2.5)]) == 1.0
    c = CutoffSpec(1.0, 2.0)
    r = np.linspace(0.2, 3.0, 50)
    np.testing.assert_allclose(
        w.value([r]) + c.value([r]), np.ones_like(r), atol=1e-15
    )


def test_radial_evaluation_uses_norm():
    # value depends only on |x|
    w = CutoffSpec(1.0, 2.0)
    a = w.value([np.array(1.2), np.array(0.9)])  # |x| = 1.5
    b = w.value([np.array(1.5), np.array(0.0)])
    assert a == pytest.approx(b, rel=1e-15)


def test_window_validation():
    with pytest.raises(DomainError):
        CutoffSpec(2.0, 1.0)
    with pytest.raises(DomainError):
        OuterWindow(0.0, 1.0)


def test_v_derivative_matches_fd():
    w = CutoffSpec(1.0, 3.0)
    v = np.array([2.0, 4.0])
    h = 1e-4
    fd1 = (w.v_value(v + h) - w.v_value(v - h)) / (2 * h)
    got = w.v_derivative(v, 1)
    np.testing.assert_allclose(got, fd1, rtol=1e-5, atol=1e-8)
    # derivatives vanish identically on the plateau and in the far field
    assert w.v_derivative(np.array([0.25]), 1) == pytest.approx(0.0, abs=1e-12)
    assert w.v_derivative(np.array([16.0]), 2) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        w.v_derivative(v, 5)


def test_windowed_function_properties():
    mu = MuVector(["1/2"])
    base = SymbolicHFunction(mu, EvenPolynomial.constant(1, 1), Fraction(1, 2))
    cut = WindowedHFunction(base, CutoffSpec(1.0, 2.0))
    far = WindowedHFunction(base, OuterWindow(1.0, 2.0))

    assert far.vanishes_near_origin and not cut.vanishes_near_origin
    assert cut.dim == 1 and cut.mu == mu

    x = np.array(0.5)
    assert cut.evaluate([x]) == pytest.approx(base.evaluate([x]))
    assert far.evaluate([x]) == 0.0
    x = np.array(3.0)
    assert cut.evaluate([x]) == 0.0
    assert far.evaluate([x]) == pytest.approx(base.evaluate([x]))

    for window in ("not a window", None):
        with pytest.raises(DomainError):
            WindowedHFunction(base, window)
