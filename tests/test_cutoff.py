"""Smooth radial windows and windowed family members."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hankelc import (
    CutoffSpec,
    DomainError,
    EvenPolynomial,
    LimitExceeded,
    MuVector,
    NumericError,
    OuterWindow,
    SymbolicHFunction,
    WindowedHFunction,
    smooth_step,
)
from hankelc.multiindex import _MAX_POWER


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
    # every order up to the shared power cap is served; above it LimitExceeded
    with pytest.raises(LimitExceeded):
        w.v_derivative(v, _MAX_POWER + 1)
    # a derivative beyond the float range is refused, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            CutoffSpec(1.0, 2.0).v_derivative(np.linspace(1.0, 4.0, 801), _MAX_POWER)


# The oracle: W^(m)(v) = m!/rho^m times the m-th Fourier coefficient of W on
# the circle v + rho e^(i theta), by the trapezoid rule on 256 points, with
# rho = 0.4 min(t, 1 - t, 1/2) in t, mapped to v through dv = 2 r (outer -
# inner) dt.  It shares no code with v_derivative.  The integrand is
# whichever of s and s - 1 is small at the centre, written so that e^(+-g)
# stays bounded on the circle; the constant does not change a derivative.
def _cauchy_derivatives(window, v, max_order=8):
    width = window.outer - window.inner
    far = isinstance(window, OuterWindow)

    def bridge_t(r):
        return (r - window.inner) / width if far else (window.outer - r) / width

    t = bridge_t(np.sqrt(v))
    rho = 0.4 * np.minimum(np.minimum(t, 1.0 - t), 0.5) * 2.0 * np.sqrt(v) * width
    theta = 2.0 * np.pi * np.arange(256) / 256
    tz = bridge_t(np.sqrt(v[:, None] + rho[:, None] * np.exp(1j * theta)))
    g = 1.0 / tz - 1.0 / (1.0 - tz)
    small_s = (t <= 0.5)[:, None]
    f = np.where(small_s, np.exp(-g) / (1.0 + np.exp(-g)), -np.exp(g) / (1.0 + np.exp(g)))
    coeffs = np.fft.fft(f, axis=1)[:, : max_order + 1].real / 256
    return [math.factorial(m) * coeffs[:, m] / rho**m for m in range(max_order + 1)]


def _gate_error(derivative, window, order):
    """Worst error over 40 points inside (inner^2, outer^2), relative to
    the largest |W^(order)| there."""
    v = np.linspace(window.inner**2, window.outer**2, 42)[1:-1]
    want = _cauchy_derivatives(window, v)[order]
    return float(np.max(np.abs(derivative(v) - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("kind", [CutoffSpec, OuterWindow])
@pytest.mark.parametrize("inner, outer", [(1.0, 2.0), (0.5, 0.8)])
def test_v_derivative_matches_a_cauchy_integral(kind, inner, outer):
    w = kind(inner, outer)
    for order in range(1, 9):
        assert _gate_error(lambda v: w.v_derivative(v, order), w, order) <= 1e-12


def test_the_cauchy_gate_fails_a_cut_series_and_the_old_stencil():
    class CutSqrt(CutoffSpec):
        # the rule with the series of sqrt(v + d) cut one order early
        def _t(self, r, one):
            if np.ndim(one):
                r = r.copy()
                r[-1] = 0.0
            return super()._t(r, one)

    cut = CutSqrt(1.0, 2.0)
    for order in range(1, 9):
        assert _gate_error(lambda v: cut.v_derivative(v, order), cut, order) > 1e-12

    # the order-3 stencil that served window derivatives before the series
    w = CutoffSpec(1.0, 2.0)
    h = (w.outer**2 - w.inner**2) * 1e-2

    def stencil(v):
        f = [w.v_value(v + j * h) for j in (-2, -1, 1, 2)]
        return (-f[0] + 2 * f[1] - 2 * f[2] + f[3]) / (2 * h**3)

    assert _gate_error(stencil, w, 3) > 1e-12


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
