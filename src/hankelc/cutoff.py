"""Smooth radial windows built from the exp(-1/t) bridge.

CutoffSpec is identically 1 on a ball and 0 outside a larger ball;
OuterWindow is the reverse (0 near the origin, 1 far out).  Both are
smooth_step(t(r)) for an affine map t of r = |x|, and expose exact
derivatives in the squared radius v = |x|^2, which is what the operator
T sees: T^k w = 2^|k| W^(|k|)(v) for any radial w(x) = W(|x|^2).
"""

from __future__ import annotations

import math

import numpy as np

from .bessel import _coeff
from .errors import DomainError, NumericError
from .multiindex import _checked_power
from .symbolic import SymbolicHFunction

__all__ = ["CutoffSpec", "OuterWindow", "WindowedHFunction", "smooth_step"]


def smooth_step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, monotone between."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    out = a / (a + b)
    return float(out) if out.ndim == 0 else out


def _reciprocal(a):
    """Taylor rows of 1/a from those of a."""
    c = np.empty_like(a)
    c[0] = 1.0 / a[0]
    for n in range(1, len(a)):
        c[n] = -c[0] * np.sum(a[1 : n + 1] * c[n - 1 :: -1], axis=0)
    return c


class _RadialWindow:
    __slots__ = ("inner", "outer")

    def __init__(self, inner: float, outer: float):
        inner = float(_coeff(inner))
        outer = float(_coeff(outer))
        if not 0.0 < inner < outer:
            raise DomainError(f"need 0 < inner < outer, got {inner}, {outer}")
        self.inner = inner
        self.outer = outer

    def v_value(self, v):
        """Profile smooth_step(t(r)) as a function of v = r^2; each window's
        _t(r, one) is its affine map t, with one = 1 or the series of 1."""
        v = np.asarray(v, dtype=float)
        return smooth_step(self._t(np.sqrt(np.maximum(v, 0.0)), 1.0))

    def value(self, coords):
        cols = [np.asarray(c, dtype=float) for c in coords]
        v = cols[0] * cols[0]
        for c in cols[1:]:
            v = v + c * c
        return self.v_value(v)

    def v_derivative(self, v, order: int):
        """d^order/dv^order of the profile from its Taylor series in v, up
        to the shared power cap; 0 where exp(-1/t) or exp(-1/(1 - t))
        underflows.  s = 1/(1 + e^g), g = 1/t - 1/(1 - t), solves
        s' = -s (1 - s) g', with 1 - s carried as smooth_step(1 - t)."""
        order = _checked_power((order,)).order
        v = np.asarray(v, dtype=float)
        t = self._t(np.sqrt(np.maximum(v, 0.0)), 1.0)
        s, u = np.asarray(smooth_step(t)), np.asarray(smooth_step(1.0 - t))
        inside = (s > 0.0) & (u > 0.0)
        out = np.where(order == 0, s, 0.0)  # order 0 keeps the plateau's 1s
        v, s, u = v[inside], s[inside], u[inside]
        one, j = np.eye(order + 1, 1), np.arange(1.0, order + 1.0)[:, None]  # rows: powers of d
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.sqrt(v) * np.cumprod(np.vstack([np.ones_like(v), (1.5 - j) / (j * v)]), axis=0)
            t = self._t(r, one)  # r: the binomial series of sqrt(v + d)
            dg = j * (_reciprocal(t) - _reciprocal(one - t))[1:]  # n g_n
            jet, p = np.empty_like(t), np.empty_like(t)  # p = s (1 - s)
            jet[0], p[0] = s, s * u
            for n in range(1, order + 1):
                jet[n] = -np.sum(dg[:n] * p[n - 1 :: -1], axis=0) / n
                p[n] = jet[n] * (u - s) - np.sum(jet[1:n] * jet[n - 1 : 0 : -1], axis=0)
            out[inside] = math.factorial(order) * jet[order]
        if not np.all(np.isfinite(out)):
            raise NumericError(f"the window's derivative of order {order} overflows")
        return out


class CutoffSpec(_RadialWindow):
    """Radial plateau: 1 for |x| <= inner, 0 for |x| >= outer."""

    def _t(self, r, one):
        return (self.outer * one - r) / (self.outer - self.inner)


class OuterWindow(_RadialWindow):
    """Radial far-field window: 0 for |x| <= inner, 1 for |x| >= outer."""

    def _t(self, r, one):
        return (r - self.inner * one) / (self.outer - self.inner)


class WindowedHFunction:
    """A family member multiplied by a radial window.

    With a CutoffSpec the germ at the origin is exactly that of the base
    (the window is identically 1 on a ball); with an OuterWindow the
    product vanishes identically near the origin.
    """

    __slots__ = ("base", "window")

    def __init__(self, base: SymbolicHFunction, window: _RadialWindow):
        self.base = base
        if not isinstance(window, _RadialWindow):
            raise DomainError(f"unsupported window type {type(window)!r}")
        self.window = window

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def mu(self):
        return self.base.mu

    @property
    def vanishes_near_origin(self) -> bool:
        return isinstance(self.window, OuterWindow)

    def evaluate(self, coords):
        return self.base.evaluate(coords) * self.window.value(coords)
