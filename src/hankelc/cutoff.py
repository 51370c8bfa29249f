"""Smooth radial windows built from the exp(-1/t) bridge.

CutoffSpec is identically 1 on a ball and 0 outside a larger ball;
OuterWindow is the reverse (0 near the origin, 1 far out).  Both are
radial, infinitely smooth, and expose derivatives with respect to the
squared radius v = |x|^2, which is what the operator T sees:
T^k w = 2^|k| W^(|k|)(v) for any radial w(x) = W(|x|^2).
"""

from __future__ import annotations

import numpy as np

from .bessel import _coeff
from .errors import DomainError
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


# central finite-difference stencils in v for orders 1..4, error O(h^4)
# for 1 and 2, O(h^2) for 3 and 4; plenty for bound reporting
def _fd(fn, v, order: int, scale: float):
    if not 1 <= order <= 4:
        raise DomainError(f"window derivatives implemented up to order 4, got {order}")
    v = np.asarray(v, dtype=float)
    h = scale * (1e-3, 1e-3, 1e-2, 2e-2)[order - 1]
    f = [fn(v + j * h) for j in (-2, -1, 0, 1, 2)]
    if order == 1:
        return (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
    if order == 2:
        return (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
    if order == 3:
        return (-f[0] + 2 * f[1] - 2 * f[3] + f[4]) / (2 * h**3)
    return (f[0] - 4 * f[1] + 6 * f[2] - 4 * f[3] + f[4]) / h**4


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
        """Profile as a function of the squared radius."""
        raise NotImplementedError

    def value(self, coords):
        cols = [np.asarray(c, dtype=float) for c in coords]
        v = cols[0] * cols[0]
        for c in cols[1:]:
            v = v + c * c
        return self.v_value(v)

    def v_derivative(self, v, order: int):
        """d^order/dv^order of the profile, by finite differences."""
        if order == 0:
            return self.v_value(v)
        scale = self.outer**2 - self.inner**2
        return _fd(self.v_value, v, order, scale)


class CutoffSpec(_RadialWindow):
    """Radial plateau: 1 for |x| <= inner, 0 for |x| >= outer."""

    def v_value(self, v):
        v = np.asarray(v, dtype=float)
        r = np.sqrt(np.maximum(v, 0.0))
        return smooth_step((self.outer - r) / (self.outer - self.inner))


class OuterWindow(_RadialWindow):
    """Radial far-field window: 0 for |x| <= inner, 1 for |x| >= outer."""

    def v_value(self, v):
        v = np.asarray(v, dtype=float)
        r = np.sqrt(np.maximum(v, 0.0))
        return smooth_step((r - self.inner) / (self.outer - self.inner))


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
