"""Composite Gauss-Legendre rules on [0, X] and tensor evaluation grids."""

from __future__ import annotations

import functools
import math

import numpy as np

from .bessel import MuVector
from .errors import DimensionMismatch, DomainError, LimitExceeded, NumericError

__all__ = [
    "QuadratureRule",
    "GridSpec",
    "GridFunction",
    "build_quadrature",
    "truncation_radius",
    "DEFAULT_POINTS_PER_PANEL",
    "DEFAULT_PANELS",
]

DEFAULT_POINTS_PER_PANEL = 24
DEFAULT_PANELS = 16
DEFAULT_TAIL_TOL = 1e-14
MAX_RULE_POINTS = 250_000
# leggauss(p) forms a dense p x p matrix, so the points of one panel are
# capped on their own; callers use at most a few dozen
MAX_PANEL_POINTS = 1_000
MAX_GRID_POINTS = 4_000_000


class QuadratureRule:
    """Nodes and weights of a composite rule on (0, radius)."""

    __slots__ = ("nodes", "weights", "radius", "points_per_panel", "panels")

    def __init__(self, nodes, weights, radius, points_per_panel, panels):
        self.nodes = np.asarray(nodes, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.radius = float(radius)
        self.points_per_panel = int(points_per_panel)
        self.panels = int(panels)
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise DomainError("nodes and weights must be matching 1-D arrays")
        if self.nodes.size == 0:
            raise DomainError("empty quadrature rule")
        if self.nodes[0] <= 0.0 or self.nodes[-1] >= self.radius:
            raise DomainError("nodes must lie strictly inside (0, radius)")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise DomainError("nodes must be strictly increasing")

    @property
    def size(self) -> int:
        return self.nodes.size


def build_quadrature(
    radius: float,
    points_per_panel: int = DEFAULT_POINTS_PER_PANEL,
    panels: int = DEFAULT_PANELS,
) -> QuadratureRule:
    """Composite Gauss-Legendre rule: `panels` equal panels on [0, radius].

    The weights of the assembled rule sum to radius exactly up to
    rounding.
    """
    if radius <= 0.0 or not math.isfinite(radius):
        raise DomainError(f"radius must be positive and finite, got {radius}")
    if points_per_panel < 2:
        raise DomainError(f"need at least 2 points per panel, got {points_per_panel}")
    if panels < 1:
        raise DomainError(f"need at least 1 panel, got {panels}")
    if points_per_panel > MAX_PANEL_POINTS:
        raise LimitExceeded(
            f"{points_per_panel} points per panel, cap is {MAX_PANEL_POINTS}"
        )
    total = points_per_panel * panels
    if total > MAX_RULE_POINTS:
        raise LimitExceeded(
            f"rule would have {total} points, cap is {MAX_RULE_POINTS}"
        )
    base_x, base_w = _gauss_legendre(points_per_panel)
    width = radius / panels
    nodes = (np.arange(panels) * width + 0.5 * width)[:, None] + 0.5 * width * base_x
    weights = np.tile(0.5 * width * base_w, panels)
    return QuadratureRule(nodes.ravel(), weights, radius, points_per_panel, panels)


@functools.lru_cache(maxsize=8)
def _gauss_legendre(points: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only: builds share them."""
    x, w = np.polynomial.legendre.leggauss(points)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def truncation_radius(decay: float) -> float:
    """Radius beyond which exp(-decay x^2) has dropped below DEFAULT_TAIL_TOL."""
    decay = float(decay)
    if decay <= 0.0:
        raise DomainError(f"decay rate must be positive, got {decay}")
    return math.sqrt(2.0 * math.log(1.0 / DEFAULT_TAIL_TOL) / decay)


def _check_axis(lo: float, hi: float, count: int, dim: int):
    """Refuse an axis spec before anything is allocated: 0 < lo < hi,
    count >= 2, and count^dim points within MAX_GRID_POINTS."""
    if not 0.0 < lo < hi:
        raise DomainError(f"need 0 < lo < hi, got {lo}, {hi}")
    if count < 2:
        raise DomainError(f"need at least 2 points, got {count}")
    if count ** dim > MAX_GRID_POINTS:
        raise LimitExceeded(f"grid would have {count ** dim} points")


class GridSpec:
    """Tensor-product evaluation grid given by per-axis node arrays."""

    __slots__ = ("axes",)

    def __init__(self, axes):
        axes = tuple(np.asarray(a, dtype=float) for a in axes)
        if not axes:
            raise DomainError("a grid needs at least one axis")
        for i, a in enumerate(axes):
            if a.ndim != 1 or a.size == 0:
                raise DomainError(f"axis {i} must be a nonempty 1-D array")
            if not np.all(np.isfinite(a)):
                raise DomainError(f"axis {i} must be finite")
            if a[0] <= 0.0:
                raise DomainError(f"axis {i} must start at a positive value")
            if np.any(np.diff(a) <= 0.0):
                raise DomainError(f"axis {i} must be strictly increasing")
        total = math.prod(a.size for a in axes)
        if total > MAX_GRID_POINTS:
            raise LimitExceeded(f"grid would have {total} points")
        self.axes = axes

    @classmethod
    def linear(cls, lo: float, hi: float, count: int, dim: int = 1) -> "GridSpec":
        _check_axis(lo, hi, count, dim)
        return cls([np.linspace(lo, hi, count)] * dim)

    @classmethod
    def geometric(cls, lo: float, hi: float, count: int, dim: int = 1) -> "GridSpec":
        _check_axis(lo, hi, count, dim)
        return cls([np.geomspace(lo, hi, count)] * dim)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(a.size for a in self.axes)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def meshgrid(self):
        return np.meshgrid(*self.axes, indexing="ij")

    def to_json(self) -> dict:
        return {"axes": [a.tolist() for a in self.axes]}


class GridFunction:
    """Function values sampled on a GridSpec, tagged with the order vector."""

    __slots__ = ("spec", "values", "mu")

    def __init__(self, spec: GridSpec, values, mu):
        self.spec = spec
        self.values = np.asarray(values, dtype=float)
        self.mu = MuVector(mu)
        if self.values.shape != spec.shape:
            raise DimensionMismatch(
                f"values shape {self.values.shape} does not match grid {spec.shape}"
            )
        if self.mu.dim != spec.dim:
            raise DimensionMismatch(
                f"order vector dimension {self.mu.dim}, grid {spec.dim}"
            )

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "mu": self.mu.to_json(),
            "values": self.values.ravel(order="C").tolist(),
        }

    def to_csv(self) -> str:
        """Row-major CSV with columns x1..xn,value."""
        if not np.all(np.isfinite(self.values)):
            raise NumericError("the transform has non-finite values")
        n = self.spec.dim
        header = ",".join(f"x{i+1}" for i in range(n)) + ",value"
        mesh = self.spec.meshgrid()
        cols = [m.ravel(order="C") for m in mesh]
        vals = self.values.ravel(order="C")
        lines = [header]
        for row in zip(*cols, vals):
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"
