"""Weighted sup-seminorms of family members.

Both seminorm families first apply the exact symbolic operators, so the
only numerical step is taking a supremum of a closed-form expression:

    gamma_{m,k} = sup (1+|x|^2)^m |T^k u|,
    lambda_{m,k} = sup (1+|x|^2)^m |u-part of S^k f|.

Suprema are estimated on geometric tensor grids, followed by stencil
climbs from the grid's highest local maxima, on the open orthant and on
each of its faces where some coordinates vanish, down to the exact
x -> 0 limit (the constant term of the polynomial).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .bessel import MuVector
from .errors import DecayRequired, DimensionMismatch, DomainError, NumericError
from .multiindex import MultiIndex, mi_graded_enumerate
from .quadrature import GridSpec
from .symbolic import (
    GaussianPolynomial,
    SymbolicHFunction,
    apply_Sk,
    apply_Tk,
    koh_zemanian_coeffs_nd,
)

__all__ = [
    "seminorm_gamma",
    "seminorm_lambda",
    "seminorm_rho",
    "default_sup_grid",
    "grid_supremum",
]

_POINTS_BY_DIM = {1: 400, 2: 200, 3: 60}


def default_sup_grid(f: SymbolicHFunction, weight_power: int) -> GridSpec:
    """Geometric grid [1e-3, R] wide enough to cover the weighted hump."""
    if f.decay == 0:
        raise DecayRequired(
            "weighted suprema are finite only for decaying family members"
        )
    c = float(f.decay)
    deg = max(f.poly.degree, 0)
    radius = 2.0 * math.sqrt((weight_power + deg + 1) / c) + 5.0
    radius = min(40.0, max(8.0, radius))
    points = _POINTS_BY_DIM.get(f.dim, 30)
    return GridSpec.geometric(1e-3, radius, points, dim=f.dim)


# grid local maxima within this fraction of the grid maximum start a climb
_START_MARGIN = 0.1
_MAX_STARTS = 8
# a climb stops at a stencil step in log x below this; the quadratic
# vertex step taken before it leaves an error of order that step squared
_CLIMB_TOL = 1e-5
_MAX_CLIMB_ROUNDS = 200


def _vertex_shift(vals, mid, stride) -> np.ndarray:
    """Shift, in stencil steps, to the vertex of the quadratic through a
    3^n stencil (vals in itertools.product order, centre at mid); zero
    when the quadratic is not concave or its vertex is outside the
    stencil."""
    n = len(stride)
    grad = np.empty(n)
    hess = np.empty((n, n))
    for a, sa in enumerate(stride):
        fp, fm = vals[mid + sa], vals[mid - sa]
        grad[a] = 0.5 * (fp - fm)
        hess[a, a] = fp - 2.0 * vals[mid] + fm
        for b, sb in enumerate(stride[:a]):
            hess[a, b] = hess[b, a] = 0.25 * (
                vals[mid + sa + sb] - vals[mid + sa - sb]
                - vals[mid - sa + sb] + vals[mid - sa - sb]
            )
    try:
        np.linalg.cholesky(-hess)
        shift = np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        return np.zeros(n)
    return shift if np.max(np.abs(shift)) <= 1.0 else np.zeros(n)


def _climb(fn, centre, step, lo, hi, offsets) -> float:
    """Largest |fn| met by a stencil climb from centre, in log x.

    Each round evaluates the 3^n stencil centre + step * offsets, kept
    inside the box [lo, hi], in one call to fn.  A better neighbour
    becomes the centre and the step doubles, so a climb can follow a
    flat ridge many grid steps away.  Otherwise the centre moves to the
    vertex of the quadratic through the stencil and the step shrinks by
    8; the climb ends when a round at a step below _CLIMB_TOL finds no
    better neighbour.
    """
    n = centre.size
    mid = len(offsets) // 2
    stride = [3 ** (n - 1 - a) for a in range(n)]
    top = -math.inf
    for _ in range(_MAX_CLIMB_ROUNDS):
        trial = np.minimum(np.maximum(centre + step * offsets, lo), hi)
        got = np.abs(np.asarray(fn(list(np.exp(trial.T))), dtype=float)).tolist()
        vals = [v if v == v else -math.inf for v in got]  # NaN never wins
        j = max(range(len(vals)), key=vals.__getitem__)
        top = max(top, vals[j])
        if vals[j] > vals[mid]:
            centre, step = trial[j], 2.0 * step
            continue
        if step.max() < _CLIMB_TOL:
            break
        shift = _vertex_shift(vals, mid, stride)
        centre = np.minimum(np.maximum(centre + shift * step, lo), hi)
        step = 0.125 * step
    return top


def grid_supremum(fn, grid: GridSpec) -> float:
    """Max of |fn| over the grid, refined by stencil climbs in log space.

    fn takes per-axis coordinate arrays (broadcastable) and returns the
    (signed) values; the supremum is of the absolute value.  Every grid
    local maximum within _START_MARGIN of the grid maximum (at most
    _MAX_STARTS of them, highest first) starts a climb, so a hump that
    the grid sampled just below another is still polished.  Climbs stay
    inside the grid's box: the faces where coordinates vanish are
    searched as grids of their own.
    """
    n = grid.dim
    vals = np.abs(np.asarray(fn(grid.meshgrid()), dtype=float))
    best = float(np.max(vals))
    if not best > 0.0 or not math.isfinite(best):
        return best
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=n)))
    # a start is a grid point within the margin and >= its 3^n - 1 neighbours
    padded = np.pad(vals, 1, constant_values=-np.inf)
    cand = np.flatnonzero(vals >= (1.0 - _START_MARGIN) * best)
    at = np.ravel_multi_index(
        tuple(i + 1 for i in np.unravel_index(cand, vals.shape)), padded.shape
    )
    flat = offsets @ (np.array(padded.strides) // padded.itemsize)
    neighbours = padded.ravel()[at[:, None] + flat]
    cand = cand[np.all(vals.ravel()[cand, None] >= neighbours, axis=1)]
    cand = cand[np.argsort(-vals.ravel()[cand], kind="stable")[:_MAX_STARTS]]

    logs = [np.log(axis) for axis in grid.axes]
    lo, hi = np.array([v[0] for v in logs]), np.array([v[-1] for v in logs])
    # the local grid spacing in log x (none on a one-point axis)
    gaps = [np.diff(v) if v.size > 1 else np.zeros(1) for v in logs]
    top = best
    for idx in zip(*np.unravel_index(cand, vals.shape)):
        centre = np.array([v[i] for v, i in zip(logs, idx)])
        step = np.array([g[min(max(i - 1, 0), g.size - 1)] for g, i in zip(gaps, idx)])
        top = max(top, _climb(fn, centre, step, lo, hi, offsets))
    return top


def _weighted_sup(u: GaussianPolynomial, m: int, grid: GridSpec) -> float:
    if grid.dim != u.dim:
        raise DimensionMismatch(f"grid dimension {grid.dim}, function {u.dim}")

    def fn(cols):
        ssum = cols[0] * cols[0]
        for c in cols[1:]:
            ssum = ssum + c * c
        return (1.0 + ssum) ** m * u.evaluate(cols)

    # the supremum over the open orthant is the maximum over its closure,
    # and it can sit on a face where some coordinates vanish: search every
    # face on the grid's own axes, down to the origin (the constant term)
    n = grid.dim
    best = abs(float(u.poly.constant_term()))
    for r in range(1, n + 1):
        for free in itertools.combinations(range(n), r):

            def face(cols, free=free):
                full = [0.0] * n
                for a, c in zip(free, cols):
                    full[a] = c
                return fn(full)

            sub = GridSpec([grid.axes[a] for a in free])
            face_sup = grid_supremum(face, sub)
            # max() would silently drop a NaN sample (say inf * 0)
            if not math.isfinite(face_sup):
                raise NumericError("the weighted function has non-finite samples")
            best = max(best, face_sup)
    return best


def _validate(m: int, k, mu, f: SymbolicHFunction) -> MultiIndex:
    if m < 0:
        raise DomainError(f"weight power must be >= 0, got {m}")
    k = MultiIndex(k)
    if k.dim != f.dim:
        raise DimensionMismatch(f"index dimension {k.dim}, function {f.dim}")
    mu = MuVector(mu)
    if tuple(mu) != tuple(f.mu):
        raise DomainError("order vector does not match the function's")
    if f.decay == 0:
        raise DecayRequired("seminorms need a decaying family member")
    return k


def seminorm_gamma(m: int, k, mu, f: SymbolicHFunction, grid: GridSpec = None) -> float:
    """sup (1+|x|^2)^m |T^k u| for the u-part of f."""
    k = _validate(m, k, mu, f)
    u = apply_Tk(k, f.u)
    if grid is None:
        grid = default_sup_grid(f, m)
    return _weighted_sup(u, m, grid)


def seminorm_lambda(m: int, k, mu, f: SymbolicHFunction, grid: GridSpec = None) -> float:
    """sup (1+|x|^2)^m |u-part of S^k f|."""
    k = _validate(m, k, mu, f)
    u = apply_Sk(k, f).u
    if grid is None:
        grid = default_sup_grid(f, m)
    return _weighted_sup(u, m, grid)


def seminorm_rho(order: int, mu, f: SymbolicHFunction, grid: GridSpec = None) -> float:
    """Sum of lambda_{m,k} over m <= order and |k| <= order."""
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    if f.decay == 0:
        raise DecayRequired("seminorms need a decaying family member")
    total = 0.0
    for k in mi_graded_enumerate(f.dim, order):
        u = apply_Sk(k, f).u
        for m in range(order + 1):
            g = grid if grid is not None else default_sup_grid(f, m)
            total += _weighted_sup(u, m, g)
    return total


def lambda_gamma_bound_terms(m: int, k, mu, f: SymbolicHFunction, grid: GridSpec = None):
    """The pieces of the domination lambda_{m,k} <= sum_l |b_{l,k}| gamma_{m+|l|, k+l}.

    Returns (lambda value, bound value, per-term breakdown); all suprema
    are taken over the same grid so the pointwise inequality survives
    discretization.
    """
    k = _validate(m, k, mu, f)
    if grid is None:
        grid = default_sup_grid(f, m + k.order)
    lam = seminorm_lambda(m, k, mu, f, grid=grid)
    coeffs = koh_zemanian_coeffs_nd(k, f.mu)
    terms = []
    bound = 0.0
    for l, b in sorted(coeffs.items()):
        gam = seminorm_gamma(m + l.order, k + l, mu, f, grid=grid)
        terms.append((l, abs(float(b)), gam))
        bound += abs(float(b)) * gam
    return lam, bound, terms
