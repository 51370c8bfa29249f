"""Weighted sup-seminorms of family members.

Both seminorm families first apply the exact symbolic operators, so the
only numerical step is taking a supremum of a closed-form expression:

    gamma_{m,k} = sup (1+|x|^2)^m |T^k u|,
    lambda_{m,k} = sup (1+|x|^2)^m |u-part of S^k f|.

Suprema are estimated on geometric tensor grids, followed by a parabolic
polish around the grid argmax, on the open orthant and on each of its
faces where some coordinates vanish, down to the exact x -> 0 limit (the
constant term of the polynomial).
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


def grid_supremum(fn, grid: GridSpec, polish: int = 8) -> float:
    """Max of |fn| over the grid plus a log-space parabolic polish.

    fn takes per-axis coordinate arrays (broadcastable) and returns the
    (signed) values; the supremum is of the absolute value.  The polish
    runs `polish` rounds of per-axis parabolic steps with a halving
    bracket around the running argmax, in logarithmic coordinates.
    """
    axes = grid.axes
    n = grid.dim
    mesh = grid.meshgrid()
    vals = np.abs(np.asarray(fn(mesh), dtype=float))
    flat_idx = int(np.argmax(vals))
    idx = list(np.unravel_index(flat_idx, vals.shape))
    best = float(vals[tuple(idx)])
    point = [math.log(float(axes[a][idx[a]])) for a in range(n)]

    def eval_log(p):
        cols = [np.asarray(math.exp(v)) for v in p]
        return float(abs(np.asarray(fn(cols))))

    steps = []
    for a in range(n):
        j = min(max(idx[a], 1), axes[a].size - 1)
        steps.append(math.log(axes[a][j]) - math.log(axes[a][j - 1]))

    for _ in range(polish):
        for a in range(n):
            step = steps[a]
            lo = point.copy()
            hi = point.copy()
            lo[a] -= step
            hi[a] += step
            vm, vp = eval_log(lo), eval_log(hi)
            if vm > best or vp > best:
                if vm >= vp:
                    point, best = lo, vm
                else:
                    point, best = hi, vp
            else:
                denom = vm - 2.0 * best + vp
                if denom < 0.0:
                    shift = 0.5 * step * (vm - vp) / denom
                    if abs(shift) <= step:
                        trial = point.copy()
                        trial[a] += shift
                        vt = eval_log(trial)
                        if vt > best:
                            best, point = vt, trial
            steps[a] = 0.5 * step
    return best


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
