"""Weighted sup-seminorms of family members.

Both seminorm families first apply the exact symbolic operators, so the
only numerical step is taking a supremum of a closed-form expression:

    gamma_{m,k} = sup (1+|x|^2)^m |T^k u|,
    lambda_{m,k} = sup (1+|x|^2)^m |u-part of S^k f|.

Suprema are the largest |F| = (1 + sum s)^m |Q(s)| e^(-c sum s), s = x^2,
met on a geometric tensor grid and along Newton runs on log|F|, with exact
derivatives, from the grid's highest local maxima: on the open orthant, on
each face where some coordinates vanish, and at the exact x -> 0 limit (the
constant term of Q).  Each is attained, so none exceeds the supremum.
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
    radius = max(8.0, radius)
    points = _POINTS_BY_DIM.get(f.dim, 30)
    return GridSpec.geometric(1e-3, radius, points, dim=f.dim)


# grid local maxima within this fraction of the grid maximum start a
# Newton run, at most _MAX_STARTS of them, highest first
_START_MARGIN = 0.1
_MAX_STARTS = 8
_MAX_NEWTON = 40


def _starts(vals) -> list:
    """Grid indices of the local maxima of vals (each >= its 3^n - 1
    neighbours) within _START_MARGIN of the maximum, highest first."""
    best = float(np.max(vals))
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=vals.ndim)))
    padded = np.pad(vals, 1, constant_values=-np.inf)
    cand = np.flatnonzero(vals >= (1.0 - _START_MARGIN) * best)
    at = np.ravel_multi_index(
        tuple(i + 1 for i in np.unravel_index(cand, vals.shape)), padded.shape
    )
    flat = offsets @ (np.array(padded.strides) // padded.itemsize)
    neighbours = padded.ravel()[at[:, None] + flat]
    cand = cand[np.all(vals.ravel()[cand, None] >= neighbours, axis=1)]
    cand = cand[np.argsort(-vals.ravel()[cand], kind="stable")[:_MAX_STARTS]]
    return list(zip(*np.unravel_index(cand, vals.shape)))


def _derivative_table(poly):
    """Q, its gradient and its Hessian in s as exponents E, shape (R, M, n),
    and coefficients C, shape (R, M), with R = 1 + n + n^2: at s,
    (C * prod(s**E, -1)).sum(-1) is [Q, dQ/ds_a, d2Q/ds_a ds_b].

    The term c s^K contributes c K_a s^(K - e_a) and
    c K_a (K_b - [a = b]) s^(K - e_a - e_b); where an exponent would go
    below 0 the coefficient is 0, so the clamp changes no value.
    """
    n = poly.dim
    K = np.array([tuple(k) for k, _ in poly.items()], dtype=float).reshape(-1, n)
    c = np.array([float(v) for _, v in poly.items()])
    eye = np.eye(n)
    first = K - eye[:, None, :]
    second = first[:, None] - eye[None, :, None, :]
    KT = K.T * c
    E = np.concatenate([K[None], first, second.reshape(n * n, -1, n)])
    C = np.concatenate([c[None], KT, (KT[:, None] * (K.T - eye[..., None])).reshape(n * n, -1)])
    return np.maximum(E, 0.0), C


def _newton(E, C, m: int, decay: float, s, free, top) -> float:
    """Largest |F| visited by Newton's method on log|F|, F(s) =
    (1 + sum s)^m Q(s) e^(-decay sum s), over the free axes from s.

    A run stops at a step that leaves the box [0, top], at a singular
    Hessian, at Q = 0, at a step below 1e-15 (1 + max s) or after
    _MAX_NEWTON steps.
    """
    n = s.size
    sub = np.ix_(free, free)
    best = 0.0
    for i in range(_MAX_NEWTON + 1):
        d = (C * np.prod(s**E, -1)).sum(-1)
        ssum = float(s.sum())
        total = 1.0 + ssum
        q = float(d[0])
        best = max(best, abs(total**m * q * math.exp(-decay * ssum)))
        if q == 0.0 or i == _MAX_NEWTON:
            break
        grad = d[1 : n + 1] / q
        hess = d[n + 1 :].reshape(n, n) / q - np.outer(grad, grad) - m / total**2
        try:
            step = np.linalg.solve(hess[sub], decay - m / total - grad[free])
        except np.linalg.LinAlgError:
            break
        new = s[free] + step
        tiny = np.max(np.abs(step)) <= 1e-15 * (1.0 + s.max())
        if tiny or np.any(new < 0.0) or np.any(new > top[free]):
            break
        s = s.copy()
        s[free] = new
    return best


def _weighted_sup(u: GaussianPolynomial, m: int, grid: GridSpec) -> float:
    """sup (1+|x|^2)^m |u| over the closed orthant, as the largest of the
    constant term (the x -> 0 limit) and, on the open orthant and each
    face where some coordinates vanish, the grid maximum and the Newton
    runs from the grid's highest local maxima."""
    if grid.dim != u.dim:
        raise DimensionMismatch(f"grid dimension {grid.dim}, function {u.dim}")
    n = grid.dim
    decay = float(u.decay)
    E, C = _derivative_table(u.poly)
    squares = [a * a for a in grid.axes]
    top = np.array([sq[-1] for sq in squares])
    best = abs(float(u.poly.constant_term()))
    for r in range(1, n + 1):
        for free in itertools.combinations(range(n), r):
            cols = np.meshgrid(*[squares[a] for a in free], indexing="ij")
            full = [cols[free.index(a)] if a in free else 0.0 for a in range(n)]
            ssum = sum(cols)
            vals = np.abs((1.0 + ssum) ** m * u.poly.evaluate(full) * np.exp(-decay * ssum))
            face = float(np.max(vals))
            # max() would silently drop a NaN sample (say inf * 0)
            if not math.isfinite(face):
                raise NumericError("the weighted function has non-finite samples")
            best = max(best, face)
            for idx in _starts(vals):
                s = np.zeros(n)
                s[list(free)] = [squares[a][i] for a, i in zip(free, idx)]
                best = max(best, _newton(E, C, m, decay, s, list(free), top))
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


def seminorm_rho(order: int, mu, f: SymbolicHFunction) -> float:
    """Sum of lambda_{m,k} over m <= order and |k| <= order, each on
    default_sup_grid(f, m)."""
    _validate(order, [0] * f.dim, mu, f)
    total = 0.0
    for k in mi_graded_enumerate(f.dim, order):
        u = apply_Sk(k, f).u
        for m in range(order + 1):
            total += _weighted_sup(u, m, default_sup_grid(f, m))
    return total


def lambda_gamma_bound_terms(m: int, k, mu, f: SymbolicHFunction):
    """The pieces of the domination lambda_{m,k} <= sum_l |b_{l,k}| gamma_{m+|l|, k+l}.

    Returns (lambda value, bound value, per-term breakdown); all suprema
    are taken over default_sup_grid(f, m + |k|) so the pointwise
    inequality survives discretization.
    """
    k = _validate(m, k, mu, f)
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
