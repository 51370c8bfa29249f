"""Numerical Hankel transforms on the positive orthant.

The n-dimensional kernel is a product of 1-D kernels, so the transform
of a tensor-grid sample factorizes into n successive 1-D contractions;
that is the default path.  A direct path assembles the full product
kernel and is kept for cross-checking the factorized one on small
problems.  Family members x^(mu+1/2) Q(x^2) e^(-c|x|^2) are sums of
products of 1-D factors, so they are sampled and transformed per axis.

For outputs near zero the kernel is written as
sqrt(xy) J_mu(xy) = x^(mu+1/2) y^(mu+1/2) * [z^(-mu) J_mu(z)]|_{z=xy},
which keeps everything finite at y = 0; the round-trip helper uses that
reduced form so it can spline the first transform through the origin.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from scipy.interpolate import CubicSpline, RectBivariateSpline

from .bessel import DEFAULT_Z_MAX, MuVector, bessel_j, reduced_bessel
from .errors import (
    DecayRequired,
    DimensionMismatch,
    DomainError,
    LimitExceeded,
)
from .quadrature import (
    GridFunction,
    GridSpec,
    QuadratureRule,
    build_quadrature,
    truncation_radius,
)
from .symbolic import SymbolicHFunction

__all__ = [
    "hankel_1d",
    "hankel_nd",
    "sample_on_nodes",
    "orthant_pair",
    "hankel_roundtrip_residual",
    "default_rule_for",
]

_DIRECT_CAP = 5_000_000


def default_rule_for(decay, points_per_panel=None, panels=None) -> QuadratureRule:
    """Quadrature rule whose radius covers a Gaussian tail of rate `decay`."""
    if float(decay) <= 0.0:
        raise DecayRequired("a positive decay rate is needed to truncate")
    kw = {}
    if points_per_panel is not None:
        kw["points_per_panel"] = points_per_panel
    if panels is not None:
        kw["panels"] = panels
    return build_quadrature(truncation_radius(float(decay)), **kw)


def _family_factors(f: SymbolicHFunction, axes):
    """Split a family member into a coefficient tensor and axis factors.

    Returns (C, V): C[k] is the float coefficient of s^k, shaped
    (deg_1+1, ..., deg_n+1), and V[a][i, p] = x_i^(2p) x_i^(mu_a+1/2)
    exp(-c x_i^2) on axes[a], so f = sum_k C[k] prod_a V[a][i_a, k_a].
    """
    if f.dim != len(axes):
        raise DimensionMismatch(f"function dimension {f.dim}, grid {len(axes)}")
    terms = f.poly.items()
    shape = [1 + max((k[a] for k, _ in terms), default=0) for a in range(f.dim)]
    coeffs = np.zeros(shape)
    for k, v in terms:
        coeffs[tuple(k)] = float(v)
    decay = float(f.decay)
    factors = []
    for x, m, d in zip(axes, f.mu, shape):
        s = x * x
        base = x ** (float(m) + 0.5)
        if decay:
            base = base * np.exp(-decay * s)
        factors.append(s[:, None] ** np.arange(d) * base[:, None])
    return coeffs, factors


def _contract(core, mats) -> np.ndarray:
    """Apply mats[a] along axis a of core (out[..i..] = sum_j mats[a][i, j] core[..j..])."""
    for a, m in enumerate(mats):
        core = np.moveaxis(np.tensordot(m, core, axes=(1, a)), 0, a)
    return core


def sample_on_nodes(f, axes) -> np.ndarray:
    """Evaluate f on the tensor grid spanned by 1-D coordinate arrays.

    f may be a SymbolicHFunction, an ndarray of precomputed values, or a
    callable taking n broadcastable coordinate arrays.  Family members
    are evaluated axis by axis, without forming the coordinate mesh.
    """
    axes = [np.asarray(a, dtype=float).ravel() for a in axes]
    shape = tuple(a.size for a in axes)
    if isinstance(f, np.ndarray):
        if f.shape != shape:
            raise DimensionMismatch(
                f"precomputed values shape {f.shape}, grid {shape}"
            )
        return f
    if isinstance(f, SymbolicHFunction):
        return _contract(*_family_factors(f, axes))
    mesh = np.meshgrid(*axes, indexing="ij")
    try:
        vals = np.asarray(f(*mesh), dtype=float)
    except (TypeError, ValueError):
        vals = np.vectorize(lambda *c: float(f(*c)))(*mesh)
    vals = np.broadcast_to(np.asarray(vals, dtype=float), shape)
    return np.array(vals)


def _check_arguments(ys: np.ndarray, rule: QuadratureRule, z_max: float):
    if float(np.max(ys)) * rule.radius > z_max:
        raise DomainError(
            "kernel argument "
            f"{float(np.max(ys)) * rule.radius:.1f} exceeds the Bessel cap "
            f"{z_max}; shrink the output grid or raise z_max"
        )


# repeated transforms (weak checks, pairings) reuse identical kernel
# matrices, so keep a small FIFO cache keyed by the exact inputs; the
# verify thread pool shares it, and cached arrays are read-only
_KERNEL_CACHE: dict = {}
_KERNEL_CACHE_CAP = 32
_KERNEL_LOCK = threading.Lock()


def _cached_kernel(kind, alpha, ys, rule, z_max, build) -> np.ndarray:
    key = (
        kind,
        float(alpha),
        ys.tobytes(),
        rule.nodes.tobytes(),
        rule.weights.tobytes(),
        float(z_max),
    )
    with _KERNEL_LOCK:
        hit = _KERNEL_CACHE.get(key)
    if hit is not None:
        return hit
    value = build()
    value.setflags(write=False)
    with _KERNEL_LOCK:
        if key not in _KERNEL_CACHE:
            if len(_KERNEL_CACHE) >= _KERNEL_CACHE_CAP:
                _KERNEL_CACHE.pop(next(iter(_KERNEL_CACHE)))
            _KERNEL_CACHE[key] = value
        return _KERNEL_CACHE[key]


def _kernel_matrix(alpha, ys, rule: QuadratureRule, z_max: float) -> np.ndarray:
    """Weighted kernel K[i, j] = w_j sqrt(x_j y_i) J_alpha(x_j y_i)."""

    def build():
        z = np.outer(ys, rule.nodes)
        k = np.sqrt(z) * bessel_j(alpha, z, z_max=z_max)
        return k * rule.weights[None, :]

    return _cached_kernel("plain", alpha, ys, rule, z_max, build)


def _reduced_kernel_matrix(alpha, ys, rule: QuadratureRule, z_max: float) -> np.ndarray:
    """Kernel against x^(alpha+1/2), finite for y = 0.

    K[i, j] = w_j x_j^(alpha+1/2) redJ_alpha(x_j y_i), so contracting a
    sample of f gives the transform divided by y^(alpha+1/2).
    """
    a = float(alpha)

    def build():
        z = np.outer(ys, rule.nodes)
        k = rule.nodes[None, :] ** (a + 0.5) * reduced_bessel(a, z, z_max=z_max)
        return k * rule.weights[None, :]

    return _cached_kernel("reduced", a, ys, rule, z_max, build)


def hankel_1d(alpha, f, ys, rule: QuadratureRule, z_max: float = DEFAULT_Z_MAX) -> GridFunction:
    """1-D Hankel transform evaluated on output points ys > 0."""
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 1 or ys.size == 0:
        raise DomainError("output points must form a nonempty 1-D array")
    if float(ys.min()) <= 0.0:
        raise DomainError("output points must be positive")
    _check_arguments(ys, rule, z_max)
    fx = sample_on_nodes(f, [rule.nodes])
    k = _kernel_matrix(alpha, ys, rule, z_max)
    return GridFunction(GridSpec([ys]), k @ fx, MuVector([alpha]))


def hankel_nd(
    mu,
    f,
    grid: GridSpec,
    rule: QuadratureRule,
    z_max: float = DEFAULT_Z_MAX,
    direct: bool = False,
) -> GridFunction:
    """n-D Hankel transform of f sampled on the rule's tensor nodes.

    A family member is not sampled on the N^n node grid: each kernel
    matrix transforms that axis's factors x^(2p+mu_a+1/2) e^(-c x^2),
    and the coefficient tensor combines the results.  direct=True
    samples f and sums the assembled product kernel instead; it is
    quadratic in memory and intended only for small cross-check problems.
    """
    mu = mu if isinstance(mu, MuVector) else MuVector(mu)
    n = mu.dim
    if grid.dim != n:
        raise DimensionMismatch(f"order vector dimension {n}, grid {grid.dim}")
    for axis in grid.axes:
        _check_arguments(axis, rule, z_max)
    nodes = [rule.nodes] * n
    if isinstance(f, SymbolicHFunction) and not direct:
        coeffs, factors = _family_factors(f, nodes)
        mats = [
            _kernel_matrix(float(mu[a]), grid.axes[a], rule, z_max) @ factors[a]
            for a in range(n)
        ]
        return GridFunction(grid, _contract(coeffs, mats), mu)
    vals = sample_on_nodes(f, nodes)
    kernels = [
        _kernel_matrix(float(mu[a]), grid.axes[a], rule, z_max) for a in range(n)
    ]
    if direct:
        big = kernels[0]
        for k in kernels[1:]:
            big = np.kron(big, k)
            if big.size > _DIRECT_CAP:
                raise LimitExceeded(
                    "direct kernel would exceed the memory cap; "
                    "use the factorized path"
                )
        out = (big @ vals.ravel(order="C")).reshape(grid.shape)
        return GridFunction(grid, out, mu)
    return GridFunction(grid, _contract(vals, kernels), mu)


def orthant_pair(f, g, rule: QuadratureRule, dim: int = None, absolute: bool = False) -> float:
    """Quadrature pairing integral of f*g over the positive orthant."""
    if dim is None:
        for h in (f, g):
            if isinstance(h, SymbolicHFunction):
                dim = h.dim
                break
            if isinstance(h, np.ndarray):
                dim = h.ndim
                break
    if dim is None:
        raise DomainError("pass dim= when both factors are plain callables")
    fv = sample_on_nodes(f, [rule.nodes] * dim)
    gv = sample_on_nodes(g, [rule.nodes] * dim)
    prod = fv * gv
    if absolute:
        prod = np.abs(prod)
    for _ in range(dim):
        prod = np.tensordot(prod, rule.weights, axes=(0, 0))
    return float(prod)


def _reduced_transform_values(mu, f, out_axes, rule, z_max) -> np.ndarray:
    """Transform divided by y^(mu+1/2), sampled on out_axes (0 allowed)."""
    n = mu.dim
    vals = sample_on_nodes(f, [rule.nodes] * n)
    return _contract(
        vals,
        [_reduced_kernel_matrix(float(mu[a]), out_axes[a], rule, z_max) for a in range(n)],
    )


def hankel_roundtrip_residual(
    f: SymbolicHFunction,
    comparison: GridSpec,
    rule: QuadratureRule = None,
    samples_per_axis: int = 512,
    z_max: float = DEFAULT_Z_MAX,
) -> dict:
    """Sup-norm defect of transforming twice and comparing with f.

    The first transform is sampled densely in its reduced form, splined
    (cubic), re-multiplied by y^(mu+1/2) at the quadrature nodes and
    transformed again onto the comparison grid.  The same residual at
    half the sample count is returned as a convergence check.
    """
    n = f.dim
    if n > 2:
        raise DomainError("round-trip helper supports 1 or 2 axes")
    if f.decay == 0:
        raise DecayRequired("round-trip needs a decaying family member")
    if rule is None:
        rule = default_rule_for(float(f.decay))

    def run(samples: int) -> float:
        dense = np.linspace(0.0, rule.radius, samples)
        reduced = _reduced_transform_values(f.mu, f, [dense] * n, rule, z_max)
        if n == 1:
            spline = CubicSpline(dense, reduced)

            def first(y):
                return spline(y) * y ** (float(f.mu[0]) + 0.5)

            mid = first(rule.nodes)
        else:
            spline = RectBivariateSpline(dense, dense, reduced, kx=3, ky=3)
            ym = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
            mid = (
                spline.ev(ym[0].ravel(), ym[1].ravel()).reshape(
                    rule.size, rule.size
                )
                * ym[0] ** (float(f.mu[0]) + 0.5)
                * ym[1] ** (float(f.mu[1]) + 0.5)
            )
        back = hankel_nd(f.mu, mid if n > 1 else (lambda y: first(y)), comparison, rule, z_max=z_max)
        target = sample_on_nodes(f, comparison.axes)
        return float(np.max(np.abs(back.values - target)))

    return {
        "residual": run(samples_per_axis),
        "coarse_residual": run(max(16, samples_per_axis // 2)),
    }
