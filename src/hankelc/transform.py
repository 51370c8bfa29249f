"""Numerical Hankel transforms on the positive orthant.

The n-dimensional kernel is a product of 1-D kernels, so the transform
of a tensor-grid sample factorizes into n successive 1-D contractions;
that is the default path.  A direct path assembles the full product
kernel and is kept for cross-checking the factorized one on small
problems.  Family members x^(mu+1/2) Q(x^2) e^(-c|x|^2) are sums of
products of 1-D factors, so they are sampled and transformed per axis.
The family is closed under the transform, so the round-trip helper takes
the first transform on quadrature nodes and needs no interpolation.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .bessel import DEFAULT_Z_MAX, MuVector, bessel_j
from .errors import (
    DecayRequired,
    DimensionMismatch,
    DomainError,
    LimitExceeded,
    NumericError,
)
from .quadrature import (
    DEFAULT_PANELS,
    DEFAULT_POINTS_PER_PANEL,
    MAX_GRID_POINTS,
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


def default_rule_for(
    decay, points_per_panel=DEFAULT_POINTS_PER_PANEL, panels=DEFAULT_PANELS
) -> QuadratureRule:
    """Quadrature rule whose radius covers a Gaussian tail of rate `decay`."""
    if float(decay) <= 0.0:
        raise DecayRequired("a positive decay rate is needed to truncate")
    return build_quadrature(truncation_radius(float(decay)), points_per_panel, panels)


def _family_factors(f: SymbolicHFunction, axes):
    """Split a family member into its coefficient tensor C and axis factors
    V (_axis_factors), so f = sum_k C[k] prod_a V[a][i_a, k_a] on axes."""
    if f.dim != len(axes):
        raise DimensionMismatch(f"function dimension {f.dim}, grid {len(axes)}")
    coeffs = _coefficient_tensor(f.poly)
    return coeffs, _axis_factors(f.mu, f.decay, axes, coeffs.shape)


def _coefficient_tensor(poly) -> np.ndarray:
    """C[k] = float coefficient of s^k, shaped (deg_1+1, ..., deg_n+1); a
    tensor of more than MAX_GRID_POINTS entries raises LimitExceeded, a
    coefficient beyond the float range NumericError."""
    terms = poly.items()
    shape = [1 + max((k[a] for k, _ in terms), default=0) for a in range(poly.dim)]
    if math.prod(shape) > MAX_GRID_POINTS:
        raise LimitExceeded(f"coefficient tensor {shape} exceeds {MAX_GRID_POINTS} entries")
    coeffs = np.zeros(shape)
    for k, v in terms:
        try:
            coeffs[tuple(k)] = float(v)
        except OverflowError:
            raise NumericError(f"coefficient of s^{tuple(k)} exceeds the float range") from None
    return coeffs


def _axis_factors(mu, decay, axes, shape) -> list:
    """V[a][i, p] = x_i^(2p) x_i^(mu_a+1/2) exp(-decay x_i^2) on axes[a], p < shape[a]."""
    decay = float(decay)
    factors = []
    for x, m, d in zip(axes, mu, shape):
        s = x * x
        base = x ** (float(m) + 0.5)
        if decay:
            base = base * np.exp(-decay * s)
        factors.append(s[:, None] ** np.arange(d) * base[:, None])
    return factors


def _axis_images(mu, factors, grid: GridSpec, rule: QuadratureRule) -> list:
    """Transforms K_a V_a of axis factors onto grid.axes[a], K_a the kernel of order mu_a."""
    return [_kernel_matrix(float(m), y, rule) @ v for m, y, v in zip(mu, grid.axes, factors)]


def _contract(core, mats) -> np.ndarray:
    """Apply mats[a] along axis a of core (out[..i..] = sum_j mats[a][i, j] core[..j..])."""
    for a, m in enumerate(mats):
        core = np.moveaxis(np.tensordot(m, core, axes=(1, a)), 0, a)
    return core


def sample_on_nodes(f, axes) -> np.ndarray:
    """Evaluate f on the tensor grid spanned by 1-D coordinate arrays.

    f may be a SymbolicHFunction, an ndarray of precomputed values, or a
    callable that takes n coordinate arrays and broadcasts over them.
    Family members are evaluated axis by axis, without forming the mesh.
    A grid of more than MAX_GRID_POINTS points raises LimitExceeded.
    """
    axes = [np.asarray(a, dtype=float).ravel() for a in axes]
    shape = tuple(a.size for a in axes)
    if math.prod(shape) > MAX_GRID_POINTS:
        raise LimitExceeded(f"node grid {shape} exceeds the cap of {MAX_GRID_POINTS} points")
    if isinstance(f, np.ndarray):
        if f.shape != shape:
            raise DimensionMismatch(
                f"precomputed values shape {f.shape}, grid {shape}"
            )
        return f
    if isinstance(f, SymbolicHFunction):
        return _contract(*_family_factors(f, axes))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.array(np.broadcast_to(np.asarray(f(*mesh), dtype=float), shape))


def _check_arguments(ys: np.ndarray, rule: QuadratureRule):
    if float(np.max(ys)) * rule.radius > DEFAULT_Z_MAX:
        raise DomainError(
            "kernel argument "
            f"{float(np.max(ys)) * rule.radius:.1f} exceeds the Bessel cap "
            f"{DEFAULT_Z_MAX}; shrink the output grid"
        )


def _kernel_matrix(alpha, ys, rule: QuadratureRule) -> np.ndarray:
    """Weighted kernel K[i, j] = w_j sqrt(x_j y_i) J_alpha(x_j y_i), read-only."""
    return _kernel(float(alpha), ys.tobytes(), rule.nodes.tobytes(), rule.weights.tobytes())


# repeated transforms (weak checks, pairings) reuse identical kernel
# matrices, so keep the last ones keyed by the exact inputs; the verify
# thread pool shares them, so they are read-only
@functools.lru_cache(maxsize=32)
def _kernel(alpha: float, ys: bytes, nodes: bytes, weights: bytes) -> np.ndarray:
    z = np.outer(np.frombuffer(ys), np.frombuffer(nodes))
    value = np.sqrt(z) * bessel_j(alpha, z) * np.frombuffer(weights)[None, :]
    value.setflags(write=False)
    return value


def hankel_1d(alpha, f, ys, rule: QuadratureRule) -> GridFunction:
    """1-D Hankel transform on strictly increasing output points ys > 0."""
    return hankel_nd([alpha], f, GridSpec([ys]), rule)


def hankel_nd(mu, f, grid: GridSpec, rule: QuadratureRule, *, direct: bool = False) -> GridFunction:
    """n-D Hankel transform of f sampled on the rule's tensor nodes.

    A family member is not sampled on the N^n node grid: each kernel
    matrix transforms that axis's factors x^(2p+mu_a+1/2) e^(-c x^2),
    and the coefficient tensor combines the results.  direct=True
    samples f and sums the assembled product kernel instead; it is
    quadratic in memory and intended only for small cross-check problems.
    A family member with decay 0 raises DecayRequired on either path: its
    transform is a distribution supported at the origin, not a function.
    """
    mu = MuVector(mu)
    n = mu.dim
    if grid.dim != n:
        raise DimensionMismatch(f"order vector dimension {n}, grid {grid.dim}")
    if isinstance(f, SymbolicHFunction) and f.decay == 0:
        raise DecayRequired(
            "a member with decay 0 transforms to a distribution supported at "
            "the origin (see DeltaCombination), not to values on a grid"
        )
    for axis in grid.axes:
        _check_arguments(axis, rule)
    nodes = [rule.nodes] * n
    if isinstance(f, SymbolicHFunction) and not direct:
        coeffs, factors = _family_factors(f, nodes)
        return GridFunction(grid, _contract(coeffs, _axis_images(mu, factors, grid, rule)), mu)
    vals = sample_on_nodes(f, nodes)
    kernels = [_kernel_matrix(float(mu[a]), grid.axes[a], rule) for a in range(n)]
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


def orthant_pair(f, g, rule: QuadratureRule) -> float:
    """Quadrature pairing integral of f*g over the positive orthant.

    The dimension is read from the first factor that is a family member
    or an array of node values; two plain callables raise DomainError.
    """
    dim = None
    for h in (f, g):
        if isinstance(h, (SymbolicHFunction, np.ndarray)):
            dim = h.dim if isinstance(h, SymbolicHFunction) else h.ndim
            break
    if dim is None:
        raise DomainError("one factor must be a family member or an array")
    prod = sample_on_nodes(f, [rule.nodes] * dim) * sample_on_nodes(g, [rule.nodes] * dim)
    for _ in range(dim):
        prod = np.tensordot(prod, rule.weights, axes=(0, 0))
    return float(prod)


def hankel_roundtrip_residual(f: SymbolicHFunction, comparison: GridSpec, rule: QuadratureRule = None) -> dict:
    """Sup-norm defect of transforming twice and comparing with f.

    f has decay c and its transform decay 1/(4c) (Weber's integral), so
    the transform is evaluated on the nodes of the rule scaled by 2c,
    whose radius covers that decay, and the scaled rule transforms it
    again onto the comparison grid.  The same residual with half the
    panels is returned as a convergence check.
    """
    if f.decay == 0:
        raise DecayRequired("round-trip needs a decaying family member")
    if rule is None:
        rule = default_rule_for(float(f.decay))
    target = sample_on_nodes(f, comparison.axes)

    def run(r: QuadratureRule) -> float:
        scaled = build_quadrature(2 * f.decay * r.radius, r.points_per_panel, r.panels)
        mid = hankel_nd(f.mu, f, GridSpec([scaled.nodes] * f.dim), r)
        back = hankel_nd(f.mu, mid.values, comparison, scaled)
        return float(np.max(np.abs(back.values - target)))

    half = build_quadrature(rule.radius, rule.points_per_panel, max(1, rule.panels // 2))
    return {"residual": run(rule), "coarse_residual": run(half)}
