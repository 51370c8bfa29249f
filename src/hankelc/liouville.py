"""Kernel solver for operator polynomials with a spectral cross-check.

The kernel of L = sum (-1)^|alpha| a_alpha S^alpha inside the power-times-
polynomial family is found exactly by linear algebra over Fractions.  An
independent weak check pairs each candidate f against transformed test
functions phi: on the spectral side L acts as multiplication by P(y^2),
so (f, transform(P[x^2] phi)) vanishes for a kernel element.  The check
works per axis and in blocks of grid rows, never on the whole node grid.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction

import numpy as np

from .bessel import MuVector
from .errors import DecayRequired, DimensionMismatch, DomainError, HypothesisFailed, NumericError
from .multiindex import mi_graded_enumerate
from .quadrature import GridSpec, QuadratureRule
from .symbolic import (
    EvenPolynomial,
    OperatorPoly,
    SymbolicHFunction,
    apply_L,
    check_hypothesis,
    kernel_basis,
)
from .transform import (
    _axis_factors,
    _axis_images,
    _check_arguments,
    _coefficient_tensor,
    _contract,
    _family_factors,
    default_rule_for,
)

__all__ = [
    "default_weak_family",
    "weak_spectral_check",
    "KernelCertificate",
    "liouville_solve",
]

_TINY = 1e-300
# bytes of a normaliser block over the family and one candidate.  Its rows
# must not depend on the candidate count, or a solve would round unlike each
# candidate's own check.  256 KiB-1 MiB ran alike, 2-4 MiB slower (2 MiB L2).
_BLOCK_BYTES = 1 << 20


def default_weak_family(mu, count: int = 10, seed: int = 7) -> tuple:
    """Random test functions with Gaussian decay 1/2 and small exact
    polynomial parts; used as the dual probes of the weak check.

    Built once per (mu, count, seed) and shared as a tuple.
    """
    mu = MuVector(mu)
    if count < 1:
        raise DomainError(f"need at least one test function, got {count}")
    # keyed by the JSON form, so a float order never shares an exact one's
    return _weak_family(tuple(mu.to_json()), count, seed)


@functools.lru_cache(maxsize=32)
def _weak_family(mu_json: tuple, count: int, seed: int) -> tuple:
    mu = MuVector(mu_json)
    rng = np.random.default_rng(seed)
    indices = mi_graded_enumerate(mu.dim, 2)
    family = []
    while len(family) < count:
        coeffs = {}
        for k in indices:
            c = int(rng.integers(-3, 4))
            if c:
                coeffs[k] = Fraction(c)
        if not coeffs:
            continue
        family.append(
            SymbolicHFunction(mu, EvenPolynomial(mu.dim, coeffs), Fraction(1, 2))
        )
    return tuple(family)


@functools.lru_cache(maxsize=1)
def _default_weak_rule() -> QuadratureRule:
    """default_rule_for(0.5), built once and shared with read-only arrays."""
    rule = default_rule_for(0.5)
    rule.nodes.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


def weak_spectral_check(
    f: SymbolicHFunction,
    P: OperatorPoly,
    mu=None,
    family=None,
    rule: QuadratureRule = None,
) -> float:
    """Largest normalized residual |(f, transform(P[x^2] phi))| over the
    test family.

    Each residual is scaled by the pairing of |f| with |transform|, so it
    is insensitive to the magnitudes of f and phi.  Values near roundoff
    certify that P annihilates the transform of f weakly; order-one values
    refute it.  A test function of decay 0 raises DecayRequired.
    """
    mu = f.mu if mu is None else mu
    return _weak_residuals([f], P, mu, family, rule)[0]


def _weak_residuals(basis, P, mu, family, rule) -> list:
    """weak_spectral_check for every candidate in basis, with no array of
    the node grid's size.  Each g = P[x^2] phi is its coefficient tensor C
    (phi's, shifted by each term of P) on axis images M_a = K_a V_a formed
    once per decay.  The numerator sum w f Hg is <C, contract(C_f, G_a)>
    with Gram matrices G_a = M_a^T (w V_a) of the candidate's factors.  The
    normaliser sum |w f| |Hg| runs over blocks of grid rows, each function
    being head @ right (its contraction over the first n-1 axes times its
    last-axis factor).  A pairing that overflows raises NumericError.
    """
    mu = MuVector(mu)
    for f in basis:
        if tuple(f.mu) != tuple(mu):
            raise DomainError("order vector does not match the candidate's")
        if P.dim != f.dim:
            raise DimensionMismatch(f"operator dimension {P.dim}, candidate {f.dim}")
    if family is None:
        family = default_weak_family(mu)
    if rule is None:
        rule = _default_weak_rule()
    grid = GridSpec([rule.nodes] * mu.dim)
    _check_arguments(rule.nodes, rule)
    groups, tensors = {}, []
    for j, phi in enumerate(family):
        if tuple(phi.mu) != tuple(mu) or phi.dim != mu.dim:
            raise DomainError("family member does not match the order vector")
        if phi.decay == 0:
            raise DecayRequired("a test function of decay 0 transforms to a distribution")
        groups.setdefault(phi.decay, []).append(j)
        tensors.append(_coefficient_tensor(phi.poly))
    if not tensors:
        raise DomainError("the weak check needs at least one test function")
    op = _coefficient_tensor(P)
    stack = np.zeros((len(tensors), *np.max([c.shape for c in tensors], axis=0) + op.shape - 1))
    for g, c in zip(stack, tensors):
        for k in zip(*np.nonzero(op)):
            g[tuple(map(slice, k, np.add(k, c.shape)))] += op[k] * c
    images = {d: _axis_images(mu, _axis_factors(mu, d, grid.axes, stack.shape[1:]), grid, rule)
              for d in groups}
    cands = [_family_factors(f, grid.axes) for f in basis]
    m, rows, last = len(tensors), rule.size ** (mu.dim - 1), stack.shape[-1]
    head = np.zeros((m + len(basis), rows, max([last] + [c.shape[-1] for c, _ in cands])))
    right = np.zeros((len(head), head.shape[-1], rule.size))
    for decay, idx in groups.items():
        top = _contract(np.moveaxis(stack[idx], 0, -1), images[decay][:-1])
        head[idx, :, :last] = np.moveaxis(top, -1, 0).reshape(len(idx), rows, last)
        right[idx, :last] = images[decay][-1].T
    numers = np.zeros((len(basis), m))
    for i, (coeffs, factors) in enumerate(cands):
        wv = [rule.weights[:, None] * v for v in factors]
        head[m + i, :, : coeffs.shape[-1]] = _contract(coeffs, wv[:-1]).reshape(rows, -1)
        right[m + i, : coeffs.shape[-1]] = wv[-1].T
        for decay, idx in groups.items():
            z = _contract(coeffs, [mat.T @ v for mat, v in zip(images[decay], wv)])
            numers[i, idx] = stack[idx].reshape(len(idx), -1) @ z.ravel()
    block = min(rows, max(1, _BLOCK_BYTES // (8 * rule.size * (m + 1))))
    buf = np.empty((len(head), block, rule.size))
    denoms = np.zeros((len(basis), m))
    for start in range(0, rows, block):
        out = np.matmul(head[:, start : start + block], right, out=buf[:, : min(block, rows - start)])
        hg = np.abs(out, out=out)[:m].reshape(m, -1)
        for row, wf in zip(denoms, out[m:]):
            row += hg @ wf.ravel()
    if not (np.isfinite(numers).all() and np.isfinite(denoms).all()):
        raise NumericError("weak pairing is not finite")
    return [float(r) for r in (np.abs(numers) / np.maximum(denoms, _TINY)).max(axis=1)]


@dataclasses.dataclass(slots=True, eq=False)
class KernelCertificate:
    """Evidence bundle for a kernel solve.

    exact_zero records, per basis element, whether the symbolic operator
    image is identically zero; weak_residuals holds the spectral-side
    residuals from an independent quadrature route.
    """

    dimension: int
    max_degree: int
    exact_zero: list
    weak_residuals: list
    family_size: int
    hypothesis: dict

    @property
    def consistent(self) -> bool:
        return all(self.exact_zero)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def liouville_solve(P: OperatorPoly, mu, max_degree: int, skip_weak: bool = False):
    """Solve L f = 0 in the power-times-polynomial family up to max_degree.

    Returns (basis, certificate); the weak check pairs each basis element
    with default_weak_family(mu) on the default rule of decay 1/2.
    Raises HypothesisFailed when P changes sign or vanishes somewhere on
    the closed orthant away from the origin, since the kernel description
    is only guaranteed under that hypothesis.
    """
    mu = MuVector(mu)
    # a float coefficient is solved exactly as the binary value it is
    P = OperatorPoly(P.dim, {k: Fraction(v) for k, v in P.items()})
    report = check_hypothesis(P)
    if not report.passed:
        raise HypothesisFailed(report.reason)
    basis = kernel_basis(P, mu, max_degree)
    exact = [apply_L(P, b).poly.is_zero for b in basis]
    residuals = []
    if not skip_weak and basis:
        residuals = _weak_residuals(basis, P, mu, family=None, rule=None)
    cert = KernelCertificate(
        dimension=len(basis),
        max_degree=max_degree,
        exact_zero=exact,
        weak_residuals=residuals,
        family_size=0 if skip_weak else len(default_weak_family(mu)),
        hypothesis=report.to_json(),
    )
    return basis, cert
