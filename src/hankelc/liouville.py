"""Kernel solver for operator polynomials with a spectral cross-check.

The kernel of L = sum (-1)^|alpha| a_alpha S^alpha inside the power-times-
polynomial family is found exactly by linear algebra over Fractions.  An
independent weak check pairs each candidate f against transformed test
functions: on the spectral side L acts as multiplication by P(y^2), so
(f, transform(P[x^2] phi)) must vanish for every test phi when f is in
the kernel.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction

import numpy as np

from .bessel import MuVector
from .errors import DimensionMismatch, DomainError, HypothesisFailed, NumericError
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

    Each residual is scaled by the pairing of |f| with |transform|, so
    the result is insensitive to the magnitudes of f and phi.  Values
    near roundoff certify that multiplication by P annihilates the
    transform of f in the weak sense; order-one values refute it.
    """
    mu = f.mu if mu is None else mu
    return _weak_residuals([f], P, mu, family, rule)[0]


def _expand(coeffs, mats, out=None) -> np.ndarray:
    """sum_k coeffs[k] prod_a mats[a][i_a, k_a] as a C-ordered matrix whose
    rows run over the first n-1 axes; the last axis is one product into out.

    BLAS takes a C-ordered right factor about 2x faster than the transposed
    view.  For an inner dimension of 1 numpy's matmul leaves BLAS and is
    about 3x slower than dot, which is the slower of the two otherwise.
    """
    head = _contract(coeffs, mats[:-1]).reshape(-1, coeffs.shape[-1])
    product = np.dot if head.shape[1] == 1 else np.matmul
    return product(head, np.ascontiguousarray(mats[-1].T), out=out)


def _weak_residuals(basis, P, mu, family, rule) -> list:
    """weak_spectral_check for every candidate in basis.

    Every g = P[x^2] phi shares the order vector and the nodes, so the
    axis images M_a = K_a V_a are formed once per decay, for the widest
    coefficient shape, and each g is only its coefficient tensor C.  The
    numerator sum w f Hg is then <Z, C> with Z = contract(w f, M_a^T)
    per candidate, so the signed Hg is never formed.  The normaliser
    sum |w f| |Hg| builds |Hg| into one buffer reused for every member.
    A pairing that overflows raises NumericError rather than certifying f.
    """
    mu = MuVector(mu)
    n = mu.dim
    for f in basis:
        if tuple(f.mu) != tuple(mu):
            raise DomainError("order vector does not match the candidate's")
        if P.dim != f.dim:
            raise DimensionMismatch(f"operator dimension {P.dim}, candidate {f.dim}")
    if family is None:
        family = default_weak_family(mu)
    if rule is None:
        rule = _default_weak_rule()
    grid = GridSpec([rule.nodes] * n)
    _check_arguments(rule.nodes, rule)
    members = []
    for phi in family:
        if tuple(phi.mu) != tuple(mu) or phi.dim != n:
            raise DomainError("family member does not match the order vector")
        members.append((phi.decay, _coefficient_tensor(phi.poly * P)))
    shape = np.max([(1,) * n] + [c.shape for _, c in members], axis=0)
    images = {
        decay: _axis_images(mu, _axis_factors(mu, decay, grid.axes, shape), grid, rule)
        for decay in dict.fromkeys(decay for decay, _ in members)
    }
    # one block holds |Hg| and every |w f|: separate arrays of this size are
    # returned to the system when freed and page-faulted in on the next call
    block = np.empty((1 + len(basis), grid.size // rule.size, rule.size))
    weights = rule.weights[:, None]
    pairings = []
    for f, wf in zip(basis, block[1:]):
        coeffs, factors = _family_factors(f, grid.axes)
        core = _expand(coeffs, [weights * v for v in factors], out=wf).reshape(grid.shape)
        pairings.append({d: _contract(core, [m.T for m in mats]) for d, mats in images.items()})
        np.abs(wf, out=wf)
    worst = [0.0] * len(basis)
    hg = block[0]
    for decay, coeffs in members:
        part = tuple(map(slice, coeffs.shape))
        _expand(coeffs, [m[:, :d] for m, d in zip(images[decay], coeffs.shape)], out=hg)
        habs = np.abs(hg, out=hg).ravel()
        for i, (z, wa) in enumerate(zip(pairings, block[1:])):
            numer = abs(float(np.vdot(z[decay][part], coeffs)))
            denom = float(np.dot(wa.ravel(), habs))
            if not (np.isfinite(numer) and np.isfinite(denom)):
                raise NumericError("weak pairing is not finite")
            worst[i] = max(worst[i], numer / max(denom, _TINY))
    return worst


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
