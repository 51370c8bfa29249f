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
from .transform import default_rule_for, hankel_nd, sample_on_nodes

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


def _weak_residuals(basis, P, mu, family, rule) -> list:
    """weak_spectral_check for every candidate in basis.

    The family is the outer loop, so each transform of P[x^2] phi is
    computed once and only one is held at a time.  Every operand is
    flattened in Fortran order, which is a free view of the transform
    (its last contraction leaves it Fortran-ordered in 2-D), so each
    pairing is one dot product of two contiguous vectors.  A pairing
    that overflows raises NumericError rather than certifying f.
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
    weight = rule.weights
    for _ in range(n - 1):
        weight = np.multiply.outer(weight, rule.weights)
    weight = weight.ravel(order="F")
    weighted = []
    for f in basis:
        wf = weight * sample_on_nodes(f, grid.axes).ravel(order="F")
        weighted.append((wf, np.abs(wf)))
    worst = [0.0] * len(basis)
    for phi in family:
        if tuple(phi.mu) != tuple(mu) or phi.dim != n:
            raise DomainError("family member does not match the order vector")
        g = SymbolicHFunction(mu, phi.poly * P, phi.decay)
        gvals = hankel_nd(mu, g, grid, rule).values.ravel(order="F")
        gabs = np.abs(gvals)
        for i, (wf, wabs) in enumerate(weighted):
            numer, denom = abs(float(np.dot(wf, gvals))), float(np.dot(wabs, gabs))
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
        return {
            "dimension": self.dimension,
            "max_degree": self.max_degree,
            "exact_zero": list(self.exact_zero),
            "weak_residuals": [float(r) for r in self.weak_residuals],
            "family_size": self.family_size,
            "hypothesis": self.hypothesis,
        }


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
