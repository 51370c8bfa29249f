"""Point-supported distributions paired against family members.

The pairing of the k-th delta derivative with f = x^(mu+1/2) u is
c_mu(mu) times the limit of T^k u at the origin.  Applied to a symbolic
family member that limit is the constant term of the (exactly computed)
polynomial part; the alternative numerical route extrapolates samples
along the diagonal x = 2^-j (1,...,1) with a Richardson ladder in the
squared step.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .bessel import MuVector, _coeff_to_json, c_k_mu, c_mu, reduced_bessel
from .cutoff import CutoffSpec, OuterWindow, WindowedHFunction, _RadialWindow
from .errors import (
    DimensionMismatch,
    DomainError,
    ExtrapolationDiverged,
    HypothesisFailed,
    SupportViolation,
)
from .liouville import default_weak_family
from .multiindex import (
    MultiIndex,
    mi_below,
    mi_binomial,
    mi_factorial,
    mi_graded_enumerate,
)
from .quadrature import GridSpec
from .symbolic import (
    EvenPolynomial,
    EvenRational,
    GaussianPolynomial,
    SymbolicHFunction,
    apply_Sk,
    apply_Tk,
    check_hypothesis,
)
from .transform import _contract, _family_factors, _member_rule

__all__ = [
    "richardson_limit",
    "pair_delta",
    "pair_s_delta",
    "taylor_coeffs",
    "TaylorReport",
    "pair_delta_transform",
    "DeltaCombination",
    "reconstruct_point_supported",
    "MultiplierForm",
    "MultiplierReport",
    "multiplier_check",
]

# the j of the steps 2^-j: diagonal samples x = 2^-j (1, ..., 1) of the
# origin limits, and the kernel scalings of pair_delta_transform
_LADDER = tuple(range(4, 13))
_TRANSFORM_LADDER = tuple(range(3, 9))
# Richardson elimination: ratio q of the steps in the squared variable
# and the number of eliminated error terms
_RATIO = 4.0
_LEVELS = 3
# reconstruct_point_supported: far-field probes, the response that counts
# as a reaction, the smallest coefficient kept, and the probes' seed
_PROBES = 5
_SUPPORT_TOL = 1e-8
_DROP_TOL = 1e-10
_PROBE_SEED = 20240817
# multiplier_check: the lowest exponent scanned, the inner radius (the
# full grid doubles it) and the growth allowed from inner to full sup
_MIN_EXPONENT = -20
_RADIUS = 10.0
_STABILITY = 1.05


def richardson_limit(values, floor: float = 0.0):
    """Limit of a sequence v_j = L + a q^-j + b q^-2j + ... as j grows.

    values are ordered by increasing j with q = _RATIO, and _LEVELS error
    terms are eliminated.  Returns (estimate, error_indicator).  Raises
    ExtrapolationDiverged when the tail differences grow instead of
    contracting, unless the last one is within `floor`, a bound on the
    rounding noise of the values.
    """
    vals = [float(v) for v in values]
    if len(vals) < _LEVELS + 2:
        raise DomainError(
            f"need at least {_LEVELS + 2} ladder values, got {len(vals)}"
        )
    if not all(math.isfinite(v) for v in vals):
        raise ExtrapolationDiverged("non-finite ladder values")
    scale = max(max(abs(v) for v in vals), 1e-300)
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    if (
        len(diffs) >= 3
        and diffs[-1] > diffs[-2] > diffs[-3]
        and diffs[-1] > max(1e-9 * scale, floor)
        and diffs[-1] > 10.0 * min(diffs)
    ):
        raise ExtrapolationDiverged("ladder differences are growing")
    row = vals
    for lev in range(1, _LEVELS + 1):
        fac = _RATIO**lev
        row = [
            (fac * row[i + 1] - row[i]) / (fac - 1.0) for i in range(len(row) - 1)
        ]
    err = abs(row[-1] - row[-2]) if len(row) >= 2 else abs(vals[-1] - row[-1])
    return row[-1], err


def _resolve_test_function(phi):
    """Reduce a (possibly windowed) test function to its germ at 0.

    Returns (SymbolicHFunction, zero_flag); zero_flag means the germ
    vanishes identically, so every delta pairing is exactly 0.
    """
    if isinstance(phi, WindowedHFunction):
        if phi.vanishes_near_origin:
            return phi.base, True
        # plateau windows are exactly 1 near the origin, so the germ is
        # the base function's
        return phi.base, False
    if isinstance(phi, SymbolicHFunction):
        return phi, False
    raise DomainError(f"unsupported test function type {type(phi)!r}")


def _diag_samples(u: GaussianPolynomial) -> list:
    """u at x = 2^-j (1, ..., 1) for each j of the ladder."""
    return [float(u.evaluate([np.asarray(2.0**-j)] * u.dim)) for j in _LADDER]


def _diag_gaps(a: GaussianPolynomial, b: GaussianPolynomial) -> list:
    """(j, a - b at x = 2^-j (1, ..., 1)) for each j of the ladder."""
    return [
        (j, va - vb)
        for j, va, vb in zip(_LADDER, _diag_samples(a), _diag_samples(b))
    ]


def _limit_tk(k: MultiIndex, u: GaussianPolynomial, method: str):
    """Limit of T^k u at the origin; exact or extrapolated."""
    du = apply_Tk(k, u)
    if method == "exact":
        return du.poly.constant_term()
    if method == "extrapolate":
        est, _ = richardson_limit(_diag_samples(du))
        return est
    raise DomainError(f"unknown method {method!r}")


def pair_delta(k, mu, phi, method: str = "exact"):
    """Pairing of the k-th delta derivative with a test function.

    Equals c_mu(mu) * lim_{x->0} T^k u.  The limit is the constant term
    of T^k u, read off exactly; method="extrapolate" instead extrapolates
    it along x = 2^-j (1,..,1).
    """
    mu = MuVector(mu)
    k = MultiIndex(k)
    base, zero = _resolve_test_function(phi)
    if tuple(base.mu) != tuple(mu):
        raise DomainError("order vector does not match the test function's")
    if k.dim != mu.dim:
        raise DimensionMismatch(f"index dimension {k.dim}, orders {mu.dim}")
    if zero:
        return 0.0
    return c_mu(mu) * float(_limit_tk(k, base.u, method))


def pair_s_delta(k, mu, phi):
    """Pairing of S^k delta (via the adjoint: the delta paired with S^k phi)."""
    k = MultiIndex(k)
    base, zero = _resolve_test_function(phi)
    germ = phi if zero else apply_Sk(k, base)
    return pair_delta(MultiIndex([0] * k.dim), mu, germ)


@dataclasses.dataclass(slots=True, eq=False)
class TaylorReport:
    """Even Taylor data of a u-part at the origin.

    coefficients maps k to a_2k; remainder_samples holds
    (j, R(2^-j 1)) for the plain remainder; tk_remainder holds, for each
    top-order index, samples of T^k applied to the remainder, which must
    decay to 0 for the expansion order to be honest.
    """

    mu: MuVector
    order: int
    method: str
    coefficients: dict
    remainder_samples: list
    tk_remainder: dict

    def remainder_nonincreasing(self) -> bool:
        """|R(2^-j 1)| does not grow from j = 6 on."""
        vals = [abs(v) for j, v in self.remainder_samples if j >= 6]
        return all(b <= a * (1 + 1e-12) + 1e-15 for a, b in zip(vals, vals[1:]))

    def tk_final_max(self) -> float:
        worst = 0.0
        for samples in self.tk_remainder.values():
            worst = max(worst, abs(samples[-1][1]))
        return worst

    def to_json(self) -> dict:
        return {
            "mu": self.mu.to_json(),
            "order": self.order,
            "method": self.method,
            "coefficients": [
                {"k": list(k), "a": _coeff_to_json(v)}
                for k, v in sorted(self.coefficients.items())
            ],
            "remainder_samples": [[j, float(v)] for j, v in self.remainder_samples],
            "tk_remainder": [
                {"k": list(k), "samples": [[j, float(v)] for j, v in s]}
                for k, s in sorted(self.tk_remainder.items())
            ],
        }


def taylor_coeffs(mu, phi: SymbolicHFunction, order: int, method: str = "exact") -> TaylorReport:
    """Even Taylor coefficients a_2k = lim T^k u / (2^|k| k!), |k| <= order."""
    mu = MuVector(mu)
    if tuple(phi.mu) != tuple(mu):
        raise DomainError("order vector does not match the function's")
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    u = phi.u
    coeffs = {}
    for k in mi_graded_enumerate(mu.dim, order):
        lim = _limit_tk(k, u, method)
        coeffs[k] = lim / (2 ** k.order * mi_factorial(k))
    partial = GaussianPolynomial(EvenPolynomial(mu.dim, coeffs), 0)
    tk_remainder = {
        k: _diag_gaps(apply_Tk(k, u), apply_Tk(k, partial))
        for k in mi_graded_enumerate(mu.dim, order)
        if k.order == order
    }
    return TaylorReport(
        mu, order, method, coeffs, _diag_gaps(u, partial), tk_remainder
    )


def pair_delta_transform(k, mu, phi: SymbolicHFunction) -> dict:
    """Both sides of the delta/transform consistency identity.

    lhs pairs T^k delta with the numerically transformed phi: the T
    powers fall on the kernel, turning it into shifted reduced Bessel
    factors, and the origin limit is Richardson-extrapolated.  rhs pairs
    the closed-form transform c^mu_k t^(mu+2k+1/2) with phi directly.
    Both use a rule that covers the pairing's powers of x and contract phi's
    coefficient tensor with per-axis moments, never sampling phi on the node grid.
    A windowed phi has no closed-form transform and raises DomainError.
    """
    if not isinstance(phi, SymbolicHFunction):
        raise DomainError("the transform check needs an unwindowed family member")
    mu = MuVector(mu)
    k = MultiIndex(k)
    if k.dim != mu.dim:
        raise DimensionMismatch(f"index dimension {k.dim}, orders {mu.dim}")
    if tuple(phi.mu) != tuple(mu):
        raise DomainError("order vector does not match the function's")
    powers = [float(m) + 2 * ka + 0.5 for m, ka in zip(mu, k)]
    rule = _member_rule(phi, powers)
    ck = float(c_k_mu(mu, k))
    coeffs, factors = _family_factors(phi, [rule.nodes] * mu.dim)
    weights = [rule.weights * rule.nodes**p for p in powers]

    def moments(profiles):
        return [((w * g) @ v)[None, :] for w, g, v in zip(weights, profiles, factors)]

    plain = moments([1.0] * mu.dim)
    rhs = ck * _contract(coeffs, plain).item()
    # |reduced_bessel(nu, z)| <= its value 1 / (2^nu Gamma(nu+1)) at 0 for
    # nu >= -1/2, and V_a, w and the powers are >= 0, so the moment sum
    # with |C| bounds the rounding noise of every ladder value
    floor = 64.0 * np.finfo(float).eps * _contract(np.abs(coeffs), plain).item()
    floor /= c_mu(mu.shifted(k))
    ladder_vals = []
    for j in _TRANSFORM_LADDER:
        h = 2.0**-j
        bessel = [reduced_bessel(float(m) + ka, h * rule.nodes) for m, ka in zip(mu, k)]
        ladder_vals.append(_contract(coeffs, moments(bessel)).item())
    est, err = richardson_limit(ladder_vals, floor=floor)
    return {"lhs": (-1) ** k.order * c_mu(mu) * est, "rhs": rhs, "ladder_error": c_mu(mu) * err}


class DeltaCombination:
    """Finite combination sum_k c_k (T^k delta) of delta derivatives."""

    __slots__ = ("mu", "terms")

    def __init__(self, mu, terms):
        self.mu = MuVector(mu)
        self.terms = EvenPolynomial(self.mu.dim, dict(terms))._coeffs

    @property
    def dim(self) -> int:
        return self.mu.dim

    def pair(self, phi) -> float:
        return float(
            sum(float(c) * pair_delta(k, self.mu, phi) for k, c in self.terms.items())
        )

    def transform(self) -> SymbolicHFunction:
        """Symbolic transform: sum_k c_k c^mu_k t^(mu+2k+1/2)."""
        poly = EvenPolynomial._of(
            self.dim, ((k, c * c_k_mu(self.mu, k)) for k, c in self.terms.items())
        )
        return SymbolicHFunction(self.mu, poly, 0)

    def __eq__(self, other):
        if not isinstance(other, DeltaCombination):
            return NotImplemented
        return self.mu == other.mu and self.terms == other.terms

    def __repr__(self):
        return f"DeltaCombination(mu={tuple(self.mu)}, terms={dict(self.terms)})"


def reconstruct_point_supported(functional, mu, order: int, cut: CutoffSpec) -> DeltaCombination:
    """Recover the delta-derivative coefficients of a point-supported
    functional from its values on windowed monomials.

    c_k = F(x^(mu+1/2) x^2k psi) / (c_mu 2^|k| k!), |k| <= order, where
    psi is the plateau window `cut`; coefficients up to _DROP_TOL are
    dropped.  Before reading coefficients the functional is probed with
    _PROBES random far-field test functions (default_weak_family(mu,
    _PROBES, _PROBE_SEED) under an outer window); a response above
    _SUPPORT_TOL raises SupportViolation.
    """
    mu = MuVector(mu)
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    far = OuterWindow(cut.outer, 2.0 * cut.outer)
    for member in default_weak_family(mu, _PROBES, _PROBE_SEED):
        probe = WindowedHFunction(member, far)
        response = float(functional(probe))
        if abs(response) > _SUPPORT_TOL:
            raise SupportViolation(
                f"functional responds ({response:.3e}) to input supported "
                f"outside |x| >= {cut.outer}"
            )
    norm = c_mu(mu)
    terms = {}
    for k in mi_graded_enumerate(mu.dim, order):
        test = WindowedHFunction(
            SymbolicHFunction(mu, EvenPolynomial.monomial(k), 0), cut
        )
        c = float(functional(test)) / (norm * 2 ** k.order * mi_factorial(k))
        if abs(c) > _DROP_TOL:
            terms[k] = c
    return DeltaCombination(mu, terms)


# ---------------------------------------------------------------------------
# Multiplier-space membership


class MultiplierForm:
    """A candidate pointwise multiplier: rational part times optional window.

    theta(x) = N(x^2) / D(x^2)^power * w(x), with w a radial window or
    absent.  T-derivatives of the rational part are exact; the window
    contributes 2^|m| W^(|m|)(|x|^2) factors through the product rule.
    """

    __slots__ = ("rational", "window")

    def __init__(self, rational: EvenRational, window: _RadialWindow = None):
        if window is not None and not isinstance(window, _RadialWindow):
            raise DomainError(f"unsupported window type {type(window)!r}")
        self.rational = rational
        self.window = window

    @classmethod
    def polynomial(cls, numer: EvenPolynomial) -> "MultiplierForm":
        return cls(EvenRational(numer))

    @classmethod
    def quotient(cls, numer: EvenPolynomial, denom: EvenPolynomial) -> "MultiplierForm":
        return cls(EvenRational(numer, denom))

    @property
    def dim(self) -> int:
        return self.rational.dim

    def t_power_values(self, squares, vsum):
        """The map k -> T^k theta evaluated at squared coordinates; each
        T^j of the rational part and each window derivative is evaluated
        once, however many indices use it."""
        rat = functools.cache(lambda j: self.rational.t_power(j).evaluate(squares))
        if self.window is None:
            return rat
        wder = functools.cache(lambda m: self.window.v_derivative(vsum, m) * 2.0**m)
        return lambda k: sum((mi_binomial(k, j) * rat(j) * wder((k - j).order) for j in mi_below(k)), 0.0)


@dataclasses.dataclass(slots=True, eq=False)
class MultiplierReport:
    """Per-index decay exponents and bounds for a multiplier candidate."""

    dim: int
    max_order: int
    entries: dict
    note: str | None = None

    @property
    def bounded(self) -> bool:
        return all(e["exponent"] is not None for e in self.entries.values())

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "max_order": self.max_order,
            "bounded": self.bounded,
            "entries": [
                {
                    "k": list(k),
                    "exponent": e["exponent"],
                    "bound": e["bound"],
                }
                for k, e in sorted(self.entries.items())
            ],
            "note": self.note,
        }


def _denominator_gate(form: MultiplierForm):
    """Sign/nonvanishing requirements before bounding a quotient: the
    denominator passes check_hypothesis, a negative one is raised only to
    an integer power (any other power of it is undefined, DomainError),
    and its constant term is nonzero unless an OuterWindow kills a
    neighbourhood of the origin."""
    rat = form.rational
    if rat.power == 0:
        return
    report = check_hypothesis(rat.denom)
    if not report.passed:
        raise HypothesisFailed(f"denominator fails the hypothesis: {report.reason}")
    if report.sign < 0 and not float(rat.power).is_integer():
        raise DomainError(f"a negative denominator has no real power {rat.power}")
    if not isinstance(form.window, OuterWindow) and rat.denom.constant_term() == 0:
        raise HypothesisFailed(
            "denominator vanishes at the origin (zero constant term)"
        )


def multiplier_check(form: MultiplierForm, max_order: int, points_per_axis: int = 200) -> MultiplierReport:
    """Find weighted-boundedness exponents for T^k theta, |k| <= max_order.

    For each index the scan starts at exponent 0 and decreases until
    sup (1+|x|^2)^n |T^k theta| over radius 2 _RADIUS stays within
    _STABILITY of the sup over radius _RADIUS; that exponent and the
    observed bound are reported.  None marks an index where no exponent
    down to _MIN_EXPONENT works.
    """
    if max_order < 0:
        raise DomainError(f"max_order must be >= 0, got {max_order}")
    _denominator_gate(form)
    n = form.dim
    pts = points_per_axis if n == 1 else max(40, points_per_axis // (2 ** (n - 1)))
    mesh = GridSpec.geometric(1e-3, 2.0 * _RADIUS, pts, dim=n).meshgrid()
    squares = [c * c for c in mesh]
    vsum = squares[0]
    for s in squares[1:]:
        vsum = vsum + s
    inner_mask = vsum <= _RADIUS * _RADIUS
    t_power = form.t_power_values(squares, vsum)
    entries = {}
    for k in mi_graded_enumerate(n, max_order):
        tvals = np.abs(np.asarray(t_power(k), dtype=float))
        tvals = np.broadcast_to(tvals, vsum.shape)
        exponent = None
        bound = None
        for expo in range(0, _MIN_EXPONENT - 1, -1):
            weighted = (1.0 + vsum) ** expo * tvals
            sup_inner = float(np.max(weighted[inner_mask]))
            sup_full = float(np.max(weighted))
            if sup_full <= sup_inner * _STABILITY + 1e-300:
                exponent = expo
                bound = sup_full
                break
        entries[k] = {"exponent": exponent, "bound": bound}
    note = None
    if any(e["exponent"] is None for e in entries.values()):
        note = "some indices admit no exponent in range; not a multiplier"
    return MultiplierReport(n, max_order, entries, note)
