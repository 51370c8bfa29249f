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
import math
from fractions import Fraction

import numpy as np

from .bessel import DEFAULT_Z_MAX, MuVector, c_k_mu, c_mu, reduced_bessel
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
from .quadrature import QuadratureRule, geometric_grid
from .symbolic import (
    EvenPolynomial,
    EvenRational,
    GaussianPolynomial,
    SymbolicHFunction,
    _terms_from_json,
    apply_Sk,
    apply_Tk,
    check_hypothesis,
)
from .transform import default_rule_for, orthant_pair, sample_on_nodes

__all__ = [
    "richardson_limit",
    "pair_delta",
    "pair_s_delta",
    "taylor_coeffs",
    "TaylorReport",
    "hankel_delta",
    "pair_delta_transform",
    "DeltaCombination",
    "reconstruct_point_supported",
    "MultiplierForm",
    "MultiplierReport",
    "multiplier_check",
]

_DEFAULT_LADDER = tuple(range(4, 13))


def richardson_limit(values, ratio: float = 4.0, levels: int = 3, floor: float = 0.0):
    """Limit of a sequence v_j = L + a q^-j + b q^-2j + ... as j grows.

    values are ordered by increasing j with q = ratio.  Returns
    (estimate, error_indicator).  Raises ExtrapolationDiverged when the
    tail differences grow instead of contracting, unless the last one
    is within `floor`, a bound on the rounding noise of the values.
    """
    vals = [float(v) for v in values]
    if len(vals) < levels + 2:
        raise DomainError(
            f"need at least {levels + 2} ladder values, got {len(vals)}"
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
    for lev in range(1, levels + 1):
        fac = ratio**lev
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


def _diag_samples(u: GaussianPolynomial, ladder) -> list:
    """u at x = 2^-j (1, ..., 1) for each j of the ladder."""
    return [float(u.evaluate([np.asarray(2.0**-j)] * u.dim)) for j in ladder]


def _diag_gaps(a: GaussianPolynomial, b: GaussianPolynomial, ladder) -> list:
    """(j, a - b at x = 2^-j (1, ..., 1)) for each j of the ladder."""
    return [
        (j, va - vb)
        for j, va, vb in zip(ladder, _diag_samples(a, ladder), _diag_samples(b, ladder))
    ]


def _limit_tk(k: MultiIndex, u: GaussianPolynomial, method: str, ladder):
    """Limit of T^k u at the origin; exact or extrapolated."""
    du = apply_Tk(k, u)
    if method == "auto":
        method = "exact" if u.decay == 0 else "extrapolate"
    if method == "exact":
        return du.poly.constant_term()
    if method == "extrapolate":
        est, _ = richardson_limit(_diag_samples(du, ladder))
        return est
    raise DomainError(f"unknown method {method!r}")


def pair_delta(k, mu, phi, method: str = "auto", ladder=_DEFAULT_LADDER):
    """Pairing of the k-th delta derivative with a test function.

    Equals c_mu(mu) * lim_{x->0} T^k u.  For symbolic input with no
    decay the limit is read off exactly; otherwise it is extrapolated
    along x = 2^-j (1,..,1) (override with method="exact", which is
    valid for any symbolic member).
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
    return c_mu(mu) * float(_limit_tk(k, base.u, method, ladder))


def pair_s_delta(k, mu, phi, method: str = "auto", ladder=_DEFAULT_LADDER):
    """Pairing of S^k delta (via the adjoint: the delta paired with S^k phi)."""
    k = MultiIndex(k)
    base, zero = _resolve_test_function(phi)
    germ = phi if zero else apply_Sk(k, base)
    return pair_delta(MultiIndex([0] * k.dim), mu, germ, method, ladder)


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

    def remainder_nonincreasing(self, start: int = 6) -> bool:
        vals = [abs(v) for j, v in self.remainder_samples if j >= start]
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
                {"k": list(k), "a": str(v) if isinstance(v, Fraction) else float(v)}
                for k, v in sorted(self.coefficients.items())
            ],
            "remainder_samples": [[j, float(v)] for j, v in self.remainder_samples],
            "tk_remainder": [
                {"k": list(k), "samples": [[j, float(v)] for j, v in s]}
                for k, s in sorted(self.tk_remainder.items())
            ],
        }


def taylor_coeffs(
    mu,
    phi: SymbolicHFunction,
    order: int,
    method: str = "auto",
    ladder=_DEFAULT_LADDER,
) -> TaylorReport:
    """Even Taylor coefficients a_2k = lim T^k u / (2^|k| k!), |k| <= order."""
    mu = MuVector(mu)
    if tuple(phi.mu) != tuple(mu):
        raise DomainError("order vector does not match the function's")
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    u = phi.u
    resolved = method if method != "auto" else (
        "exact" if u.decay == 0 else "extrapolate"
    )
    coeffs = {}
    for k in mi_graded_enumerate(mu.dim, order):
        lim = _limit_tk(k, u, resolved, ladder)
        coeffs[k] = lim / (2 ** k.order * mi_factorial(k))
    partial = GaussianPolynomial(EvenPolynomial(mu.dim, coeffs), 0)
    tk_remainder = {
        k: _diag_gaps(apply_Tk(k, u), apply_Tk(k, partial), ladder)
        for k in mi_graded_enumerate(mu.dim, order)
        if k.order == order
    }
    return TaylorReport(
        mu, order, resolved, coeffs, _diag_gaps(u, partial, ladder), tk_remainder
    )


def hankel_delta(k, mu) -> SymbolicHFunction:
    """Transform of the k-th delta derivative: c^mu_k t^(mu+2k+1/2)."""
    mu = MuVector(mu)
    k = MultiIndex(k)
    if k.dim != mu.dim:
        raise DimensionMismatch(f"index dimension {k.dim}, orders {mu.dim}")
    return SymbolicHFunction(
        mu, EvenPolynomial.monomial(k, c_k_mu(mu, k)), 0
    )


def pair_delta_transform(
    k,
    mu,
    phi: SymbolicHFunction,
    rule: QuadratureRule = None,
    ladder=tuple(range(3, 9)),
    levels: int = 3,
    z_max: float = DEFAULT_Z_MAX,
) -> dict:
    """Both sides of the delta/transform consistency identity.

    lhs pairs T^k delta with the numerically transformed phi: the T
    powers fall on the kernel, turning it into shifted reduced Bessel
    factors, and the origin limit is Richardson-extrapolated.  rhs pairs
    the closed-form transform c^mu_k t^(mu+2k+1/2) with phi directly.
    """
    mu = MuVector(mu)
    k = MultiIndex(k)
    if k.dim != mu.dim:
        raise DimensionMismatch(f"index dimension {k.dim}, orders {mu.dim}")
    if tuple(phi.mu) != tuple(mu):
        raise DomainError("order vector does not match the function's")
    if rule is None:
        rule = default_rule_for(float(phi.decay))
    n = mu.dim
    rhs = orthant_pair(hankel_delta(k, mu), phi, rule)

    # weighted moment tensor w(t) phi(t) t^(mu+2k+1/2) on the node grid
    vals = sample_on_nodes(phi, [rule.nodes] * n)
    for a in range(n):
        power = float(mu[a]) + 2 * k[a] + 0.5
        shape = [1] * n
        shape[a] = rule.size
        vals = vals * (rule.nodes**power * rule.weights).reshape(shape)
    sign = -1.0 if k.order % 2 else 1.0
    # |reduced_bessel(nu, z)| <= its value 1 / (2^nu Gamma(nu+1)) at 0 for
    # nu >= -1/2, so this bounds the rounding noise of every ladder value
    floor = 64.0 * np.finfo(float).eps * float(np.sum(np.abs(vals)))
    floor /= c_mu(mu.shifted(k))
    ladder_vals = []
    for j in ladder:
        h = 2.0**-j
        acc = vals
        for a in range(n):
            nu_a = float(mu[a]) + k[a]
            r = reduced_bessel(nu_a, h * rule.nodes, z_max=z_max)
            acc = np.tensordot(acc, r, axes=(0, 0))
        ladder_vals.append(sign * float(acc))
    est, err = richardson_limit(ladder_vals, ratio=4.0, levels=levels, floor=floor)
    lhs = c_mu(mu) * est
    return {"lhs": lhs, "rhs": rhs, "ladder_error": c_mu(mu) * err}


class DeltaCombination:
    """Finite combination sum_k c_k (T^k delta) of delta derivatives."""

    __slots__ = ("mu", "terms")

    def __init__(self, mu, terms):
        self.mu = MuVector(mu)
        self.terms = EvenPolynomial(self.mu.dim, dict(terms))._coeffs

    @property
    def dim(self) -> int:
        return self.mu.dim

    def pair(self, phi, method: str = "auto") -> float:
        return float(
            sum(
                float(c) * pair_delta(k, self.mu, phi, method=method)
                for k, c in self.terms.items()
            )
        )

    def transform(self) -> SymbolicHFunction:
        """Symbolic transform: sum_k c_k c^mu_k t^(mu+2k+1/2)."""
        poly = EvenPolynomial._of(
            self.dim, ((k, c * c_k_mu(self.mu, k)) for k, c in self.terms.items())
        )
        return SymbolicHFunction(self.mu, poly, 0)

    def to_json(self) -> dict:
        return {
            "mu": self.mu.to_json(),
            "terms": [
                {"k": list(k), "c": float(c)}
                for k, c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, data) -> "DeltaCombination":
        return cls(data["mu"], _terms_from_json(data["terms"], "c"))

    def __eq__(self, other):
        if not isinstance(other, DeltaCombination):
            return NotImplemented
        return self.mu == other.mu and self.terms == other.terms

    def __repr__(self):
        return f"DeltaCombination(mu={tuple(self.mu)}, terms={dict(self.terms)})"


def reconstruct_point_supported(
    functional,
    mu,
    order: int,
    cut: CutoffSpec,
    probes: int = 5,
    support_tol: float = 1e-8,
    drop_tol: float = 1e-10,
    seed: int = 20240817,
) -> DeltaCombination:
    """Recover the delta-derivative coefficients of a point-supported
    functional from its values on windowed monomials.

    c_k = F(x^(mu+1/2) x^2k psi) / (c_mu 2^|k| k!), |k| <= order, where
    psi is the plateau window `cut`.  Before reading coefficients the
    functional is probed with `probes` random far-field test functions
    (default_weak_family(mu, probes, seed) under an outer window); a
    nonzero response raises SupportViolation.
    """
    mu = MuVector(mu)
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    far = OuterWindow(cut.outer, 2.0 * cut.outer)
    for member in default_weak_family(mu, probes, seed):
        probe = WindowedHFunction(member, far)
        response = float(functional(probe))
        if abs(response) > support_tol:
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
        if abs(c) > drop_tol:
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
    def quotient(cls, numer: EvenPolynomial, denom: EvenPolynomial, power: int = 1) -> "MultiplierForm":
        return cls(EvenRational(numer, denom, power))

    @classmethod
    def window_only(cls, window: _RadialWindow, dim: int) -> "MultiplierForm":
        return cls(EvenRational(EvenPolynomial.constant(dim, 1)), window)

    @classmethod
    def windowed_quotient(
        cls, numer: EvenPolynomial, denom: EvenPolynomial, window: _RadialWindow, power: int = 1
    ) -> "MultiplierForm":
        return cls(EvenRational(numer, denom, power), window)

    @property
    def dim(self) -> int:
        return self.rational.dim

    def evaluate(self, coords):
        cols = [np.asarray(c, dtype=float) for c in coords]
        squares = [c * c for c in cols]
        val = self.rational.evaluate(squares)
        if self.window is not None:
            v = squares[0]
            for s in squares[1:]:
                v = v + s
            val = val * self.window.v_value(v)
        return val

    def t_power_values(self, k: MultiIndex, squares, vsum):
        """T^k theta evaluated at squared coordinates."""
        if self.window is None:
            return self.rational.t_power(k).evaluate(squares)
        total = 0.0
        for j in mi_below(k):
            rat = self.rational.t_power(j).evaluate(squares)
            m = (k - j).order
            wder = self.window.v_derivative(vsum, m) * 2.0**m
            total = total + mi_binomial(k, j) * rat * wder
        return total


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
    """Sign/nonvanishing requirements before bounding a quotient."""
    rat = form.rational
    if rat.power == 0:
        return
    denom = rat.denom
    report = check_hypothesis(denom)
    if isinstance(form.window, OuterWindow):
        # the window kills a neighborhood of the origin, so vanishing
        # only matters away from it
        if not report.passed:
            raise HypothesisFailed(
                f"denominator fails away from the origin: {report.reason}"
            )
        return
    if not report.same_sign:
        raise HypothesisFailed("denominator coefficients change sign")
    if denom.constant_term() == 0:
        raise HypothesisFailed(
            "denominator vanishes at the origin (zero constant term)"
        )


def multiplier_check(
    form: MultiplierForm,
    max_order: int,
    exponent_range=(-20, 0),
    radius: float = 10.0,
    points_per_axis: int = 200,
    stability: float = 1.05,
) -> MultiplierReport:
    """Find weighted-boundedness exponents for T^k theta, |k| <= max_order.

    For each index the scan starts at exponent 0 and decreases until
    sup (1+|x|^2)^n |T^k theta| stops growing when the grid radius is
    doubled; that exponent and the observed bound are reported.  None
    marks an index where no exponent in range works.
    """
    if max_order < 0:
        raise DomainError(f"max_order must be >= 0, got {max_order}")
    if max_order > 4 and form.window is not None:
        raise DomainError("windowed forms support derivative order <= 4")
    _denominator_gate(form)
    n = form.dim
    pts = points_per_axis if n == 1 else max(40, points_per_axis // (2 ** (n - 1)))
    axis_inner = geometric_grid(1e-3, radius, pts)
    axis_full = geometric_grid(1e-3, 2.0 * radius, pts)
    mesh = np.meshgrid(*([axis_full] * n), indexing="ij")
    squares = [c * c for c in mesh]
    vsum = squares[0]
    for s in squares[1:]:
        vsum = vsum + s
    inner_mask = vsum <= radius * radius
    lo, hi = exponent_range
    entries = {}
    for k in mi_graded_enumerate(n, max_order):
        tvals = np.abs(np.asarray(form.t_power_values(k, squares, vsum), dtype=float))
        tvals = np.broadcast_to(tvals, vsum.shape)
        exponent = None
        bound = None
        for expo in range(min(hi, 0), lo - 1, -1):
            weighted = (1.0 + vsum) ** expo * tvals
            sup_inner = float(np.max(weighted[inner_mask]))
            sup_full = float(np.max(weighted))
            if sup_full <= sup_inner * stability + 1e-300:
                exponent = expo
                bound = sup_full
                break
        entries[k] = {"exponent": exponent, "bound": bound}
    note = None
    if any(e["exponent"] is None for e in entries.values()):
        note = "some indices admit no exponent in range; not a multiplier"
    return MultiplierReport(n, max_order, entries, note)
