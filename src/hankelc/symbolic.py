"""Exact operator calculus on the family x^(mu+1/2) Q(x^2) exp(-c|x|^2).

Everything here is symbolic: polynomials in the squared coordinates
carry Fraction coefficients, and the two first-order reductions

    T_i u = (1/x_i) du/dx_i
    S_i f = d^2 f/dx_i^2 - (4 mu_i^2 - 1) / (4 x_i^2) f

act exactly on the family.  S_i is applied through its conjugated form
x^(-mu_i-1/2) S_i x^(mu_i+1/2) = x_i^2 T_i^2 + 2 (mu_i + 1) T_i, which
never leaves the family.  Rational orders keep all results rational;
float orders degrade gracefully to float coefficients.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np

from .bessel import MuVector, _coeff, _coeff_to_json
from .errors import DimensionMismatch, DomainError, NumericError
from .multiindex import (
    MultiIndex,
    _checked_power,
    graded_key,
    mi_below,
    mi_binomial,
    mi_graded_enumerate,
    unit_index,
)

__all__ = [
    "EvenPolynomial",
    "GaussianPolynomial",
    "SymbolicHFunction",
    "OperatorPoly",
    "EvenRational",
    "HypothesisReport",
    "apply_T",
    "apply_Tk",
    "apply_S",
    "apply_Sk",
    "apply_L",
    "leibniz_Tk",
    "koh_zemanian_coeffs",
    "koh_zemanian_coeffs_nd",
    "kernel_basis",
    "check_hypothesis",
]


def _sum_terms(pairs) -> dict:
    """Sum (index, coefficient) pairs per index, in first-seen order, and
    drop the zero sums.  A float sum that is not finite (an overflow in the
    arithmetic that produced the pairs) raises NumericError."""
    out = {}
    for k, v in pairs:
        out[k] = out[k] + v if k in out else v
    for k, v in list(out.items()):
        if not v:
            del out[k]
        elif isinstance(v, float) and not math.isfinite(v):
            raise NumericError(f"coefficient of s^{tuple(k)} overflowed to {v}")
    return out


class EvenPolynomial:
    """Polynomial in squared coordinates: Q = sum_k q_k * s^k, s_i = x_i^2.

    Zero coefficients are never stored, so equality is structural.
    """

    __slots__ = ("dim", "_coeffs")

    def __init__(self, dim: int, coeffs=None):
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise DomainError(f"dimension must be an integer >= 1, got {dim!r}")
        self.dim = dim
        pairs = []
        for k, v in (coeffs or {}).items():
            k = MultiIndex(k)
            if k.dim != dim:
                raise DimensionMismatch(
                    f"term {tuple(k)} has dimension {k.dim}, expected {dim}"
                )
            pairs.append((k, _coeff(v)))
        self._coeffs = _sum_terms(pairs)

    @staticmethod
    def _of(dim: int, pairs) -> "EvenPolynomial":
        """The polynomial summing (index, coefficient) pairs that are
        already valid: the result of an operation, not outside input."""
        out = object.__new__(EvenPolynomial)
        out.dim = dim
        out._coeffs = _sum_terms(pairs)
        return out

    @classmethod
    def constant(cls, dim: int, value) -> "EvenPolynomial":
        return cls(dim, {MultiIndex([0] * dim): value})

    @classmethod
    def monomial(cls, k, value=1) -> "EvenPolynomial":
        k = MultiIndex(k)
        return cls(k.dim, {k: value})

    def items(self):
        """Terms in graded-lex order."""
        return sorted(self._coeffs.items(), key=lambda kv: graded_key(kv[0]))

    def coefficient(self, k):
        return self._coeffs.get(MultiIndex(k), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self) -> int:
        """Largest total order |k|; -1 for the zero polynomial."""
        return max((k.order for k in self._coeffs), default=-1)

    def constant_term(self):
        return self._coeffs.get(MultiIndex([0] * self.dim), Fraction(0))

    def _check_dim(self, other: "EvenPolynomial"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimensions {self.dim} and {other.dim}")

    def __eq__(self, other):
        if not isinstance(other, EvenPolynomial):
            return NotImplemented
        return self.dim == other.dim and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.dim, frozenset(self._coeffs.items())))

    def __add__(self, other):
        self._check_dim(other)
        return EvenPolynomial._of(
            self.dim, itertools.chain(self._coeffs.items(), other._coeffs.items())
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return EvenPolynomial._of(self.dim, ((k, -v) for k, v in self._coeffs.items()))

    def scale(self, factor) -> "EvenPolynomial":
        factor = _coeff(factor)
        return EvenPolynomial._of(
            self.dim, ((k, v * factor) for k, v in self._coeffs.items())
        )

    def __mul__(self, other):
        if not isinstance(other, EvenPolynomial):
            return self.scale(other)
        self._check_dim(other)
        return EvenPolynomial._of(
            self.dim,
            (
                (ka + kb, va * vb)
                for ka, va in self._coeffs.items()
                for kb, vb in other._coeffs.items()
            ),
        )

    __rmul__ = __mul__

    def shift(self, k) -> "EvenPolynomial":
        """Multiply by the monomial s^k."""
        k = MultiIndex(k)
        return EvenPolynomial._of(
            self.dim, ((key + k, v) for key, v in self._coeffs.items())
        )

    def evaluate(self, squares):
        """Evaluate at squared coordinates (scalars or broadcastable arrays)."""
        if len(squares) != self.dim:
            raise DimensionMismatch(
                f"need {self.dim} coordinate arrays, got {len(squares)}"
            )
        cols = [np.asarray(s, dtype=float) for s in squares]
        total = np.zeros(np.broadcast(*cols).shape) if self.dim > 1 else np.zeros(
            np.shape(cols[0])
        )
        for k, v in self._coeffs.items():
            term = float(v)
            for c, p in zip(cols, k):
                if p:
                    term = term * c**p
            total = total + term
        return total

    def __repr__(self):
        body = " + ".join(f"{v}*s^{tuple(k)}" for k, v in self.items()) or "0"
        return f"EvenPolynomial({self.dim}, {body})"


def _check_decay(decay):
    d = _coeff(decay)
    if d < 0:
        raise DomainError(f"decay rate must be >= 0, got {decay}")
    return d


class GaussianPolynomial:
    """A u-part: Q(x^2) * exp(-c |x|^2) with Q even and c >= 0."""

    __slots__ = ("poly", "decay")

    def __init__(self, poly: EvenPolynomial, decay=0):
        self.poly = poly
        self.decay = _check_decay(decay)

    @property
    def dim(self) -> int:
        return self.poly.dim

    def __eq__(self, other):
        if not isinstance(other, GaussianPolynomial):
            return NotImplemented
        if self.poly.is_zero and other.poly.is_zero:
            return self.poly.dim == other.poly.dim
        return self.poly == other.poly and self.decay == other.decay

    def __hash__(self):
        # zero polynomials are equal whatever their decay, so hash alike
        return hash((self.poly, None if self.poly.is_zero else self.decay))

    def __add__(self, other):
        if self.decay != other.decay and not (
            self.poly.is_zero or other.poly.is_zero
        ):
            raise DomainError("cannot add envelopes with different decay rates")
        decay = other.decay if self.poly.is_zero else self.decay
        return GaussianPolynomial(self.poly + other.poly, decay)

    def __mul__(self, other):
        if isinstance(other, GaussianPolynomial):
            if self.dim != other.dim:
                raise DimensionMismatch(f"dimensions {self.dim} and {other.dim}")
            return GaussianPolynomial(
                self.poly * other.poly, self.decay + other.decay
            )
        return GaussianPolynomial(self.poly.scale(other), self.decay)

    __rmul__ = __mul__

    def evaluate(self, coords):
        """Evaluate at positive coordinates (scalars or arrays)."""
        cols = [np.asarray(c, dtype=float) for c in coords]
        squares = [c * c for c in cols]
        val = self.poly.evaluate(squares)
        if self.decay != 0:
            ssum = squares[0]
            for s in squares[1:]:
                ssum = ssum + s
            val = val * np.exp(-float(self.decay) * ssum)
        return val

    def __repr__(self):
        return f"GaussianPolynomial({self.poly!r}, decay={self.decay})"


class SymbolicHFunction:
    """Family member x^(mu+1/2) * Q(x^2) * exp(-decay |x|^2)."""

    __slots__ = ("mu", "poly", "decay")

    def __init__(self, mu, poly: EvenPolynomial, decay=0):
        self.mu = MuVector(mu)
        if poly.dim != self.mu.dim:
            raise DimensionMismatch(
                f"polynomial dimension {poly.dim} != order vector {self.mu.dim}"
            )
        self.poly = poly
        self.decay = _check_decay(decay)

    @property
    def dim(self) -> int:
        return self.mu.dim

    @property
    def u(self) -> GaussianPolynomial:
        """The u-part, i.e. the function divided by x^(mu+1/2)."""
        return GaussianPolynomial(self.poly, self.decay)

    def __eq__(self, other):
        if not isinstance(other, SymbolicHFunction):
            return NotImplemented
        return self.mu == other.mu and self.u == other.u

    def __hash__(self):
        return hash((self.mu, self.u))

    def __add__(self, other):
        if self.mu != other.mu:
            raise DomainError("cannot add functions with different orders")
        u = self.u + other.u
        return SymbolicHFunction(self.mu, u.poly, u.decay)

    def scale(self, factor) -> "SymbolicHFunction":
        return SymbolicHFunction(self.mu, self.poly.scale(factor), self.decay)

    def evaluate(self, coords):
        cols = [np.asarray(c, dtype=float) for c in coords]
        if len(cols) != self.dim:
            raise DimensionMismatch(
                f"need {self.dim} coordinates, got {len(cols)}"
            )
        val = self.u.evaluate(cols)
        for c, m in zip(cols, self.mu):
            val = val * c ** (float(m) + 0.5)
        return val

    def to_json(self) -> dict:
        return {
            "mu": self.mu.to_json(),
            "decay": _coeff_to_json(self.decay),
            "terms": [{"k": list(k), "q": _coeff_to_json(v)} for k, v in self.poly.items()],
        }

    def __repr__(self):
        return (
            f"SymbolicHFunction(mu={tuple(self.mu)}, poly={self.poly!r}, "
            f"decay={self.decay})"
        )


# ---------------------------------------------------------------------------
# T and S application


def apply_T(axis: int, u: GaussianPolynomial) -> GaussianPolynomial:
    """Apply T_axis = (1/x_axis) d/dx_axis to a u-part.

    On a term q * s^k * exp(-c sum s): contributes 2 k_axis q s^(k-e) and
    -2 c q s^k.
    """
    n = u.dim
    if not 0 <= axis < n:
        raise DomainError(f"axis {axis} outside range(0, {n})")
    e = unit_index(n, axis)
    two_c = 2 * u.decay

    def terms():
        for k, q in u.poly._coeffs.items():
            if k[axis]:
                yield k - e, 2 * k[axis] * q
            if two_c:
                yield k, -two_c * q

    return GaussianPolynomial(EvenPolynomial._of(n, terms()), u.decay)


def _power(step, k: MultiIndex, x):
    """Apply step(axis, x) k[axis] times on each axis in turn."""
    for axis, power in enumerate(k):
        for _ in range(power):
            x = step(axis, x)
    return x


def apply_Tk(k, u: GaussianPolynomial) -> GaussianPolynomial:
    """Apply the mixed power T^k = T_n^{k_n} ... T_1^{k_1}."""
    k = _checked_power(k)
    if k.dim != u.dim:
        raise DimensionMismatch(f"index dimension {k.dim}, u-part {u.dim}")
    return _power(apply_T, k, u)


def leibniz_Tk(
    k, theta: GaussianPolynomial, phi: GaussianPolynomial
) -> GaussianPolynomial:
    """Product rule: T^k(theta * phi) = sum_j C(k,j) T^(k-j)theta T^j phi."""
    k = MultiIndex(k)
    if theta.dim != phi.dim:
        raise DimensionMismatch(f"dimensions {theta.dim} and {phi.dim}")
    if k.dim != theta.dim:
        raise DimensionMismatch(f"index dimension {k.dim}, factors {theta.dim}")
    pairs = []
    for j in mi_below(k):
        c = mi_binomial(k, j)
        term = apply_Tk(k - j, theta).poly * apply_Tk(j, phi).poly
        pairs.extend((m, c * v) for m, v in term._coeffs.items())
    return GaussianPolynomial(
        EvenPolynomial._of(theta.dim, pairs), theta.decay + phi.decay
    )


def apply_S(axis: int, f: SymbolicHFunction) -> SymbolicHFunction:
    """Apply the Bessel operator on one axis via its conjugated form."""
    n = f.dim
    if not 0 <= axis < n:
        raise DomainError(f"axis {axis} outside range(0, {n})")
    u = f.u
    t1 = apply_T(axis, u)
    t2 = apply_T(axis, t1)
    e = unit_index(n, axis)
    poly = t2.poly.shift(e) + t1.poly.scale(2 * (f.mu[axis] + 1))
    return SymbolicHFunction(f.mu, poly, f.decay)


def apply_Sk(k, f: SymbolicHFunction) -> SymbolicHFunction:
    """Apply the mixed power S^k (per-axis powers commute)."""
    k = _checked_power(k)
    if k.dim != f.dim:
        raise DimensionMismatch(f"index dimension {k.dim}, function {f.dim}")
    return _power(apply_S, k, f)


# ---------------------------------------------------------------------------
# Operator polynomials


class OperatorPoly(EvenPolynomial):
    """Operator polynomial L = sum_alpha (-1)^|alpha| a_alpha S^alpha.

    The coefficient map also defines the plain polynomial
    P(x) = sum_alpha a_alpha x^alpha, whose signs and indices
    check_hypothesis reads, and the transform-side multiplier P[y^2]
    (the same coefficients read in the squared coordinates).
    """

    __slots__ = ()

    def __init__(self, dim: int, coeffs):
        super().__init__(dim, coeffs)
        if self.is_zero:
            raise DomainError("operator polynomial has no nonzero terms")

    def __repr__(self):
        body = " + ".join(f"{v}*x^{tuple(k)}" for k, v in self.items())
        return f"OperatorPoly({self.dim}, {body})"


def apply_L(L: OperatorPoly, f: SymbolicHFunction) -> SymbolicHFunction:
    """Apply L = sum (-1)^|alpha| a_alpha S^alpha to a family member."""
    if L.dim != f.dim:
        raise DimensionMismatch(f"operator dimension {L.dim}, function {f.dim}")
    pairs = []
    for alpha, a in L.items():
        sign = -a if alpha.order % 2 else a
        pairs.extend((m, v * sign) for m, v in apply_Sk(alpha, f).poly._coeffs.items())
    return SymbolicHFunction(f.mu, EvenPolynomial._of(f.dim, pairs), f.decay)


# ---------------------------------------------------------------------------
# Normal-ordered expansion of S^k in terms of x^(2l) T^(k+l)


def koh_zemanian_coeffs(k: int, mu_axis) -> dict:
    """Coefficients b_{l,k} with S^k u-side = sum_l b_{l,k} x^(2l) T^(k+l).

    One axis; mu_axis is that axis's order.  The closed form is
    b_{l,k} = 2^(k-l) C(k,l) (mu+l+1)(mu+l+2)...(mu+k), so for k = 1 this
    returns {0: 2(mu+1), 1: 1}.
    """
    if k < 0:
        raise DomainError(f"power must be >= 0, got {k}")
    mu_axis = _coeff(mu_axis)
    out = {}
    for l in range(k + 1):
        b = Fraction(2 ** (k - l) * math.comb(k, l))
        for j in range(l + 1, k + 1):
            b *= mu_axis + j
        out[l] = b
    return out


def koh_zemanian_coeffs_nd(k, mu: MuVector) -> dict:
    """Tensor version: b_{l,k} = prod_i b_{l_i,k_i}(mu_i), for l <= k."""
    k = MultiIndex(k)
    mu = MuVector(mu)
    if k.dim != mu.dim:
        raise DimensionMismatch(f"index dimension {k.dim}, orders {mu.dim}")
    per_axis = [koh_zemanian_coeffs(ki, mi) for ki, mi in zip(k, mu)]
    out = {}
    for l in mi_below(k):
        b = 1
        for li, table in zip(l, per_axis):
            b = b * table[li]
        out[l] = b
    return out


# ---------------------------------------------------------------------------
# Kernel solves and the operator hypothesis


def _lowering_rows(L: OperatorPoly, mu: MuVector, monos) -> dict:
    """L's matrix on the monomials as sparse rows: {row monomial: {column:
    value}}, where column j stands for monos[j].

    On the decay-0 family S_i only lowers a monomial,
    S_i x^(mu+1/2) s^m = 4 m_i (m_i + mu_i) x^(mu+1/2) s^(m-e_i), so the
    term a_alpha of L sends column m to row m - alpha with the entry
    (-1)^|alpha| a_alpha prod_i prod_{j<alpha_i} 4 (m_i-j)(m_i-j+mu_i),
    and to no row unless m >= alpha componentwise.
    """
    terms = [
        (alpha, -Fraction(a) if alpha.order % 2 else Fraction(a))
        for alpha, a in L.items()
    ]
    rows: dict[tuple, dict] = {}
    for col, m in enumerate(monos):
        for alpha, a in terms:
            if any(ai > mi for ai, mi in zip(alpha, m)):
                continue
            v = a
            for mi, ai, mui in zip(m, alpha, mu):
                for j in range(ai):
                    v *= 4 * (mi - j) * (mi - j + mui)
            rows.setdefault(tuple(x - y for x, y in zip(m, alpha)), {})[col] = v
    return rows


def _subtract(target: dict, f, row: dict, col: int):
    """target -= f * row on every column but col, storing no zeros."""
    for k, v in row.items():
        if k != col:
            w = target.get(k, 0) - f * v
            if w:
                target[k] = w
            else:
                target.pop(k, None)


def _sparse_rref(rows) -> dict[int, dict]:
    """Reduced row echelon form of sparse rows {column: Fraction}.

    Returns {pivot column: its row}, each row scaled to 1 at its pivot
    and zero in every other pivot column.  Rows are taken one at a time:
    each is reduced by the pivots found so far, its lowest column
    becomes a new pivot, and that column is cleared from the earlier
    pivot rows.  The RREF of a matrix is unique, so the result does not
    depend on the order of the rows.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        row = dict(row)
        for c in [c for c in row if c in pivots]:
            _subtract(row, row.pop(c), pivots[c], c)
        if not row:
            continue
        p = min(row)
        inv = 1 / row[p]
        row = {k: v * inv for k, v in row.items()}
        for other in pivots.values():
            f = other.pop(p, 0)
            if f:
                _subtract(other, f, row, p)
        pivots[p] = row
    return pivots


def kernel_basis(L: OperatorPoly, mu: MuVector, max_degree: int):
    """Exact basis of {f = x^(mu+1/2) Q(x^2) : deg Q <= max_degree, L f = 0}.

    Requires rational orders; the solve runs entirely over Fractions
    (each coefficient of L is read exactly, as Fraction(a)) and the basis
    is returned in graded-lex echelon form.  L's matrix comes from the
    closed-form lowering rule, so apply_L stays an independent check.
    """
    mu = MuVector(mu)
    if not mu.is_rational:
        raise DomainError("kernel solves need rational orders")
    if L.dim != mu.dim:
        raise DimensionMismatch(f"operator dimension {L.dim}, orders {mu.dim}")
    if max_degree < 0:
        raise DomainError(f"max_degree must be >= 0, got {max_degree}")
    monos = mi_graded_enumerate(mu.dim, max_degree)
    pivots = _sparse_rref(_lowering_rows(L, mu, monos).values())
    basis = []
    for fcol in range(len(monos)):
        if fcol in pivots:
            continue
        vec = {fcol: Fraction(1)}
        for p, row in pivots.items():
            if fcol in row:
                vec[p] = -row[fcol]
        coeffs = {monos[j]: vec[j] for j in sorted(vec)}
        basis.append(SymbolicHFunction(mu, EvenPolynomial(mu.dim, coeffs), 0))
    return basis


@dataclasses.dataclass(slots=True, eq=False)
class HypothesisReport:
    """Outcome of the sign/nonvanishing test for an operator polynomial."""

    passed: bool
    same_sign: bool
    sign: int
    orthant_nonvanishing: bool
    failing_axis: int | None
    reason: str | None

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    def __bool__(self):
        return bool(self.passed)


def check_hypothesis(P: EvenPolynomial) -> HypothesisReport:
    """Test that P has same-sign coefficients and no zero on the closed
    positive orthant away from the origin.

    P is read with plain powers, P(x) = sum_k p_k x^k; any EvenPolynomial
    (an OperatorPoly or a multiplier denominator) can be passed.

    The test is exact and reads only the coefficients' signs and indices:
    with same-sign coefficients, P vanishes at some x >= 0, x != 0 only
    if every term vanishes there, so P is orthant-nonvanishing away from
    0 iff the constant term is nonzero or every axis carries a pure power
    of that variable.
    """
    signs = {1 if v > 0 else -1 for _, v in P.items()}
    same_sign = len(signs) == 1
    sign = signs.pop() if same_sign else 0

    failing_axis = None
    if P.constant_term() == 0:
        for axis in range(P.dim):
            if not any(k[axis] == k.order > 0 for k, _ in P.items()):
                failing_axis = axis
                break
    orthant = failing_axis is None

    passed = same_sign and orthant
    if not same_sign:
        reason = "coefficients change sign"
    elif not orthant:
        reason = f"vanishes along axis {failing_axis} (no pure power term)"
    else:
        reason = None
    return HypothesisReport(
        passed=passed,
        same_sign=same_sign,
        sign=sign,
        orthant_nonvanishing=orthant,
        failing_axis=failing_axis,
        reason=reason,
    )


# ---------------------------------------------------------------------------
# Exact rational functions of the squared coordinates


class EvenRational:
    """Quotient N(x^2) / D(x^2)^power with exact T-derivatives.

    The quotient rule keeps a single denominator base:
    T_i (N / D^p) = (T_i N * D - p * N * T_i D) / D^(p+1).
    """

    __slots__ = ("numer", "denom", "power")

    def __init__(self, numer: EvenPolynomial, denom: EvenPolynomial = None, power: int = 1):
        self.numer = numer
        if denom is None:
            denom = EvenPolynomial.constant(numer.dim, 1)
            power = 0
        if denom.dim != numer.dim:
            raise DimensionMismatch(
                f"dimensions {numer.dim} and {denom.dim}"
            )
        if denom.is_zero:
            raise DomainError("denominator is identically zero")
        if isinstance(power, bool) or not isinstance(power, (int, float)) or not math.isfinite(power):
            raise DomainError(f"power must be a finite number, got {power!r}")
        if power < 0:
            raise DomainError(f"power must be >= 0, got {power}")
        self.denom = denom
        self.power = power

    @property
    def dim(self) -> int:
        return self.numer.dim

    def t_derivative(self, axis: int) -> "EvenRational":
        tn = apply_T(axis, GaussianPolynomial(self.numer, 0)).poly
        if self.power == 0:
            return EvenRational(tn, self.denom, 0)
        td = apply_T(axis, GaussianPolynomial(self.denom, 0)).poly
        new_numer = tn * self.denom - self.numer.scale(self.power) * td
        return EvenRational(new_numer, self.denom, self.power + 1)

    def t_power(self, k) -> "EvenRational":
        return _power(lambda axis, r: r.t_derivative(axis), _checked_power(k), self)

    def evaluate(self, squares):
        num = self.numer.evaluate(squares)
        if self.power == 0:
            return num
        den = self.denom.evaluate(squares)
        return num / den**self.power
