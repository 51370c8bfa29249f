"""Gamma and Bessel-J evaluation plus the delta normalization constants.

Bessel functions of the first kind are evaluated by four methods glued
together by order and argument size:

* ascending power series for z <= 12, where alternation costs at most
  a couple of digits;
* backward (Miller-type) recurrence normalized with the even-order sum
  identity (1/2 z)^nu = sum_k (nu+2k) Gamma(nu+k)/k! J_{nu+2k}(z) in the
  middle range, where neither series converges cleanly in doubles;
* the large-argument cosine expansion once it can reach ~1e-13 before
  its terms start growing;
* for a half-integer order, the same expansion summed in full for every
  z > 12 at which no term exceeds _FINITE_PEAK: its coefficients carry
  the factor 4 nu^2 - (2j-1)^2, so it stops after |nu| + 1/2 terms and is
  exact.  Cancellation then costs at most about (|nu| + 1/2) *
  _FINITE_PEAK * eps relative to sqrt(2 / (pi z)); against scipy's jv
  the error stays below 6e-14 for orders up to 83/2.

All entry points accept scalars or numpy arrays for z.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, DomainError
from .multiindex import MultiIndex, _checked_power

__all__ = [
    "MuVector",
    "gamma_fn",
    "bessel_j",
    "reduced_bessel",
    "c_mu",
    "c_k_mu",
    "DEFAULT_Z_MAX",
]

DEFAULT_Z_MAX = 200.0

_SERIES_CUTOFF = 12.0
_GAMMA_MAX = 171.5
# the largest term the terminating expansion of a half-integer order may
# reach; below the z where it is reached, Miller's recurrence serves
_FINITE_PEAK = 1e3


def _coeff(v):
    """Coerce a coefficient: exact types become Fraction, floats stay.

    Integers of any type (numpy's included) become Fractions and any
    other real a float.  Booleans, non-finite reals, integers beyond the
    float range and strings that are not a finite rational (such as "1/0"
    or "abc") raise DomainError.
    """
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (bool, np.bool_)):
        raise DomainError(f"coefficient must be a number, got {v!r}")
    if isinstance(v, numbers.Integral):
        try:
            float(v)
        except OverflowError:
            # no repr in the message: an integer of 4300+ digits refuses one
            raise DomainError("integer coefficient too large for a float") from None
        return Fraction(int(v))
    if isinstance(v, str):
        try:
            q = Fraction(v)
            float(q)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"bad coefficient {v!r}: {exc}") from None
        return q
    if isinstance(v, numbers.Real):
        if not math.isfinite(v):
            raise DomainError(f"coefficient must be finite, got {v!r}")
        return v if isinstance(v, float) else float(v)
    raise DomainError(f"unsupported coefficient type {type(v)!r}")


def _coeff_to_json(v):
    """JSON form of a coefficient: a Fraction as a "num/den" string, else a float."""
    return str(v) if isinstance(v, Fraction) else float(v)


class MuVector(tuple):
    """Vector of Bessel orders, one per axis, each >= -1/2.

    Entries are parsed like coefficients: int, Fraction or "num/den"
    string are kept exact, finite floats stay floats, and booleans and
    non-finite values are rejected.  Exact entries let the symbolic layer
    produce exact rational coefficients.  The entries come as a list, a
    tuple or a 1-D array; a string, a mapping or any other iterable raises
    DomainError.  An existing MuVector is returned as it is, so
    MuVector(mu) coerces any accepted input.
    """

    def __new__(cls, entries):
        if isinstance(entries, MuVector):
            return entries
        if not (isinstance(entries, (list, tuple)) or isinstance(entries, np.ndarray) and entries.ndim == 1):
            raise DomainError(f"an order vector is a list, a tuple or a 1-D array, not {type(entries).__name__}")
        vals = []
        for i, v in enumerate(entries):
            w = _coeff(v)
            if w < Fraction(-1, 2):
                raise DomainError(f"component {i}: order {w} < -1/2")
            vals.append(w)
        if not vals:
            raise DomainError("an order vector needs at least one component")
        return super().__new__(cls, vals)

    @property
    def dim(self) -> int:
        return len(self)

    @property
    def is_rational(self) -> bool:
        return all(isinstance(v, Fraction) for v in self)

    def shifted(self, k) -> "MuVector":
        """The componentwise shift mu + k by a multi-index."""
        k = MultiIndex(k)
        if len(k) != len(self):
            raise DimensionMismatch(f"order vector {len(self)}, index {len(k)}")
        return MuVector(tuple(m + int(v) for m, v in zip(self, k)))

    def to_json(self):
        return [_coeff_to_json(v) for v in self]


def gamma_fn(x) -> float:
    """Gamma(x) for real x > 0, refusing arguments whose Gamma overflows."""
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"gamma needs a positive argument, got {x}")
    if x > _GAMMA_MAX:
        raise DomainError(f"gamma({x}) overflows double precision")
    return math.gamma(x)


def _series_sum(nu: float, z: np.ndarray) -> np.ndarray:
    """Even entire factor sum_m (-z^2/4)^m / (m! (nu+1)_m); for z <= 12.

    Stops once max|term| <= 1e-17 max|total|.  Each step scales |term| by
    z^2/4 and divides it by the same m (nu + m) > 0, and rounding keeps that
    order, so max|term| is the entry at the largest z: one read per term.
    reach = 1 + the sum of those reads bounds |total|, so max|total| is
    formed only once the test can pass (the factor 2 covers rounding).
    """
    half = 0.5 * z
    ratio = -(half * half)
    term = np.ones_like(z)
    total = np.ones_like(z)
    top = int(np.argmax(z))
    reach = 1.0
    for m in range(1, 80):
        np.multiply(term, ratio, out=term)
        term /= m * (nu + m)
        total += term
        peak = abs(float(term[top]))
        reach += peak
        if peak <= 2e-17 * reach and peak <= 1e-17 * max(np.max(np.abs(total)), 1e-300):
            break
    return total


def _series_j(nu: float, z: np.ndarray) -> np.ndarray:
    """Ascending series; intended for z <= 12."""
    with np.errstate(divide="ignore"):
        pref = (0.5 * z) ** nu / gamma_fn(nu + 1.0)
    return pref * _series_sum(nu, z)


def _asymptotic_j(nu: float, z: np.ndarray, terms: int = 0) -> np.ndarray:
    """Large-argument cosine expansion, truncated at the smallest term.

    terms > 0 sums exactly that many terms with no stop: a half-integer
    order's expansion terminates after _finite_terms(nu) of them, and a
    stop where the terms grow would cut that exact sum short.
    """
    mu4 = 4.0 * nu * nu
    inv8z = 1.0 / (8.0 * z)
    # scalars until a term lands: the one-term sum allocates no array
    p, q, term = 1.0, 0.0, 1.0
    prev = math.inf
    for j in range(1, terms or 40):
        term *= mu4 - (2 * j - 1) ** 2
        term *= inv8z
        term /= j
        if not terms:
            mag = float(np.max(np.abs(term)))
            if mag >= prev:
                break
        sign = -1.0 if (j // 2) % 2 else 1.0
        if j % 2:
            q += sign * term
        else:
            p += sign * term
        if not terms:
            if mag <= 1e-17:
                break
            prev = mag
    omega = z - (0.5 * nu + 0.25) * math.pi
    wave = p * np.cos(omega)
    if terms != 1:  # the one-term expansion of nu = +-1/2 has q = 0
        wave -= q * np.sin(omega)
    return np.sqrt(2.0 / (math.pi * z)) * wave


def _miller_j(nu: float, z: np.ndarray) -> np.ndarray:
    """Backward recurrence with the even-order sum normalization."""
    zmax = float(np.max(z))
    m_start = int(math.ceil(zmax + 1.5 * math.sqrt(40.0 * zmax) + 40.0))
    if m_start % 2:
        m_start += 1
    two_over_z = 2.0 / z
    f_hi = np.zeros_like(z)              # order nu + m + 1
    f_cur = np.full_like(z, 1e-30)       # order nu + m
    norm = np.zeros_like(z)
    f_nu = None
    k = m_start // 2
    # w_k = (nu + 2k) Gamma(nu + k) / k!, updated downward as k decreases
    w = (nu + 2 * k) * math.exp(math.lgamma(nu + k) - math.lgamma(k + 1.0))
    for m in range(m_start, -1, -1):
        if m % 2 == 0:
            norm = norm + w * f_cur
            if m > 0:
                k = m // 2
                if k == 1:
                    w = gamma_fn(nu + 1.0)
                else:
                    w = w * (nu + 2 * k - 2) * k / ((nu + 2 * k) * (nu + k - 1))
        if m == 0:
            f_nu = f_cur
            break
        f_lo = (nu + m) * two_over_z * f_cur - f_hi
        f_hi, f_cur = f_cur, f_lo
        # rescale per entry: growth rates differ wildly across the array, and
        # a global rescale would underflow the slow-growing entries to zero
        mask = np.abs(f_cur) > 1e200
        if mask.any():
            f_cur[mask] *= 1e-200
            f_hi[mask] *= 1e-200
            norm[mask] *= 1e-200
    with np.errstate(over="ignore"):
        target = (0.5 * z) ** nu
    return f_nu * target / norm


def _asym_cutoff(nu: float) -> float:
    return max(30.0, 1.9 * nu * nu + 16.0)


def _finite_terms(nu: float) -> int:
    """|nu| + 1/2 for a half-integer order (2 nu odd), else 0.

    The cosine expansion's j-th coefficient carries 4 nu^2 - (2j-1)^2,
    which vanishes at j = |nu| + 1/2, so that many terms are all of it.
    """
    two_nu = 2.0 * nu
    if not two_nu.is_integer() or int(two_nu) % 2 == 0:
        return 0
    return int(abs(nu) + 0.5)


def _finite_cutoff(nu: float, terms: int) -> float:
    """Smallest z at which no term of the terminating expansion exceeds
    _FINITE_PEAK.

    Term j is A_j / z^j with A_j = prod_{i<=j} |4 nu^2 - (2i-1)^2| / (8i),
    so the bound holds from z = max_j (A_j / _FINITE_PEAK)^(1/j) on.  The
    scan stops once that passes DEFAULT_Z_MAX.
    """
    cutoff, log_a = 0.0, 0.0
    for j in range(1, terms):
        log_a += math.log(abs(4.0 * nu * nu - (2 * j - 1) ** 2) / (8.0 * j))
        cutoff = max(cutoff, math.exp((log_a - math.log(_FINITE_PEAK)) / j))
        if cutoff > DEFAULT_Z_MAX:
            break
    return cutoff


def _checked_argument(nu, z):
    """(float order, 1-D float array, scalar flag) after the domain checks."""
    nuf = float(nu)
    if nuf < -0.5:
        raise DomainError(f"order {nuf} < -1/2 not supported")
    arr = np.asarray(z, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.size:
        lo, hi = float(arr.min()), float(arr.max())
        if math.isnan(lo):
            raise DomainError("argument is NaN")
        if lo < 0.0:
            raise DomainError(f"argument {lo} < 0")
        if hi > DEFAULT_Z_MAX:
            raise DomainError(f"argument {hi} exceeds the cap {DEFAULT_Z_MAX}")
    return nuf, arr, scalar


def bessel_j(nu, z):
    """Bessel function of the first kind J_nu(z), real order nu >= -1/2.

    z may be a scalar or a numpy array with entries in [0, DEFAULT_Z_MAX].
    """
    nuf, arr, scalar = _checked_argument(nu, z)
    if arr.size == 0:
        return arr
    out = np.empty_like(arr)
    small = arr <= _SERIES_CUTOFF
    terms = _finite_terms(nuf)
    if terms:
        large = ~small & (arr >= _finite_cutoff(nuf, terms))
    else:
        large = arr >= _asym_cutoff(nuf)
    mid = ~(small | large)
    if small.any():
        out[small] = _series_j(nuf, arr[small])
    if large.any():
        out[large] = _asymptotic_j(nuf, arr[large], terms)
    if mid.any():
        out[mid] = _miller_j(nuf, arr[mid])
    return float(out[0]) if scalar else out


def reduced_bessel(nu, z):
    """The even entire part z^(-nu) J_nu(z), finite down to z = 0.

    At z = 0 this equals 1 / (2^nu Gamma(nu+1)).
    """
    nuf, arr, scalar = _checked_argument(nu, z)
    if arr.size == 0:
        return arr
    out = np.empty_like(arr)
    small = arr <= _SERIES_CUTOFF
    if small.any():
        pref = 2.0**-nuf / gamma_fn(nuf + 1.0)
        out[small] = pref * _series_sum(nuf, arr[small])
    rest = ~small
    if rest.any():
        zr = arr[rest]
        out[rest] = bessel_j(nuf, zr) / zr**nuf
    return float(out[0]) if scalar else out


def c_mu(mu: MuVector) -> float:
    """Normalization constant prod_i 2^mu_i Gamma(mu_i + 1).

    An order whose Gamma overflows raises gamma_fn's DomainError before
    2^mu_i is formed.
    """
    mu = MuVector(mu)
    out = 1.0
    for m in mu:
        out *= gamma_fn(float(m) + 1.0) * 2.0 ** float(m)
    return out


def c_k_mu(mu: MuVector, k):
    """Transform coefficient of the k-th delta derivative.

    Equals (-1)^|k| c_mu(mu) / c_mu(mu + k); the gamma ratio telescopes,
    so for rational mu the value is an exact Fraction.
    """
    mu = MuVector(mu)
    k = _checked_power(k)
    if len(k) != len(mu):
        raise DimensionMismatch(f"order vector {len(mu)}, index {len(k)}")
    out = Fraction(-1 if k.order % 2 else 1)
    for m, ki in zip(mu, k):
        for r in range(1, ki + 1):
            out /= 2 * (m + r)
    return out
