"""Multi-indices with graded-lexicographic ordering.

A multi-index is a tuple of nonnegative integers.  All combinatorics
use Python integers, so factorials and binomials never overflow.  Every
enumeration in the package sorts multi-indices by total order first and
lexicographically within an order, so results are reproducible.
"""

from __future__ import annotations

import math
from itertools import combinations, product

from .errors import ComponentExceeds, DimensionMismatch, DomainError, LimitExceeded

__all__ = [
    "MultiIndex",
    "mi_factorial",
    "mi_binomial",
    "mi_below",
    "mi_graded_enumerate",
    "graded_key",
    "unit_index",
]


# the most multi-indices one enumeration may produce
_MAX_INDICES = 10_000
# operator powers S^k, T^k and delta derivatives T^k delta with |k| above
# this raise LimitExceeded before the first application
_MAX_POWER = 100


class MultiIndex(tuple):
    """Immutable tuple of nonnegative integers with componentwise arithmetic;
    an existing MultiIndex is returned as it is."""

    def __new__(cls, entries):
        if isinstance(entries, MultiIndex):
            return entries
        vals = []
        for i, v in enumerate(entries):
            if type(v) is not int:
                if isinstance(v, bool):
                    raise DomainError(f"component {i} is not an integer: {v!r}")
                try:
                    w = int(v)
                except (TypeError, ValueError, OverflowError) as exc:
                    raise DomainError(f"multi-index entries must be integers: {exc}") from exc
                if w != v:
                    raise DomainError(f"component {i} is not an integer: {v!r}")
                v = w
            if v < 0:
                raise DomainError(f"component {i} is negative: {v}")
            vals.append(v)
        if not vals:
            raise DomainError("a multi-index needs at least one component")
        return super().__new__(cls, vals)

    @property
    def dim(self) -> int:
        return len(self)

    @property
    def order(self) -> int:
        """Total order |k| = k_1 + ... + k_n."""
        return sum(self)

    def __add__(self, other):
        other = _coerce(other, self)
        return MultiIndex(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        other = _coerce(other, self)
        for i, (a, b) in enumerate(zip(self, other)):
            if b > a:
                raise ComponentExceeds(
                    f"component {i}: cannot subtract {b} from {a}"
                )
        return MultiIndex(a - b for a, b in zip(self, other))


def _coerce(k, like: MultiIndex) -> MultiIndex:
    k = MultiIndex(k)
    if len(k) != len(like):
        raise DimensionMismatch(
            f"multi-index dimensions differ: {len(like)} vs {len(k)}"
        )
    return k


def graded_key(k):
    """Sort key for the graded-lexicographic order."""
    return (sum(k), tuple(k))


def unit_index(n: int, axis: int) -> MultiIndex:
    """The multi-index e_axis in dimension n."""
    if not 0 <= axis < n:
        raise DomainError(f"axis {axis} outside range(0, {n})")
    return MultiIndex(1 if i == axis else 0 for i in range(n))


def mi_factorial(k) -> int:
    """Componentwise factorial k! = k_1! * ... * k_n!."""
    k = MultiIndex(k)
    out = 1
    for v in k:
        out *= math.factorial(v)
    return out


def mi_binomial(k, j) -> int:
    """Product of componentwise binomials C(k_i, j_i).

    Raises ComponentExceeds when some j_i > k_i.
    """
    k = MultiIndex(k)
    j = _coerce(j, k)
    out = 1
    for i, (a, b) in enumerate(zip(k, j)):
        if b > a:
            raise ComponentExceeds(f"component {i}: {b} > {a}")
        out *= math.comb(a, b)
    return out


def mi_below(k) -> list[MultiIndex]:
    """All multi-indices j <= k componentwise, in graded-lex order."""
    k = MultiIndex(k)
    ranges = [range(v + 1) for v in k]
    out = [MultiIndex(j) for j in product(*ranges)]
    out.sort(key=graded_key)
    return out


def mi_graded_enumerate(n: int, max_order: int) -> list[MultiIndex]:
    """All multi-indices of dimension n with |k| <= max_order, graded-lex.

    More than _MAX_INDICES of them raise LimitExceeded before any is built.
    Those of order d are the bar positions of d stars and n-1 bars, whose
    lexicographic order is that of the indices.
    """
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    if max_order < 0:
        raise DomainError(f"max_order must be >= 0, got {max_order}")
    count = math.comb(max_order + n, n)
    if count > _MAX_INDICES:
        raise LimitExceeded(f"{count} multi-indices exceed the cap {_MAX_INDICES}")
    return [
        MultiIndex(b - a - 1 for a, b in zip((-1,) + bars, bars + (d + n - 1,)))
        for d in range(max_order + 1)
        for bars in combinations(range(d + n - 1), n - 1)
    ]


def _checked_power(k) -> MultiIndex:
    k = MultiIndex(k)
    if k.order > _MAX_POWER:
        raise LimitExceeded(f"operator power |k| = {k.order} exceeds the cap {_MAX_POWER}")
    return k
