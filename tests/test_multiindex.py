from itertools import product

import pytest

from hankelc import ComponentExceeds, DomainError, LimitExceeded, MultiIndex
from hankelc.multiindex import (
    graded_key,
    mi_below,
    mi_binomial,
    mi_factorial,
    mi_graded_enumerate,
    unit_index,
)


def test_construction_and_properties():
    k = MultiIndex((2, 0, 1))
    assert k.dim == 3
    assert k.order == 3


@pytest.mark.parametrize("bad", [(-1,), (1.5,), (), ("a",)])
def test_rejects_invalid_entries(bad):
    with pytest.raises(DomainError):
        MultiIndex(bad)


def test_existing_index_is_returned_as_is():
    m = MultiIndex((2, 0, 1))
    assert MultiIndex(m) is m


def test_componentwise_arithmetic():
    a = MultiIndex((2, 1))
    b = MultiIndex((1, 1))
    assert a + b == MultiIndex((3, 2))
    assert a - b == MultiIndex((1, 0))
    with pytest.raises(ComponentExceeds):
        b - a




def test_factorial_and_binomial():
    assert mi_factorial((3, 2)) == 12
    assert mi_binomial((3, 2), (1, 1)) == 6
    assert mi_binomial((3, 2), (0, 0)) == 1
    with pytest.raises(ComponentExceeds):
        mi_binomial((1, 1), (2, 0))


def test_below_enumerates_the_box():
    below = mi_below((2, 1))
    assert len(below) == 6
    assert below[0] == MultiIndex((0, 0))
    assert below[-1] == MultiIndex((2, 1))
    # graded-lex: orders never decrease
    orders = [m.order for m in below]
    assert orders == sorted(orders)


def test_graded_enumeration_count():
    # |k| <= 3 in dimension 2: C(3+2,2) = 10 indices
    got = mi_graded_enumerate(2, 3)
    assert len(got) == 10
    assert got == sorted(got, key=graded_key)
    # reference: the points of the cube [0, max_order]^n with |k| <= max_order
    for n in range(1, 5):
        for max_order in range(6):
            cube = product(range(max_order + 1), repeat=n)
            want = sorted((MultiIndex(j) for j in cube if sum(j) <= max_order), key=graded_key)
            assert mi_graded_enumerate(n, max_order) == want


def test_unit_index():
    assert unit_index(3, 1) == MultiIndex((0, 1, 0))
    with pytest.raises(DomainError):
        unit_index(2, 5)


@pytest.mark.parametrize("n, max_order", [(1, 100000000000), (40, 3)])
def test_enumeration_counts_before_building(n, max_order):
    # comb(max_order + n, n) indices; (40, 3) has 12,341 of them but
    # 4^40 points in the cube that contains them
    with pytest.raises(LimitExceeded):
        mi_graded_enumerate(n, max_order)
