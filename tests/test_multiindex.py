import pytest

from hankelc import ComponentExceeds, DomainError, MultiIndex
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


def test_dominates():
    assert MultiIndex((2, 1)).dominates((1, 1))
    assert not MultiIndex((2, 0)).dominates((1, 1))


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


def test_unit_index():
    assert unit_index(3, 1) == MultiIndex((0, 1, 0))
    with pytest.raises(DomainError):
        unit_index(2, 5)
