"""Two-part splits of a set."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhc.partitions import enumerate_partitions

sizes = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n)))


@given(sizes)
@settings(max_examples=60)
def test_count_is_binomial(nk):
    n, k = nk
    assert len(list(enumerate_partitions(range(n), k))) == math.comb(n, k)


@given(sizes)
@settings(max_examples=60)
def test_parts_tile_the_set(nk):
    n, k = nk
    values = tuple(range(n))
    splits = list(enumerate_partitions(values, k))
    assert len(set(splits)) == len(splits)
    for one, two in splits:
        assert len(one) == k
        assert sorted(one + two) == list(values)


def test_order_within_parts_preserved():
    for parts in enumerate_partitions(("d", "c", "b", "a"), 2):
        for part in parts:
            assert list(part) == sorted(part, reverse=True)


def test_deterministic_order():
    first = list(enumerate_partitions((1, 2, 3), 1))
    assert first == [
        ((1,), (2, 3)),
        ((2,), (1, 3)),
        ((3,), (1, 2)),
    ]


def test_signature_mismatch_raises():
    # a first part larger than the set leaves no second part
    with pytest.raises(ValueError):
        list(enumerate_partitions((1, 2, 3), 4))


def test_negative_cardinality_raises():
    with pytest.raises(ValueError):
        list(enumerate_partitions((1, 2, 3), -1))


def test_empty_signature_single_partition():
    assert list(enumerate_partitions((), 0)) == [((), ())]
