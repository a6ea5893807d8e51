"""Unit tests for hash and sorted indexes."""

import math
import random

import pytest

from repro.relational import columnar
from repro.relational.datatypes import INTEGER, REAL, char
from repro.relational.indexes import HashIndex, SortedIndex
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema


@pytest.fixture()
def rel():
    schema = RelationSchema("T", [Column("K", char(4)),
                                  Column("V", INTEGER)])
    return Relation(schema, [
        ("a", 5), ("b", 3), ("a", 7), ("c", None), ("d", 1)])


class TestHashIndex:
    def test_lookup(self, rel):
        index = HashIndex(rel, "K")
        assert len(index.lookup("a")) == 2
        assert index.lookup("zz") == []

    def test_contains_and_len(self, rel):
        index = HashIndex(rel, "K")
        assert "b" in index
        assert len(index) == 4

    def test_null_is_indexable(self, rel):
        index = HashIndex(rel, "V")
        assert len(index.lookup(None)) == 1

    def test_distinct_values(self, rel):
        index = HashIndex(rel, "K")
        assert set(index.distinct_values()) == {"a", "b", "c", "d"}


class TestSortedIndex:
    """A range returns row positions in ascending (table) order."""

    def test_range_inclusive(self, rel):
        index = SortedIndex(rel, "V")
        assert index.range(3, 7) == [0, 1, 2]  # values 5, 3, 7

    def test_range_exclusive(self, rel):
        index = SortedIndex(rel, "V")
        assert index.range(3, 7, low_inclusive=False,
                           high_inclusive=False) == [0]  # value 5

    def test_open_ended(self, rel):
        index = SortedIndex(rel, "V")
        assert index.range(low=5) == [0, 2]  # values 5, 7
        assert index.range(high=3) == [1, 4]  # values 3, 1

    def test_nulls_excluded(self, rel):
        index = SortedIndex(rel, "V")
        assert len(index) == 4

    def test_empty(self):
        schema = RelationSchema("E", [Column("V", INTEGER)])
        index = SortedIndex(Relation(schema), "V")
        assert index.range(0, 10) == []

    def test_string_ranges(self, rel):
        index = SortedIndex(rel, "K")
        assert index.range("b", "d") == [1, 3, 4]  # "b", "c", "d"

    def test_point_is_a_one_value_range(self, rel):
        index = SortedIndex(rel, "K")
        assert index.range("a", "a") == [0, 2]
        assert index.range("zz", "zz") == []


def _in_range(value, low, high, low_inclusive, high_inclusive) -> bool:
    if value is None or value != value:  # NULL and NaN: in no range
        return False
    if low is not None and not (value >= low if low_inclusive
                                else value > low):
        return False
    return high is None or (value <= high if high_inclusive
                            else value < high)


@pytest.mark.parametrize("use_numpy", [True, False])
def test_ranges_match_a_filter_with_nans(use_numpy):
    """NaN is neither below nor above any value, so it is in no range;
    a NaN sorted among the other keys would break the bisection.  Random
    63-row REAL columns with 3 NaNs, duplicates and NULLs: every range
    returns exactly the positions a row-by-row filter keeps, ascending.
    """
    rng = random.Random(20)
    schema = RelationSchema("R", [Column("V", REAL)])
    columnar.set_numpy_enabled(use_numpy)
    try:
        for _trial in range(200):
            values = [float(rng.randrange(20)) for _ in range(58)]
            values += [math.nan] * 3 + [None] * 2
            rng.shuffle(values)
            index = SortedIndex(Relation(schema, [(v,) for v in values]),
                                "V")
            assert len(index) == 58
            for _probe in range(5):
                low = rng.choice([None, rng.randrange(-1, 21) / 1.0])
                high = rng.choice([None, rng.randrange(-1, 21) / 1.0])
                flags = (rng.random() < 0.5, rng.random() < 0.5)
                expected = [i for i, value in enumerate(values)
                            if _in_range(value, low, high, *flags)]
                assert index.range(low, high, *flags) == expected
    finally:
        columnar.set_numpy_enabled(True)
