"""Unit tests for the four-step induction algorithm."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InductionError
from repro.induction import (
    InductionConfig, PairExtraction, extract_pairs_native,
    extract_pairs_quel, induce_from_pairs, induce_scheme,
)
from repro.induction.pairwise import extract_pairs_columnar
from repro.relational import (
    Column, Database, INTEGER, REAL, Relation, RelationSchema, char,
    columnar,
)
from repro.relational.columnar import DICT_MAX_CARDINALITY, PlainColumn
from repro.rules.clause import AttributeRef


@pytest.fixture()
def db():
    database = Database()
    database.create("R", [("X", INTEGER), ("Y", char(4))],
                    rows=[(1, "a"), (2, "a"), (3, "b"), (3, "c"),
                          (4, "b"), (5, None), (None, "a"), (6, "b")])
    return database


class TestExtractNative:
    def test_mapping_and_removed(self, db):
        extraction = extract_pairs_native(
            (row[0], row[1]) for row in db.relation("R"))
        assert extraction.mapping == {1: "a", 2: "a", 4: "b", 6: "b"}
        assert extraction.removed == frozenset({3})

    def test_null_x_skipped(self, db):
        extraction = extract_pairs_native(
            (row[0], row[1]) for row in db.relation("R"))
        assert None not in extraction.occurring_x
        assert extraction.source_size == 7  # 8 rows minus the NULL X

    def test_null_y_occurs_but_unmapped(self, db):
        extraction = extract_pairs_native(
            (row[0], row[1]) for row in db.relation("R"))
        assert 5 in extraction.occurring_x
        assert 5 not in extraction.mapping

    def test_counts_only_consistent(self, db):
        extraction = extract_pairs_native(
            (row[0], row[1]) for row in db.relation("R"))
        assert 3 not in extraction.counts
        assert extraction.counts[1] == 1

    def test_duplicate_rows_counted(self):
        extraction = extract_pairs_native([(1, "a"), (1, "a"), (2, "a")])
        assert extraction.counts == {1: 2, 2: 1}


class TestExtractQuel:
    def test_equivalent_to_native(self, db):
        native = extract_pairs_native(
            (row[0], row[1]) for row in db.relation("R"))
        quel = extract_pairs_quel(db, "R", "X", "Y")
        assert quel.occurring_x == native.occurring_x
        assert quel.mapping == native.mapping
        assert quel.removed == native.removed
        assert quel.counts == native.counts
        assert quel.source_size == native.source_size

    def test_temp_relations_dropped(self, db):
        extract_pairs_quel(db, "R", "X", "Y")
        assert "_ILS_S" not in db
        assert "_ILS_T" not in db


class TestInduceFromPairs:
    def test_rules_built_and_pruned(self, db):
        extraction = extract_pairs_native(
            (row[0], row[1]) for row in db.relation("R"))
        x_ref = AttributeRef("R", "X")
        y_ref = AttributeRef("R", "Y")
        all_rules = induce_from_pairs(
            extraction, x_ref, y_ref, InductionConfig(n_c=1))
        assert {rule.rhs.interval.low for rule in all_rules} == {"a", "b"}
        pruned = induce_from_pairs(
            extraction, x_ref, y_ref, InductionConfig(n_c=2))
        assert all(rule.support >= 2 for rule in pruned)

    def test_point_rule_reduces_to_equality(self):
        extraction = extract_pairs_native([(1, "a"), (1, "a")])
        (rule,) = induce_from_pairs(
            extraction, AttributeRef("R", "X"), AttributeRef("R", "Y"),
            InductionConfig(n_c=1))
        assert rule.lhs[0].is_equality()
        assert rule.support == 2

    def test_fractional_threshold(self):
        extraction = extract_pairs_native(
            [(i, "a") for i in range(10)] + [(20, "b")])
        rules = induce_from_pairs(
            extraction, AttributeRef("R", "X"), AttributeRef("R", "Y"),
            InductionConfig(n_c=0.5, n_c_fraction=True))
        assert len(rules) == 1
        assert rules[0].rhs.interval.low == "a"

    def test_pairs_support_metric(self):
        extraction = extract_pairs_native(
            [(1, "a"), (1, "a"), (1, "a")])
        rules = induce_from_pairs(
            extraction, AttributeRef("R", "X"), AttributeRef("R", "Y"),
            InductionConfig(n_c=2, support_metric="pairs"))
        assert rules == []  # 1 distinct pair < 2


class TestInduceScheme:
    def test_native_path(self, db):
        rules = induce_scheme(db.relation("R"), "X", "Y",
                              InductionConfig(n_c=2))
        assert all(rule.rhs.attribute == AttributeRef("R", "Y")
                   for rule in rules)

    def test_quel_path_matches_native(self, db):
        native = induce_scheme(db.relation("R"), "X", "Y",
                               InductionConfig(n_c=1))
        quel = induce_scheme(db.relation("R"), "X", "Y",
                             InductionConfig(n_c=1, use_quel=True),
                             database=db)
        assert [(r.lhs, r.rhs, r.support) for r in native] == [
            (r.lhs, r.rhs, r.support) for r in quel]

    def test_quel_path_requires_database(self, db):
        with pytest.raises(InductionError, match="database"):
            induce_scheme(db.relation("R"), "X", "Y",
                          InductionConfig(use_quel=True))

    def test_soundness_invariant(self, db):
        """Every induced rule must hold on its own training data."""
        relation = db.relation("R")
        rules = induce_scheme(relation, "X", "Y", InductionConfig(n_c=1))
        records = []
        for row in relation:
            records.append({
                AttributeRef("R", "X"): relation.value(row, "X"),
                AttributeRef("R", "Y"): relation.value(row, "Y")})
        for rule in rules:
            assert rule.sound_on(records), rule.render()


#: Kernel backends to cross-check: numpy (when importable) and the
#: pure-Python arrays.
BACKENDS = [True, False] if columnar.HAS_NUMPY else [False]

#: Per-type value pools.  Integers span past 2^63 (int64 offsets from
#: the minimum wrap there) and, in the ``huge`` pool, past int64 itself.
VALUE_POOLS = {
    "integer": (INTEGER, st.one_of(
        st.integers(-3, 3),
        st.sampled_from([-2 ** 63, -2 ** 63 + 1, -2 ** 63 + 2, 2 ** 62,
                         2 ** 62 + 1, 2 ** 63 - 1]))),
    "huge": (INTEGER, st.sampled_from([-1, 0, 2 ** 64, 2 ** 64 + 1])),
    "real": (REAL, st.sampled_from([-1.5, 0.0, 0.25, 2.0, 1e300])),
    "char": (char(8), st.sampled_from(["a", "b", "cc", "ddd"])),
}


def _pair_relation(x_type, y_type, rows) -> Relation:
    return Relation(RelationSchema("R", [Column("X", x_type),
                                         Column("Y", y_type)]), rows)


def _assert_columnar_matches_native(relation):
    """Field for field against the native pass, and rule for rule
    through :func:`induce_scheme` at ``n_c=1``, on every backend."""
    native = extract_pairs_native((row[0], row[1]) for row in relation)
    config = InductionConfig(n_c=1)
    expected_rules = induce_from_pairs(
        native, AttributeRef("R", "X"), AttributeRef("R", "Y"), config,
        relation_size=len(relation))
    for use_numpy in BACKENDS:
        columnar.set_numpy_enabled(use_numpy)
        try:
            extraction = extract_pairs_columnar(relation.column_store(),
                                                "X", "Y")
            rules = induce_scheme(relation, "X", "Y", config)
        finally:
            columnar.set_numpy_enabled(True)
        for field in PairExtraction._fields:
            assert getattr(extraction, field) == getattr(native, field), (
                field, use_numpy)
        assert [(r.lhs, r.rhs, r.support) for r in rules] == [
            (r.lhs, r.rhs, r.support) for r in expected_rules], use_numpy


@st.composite
def pair_relations(draw):
    """A two-column relation; each column draws its type and whether
    it holds NULLs (a NULL-free numeric column gets a numpy array)."""
    columns = []
    for _ in range(2):
        datatype, values = VALUE_POOLS[draw(st.sampled_from(sorted(
            VALUE_POOLS)))]
        if draw(st.booleans()):
            values = st.none() | values
        columns.append((datatype, values))
    (x_type, x_values), (y_type, y_values) = columns
    rows = draw(st.lists(st.tuples(x_values, y_values), max_size=30))
    return _pair_relation(x_type, y_type, rows)


class TestExtractColumnar:
    """The column-store sweep is the ILS's path for schemes within one
    relation; it must equal the native pass exactly."""

    @settings(max_examples=150, deadline=None)
    @given(pair_relations())
    def test_matches_native_field_for_field(self, relation):
        _assert_columnar_matches_native(relation)

    @pytest.mark.parametrize("rows, x_type, y_type", [
        ([(-2 ** 63 + 1, "a"), (-2 ** 63 + 2, "a"), (2 ** 62, "b"),
          (2 ** 62 + 1, "b")], INTEGER, char(4)),
        ([("a", -2 ** 63 + 1), ("b", 2 ** 62)], char(4), INTEGER),
    ], ids=["wide_x", "wide_y"])
    def test_integer_span_past_int64_offsets(self, rows, x_type, y_type):
        relation = _pair_relation(x_type, y_type, rows)
        _assert_columnar_matches_native(relation)
        assert len(induce_scheme(relation, "X", "Y",
                                 InductionConfig(n_c=1))) == 2

    @pytest.mark.parametrize("seed", [0, 1])
    def test_high_cardinality_char(self, seed):
        """Past :data:`DICT_MAX_CARDINALITY` distinct strings a CHAR
        column is stored plain, with no integer surrogate."""
        rng = random.Random(seed)
        keys = [f"k{i:05d}" for i in range(DICT_MAX_CARDINALITY + 200)]
        rows = [(key, rng.choice(["p", "q", None])) for key in keys]
        rows += [(rng.choice(keys), rng.choice(["p", "q"]))
                 for _ in range(500)]
        rows += [(None, "p"), (rng.choice(keys), None)]
        relation = _pair_relation(char(8), char(4), rows)
        assert isinstance(relation.column_store().column("X"), PlainColumn)
        _assert_columnar_matches_native(relation)
        # And with the wide column as the classification target.
        flipped = _pair_relation(char(4), char(8),
                                 [(y, x) for x, y in rows])
        _assert_columnar_matches_native(flipped)


class TestConfig:
    def test_bad_support_metric(self):
        with pytest.raises(InductionError):
            InductionConfig(support_metric="bogus")

    def test_bad_fraction(self):
        with pytest.raises(InductionError):
            InductionConfig(n_c=3, n_c_fraction=True)

    def test_negative_nc(self):
        with pytest.raises(InductionError):
            InductionConfig(n_c=-1)

    def test_threshold_for(self):
        assert InductionConfig(n_c=3).threshold_for(100) == 3
        assert InductionConfig(
            n_c=0.1, n_c_fraction=True).threshold_for(50) == 5

    def test_with_n_c(self):
        config = InductionConfig(n_c=3).with_n_c(0.2, fraction=True)
        assert config.n_c == 0.2 and config.n_c_fraction
