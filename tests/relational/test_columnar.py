"""The columnar store: layout, dictionary encoding, kernels.

The columnar path is a pure storage/execution refactor -- every test
here pins some facet of "the rows are authoritative and the store is an
exact, version-validated cache over them": dictionary round-trips,
append-only code spaces under DML, kernel masks agreeing with per-row
predicate evaluation over encoded and raw layouts (across the ship and
hospital domains), and the batched row accessors beside the store.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExpressionError, SchemaError
from repro.relational import columnar, compiled, kernels
from repro.relational.columnar import (
    ColumnStore, DictionaryColumn, NULL_CODE, PlainColumn,
)
from repro.relational.datatypes import INTEGER, REAL, char
from repro.relational.expressions import (
    And, ColumnRef, Comparison, Environment, IsNull, Literal, Not, Or,
)
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema
from tests.domain_fixtures import EQUIVALENCE_FIXTURES

needs_numpy = pytest.mark.skipif(not columnar.HAS_NUMPY,
                                 reason="numpy not installed")


def _relation(rows, label_width=8):
    return Relation(RelationSchema("T", [
        Column("Id", INTEGER), Column("Score", REAL),
        Column("Label", char(label_width)),
    ]), rows)


def _mask_reference(relation, predicate):
    """Per-row interpreter evaluation -- the semantics kernels must hit."""
    out = []
    for row in relation.rows:
        env = Environment.for_row(relation.schema, row)
        out.append(bool(predicate.evaluate(env)))
    return out


def _as_list(mask, n):
    if mask is None:
        return [True] * n
    return [bool(value) for value in mask]


# -- store layout ------------------------------------------------------------


def test_store_column_variants():
    relation = _relation([(1, 1.5, "a"), (2, 2.5, "b"), (3, None, "a")])
    store = relation.column_store()
    assert isinstance(store.columns[0], PlainColumn)
    assert isinstance(store.columns[1], PlainColumn)
    assert isinstance(store.columns[2], DictionaryColumn)
    assert store.values(2) == ["a", "b", "a"]
    assert list(store.columns[2].codes) == [0, 1, 0]


def test_dictionary_bails_to_plain_past_cardinality_cap(monkeypatch):
    monkeypatch.setattr(columnar, "DICT_MAX_CARDINALITY", 2)
    relation = _relation([(i, float(i), f"v{i}") for i in range(5)])
    store = ColumnStore(relation.schema, relation.rows)
    assert isinstance(store.columns[2], PlainColumn)
    assert store.values(2) == [f"v{i}" for i in range(5)]


def test_store_is_version_validated_cache():
    relation = _relation([(1, 1.0, "a")])
    store = relation.column_store()
    assert relation.column_store() is store  # fresh: served as-is
    relation.insert((2, 2.0, "b"))
    assert relation.column_store() is store  # appends fold in place
    assert store.values(2) == ["a", "b"]
    assert len(store.rows) == 2
    relation.delete_where(lambda row: row[0] == 1)
    rebuilt = relation.column_store()
    assert rebuilt is not store  # deletes drop the snapshot
    assert rebuilt.values(2) == ["b"]


def test_store_unknown_column_names_the_attribute():
    store = _relation([(1, 1.0, "a")]).column_store()
    with pytest.raises(SchemaError, match="Missing"):
        store.column("Missing")


# -- dictionary encoding -----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.none(), st.text(max_size=6)), max_size=60))
def test_dictionary_roundtrip(values):
    column = DictionaryColumn()
    for value in values:
        column.append(value)
    assert column.decode() == list(values)
    assert column.cardinality == len({v for v in values if v is not None})
    for code, value in zip(column.codes, values):
        if value is None:
            assert code == NULL_CODE
        else:
            assert column.values[code] == value
            assert column.code_for(value) == code


def test_code_space_only_grows_under_appends():
    relation = _relation([(1, 1.0, "a"), (2, 2.0, "b")])
    store = relation.column_store()
    column = store.columns[2]
    before = dict(zip(column.values, range(column.cardinality)))
    relation.insert_many([(3, 3.0, "b"), (4, 4.0, "c"), (5, 5.0, None)])
    assert relation.column_store() is store
    # Codes handed out earlier are immutable; new values extend the table.
    for value, code in before.items():
        assert column.code_for(value) == code
    assert column.code_for("c") == 2
    assert list(column.codes) == [0, 1, 1, 2, NULL_CODE]
    assert store.values(2) == ["a", "b", "b", "c", None]


def test_updates_rebuild_consistent_store():
    relation = _relation([(1, 1.0, "a"), (2, 2.0, "b")])
    relation.column_store()
    relation.replace_where(lambda row: row[0] == 1,
                           lambda row: (1, 9.0, "z"))
    store = relation.column_store()
    assert store.values(2) == ["z", "b"]
    assert store.values(1) == [9.0, 2.0]


# -- kernels vs per-row evaluation -------------------------------------------


PREDICATES = [
    Comparison(">", ColumnRef("Score"), Literal(2.0)),
    Comparison("=", ColumnRef("Label"), Literal("a")),
    Comparison("!=", ColumnRef("Label"), Literal("a")),
    Comparison("<", ColumnRef("Label"), Literal("b")),
    Comparison("=", ColumnRef("Label"), Literal("missing")),
    IsNull(ColumnRef("Score")),
    IsNull(ColumnRef("Label"), negated=True),
    And([Comparison(">=", ColumnRef("Id"), Literal(2)),
         Comparison("=", ColumnRef("Label"), Literal("b"))]),
    Or([Comparison("=", ColumnRef("Label"), Literal("a")),
        Not(Comparison("<", ColumnRef("Score"), Literal(3.0)))]),
]

ROWS = [(1, 1.5, "a"), (2, None, "b"), (3, 3.5, None), (4, 2.0, "b"),
        (5, 4.0, "a")]


@pytest.mark.parametrize("predicate", PREDICATES,
                         ids=[p.render() for p in PREDICATES])
def test_kernel_masks_match_row_evaluation(predicate):
    relation = _relation(ROWS)
    store = relation.column_store()
    mask = kernels.predicate_mask(store, [predicate])
    assert _as_list(mask, len(ROWS)) == _mask_reference(relation, predicate)


@pytest.mark.parametrize("predicate", PREDICATES,
                         ids=[p.render() for p in PREDICATES])
def test_kernel_masks_encoded_vs_raw_layout(predicate, monkeypatch):
    """The same predicate over a dictionary-encoded column and over the
    raw (plain) layout of the same data must produce the same mask."""
    relation = _relation(ROWS)
    encoded = ColumnStore(relation.schema, relation.rows)
    assert isinstance(encoded.columns[2], DictionaryColumn)
    monkeypatch.setattr(columnar, "DICT_MAX_CARDINALITY", 0)
    raw = ColumnStore(relation.schema, relation.rows)
    assert isinstance(raw.columns[2], PlainColumn)
    mask_encoded = kernels.predicate_mask(encoded, [predicate])
    mask_raw = kernels.predicate_mask(raw, [predicate])
    assert _as_list(mask_encoded, len(ROWS)) == _as_list(mask_raw,
                                                         len(ROWS))


def test_kernel_masks_match_rows_across_domains():
    """Every char-column equality/order predicate over the ship and
    hospital databases agrees with per-row evaluation, whatever layout
    (dictionary or plain) each column ended up in."""
    for fixture in EQUIVALENCE_FIXTURES:
        database = fixture.database
        for name in database.catalog.names():
            relation = database.relation(name)
            if not relation.rows:
                continue
            store = relation.column_store()
            for column in relation.schema.columns:
                observed = next(
                    (value
                     for value in relation.column_values(column.name)
                     if value is not None), None)
                if observed is None:
                    continue
                for op in ("=", "!=", "<", ">="):
                    predicate = Comparison(op, ColumnRef(column.name),
                                           Literal(observed))
                    try:
                        mask = kernels.predicate_mask(store, [predicate])
                    except kernels.UnsupportedKernel:
                        continue
                    assert _as_list(mask, len(relation.rows)) == \
                        _mask_reference(relation, predicate), (
                            f"{fixture.name}.{name}.{column.name} {op} "
                            f"{observed!r}")


def test_unsupported_kernel_and_resolution_errors():
    relation = _relation(ROWS)
    store = relation.column_store()
    with pytest.raises(kernels.UnsupportedKernel):
        # char vs integer literal: the row path would raise per-row.
        kernels.predicate_mask(
            store, [Comparison("<", ColumnRef("Label"), Literal(3))])
    with pytest.raises(ExpressionError, match="unknown column 'Nope'"):
        kernels.predicate_mask(
            store, [Comparison("=", ColumnRef("Nope"), Literal(1))])
    with pytest.raises(ExpressionError,
                       match="unknown range variable or relation"):
        kernels.predicate_mask(
            store,
            [Comparison("=", ColumnRef("Id", qualifier="x"), Literal(1))])


@needs_numpy
@pytest.mark.parametrize("predicate", PREDICATES,
                         ids=[p.render() for p in PREDICATES])
def test_pure_python_kernels_match_numpy(predicate):
    relation = _relation(ROWS)
    with_numpy = kernels.predicate_mask(relation.column_store(),
                                        [predicate])
    columnar.set_numpy_enabled(False)
    try:
        pure = kernels.predicate_mask(
            ColumnStore(relation.schema, relation.rows), [predicate])
    finally:
        columnar.set_numpy_enabled(True)
    assert _as_list(with_numpy, len(ROWS)) == _as_list(pure, len(ROWS))


def test_membership_and_notnull_masks():
    relation = _relation(ROWS)
    store = relation.column_store()
    label = relation.schema.position("Label")
    member = kernels.membership_mask(store, label, ["a", "zzz"])
    assert _as_list(member, len(ROWS)) == [
        value == "a" for _, _, value in ROWS]
    notnull = kernels.notnull_mask(store, label)
    assert _as_list(notnull, len(ROWS)) == [
        value is not None for _, _, value in ROWS]
    assert kernels.notnull_mask(
        store, relation.schema.position("Id")) is None  # provably no NULLs


# -- batched accessor edge cases (satellites) --------------------------------


def test_columns_empty_relation():
    relation = _relation([])
    assert list(relation.iter_batches(10)) == []
    store = relation.column_store()
    assert len(store) == 0
    assert kernels.predicate_mask(
        store, [Comparison("=", ColumnRef("Id"), Literal(1))]) is not None


@pytest.mark.parametrize("size", [0, -1])
def test_iter_batches_rejects_non_positive_sizes(size):
    relation = _relation(ROWS)
    with pytest.raises(ValueError, match="batch size must be positive"):
        next(relation.iter_batches(size))


def test_iter_batches_snapshots_at_iteration_start():
    relation = _relation(ROWS)
    stream = relation.iter_batches(2)
    first = next(stream)
    relation.insert((99, 9.9, "z"))
    remaining = [row for batch in stream for row in batch]
    assert first + remaining == ROWS  # pinned: mutation not observed
    fresh = [row for batch in relation.iter_batches(10) for row in batch]
    assert fresh[-1] == (99, 9.9, "z")  # the next stream sees it
