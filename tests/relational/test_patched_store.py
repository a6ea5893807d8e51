"""Live DML patches a relation's column store and the sorted indexes on it.

INSERT, DELETE and UPDATE edit the store in place instead of dropping
it, so the next reader finds it current.  The contract is that patching
is invisible: after any sequence of mutations the patched store, its
decoded lists, numpy arrays and indexes equal a build from scratch over
``relation.rows``, statistics taken from it equal statistics taken from
a fresh copy, and a stream opened before a mutation serves the rows it
started with.
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.plan.planner import plan_select
from repro.plan.stats import TableStats
from repro.relational import columnar
from repro.relational.columnar import (
    ColumnStore, DictionaryColumn, NULL_CODE,
)
from repro.relational.database import Database
from repro.relational.datatypes import INTEGER, REAL, char
from repro.relational.indexes import SortedIndex
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema
from repro.sql.executor import execute_statement
from repro.sql.parser import parse_select
from repro.sql.reference import execute_select_reference
from repro.testbed import ship_database

SCHEMA = RelationSchema("P", [
    Column("Id", INTEGER), Column("Score", REAL), Column("Label", char(2)),
    Column("Code", char(6)),
])

#: The dictionary cap while the property runs: ``Code`` starts past it
#: (plain storage), ``Label`` starts below it and may outgrow it.
SMALL_CAP = 5

ids = st.one_of(st.integers(-3, 40), st.none(), st.just(2 ** 63))
scores = st.sampled_from([0.5, 1.0, 2.5, -0.0, 7.25, math.nan, None])
labels = st.sampled_from(["a", "b", "c", None])
new_labels = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", None])
codes = st.text(alphabet="xyz", min_size=1, max_size=6)
rows = st.tuples(ids, scores, new_labels, codes)
#: Rows matching ``Id % modulus == remainder`` (a NULL Id counts as 0),
#: so one statement can hit none, one, many or every row.
matching = st.tuples(st.integers(1, 4), st.integers(0, 3))
assignments = st.one_of(
    st.tuples(st.just(0), ids), st.tuples(st.just(1), scores),
    st.tuples(st.just(2), new_labels), st.tuples(st.just(3), codes))
operations = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.lists(rows, min_size=1, max_size=4)),
    st.tuples(st.just("delete"), matching),
    st.tuples(st.just("update"), matching, assignments),
    st.tuples(st.just("read"), st.integers(0, 3)),
), max_size=14)


def _matches(modulus, remainder):
    return lambda row: (row[0] or 0) % modulus == remainder


def _apply(relation, operation):
    kind = operation[0]
    if kind == "insert":
        relation.insert_many(operation[1])
    elif kind == "delete":
        relation.delete_where(_matches(*operation[1]))
    elif kind == "update":
        (at, value) = operation[2]
        relation.replace_where(
            _matches(*operation[1]),
            lambda row: row[:at] + (value,) + row[at + 1:])
    else:  # a read between mutations builds what the next one patches
        store = relation.column_store()
        at = operation[1]
        store.index(at)
        store.values(at)
        column = store.columns[at]
        if isinstance(column, DictionaryColumn):
            column.np_codes()
        else:
            column.array()


def _same_array(patched, fresh):
    if patched is None or fresh is None:
        assert patched is None and fresh is None
    else:
        np = columnar.numpy_module()
        assert patched.dtype == fresh.dtype
        assert np.array_equal(patched, fresh, equal_nan=True)


def assert_matches_scratch(relation):
    store = relation.column_store()
    scratch = ColumnStore(relation.schema, relation.rows)
    assert store.rows == relation.rows
    for at, (column, fresh) in enumerate(zip(store.columns,
                                             scratch.columns)):
        assert store.values(at) == scratch.values(at)
        if isinstance(column, DictionaryColumn):
            assert [None if code == NULL_CODE else column.values[code]
                    for code in column.codes] == scratch.values(at)
            if column.np_codes() is not None:
                assert column.np_codes().tolist() == list(column.codes)
        else:  # a CHAR column: plain here, maybe a dictionary there
            _same_array(column.array(),
                        None if isinstance(fresh, DictionaryColumn)
                        else fresh.array())
    for at, index in store.indexes.items():
        rebuilt = SortedIndex(scratch.values(at))
        assert index._keys == rebuilt._keys
        assert list(index._positions) == list(rebuilt._positions)


def _stats(relation):
    stats = TableStats(relation)
    return stats.row_count, {
        key: (column.non_null, column.nulls, column.distinct, column.min,
              column.max, column.histogram and (column.histogram.edges,
                                                column.histogram.counts))
        for key, column in stats.columns.items()}


@pytest.mark.parametrize("use_numpy", [True, False],
                         ids=["numpy", "pure-python"])
@settings(max_examples=60, deadline=None)
@given(initial=st.lists(st.tuples(ids, scores, labels), min_size=SMALL_CAP
                        + 1, max_size=40),
       script=operations)
def test_patched_store_equals_a_build_from_scratch(use_numpy, initial,
                                                   script):
    columnar.set_numpy_enabled(use_numpy)
    try:
        with mock.patch.object(columnar, "DICT_MAX_CARDINALITY",
                               SMALL_CAP), \
                mock.patch.object(columnar, "INDEX_PATCH_LIMIT", 3):
            relation = Relation(SCHEMA, [
                row + (f"k{position}",)
                for position, row in enumerate(initial)])
            store = relation.column_store()
            assert not isinstance(store.columns[3], DictionaryColumn)
            for at in range(4):
                _apply(relation, ("read", at))
            for operation in script:
                _apply(relation, operation)
                assert_matches_scratch(relation)
            assert _stats(relation) == _stats(relation.copy())
    finally:
        columnar.set_numpy_enabled(True)


def test_delete_and_update_patch_the_store_they_found():
    relation = Relation(SCHEMA, [(i, i / 2, "ab"[i % 2], f"k{i}")
                                 for i in range(10)])
    store = relation.column_store()
    index = store.index(0)
    relation.delete_where(lambda row: row[0] % 3 == 0)
    relation.replace_where(lambda row: row[0] == 4,
                           lambda row: (40,) + row[1:])
    assert relation.column_store() is store
    assert store.index(0) is index
    assert index.range(40, 40) == [2]  # rows 1, 2, 4, ...: 4 is third
    assert_matches_scratch(relation)


def test_orphaned_dictionary_values_leave_the_statistics():
    """An update can leave a value in the dictionary that no row holds;
    distinct, min and max count only the values rows hold."""
    relation = Relation(SCHEMA, [(1, 1.0, "a", "k"), (2, 2.0, "z", "k")])
    relation.column_store()
    relation.replace_where(lambda row: row[0] == 2,
                           lambda row: row[:2] + ("b",) + row[3:])
    column = relation.column_store().columns[2]
    assert column.cardinality == 3  # "a", "z", "b": "z" is orphaned
    stats = TableStats(relation).column("Label")
    assert (stats.distinct, stats.min, stats.max) == (2, "a", "b")


def test_an_index_whose_keys_stop_ordering_is_dropped():
    store = ColumnStore(RelationSchema("T", [Column("V", INTEGER)]),
                        [(1,), (2,)])
    store.index(0)
    store.append_rows([("x",)])  # unvalidated: an int column gets a str
    assert 0 not in store.indexes


# -- where the sorted indexes live -------------------------------------------


@pytest.fixture
def observed():
    obs.reset()
    obs.enable()
    yield obs.metrics()
    obs.disable()
    obs.reset()


def _pair_relation(name="T"):
    return Relation(RelationSchema(name, [Column("K", char(4)),
                                          Column("V", INTEGER)]),
                    [("a", 1), ("b", 2), ("a", 3)])


def _requests(metrics, result):
    return metrics.value("index_cache_requests_total", result=result)


def test_index_reused_while_unchanged(observed):
    store = _pair_relation().column_store()
    first = store.index(0)
    assert store.index(0) is first
    assert (_requests(observed, "miss"), _requests(observed, "hit")) == (1, 1)


def test_one_index_per_column(observed):
    store = _pair_relation().column_store()
    key, value = store.index(0), store.index(1)
    assert key is not value and set(store.indexes) == {0, 1}
    assert store.index(0) is key and store.index(1) is value
    assert _requests(observed, "miss") == 2


def test_insert_patches_the_index(observed):
    relation = _pair_relation()
    index = relation.column_store().index(0)
    assert index.range("c", "c") == []
    relation.insert(("c", 4))
    assert relation.column_store().index(0) is index
    assert index.range("c", "c") == [3]
    assert _requests(observed, "miss") == 1


def test_reregistered_relation_gets_its_own_index(observed):
    """A relation registered anew under a dropped one's name has its own
    store, so an index scan over it probes an index of its rows."""
    database = Database()
    schema = RelationSchema("T", [Column("K", INTEGER)])
    database.create_relation(schema, [(k,) for k in range(40)])
    statement = parse_select("SELECT * FROM T WHERE T.K = 7")
    assert "IndexScan" in plan_select(database, statement).render()
    assert plan_select(database, statement).execute().rows == [(7,)]
    database.drop("T")
    database.create_relation(schema, [(k % 8,) for k in range(40)])
    assert plan_select(database, statement).execute().rows == [(7,)] * 5
    assert _requests(observed, "miss") == 2


# -- streams opened before a mutation ----------------------------------------


INDEX_SQL = "SELECT * FROM SUBMARINE WHERE SUBMARINE.Class = '0103'"
FILTER_SQL = "SELECT * FROM SUBMARINE WHERE SUBMARINE.Name <> 'Nobody'"


@pytest.mark.parametrize("sql", [INDEX_SQL, FILTER_SQL],
                         ids=["index-scan", "filtered-scan"])
@pytest.mark.parametrize("dml", [
    # Typhoon (position 0) and two 0103 boats: later positions shift.
    "DELETE FROM SUBMARINE WHERE SUBMARINE.Id < 'SSBN630'",
    "UPDATE SUBMARINE SET Name = 'Renamed' "
    "WHERE SUBMARINE.Id < 'SSBN630'",
], ids=["delete", "update"])
def test_stream_opened_before_dml_serves_its_snapshot(sql, dml):
    """A chain stream resolves its store rows and positions before the
    first batch; a DELETE or UPDATE after it replaces the store's row
    list rather than editing it, so the stream serves its start
    snapshot to the end.  The next execution sees the change."""
    database = ship_database()
    statement = parse_select(sql)
    before = execute_select_reference(database, statement)
    planned = plan_select(database, statement)
    assert ("IndexScan" in planned.render()) == (sql == INDEX_SQL)

    stream = planned.root.child.batches(1)
    first = next(stream)
    execute_statement(database, dml)
    streamed = [rows[0] for batch in [first, *stream] for rows in batch]

    assert len(before) >= 3
    assert streamed == list(before.rows)
    after = execute_select_reference(database, statement)
    assert list(after.rows) != list(before.rows)
    assert plan_select(database, statement).execute().rows == after.rows
