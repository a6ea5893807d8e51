"""Serial execution over a table of several batches.

The fused columnar path, the vectorized projection and the dictionary-
code COUNT/GROUP BY are performance paths, never semantic ones: over a
synthetic table spanning several default-size batches they must return
exactly the reference evaluator's rows, in its order wherever one table
is scanned (numpy on and off, one-row batches).  Also covers snapshot
semantics under mid-stream mutation, early termination, EXPLAIN ANALYZE
actuals of the vectorized paths, and statement deadlines in the
streaming and vectorized paths.
"""

import time

import pytest

from repro.errors import StatementTimeout
from repro.plan import plans, vectorized
from repro.plan.explain import explain_select
from repro.plan.planner import plan_select
from repro.plan.plans import DEFAULT_BATCH_SIZE, statement_deadline_scope
from repro.relational import columnar
from repro.relational.database import Database
from repro.relational.datatypes import INTEGER, char
from repro.sql.reference import execute_select_reference
from repro.sql.parser import parse_select

#: Several default-size batches plus a partial one.
BIG_ROWS = 4 * DEFAULT_BATCH_SIZE + 7

CATS = ["alpha", "beta", "gamma", "delta", "epsilon"]


def build_database(rows: int = BIG_ROWS) -> Database:
    """A deterministic big/dim pair.  ``BIG.V`` is non-uniform so
    ``!=`` predicates (never indexable) keep the scan on the
    TableScan+Filter chain that the fused and vectorized paths run."""
    db = Database("large-table-bed")
    big = []
    for i in range(rows):
        big.append((i,
                    (i * 7919) % 1000,
                    CATS[i % len(CATS)],
                    None if i % 13 == 0 else CATS[(i // 7) % 3],
                    None if i % 11 == 0 else i % 50,
                    i % 20))
    db.create("BIG", [("Id", INTEGER), ("V", INTEGER),
                      ("Cat", char(8)), ("Mark", char(8)),
                      ("Nul", INTEGER), ("K", INTEGER)], big)
    db.create("DIM", [("K", INTEGER), ("Name", char(8))],
              [(k, f"dim-{k}") for k in range(15)])
    return db


@pytest.fixture(scope="module")
def big_db():
    return build_database()


def run_query(db, sql, *, batch_size=None):
    return plan_select(db, parse_select(sql)).execute(
        batch_size=batch_size)


SCAN_SQL = "SELECT BIG.Id, BIG.V FROM BIG WHERE BIG.V != 500"

#: A range on BIG.V selective enough for the planner to take the index.
INDEX_RANGE = "BIG.V >= 100 AND BIG.V <= 300"

#: Named so parametrized test ids stay short.
QUERIES = {
    "scan": SCAN_SQL,
    "two_filters":
        "SELECT BIG.Cat FROM BIG WHERE BIG.V != 500 AND BIG.Nul >= 25",
    "distinct": "SELECT DISTINCT BIG.Cat FROM BIG WHERE BIG.V != 3",
    "order_by": "SELECT BIG.V FROM BIG WHERE BIG.V != 500 ORDER BY BIG.V",
    "filtered_join": "SELECT BIG.Id, DIM.Name FROM BIG, DIM "
                     "WHERE BIG.K = DIM.K AND BIG.V != 500",
    "count_star": "SELECT COUNT(*) FROM BIG WHERE BIG.V != 500",
    "count_column": "SELECT COUNT(BIG.Nul) FROM BIG WHERE BIG.V != 500",
    "group_by": "SELECT BIG.Cat, COUNT(*) FROM BIG WHERE BIG.V != 500 "
                "GROUP BY BIG.Cat",
    "group_by_nulls": "SELECT BIG.Mark, COUNT(BIG.Nul) FROM BIG "
                      "WHERE BIG.V != 3 GROUP BY BIG.Mark",
    # The filter drops the first rows, so groups first appear in an
    # order other than their dictionary codes'.
    "group_by_late": "SELECT BIG.Cat, COUNT(*) FROM BIG WHERE BIG.Id > 2 "
                     "GROUP BY BIG.Cat",
    "join": "SELECT BIG.Id, DIM.Name FROM BIG, DIM WHERE BIG.K = DIM.K",
    # Index chains.  BIG.V's value order is not its table order, so an
    # index range that returned value order would show here.
    "index_point": "SELECT BIG.Id, BIG.Cat FROM BIG WHERE BIG.V = 17",
    "index_range": f"SELECT BIG.Id, BIG.V FROM BIG WHERE {INDEX_RANGE}",
    "index_filter": f"SELECT BIG.Id, BIG.Mark FROM BIG WHERE {INDEX_RANGE} "
                    f"AND BIG.Cat != 'beta'",
    "index_count": f"SELECT COUNT(BIG.Nul) FROM BIG WHERE {INDEX_RANGE} "
                   f"AND BIG.Cat != 'beta'",
    "index_group_by": f"SELECT BIG.Mark, COUNT(*) FROM BIG "
                      f"WHERE {INDEX_RANGE} AND BIG.Cat != 'beta' "
                      f"GROUP BY BIG.Mark",
}


def queries(*names):
    """Parametrize ``sql`` over the named queries (all when none are
    named), with the names as test ids."""
    names = names or tuple(QUERIES)
    return pytest.mark.parametrize(
        "sql", [QUERIES[name] for name in names], ids=names)


class TestEquivalence:
    @queries()
    def test_rows_identical_to_row_path(self, big_db, sql):
        """The reference's bag of rows, and its exact order wherever the
        plan scans one table (both then read it in table order)."""
        statement = parse_select(sql)
        planned = plan_select(big_db, statement)
        fused = planned.execute()
        reference = execute_select_reference(big_db, statement)
        assert fused == reference, sql
        if plans._chain_scan(planned.root.child) is not None:
            assert list(fused.rows) == list(reference.rows), sql
        assert fused.schema.column_names() == \
            reference.schema.column_names()

    @queries("scan", "join", "group_by")
    def test_batch_size_one_matches_default(self, big_db, sql):
        assert list(run_query(big_db, sql, batch_size=1).rows) == \
            list(run_query(big_db, sql).rows), sql

    @pytest.mark.skipif(not columnar.HAS_NUMPY,
                        reason="numpy not installed")
    @queries("scan", "count_star", "group_by", "group_by_nulls",
             "group_by_late")
    def test_pure_python_kernels_match_numpy(self, big_db, sql):
        with_numpy = run_query(big_db, sql)
        columnar.set_numpy_enabled(False)
        try:
            pure = run_query(big_db, sql)
        finally:
            columnar.set_numpy_enabled(True)
        assert list(pure.rows) == list(with_numpy.rows), sql

    def test_matches_legacy_executor(self, big_db):
        for sql in QUERIES.values():
            statement = parse_select(sql)
            planned = plan_select(big_db, statement).execute()
            assert planned == execute_select_reference(big_db, statement), \
                sql


def shape(plan) -> str:
    """``Filter(IndexScan)``-style rendering of a plan tree's nodes."""
    name = type(plan).__name__.removesuffix("Plan")
    children = plan.children()
    if not children:
        return name
    return f"{name}({','.join(shape(child) for child in children)})"


#: One single-table SELECT per access path, with the plan it takes.
ACCESS_PATHS = {
    "index_point": ("SELECT * FROM BIG WHERE BIG.V = 17", "IndexScan"),
    "index_range": (f"SELECT * FROM BIG WHERE {INDEX_RANGE}", "IndexScan"),
    "filter_index": (f"SELECT * FROM BIG WHERE {INDEX_RANGE} "
                     f"AND BIG.Cat != 'beta'", "Filter(IndexScan)"),
    "filter_scan": ("SELECT * FROM BIG WHERE BIG.V != 500",
                    "Filter(TableScan)"),
    "table_scan": ("SELECT * FROM BIG", "TableScan"),
}


@pytest.mark.parametrize("use_numpy", [True, False],
                         ids=["numpy", "pure"])
@pytest.mark.parametrize("batch_size", [1, 7, None],
                         ids=["batch1", "batch7", "default"])
@pytest.mark.parametrize("path", ACCESS_PATHS)
def test_access_paths_keep_table_order(big_db, path, batch_size,
                                       use_numpy):
    """Without ORDER BY, every single-table access path returns the
    reference's exact row sequence (table order), through the column
    gather and through the streamed batches alike."""
    sql, expected_shape = ACCESS_PATHS[path]
    statement = parse_select(sql)
    reference = list(execute_select_reference(big_db, statement).rows)
    columnar.set_numpy_enabled(use_numpy)
    try:
        planned = plan_select(big_db, statement)
        assert shape(planned.root.child) == expected_shape
        gathered = planned.execute(batch_size=batch_size)
        streamed = [rows[0] for batch in
                    planned.root.child.batches(batch_size)
                    for rows in batch]
    finally:
        columnar.set_numpy_enabled(True)
    assert list(gathered.rows) == reference
    assert streamed == reference


#: ``(sql, plan)`` of the two index-chain join shapes.
INDEX_JOINS = [
    ("SELECT BIG.Id, DIM.Name FROM BIG, DIM WHERE BIG.K = DIM.K "
     "AND BIG.V >= 17 AND BIG.V <= 18 AND BIG.Cat != 'beta' "
     "AND DIM.Name != 'dim-3'",
     "HashJoin(Filter(IndexScan),Filter(TableScan))"),
    (f"SELECT BIG.Id, DIM.Name FROM BIG, DIM WHERE BIG.K = DIM.K "
     f"AND {INDEX_RANGE}",
     "HashJoin(TableScan,IndexScan)"),
]


@pytest.mark.parametrize("use_numpy", [True, False],
                         ids=["numpy", "pure"])
@pytest.mark.parametrize("sql,expected_shape", INDEX_JOINS,
                         ids=[plan for _sql, plan in INDEX_JOINS])
def test_index_chain_joins_match_reference(big_db, sql, expected_shape,
                                           use_numpy):
    statement = parse_select(sql)
    columnar.set_numpy_enabled(use_numpy)
    try:
        planned = plan_select(big_db, statement)
        assert shape(planned.root.child) == expected_shape
        result = planned.execute()
    finally:
        columnar.set_numpy_enabled(True)
    reference = execute_select_reference(big_db, statement)
    assert len(reference) > 0
    assert result == reference


class TestStreamingSemantics:
    def test_early_termination_then_reuse(self, big_db):
        planned = plan_select(big_db, parse_select(SCAN_SQL))
        stream = planned.root.child.batches(64)
        first = next(stream)
        assert 0 < len(first) <= 64
        stream.close()
        again = run_query(big_db, SCAN_SQL)
        assert len(again) > 0

    def test_mutation_mid_stream_is_invisible(self):
        db = build_database()
        serial_rows = list(run_query(db, SCAN_SQL).rows)

        planned = plan_select(db, parse_select(SCAN_SQL))
        stream = planned.root.child.batches(64)
        drained = list(next(stream))
        db.insert("BIG", [(BIG_ROWS + i, 1, "alpha", None, None, 0)
                          for i in range(100)])
        for batch in stream:
            drained.extend(batch)
        assert len(drained) == len(serial_rows)

    def test_explain_analyze_reports_vectorized_actuals(self, big_db):
        """The vectorized paths skip the batch streams, so they set the
        chain's actuals themselves: the scan reads every row, the
        filter reports the survivors."""
        survivors = len(run_query(big_db, SCAN_SQL))
        rendered = explain_select(big_db, parse_select(SCAN_SQL),
                                  analyze=True)
        scan = next(line for line in rendered.splitlines()
                    if "TableScan BIG" in line)
        assert f"actual {BIG_ROWS}, time " in scan
        filtered = next(line for line in rendered.splitlines()
                        if line.lstrip().startswith("Filter"))
        assert f"actual {survivors}, time " in filtered
        assert "worker" not in rendered

    @queries("scan", "count_star", "count_column", "group_by",
             "group_by_nulls")
    def test_explain_analyze_filter_counts_rows_passing_where(
            self, big_db, sql):
        """Whichever vectorized path runs above it, the Filter reports
        the rows that pass the WHERE (not the aggregate's output rows)
        and a time."""
        where = sql.split(" WHERE ", 1)[1].split(" GROUP BY ")[0]
        passing = execute_select_reference(big_db, parse_select(
            f"SELECT COUNT(*) FROM BIG WHERE {where}")).rows[0][0]
        rendered = explain_select(big_db, parse_select(sql),
                                  analyze=True)
        filtered = next(line for line in rendered.splitlines()
                        if line.lstrip().startswith("Filter"))
        assert f"actual {passing}, time " in filtered, rendered


    @queries("index_range", "index_filter", "index_count",
             "index_group_by")
    def test_explain_analyze_index_chain_actuals(self, big_db, sql):
        """On the gather path the IndexScan reports the rows in its
        range and a Filter over it the rows passing the rest of the
        WHERE, each with a time."""
        def count(where):
            return execute_select_reference(big_db, parse_select(
                f"SELECT COUNT(*) FROM BIG WHERE {where}")).rows[0][0]

        where = sql.split(" WHERE ", 1)[1].split(" GROUP BY ")[0]
        rendered = explain_select(big_db, parse_select(sql),
                                  analyze=True)
        lines = [line.lstrip() for line in rendered.splitlines()]
        scan = next(line for line in lines
                    if line.startswith("IndexScan BIG"))
        assert f"actual {count(INDEX_RANGE)}, time " in scan, rendered
        filtered = [line for line in lines if line.startswith("Filter")]
        if where != INDEX_RANGE:
            assert f"actual {count(where)}, time " in filtered[0], rendered


class TestStatementDeadline:
    """An expired statement deadline raises :class:`StatementTimeout`
    in process, on every serial execution path, with no batch observer
    installed (an observer turns the vectorized paths off)."""

    def test_streaming_scan_stops_at_a_batch_boundary(self, big_db):
        assert plans._batch_observer is None
        planned = plan_select(big_db, parse_select(SCAN_SQL))
        with statement_deadline_scope(0.000001):
            time.sleep(0.002)  # guarantee the deadline has passed
            with pytest.raises(StatementTimeout):
                for _batch in planned.root.child.batches(64):
                    pass
        assert len(run_query(big_db, SCAN_SQL)) > 0

    @queries("group_by", "scan")
    def test_vectorized_paths_raise(self, big_db, sql):
        assert plans._batch_observer is None
        planned = plan_select(big_db, parse_select(sql))
        # The statement takes the vectorized path when no deadline
        # interferes ...
        assert vectorized.fast_result(planned.root) is not None
        with statement_deadline_scope(0.000001):
            time.sleep(0.002)
            # ... and that path honours an expired one.
            with pytest.raises(StatementTimeout):
                planned.execute()
        assert len(planned.execute()) > 0
