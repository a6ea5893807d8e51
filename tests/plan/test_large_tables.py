"""Serial execution over a table of several batches.

The fused columnar path, the vectorized projection and the dictionary-
code COUNT/GROUP BY are performance paths, never semantic ones: over a
synthetic table spanning several default-size batches they must return
exactly the row path's rows in the row path's order (numpy on and off,
one-row batches, the legacy executor).  Also covers snapshot semantics
under mid-stream mutation, early termination, EXPLAIN ANALYZE actuals
of the vectorized path, and statement deadlines in the streaming and
vectorized paths.
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
from repro.sql.executor import execute_select_legacy
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


@pytest.fixture()
def columnar_on():
    """Force the columnar store on for the test, restoring the prior
    setting."""
    before = columnar.FORCED
    columnar.set_enabled(True)
    yield
    columnar.set_enabled(before)


def run_query(db, sql, *, batch_size=None):
    return plan_select(db, parse_select(sql)).execute(
        batch_size=batch_size)


SCAN_SQL = "SELECT BIG.Id, BIG.V FROM BIG WHERE BIG.V != 500"

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
        before = columnar.FORCED
        try:
            columnar.set_enabled(False)
            rowwise = run_query(big_db, sql)
            columnar.set_enabled(True)
            fused = run_query(big_db, sql)
        finally:
            columnar.set_enabled(before)
        assert list(fused.rows) == list(rowwise.rows), sql
        assert fused.schema.column_names() == \
            rowwise.schema.column_names()

    @queries("scan", "join", "group_by")
    def test_batch_size_one_matches_default(self, big_db, sql):
        assert list(run_query(big_db, sql, batch_size=1).rows) == \
            list(run_query(big_db, sql).rows), sql

    @pytest.mark.skipif(not columnar.HAS_NUMPY,
                        reason="numpy not installed")
    @queries("scan", "count_star", "group_by", "group_by_nulls",
             "group_by_late")
    def test_pure_python_kernels_match_numpy(self, big_db, sql,
                                             columnar_on):
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
            assert planned == execute_select_legacy(big_db, statement), \
                sql


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

    def test_explain_analyze_reports_vectorized_actuals(
            self, big_db, columnar_on):
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
        assert filtered.endswith(f"actual {survivors})")
        assert "worker" not in rendered


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
    def test_vectorized_paths_raise(self, big_db, sql, columnar_on):
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
