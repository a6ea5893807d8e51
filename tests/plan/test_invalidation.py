"""Regression: caches must not serve stale snapshots across mutations.

The scenario that motivates the version checks: a plan is *constructed*
(statistics snapshotted, access paths chosen), the underlying relation
then mutates, and only afterwards is the plan *executed*.  Index scans
resolve their index through the database's :class:`IndexCache` at
execution time, so the stale snapshot must be detected and rebuilt --
the result has to reflect the post-mutation rows, not the rows the
planner saw.  The observability counters double as the assertion that
the stale path (not a silent full rebuild of everything) was taken.
"""

import pytest

from repro import obs
from repro.plan.planner import plan_select
from repro.plan.stats import statistics
from repro.sql.executor import execute_statement
from repro.sql.parser import parse_select
from repro.sql.reference import execute_select_reference
from repro.testbed import ship_database

SQL = "SELECT * FROM SUBMARINE WHERE SUBMARINE.Class = '0101'"
INSERT = ("INSERT INTO SUBMARINE (Id, Name, Class) "
          "VALUES ('SSN999', 'Phantom', '0101')")


@pytest.fixture
def observed():
    """Observability on, with clean metrics, for the test's duration."""
    obs.reset()
    obs.enable()
    yield obs.metrics()
    obs.disable()
    obs.reset()


def test_index_scan_sees_rows_inserted_after_planning(observed):
    database = ship_database()
    statement = parse_select(SQL)

    # Warm the cache: first execution builds the sorted index (miss) ...
    warm = plan_select(database, statement)
    assert "IndexScan" in warm.render()
    before = warm.execute()
    assert observed.value("index_cache_requests_total",
                          result="miss") == 1

    # ... plan again, mutate BETWEEN planning and execution ...
    planned = plan_select(database, statement)
    execute_statement(database, INSERT)
    result = planned.execute()

    # ... and the execution must see the new row via a rebuilt index.
    assert len(result) == len(before) + 1
    assert any(row[0] == "SSN999" for row in result)
    assert result == execute_select_reference(database, statement)
    assert observed.value("index_cache_requests_total",
                          result="stale") == 1


def test_stream_started_before_mutation_serves_its_snapshot(observed):
    """A batch stream opened *before* a mutation serves its
    start-of-stream snapshot to the end; the mutation becomes visible
    (through the stale-index rebuild) to the next execution."""
    database = ship_database()
    planned = plan_select(database, parse_select(SQL))
    assert "IndexScan" in planned.render()

    scan = planned.root.child
    stream = scan.batches(1)
    first = next(stream)  # resolves the index: cache miss, snapshot taken
    execute_statement(database, INSERT)
    rows = list(first) + [group for batch in stream for group in batch]

    assert all(group[0][0] != "SSN999" for group in rows)
    assert observed.value("index_cache_requests_total",
                          result="miss") == 1

    result = plan_select(database, parse_select(SQL)).execute(batch_size=2)
    assert any(row[0] == "SSN999" for row in result)
    assert observed.value("index_cache_requests_total",
                          result="stale") == 1


def test_mutation_between_planning_and_streaming(observed):
    """The PR3 invariant under batch streaming: index resolution happens
    at stream start, so plan -> mutate -> stream still sees the
    post-mutation rows, at every batch size."""
    database = ship_database()
    statement = parse_select(SQL)
    baseline = len(plan_select(database, statement).execute())

    planned = plan_select(database, statement)
    execute_statement(database, INSERT)
    result = planned.execute(batch_size=1)

    assert len(result) == baseline + 1
    assert any(row[0] == "SSN999" for row in result)
    assert result == execute_select_reference(database, statement)
    assert observed.value("index_cache_requests_total",
                          result="stale") == 1


def test_statistics_snapshot_invalidated_by_mutation(observed):
    database = ship_database()
    catalog = statistics(database)

    stale = catalog.table_stats("SUBMARINE")
    assert catalog.table_stats("SUBMARINE") is stale  # cached
    assert observed.value("stats_cache_requests_total", result="hit") == 1

    execute_statement(database, INSERT)
    fresh = catalog.table_stats("SUBMARINE")
    assert fresh is not stale
    assert fresh.row_count == stale.row_count + 1
    assert observed.value("stats_cache_invalidations_total") == 1
    assert observed.value("stats_cache_requests_total",
                          result="recompute") == 2


def test_unrelated_mutation_revalidates_without_recompute(observed):
    database = ship_database()
    catalog = statistics(database)
    snapshot = catalog.table_stats("SUBMARINE")

    # Mutating SONAR bumps the catalog-wide version, but SUBMARINE's
    # snapshot is still valid and must be served after revalidation.
    execute_statement(
        database,
        "INSERT INTO SONAR (Sonar, SonarType) VALUES ('XX-1', 'XX')")
    assert catalog.table_stats("SUBMARINE") is snapshot
    assert observed.value("stats_cache_requests_total",
                          result="revalidated") == 1
    assert observed.value("stats_cache_invalidations_total") == 0


def test_recovery_replay_invalidates_caches_like_live_mutations(
        observed, tmp_path):
    """Mutations applied by WAL replay (crash recovery, warm standby
    catch-up) must invalidate the IndexCache and StatisticsCatalog
    exactly as live mutations do: replay goes through the relations'
    version/touch machinery, not around it."""
    from repro.storage import StorageEngine

    database = ship_database()
    engine = StorageEngine(database, str(tmp_path / "data"))
    engine.checkpoint()
    engine.wal.close()

    standby, _ = StorageEngine.recover(str(tmp_path / "data"))
    catalog = statistics(standby.database)
    stale = catalog.table_stats("SUBMARINE")
    statement = parse_select(SQL)
    planned = plan_select(standby.database, statement)
    assert "IndexScan" in planned.render()
    before = planned.execute()

    # A second engine (the "primary") commits new work to the same WAL.
    primary, _ = StorageEngine.recover(str(tmp_path / "data"))
    execute_statement(primary.database, INSERT)
    primary.wal.close()

    # Catch-up replay on the standby; both caches must notice.
    report = standby.replay_tail()
    assert report.replayed_records >= 1

    fresh = catalog.table_stats("SUBMARINE")
    assert fresh is not stale
    assert fresh.row_count == stale.row_count + 1
    assert observed.value("stats_cache_invalidations_total") >= 1

    replanned = plan_select(standby.database, statement)
    result = replanned.execute()
    assert len(result) == len(before) + 1
    assert any(row[0] == "SSN999" for row in result)
    assert observed.value("index_cache_requests_total",
                          result="stale") >= 1
    standby.wal.close()


RANGE_SQL = "SELECT * FROM CLASS WHERE CLASS.Displacement > 8000"


@pytest.mark.parametrize("dml", [
    "DELETE FROM CLASS WHERE Class = '0101'",
    # Moves Ohio and Typhoon out of the range, the two 7250-ton classes
    # into it.
    "UPDATE CLASS SET Displacement = 24000 - Displacement "
    "WHERE Type = 'SSBN'",
], ids=["delete", "update"])
def test_index_range_sees_delete_and_update_after_planning(observed, dml):
    """Unlike an insert, a DELETE or UPDATE drops the column store
    instead of appending to it.  An index range planned before either
    resolves its positions against the rebuilt store and index."""
    database = ship_database()
    statement = parse_select(RANGE_SQL)
    before = plan_select(database, statement).execute()  # store, index

    planned = plan_select(database, statement)
    assert "IndexScan" in planned.render()
    execute_statement(database, dml)
    result = planned.execute()
    streamed = [rows[0] for batch in planned.root.child.batches(1)
                for rows in batch]

    reference = execute_select_reference(database, statement)
    assert list(result.rows) == list(reference.rows) != list(before.rows)
    assert streamed == list(reference.rows)
    assert observed.value("index_cache_requests_total",
                          result="stale") == 1
