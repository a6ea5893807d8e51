"""E19 (extension) -- cost-based planner vs naive evaluation.

Selective queries over a large synthetic relation are where the planner
earns its keep: a sorted-index range scan touches only the matching
band of rows, while the naive side -- the reference evaluator
(:mod:`repro.sql.reference`), a nested-loop interpreter -- scans and
filters everything.  The speedup target is >= 2x on the selective range
query (in practice it is far higher once the index cache is warm);
equivalence of the two answers is asserted on every measured query.

The planner side is timed as ``plan_select(...).execute()``: planning
plus execution, never a query-cache hit.  Also covers planning overhead
on an indexed point lookup (planning must not swamp a sub-millisecond
probe) and the semantic short-circuit, which answers a contradictory
query without touching any row.
"""

import time

import pytest

from repro.plan.planner import plan_select
from repro.plan.stats import statistics
from repro.reporting import render_table
from repro.sql.parser import parse_select
from repro.sql.reference import execute_select_reference
from repro.testbed.generators import synthetic_classified_database

from conftest import record_report

#: ITEM(Id, Value, Label) with Value uniform in [0, 2000).
N_ROWS = 20_000
N_CLASSES = 20

#: Selective range: ~2.5% of the value domain.
RANGE_SQL = ("SELECT Id, Label FROM ITEM "
             "WHERE Value >= 1000 AND Value < 1050")
POINT_SQL = "SELECT Label FROM ITEM WHERE Value = 1024"

_RESULTS: dict[str, tuple[float, float]] = {}


@pytest.fixture(scope="module")
def synth_db():
    database = synthetic_classified_database(
        n_rows=N_ROWS, n_classes=N_CLASSES, seed=7)
    # Warm the caches the planner relies on, so the measurement compares
    # steady-state execution strategies rather than one-off builds.
    statistics(database).table_stats("ITEM")
    plan_select(database, parse_select(RANGE_SQL)).execute()
    plan_select(database, parse_select(POINT_SQL)).execute()
    return database


def _timed(fn, repeats=15):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _planned(database, statement, rules=None):
    """Plan and execute, bypassing the query cache."""
    return plan_select(database, statement, rules=rules).execute()


def _compare(database, sql, label, rules=None):
    statement = parse_select(sql)
    planned = _planned(database, statement, rules)
    reference = execute_select_reference(database, statement)
    assert planned == reference, f"{label}: planner result differs"
    planner_s = _timed(lambda: _planned(database, statement, rules))
    naive_s = _timed(
        lambda: execute_select_reference(database, statement))
    _RESULTS[label] = {"planner_s": planner_s, "naive_s": naive_s,
                       "speedup": naive_s / planner_s}
    return planner_s, naive_s, len(planned)


def test_selective_range_speedup(benchmark, synth_db):
    statement = parse_select(RANGE_SQL)
    result = benchmark(lambda: _planned(synth_db, statement))
    assert len(result) > 0

    planner_s, naive_s, n_rows = _compare(synth_db, RANGE_SQL, "range")
    _RESULTS["range"].update(guard=">= 2x",
                             guard_passed=naive_s / planner_s >= 2.0)
    assert 0 < n_rows < N_ROWS / 10, "query is meant to be selective"
    assert naive_s / planner_s >= 2.0, (
        f"expected >=2x speedup, got {naive_s / planner_s:.1f}x "
        f"({naive_s * 1000:.2f}ms naive vs {planner_s * 1000:.2f}ms)")


def test_point_lookup_overhead_is_bounded(benchmark, synth_db):
    """An equality probe through the hash index is already fast, so
    planning must not swamp it: plan + execute stays within 5x of
    executing the same plan built beforehand."""
    statement = parse_select(POINT_SQL)
    result = benchmark(lambda: _planned(synth_db, statement))
    assert len(result) >= 0

    planner_s, _naive_s, _n = _compare(synth_db, POINT_SQL, "point")
    prebuilt = plan_select(synth_db, statement)
    assert "IndexScan" in prebuilt.render()
    execute_s = _timed(prebuilt.execute)
    _RESULTS["point"].update(
        execute_s=execute_s, planning_overhead=planner_s / execute_s,
        guard="plan + execute <= 5x execute",
        guard_passed=planner_s <= execute_s * 5)
    assert planner_s <= execute_s * 5, (
        f"planning overhead too high: {planner_s * 1000:.3f}ms planned "
        f"vs {execute_s * 1000:.3f}ms executing the prebuilt plan")


def test_contradiction_short_circuit(benchmark, synth_db):
    """With the induced Value->Label rules, a query asking for a label
    outside its band is answered empty without scanning: faster than
    the reference evaluator's full scan by construction."""
    from repro.induction.pairwise import induce_scheme
    from repro.rules.ruleset import RuleSet
    rules = RuleSet(induce_scheme(synth_db.relation("ITEM"),
                                  "Value", "Label"))
    sql = ("SELECT Id FROM ITEM "
           "WHERE Value >= 110 AND Value <= 190 AND Label = 'L000'")
    statement = parse_select(sql)
    result = benchmark(lambda: _planned(synth_db, statement, rules))
    assert len(result) == 0

    _planner_s, _naive_s, n_rows = _compare(synth_db, sql, "contradiction",
                                            rules=rules)
    assert n_rows == 0

    rows = [[label, f"{entry['planner_s'] * 1000:.3f}",
             f"{entry['naive_s'] * 1000:.3f}", f"{entry['speedup']:.1f}x"]
            for label, entry in sorted(_RESULTS.items())]
    record_report(
        "E19", f"Planner vs reference evaluator (ITEM, {N_ROWS} rows)",
        render_table(["query", "planner ms", "naive ms", "speedup"],
                     rows),
        data=dict(sorted(_RESULTS.items())))
