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

The access-path leg guards the planner's choice itself: the 2.5% range
runs both as an index scan and as a filtered table scan (the plan the
planner did not pick is built here by hand), with numpy and with the
pure-Python kernels, and on each backend the pick must run within
:data:`ACCESS_PATH_TOLERANCE` of the faster path.  A 25% range is
recorded the same way, unguarded.
"""

import statistics as stats_module
import time

import pytest

from repro.plan.planner import plan_select
from repro.plan.plans import (
    FilterPlan, IndexScanPlan, ProjectPlan, TableScanPlan,
)
from repro.plan.stats import statistics
from repro.relational import columnar
from repro.reporting import render_table
from repro.rules.clause import Interval
from repro.sql.executor import Scope
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

#: ``low <= Value < high`` of the access-path leg: the 2.5% range of
#: RANGE_SQL (guarded) and a 25% one (recorded only).
ACCESS_RANGES = {"narrow": (1000, 1050), "wide": (1000, 1500)}

#: The planner's pick must run within this factor of the faster path.
ACCESS_PATH_TOLERANCE = 1.25

#: Interleaved timed runs per path (medians need at least 15).
ACCESS_PATH_RUNS = 25

_RESULTS: dict[str, tuple[float, float]] = {}
_ACCESS: dict[str, dict] = {}


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
    """An equality probe (a one-value range of the sorted index) is
    already fast, so planning must not swamp it: plan + execute stays
    within 5x of executing the same plan built beforehand."""
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


def _access_paths(database, low, high):
    """The statement for ``low <= Value < high`` and its two access
    paths as prebuilt plans: ``{"index": ..., "scan": ...}``."""
    statement = parse_select(f"SELECT Id, Label FROM ITEM "
                             f"WHERE Value >= {low} AND Value < {high}")
    scope = Scope(database, statement.tables)
    (binding,) = scope.bindings
    stats = statistics(database).table_stats("ITEM")
    index = IndexScanPlan(scope, binding, "Value",
                          Interval(low, high, high_open=True), stats)
    scan = FilterPlan(TableScanPlan(scope, binding, stats),
                      [statement.where],
                      index.records_output() / stats.row_count)
    return statement, {name: ProjectPlan(scope, statement, child)
                       for name, child in (("index", index),
                                           ("scan", scan))}


def _time_paths(database, low, high) -> dict:
    """Median and quartiles of each path's execution over interleaved
    runs, and which path the planner picks."""
    statement, paths = _access_paths(database, low, high)
    reference = execute_select_reference(database, statement)
    for plan in paths.values():
        assert plan.execute_relation() == reference
    picked = plan_select(database, statement).root.child
    pick = "index" if isinstance(picked, IndexScanPlan) else "scan"
    times: dict[str, list[float]] = {name: [] for name in paths}
    for _ in range(ACCESS_PATH_RUNS):
        for name, plan in paths.items():
            start = time.perf_counter()
            plan.execute_relation()
            times[name].append(time.perf_counter() - start)
    entry: dict = {"pick": pick, "rows": len(reference)}
    for name, values in times.items():
        q1, median, q3 = stats_module.quantiles(values, n=4)
        entry[f"{name}_ms"] = median * 1000
        entry[f"{name}_iqr_ms"] = (q3 - q1) * 1000
    entry["pick_vs_fastest"] = entry[f"{pick}_ms"] / min(
        entry["index_ms"], entry["scan_ms"])
    return entry


def test_access_path_choice(synth_db):
    """On each backend the planner's pick for the 2.5% range runs
    within ACCESS_PATH_TOLERANCE of the faster path."""
    backends = ["numpy", "pure"] if columnar.HAS_NUMPY else ["pure"]
    failures = []
    try:
        for backend in backends:
            columnar.set_numpy_enabled(backend == "numpy")
            for label, (low, high) in ACCESS_RANGES.items():
                entry = _time_paths(synth_db, low, high)
                _ACCESS.setdefault(backend, {})[label] = entry
                if label != "narrow":
                    continue
                passed = entry["pick_vs_fastest"] <= ACCESS_PATH_TOLERANCE
                entry.update(guard=f"pick <= {ACCESS_PATH_TOLERANCE}x the "
                                   f"faster path", guard_passed=passed)
                if not passed:
                    failures.append(f"{backend}: {entry}")
    finally:
        columnar.set_numpy_enabled(True)
    assert not failures, failures


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
    text = render_table(["query", "planner ms", "naive ms", "speedup"],
                        rows)
    data = dict(sorted(_RESULTS.items()))
    if _ACCESS:
        access_rows = [
            [backend, f"{label} ({entry['rows']} rows)", entry["pick"],
             f"{entry['index_ms']:.3f}", f"{entry['index_iqr_ms']:.3f}",
             f"{entry['scan_ms']:.3f}", f"{entry['scan_iqr_ms']:.3f}",
             f"{entry['pick_vs_fastest']:.2f}x"]
            for backend, ranges in _ACCESS.items()
            for label, entry in ranges.items()]
        text += ("\n\nAccess paths (medians and interquartile ranges of "
                 f"{ACCESS_PATH_RUNS} interleaved runs, execution only)\n"
                 + render_table(["backend", "range", "pick", "index ms",
                                 "IQR", "scan ms", "IQR", "pick/fastest"],
                                access_rows))
        data["access_path"] = _ACCESS
    record_report(
        "E19", f"Planner vs reference evaluator (ITEM, {N_ROWS} rows)",
        text, data=data)
