"""E25 (extension) -- do the engine's headline speedups transfer off
the ship test bed?

E19 (planner vs naive) and E23 (query cache) measured their guards on
purpose-built ITEM/ENTITY relations.  This bench re-measures the same
three effects on a *synthetic multi-domain instance* -- the hospital
domain from :mod:`repro.synth` at scale (18k patients), whose value
distributions, induced Severity->Triage interval rules and FK join
shape were never tuned for these optimizations:

* selective range scan: planner >= 2x over the full scan of the
  reference evaluator (:mod:`repro.sql.reference`);
* semantic contradiction short-circuit (induced rules): >= 2x;
* hot result-cache hit on the FK join: >= 10x over recompute.

The planner side of the first two is timed as
``plan_select(...).execute()``, never a query-cache hit.  Equivalence
with the reference evaluator is asserted on every measured query, so a
speedup can never come from a wrong answer.
"""

import time

import pytest

from repro.cache import query_cache
from repro.plan.planner import plan_select
from repro.plan.stats import statistics
from repro.reporting import render_table
from repro.sql.parser import parse_select
from repro.sql.reference import execute_select_reference
from repro.synth import build_instance

from conftest import record_report

SCALE = 150          #: 120 * SCALE = 18_000 PATIENT rows
SEED = 7

#: ~3% of the Severity domain: planner takes the sorted-index band.
RANGE_SQL = ("SELECT Id FROM PATIENT "
             "WHERE Severity >= 70 AND Severity <= 72")

#: Severity in [5, 25] lies inside the induced GREEN band, so an
#: induced rule contradicts Triage = 'RED' and the planner answers
#: empty without touching a row.
CONTRADICTION_SQL = ("SELECT Id FROM PATIENT "
                     "WHERE Severity >= 5 AND Severity <= 25 "
                     "AND Triage = 'RED'")

#: The FK join, expensive enough that a hot cache hit obviously pays.
JOIN_SQL = ("SELECT PATIENT.Id, WARD.WardName FROM PATIENT, WARD "
            "WHERE PATIENT.Ward = WARD.Ward AND PATIENT.Severity >= 50")

SPEEDUP_TARGET = 2.0
HOT_TARGET = 10.0

_RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module")
def hospital():
    instance = build_instance("hospital", seed=SEED, scale=SCALE)
    database = instance.database
    statistics(database).table_stats("PATIENT")
    statistics(database).table_stats("WARD")
    cache = query_cache(database)
    cache.floor_s = 0.0
    # Warm the planner's index/plan caches so the measurement compares
    # steady-state strategies, not one-off index builds.
    plan_select(database, parse_select(RANGE_SQL)).execute()
    return instance


def _interleaved(fn_a, fn_b, repeats=7):
    best_a = best_b = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def _guarded(label, fast_s, slow_s, target):
    speedup = slow_s / fast_s
    _RESULTS[label] = {
        "planner_s": fast_s, "naive_s": slow_s, "speedup": speedup,
        "guard": f">= {target:.0f}x", "guard_passed": speedup >= target}
    return speedup


def test_selective_range_speedup(benchmark, hospital):
    database = hospital.database
    statement = parse_select(RANGE_SQL)
    planned = plan_select(database, statement).execute()
    reference = execute_select_reference(database, statement)
    assert planned == reference
    assert 0 < len(planned) < len(database.relation("PATIENT")) / 10, (
        "query is meant to be selective")

    result = benchmark(lambda: plan_select(database, statement).execute())
    assert result == reference

    naive_s, planner_s = _interleaved(
        lambda: execute_select_reference(database, statement),
        lambda: plan_select(database, statement).execute())
    speedup = _guarded("selective range", planner_s, naive_s,
                       SPEEDUP_TARGET)
    assert speedup >= SPEEDUP_TARGET, (
        f"expected >={SPEEDUP_TARGET:.0f}x on hospital, got "
        f"{speedup:.1f}x ({naive_s * 1000:.2f}ms naive vs "
        f"{planner_s * 1000:.2f}ms)")


def test_semantic_contradiction_speedup(benchmark, hospital):
    database, rules = hospital.database, hospital.rules
    statement = parse_select(CONTRADICTION_SQL)

    planned_query = plan_select(database, statement, rules=rules)
    assert any("no PATIENT row can satisfy" in note
               for note in planned_query.notes), (
        "induced hospital rules failed to produce the contradiction "
        f"short-circuit; notes: {planned_query.notes}")
    planned = planned_query.execute()
    reference = execute_select_reference(database, statement)
    assert planned == reference and len(planned) == 0

    result = benchmark(
        lambda: plan_select(database, statement, rules=rules).execute())
    assert len(result) == 0

    naive_s, planner_s = _interleaved(
        lambda: execute_select_reference(database, statement),
        lambda: plan_select(database, statement, rules=rules).execute())
    speedup = _guarded("semantic contradiction", planner_s, naive_s,
                       SPEEDUP_TARGET)
    assert speedup >= SPEEDUP_TARGET, (
        f"short-circuit only {speedup:.1f}x over the naive scan "
        f"({naive_s * 1000:.2f}ms vs {planner_s * 1000:.2f}ms)")


def test_hot_cache_speedup(benchmark, hospital):
    database = hospital.database
    cache = query_cache(database)
    statement = parse_select(JOIN_SQL)
    cache.clear()
    warm = cache.execute_select(statement)
    assert warm == execute_select_reference(database, statement)
    assert len(warm) > 0

    result = benchmark(lambda: cache.execute_select(statement))
    assert result is warm

    uncached_s, hot_s = _interleaved(
        lambda: plan_select(database, statement).execute(),
        lambda: cache.execute_select(statement))
    speedup = uncached_s / hot_s
    _RESULTS["hot cache hit (join)"] = {
        "planner_s": hot_s, "naive_s": uncached_s, "speedup": speedup,
        "guard": f">= {HOT_TARGET:.0f}x",
        "guard_passed": speedup >= HOT_TARGET}
    assert speedup >= HOT_TARGET, (
        f"hot hit only {speedup:.1f}x over recompute on hospital "
        f"({uncached_s * 1000:.3f}ms vs {hot_s * 1000:.3f}ms)")


def test_report(hospital):
    rows = []
    for label, numbers in _RESULTS.items():
        verdict = "ok" if numbers["guard_passed"] else "FAIL"
        rows.append([label, f"{numbers['naive_s'] * 1000:.3f}",
                     f"{numbers['planner_s'] * 1000:.3f}",
                     f"{numbers['speedup']:.1f}x",
                     f"{numbers['guard']} {verdict}"])
    patients = len(hospital.database.relation("PATIENT"))
    record_report(
        "E25",
        f"Engine speedups on a non-ship domain (hospital, "
        f"{patients} patients, {len(hospital.rules)} induced rules)",
        render_table(
            ["effect", "naive ms", "optimized ms", "speedup", "guard"],
            rows),
        data=dict(_RESULTS, domain="hospital", seed=SEED, scale=SCALE,
                  rules=len(hospital.rules)))
