"""E27 -- columnar storage and vectorized predicate kernels vs the
streamed row pipeline.

Two claims, each measured by interleaved best-of-N (same discipline as
E22, which measures the row pipeline on its own):

* the selective scan+join of E22 runs at least
  :data:`SCAN_JOIN_TARGET` x faster on the columnar kernels than the
  same query spelled ``ENTITY.Size + 0 > 150``, which the kernels
  refuse, so its filter streams through compiled closures over row
  batches (and :data:`REFERENCE_TARGET` x faster than the reference
  evaluator, :mod:`repro.sql.reference`).  The row baseline also pays
  for the ``+ 0`` and for the kernel attempt that fails;
* ILS steps 1-2 over a 20k-row classified relation -- the distinct
  (X, Y) pair count sweep over the column store
  (:func:`~repro.induction.pairwise.extract_pairs_columnar`) against the
  per-row native pass (:func:`~repro.induction.pairwise.
  extract_pairs_native`), each followed by the same run construction
  -- gain at least :data:`ILS_TARGET` x.

The kernels fall back to pure Python arrays when numpy is absent, so
every guard has a calibrated pure-Python floor; the report records
which path was measured.  Result equivalence (tuple-for-tuple rows,
rule-for-rule induction) is asserted before any timing is trusted.
Index point lookups never touch the kernels; E22's point leg bounds
their cost.
"""

import time

import pytest

from repro.induction import InductionConfig
from repro.induction.pairwise import (
    extract_pairs_columnar, extract_pairs_native, induce_from_pairs,
)
from repro.plan.planner import plan_select
from repro.plan.stats import statistics
from repro.relational import columnar
from repro.reporting import render_table
from repro.rules.clause import AttributeRef
from repro.sql.parser import parse_select
from repro.sql.reference import execute_select_reference
from repro.testbed.generators import (
    synthetic_classified_database, synthetic_star_database,
)

from conftest import record_report

N_ENTITIES = 20_000
N_GROUPS = 20
N_ITEMS = 20_000

#: Same workload as E22: a range predicate past the index-fraction
#: threshold (TableScan+Filter over ENTITY) feeding a hash join.
SCAN_JOIN_SQL = (
    "SELECT ENTITY.Id, GROUPS.Weight FROM ENTITY, GROUPS "
    "WHERE ENTITY.GroupId = GROUPS.GroupId "
    "AND ENTITY.Size > 150 AND GROUPS.Label = 'G01'")
#: The same query with a range the kernels refuse (same rows, same
#: order): the streamed row pipeline of compiled closures.
ROW_SQL = SCAN_JOIN_SQL.replace("ENTITY.Size > 150",
                                "ENTITY.Size + 0 > 150")

#: Guard floors, calibrated per kernel backend (numpy reductions vs
#: pure-Python array loops).
SCAN_JOIN_TARGET = 4.0 if columnar.HAS_NUMPY else 1.3
REFERENCE_TARGET = 8.0 if columnar.HAS_NUMPY else 2.5
ILS_TARGET = 2.0 if columnar.HAS_NUMPY else 1.2

_RESULTS: dict[str, dict] = {}


def _run(database, statement):
    return plan_select(database, statement).execute()


def _interleaved(fn_pre, fn_post, repeats=7):
    """Best-of-N with alternating runs, so noise hits both pipelines."""
    best_pre = best_post = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn_pre()
        best_pre = min(best_pre, time.perf_counter() - start)
        start = time.perf_counter()
        fn_post()
        best_post = min(best_post, time.perf_counter() - start)
    return best_pre, best_post


@pytest.fixture(scope="module")
def star_db():
    database = synthetic_star_database(
        n_entities=N_ENTITIES, n_groups=N_GROUPS, seed=11)
    statistics(database).table_stats("ENTITY")
    statistics(database).table_stats("GROUPS")
    # Warm both pipelines (plan cache, indexes, the column store).
    _run(database, parse_select(ROW_SQL))
    _run(database, parse_select(SCAN_JOIN_SQL))
    return database


def test_scan_join_columnar_speedup(benchmark, star_db):
    statement = parse_select(SCAN_JOIN_SQL)
    row_statement = parse_select(ROW_SQL)
    for sql in (SCAN_JOIN_SQL, ROW_SQL):
        rendered = plan_select(star_db, parse_select(sql)).render()
        assert "TableScan ENTITY" in rendered and "Filter" in rendered

    fused = _run(star_db, statement)
    rowwise = _run(star_db, row_statement)
    assert list(fused.rows) == list(rowwise.rows)
    assert fused == execute_select_reference(star_db, statement)
    assert 0 < len(fused) < N_ENTITIES / 2

    result = benchmark(lambda: _run(star_db, statement))
    assert len(result) == len(fused)

    row_s, columnar_s = _interleaved(
        lambda: _run(star_db, row_statement),
        lambda: _run(star_db, statement))
    reference_s, _ = _interleaved(
        lambda: execute_select_reference(star_db, statement),
        lambda: _run(star_db, statement), repeats=3)
    _RESULTS["scan+join"] = {
        "row_s": row_s, "columnar_s": columnar_s,
        "reference_s": reference_s,
        "speedup": row_s / columnar_s,
        "speedup_vs_reference": reference_s / columnar_s,
        "guard": f">= {SCAN_JOIN_TARGET}x vs streamed rows",
        "guard_passed": row_s / columnar_s >= SCAN_JOIN_TARGET,
    }
    assert row_s / columnar_s >= SCAN_JOIN_TARGET, (
        f"expected >={SCAN_JOIN_TARGET}x from columnar kernels, got "
        f"{row_s / columnar_s:.2f}x ({row_s * 1000:.2f}ms rows vs "
        f"{columnar_s * 1000:.2f}ms columnar)")
    assert reference_s / columnar_s >= REFERENCE_TARGET, (
        f"expected >={REFERENCE_TARGET}x vs the reference evaluator, "
        f"got {reference_s / columnar_s:.2f}x")


def test_ils_reinduction_speedup(benchmark):
    database = synthetic_classified_database(N_ITEMS, seed=7)
    relation = database.relation("ITEM")
    config = InductionConfig(n_c=3)
    x_ref = AttributeRef(relation.name, "Value")
    y_ref = AttributeRef(relation.name, "Label")
    x_position = relation.schema.position("Value")
    y_position = relation.schema.position("Label")

    def induce(extraction):
        return induce_from_pairs(extraction, x_ref, y_ref, config,
                                 relation_size=len(relation))

    def induce_columnar():
        return induce(extract_pairs_columnar(relation.column_store(),
                                             "Value", "Label"))

    def induce_native():
        return induce(extract_pairs_native(
            (row[x_position], row[y_position]) for row in relation))

    relation.column_store()  # warm, as after a query
    assert [str(rule) for rule in induce_columnar()] == \
        [str(rule) for rule in induce_native()]

    result = benchmark(induce_columnar)
    assert result

    row_s, columnar_s = _interleaved(induce_native, induce_columnar,
                                     repeats=5)
    _RESULTS["ils re-induction"] = {
        "row_s": row_s, "columnar_s": columnar_s,
        "speedup": row_s / columnar_s,
        "guard": f">= {ILS_TARGET}x",
        "guard_passed": row_s / columnar_s >= ILS_TARGET,
    }
    assert row_s / columnar_s >= ILS_TARGET, (
        f"expected >={ILS_TARGET}x on re-induction, got "
        f"{row_s / columnar_s:.2f}x ({row_s * 1000:.2f}ms rows vs "
        f"{columnar_s * 1000:.2f}ms columnar)")


def test_record_report(star_db):
    assert set(_RESULTS) == {"scan+join", "ils re-induction"}
    rows = [[label,
             f"{entry['row_s'] * 1000:.3f}",
             f"{entry['columnar_s'] * 1000:.3f}",
             f"{entry['row_s'] / entry['columnar_s']:.1f}x",
             entry["guard"]]
            for label, entry in sorted(_RESULTS.items())]
    backend = "numpy" if columnar.HAS_NUMPY else "pure-python"
    record_report(
        "E27",
        f"Columnar kernels vs streamed row pipeline "
        f"({backend}; ENTITY {N_ENTITIES} rows, ITEM {N_ITEMS} rows)",
        render_table(
            ["workload", "rows ms", "columnar ms", "speedup", "guard"],
            rows),
        data={**_RESULTS, "backend": backend})
