"""E20 -- observability overhead guard.

The observability layer promises to be free when disabled: every
instrumented call site collapses to one flag check and the per-node
clocks are two ``perf_counter`` reads.  This benchmark holds the layer
to that promise by timing the same planned query three ways:

* **bare** -- plan-node execution with the instrumented ``execute``
  wrappers swapped for uninstrumented equivalents (the pre-obs code),
* **disabled** -- the shipped code with observability off (default),
* **enabled** -- tracing, metrics and the slow-query log all live.

The guard asserts the disabled path stays within 5% of bare (plus a
tiny absolute epsilon so sub-millisecond jitter cannot flake the
suite); the enabled ratio is reported for the record, not asserted.
"""

import time

import pytest

from repro import obs
from repro.plan.plans import Plan, ProjectPlan
from repro.plan.stats import statistics
from repro.reporting import render_table
from repro.sql.executor import execute_select, project_statement
from repro.sql.parser import parse_select
from repro.testbed.generators import synthetic_classified_database

from conftest import record_report

N_ROWS = 20_000

#: ~2.5% selective range: enough matched rows that per-node overhead
#: would show, few enough that one repeat is sub-10ms.
RANGE_SQL = ("SELECT Id, Label FROM ITEM "
             "WHERE Value >= 1000 AND Value < 1050")

REPEATS = 30


@pytest.fixture(scope="module")
def synth_db():
    database = synthetic_classified_database(
        n_rows=N_ROWS, n_classes=20, seed=7)
    statistics(database).table_stats("ITEM")
    execute_select(database, parse_select(RANGE_SQL))
    return database


def _bare_batches(self, batch_size=None):
    from repro.plan.plans import default_batch_size
    size = default_batch_size() if batch_size is None else batch_size
    return self._batches(size)  # the raw generator, no instrumentation


def _bare_execute(self, batch_size=None):
    out = []
    for batch in self.batches(batch_size):
        out.extend(batch)
    self.actual_rows = len(out)
    return out


def _bare_execute_relation(self, batch_size=None):
    stream = (rows for batch in self.child.batches(batch_size)
              for rows in batch)
    result = project_statement(self.scope, self.statement,
                               self.child.bindings, stream,
                               self.result_name)
    self.actual_rows = len(result)
    return result


class _bare_plan_nodes:
    """Swap the instrumented node wrappers for pre-obs equivalents
    (same streaming protocol, no per-batch clocks/counters/spans)."""

    def __enter__(self):
        self._batches = Plan.batches
        self._execute = Plan.execute
        self._execute_relation = ProjectPlan.execute_relation
        Plan.batches = _bare_batches
        Plan.execute = _bare_execute
        ProjectPlan.execute_relation = _bare_execute_relation

    def __exit__(self, *exc_info):
        Plan.batches = self._batches
        Plan.execute = self._execute
        ProjectPlan.execute_relation = self._execute_relation


def _time_once(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_disabled_observability_is_free(benchmark, synth_db):
    from repro.cache import query_cache

    statement = parse_select(RANGE_SQL)
    # Keep the query cache out of the loop: this experiment times the
    # observability hooks on *live* plan execution, and a result-cache
    # hit would reduce all three modes to a dictionary lookup (E23
    # measures that path).
    query_cache(synth_db).enabled = False

    def run():
        return execute_select(synth_db, statement)

    obs.disable()
    obs.reset()
    expected = len(run())
    assert expected > 0
    with _bare_plan_nodes():
        assert len(run()) == expected

    result = benchmark(run)
    assert len(result) == expected

    # Interleave the three modes round-robin so machine drift (thermal
    # state, cache pollution from earlier benchmarks) hits them all
    # equally instead of biasing whichever mode is measured last.
    bare_s = disabled_s = enabled_s = float("inf")
    try:
        for _ in range(REPEATS):
            with _bare_plan_nodes():
                bare_s = min(bare_s, _time_once(run))
            obs.disable()
            disabled_s = min(disabled_s, _time_once(run))
            obs.enable()
            enabled_s = min(enabled_s, _time_once(run))
    finally:
        obs.disable()
        obs.reset()
        query_cache(synth_db).enabled = True

    record_report(
        "E20", f"Observability overhead (range query, {N_ROWS} rows)",
        render_table(
            ["mode", "best ms", "vs bare"],
            [["bare (uninstrumented)", f"{bare_s * 1000:.3f}", "1.00x"],
             ["obs disabled", f"{disabled_s * 1000:.3f}",
              f"{disabled_s / bare_s:.2f}x"],
             ["obs enabled", f"{enabled_s * 1000:.3f}",
              f"{enabled_s / bare_s:.2f}x"]]),
        data={"bare_s": bare_s, "disabled_s": disabled_s,
              "enabled_s": enabled_s,
              "disabled_overhead": disabled_s / bare_s - 1.0,
              "guard": "disabled path within 5% of bare"})

    assert disabled_s <= bare_s * 1.05 + 5e-5, (
        f"disabled observability costs {disabled_s / bare_s:.2f}x "
        f"({disabled_s * 1000:.3f}ms vs {bare_s * 1000:.3f}ms bare); "
        f"the disabled path must stay within 5%")
    # Enabled tracing is allowed to cost, but not to distort: an order
    # of magnitude would mean a hot path records per row, not per node.
    assert enabled_s <= bare_s * 10


def test_enabled_observability_records_the_workload(synth_db):
    from repro.cache import query_cache

    statement = parse_select(RANGE_SQL)
    # The overhead runs above warmed the result cache for this very
    # statement; drop it so the traced run executes live plan nodes.
    query_cache(synth_db).clear()
    obs.enable()
    obs.reset()
    try:
        execute_select(synth_db, statement)
        assert obs.metrics().value("select_path_total",
                                   path="planner") == 1
        assert obs.tracer().named("plan.node.")
    finally:
        obs.disable()
        obs.reset()
