"""Streaming execution contract: morsel sizes, early termination,
per-node actuals across batches, snapshot semantics, and the
``REPRO_BATCH_SIZE`` knob."""

import pytest

from repro import obs
from repro.plan import plans
from repro.plan.planner import plan_select
from repro.plan.plans import (
    DEFAULT_BATCH_SIZE, FilterPlan, HashJoinPlan, TableScanPlan,
    UNBOUNDED, default_batch_size, set_batch_observer,
)
from repro.plan.stats import statistics
from repro.relational.expressions import ColumnRef, Comparison, Literal
from repro.sql.ast import TableRef
from repro.sql.executor import Scope
from repro.sql.parser import parse_select
from repro.sql.reference import execute_select_reference

JOIN_SQL = (
    "SELECT SUBMARINE.Name, CLASS.Type FROM SUBMARINE, CLASS "
    "WHERE SUBMARINE.Class = CLASS.Class AND CLASS.Displacement > 2000")


@pytest.fixture()
def scope(ship_db):
    return Scope(ship_db, (TableRef("SUBMARINE"), TableRef("CLASS")))


@pytest.fixture()
def observer():
    """Collects every (plan, batch) the tree streams; always uninstalled."""
    seen = []
    set_batch_observer(lambda plan, batch: seen.append((plan, batch)))
    yield seen
    set_batch_observer(None)


def scan(scope, binding):
    stats = statistics(scope.database).table_stats(
        scope.relations[binding].name)
    return TableScanPlan(scope, binding, stats)


class TestBatchSizes:
    def test_every_batch_respects_the_bound(self, scope, observer):
        plan = scan(scope, "submarine")
        rows = plan.execute(batch_size=7)
        assert len(rows) == 24
        sizes = [len(batch) for _plan, batch in observer]
        assert sizes == [7, 7, 7, 3]

    def test_unbounded_is_one_batch_per_node(self, scope, observer):
        plan = scan(scope, "submarine")
        plan.execute(batch_size=UNBOUNDED)
        assert [len(batch) for _p, batch in observer] == [24]

    def test_nonpositive_size_rejected(self, scope):
        with pytest.raises(ValueError):
            scan(scope, "submarine").batches(0)

    def test_whole_tree_obeys_the_bound(self, ship_db, ship_rules,
                                        observer):
        planned = plan_select(ship_db, parse_select(JOIN_SQL),
                              rules=ship_rules)
        planned.execute(batch_size=5)
        assert observer, "no batches streamed"
        assert all(len(batch) <= 5 for _p, batch in observer)

    def test_default_batch_size_env(self, monkeypatch):
        import warnings

        from repro.plan import plans

        monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)
        assert default_batch_size() == DEFAULT_BATCH_SIZE
        monkeypatch.setenv("REPRO_BATCH_SIZE", "7")
        assert default_batch_size() == 7
        # A rejected value falls back loudly: one warning naming both
        # the bad value and the default used...
        monkeypatch.setattr(plans, "_warned_batch_sizes", set())
        for bad in ("default", "-3", "0"):
            monkeypatch.setenv("REPRO_BATCH_SIZE", bad)
            with pytest.warns(UserWarning, match=f"{bad}.*1024"):
                assert default_batch_size() == DEFAULT_BATCH_SIZE
            # ...and only once per distinct value.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert default_batch_size() == DEFAULT_BATCH_SIZE
        # Unset/empty is the normal configuration: never a warning.
        for quiet in ("", "   "):
            monkeypatch.setenv("REPRO_BATCH_SIZE", quiet)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert default_batch_size() == DEFAULT_BATCH_SIZE


class TestEarlyTermination:
    def test_closing_the_stream_stops_the_scan(self, scope, observer):
        plan = scan(scope, "submarine")
        stream = plan.batches(4)
        first = next(stream)
        assert len(first) == 4
        stream.close()
        # Only the one requested batch was ever produced.
        assert [len(b) for _p, b in observer] == [4]
        assert plan.actual_rows == 4

    def test_consumer_close_propagates_through_filter(self, scope,
                                                      observer):
        child = scan(scope, "class")
        predicate = Comparison(">", ColumnRef("Displacement", "class"),
                               Literal(0))
        plan = FilterPlan(child, [predicate], 0.9)
        stream = plan.batches(3)
        next(stream)
        stream.close()
        scans = [b for p, b in observer if isinstance(p, TableScanPlan)]
        # The scan produced only what the filter needed for one output
        # batch, not its whole relation.
        assert sum(len(b) for b in scans) < len(scope.relations["class"])

    def test_empty_build_side_never_pulls_probe_side(self, scope,
                                                     observer):
        left = scan(scope, "submarine")
        right = FilterPlan(
            scan(scope, "class"),
            [Comparison("<", ColumnRef("Displacement", "class"),
                        Literal(-1))], 0.0)
        join = HashJoinPlan(left, right,
                            [("submarine", "Class", "class", "Class")])
        assert join.execute(batch_size=4) == []
        assert not any(p is left for p, _b in observer)
        # The un-pulled side renders as unmeasured, not as zero rows.
        assert left.actual_rows is None


class TestActualsAcrossBatches:
    def test_per_node_actuals_match_materializing_path(self, ship_db,
                                                       ship_rules):
        """Regression: actual_rows accumulated over many small batches
        must pin to the cardinalities the one-batch (old
        materializing) execution measures on the identical tree."""
        statement = parse_select(JOIN_SQL)

        reference = plan_select(ship_db, statement, rules=ship_rules)
        reference.execute(batch_size=UNBOUNDED)
        streamed = plan_select(ship_db, statement, rules=ship_rules)
        streamed.execute(batch_size=3)

        def actuals(plan):
            out = [(type(plan).__name__, plan.actual_rows)]
            for child in plan.children():
                out.extend(actuals(child))
            return out

        assert actuals(streamed.root) == actuals(reference.root)
        assert streamed.root.actual_rows == len(
            execute_select_reference(ship_db, statement))

    def test_explain_analyze_streams(self, ship_db, ship_rules):
        from repro.plan.explain import explain_select

        rendered = explain_select(ship_db, parse_select(JOIN_SQL),
                                  rules=ship_rules, analyze=True)
        expected = execute_select_reference(ship_db,
                                            parse_select(JOIN_SQL))
        assert f"actual {len(expected)}" in rendered


class TestSnapshotSemantics:
    def test_mutation_between_batches_does_not_change_stream(self, scope):
        plan = scan(scope, "submarine")
        relation = scope.relations["submarine"]
        stream = plan.batches(10)
        collected = list(next(stream))
        relation.insert(("SSN999", "Phantom", "0101"))
        for batch in stream:
            collected.extend(batch)
        # The stream serves its start-of-stream snapshot ...
        assert len(collected) == 24
        assert all(rows[0][0] != "SSN999" for rows in collected)
        # ... and the next stream sees the mutation.
        assert len(plan.execute(batch_size=10)) == 25


class TestObservability:
    def test_batches_counted_and_spans_once_per_node(self, scope):
        obs.reset()
        obs.enable()
        try:
            plan = scan(scope, "submarine")
            plan.execute(batch_size=6)
            assert obs.metrics().value(
                "plan_batches_total", node="TableScanPlan") == 4
            spans = obs.tracer().named("plan.node.TableScanPlan")
            assert len(spans) == 1
            assert spans[0].attributes["rows"] == 24
            assert spans[0].attributes["batches"] == 4
        finally:
            obs.disable()
            obs.reset()

    def test_disabled_observability_records_nothing(self, scope):
        obs.reset()
        plan = scan(scope, "submarine")
        plan.execute(batch_size=6)
        assert len(obs.tracer()) == 0
