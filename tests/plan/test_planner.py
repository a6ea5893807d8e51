"""Planner tests: access-path selection, join ordering, pushdown, and
semantic short-circuits."""

import pytest

from repro.plan.planner import plan_select
from repro.plan.plans import (
    EmptyPlan, FilterPlan, HashJoinPlan, IndexScanPlan, ProductPlan,
    ProjectPlan, TableScanPlan,
)
from repro.sql.parser import parse_select


def nodes(plan):
    yield plan
    for child in plan.children():
        yield from nodes(child)


def find(plan, kind):
    return [node for node in nodes(plan) if isinstance(node, kind)]


def plan_sql(database, sql, rules=None):
    return plan_select(database, parse_select(sql), rules=rules)


class TestAccessPaths:
    def test_equality_picks_point_range(self, ship_db):
        planned = plan_sql(ship_db,
                           "SELECT * FROM SUBMARINE WHERE Class = '0103'")
        (scan,) = find(planned.plan, IndexScanPlan)
        assert scan.interval.is_point()
        assert scan.column == "Class"
        assert not find(planned.plan, FilterPlan)

    def test_selective_range_picks_sorted_index(self, ship_db):
        planned = plan_sql(
            ship_db, "SELECT * FROM CLASS WHERE Displacement > 8000")
        (scan,) = find(planned.plan, IndexScanPlan)
        assert not scan.interval.is_point()
        assert scan.column == "Displacement"

    def test_tiny_relation_scans(self, ship_db):
        planned = plan_sql(ship_db,
                           "SELECT * FROM TYPE WHERE Type = 'SSN'")
        assert find(planned.plan, TableScanPlan)
        assert not find(planned.plan, IndexScanPlan)
        assert find(planned.plan, FilterPlan)

    def test_wide_range_scans(self, ship_db):
        # Displacement > 0 matches everything: not worth an index.
        planned = plan_sql(
            ship_db, "SELECT * FROM CLASS WHERE Displacement > 0")
        assert find(planned.plan, TableScanPlan)
        assert not find(planned.plan, IndexScanPlan)

    def test_unconsumed_predicates_stay_as_filter(self, ship_db):
        planned = plan_sql(
            ship_db, "SELECT * FROM CLASS "
                     "WHERE Displacement > 8000 AND Type = 'SSBN'")
        (filter_plan,) = find(planned.plan, FilterPlan)
        assert len(filter_plan.predicates) == 1

    def test_execution_matches_predicate(self, ship_db):
        planned = plan_sql(
            ship_db, "SELECT * FROM CLASS WHERE Displacement > 8000")
        result = planned.execute()
        assert len(result) > 0
        displacement = result.schema.position("Displacement")
        assert all(row[displacement] > 8000 for row in result.rows)


class TestJoinOrdering:
    def test_smallest_side_starts(self, ship_db):
        planned = plan_sql(
            ship_db,
            "SELECT * FROM SUBMARINE, CLASS "
            "WHERE SUBMARINE.Class = CLASS.Class "
            "AND CLASS.Displacement > 8000")
        (join,) = find(planned.plan, HashJoinPlan)
        # The filtered CLASS side (2 estimated rows) must be planned
        # first, not SUBMARINE (24 rows).
        assert join.left.bindings == ("class",)

    def test_three_way_join_consumes_all_edges(self, ship_db):
        planned = plan_sql(
            ship_db,
            "SELECT SUBMARINE.Name FROM SUBMARINE, INSTALL, SONAR "
            "WHERE SUBMARINE.Id = INSTALL.Ship "
            "AND INSTALL.Sonar = SONAR.Sonar")
        assert len(find(planned.plan, HashJoinPlan)) == 2
        assert not find(planned.plan, ProductPlan)
        assert len(planned.execute()) == 24

    def test_cartesian_falls_back_to_product(self, ship_db):
        planned = plan_sql(ship_db, "SELECT * FROM SUBMARINE, TYPE")
        assert find(planned.plan, ProductPlan)
        assert len(planned.execute()) == 48


class TestContradictions:
    def test_conflicting_predicates_short_circuit(self, ship_db):
        planned = plan_sql(
            ship_db, "SELECT * FROM CLASS "
                     "WHERE Displacement > 10000 AND Displacement < 5000")
        (empty,) = find(planned.plan, EmptyPlan)
        assert "contradictory" in empty.reason
        assert len(planned.execute()) == 0

    def test_equal_vs_equal_short_circuit(self, ship_db):
        planned = plan_sql(
            ship_db, "SELECT * FROM CLASS "
                     "WHERE Type = 'SSN' AND Type = 'SSBN'")
        assert find(planned.plan, EmptyPlan)

    def test_rule_contradiction(self, ship_db, ship_rules):
        planned = plan_sql(
            ship_db,
            "SELECT * FROM CLASS WHERE Displacement >= 8000 "
            "AND Displacement <= 20000 AND Type = 'SSN'",
            rules=ship_rules)
        (empty,) = find(planned.plan, EmptyPlan)
        assert "SSBN" in empty.reason
        assert planned.notes  # intensional explanation surfaced
        assert len(planned.execute()) == 0

    def test_rule_tightening_noted(self, ship_db, ship_rules):
        planned = plan_sql(
            ship_db,
            "SELECT ClassName FROM CLASS WHERE Displacement >= 8000 "
            "AND Displacement <= 20000 AND Type >= 'SSA'",
            rules=ship_rules)
        assert any("tightens" in note for note in planned.notes)
        assert len(planned.execute()) == 1

    def test_empty_result_keeps_projection_schema(self, ship_db):
        planned = plan_sql(
            ship_db, "SELECT Name FROM SUBMARINE "
                     "WHERE Class = '0103' AND Class = '0204'")
        result = planned.execute()
        assert len(result) == 0
        assert [column.name for column in result.schema.columns] == ["Name"]


class TestPlanShape:
    def test_root_is_project(self, ship_db):
        planned = plan_sql(ship_db, "SELECT Name FROM SUBMARINE")
        assert isinstance(planned.plan, ProjectPlan)

    def test_estimates_are_positive_and_finite(self, ship_db):
        planned = plan_sql(
            ship_db,
            "SELECT * FROM SUBMARINE, CLASS "
            "WHERE SUBMARINE.Class = CLASS.Class")
        for node in nodes(planned.plan):
            assert node.records_output() >= 0
            assert node.cost() >= 0

    def test_actual_rows_recorded_after_execute(self, ship_db):
        planned = plan_sql(
            ship_db, "SELECT * FROM CLASS WHERE Displacement > 8000")
        for node in nodes(planned.plan):
            assert node.actual_rows is None
        planned.execute()
        for node in nodes(planned.plan):
            assert node.actual_rows is not None
