"""Cost-based planning for SELECT statements.

The planner turns a parsed SELECT into a tree of plan nodes
(:mod:`repro.plan.plans`):

1. WHERE conjuncts are classified (shared with the legacy executor)
   into per-binding filters, equi-join edges, and residual predicates.
2. Per binding, single-column comparisons fold into interval
   constraints; :mod:`repro.plan.semantic` proves them unsatisfiable
   against the induced rules (short-circuit to an EmptyPlan) or
   tightens them.
3. The access path per binding is chosen by estimated selectivity: a
   hash-index probe for equality, a sorted-index range scan for
   selective ranges, a table scan otherwise; unconsumed predicates
   stack as a FilterPlan.
4. Joins are ordered greedily by estimated output cardinality (the
   SimpleDB ``records_output``/``distinct_values`` cost shape) instead
   of the legacy fixed connectivity order.
"""

from __future__ import annotations

from repro import obs
from repro.relational.database import Database
from repro.relational.expressions import (
    ColumnRef, Comparison, Expression, Literal,
)
from repro.relational.relation import Relation
from repro.rules.clause import Interval
from repro.rules.ruleset import RuleSet
from repro.sql import ast
from repro.sql.executor import Scope, classify_conjuncts
from repro.plan import semantic
from repro.plan.plans import (
    EmptyPlan, FilterPlan, HashJoinPlan, IndexScanPlan, Plan, ProductPlan,
    ProjectPlan, TableScanPlan, INDEX_FRACTION_THRESHOLD,
)
from repro.plan.stats import DEFAULT_SELECTIVITY, statistics

#: Below this row count an index cannot beat scanning the rows directly.
MIN_INDEX_ROWS = 8


class PlannedQuery:
    """A chosen plan plus the semantic rewrites that shaped it."""

    def __init__(self, scope: Scope, statement: ast.SelectStmt,
                 root: ProjectPlan, notes: list[str]):
        self.scope = scope
        self.statement = statement
        self.root = root
        self.notes = notes

    @property
    def plan(self) -> ProjectPlan:
        return self.root

    def execute(self, batch_size: int | None = None) -> Relation:
        """Run the plan, producing the result relation.

        Execution streams batch-at-a-time through the plan tree;
        *batch_size* overrides the process default morsel size (see
        :func:`repro.plan.plans.default_batch_size`).
        """
        return self.root.execute_relation(batch_size)

    def render(self, include_actual: bool = False,
               include_timing: bool = False) -> str:
        from repro.plan.explain import render_plan
        lines = [f"semantic: {note}" for note in self.notes]
        lines.append(render_plan(self.root, include_actual=include_actual,
                                 include_timing=include_timing))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<PlannedQuery {self.statement.render()!r}>"


def plan_select(database: Database, statement: ast.SelectStmt,
                rules: RuleSet | None = None,
                result_name: str = "result") -> PlannedQuery:
    """Choose a plan for *statement* over *database*.

    *rules* (the induced rule base) enables semantic optimization:
    contradiction short-circuits and range tightening.
    """
    with obs.span("plan.select", tables=len(statement.tables)) as span:
        scope = Scope(database, statement.tables)
        filters, edges, residual = classify_conjuncts(scope,
                                                      statement.where)
        stats_catalog = statistics(database)
        notes: list[str] = []

        base_plans: dict[str, Plan] = {}
        for binding in scope.bindings:
            plan, contradiction = _access_path(
                scope, binding, filters[binding], rules, stats_catalog,
                notes)
            if contradiction is not None:
                empty = EmptyPlan(scope, scope.bindings, contradiction)
                root = ProjectPlan(scope, statement, empty, result_name)
                span.set(outcome="short_circuit")
                return PlannedQuery(scope, statement, root, notes)
            base_plans[binding] = plan

        joined, leftover = _order_joins(scope, base_plans, edges)
        residual = list(residual) + [
            Comparison("=", ColumnRef(col_a, bind_a),
                       ColumnRef(col_b, bind_b))
            for bind_a, col_a, bind_b, col_b in leftover]
        if residual:
            joined = FilterPlan(joined, residual,
                                DEFAULT_SELECTIVITY ** len(residual))
        root = ProjectPlan(scope, statement, joined, result_name)
        span.set(notes=len(notes))
        return PlannedQuery(scope, statement, root, notes)


# -- access paths ----------------------------------------------------------


def _interval_of(conjunct: Expression) -> tuple[str, Interval] | None:
    """``(column, interval)`` when *conjunct* is a single-column
    comparison against a non-NULL literal, else ``None``."""
    if not isinstance(conjunct, Comparison):
        return None
    if conjunct.op not in ("=", "<", "<=", ">", ">="):
        return None
    if (isinstance(conjunct.left, Literal)
            and isinstance(conjunct.right, ColumnRef)):
        conjunct = conjunct.flipped()
    if not (isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, Literal)):
        return None
    if conjunct.right.value is None:
        return None
    return (conjunct.left.column.lower(),
            Interval.from_comparison(conjunct.op, conjunct.right.value))


def _access_path(scope: Scope, binding: str, conjunct_list, rules,
                 stats_catalog, notes: list[str]
                 ) -> tuple[Plan, str | None]:
    """Best single-binding plan, or a contradiction explanation."""
    relation = scope.relations[binding]
    stats = stats_catalog.table_stats(relation.name)

    intervals: dict[str, Interval] = {}
    interval_exprs: dict[str, list[Expression]] = {}
    others: list[Expression] = []
    for conjunct in conjunct_list:
        folded = _interval_of(conjunct)
        if folded is None:
            others.append(conjunct)
            continue
        column, interval = folded
        if column in intervals:
            try:
                merged = intervals[column].intersect(interval)
            except TypeError:  # incomparable literal types: leave as filter
                others.append(conjunct)
                continue
            if merged is None:
                reason = (f"contradictory predicates on "
                          f"{relation.name}.{column}: "
                          + " and ".join(e.render()
                                         for e in interval_exprs[column]
                                         + [conjunct]))
                notes.append(reason)
                obs.counter("semantic_rewrites_total",
                            "rule-driven planner rewrites by kind",
                            kind="predicate_contradiction").inc()
                return EmptyPlan(scope, [binding], reason), reason
            intervals[column] = merged
        else:
            intervals[column] = interval
        interval_exprs.setdefault(column, []).append(conjunct)

    if rules is not None and not rules.fresh_for(relation):
        # The rule base was induced on an older state of this relation:
        # its implications may no longer hold, so rewriting the query
        # with them could change the answer (the differential fuzzer
        # caught exactly that: an INSERT violating an induced interval
        # rule, then a contradiction short-circuit dropping the new
        # row).  Plan without semantic optimization until re-induction.
        notes.append(
            f"semantic optimization skipped: rule base is stale for "
            f"{relation.name} (data changed since induction)")
        obs.counter("semantic_rewrites_total",
                    "rule-driven planner rewrites by kind",
                    kind="stale_skipped").inc()
        rules = None
    analysis = semantic.analyze(relation.name, intervals, rules)
    for note in analysis.notes:
        notes.append(note.render())
    if analysis.contradiction is not None:
        return (EmptyPlan(scope, [binding], analysis.contradiction),
                analysis.contradiction)
    intervals = analysis.intervals

    chosen = _choose_index_column(stats, intervals)
    if chosen is not None:
        column_name = relation.schema.column(chosen).name
        leaf: Plan = IndexScanPlan(scope, binding, column_name,
                                   intervals[chosen], stats)
        consumed = {chosen}
    else:
        leaf = TableScanPlan(scope, binding, stats)
        consumed = set()

    predicates = [expr for column, exprs in interval_exprs.items()
                  if column not in consumed for expr in exprs] + others
    if predicates:
        selectivity = 1.0
        for column in interval_exprs:
            if column not in consumed:
                selectivity *= max(
                    stats.selectivity(column, intervals[column]), 1e-6)
        selectivity *= DEFAULT_SELECTIVITY ** len(others)
        return FilterPlan(leaf, predicates, selectivity), None
    return leaf, None


def _choose_index_column(stats, intervals: dict[str, Interval]
                         ) -> str | None:
    """The constrained column whose index promises the fewest rows, or
    ``None`` when scanning is no worse."""
    if stats.row_count < MIN_INDEX_ROWS:
        return None
    best: tuple[float, str] | None = None
    for column, interval in intervals.items():
        fraction = stats.selectivity(column, interval)
        if not interval.is_point() and fraction > INDEX_FRACTION_THRESHOLD:
            continue
        if best is None or fraction < best[0]:
            best = (fraction, column)
    return best[1] if best is not None else None


# -- join ordering ---------------------------------------------------------


def _connects(edge, joined, candidate) -> bool:
    bind_a, _col_a, bind_b, _col_b = edge
    return ((bind_a in joined and bind_b == candidate)
            or (bind_b in joined and bind_a == candidate))


def _normalized(edge, right_binding):
    """Orient *edge* as (left_bind, left_col, right_bind, right_col)."""
    bind_a, col_a, bind_b, col_b = edge
    if bind_b == right_binding:
        return (bind_a, col_a, bind_b, col_b)
    return (bind_b, col_b, bind_a, col_a)


def _order_joins(scope: Scope, base_plans: dict[str, Plan], edges
                 ) -> tuple[Plan, list]:
    """Greedy join ordering by estimated output cardinality.

    Starts from the smallest base plan; at each step joins the connected
    binding that minimizes the estimated join output (hash join over all
    usable edges), falling back to the smallest cartesian product when
    nothing connects.  Returns the joined plan and any edges that could
    not be consumed (defensive; folded back in as residual predicates).
    """
    order = {binding: position
             for position, binding in enumerate(scope.bindings)}
    remaining = dict(base_plans)
    start = min(remaining,
                key=lambda b: (remaining[b].records_output(), order[b]))
    current = remaining.pop(start)
    pending = list(edges)

    while remaining:
        best = None
        for binding, candidate in remaining.items():
            usable = [edge for edge in pending
                      if _connects(edge, current.bindings, binding)]
            if not usable:
                continue
            join = HashJoinPlan(current, candidate,
                                [_normalized(edge, binding)
                                 for edge in usable])
            estimate = join.records_output()
            if best is None or (estimate, order[binding]) < best[:2]:
                best = (estimate, order[binding], binding, join, usable)
        if best is None:
            binding = min(remaining,
                          key=lambda b: (remaining[b].records_output(),
                                         order[b]))
            current = ProductPlan(current, remaining.pop(binding))
            continue
        _estimate, _position, binding, join, usable = best
        current = join
        remaining.pop(binding)
        pending = [edge for edge in pending if edge not in usable]
    return current, pending
