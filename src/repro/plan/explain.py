"""EXPLAIN rendering: the chosen plan tree with estimated vs. actual
cardinalities, prefixed by any semantic rewrites the planner applied.

``EXPLAIN SELECT ...`` both plans *and* runs the statement, so every
line shows the cost model's estimate next to the true row count --
the fastest way to spot a bad selectivity guess.  ``EXPLAIN ANALYZE``
additionally annotates every node with its measured inclusive wall
time (children's time included, as rendered by every production
EXPLAIN ANALYZE), taken from the per-node monotonic clocks in
:mod:`repro.plan.plans`.
"""

from __future__ import annotations

from repro.relational.database import Database
from repro.rules.ruleset import RuleSet
from repro.sql import ast
from repro.plan.plans import Plan


def _format_rows(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


def _format_time(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1000:.3f}ms"


def render_plan(plan: Plan, include_actual: bool = False,
                include_timing: bool = False) -> str:
    """Indented one-line-per-node rendering of a plan tree."""
    lines: list[str] = []

    def walk(node: Plan, depth: int) -> None:
        counts = f"est {_format_rows(node.records_output())} rows"
        if include_actual and node.actual_rows is not None:
            counts += f", actual {node.actual_rows}"
        if include_timing and node.actual_time_s is not None:
            counts += f", time {_format_time(node.actual_time_s)}"
        lines.append(f"{'  ' * depth}{node.label()}  ({counts})")
        for child in node.children():
            walk(child, depth + 1)

    walk(plan, 0)
    return "\n".join(lines)


def explain_select(database: Database, statement: ast.SelectStmt,
                   rules: RuleSet | None = None,
                   execute: bool = True,
                   analyze: bool = False,
                   result_name: str = "result") -> str:
    """Plan *statement*, optionally execute it, and render the tree.

    *analyze* (EXPLAIN ANALYZE) implies execution and adds the measured
    per-node wall times to the rendering.  The first line reports the
    plan cache's verdict for this statement -- ``cache: hit`` (the
    compiled plan was reused), ``miss`` (planned now, cached for next
    time) or ``bypass`` (caching disabled).
    """
    from repro.cache.core import query_cache
    planned, status = query_cache(database).plan_for(
        statement, rules=rules, result_name=result_name)
    run = execute or analyze
    if run:
        planned.execute()
    rendered = planned.render(include_actual=run, include_timing=analyze)
    return f"cache: {status}\n{rendered}"
