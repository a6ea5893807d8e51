"""Reference evaluator for the SELECT subset: the oracle the planner is
checked against.

Each FROM binding is filtered by its single-binding conjuncts, the
survivors are combined as a nested-loop product in FROM order, and the
remaining conjuncts (equi-join edges and residual predicates), the
SELECT list, GROUP BY, aggregates and ORDER BY are evaluated with
:meth:`~repro.relational.expressions.Expression.evaluate` over one
:class:`~repro.relational.expressions.Environment` per row.  No index,
column kernel, column store, compiled closure, plan node or
:func:`~repro.sql.executor.project_statement` is involved, so a fault
in any of them cannot show up on both sides of a comparison.

What it shares with the planner decides which queries are legal and
how result columns are named and typed, never which rows come out:
scope resolution and conjunct classification, the up-front validation
(:func:`~repro.sql.executor._projection_items`,
:func:`~repro.sql.executor._validate_grouped`), output naming and
typing, and the aggregate fold.  Validation runs before any row is
evaluated, as in the planner, so a query that is both malformed and
ill-typed raises the same :class:`~repro.errors.SqlError`.
"""

from __future__ import annotations

import itertools

from repro.relational.database import Database
from repro.relational.expressions import ColumnRef, Comparison
from repro.relational.relation import Relation
from repro.sql import ast
from repro.sql.executor import (
    Scope, _fold_sql_aggregate, _grouped_result, _output_names,
    _plain_result, _projection_items, _validate_grouped, classify_conjuncts,
)


def execute_select_reference(database: Database, statement: ast.SelectStmt,
                             result_name: str = "result") -> Relation:
    """Evaluate *statement* by nested loops and interpretation."""
    scope = Scope(database, statement.tables)
    filters, edges, residual = classify_conjuncts(scope, statement.where)
    grouped = statement.has_aggregates() or bool(statement.group_by)
    if grouped:
        group_exprs = _validate_grouped(scope, statement)
        items = list(statement.items)
    else:
        items = _projection_items(scope, statement)

    bindings = scope.bindings
    survivors = [
        [row for row in scope.relations[binding].rows
         if _holds(filters[binding], scope.environment([binding], [row]))]
        for binding in bindings]
    remaining = [Comparison("=", ColumnRef(col_a, bind_a),
                            ColumnRef(col_b, bind_b))
                 for bind_a, col_a, bind_b, col_b in edges] + residual
    envs = []
    for rows in itertools.product(*survivors):
        env = scope.environment(bindings, rows)
        if _holds(remaining, env):
            envs.append(env)

    # One (output row, ORDER BY values) pair per plain row or per group.
    out: list[tuple[tuple, tuple]] = []
    if grouped:
        groups: dict[tuple, list] = {}
        for env in envs:
            key = tuple(expression.evaluate(env)
                        for expression in group_exprs)
            groups.setdefault(key, []).append(env)
        if not group_exprs and not groups:
            groups[()] = []  # an empty input still yields one row
        for members in groups.values():
            row = tuple(_aggregate(item.expression, members)
                        if item.is_aggregate()
                        else item.expression.evaluate(members[0])
                        for item in items)
            keys = tuple(key.evaluate(members[0]) if members else None
                         for key in statement.order_by)
            out.append((row, keys))
    else:
        for env in envs:
            out.append((tuple(item.expression.evaluate(env)
                              for item in items),
                        tuple(key.evaluate(env)
                              for key in statement.order_by)))
    if statement.order_by:
        # NULLs sort last; sorted() is stable, so ties keep input order.
        out.sort(key=lambda pair: [(value is None,
                                    value if value is not None else 0)
                                   for value in pair[1]])
    rows = [row for row, _keys in out]
    names = _output_names(items)
    if grouped:
        return _grouped_result(scope, statement, names, rows, result_name)
    return _plain_result(scope, statement, items, names, rows, result_name)


def _holds(predicates: list, env) -> bool:
    return all(predicate.evaluate(env) for predicate in predicates)


def _aggregate(call: ast.AggregateCall, members: list):
    if call.operand is None:
        return len(members)  # COUNT(*)
    return _fold_sql_aggregate(
        call, [call.operand.evaluate(env) for env in members])


__all__ = ["execute_select_reference"]
