"""Executor for the SQL subset.

SELECT statements run through the cost-based query planner
(:mod:`repro.plan`), behind the version-aware query cache; the planner
consults per-relation statistics, picks index access paths, orders
joins by estimated cardinality, and applies rule-driven semantic
optimization.  This module holds what the planner and the reference
evaluator (:mod:`repro.sql.reference`) share: the FROM scope, WHERE
conjunct classification, and the validation and output typing of the
projection.  The planner's projection itself
(:func:`project_statement`) evaluates compiled closures.  DML
(INSERT/DELETE/UPDATE) runs here directly.
"""

from __future__ import annotations

import contextlib
import time
from typing import Iterable, NamedTuple, Sequence

from repro import obs
from repro.errors import SqlError
from repro.relational import compiled
from repro.relational.database import Database
from repro.relational.datatypes import infer_type, INTEGER, REAL
from repro.relational.expressions import (
    ColumnRef, Comparison, Environment, Expression, conjuncts,
)
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema
from repro.sql import ast
from repro.sql.parser import parse_select


def execute_sql(database: Database, text: str,
                result_name: str = "result") -> Relation:
    """Parse and execute a SELECT statement against *database*."""
    return execute_select(database, parse_select(text),
                          result_name=result_name)


def execute_statement(database: Database, text: str,
                      result_name: str = "result",
                      rules=None) -> Relation | int | str:
    """Parse and execute any supported statement.

    SELECT returns a :class:`Relation`; INSERT/DELETE/UPDATE return the
    affected row count; ``EXPLAIN SELECT ...`` returns the rendered plan
    tree as a string (pass *rules* to enable semantic optimization).
    """
    from repro.sql.parser import parse_statement
    statement = parse_statement(text)
    if isinstance(statement, ast.ExplainStmt):
        from repro.plan.explain import explain_select
        kind = "explain_analyze" if statement.analyze else "explain"
        obs.counter("queries_total", "statements executed by type",
                    type=kind).inc()
        return explain_select(database, statement.select, rules=rules,
                              analyze=statement.analyze)
    if isinstance(statement, ast.SelectStmt):
        obs.counter("queries_total", "statements executed by type",
                    type="select").inc()
        return execute_select(database, statement,
                              result_name=result_name, rules=rules)
    obs.counter("queries_total", "statements executed by type",
                type=type(statement).__name__.replace(
                    "Stmt", "").lower()).inc()
    # DML runs inside a storage statement scope when the database is
    # attached to a durable engine: on success the scope autocommits to
    # the WAL (unless an explicit transaction is open); on error it
    # rolls the statement's mutations back, so a statement is all or
    # nothing even when it touched the relation before failing.
    scope = (database.storage.statement() if database.storage is not None
             else contextlib.nullcontext())
    with scope:
        if isinstance(statement, ast.InsertStmt):
            return _execute_insert(database, statement)
        if isinstance(statement, ast.DeleteStmt):
            return _execute_delete(database, statement)
        if isinstance(statement, ast.UpdateStmt):
            return _execute_update(database, statement)
        raise SqlError(f"unsupported statement {statement!r}")


def _constant(expression, what: str):
    from repro.relational.expressions import Environment, Literal
    if isinstance(expression, Literal):
        return expression.value
    try:
        return expression.evaluate(Environment())
    except Exception as error:
        raise SqlError(
            f"{what} must be a constant expression: "
            f"{expression.render()}") from error


def _execute_insert(database: Database, statement: ast.InsertStmt) -> int:
    relation = database.relation(statement.table)
    schema = relation.schema
    if statement.columns is not None:
        for name in statement.columns:
            schema.position(name)  # raises on unknown columns
    batch = []
    for row in statement.rows:
        if statement.columns is None:
            if len(row) != schema.arity:
                raise SqlError(
                    f"INSERT expects {schema.arity} values, "
                    f"got {len(row)}")
            batch.append([_constant(cell, "VALUES") for cell in row])
            continue
        if len(row) != len(statement.columns):
            raise SqlError("VALUES row does not match the column list")
        record = {name.lower(): _constant(cell, "VALUES")
                  for name, cell in zip(statement.columns, row)}
        batch.append([record.get(column.key)
                      for column in schema.columns])
    relation.insert_many(batch)
    return len(batch)


def _row_env(relation: Relation, row: tuple):
    from repro.relational.expressions import Environment
    return Environment.for_row(relation.schema, row)


def _where_test(relation: Relation, where: Expression):
    """Compiled row predicate for a single-relation WHERE clause."""
    return compiled.compile_expression(
        where,
        compiled.schema_resolver(relation.schema, [relation.schema.name]))


def _execute_delete(database: Database, statement: ast.DeleteStmt) -> int:
    relation = database.relation(statement.table)
    if statement.where is None:
        count = len(relation)
        relation.clear()
        return count
    return relation.delete_where(_where_test(relation, statement.where))


def _execute_update(database: Database, statement: ast.UpdateStmt) -> int:
    relation = database.relation(statement.table)
    positions = {}
    for name, _expression in statement.assignments:
        positions[name.lower()] = relation.schema.position(name)

    def updated(row: tuple):
        values = list(row)
        env = _row_env(relation, row)
        for name, expression in statement.assignments:
            values[positions[name.lower()]] = expression.evaluate(env)
        return values

    if statement.where is None:
        return relation.replace_where(lambda row: True, updated)
    return relation.replace_where(_where_test(relation, statement.where),
                                  updated)


def execute_select(database: Database, statement: ast.SelectStmt,
                   result_name: str = "result",
                   rules=None) -> Relation:
    """Execute a parsed SELECT statement through the planner.

    *rules* (a :class:`~repro.rules.ruleset.RuleSet`) enables the
    planner's semantic optimization.  Repeated statements reuse the
    cached plan, and expensive results are served from the result cache
    while the relations they touched are unchanged (``REPRO_CACHE=off``
    makes the cache a plain pass-through to ``plan_select``).
    """
    from repro.cache.core import query_cache
    start = time.perf_counter()
    result = query_cache(database).execute_select(
        statement, rules=rules, result_name=result_name)
    if obs.enabled():
        duration = time.perf_counter() - start
        obs.counter("select_path_total", "SELECT executions by path",
                    path="planner").inc()
        obs.observe_query(statement.render(), duration,
                          rows=len(result))
    return result


class Scope:
    """FROM-clause bindings: qualifier -> relation."""

    def __init__(self, database: Database, tables: Sequence[ast.TableRef]):
        if not tables:
            raise SqlError("FROM clause must name at least one relation")
        self.database = database
        self.bindings: list[str] = []
        self.relations: dict[str, Relation] = {}
        for table in tables:
            binding = table.binding.lower()
            if binding in self.relations:
                raise SqlError(f"duplicate FROM binding {table.binding!r}")
            self.bindings.append(binding)
            self.relations[binding] = database.relation(table.name)

    def resolve(self, ref: ColumnRef) -> str:
        """Binding that *ref* refers to."""
        if ref.qualifier is not None:
            binding = ref.qualifier.lower()
            if binding not in self.relations:
                raise SqlError(f"unknown table or alias {ref.qualifier!r}")
            if not self.relations[binding].schema.has_column(ref.column):
                raise SqlError(
                    f"{ref.qualifier} has no column {ref.column!r}")
            return binding
        hits = [binding for binding in self.bindings
                if self.relations[binding].schema.has_column(ref.column)]
        if not hits:
            raise SqlError(f"unknown column {ref.column!r}")
        if len(hits) > 1:
            raise SqlError(f"ambiguous column {ref.column!r}")
        return hits[0]

    def bindings_of(self, expression: Expression) -> set[str]:
        return {self.resolve(ref) for ref in expression.references()}

    def environment(self, bindings: Sequence[str],
                    rows: Sequence[tuple]) -> Environment:
        env = Environment()
        for binding, row in zip(bindings, rows):
            env.bind(binding, self.relations[binding].schema, row)
        return env


class ConjunctClasses(NamedTuple):
    """WHERE conjuncts classified for planning/execution."""

    filters: dict[str, list[Expression]]  # binding -> pushed-down filters
    edges: list[tuple[str, str, str, str]]  # (bind_a, col_a, bind_b, col_b)
    residual: list[Expression]  # multi-binding, non-equi-join


def classify_conjuncts(scope: Scope,
                       where: Expression | None) -> ConjunctClasses:
    """Classify WHERE conjuncts into per-binding filters, equi-join
    edges, and residual predicates (shared by the planner and the
    reference evaluator)."""
    filters: dict[str, list[Expression]] = {b: [] for b in scope.bindings}
    edges: list[tuple[str, str, str, str]] = []
    residual: list[Expression] = []

    for conjunct in conjuncts(where):
        used = scope.bindings_of(conjunct)
        if len(used) <= 1:
            target = next(iter(used), scope.bindings[0])
            filters[target].append(conjunct)
            continue
        if (len(used) == 2 and isinstance(conjunct, Comparison)
                and conjunct.op == "="
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)):
            bind_a = scope.resolve(conjunct.left)
            bind_b = scope.resolve(conjunct.right)
            edges.append((bind_a, conjunct.left.column,
                          bind_b, conjunct.right.column))
            continue
        residual.append(conjunct)
    return ConjunctClasses(filters, edges, residual)


def project_statement(scope: Scope, statement: ast.SelectStmt,
                      bindings: Sequence[str], rows: Iterable[tuple],
                      result_name: str) -> Relation:
    """Evaluate the SELECT list (plain or aggregated), ORDER BY and
    DISTINCT over joined *rows* (aligned per-binding row tuples).

    *rows* may be any single-pass iterable -- in particular the lazy
    batch stream of a plan tree -- and is consumed exactly once.

    The planner's :class:`~repro.plan.plans.ProjectPlan` runs it over
    the plan tree's output; SELECT-list items, sort and group keys and
    aggregate operands are compiled once into positional closures.
    """
    if statement.has_aggregates() or statement.group_by:
        return _project_grouped(scope, statement, bindings, rows,
                                result_name)
    return _project(scope, statement, bindings, rows, result_name)


def _slot_resolver(scope: Scope, bindings: Sequence[str]):
    return compiled.slot_resolver(
        [(binding, scope.relations[binding].schema)
         for binding in bindings])


def _projection_items(scope: Scope,
                      statement: ast.SelectStmt) -> list[ast.SelectItem]:
    """The effective SELECT items (star expanded in FROM order), with
    every output and sort reference validated up-front so unknown
    aliases, unknown columns and ambiguities surface as SqlError.

    Shared by the row-path projection and the vectorized fast path
    (:mod:`repro.plan.vectorized`), so both validate identically.
    """
    if statement.star:
        # Expand in FROM order (scope.bindings), not join order: the
        # planner may reorder joins, but * output columns must not move.
        items = []
        for binding in scope.bindings:
            relation = scope.relations[binding]
            for column in relation.schema.columns:
                items.append(ast.SelectItem(
                    ColumnRef(column.name, qualifier=binding)))
    else:
        items = list(statement.items)

    for item in items:
        for ref in item.expression.references():
            scope.resolve(ref)
    for key in statement.order_by:
        for ref in key.references():
            scope.resolve(ref)
    return items


def _plain_result(scope: Scope, statement: ast.SelectStmt,
                  items: Sequence[ast.SelectItem], names: Sequence[str],
                  rows: list[tuple], result_name: str) -> Relation:
    """Column typing + DISTINCT tail of the plain projection (shared
    with the vectorized fast path so output schemas stay identical)."""
    columns = []
    for position, (name, item) in enumerate(zip(names, items)):
        datatype = None
        expression = item.expression
        if isinstance(expression, ColumnRef):
            binding = scope.resolve(expression)
            datatype = scope.relations[binding].schema.column(
                expression.column).datatype
        if datatype is None:
            sample = next((row[position] for row in rows
                           if row[position] is not None), None)
            datatype = infer_type(sample) if sample is not None else REAL
        columns.append(Column(name, datatype))
    result = Relation(RelationSchema(result_name, columns), rows,
                      validated=True)
    if statement.distinct:
        result = result.distinct()
    return result


def _project(scope: Scope, statement: ast.SelectStmt,
             bindings: Sequence[str], input_rows: Iterable[tuple],
             result_name: str) -> Relation:
    items = _projection_items(scope, statement)
    names = _output_names(items)
    rows: list[tuple] = []
    sort_values: list[tuple] = []
    resolve = _slot_resolver(scope, bindings)
    item_fns = [compiled.compile_expression(item.expression, resolve)
                for item in items]
    order_fns = [compiled.compile_expression(key, resolve)
                 for key in statement.order_by]
    for row_group in input_rows:
        rows.append(tuple(fn(row_group) for fn in item_fns))
        if order_fns:
            sort_values.append(tuple(fn(row_group) for fn in order_fns))

    if order_fns:
        rows = _sorted_rows(rows, sort_values)

    return _plain_result(scope, statement, items, names, rows, result_name)


def _sorted_rows(rows: list[tuple], sort_values: list[tuple]) -> list[tuple]:
    """*rows* ordered by their ORDER BY *sort_values*: NULLs last, ties
    in input order."""
    order = sorted(range(len(rows)),
                   key=lambda i: tuple((v is None, v if v is not None else 0)
                                       for v in sort_values[i]))
    return [rows[i] for i in order]


def _validate_grouped(scope: Scope,
                      statement: ast.SelectStmt) -> list[Expression]:
    """Up-front validation shared by the grouped projection, the
    vectorized aggregate fast path and the reference evaluator:
    star/aggregate mixing, the syntactic GROUP BY membership check, and
    resolution of every SELECT, GROUP BY and ORDER BY reference (so an
    unknown sort column raises :class:`SqlError` even over an empty
    input).  Returns the GROUP BY expressions."""
    if statement.star:
        raise SqlError("SELECT * cannot be combined with aggregates")
    group_exprs = list(statement.group_by)
    group_renders = [e.render().lower() for e in group_exprs]
    for item in statement.items:
        if item.is_aggregate():
            continue
        if item.expression.render().lower() not in group_renders:
            raise SqlError(
                f"{item.expression.render()} must appear in GROUP BY "
                "or inside an aggregate")

    for item in statement.items:
        for ref in item.expression.references():
            scope.resolve(ref)
    for expression in (*group_exprs, *statement.order_by):
        for ref in expression.references():
            scope.resolve(ref)
    return group_exprs


def _grouped_result(scope: Scope, statement: ast.SelectStmt,
                    names: Sequence[str], rows: list[tuple],
                    result_name: str) -> Relation:
    """Column typing + DISTINCT tail of the grouped projection (shared
    with the vectorized aggregate fast path)."""
    columns = []
    for position, (name, item) in enumerate(zip(names, statement.items)):
        datatype = None
        if item.is_aggregate():
            call = item.expression
            if call.op == "count":
                datatype = INTEGER
            elif call.op in ("sum", "avg"):
                datatype = REAL
            elif isinstance(call.operand, ColumnRef):
                binding = scope.resolve(call.operand)
                datatype = scope.relations[binding].schema.column(
                    call.operand.column).datatype
        elif isinstance(item.expression, ColumnRef):
            binding = scope.resolve(item.expression)
            datatype = scope.relations[binding].schema.column(
                item.expression.column).datatype
        if datatype is None:
            sample = next((row[position] for row in rows
                           if row[position] is not None), None)
            datatype = infer_type(sample) if sample is not None else REAL
        columns.append(Column(name, datatype))
    result = Relation(RelationSchema(result_name, columns), rows,
                      validated=True)
    if statement.distinct:
        result = result.distinct()
    return result


def _project_grouped(scope: Scope, statement: ast.SelectStmt,
                     bindings: Sequence[str], input_rows: Iterable[tuple],
                     result_name: str) -> Relation:
    """Aggregate projection, with optional GROUP BY.

    Non-aggregate select items must appear in the GROUP BY list
    (matched syntactically).  Without GROUP BY the whole input is one
    group and every item must be an aggregate; an empty input then
    yields the conventional single row (COUNT = 0, others NULL).
    """
    group_exprs = _validate_grouped(scope, statement)

    resolve = _slot_resolver(scope, bindings)
    groups: dict[tuple, list[tuple]] = {}
    order: list[tuple] = []
    group_fns = [compiled.compile_expression(expression, resolve)
                 for expression in group_exprs]
    for row_group in input_rows:
        key = tuple(fn(row_group) for fn in group_fns)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row_group)
    if not group_exprs and not order:
        groups[()] = []
        order.append(())

    # Compile each item once: an aggregate's operand (None for
    # COUNT(*)), else the item itself, evaluated on the group's first
    # row like the sort keys.
    item_fns = []
    for item in statement.items:
        expression = item.expression
        if item.is_aggregate():
            expression = expression.operand
        item_fns.append(None if expression is None
                        else compiled.compile_expression(expression, resolve))
    order_fns = [compiled.compile_expression(key, resolve)
                 for key in statement.order_by]

    names = _output_names(statement.items)
    rows: list[tuple] = []
    sort_values: list[tuple] = []
    for key in order:
        members = groups[key]
        out: list = []
        for item, fn in zip(statement.items, item_fns):
            if not item.is_aggregate():
                out.append(fn(members[0]))
            elif fn is None:
                out.append(len(members))
            else:
                out.append(_fold_sql_aggregate(
                    item.expression, [fn(row_group) for row_group in members]))
        rows.append(tuple(out))
        if order_fns:
            sort_values.append(tuple(fn(members[0]) if members else None
                                     for fn in order_fns))
    if order_fns:
        rows = _sorted_rows(rows, sort_values)

    return _grouped_result(scope, statement, names, rows, result_name)


def _fold_sql_aggregate(call: ast.AggregateCall, values: list):
    present = [value for value in values if value is not None]
    if call.distinct:
        present = list(dict.fromkeys(present))
    if call.op == "count":
        return len(present)
    if not present:
        return None
    if call.op == "min":
        return min(present)
    if call.op == "max":
        return max(present)
    if call.op == "sum":
        return float(sum(present))
    if call.op == "avg":
        return float(sum(present)) / len(present)
    raise SqlError(f"unknown aggregate {call.op!r}")


def _output_names(items: Sequence[ast.SelectItem]) -> list[str]:
    names: list[str] = []
    used: set[str] = set()
    for index, item in enumerate(items):
        if item.alias:
            name = item.alias
        elif isinstance(item.expression, ColumnRef):
            name = item.expression.column
        elif isinstance(item.expression, ast.AggregateCall):
            name = item.expression.op
        else:
            name = f"col{index + 1}"
        base = name
        suffix = 2
        while name.lower() in used:
            name = f"{base}_{suffix}"
            suffix += 1
        used.add(name.lower())
        names.append(name)
    return names
