"""Predicate/expression compilation to positional closures.

The interpreter in :mod:`repro.relational.expressions` evaluates a tree
against an :class:`Environment`, which costs one environment object (and
one dict binding per qualifier) per row.  On the execution hot path --
pushed-down filters, residual join predicates, SELECT-list evaluation --
the schema is fixed for the whole query, so every column reference can
be resolved to a tuple position *once* and the tree collapsed into a
closure over positional row access.  That is what this module does::

    test = compile_expression(expr, schema_resolver(schema, {"emp"}))
    rows = [row for row in relation.rows if test(row)]

Compiled closures reproduce the interpreter's semantics exactly:
comparisons with a NULL operand are false, arithmetic over NULL is NULL,
type errors raise :class:`~repro.errors.ExpressionError` with the same
message, ``and``/``or`` short-circuit left to right.  The one visible
difference is *when* resolution errors surface: the interpreter raises
on the first row evaluated, the compiler at compile time (so even over
an empty relation a predicate naming an unknown column is rejected).

Compilation is structural over the eight node types of
:mod:`repro.relational.expressions`, which are all the parser builds;
the interpreted evaluator is the reference the planner is tested
against (:mod:`repro.sql.reference`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.errors import ExpressionError
from repro.relational.expressions import (
    _COMPARISONS, And, Arithmetic, Comparison, ColumnRef, Expression,
    IsNull, Literal, Not, Or,
)
from repro.relational.schema import RelationSchema

#: A resolver maps a ColumnRef to a getter closure ``row_like -> value``.
Resolver = Callable[[ColumnRef], Callable[[Any], Any]]


def schema_resolver(schema: RelationSchema,
                    qualifiers: Iterable[str] = ()) -> Resolver:
    """Resolver for single-relation rows (plain row tuples).

    *qualifiers* are the accepted qualifier spellings besides
    unqualified references (the relation name, a range variable, a FROM
    alias -- whatever the matching :class:`Environment` would bind).
    Resolution failures raise :class:`ExpressionError` with the
    interpreter's messages.
    """
    accepted = {q.lower() for q in qualifiers}

    def resolve(ref: ColumnRef) -> Callable[[Any], Any]:
        if ref.qualifier is not None:
            if ref.qualifier.lower() not in accepted:
                raise ExpressionError(
                    f"unknown range variable or relation {ref.qualifier!r}")
            if not schema.has_column(ref.column):
                raise ExpressionError(
                    f"{ref.qualifier} has no column {ref.column!r}")
        elif not schema.has_column(ref.column):
            raise ExpressionError(f"unknown column {ref.column!r}")
        position = schema.position(ref.column)
        return lambda row: row[position]

    return resolve


def slot_resolver(schemas: Sequence[tuple[str, RelationSchema]]) -> Resolver:
    """Resolver for aligned per-binding row tuples (the join pipeline's
    intermediate shape): element ``i`` of the row-like object is the row
    of ``schemas[i]``.  Mirrors :meth:`Environment.lookup`: qualified
    references name their binding, unqualified ones must be unambiguous
    across all bindings."""
    by_name = {binding.lower(): (slot, schema)
               for slot, (binding, schema) in enumerate(schemas)}

    def resolve(ref: ColumnRef) -> Callable[[Any], Any]:
        if ref.qualifier is not None:
            entry = by_name.get(ref.qualifier.lower())
            if entry is None:
                raise ExpressionError(
                    f"unknown range variable or relation {ref.qualifier!r}")
            slot, schema = entry
            if not schema.has_column(ref.column):
                raise ExpressionError(
                    f"{ref.qualifier} has no column {ref.column!r}")
            position = schema.position(ref.column)
            return lambda rows: rows[slot][position]
        hits = [(slot, schema) for slot, (_binding, schema)
                in enumerate(schemas) if schema.has_column(ref.column)]
        if not hits:
            raise ExpressionError(f"unknown column {ref.column!r}")
        if len(hits) > 1:
            raise ExpressionError(f"ambiguous column {ref.column!r}")
        slot, schema = hits[0]
        position = schema.position(ref.column)
        return lambda rows: rows[slot][position]

    return resolve


def compile_expression(expression: Expression,
                       resolve: Resolver) -> Callable[[Any], Any]:
    """Compile *expression* into a closure over positional row access.

    Raises :class:`TypeError` for node types it does not know and
    whatever the resolver raises for unresolvable column references.
    """
    if isinstance(expression, Literal):
        value = expression.value
        return lambda _row: value
    if isinstance(expression, ColumnRef):
        return resolve(expression)
    if isinstance(expression, Comparison):
        left = compile_expression(expression.left, resolve)
        right = compile_expression(expression.right, resolve)
        compare = _COMPARISONS[expression.op]

        def compiled_comparison(row):
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return False
            try:
                return compare(a, b)
            except TypeError as exc:
                raise ExpressionError(
                    f"type error in {expression.render()}: {exc}") from exc

        return compiled_comparison
    if isinstance(expression, Arithmetic):
        left = compile_expression(expression.left, resolve)
        right = compile_expression(expression.right, resolve)
        operate = Arithmetic.OPS[expression.op]

        def compiled_arithmetic(row):
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            try:
                return operate(a, b)
            except (TypeError, ZeroDivisionError) as exc:
                raise ExpressionError(
                    f"cannot evaluate {expression.render()}: {exc}") from exc

        return compiled_arithmetic
    if isinstance(expression, IsNull):
        operand = compile_expression(expression.operand, resolve)
        if expression.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None
    if isinstance(expression, And):
        parts = [compile_expression(part, resolve)
                 for part in expression.parts]
        return lambda row: all(part(row) for part in parts)
    if isinstance(expression, Or):
        parts = [compile_expression(part, resolve)
                 for part in expression.parts]
        return lambda row: any(part(row) for part in parts)
    if isinstance(expression, Not):
        operand = compile_expression(expression.operand, resolve)
        return lambda row: not operand(row)
    raise TypeError(f"cannot compile {type(expression).__name__}")


__all__ = [
    "Resolver",
    "compile_expression",
    "schema_resolver",
    "slot_resolver",
]
