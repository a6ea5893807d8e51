"""Relational-algebra operators over :class:`~repro.relational.relation.Relation`.

These are the operations the paper's rule-induction algorithm needs
("Rule induction ... uses the relational operations to generate semantic
rules"): selection, projection (with and without duplicate elimination),
natural/equi-join, cross product, sorting, union, difference,
intersection, renaming and simple grouping.

All operators are pure: they return new relations and never mutate their
inputs.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.errors import SchemaError
from repro.relational import compiled
from repro.relational.expressions import Expression
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema


def select(relation: Relation, predicate: Expression,
           qualifier: str | None = None) -> Relation:
    """sigma: rows of *relation* satisfying *predicate*.

    The predicate tree is compiled once into a positional closure (see
    :mod:`repro.relational.compiled`); no per-row environment or dict is
    allocated.
    """
    qualifiers = [relation.schema.name]
    if qualifier:
        qualifiers.append(qualifier)
    test = compiled.compile_expression(
        predicate, compiled.schema_resolver(relation.schema, qualifiers))
    rows = [row for row in relation.rows if test(row)]
    return Relation(relation.schema, rows, validated=True)


def select_where(relation: Relation,
                 predicate: Callable[[dict[str, Any]], bool]) -> Relation:
    """Selection by a Python callable over the row-as-mapping.

    The callable receives a reusable :class:`~repro.relational.relation.
    RowView` (mapping interface, positional access underneath) instead
    of a freshly built dict per row; copy with ``dict(r)`` to retain a
    row beyond the callback.
    """
    view = relation.row_view()
    rows = [row for row in relation.rows if predicate(view.bind(row))]
    return Relation(relation.schema, rows, validated=True)


def project(relation: Relation, columns: Sequence[str],
            distinct: bool = False, new_name: str | None = None) -> Relation:
    """pi: keep only *columns* (bag semantics unless *distinct*)."""
    schema = relation.schema.project(columns, new_name)
    positions = [relation.schema.position(c) for c in columns]
    rows: Iterable[tuple] = (tuple(row[p] for p in positions)
                             for row in relation)
    out = Relation(schema, rows, validated=True)
    return out.distinct() if distinct else out


def rename(relation: Relation, new_name: str,
           column_mapping: dict[str, str] | None = None) -> Relation:
    """rho: rename the relation and optionally its columns."""
    schema = relation.schema.rename(new_name)
    if column_mapping:
        schema = schema.renamed_columns(column_mapping).rename(new_name)
    return Relation(schema, list(relation.rows), validated=True)


def cross(left: Relation, right: Relation,
          new_name: str | None = None) -> Relation:
    """Cartesian product."""
    schema = left.schema.concat(
        right.schema, new_name or f"{left.name}_x_{right.name}")
    rows = [l_row + r_row for l_row in left for r_row in right]
    return Relation(schema, rows, validated=True)


def equijoin(left: Relation, right: Relation,
             pairs: Sequence[tuple[str, str]],
             new_name: str | None = None) -> Relation:
    """Equi-join on (left_column, right_column) *pairs*, hash-based.

    NULL join keys never match (consistent with comparison semantics).
    """
    if not pairs:
        raise SchemaError("equijoin needs at least one column pair")
    left_positions = [left.schema.position(a) for a, _ in pairs]
    right_positions = [right.schema.position(b) for _, b in pairs]
    buckets: dict[tuple, list[tuple]] = {}
    for r_row in right:
        key = tuple(r_row[p] for p in right_positions)
        if any(value is None for value in key):
            continue
        buckets.setdefault(key, []).append(r_row)
    schema = left.schema.concat(
        right.schema, new_name or f"{left.name}_{right.name}")
    rows = []
    for l_row in left:
        key = tuple(l_row[p] for p in left_positions)
        if any(value is None for value in key):
            continue
        for r_row in buckets.get(key, ()):
            rows.append(l_row + r_row)
    return Relation(schema, rows, validated=True)


def natural_join(left: Relation, right: Relation,
                 new_name: str | None = None) -> Relation:
    """Join on all same-named columns (at least one required)."""
    shared = [c.name for c in left.schema.columns
              if right.schema.has_column(c.name)]
    if not shared:
        raise SchemaError(
            f"{left.name} and {right.name} share no columns to join on")
    return equijoin(left, right, [(c, c) for c in shared], new_name)


def union(left: Relation, right: Relation) -> Relation:
    """Bag union (schemas must be position-compatible)."""
    _check_compatible(left, right)
    return Relation(left.schema, list(left.rows) + list(right.rows),
                    validated=True)


def difference(left: Relation, right: Relation) -> Relation:
    """Bag difference: each right row cancels one matching left row."""
    _check_compatible(left, right)
    from collections import Counter
    budget = Counter(right.rows)
    rows = []
    for row in left:
        if budget[row] > 0:
            budget[row] -= 1
        else:
            rows.append(row)
    return Relation(left.schema, rows, validated=True)


def intersection(left: Relation, right: Relation) -> Relation:
    """Bag intersection (minimum multiplicity)."""
    _check_compatible(left, right)
    from collections import Counter
    budget = Counter(right.rows)
    rows = []
    for row in left:
        if budget[row] > 0:
            budget[row] -= 1
            rows.append(row)
    return Relation(left.schema, rows, validated=True)


def sort(relation: Relation, columns: Sequence[str],
         descending: bool = False) -> Relation:
    """Stable sort by *columns* (NULLs first)."""
    return relation.sorted_by(*columns, descending=descending)


def distinct(relation: Relation) -> Relation:
    return relation.distinct()


def group_by(relation: Relation, keys: Sequence[str],
             aggregates: dict[str, tuple[str, str]],
             new_name: str | None = None) -> Relation:
    """Grouping with aggregates.

    *aggregates* maps output-column name to ``(function, input_column)``
    where function is one of ``count``, ``min``, ``max``, ``sum``,
    ``avg``.  ``count`` ignores its input column and counts rows.
    """
    from repro.relational.datatypes import INTEGER, REAL

    key_positions = [relation.schema.position(k) for k in keys]
    groups: dict[tuple, list[tuple]] = {}
    order: list[tuple] = []
    for row in relation:
        key = tuple(row[p] for p in key_positions)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)

    columns = [relation.schema.column(k) for k in keys]
    for out_name, (function, _input) in aggregates.items():
        datatype = INTEGER if function == "count" else REAL
        if function in ("min", "max"):
            datatype = relation.schema.column(_input).datatype
        columns.append(Column(out_name, datatype))
    schema = RelationSchema(new_name or f"{relation.name}_grouped", columns)

    rows = []
    for key in order:
        members = groups[key]
        out = list(key)
        for _out_name, (function, input_column) in aggregates.items():
            if function == "count":
                out.append(len(members))
                continue
            position = relation.schema.position(input_column)
            values = [m[position] for m in members if m[position] is not None]
            if not values:
                out.append(None)
            elif function == "min":
                out.append(min(values))
            elif function == "max":
                out.append(max(values))
            elif function == "sum":
                out.append(float(sum(values)))
            elif function == "avg":
                out.append(float(sum(values)) / len(values))
            else:
                raise SchemaError(f"unknown aggregate {function!r}")
        rows.append(tuple(out))
    return Relation(schema, rows, validated=True)


def _check_compatible(left: Relation, right: Relation) -> None:
    if left.schema.arity != right.schema.arity:
        raise SchemaError(
            f"{left.name} and {right.name} have different arities")
    for l_col, r_col in zip(left.schema.columns, right.schema.columns):
        if type(l_col.datatype) is not type(r_col.datatype):
            raise SchemaError(
                f"column {l_col.name} of {left.name} and column "
                f"{r_col.name} of {right.name} have incompatible types")


__all__ = [
    "select", "select_where", "project", "rename", "cross", "equijoin",
    "natural_join", "union", "difference", "intersection", "sort",
    "distinct", "group_by",
]
