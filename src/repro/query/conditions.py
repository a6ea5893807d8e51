"""Extracting inference facts from a parsed SQL query.

The inference processor consumes the query's *conditions* (attribute-vs-
constant comparisons become interval clauses) and its *join structure*
(attribute-vs-attribute equalities become attribute equivalences, which
extend the canonicalizer).  Disjunctions, negations, comparisons with
NULL or with a literal the column's values cannot be compared with, and
other forms the interval fact model cannot represent are reported as
``unused`` -- the extensional answer still honours them; the
intensional answer simply does not exploit them.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import SqlError
from repro.relational.database import Database
from repro.relational.expressions import (
    ColumnRef, Comparison, Expression, Literal, conjuncts,
)
from repro.rules.clause import AttributeRef, Clause, comparison_interval
from repro.sql.ast import SelectStmt


class QueryConditions(NamedTuple):
    """What inference can use from a query."""

    clauses: list[Clause]
    equivalences: list[tuple[AttributeRef, AttributeRef]]
    unused: list[Expression]
    output_refs: list[AttributeRef]


def extract_conditions(database: Database,
                       statement: SelectStmt) -> QueryConditions:
    """Extract inference facts from *statement*.

    Table aliases are resolved to relation names so that clause
    attributes match the rule base's references.
    """
    alias_map: dict[str, str] = {}
    for table in statement.tables:
        relation = database.relation(table.name)
        alias_map[table.binding.lower()] = relation.name
        alias_map[relation.name.lower()] = relation.name

    def resolve(ref: ColumnRef) -> AttributeRef:
        if ref.qualifier is not None:
            relation_name = alias_map.get(ref.qualifier.lower())
            if relation_name is None:
                raise SqlError(f"unknown table or alias {ref.qualifier!r}")
            return AttributeRef(relation_name, ref.column)
        hits = [name for name in dict.fromkeys(alias_map.values())
                if database.relation(name).schema.has_column(ref.column)]
        if len(hits) != 1:
            raise SqlError(
                f"column {ref.column!r} is "
                + ("unknown" if not hits else "ambiguous"))
        return AttributeRef(hits[0], ref.column)

    clauses: list[Clause] = []
    equivalences: list[tuple[AttributeRef, AttributeRef]] = []
    unused: list[Expression] = []
    for conjunct in conjuncts(statement.where):
        if not isinstance(conjunct, Comparison):
            unused.append(conjunct)
            continue
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            if conjunct.op == "=":
                equivalences.append((resolve(left), resolve(right)))
            else:
                unused.append(conjunct)
            continue
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            conjunct = conjunct.flipped()
            left, right = conjunct.left, conjunct.right
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            attribute = resolve(left)
            datatype = database.relation(attribute.relation).schema.column(
                attribute.attribute).datatype
            interval = comparison_interval(conjunct.op, datatype,
                                           right.value)
            if interval is None:
                unused.append(conjunct)
            else:
                clauses.append(Clause(attribute, interval))
            continue
        unused.append(conjunct)

    output_refs: list[AttributeRef] = []
    for item in statement.items:
        if isinstance(item.expression, ColumnRef):
            output_refs.append(resolve(item.expression))
    return QueryConditions(clauses, equivalences, unused, output_refs)
