"""The database facade: a catalog plus DDL/DML convenience methods.

This is the object the rest of the system passes around -- the "EDB"
(extension database) of the paper.  The intension (rules, schema
knowledge) lives in the data dictionary; see :mod:`repro.dictionary`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.relational import algebra
from repro.relational.catalog import Catalog
from repro.relational.expressions import Expression
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema
from repro.relational.datatypes import DataType


class Database:
    """An in-memory relational database."""

    def __init__(self, name: str = "db"):
        self.name = name
        self.catalog = Catalog()
        #: the attached durable StorageEngine, if any (set by the engine
        #: itself on attach; None means purely in-memory operation).
        self.storage = None

    # -- DDL ----------------------------------------------------------------

    def create_relation(self, schema: RelationSchema,
                        rows: Iterable[Sequence[Any]] = (),
                        replace: bool = False) -> Relation:
        relation = Relation(schema, rows)
        return self.catalog.register(relation, replace=replace)

    def create(self, name: str,
               columns: Sequence[tuple[str, DataType]],
               rows: Iterable[Sequence[Any]] = (),
               key: Sequence[str] | None = None,
               replace: bool = False) -> Relation:
        """Shorthand DDL: ``db.create("T", [("A", INTEGER)], rows)``."""
        schema = RelationSchema(
            name, [Column(cname, ctype) for cname, ctype in columns], key=key)
        return self.create_relation(schema, rows, replace=replace)

    def drop(self, name: str) -> None:
        self.catalog.drop(name)

    # -- access ----------------------------------------------------------------

    def relation(self, name: str) -> Relation:
        return self.catalog.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.catalog

    def relations(self) -> list[Relation]:
        return list(self.catalog)

    def total_rows(self) -> int:
        return sum(len(relation) for relation in self.catalog)

    # -- DML -----------------------------------------------------------------

    def insert(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        return self.relation(name).insert_many(rows)

    def delete(self, name: str,
               predicate: Callable[[dict[str, Any]], bool]) -> int:
        relation = self.relation(name)
        view = relation.row_view()
        return relation.delete_where(
            lambda row: predicate(view.bind(row)))

    # -- queries ----------------------------------------------------------------

    def select(self, name: str, predicate: Expression) -> Relation:
        return algebra.select(self.relation(name), predicate)

    def project(self, name: str, columns: Sequence[str],
                distinct: bool = False) -> Relation:
        return algebra.project(self.relation(name), columns,
                               distinct=distinct)

    def join(self, left: str, right: str,
             pairs: Sequence[tuple[str, str]]) -> Relation:
        return algebra.equijoin(self.relation(left), self.relation(right),
                                pairs)

    # -- maintenance ----------------------------------------------------------

    def copy(self, name: str | None = None) -> "Database":
        """Deep copy (independent rows; shared immutable schemas)."""
        clone = Database(name or self.name)
        for relation in self.catalog:
            clone.catalog.register(relation.copy())
        return clone

    def render(self) -> str:
        """Multi-relation dump in the style of the paper's Appendix C."""
        blocks = []
        for relation in self.catalog:
            header = f"Relation {relation.name}"
            blocks.append(f"{header}\n{relation.render()}")
        return "\n\n".join(blocks)

    def __repr__(self) -> str:
        return (f"Database<{self.name}: {len(self.catalog)} relations, "
                f"{self.total_rows()} rows>")
