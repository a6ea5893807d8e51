"""In-memory relational engine.

This package is the substrate the rest of the reproduction runs on.  The
original prototype was built in EQUEL/C on top of INGRES; here an
equivalent relational engine is provided: typed columns, relation values,
a relational-algebra layer, and a catalog/database facade.

Public surface::

    from repro.relational import (
        Database, Catalog, Relation, RelationSchema, Column,
        INTEGER, REAL, DATE, char,
    )

    db = Database()
    db.create_relation(RelationSchema(
        "EMP",
        [Column("Name", char(20)), Column("Age", INTEGER)],
        key=["Name"],
    ))
    db.insert("EMP", [("alice", 41), ("bob", 38)])
"""

from repro.relational.datatypes import (
    CharType,
    DataType,
    DateType,
    IntegerType,
    RealType,
    INTEGER,
    REAL,
    DATE,
    char,
    infer_type,
)
from repro.relational.schema import Column, RelationSchema
from repro.relational.relation import Relation, RowView
from repro.relational.catalog import Catalog
from repro.relational.database import Database
from repro.relational.indexes import HashIndex, SortedIndex

__all__ = [
    "CharType",
    "DataType",
    "DateType",
    "IntegerType",
    "RealType",
    "INTEGER",
    "REAL",
    "DATE",
    "char",
    "infer_type",
    "Column",
    "RelationSchema",
    "Relation",
    "RowView",
    "Catalog",
    "Database",
    "HashIndex",
    "SortedIndex",
]
