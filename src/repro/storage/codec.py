"""JSON codecs for WAL records: cell values, rows and schemas.

Row cells are the scalar types the relational layer admits (int, float,
str, date, NULL).  JSON covers all but :class:`datetime.date`, which is
tagged as ``{"d": "YYYY-MM-DD"}``, and the non-finite floats, tagged as
``{"f": "nan"}``, ``{"f": "inf"}`` and ``{"f": "-inf"}`` (JSON has no
literal for them: the stdlib writes a non-standard token and orjson
writes ``null``).  A dict can never be a legal cell value, so the
tagging is unambiguous.  Schemas round-trip through the
same rendered type syntax the text serialization uses (``char[7]``,
``integer``, ...), so the WAL and the snapshot format agree on types by
construction.
"""

from __future__ import annotations

import datetime
import math
from typing import Any, Sequence

from repro.errors import CorruptWalRecord
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema
from repro.relational.textio import _parse_type


#: The non-finite floats by their tag text (``repr`` of each).
_NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def encode_value(value: Any) -> Any:
    if isinstance(value, datetime.date):
        return {"d": value.isoformat()}
    if isinstance(value, float) and not math.isfinite(value):
        return {"f": repr(value)}
    return value


def decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        try:
            if "f" in value:
                return _NON_FINITE[value["f"]]
            return datetime.date.fromisoformat(value["d"])
        except (KeyError, TypeError, ValueError) as error:
            raise CorruptWalRecord(
                f"bad tagged value {value!r}") from error
    return value


def encode_row(row: Sequence[Any]) -> list:
    # Dates and non-finite floats are the only values needing a tagged
    # encoding; rows without one (the overwhelming majority) skip the
    # per-value dispatch.
    if any(isinstance(value, datetime.date)
           or (isinstance(value, float) and not math.isfinite(value))
           for value in row):
        return [encode_value(value) for value in row]
    return list(row)


def schema_needs_row_encoding(schema: RelationSchema) -> bool:
    """Whether rows of *schema* can contain values that JSON cannot
    carry verbatim (dates, and the non-finite REALs).  Cached on the
    schema object -- this sits on the per-insert WAL hot path."""
    cached = getattr(schema, "_wal_needs_row_encoding", None)
    if cached is None:
        from repro.relational.datatypes import DateType, RealType
        cached = any(isinstance(column.datatype, (DateType, RealType))
                     for column in schema.columns)
        try:
            schema._wal_needs_row_encoding = cached
        except AttributeError:
            pass  # slotted schema: recompute next time
    return cached


def decode_row(row: Sequence[Any]) -> tuple:
    return tuple(decode_value(value) for value in row)


def encode_schema(schema: RelationSchema) -> dict:
    return {
        "name": schema.name,
        "columns": [[column.name, column.datatype.render()]
                    for column in schema.columns],
        "key": list(schema.key) if schema.key else None,
    }


def decode_schema(payload: dict) -> RelationSchema:
    try:
        columns = [Column(name, _parse_type(type_text))
                   for name, type_text in payload["columns"]]
        return RelationSchema(payload["name"], columns,
                              key=payload.get("key"))
    except (KeyError, TypeError, ValueError) as error:
        raise CorruptWalRecord(
            f"bad schema payload {payload!r}") from error


def encode_relation(relation: Relation) -> dict:
    encode = (encode_row if schema_needs_row_encoding(relation.schema)
              else list)
    return {"schema": encode_schema(relation.schema),
            "rows": [encode(row) for row in relation.rows]}


def decode_relation(payload: dict) -> Relation:
    schema = decode_schema(payload["schema"])
    rows = [decode_row(row) for row in payload.get("rows", ())]
    return Relation(schema, rows, validated=True)
