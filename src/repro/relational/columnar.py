"""Columnar relation storage: typed per-column arrays with dictionary
encoding for low-cardinality strings.

Rows stay the *canonical* representation -- every mutation path in
:class:`~repro.relational.relation.Relation` still goes through the row
list, so journaling, transaction rollback and every row-oriented
consumer keep exact semantics.  A :class:`ColumnStore` is a
version-validated cache over that row list: one ``zip(*rows)``
transpose builds per-column value sequences, string columns whose
cardinality stays low are dictionary-encoded (``int32`` code arrays +
a value table), and numeric columns lazily materialize a numpy array
when numpy is importable and the column is null-free.  Insert-only DML
appends into a live store in place (row indices never move, so paused
streams over a store snapshot stay correct); deletes, updates and
wholesale restores drop the store and the next consumer rebuilds.

numpy is strictly optional: every kernel in
:mod:`repro.relational.kernels` has a pure-Python path over the same
store, so the tier-1 suite runs dependency-free.  The whole columnar
path is gated on ``REPRO_COLUMNAR`` (on by default); an unrecognized
spelling falls back *loudly* -- one :class:`UserWarning` per distinct
bad value, mirroring ``REPRO_BATCH_SIZE``.
"""

from __future__ import annotations

import os
from array import array
from typing import Any, Iterable, Sequence

from repro.relational.datatypes import CharType, DataType
from repro.relational.schema import RelationSchema

try:  # optional fast path; the pure-Python kernels are always available
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the FORCE knob
    _np = None

#: ``None`` when numpy is unavailable (or disabled for tests via
#: :func:`set_numpy_enabled`); the kernels branch on this once per call.
HAS_NUMPY = _np is not None

#: Spellings of ``REPRO_COLUMNAR`` that disable the columnar path
#: process-wide (same set the cache knob accepts).
_OFF_VALUES = frozenset({"off", "0", "false", "no"})
_ON_VALUES = frozenset({"", "on", "1", "true", "yes"})

#: Session/test override: ``True``/``False`` wins over the environment,
#: ``None`` defers to ``REPRO_COLUMNAR``.  The differential harness uses
#: this to pin columnar on/off per engine configuration.
FORCED: bool | None = None

#: Bad ``REPRO_COLUMNAR`` spellings already warned about (warn once per
#: distinct value, not once per query).
_warned_values: set[str] = set()

#: A dictionary column bails out to plain storage once it would hold
#: more distinct values than this (high-cardinality strings gain nothing
#: from encoding and the value table would just burn memory).
DICT_MAX_CARDINALITY = 4096

#: Code stored for NULL in a dictionary column's code array.
NULL_CODE = -1


def enabled() -> bool:
    """Whether the columnar path is on: :data:`FORCED` when set,
    otherwise ``REPRO_COLUMNAR`` (default on; unrecognized values warn
    once and keep the default, like ``REPRO_BATCH_SIZE``)."""
    if FORCED is not None:
        return FORCED
    raw = os.environ.get("REPRO_COLUMNAR", "")
    value = raw.strip().lower()
    if value in _OFF_VALUES:
        return False
    if value in _ON_VALUES:
        return True
    if raw not in _warned_values:
        import warnings
        _warned_values.add(raw)
        warnings.warn(
            f"REPRO_COLUMNAR={raw!r} is not a recognized switch "
            f"(on/off); keeping the columnar path enabled", stacklevel=2)
    return True


def set_enabled(value: bool | None) -> None:
    """Set (or clear, with ``None``) the :data:`FORCED` override."""
    global FORCED
    FORCED = value


def set_numpy_enabled(value: bool) -> None:
    """Force the pure-Python kernels even when numpy is importable
    (tests cross-check both paths on one interpreter).  Passing ``True``
    restores numpy only if it was actually imported."""
    global HAS_NUMPY
    HAS_NUMPY = bool(value) and _np is not None


def numpy_module():
    """The numpy module when the fast path is active, else ``None``."""
    return _np if HAS_NUMPY else None


class DictionaryColumn:
    """Dictionary-encoded string column: an ``int32`` code per row
    (:data:`NULL_CODE` for NULL) plus the table of distinct values in
    first-appearance order.

    ``codes``/``values`` grow append-only, so codes handed out earlier
    stay valid across DML appends -- the code space only ever grows.
    """

    __slots__ = ("codes", "values", "_code_of", "_np_codes", "_decoded")

    def __init__(self) -> None:
        self.codes = array("i")
        self.values: list[str] = []
        self._code_of: dict[str, int] = {}
        self._np_codes = None
        self._decoded = None

    def append(self, value: Any) -> None:
        if value is None:
            self.codes.append(NULL_CODE)
        else:
            code = self._code_of.get(value)
            if code is None:
                code = len(self.values)
                self._code_of[value] = code
                self.values.append(value)
            self.codes.append(code)
        self._np_codes = None
        self._decoded = None

    @property
    def cardinality(self) -> int:
        """Distinct non-NULL values seen so far."""
        return len(self.values)

    def code_for(self, value: Any) -> int | None:
        """The code of *value*, or ``None`` when it never occurred."""
        return self._code_of.get(value)

    def decode(self) -> list:
        """The raw values back, in row order (round-trip inverse of the
        encoding).  Cached until the next append -- repeated gathers
        (column-at-a-time projection, hash-join probes) must not
        pay one full decode each.  Treat the returned list as
        read-only."""
        if self._decoded is None:
            values = self.values
            self._decoded = [None if code < 0 else values[code]
                             for code in self.codes]
        return self._decoded

    def np_codes(self):
        """The code array as an int32 numpy array (cached), or ``None``
        without numpy."""
        if not HAS_NUMPY:
            return None
        if self._np_codes is None:
            # A copy, not a buffer view: a view would pin the array's
            # buffer and break append-time resizing.
            self._np_codes = _np.array(self.codes, dtype=_np.int32)
        return self._np_codes


class PlainColumn:
    """A column stored as a plain value list, with a lazily built numpy
    array when the values are null-free and numerically representable
    (the array is the kernels' vector fast path; ``None`` means use the
    list)."""

    __slots__ = ("values", "datatype", "_array", "_array_stale")

    def __init__(self, values: Iterable[Any], datatype: DataType):
        self.values = list(values)
        self.datatype = datatype
        self._array = None
        self._array_stale = True

    def append(self, value: Any) -> None:
        self.values.append(value)
        self._array_stale = True

    def array(self):
        """numpy array of the values, or ``None`` when numpy is off,
        the column holds NULLs, or a value does not fit the dtype
        (arbitrary-precision ints)."""
        if not HAS_NUMPY or not self.datatype.is_numeric():
            return None
        if self._array_stale:
            self._array_stale = False
            if any(value is None for value in self.values):
                # Checked explicitly: float64 conversion would silently
                # turn None into NaN, breaking the "a built array proves
                # no NULLs" contract the kernels rely on.
                self._array = None
            else:
                try:
                    self._array = _np.asarray(
                        self.values,
                        dtype=_np.float64 if self.datatype.name == "real"
                        else _np.int64)
                except (TypeError, ValueError, OverflowError):
                    self._array = None
        return self._array


class ColumnStore:
    """Columnar snapshot of a relation's rows.

    ``rows`` is the aligned row-tuple snapshot the store was built from
    (a pointer copy); selection vectors produced by the kernels index
    into it, so gathering survivors back into row form is one list
    comprehension.  ``version`` is stamped by
    :meth:`Relation.column_store` for staleness checks.
    """

    __slots__ = ("schema", "rows", "columns", "version")

    def __init__(self, schema: RelationSchema,
                 rows: Sequence[tuple]) -> None:
        self.schema = schema
        self.rows: list[tuple] = list(rows)
        self.version = -1
        if self.rows:
            raw_columns = list(zip(*self.rows))
        else:
            raw_columns = [() for _ in schema.columns]
        self.columns: list[DictionaryColumn | PlainColumn] = []
        for column, values in zip(schema.columns, raw_columns):
            self.columns.append(_build_column(column.datatype, values))

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> DictionaryColumn | PlainColumn:
        """The column named *name* (case-insensitive;
        :class:`~repro.errors.SchemaError` names the attribute when
        unknown)."""
        return self.columns[self.schema.position(name)]

    def values(self, position: int) -> list:
        """Raw values of the column at *position* (decoded for
        dictionary columns), in row order."""
        column = self.columns[position]
        if isinstance(column, DictionaryColumn):
            return column.decode()
        return column.values

    def gather(self, position: int, selection) -> list:
        """Values of the column at *position* for the selected row
        indices (``None`` selection = every row)."""
        values = self.values(position)
        if selection is None:
            return list(values)
        return [values[i] for i in selection]

    def append_rows(self, rows: Iterable[tuple]) -> None:
        """Fold freshly inserted rows into the store in place.  Only
        appends are incremental -- indices of existing rows never move,
        so selection vectors and paused streams over :attr:`rows` stay
        valid."""
        for row in rows:
            self.rows.append(row)
            for column, value in zip(self.columns, row):
                column.append(value)


def _build_column(datatype: DataType,
                  values: Sequence[Any]) -> DictionaryColumn | PlainColumn:
    if isinstance(datatype, CharType):
        dictionary = DictionaryColumn()
        for value in values:
            dictionary.append(value)
            if dictionary.cardinality > DICT_MAX_CARDINALITY:
                return PlainColumn(values, datatype)
        return dictionary
    return PlainColumn(values, datatype)


__all__ = [
    "ColumnStore",
    "DICT_MAX_CARDINALITY",
    "DictionaryColumn",
    "FORCED",
    "HAS_NUMPY",
    "NULL_CODE",
    "PlainColumn",
    "enabled",
    "numpy_module",
    "set_enabled",
    "set_numpy_enabled",
]
