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
when numpy is importable and the column is null-free.  The store also
holds the sorted indexes built on its columns.  Live INSERT, DELETE and
UPDATE patch the store in place, keeping the decoded lists, numpy
arrays and indexes already built current; a delete or update replaces
the row list instead of editing it, so a stream that took the list and
its positions earlier serves that snapshot to the end.  Rollback undo,
WAL replay and wholesale restores leave the store stale and the next
consumer rebuilds it.

numpy is strictly optional: every kernel in
:mod:`repro.relational.kernels` has a pure-Python path over the same
store, so the tier-1 suite runs dependency-free.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Any, Iterable, Sequence

from repro import obs
from repro.relational.datatypes import CharType, DataType
from repro.relational.schema import RelationSchema

try:  # optional fast path; the pure-Python kernels are always available
    import numpy as _np
except ImportError:  # pragma: no cover - the CI leg without numpy
    _np = None

#: ``None`` when numpy is unavailable (or disabled for tests via
#: :func:`set_numpy_enabled`); the kernels branch on this once per call.
HAS_NUMPY = _np is not None

#: A dictionary column bails out to plain storage once it would hold
#: more distinct values than this (high-cardinality strings gain nothing
#: from encoding and the value table would just burn memory).
DICT_MAX_CARDINALITY = 4096

#: Code stored for NULL in a dictionary column's code array.
NULL_CODE = -1

#: An INSERT or UPDATE of more rows than this drops the store's indexes
#: (the next probe rebuilds them) instead of patching them entry by
#: entry: each entry moves the rest of the index over by one.
INDEX_PATCH_LIMIT = 64


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

    ``values`` grows append-only, so codes handed out earlier stay
    valid across DML -- the code space only ever grows.  After a delete
    or update a value may be held by no row: ``cardinality`` counts the
    values ever seen, not the values present.
    """

    __slots__ = ("codes", "values", "_code_of", "_np_codes", "_decoded")

    def __init__(self) -> None:
        self.codes = array("i")
        self.values: list[str] = []
        self._code_of: dict[str, int] = {}
        self._np_codes = None
        self._decoded = None

    def append(self, value: Any) -> None:
        """Append one value (a build step: drops the caches)."""
        self.codes.append(self._code(value))
        self._np_codes = None
        self._decoded = None

    def _code(self, value: Any) -> int:
        """The code of *value*, extending the value table when new."""
        if value is None:
            return NULL_CODE
        code = self._code_of.get(value)
        if code is None:
            code = self._code_of[value] = len(self.values)
            self.values.append(value)
        return code

    def extend(self, values: list) -> None:
        """Append *values*, keeping the decoded list and codes current."""
        start = len(self.codes)
        self.codes.extend(self._code(value) for value in values)
        if self._decoded is not None:
            self._decoded.extend(values)
        if self._np_codes is not None:
            self._np_codes = _np.concatenate(
                (self._np_codes, _np.array(self.codes[start:],
                                           dtype=_np.int32)))

    def delete(self, keep: list[bool], positions: list[int]) -> None:
        """Drop the rows at *positions*, where ``keep`` is False."""
        self.codes = array("i", compress(self.codes, keep))
        if self._decoded is not None:
            self._decoded = list(compress(self._decoded, keep))
        if self._np_codes is not None:
            self._np_codes = _np.delete(self._np_codes, positions)

    def set(self, position: int, value: Any) -> None:
        """Write *value* at *position*, in place."""
        code = self.codes[position] = self._code(value)
        if self._decoded is not None:
            self._decoded[position] = value
        if self._np_codes is not None:
            self._np_codes[position] = code

    @property
    def cardinality(self) -> int:
        """Distinct non-NULL values seen so far, held by a row or not."""
        return len(self.values)

    def code_for(self, value: Any) -> int | None:
        """The code of *value*, or ``None`` when it never occurred."""
        return self._code_of.get(value)

    def decode(self) -> list:
        """The raw values back, in row order (round-trip inverse of the
        encoding).  Cached and kept current by DML patches -- repeated
        gathers (column-at-a-time projection, hash-join probes) must not
        pay one full decode each.  Treat the returned list as
        read-only."""
        if self._decoded is None:
            values = self.values
            self._decoded = [None if code < 0 else values[code]
                             for code in self.codes]
        return self._decoded

    def take(self, selection: Sequence[int]) -> "DictionaryColumn":
        """The codes at *selection*, sharing this column's value table
        (read-only: the result is never appended to)."""
        taken, codes = DictionaryColumn(), self.codes
        taken.codes = array("i", [codes[i] for i in selection])
        taken.values, taken._code_of = self.values, self._code_of
        return taken

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

    def extend(self, values: list) -> None:
        """Append *values*, extending a built numpy array when they fit
        its dtype (else it is rebuilt on use)."""
        self.values.extend(values)
        if self._array is not None:
            chunk = self._as_array(values)
            if chunk is None:
                self._array, self._array_stale = None, True
            else:
                self._array = _np.concatenate((self._array, chunk))

    def delete(self, keep: list[bool], positions: list[int]) -> None:
        """Drop the rows at *positions*, where ``keep`` is False."""
        self.values = list(compress(self.values, keep))
        if self._array is not None:
            self._array = _np.delete(self._array, positions)
        else:
            self._array_stale = True  # the NULLs may have gone

    def set(self, position: int, value: Any) -> None:
        """Write *value* at *position*, in place; an array it does not
        fit, or none (it may have replaced the NULL), is rebuilt on use."""
        self.values[position] = value
        if value is not None and self._array is not None:
            try:
                self._array[position] = value
                return
            except (TypeError, ValueError, OverflowError):
                pass
        self._array, self._array_stale = None, True

    def take(self, selection: Sequence[int]) -> "PlainColumn":
        """The values at *selection* as a column of their own."""
        values = self.values
        return PlainColumn([values[i] for i in selection], self.datatype)

    def array(self):
        """numpy array of the values, or ``None`` when numpy is off,
        the column holds NULLs, or a value does not fit the dtype
        (arbitrary-precision ints)."""
        if not HAS_NUMPY or not self.datatype.is_numeric():
            return None
        if self._array_stale:
            self._array_stale = False
            self._array = self._as_array(self.values)
        return self._array

    def _as_array(self, values: list):
        if any(value is None for value in values):
            # Checked explicitly: float64 conversion would silently
            # turn None into NaN, breaking the "a built array proves
            # no NULLs" contract the kernels rely on.
            return None
        try:
            return _np.asarray(
                values, dtype=_np.float64 if self.datatype.name == "real"
                else _np.int64)
        except (TypeError, ValueError, OverflowError):
            return None


class ColumnStore:
    """Columnar snapshot of a relation's rows.

    ``rows`` is the aligned row-tuple snapshot the store was built from
    (a pointer copy); selection vectors produced by the kernels index
    into it, so gathering survivors back into row form is one list
    comprehension.  ``version`` is stamped by
    :meth:`Relation.column_store` for staleness checks.  ``indexes``
    maps a column position to its
    :class:`~repro.relational.indexes.SortedIndex`, built by
    :meth:`index` on first use and patched with the columns.
    """

    __slots__ = ("schema", "rows", "columns", "version", "indexes")

    def __init__(self, schema: RelationSchema,
                 rows: Sequence[tuple]) -> None:
        self.schema = schema
        self.rows: list[tuple] = list(rows)
        self.version = -1
        self.indexes: dict[int, Any] = {}
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

    def take(self, selection) -> "ColumnStore | ColumnSelection":
        """The rows at *selection* (``None``: every row) as a store."""
        return self if selection is None else ColumnSelection(self, selection)

    def index(self, position: int):
        """The sorted index on the column at *position*, built on use."""
        index = self.indexes.get(position)
        obs.counter("index_cache_requests_total",
                    "sorted-index probes by outcome",
                    result="miss" if index is None else "hit").inc()
        if index is None:
            from repro.relational.indexes import SortedIndex
            index = SortedIndex(self.values(position))
            self.indexes[position] = index
        return index

    # -- DML patches (applied by Relation's live mutators) ---------------

    def append_rows(self, rows: list[tuple]) -> None:
        """Fold freshly inserted rows into the store in place.  Indices
        of existing rows never move, so selection vectors and paused
        streams over :attr:`rows` stay valid."""
        start = len(self.rows)
        self.rows.extend(rows)
        for at, column in enumerate(self.columns):
            column.extend([row[at] for row in rows])
        if self.indexes:
            blank = (None,) * len(self.columns)  # no old entry to drop
            self._patch_indexes([(start + offset, blank, row)
                                 for offset, row in enumerate(rows)])

    def delete(self, keep: list[bool], positions: list[int]) -> None:
        """Drop the rows at the ascending *positions*, one pass per
        column and index; the row list is replaced, not edited."""
        self.rows = list(compress(self.rows, keep))
        for column in self.columns:
            column.delete(keep, positions)
        for index in self.indexes.values():
            index.delete(positions)

    def replace(self, changes: list[tuple[int, tuple]]) -> None:
        """Write each ``(position, row)`` of *changes* in place.  The row
        list is copied first, so a stream holding the old list keeps
        its snapshot."""
        rows = self.rows = list(self.rows)
        if self.indexes:
            self._patch_indexes([(position, rows[position], row)
                                 for position, row in changes])
        for position, row in changes:
            for column, old, new in zip(self.columns, rows[position], row):
                if new is not old:
                    column.set(position, new)
            rows[position] = row

    def _patch_indexes(self, changes: list) -> None:
        """Move every index past *changes*, ``(position, old row, new
        row)`` each.  An index whose keys stop ordering (a
        ``TypeError``) is dropped, as are all of them when there are
        more changes than :data:`INDEX_PATCH_LIMIT`."""
        if len(changes) > INDEX_PATCH_LIMIT:
            self.indexes.clear()
            return
        for at, index in list(self.indexes.items()):
            try:
                for position, old, new in changes:
                    if old[at] != new[at]:
                        index.move(old[at], new[at], position)
            except TypeError:
                del self.indexes[at]


class ColumnSelection:
    """The rows at a selection of a :class:`ColumnStore`, with what the
    kernels read of a store.  A column is taken at the selection the
    first time it is read, so a predicate over an index range tests
    only the range's rows of the columns it names."""

    __slots__ = ("schema", "columns", "_size")

    def __init__(self, store: ColumnStore, selection: Sequence[int]):
        self.schema = store.schema
        self.columns = _Taken(store.columns, selection)
        self._size = len(selection)

    def __len__(self) -> int:
        return self._size

    values = ColumnStore.values


class _Taken(dict):
    """Column position -> that column taken at a selection, on use."""

    def __init__(self, columns, selection: Sequence[int]):
        super().__init__()
        self.source = columns, selection

    def __missing__(self, position: int):
        columns, selection = self.source
        column = self[position] = columns[position].take(selection)
        return column


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
    "ColumnSelection",
    "ColumnStore",
    "DICT_MAX_CARDINALITY",
    "DictionaryColumn",
    "HAS_NUMPY",
    "NULL_CODE",
    "PlainColumn",
    "numpy_module",
    "set_numpy_enabled",
]
