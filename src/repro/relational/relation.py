"""Relation values: a schema plus a sequence of typed rows.

Relations use *bag* semantics by default (INGRES ``retrieve`` without
``unique`` keeps duplicates); :meth:`Relation.distinct` collapses to set
semantics, mirroring ``retrieve unique``.

Rows are plain tuples.  Helper accessors return column values by name so
higher layers never index positions by hand.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.relational.schema import Column, RelationSchema
from repro.relational.datatypes import infer_type


class Relation:
    """An in-memory relation (schema + rows).

    Parameters
    ----------
    schema:
        The relation's schema.
    rows:
        Iterable of row tuples/sequences; each row is validated and
        coerced against the schema.
    validated:
        Internal fast path: when True, the rows are well-typed tuples
        and are kept as-is, in a list of the relation's own (used by
        the algebra operators and the executors, which only emit such
        rows).
    """

    def __init__(self, schema: RelationSchema,
                 rows: Iterable[Sequence[Any]] = (),
                 validated: bool = False):
        self.schema = schema
        if validated:
            self._rows: list[tuple] = list(rows)
        else:
            self._rows = [schema.check_row(row) for row in rows]
        self._version = 0
        self._mutation_hooks: dict[int, Callable[["Relation"], None]] = {}
        self._next_hook_token = 1
        #: lazy columnar snapshot (see :meth:`column_store`); inserts
        #: fold in incrementally, every other mutation drops it.
        self._column_store = None
        #: durable-storage journal (set by an attached StorageEngine via
        #: the catalog); mutators report their redo payload to it
        #: *before* applying, so the engine can capture the pre-image.
        self.journal = None

    # -- construction ----------------------------------------------------

    @classmethod
    def from_dicts(cls, schema: RelationSchema,
                   records: Iterable[dict[str, Any]]) -> "Relation":
        """Build a relation from mappings of column name -> value."""
        rows = []
        for record in records:
            lowered = {key.lower(): value for key, value in record.items()}
            unknown = set(lowered) - {c.key for c in schema.columns}
            if unknown:
                raise SchemaError(
                    f"unknown columns {sorted(unknown)} for {schema.name}")
            rows.append([lowered.get(column.key) for column in schema.columns])
        return cls(schema, rows)

    @classmethod
    def infer(cls, name: str, column_names: Sequence[str],
              rows: Sequence[Sequence[Any]],
              key: Sequence[str] | None = None) -> "Relation":
        """Build a relation inferring column types from the first row
        holding a non-NULL value in each column."""
        if not rows:
            raise SchemaError("cannot infer a schema from zero rows")
        columns = []
        for position, column_name in enumerate(column_names):
            sample = next(
                (row[position] for row in rows if row[position] is not None),
                None)
            columns.append(Column(column_name, infer_type(sample)))
        return cls(RelationSchema(name, columns, key=key), rows)

    # -- basic protocol ---------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def rows(self) -> list[tuple]:
        """The underlying row list.  Treat as read-only."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __eq__(self, other: object) -> bool:
        """Bag equality: same schema columns and same multiset of rows."""
        if not isinstance(other, Relation):
            return NotImplemented
        if [c.key for c in self.schema.columns] != [
                c.key for c in other.schema.columns]:
            return False
        return sorted(self._rows, key=_sort_key) == sorted(
            other._rows, key=_sort_key)

    def __hash__(self):  # pragma: no cover - relations are mutable
        raise TypeError("Relation is unhashable")

    # -- row access --------------------------------------------------------

    def value(self, row: Sequence[Any], column: str) -> Any:
        """Value of *column* (case-insensitive) in *row*."""
        return row[self.schema.position(column)]

    def column_values(self, column: str) -> list[Any]:
        """All values of *column*, in row order (duplicates preserved)."""
        position = self.schema.position(column)
        return [row[position] for row in self._rows]

    def record(self, row: Sequence[Any]) -> dict[str, Any]:
        """Row as a dict keyed by declared column names."""
        return {column.name: value
                for column, value in zip(self.schema.columns, row)}

    def records(self) -> list[dict[str, Any]]:
        return [self.record(row) for row in self._rows]

    def row_view(self) -> "RowView":
        """A reusable dict-like view over one row at a time.

        ``view.bind(row)`` repoints the view without allocating, so
        record-style predicates (``lambda r: r["Age"] > 30``) can run
        over every row with a single allocation instead of one dict per
        row.  The view is *reused*: copy with ``dict(view)`` to retain a
        row's values past the next ``bind``.
        """
        return RowView(self.schema)

    # -- batched access ----------------------------------------------------

    def iter_batches(self, size: int) -> Iterator[list[tuple]]:
        """Stream the rows as list slices of at most *size* rows.

        Batches share the underlying row tuples (no copies); only the
        per-batch list of references is materialized, so a consumer that
        stops early never pays for the rest of the relation.

        The row list is snapshotted (a pointer copy) when the first
        batch is requested, matching the plan nodes and the columnar
        store: a mutation arriving mid-iteration neither shifts nor
        extends what this stream yields -- the next call sees it.
        """
        if size <= 0:
            raise ValueError(f"batch size must be positive, got {size}")
        rows = list(self._rows)  # iteration-start snapshot
        for start in range(0, len(rows), size):
            yield rows[start:start + size]

    def column_store(self):
        """The relation's columnar snapshot (see
        :mod:`repro.relational.columnar`), rebuilt when stale.

        The store is a cache keyed on :attr:`version`: inserts fold in
        incrementally (row indices never move, so outstanding selection
        vectors stay valid), any other mutation drops it and the next
        caller pays one transpose.  Consumers must not mutate the
        returned store.
        """
        from repro.relational.columnar import ColumnStore
        store = self._column_store
        if store is not None and store.version == self._version:
            return store
        store = ColumnStore(self.schema, self._rows)
        store.version = self._version
        self._column_store = store
        return store

    def _store_appended(self, rows: list[tuple]) -> None:
        """Fold freshly appended *rows* into a live store (called by the
        insert paths before :meth:`_touch` bumps the version)."""
        store = self._column_store
        if store is None:
            return
        if store.version == self._version:
            store.append_rows(rows)
            store.version = self._version + 1  # stays fresh past _touch
        else:
            self._column_store = None  # already stale; stop paying rent

    # -- mutation (used by the Database facade and QUEL delete/append) ----

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every mutation.

        Snapshot consumers (indexes, statistics) record the version they
        were built against and compare it against the live value instead
        of silently serving stale data.
        """
        return self._version

    def add_mutation_hook(self, hook: Callable[["Relation"], None]) -> int:
        """Register *hook* to run after every mutation; returns a token
        for :meth:`remove_mutation_hook`.  The catalog uses this to fold
        relation mutations into its single ``stats_version`` signal."""
        token = self._next_hook_token
        self._next_hook_token += 1
        self._mutation_hooks[token] = hook
        return token

    def remove_mutation_hook(self, token: int) -> None:
        self._mutation_hooks.pop(token, None)

    def _touch(self) -> None:
        self._version += 1
        for hook in list(self._mutation_hooks.values()):
            hook(self)

    def _log(self, op: str, **payload: Any) -> None:
        """Report an imminent mutation to the attached journal (the
        rows have not changed yet, so the journal can snapshot the
        pre-image for transaction rollback)."""
        if self.journal is not None:
            self.journal.log_mutation(self, op, payload)

    def insert(self, values: Sequence[Any]) -> tuple:
        row = self.schema.check_row(values)
        self._log("insert", rows=[row])
        self._rows.append(row)
        self._store_appended([row])
        self._touch()
        return row

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        checked = [self.schema.check_row(values) for values in rows]
        if checked:
            self._log("insert", rows=checked)
            self._rows.extend(checked)
            self._store_appended(checked)
            self._touch()
        return len(checked)

    def delete_where(self, predicate: Callable[[tuple], bool]) -> int:
        """Delete rows satisfying *predicate*; return the count deleted."""
        positions = [index for index, row in enumerate(self._rows)
                     if predicate(row)]
        if not positions:
            return 0
        self._log("delete", positions=positions)
        self._column_store = None
        doomed = set(positions)
        self._rows[:] = [row for index, row in enumerate(self._rows)
                         if index not in doomed]
        self._touch()
        return len(positions)

    def replace_where(self, predicate: Callable[[tuple], bool],
                      updater: Callable[[tuple], Sequence[Any]]) -> int:
        """Update rows satisfying *predicate* to ``updater(row)``
        (validated); returns the count updated.  This backs QUEL's
        ``replace`` statement.

        Every replacement row is validated before any is applied, so a
        bad updater leaves the relation untouched (statement-level
        atomicity in memory, matching the journal's redo payload).
        """
        changes: list[tuple[int, tuple]] = []
        for index, row in enumerate(self._rows):
            if predicate(row):
                changes.append((index, self.schema.check_row(updater(row))))
        if not changes:
            return 0
        self._log("replace", changes=changes)
        self._column_store = None
        for index, row in changes:
            self._rows[index] = row
        self._touch()
        return len(changes)

    def clear(self) -> None:
        if not self._rows:
            return
        self._log("clear")
        self._column_store = None
        self._rows.clear()
        self._touch()

    def restore_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        """Replace the row list wholesale (transaction rollback and
        recovery replay).  Bypasses the journal -- the caller *is* the
        storage engine -- but still bumps the mutation version and fires
        hooks, so caches invalidate exactly as for a live mutation."""
        self._column_store = None
        self._rows[:] = [tuple(row) for row in rows]
        self._touch()

    # -- derived relations --------------------------------------------------

    def copy(self, new_name: str | None = None) -> "Relation":
        schema = self.schema if new_name is None else self.schema.rename(
            new_name)
        return Relation(schema, list(self._rows), validated=True)

    def distinct(self) -> "Relation":
        """Set-semantics copy (first occurrence order preserved)."""
        seen: set[tuple] = set()
        rows = []
        for row in self._rows:
            if row not in seen:
                seen.add(row)
                rows.append(row)
        return Relation(self.schema, rows, validated=True)

    def sorted_by(self, *columns: str, descending: bool = False) -> "Relation":
        """Copy sorted by the given columns (NULLs sort first)."""
        positions = [self.schema.position(c) for c in columns]

        def key(row: tuple):
            return tuple(_null_low(row[p]) for p in positions)

        rows = sorted(self._rows, key=key, reverse=descending)
        return Relation(self.schema, rows, validated=True)

    # -- display -------------------------------------------------------------

    def render(self, max_rows: int | None = None) -> str:
        """Fixed-width text table in the style of the paper's appendices."""
        header = self.schema.column_names()
        body = [[_display(v) for v in row] for row in self._rows]
        if max_rows is not None and len(body) > max_rows:
            omitted = len(body) - max_rows
            body = body[:max_rows] + [[f"... {omitted} more"] +
                                      [""] * (len(header) - 1)]
        widths = [len(h) for h in header]
        for line in body:
            for i, cell in enumerate(line):
                widths[i] = max(widths[i], len(cell))
        rule = "-+-".join("-" * w for w in widths)
        out = [" | ".join(h.ljust(w) for h, w in zip(header, widths)), rule]
        for line in body:
            out.append(" | ".join(c.ljust(w) for c, w in zip(line, widths)))
        return "\n".join(out)

    def __repr__(self) -> str:
        return f"Relation<{self.schema.render()}, {len(self)} rows>"


class RowView:
    """Read-only mapping view of one row of a schema.

    Behaves like the dict :meth:`Relation.record` returns (lookup by
    declared column name, case-insensitive; iteration yields column
    names) but holds only a row reference, so rebinding it row after row
    costs nothing.  Built by :meth:`Relation.row_view`.
    """

    __slots__ = ("_schema", "_row")

    def __init__(self, schema: RelationSchema,
                 row: Sequence[Any] | None = None):
        self._schema = schema
        self._row = row

    def bind(self, row: Sequence[Any]) -> "RowView":
        """Repoint the view at *row*; returns self for chaining."""
        self._row = row
        return self

    def __getitem__(self, key: str) -> Any:
        try:
            return self._row[self._schema.position(key)]
        except SchemaError:
            raise KeyError(key) from None

    def get(self, key: str, default: Any = None) -> Any:
        if not self._schema.has_column(key):
            return default
        return self._row[self._schema.position(key)]

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and self._schema.has_column(key)

    def __iter__(self) -> Iterator[str]:
        return iter(self._schema.column_names())

    def __len__(self) -> int:
        return self._schema.arity

    def keys(self) -> list[str]:
        return self._schema.column_names()

    def values(self) -> list[Any]:
        return list(self._row)

    def items(self) -> list[tuple[str, Any]]:
        return list(zip(self._schema.column_names(), self._row))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (dict, RowView)):
            return dict(self.items()) == dict(
                other.items() if isinstance(other, RowView)
                else other.items())
        return NotImplemented

    def __repr__(self) -> str:
        return f"RowView({dict(self.items())!r})"


def _display(value: Any) -> str:
    if value is None:
        return "NULL"
    return str(value)


class _NullLow:
    """Sentinel ordering NULL below every value."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        return not isinstance(other, _NullLow)

    def __gt__(self, other: object) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NullLow)

    def __hash__(self) -> int:
        return 0


_NULL_LOW = _NullLow()


def _null_low(value: Any) -> Any:
    return _NULL_LOW if value is None else value


def _sort_key(row: tuple):
    return tuple((value is None, repr(type(value)), value)
                 if value is not None else (True, "", 0) for value in row)
