"""Secondary indexes over relations.

The induction algorithm repeatedly probes relations by attribute value
(step 2 of Section 5.2.1 is a self-join on X), and the query planner
probes them by value range.  Two index kinds cover those patterns:

* :class:`HashIndex` -- equality probes returning rows (the ILS and the
  KER analysis fetch rows by key).
* :class:`SortedIndex` -- range probes ``low <= value <= high`` built on
  :mod:`bisect`, returning row positions; the planner serves a point as
  the one-value range ``[v, v]``.

A hash index is a snapshot of the rows present at construction time.
A sorted index lives on a relation's column store, which builds it on
first use and patches it with every INSERT, DELETE and UPDATE the store
absorbs; a rebuilt store starts without indexes.
"""

from __future__ import annotations

import bisect
from array import array
from itertools import compress
from typing import Any, Sequence

from repro.relational import columnar
from repro.relational.relation import Relation


class HashIndex:
    """Equality index from column value to row list."""

    def __init__(self, relation: Relation, column: str):
        self.relation = relation
        self.column = column
        self.built_version = relation.version
        position = relation.schema.position(column)
        self._buckets: dict[Any, list[tuple]] = {}
        for row in relation:
            value = row[position]
            self._buckets.setdefault(value, []).append(row)

    @property
    def is_stale(self) -> bool:
        """Whether the relation mutated since this snapshot was built."""
        return self.relation.version != self.built_version

    def lookup(self, value: Any) -> list[tuple]:
        """Rows whose indexed column equals *value*."""
        return list(self._buckets.get(value, ()))

    def distinct_values(self) -> list[Any]:
        return list(self._buckets.keys())

    def __contains__(self, value: Any) -> bool:
        return value in self._buckets

    def __len__(self) -> int:
        return len(self._buckets)


class SortedIndex:
    """Ordered index supporting range scans: a column's values sorted,
    with the row position of each alongside in one compact integer
    array.

    Positions index the rows of the
    :class:`~repro.relational.columnar.ColumnStore` that holds the index
    (:meth:`ColumnStore.index
    <repro.relational.columnar.ColumnStore.index>`), and the store's DML
    patches move them with the rows.  The positions of equal values
    ascend, as a stable sort leaves them.  NULL and NaN are left out:
    neither is equal to, below or above any value, so neither lies in
    any range (as in the kernels and the reference evaluator).
    """

    def __init__(self, values: Sequence[Any]):
        order = sorted((i for i, value in enumerate(values)
                        if _orders(value)), key=values.__getitem__)
        self._keys = [values[i] for i in order]
        self._positions = array("q", order)

    def range(self, low: Any = None, high: Any = None,
              low_inclusive: bool = True,
              high_inclusive: bool = True) -> list[int]:
        """Positions of the rows whose value lies in the given (possibly
        open) range, ascending: table order."""
        keys = self._keys
        if low is None:
            start = 0
        elif low_inclusive:
            start = bisect.bisect_left(keys, low)
        else:
            start = bisect.bisect_right(keys, low)
        if high is None:
            stop = len(keys)
        elif high_inclusive:
            stop = bisect.bisect_right(keys, high)
        else:
            stop = bisect.bisect_left(keys, high)
        if stop <= start:
            return []
        positions = self._positions[start:stop]
        if keys[start] == keys[stop - 1]:
            return positions.tolist()  # one value: already ascending
        np = columnar.numpy_module()
        if np is not None:
            return np.sort(np.frombuffer(positions, dtype=np.int64)).tolist()
        return sorted(positions)

    def move(self, old: Any, new: Any, position: int) -> None:
        """Move row *position*'s entry from key *old* to key *new* (NULL
        or NaN: no entry), placed among the equal keys by position --
        after them all for an appended row.  Raises ``TypeError`` when
        *new* does not order with the keys."""
        if _orders(old):
            at = self._among_equal(old, position)
            del self._keys[at]
            del self._positions[at]
        if _orders(new):
            at = self._among_equal(new, position)
            self._keys.insert(at, new)
            self._positions.insert(at, position)

    def _among_equal(self, value: Any, position: int) -> int:
        keys = self._keys
        return bisect.bisect_left(self._positions, position,
                                  bisect.bisect_left(keys, value),
                                  bisect.bisect_right(keys, value))

    def delete(self, doomed: list[int]) -> None:
        """Drop the entries at the ascending row positions *doomed* and
        shift every later position down by the doomed ones below it."""
        np = columnar.numpy_module()
        if np is not None:
            positions = np.frombuffer(self._positions, dtype=np.int64)
            gone = np.asarray(doomed, dtype=np.int64)
            below = np.searchsorted(gone, positions)
            keep = gone[np.minimum(below, len(gone) - 1)] != positions
            self._keys = list(compress(self._keys, keep.tolist()))
            self._positions = array("q", (positions - below)[keep].tobytes())
            return
        gone = set(doomed)
        keys, positions = [], array("q")
        for key, position in zip(self._keys, self._positions):
            if position not in gone:
                keys.append(key)
                positions.append(position - bisect.bisect_left(doomed,
                                                               position))
        self._keys, self._positions = keys, positions

    def __len__(self) -> int:
        return len(self._keys)


def _orders(value: Any) -> bool:
    """Whether *value* has a place in an order (not NULL, not NaN)."""
    return value is not None and value == value
