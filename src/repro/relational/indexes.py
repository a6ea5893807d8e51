"""Secondary indexes over relations.

The induction algorithm repeatedly probes relations by attribute value
(step 2 of Section 5.2.1 is a self-join on X), and the query planner
probes them by value range.  Two index kinds cover those patterns:

* :class:`HashIndex` -- equality probes returning rows (the ILS and the
  KER analysis fetch rows by key).
* :class:`SortedIndex` -- range probes ``low <= value <= high`` built on
  :mod:`bisect`, returning row positions; the planner serves a point as
  the one-value range ``[v, v]``.

Indexes are snapshots: they index the rows present at construction time.
Each snapshot records the relation's mutation version so staleness is
detectable (:attr:`SortedIndex.is_stale`), and :class:`IndexCache` --
held by the :class:`~repro.relational.database.Database` facade and
used by the query planner -- rebuilds stale snapshots transparently
instead of serving them.
"""

from __future__ import annotations

import bisect
from array import array
from typing import Any

from repro import obs
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
    """Ordered index supporting range scans: the column's values sorted,
    with the row position of each alongside in one compact integer
    array.

    Positions index the relation's rows at :attr:`built_version`, which
    are the rows of its :class:`~repro.relational.columnar.ColumnStore`
    at that version.  The sort is stable, so the positions of equal
    values ascend.  NULL and NaN are left out: neither is equal to,
    below or above any value, so neither lies in any range (as in the
    kernels and the reference evaluator).
    """

    def __init__(self, relation: Relation, column: str):
        self.relation = relation
        self.column = column
        self.built_version = relation.version
        at = relation.schema.position(column)
        values = [row[at] for row in relation.rows]
        order = sorted((i for i, value in enumerate(values)
                        if value is not None and value == value),
                       key=values.__getitem__)
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

    @property
    def is_stale(self) -> bool:
        """Whether the relation mutated since this snapshot was built."""
        return self.relation.version != self.built_version

    def __len__(self) -> int:
        return len(self._keys)


class IndexCache:
    """Version-checked cache of sorted indexes for one database.

    Entries are keyed by (relation name, column).  A cached index is
    served only while it still refers to the *same* relation object
    (drop/re-register swaps the object) and that relation has not
    mutated since the snapshot was built; otherwise the index is rebuilt
    on demand.  Amortized over a query workload this makes point and
    range probes O(log n + matches) instead of O(relation).
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], SortedIndex] = {}
        self.rebuilds = 0  #: observability: how many (re)builds happened

    def sorted_index(self, relation: Relation, column: str) -> SortedIndex:
        """A fresh-enough :class:`SortedIndex` on ``relation.column``."""
        key = (relation.name.lower(), column.lower())
        entry = self._entries.get(key)
        fresh = (entry is not None and entry.relation is relation
                 and not entry.is_stale)
        obs.counter("index_cache_requests_total",
                    "index-cache probes by outcome",
                    result="hit" if fresh else "miss" if entry is None
                    else "stale").inc()
        if fresh:
            return entry
        entry = SortedIndex(relation, column)
        self._entries[key] = entry
        self.rebuilds += 1
        return entry

    def invalidate(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
