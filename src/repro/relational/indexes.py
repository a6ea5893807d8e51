"""Secondary indexes over relations.

The induction algorithm repeatedly probes relations by attribute value
(step 2 of Section 5.2.1 is a self-join on X), and the inference engine
probes rule sets by attribute.  Two index kinds cover those patterns:

* :class:`HashIndex` -- equality probes.
* :class:`SortedIndex` -- range probes ``low <= value <= high``, built on
  :mod:`bisect`.

Indexes are snapshots: they index the rows present at construction time.
Each snapshot records the relation's mutation version so staleness is
detectable (:attr:`HashIndex.is_stale`), and :class:`IndexCache` -- held
by the :class:`~repro.relational.database.Database` facade and used by
the query planner -- rebuilds stale snapshots transparently instead of
serving them.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Sequence

from repro import obs
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
    """Ordered index supporting range scans.

    NULL values are excluded (they belong to no range).
    """

    def __init__(self, relation: Relation, column: str):
        self.relation = relation
        self.column = column
        self.built_version = relation.version
        position = relation.schema.position(column)
        pairs = [(row[position], row) for row in relation
                 if row[position] is not None]
        pairs.sort(key=lambda pair: pair[0])
        self._keys = [key for key, _row in pairs]
        self._rows = [row for _key, row in pairs]

    def range(self, low: Any = None, high: Any = None,
              low_inclusive: bool = True,
              high_inclusive: bool = True) -> Iterator[tuple]:
        """Rows with indexed value in the given (possibly open) range."""
        if low is None:
            start = 0
        elif low_inclusive:
            start = bisect.bisect_left(self._keys, low)
        else:
            start = bisect.bisect_right(self._keys, low)
        if high is None:
            stop = len(self._keys)
        elif high_inclusive:
            stop = bisect.bisect_right(self._keys, high)
        else:
            stop = bisect.bisect_left(self._keys, high)
        return iter(self._rows[start:stop])

    def count_range(self, low: Any = None, high: Any = None,
                    low_inclusive: bool = True,
                    high_inclusive: bool = True) -> int:
        """Number of rows in the range, without materializing them."""
        if low is None:
            start = 0
        elif low_inclusive:
            start = bisect.bisect_left(self._keys, low)
        else:
            start = bisect.bisect_right(self._keys, low)
        if high is None:
            stop = len(self._keys)
        elif high_inclusive:
            stop = bisect.bisect_right(self._keys, high)
        else:
            stop = bisect.bisect_left(self._keys, high)
        return max(0, stop - start)

    @property
    def is_stale(self) -> bool:
        """Whether the relation mutated since this snapshot was built."""
        return self.relation.version != self.built_version

    def min(self) -> Any:
        return self._keys[0] if self._keys else None

    def max(self) -> Any:
        return self._keys[-1] if self._keys else None

    def sorted_values(self) -> Sequence[Any]:
        return tuple(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class IndexCache:
    """Version-checked cache of secondary indexes for one database.

    Entries are keyed by (kind, relation name, column).  A cached index
    is served only while it still refers to the *same* relation object
    (drop/re-register swaps the object) and that relation has not
    mutated since the snapshot was built; otherwise the index is rebuilt
    on demand.  Amortized over a query workload this makes equality and
    range probes O(result) instead of O(relation).
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str, str], HashIndex | SortedIndex] = {}
        self.rebuilds = 0  #: observability: how many (re)builds happened

    def hash_index(self, relation: Relation, column: str) -> HashIndex:
        """A fresh-enough :class:`HashIndex` on ``relation.column``."""
        return self._get("hash", relation, column, HashIndex)

    def sorted_index(self, relation: Relation, column: str) -> SortedIndex:
        """A fresh-enough :class:`SortedIndex` on ``relation.column``."""
        return self._get("sorted", relation, column, SortedIndex)

    def _get(self, kind: str, relation: Relation, column: str, factory):
        key = (kind, relation.name.lower(), column.lower())
        entry = self._entries.get(key)
        if (entry is not None and entry.relation is relation
                and not entry.is_stale):
            obs.counter("index_cache_requests_total",
                        "index-cache probes by outcome",
                        result="hit", kind=kind).inc()
            return entry
        obs.counter("index_cache_requests_total",
                    "index-cache probes by outcome",
                    result="stale" if entry is not None else "miss",
                    kind=kind).inc()
        entry = factory(relation, column)
        self._entries[key] = entry
        self.rebuilds += 1
        return entry

    def invalidate(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

