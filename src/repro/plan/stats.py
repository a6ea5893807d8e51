"""Per-relation statistics for cost-based planning.

The planner needs three things the executor never kept: row counts,
per-column distinct-value counts (the classic join-cardinality
denominator), and value distributions (min/max plus a small equi-width
histogram for numeric columns) for range-selectivity estimates.

Statistics are snapshots cached in a :class:`StatisticsCatalog`, one per
:class:`~repro.relational.database.Database`.  Invalidation rides the
catalog's single signal: while ``Catalog.stats_version()`` is unchanged,
nothing in the database mutated and every cached snapshot is served
as-is; once it moves, each snapshot is re-validated against its
relation's identity and mutation version and recomputed only if that
relation actually changed.
"""

from __future__ import annotations

import math
from typing import Any

from repro import obs
from repro.relational import columnar
from repro.relational.columnar import DictionaryColumn, PlainColumn
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.rules.clause import Interval

#: Bucket count for equi-width histograms (small on purpose: statistics
#: must stay cheap to rebuild after mutations).
HISTOGRAM_BUCKETS = 16

#: Fallback fraction for predicates statistics cannot estimate
#: (SimpleDB uses a constant reduction factor in the same role).
DEFAULT_SELECTIVITY = 1 / 3


def _array_exact(np, array) -> bool:
    """Whether array reductions over *array* match the scalar path
    bit-for-bit.

    NaNs diverge (``set()`` distinguishes NaN objects by identity while
    ``np.unique`` collapses them) and integers at or past 2**53 round
    differently under int->float64 conversion than Python's
    correctly-rounded big-int division, so both fall back.
    """
    if array.dtype.kind == "f":
        return not bool(np.isnan(array).any())
    if array.dtype.kind == "i":
        if not len(array):
            return True
        bound = max(abs(int(array.min())), abs(int(array.max())))
        return bound < 2 ** 53
    return False


class Histogram:
    """Equi-width histogram over a numeric column.

    ``edges`` holds ``buckets + 1`` boundaries; ``counts[i]`` is the
    number of values in ``[edges[i], edges[i+1])`` (last bucket closed).
    """

    __slots__ = ("edges", "counts", "total")

    def __init__(self, edges: list[float], counts: list[int]):
        self.edges = edges
        self.counts = counts
        self.total = sum(counts)

    @classmethod
    def build(cls, values: list[Any],
              buckets: int = HISTOGRAM_BUCKETS) -> "Histogram | None":
        numeric = [v for v in values if isinstance(v, (int, float))
                   and not isinstance(v, bool)]
        if len(numeric) != len(values) or not numeric:
            return None
        low, high = min(numeric), max(numeric)
        if low == high:
            return cls([float(low), float(high)], [len(numeric)])
        width = (high - low) / buckets
        # Degenerate spans break equi-width bucketing: a span below
        # ~16 ulp underflows width to 0 (ZeroDivisionError), a span
        # beyond the float range overflows it to inf (NaN bucket
        # index).  One bucket keeps every invariant (counts sum to the
        # value count) at the cost of estimate resolution.
        if not (width > 0 and math.isfinite(width)):
            return cls([float(low), float(high)], [len(numeric)])
        counts = [0] * buckets
        for value in numeric:
            index = min(int((value - low) / width), buckets - 1)
            counts[index] += 1
        edges = [low + width * i for i in range(buckets)] + [float(high)]
        return cls(edges, counts)

    @classmethod
    def _from_array(cls, np, array,
                    buckets: int = HISTOGRAM_BUCKETS) -> "Histogram":
        """:meth:`build` as one vectorized bucketing pass.

        Bucket boundaries and indexes replicate the scalar formula
        bit-for-bit (same float64 operations in the same order), so the
        planner sees identical histograms on either path.
        """
        low = array.min().item()
        high = array.max().item()
        if low == high:
            return cls([float(low), float(high)], [len(array)])
        width = (high - low) / buckets
        if not (width > 0 and math.isfinite(width)):
            return cls([float(low), float(high)], [len(array)])
        indexes = ((array - low) / width).astype(np.int64)
        np.clip(indexes, 0, buckets - 1, out=indexes)
        counts = np.bincount(indexes, minlength=buckets)
        edges = [low + width * i for i in range(buckets)] + [float(high)]
        return cls(edges, [int(count) for count in counts])

    def fraction(self, interval: Interval) -> float:
        """Estimated fraction of values falling inside *interval*,
        by linear interpolation within buckets."""
        if not self.total:
            return 0.0
        lo = self.edges[0] if interval.low is None else interval.low
        hi = self.edges[-1] if interval.high is None else interval.high
        if lo > self.edges[-1] or hi < self.edges[0]:
            return 0.0
        covered = 0.0
        for i, count in enumerate(self.counts):
            left, right = self.edges[i], self.edges[i + 1]
            if right < lo or left > hi:
                continue
            if left >= lo and right <= hi:
                covered += count
                continue
            span = right - left
            if span <= 0:
                covered += count
                continue
            overlap = min(right, hi) - max(left, lo)
            if overlap <= 0:
                continue
            if overlap >= span:  # also catches inf/inf (NaN otherwise)
                covered += count
            else:
                covered += count * overlap / span
        return min(1.0, covered / self.total)


class ColumnStats:
    """Statistics for one column of one relation snapshot."""

    __slots__ = ("name", "non_null", "nulls", "distinct", "min", "max",
                 "histogram")

    def __init__(self, name: str, values: list[Any]):
        self.name = name
        present = [v for v in values if v is not None]
        self.non_null = len(present)
        self.nulls = len(values) - len(present)
        self.distinct = len(set(present))
        # NaN is neither below nor above any value, so it has no place
        # in an order: min, max and the histogram leave it out (as the
        # sorted index does).
        ordered = [v for v in present if v == v]
        try:
            self.min = min(ordered) if ordered else None
            self.max = max(ordered) if ordered else None
        except TypeError:  # mixed, incomparable values
            self.min = self.max = None
        self.histogram = Histogram.build(ordered)

    @classmethod
    def from_column(cls, name: str, column) -> "ColumnStats":
        """Build from a column-store column without materializing rows.

        Dictionary columns read null/distinct counts straight off the
        code space; numeric plain columns reduce over their array.  Any
        column the fast paths cannot describe *exactly* (NULLs in a
        numeric column, NaN floats, integers past float53 precision,
        non-numeric plain values) falls back to the scalar constructor,
        so the numbers never depend on the storage layout.
        """
        np = columnar.numpy_module()
        if isinstance(column, DictionaryColumn):
            self = cls.__new__(cls)
            self.name = name
            size = len(column.codes)
            if np is not None:
                nulls = int((column.np_codes() < 0).sum())
            else:
                nulls = sum(1 for code in column.codes if code < 0)
            self.nulls = nulls
            self.non_null = size - nulls
            # Incremental appends only ever add values and every other
            # mutation rebuilds the store, so each dictionary entry is
            # backed by at least one live row: cardinality IS distinct.
            self.distinct = column.cardinality
            values = column.values
            try:
                self.min = min(values) if values else None
                self.max = max(values) if values else None
            except TypeError:
                self.min = self.max = None
            self.histogram = None  # dictionary columns are non-numeric
            return self
        if np is not None and isinstance(column, PlainColumn):
            array = column.array()  # built => numeric and NULL-free
            if array is not None and _array_exact(np, array):
                self = cls.__new__(cls)
                self.name = name
                self.non_null = len(array)
                self.nulls = 0
                self.distinct = int(np.unique(array).size)
                if len(array):
                    self.min = array.min().item()
                    self.max = array.max().item()
                    self.histogram = Histogram._from_array(np, array)
                else:
                    self.min = self.max = None
                    self.histogram = None
                return self
        return cls(name, list(column.values))

    def selectivity(self, interval: Interval, row_count: int) -> float:
        """Estimated fraction of the relation's rows whose column value
        lies in *interval* (NULLs never match).

        Range estimates are floored by the point-probe estimate
        (``1/distinct`` of the present mass) whenever the interval can
        reach the observed [min, max] band: a range that contains a
        point can never be estimated below that point, keeping
        ``estimate_range`` monotone in interval width (the property the
        planner's index-vs-scan choice relies on).
        """
        if row_count <= 0 or self.non_null == 0:
            return 0.0
        present = self.non_null / row_count
        if interval.is_point():
            if self.min is not None:
                try:
                    if (interval.low < self.min
                            or interval.low > self.max):
                        return 0.0
                except TypeError:
                    pass
            return present / max(1, self.distinct)
        if self.histogram is not None:
            fraction = self.histogram.fraction(interval)
        elif self.min is not None and self.max is not None:
            try:
                if ((interval.low is not None and interval.low > self.max)
                        or (interval.high is not None
                            and interval.high < self.min)):
                    return 0.0
            except TypeError:
                pass
            fraction = DEFAULT_SELECTIVITY
        else:
            fraction = DEFAULT_SELECTIVITY
        if self._reaches_data(interval):
            fraction = max(fraction, 1.0 / max(1, self.distinct))
        return min(1.0, present * fraction)

    def _reaches_data(self, interval: Interval) -> bool:
        """Whether *interval* overlaps the observed [min, max] band
        (assumed true when the band is unknown)."""
        if self.min is None or self.max is None:
            return True
        try:
            return interval.overlaps(Interval.closed(self.min, self.max))
        except TypeError:
            return True

    def __repr__(self) -> str:
        return (f"<ColumnStats {self.name}: {self.distinct} distinct, "
                f"{self.nulls} null, range [{self.min!r}, {self.max!r}]>")


class TableStats:
    """Statistics snapshot for one relation."""

    __slots__ = ("name", "row_count", "columns")

    def __init__(self, relation: Relation):
        self.name = relation.name
        self.row_count = len(relation)
        self.columns: dict[str, ColumnStats] = {}
        # Reduce over the relation's column store (shared with the
        # execution kernels, so the transpose is paid once for both).
        store = relation.column_store()
        for column, store_column in zip(relation.schema.columns,
                                        store.columns):
            self.columns[column.key] = ColumnStats.from_column(
                column.name, store_column)

    def column(self, name: str) -> ColumnStats:
        return self.columns[name.lower()]

    def distinct_values(self, column: str) -> int:
        return max(1, self.column(column).distinct)

    def selectivity(self, column: str, interval: Interval) -> float:
        return self.column(column).selectivity(interval, self.row_count)

    def __repr__(self) -> str:
        return f"<TableStats {self.name}: {self.row_count} rows>"


class _Entry:
    __slots__ = ("relation", "relation_version", "catalog_version", "stats")

    def __init__(self, relation: Relation, catalog_version: int,
                 stats: TableStats):
        self.relation = relation
        self.relation_version = relation.version
        self.catalog_version = catalog_version
        self.stats = stats


class StatisticsCatalog:
    """Cached :class:`TableStats` per relation of one database."""

    def __init__(self, database: Database):
        self.database = database
        self._entries: dict[str, _Entry] = {}
        self.recomputes = 0  #: observability: snapshot (re)computations

    def table_stats(self, name: str) -> TableStats:
        relation = self.database.relation(name)
        key = relation.name.lower()
        catalog_version = self.database.catalog.stats_version()
        entry = self._entries.get(key)
        if entry is not None:
            if entry.catalog_version == catalog_version:
                obs.counter("stats_cache_requests_total",
                            "statistics-cache probes by outcome",
                            result="hit").inc()
                return entry.stats  # nothing anywhere changed
            if (entry.relation is relation
                    and entry.relation_version == relation.version):
                entry.catalog_version = catalog_version
                obs.counter("stats_cache_requests_total",
                            "statistics-cache probes by outcome",
                            result="revalidated").inc()
                return entry.stats  # something else changed, not this
            obs.counter("stats_cache_invalidations_total",
                        "statistics snapshots invalidated by "
                        "relation mutations").inc()
        stats = TableStats(relation)
        self._entries[key] = _Entry(relation, catalog_version, stats)
        self.recomputes += 1
        obs.counter("stats_cache_requests_total",
                    "statistics-cache probes by outcome",
                    result="recompute").inc()
        return stats

    def invalidate(self) -> None:
        self._entries.clear()


def statistics(database: Database) -> StatisticsCatalog:
    """The database's statistics catalog, created on first use.

    Kept on the Database instance so every planner invocation over the
    same database shares one cache (and one invalidation signal).
    """
    catalog = getattr(database, "_statistics_catalog", None)
    if catalog is None or catalog.database is not database:
        catalog = StatisticsCatalog(database)
        database._statistics_catalog = catalog
    return catalog
