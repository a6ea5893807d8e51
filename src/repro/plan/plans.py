"""Composable plan nodes for SELECT execution -- streaming edition.

In the SimpleDB exemplar's style, each relational-algebra operator has a
Plan class exposing cost-model accessors (``records_output``,
``distinct_values``, ``cost``) next to execution.  Execution is
*batch-at-a-time* (morsel-driven): every node implements
:meth:`Plan._batches`, a generator yielding lists of at most
``batch_size`` aligned per-binding row tuples -- element ``i`` of an
output tuple is the row contributed by ``bindings[i]``, the shape the
projection (:func:`~repro.sql.executor.project_statement`) consumes.

Batches stream child to parent: a scan produces its next morsel only
when the consumer asks, a filter evaluates its *compiled* predicates
(:mod:`repro.relational.compiled`) over each morsel, and a hash join
materializes only its build side (inherent to hashing) while the probe
side streams through.  Closing a consumer generator closes the whole
producer chain (early termination), and no node buffers more than one
output batch, so peak intermediate state is O(batch) per node plus the
join build sides.  The top of the tree (:class:`ProjectPlan`) is the
only place a full result materializes -- as the result
:class:`Relation` itself.

Per-node accounting survives the refactor exactly: every node
accumulates the rows it actually streamed in :attr:`Plan.actual_rows`
and its inclusive wall time in :attr:`Plan.actual_time_s`, so EXPLAIN
renders estimated vs. actual side by side and EXPLAIN ANALYZE adds the
measured times.  Observability is *per batch*, never per row: when the
:mod:`repro.obs` flag is on, each node counts its batches and records
one ``plan.node.<Type>`` span as its stream finishes; when it is off
the accounting is two ``perf_counter`` reads and one integer add per
batch, preserving the zero-overhead guarantee bench E20 pins.

The default morsel size is :data:`DEFAULT_BATCH_SIZE`, overridable per
process with the ``REPRO_BATCH_SIZE`` environment variable (CI runs the
whole suite at 1, the worst case) and per call via the ``batch_size``
arguments; :data:`UNBOUNDED` restores the old materialize-everything
behavior (one batch per node), which the equivalence suite and bench
E22 use as the reference pipeline.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Iterator, Sequence

from repro import obs
from repro.relational import compiled, kernels
from repro.relational.relation import Relation
from repro.rules.clause import Interval
from repro.sql import ast
from repro.sql.executor import Scope, project_statement

#: Crossing this estimated-fraction threshold makes a range index scan
#: not worth it compared to a straight filter over the table scan.
INDEX_FRACTION_THRESHOLD = 0.75

#: Morsel size when neither the call site nor the environment says
#: otherwise.  Large enough to amortize per-batch accounting, small
#: enough to keep intermediate state cache-resident.
DEFAULT_BATCH_SIZE = 1024

#: Sentinel batch size: one batch spans the whole input, i.e. the old
#: materializing pipeline (used as the reference in tests and benches).
UNBOUNDED = 2 ** 62

#: Optional hook called as ``observer(plan, batch)`` for every streamed
#: batch (bench E22 installs one to assert the O(batch) bound).  Keep it
#: ``None`` in production: the per-batch cost is then one ``is None``.
_batch_observer: Callable[["Plan", list], None] | None = None


def set_batch_observer(
        observer: Callable[["Plan", list], None] | None) -> None:
    """Install (or clear, with ``None``) the per-batch observer hook."""
    global _batch_observer
    _batch_observer = observer


#: Per-thread statement deadline (a ``time.monotonic`` instant, or
#: absent).  The server sets it around statement execution so a
#: runaway streaming plan is cancelled at the next batch boundary
#: instead of holding the engine lock forever; the cost while unset is
#: one attribute lookup per batch.
_statement_deadline = threading.local()


def set_statement_deadline(at: float | None) -> None:
    """Arm (or clear, with ``None``) this thread's statement deadline.

    Cooperative cancellation: every instrumented ``batches()`` stream
    checks the deadline once per batch and raises
    :class:`~repro.errors.StatementTimeout` past it.  Callers must
    clear the deadline in a ``finally`` -- it is thread state, not
    call-scoped.
    """
    _statement_deadline.at = at


def _check_statement_deadline() -> None:
    at = getattr(_statement_deadline, "at", None)
    if at is not None and time.monotonic() > at:
        from repro.errors import StatementTimeout
        raise StatementTimeout(
            "statement cancelled: execution ran past its deadline "
            "(server statement timeout or request deadline)")


class _DeadlineScope:
    """Context manager arming this thread's statement deadline for the
    given *budget* in seconds (``None`` = no deadline), restoring the
    previous value on exit so scopes nest."""

    __slots__ = ("budget", "_previous")

    def __init__(self, budget: float | None):
        self.budget = budget

    def __enter__(self) -> "_DeadlineScope":
        self._previous = getattr(_statement_deadline, "at", None)
        if self.budget is not None:
            _statement_deadline.at = time.monotonic() + self.budget
        return self

    def __exit__(self, *_exc) -> None:
        _statement_deadline.at = self._previous


def statement_deadline_scope(budget: float | None) -> _DeadlineScope:
    """``with statement_deadline_scope(seconds): ...`` -- cooperative
    cancellation for everything streamed inside the block."""
    return _DeadlineScope(budget)


#: Rejected ``REPRO_BATCH_SIZE`` spellings already warned about -- the
#: env var is consulted on every stream start, so each bad value warns
#: exactly once instead of flooding a long session.
_warned_batch_sizes: set[str] = set()


def default_batch_size() -> int:
    """The process-wide morsel size: ``REPRO_BATCH_SIZE`` when it parses
    to a positive integer, :data:`DEFAULT_BATCH_SIZE` otherwise.

    A set-but-unusable value (non-integer or non-positive) falls back
    to the default *loudly*: one :class:`UserWarning` per distinct bad
    value, naming both.  An unset/empty variable stays silent -- that
    is the normal configuration, not a mistake.
    """
    raw = os.environ.get("REPRO_BATCH_SIZE", "")
    if not raw.strip():
        # The normal configuration, met on every stream start: skip the
        # parse, whose ValueError would cost a few microseconds per query.
        return DEFAULT_BATCH_SIZE
    import warnings

    try:
        value = int(raw)
    except ValueError:
        if raw not in _warned_batch_sizes:
            _warned_batch_sizes.add(raw)
            warnings.warn(
                f"REPRO_BATCH_SIZE={raw!r} is not an integer; using the "
                f"default batch size {DEFAULT_BATCH_SIZE}", stacklevel=2)
        return DEFAULT_BATCH_SIZE
    if value <= 0:
        if raw not in _warned_batch_sizes:
            _warned_batch_sizes.add(raw)
            warnings.warn(
                f"REPRO_BATCH_SIZE={raw!r} is not positive; using the "
                f"default batch size {DEFAULT_BATCH_SIZE}", stacklevel=2)
        return DEFAULT_BATCH_SIZE
    return value


def _chain_scan(plan: "Plan") -> "TableScanPlan | IndexScanPlan | None":
    """The access path under *plan* when *plan* is a single-binding
    chain -- a TableScan or IndexScan, or a Filter over one (the planner
    builds at most one FilterPlan per binding) -- else ``None``."""
    leaf = plan.child if isinstance(plan, FilterPlan) else plan
    return leaf if isinstance(leaf, (TableScanPlan, IndexScanPlan)) else None


def _resolve_chain(plan: "Plan"):
    """Evaluate a single-binding chain (see :func:`_chain_scan`) as a
    :class:`~repro.relational.kernels.Selection` of its relation's
    current column store, or ``None`` when *plan* is not a chain.

    An IndexScan's range is the starting selection, so a Filter over it
    tests only those positions; the positions come from the store's own
    index.  Sets each chain node's actual rows and
    inclusive time to what the row path accumulates on full
    consumption.  Raises
    :class:`~repro.relational.kernels.UnsupportedKernel` when a
    predicate falls outside the kernels' subset -- callers then stream
    the chain through compiled closures, which re-resolve everything
    and surface exact interpreter semantics.
    """
    leaf = _chain_scan(plan)
    if leaf is None:
        return None
    start = time.perf_counter()
    store = leaf.relation.column_store()
    selected = kernels.Selection(
        store, positions=(leaf.positions(store)
                          if isinstance(leaf, IndexScanPlan) else None))
    leaf.actual_rows = len(selected)
    leaf.actual_time_s = time.perf_counter() - start
    if plan is leaf:
        return selected
    selected = selected.restrict(kernels.predicate_mask, plan.predicates,
                                 [leaf.binding])
    plan.actual_rows = len(selected)
    plan.actual_time_s = time.perf_counter() - start
    return selected


def _chain_batches(selected, size: int) -> Iterator[list[tuple]]:
    """Batches of ``(row,)`` for a resolved chain's rows (see
    :func:`_resolve_chain`), in table order."""
    rows = selected.store.rows
    positions = selected.positions()
    if positions is None:
        positions = range(len(rows))
    for start in range(0, len(positions), size):
        yield [(rows[i],) for i in positions[start:start + size]]


def _fused_chain(node_type: str, plan: "Plan"):
    """:func:`_resolve_chain` for an input of a *node_type* node,
    counted in ``columnar_fused_total``; ``None`` = stream *plan*."""
    try:
        chain = _resolve_chain(plan)
    except kernels.UnsupportedKernel:
        chain, result = None, "fallback"
    else:
        if chain is None:
            return None
        result = "fused"
    if obs.enabled():
        obs.counter("columnar_fused_total",
                    "plan subtrees executed via column kernels",
                    node=node_type, result=result).inc()
    return chain


class Plan:
    """Abstract plan node over a query :class:`Scope`."""

    def __init__(self, scope: Scope, bindings: Sequence[str]):
        self.scope = scope
        self.bindings: tuple[str, ...] = tuple(bindings)
        self.actual_rows: int | None = None
        self.actual_time_s: float | None = None

    # -- cost model --------------------------------------------------------

    def records_output(self) -> float:
        """Estimated output cardinality."""
        raise NotImplementedError

    def cost(self) -> float:
        """Estimated total rows touched computing this subtree."""
        raise NotImplementedError

    def distinct_values(self, binding: str, column: str) -> float:
        """Estimated distinct values of ``binding.column`` in the
        output (join-cardinality denominator)."""
        raise NotImplementedError

    # -- execution ---------------------------------------------------------

    def batches(self, batch_size: int | None = None
                ) -> Iterator[list[tuple]]:
        """Stream this node's output as batches of aligned per-binding
        row tuples, each of at most *batch_size* rows.

        The returned generator is instrumented: it accumulates
        :attr:`actual_rows` and inclusive :attr:`actual_time_s` as the
        consumer pulls, counts batches in the metrics registry when
        observability is on, and records one ``plan.node.<Type>`` span
        when the stream finishes (exhaustion *or* early close).
        """
        size = default_batch_size() if batch_size is None else batch_size
        if size <= 0:
            raise ValueError(f"batch size must be positive, got {size}")
        self.actual_rows = 0
        self.actual_time_s = 0.0
        return self._instrumented(self._batches(size), size)

    def _instrumented(self, source: Iterator[list[tuple]],
                      size: int) -> Iterator[list[tuple]]:
        wall_start = time.perf_counter()
        batch_count = rows = 0
        elapsed = 0.0
        try:
            while True:
                _check_statement_deadline()
                start = time.perf_counter()
                try:
                    batch = next(source)
                except StopIteration:
                    self.actual_time_s = elapsed + (
                        time.perf_counter() - start)
                    break
                # Assigned, not added: the stream's own totals supersede
                # what a chain resolution inside ``next`` recorded.
                elapsed += time.perf_counter() - start
                rows += len(batch)
                self.actual_time_s = elapsed
                self.actual_rows = rows
                batch_count += 1
                if obs.enabled():
                    obs.counter("plan_batches_total",
                                "batches streamed by plan node type",
                                node=type(self).__name__).inc()
                if _batch_observer is not None:
                    _batch_observer(self, batch)
                yield batch
        finally:
            source.close()
            obs.record_span(f"plan.node.{type(self).__name__}",
                            wall_start, time.perf_counter(),
                            label=self.label(), rows=self.actual_rows,
                            batches=batch_count, batch_size=size)

    def _batches(self, size: int) -> Iterator[list[tuple]]:
        raise NotImplementedError

    def execute(self, batch_size: int | None = None) -> list[tuple]:
        """Materialize the node's whole output (streaming underneath)."""
        self.reset_actuals()
        out: list[tuple] = []
        for batch in self.batches(batch_size):
            out.extend(batch)
        return out

    def reset_actuals(self) -> None:
        """Clear measured actuals on this subtree (before re-execution,
        so nodes skipped by early termination render as unmeasured)."""
        self.actual_rows = None
        self.actual_time_s = None
        for child in self.children():
            child.reset_actuals()

    # -- rendering ---------------------------------------------------------

    def children(self) -> tuple["Plan", ...]:
        return ()

    def label(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label()}>"


class TableScanPlan(Plan):
    """Full scan of one FROM binding.

    The scan snapshots the relation's row list (a pointer copy, not a
    row copy) when its first batch is requested, so a mutation arriving
    *between batches* neither corrupts iteration nor changes the rows
    this stream produces; the next query sees the mutation through the
    usual version checks.
    """

    def __init__(self, scope: Scope, binding: str, stats):
        super().__init__(scope, [binding])
        self.binding = binding
        self.relation = scope.relations[binding]
        self.stats = stats

    def records_output(self) -> float:
        return float(self.stats.row_count)

    def cost(self) -> float:
        return float(self.stats.row_count)

    def distinct_values(self, binding: str, column: str) -> float:
        return float(self.stats.distinct_values(column))

    def _batches(self, size: int) -> Iterator[list[tuple]]:
        rows = list(self.relation.rows)  # stream-start snapshot
        for start in range(0, len(rows), size):
            yield [(row,) for row in rows[start:start + size]]

    def label(self) -> str:
        return (f"TableScan {self.relation.name}"
                + (f" {self.binding}" if self.binding
                   != self.relation.name.lower() else ""))


class IndexScanPlan(Plan):
    """Index access path for one binding: the rows whose column lies in
    *interval* (a point is the one-value range), found by bisection in
    the :class:`~repro.relational.indexes.SortedIndex` on the relation's
    column store.  The index is resolved when the first batch is
    requested -- not at plan time -- so it reflects every mutation
    between planning and execution."""

    def __init__(self, scope: Scope, binding: str, column: str,
                 interval: Interval, stats):
        super().__init__(scope, [binding])
        self.binding = binding
        self.relation = scope.relations[binding]
        self.column = column
        self.interval = interval
        self.stats = stats

    def records_output(self) -> float:
        fraction = self.stats.selectivity(self.column, self.interval)
        return self.stats.row_count * fraction

    def cost(self) -> float:
        # An index probe touches only its matches (the store builds the
        # index once and DML patches it).
        return self.records_output()

    def distinct_values(self, binding: str, column: str) -> float:
        if column.lower() == self.column.lower():
            return 1.0 if self.interval.is_point() else max(
                1.0, self.stats.distinct_values(column)
                * self.stats.selectivity(self.column, self.interval))
        return min(float(self.stats.distinct_values(column)),
                   max(1.0, self.records_output()))

    def positions(self, store) -> list[int]:
        """Ascending positions of the matching rows in *store*, the
        relation's current column store."""
        index = store.index(self.relation.schema.position(self.column))
        interval = self.interval
        return index.range(interval.low, interval.high,
                           low_inclusive=not interval.low_open,
                           high_inclusive=not interval.high_open)

    def _batches(self, size: int) -> Iterator[list[tuple]]:
        yield from _chain_batches(_resolve_chain(self), size)

    def label(self) -> str:
        return (f"IndexScan {self.relation.name} on {self.column} "
                f"[{self.interval.render(self.column)}]")


class FilterPlan(Plan):
    """Predicate evaluation over a child plan's output.

    Predicates are compiled once per stream into positional closures
    over the aligned row tuples; rows that survive accumulate into
    output batches of the configured size (a selective filter emits
    fewer, fuller batches rather than many near-empty ones)."""

    def __init__(self, child: Plan, predicates: Sequence, selectivity: float):
        super().__init__(child.scope, child.bindings)
        self.child = child
        self.predicates = list(predicates)
        self.selectivity = selectivity

    def records_output(self) -> float:
        return self.child.records_output() * self.selectivity

    def cost(self) -> float:
        return self.child.cost() + self.child.records_output()

    def distinct_values(self, binding: str, column: str) -> float:
        return min(self.child.distinct_values(binding, column),
                   max(1.0, self.records_output()))

    def _compiled_predicates(self) -> list:
        resolve = compiled.slot_resolver(
            [(binding, self.scope.relations[binding].schema)
             for binding in self.bindings])
        return [compiled.compile_expression(predicate, resolve)
                for predicate in self.predicates]

    def _batches(self, size: int) -> Iterator[list[tuple]]:
        fused = _fused_chain("FilterPlan", self)
        if fused is not None:
            yield from _chain_batches(fused, size)
            return
        tests = self._compiled_predicates()
        if len(tests) == 1:
            test = tests[0]
        else:
            test = lambda rows: all(t(rows) for t in tests)
        out: list[tuple] = []
        for batch in self.child.batches(size):
            out.extend(rows for rows in batch if test(rows))
            while len(out) >= size:
                yield out[:size]
                out = out[size:]
        if out:
            yield out

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def label(self) -> str:
        return ("Filter ["
                + " and ".join(p.render() for p in self.predicates) + "]")


class HashJoinPlan(Plan):
    """Equi-join of two plans: hash the right input, probe from the
    left.  ``edges`` are ``(left_binding, left_col, right_binding,
    right_col)`` with sides already normalized.

    The build side (right) is the one intermediate this pipeline must
    materialize -- that is hashing, not batching.  The probe side
    streams: each left batch is probed as it arrives, matches accumulate
    into output batches of at most the configured size, and an empty
    build side terminates the join without pulling a single left batch.
    """

    def __init__(self, left: Plan, right: Plan,
                 edges: Sequence[tuple[str, str, str, str]]):
        super().__init__(left.scope, tuple(left.bindings)
                         + tuple(right.bindings))
        self.left = left
        self.right = right
        self.edges = list(edges)

    def records_output(self) -> float:
        estimate = self.left.records_output() * self.right.records_output()
        for left_bind, left_col, right_bind, right_col in self.edges:
            denominator = max(
                self.left.distinct_values(left_bind, left_col),
                self.right.distinct_values(right_bind, right_col), 1.0)
            estimate /= denominator
        return estimate

    def cost(self) -> float:
        return (self.left.cost() + self.right.cost()
                + self.left.records_output() + self.right.records_output()
                + self.records_output())

    def distinct_values(self, binding: str, column: str) -> float:
        owner = self.left if binding in self.left.bindings else self.right
        return min(owner.distinct_values(binding, column),
                   max(1.0, self.records_output()))

    def _key_positions(self):
        left_keys, right_keys = [], []
        for left_bind, left_col, right_bind, right_col in self.edges:
            left_slot = self.left.bindings.index(left_bind)
            left_pos = self.scope.relations[left_bind].schema.position(
                left_col)
            right_slot = self.right.bindings.index(right_bind)
            right_pos = self.scope.relations[right_bind].schema.position(
                right_col)
            left_keys.append((left_slot, left_pos))
            right_keys.append((right_slot, right_pos))
        return left_keys, right_keys

    def _batches(self, size: int) -> Iterator[list[tuple]]:
        left_keys, right_keys = self._key_positions()
        build = (_fused_chain("HashJoinPlan", self.right)
                 if len(self.edges) == 1 else None)
        if build is not None:
            yield from self._join_fused_build(build, left_keys[0],
                                              right_keys[0][1], size)
            return
        buckets: dict[tuple, list[tuple]] = {}
        for batch in self.right.batches(size):
            for rows in batch:
                key = tuple(rows[slot][pos] for slot, pos in right_keys)
                if any(value is None for value in key):
                    continue
                buckets.setdefault(key, []).append(rows)
        if not buckets:
            return  # early termination: the left side is never pulled
        out: list[tuple] = []
        for batch in self.left.batches(size):
            for rows in batch:
                key = tuple(rows[slot][pos] for slot, pos in left_keys)
                if any(value is None for value in key):
                    continue
                for match in buckets.get(key, ()):
                    out.append(rows + match)
                    if len(out) >= size:
                        yield out
                        out = []
        if out:
            yield out

    def _join_fused_build(self, build, left_key, position: int,
                          size: int) -> Iterator[list[tuple]]:
        """Join on one key with a resolved build (right) chain, keyed on
        its column at *position*: the probe keys are collected first and
        pushed into the build side as a vectorized membership prefilter
        (a semi-join), so only build rows that can match at all pay the
        per-row bucket insert.  Output order matches the row path
        exactly (left row order, build ascending order per bucket).
        """
        # NULL join keys never enter buckets, so fold their exclusion
        # into the build selection up front.
        build = build.restrict(kernels.notnull_mask, position)
        if not len(build):
            return  # early termination: the left side is never pulled
        slot, left_position = left_key
        left_rows = [joined for batch in self.left.batches(size)
                     for joined in batch]
        probe_keys = {joined[slot][left_position] for joined in left_rows}
        probe_keys.discard(None)
        buckets: dict[Any, list[tuple]] = {}
        if probe_keys:
            member = build.restrict(kernels.membership_mask, position,
                                    list(probe_keys))
            rows, column = build.store.rows, build.store.values(position)
            for i in member.positions():
                buckets.setdefault(column[i], []).append((rows[i],))
        out: list[tuple] = []
        for joined in left_rows:
            key = joined[slot][left_position]
            if key is None:
                continue
            for match in buckets.get(key, ()):
                out.append(joined + match)
                if len(out) >= size:
                    yield out
                    out = []
        if out:
            yield out

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        keys = ", ".join(f"{lb}.{lc} = {rb}.{rc}"
                         for lb, lc, rb, rc in self.edges)
        return f"HashJoin [{keys}]"


class ProductPlan(Plan):
    """Cartesian product (no usable join edge).  The right side is
    materialized (it is re-scanned once per left row); the left side
    streams."""

    def __init__(self, left: Plan, right: Plan):
        super().__init__(left.scope, tuple(left.bindings)
                         + tuple(right.bindings))
        self.left = left
        self.right = right

    def records_output(self) -> float:
        return self.left.records_output() * self.right.records_output()

    def cost(self) -> float:
        return (self.left.cost() + self.right.cost()
                + self.records_output())

    def distinct_values(self, binding: str, column: str) -> float:
        owner = self.left if binding in self.left.bindings else self.right
        return owner.distinct_values(binding, column)

    def _batches(self, size: int) -> Iterator[list[tuple]]:
        right_rows = [rows for batch in self.right.batches(size)
                      for rows in batch]
        if not right_rows:
            return
        out: list[tuple] = []
        for batch in self.left.batches(size):
            for rows in batch:
                for other in right_rows:
                    out.append(rows + other)
                    if len(out) >= size:
                        yield out
                        out = []
        if out:
            yield out

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return "Product"


class EmptyPlan(Plan):
    """Semantic short-circuit: the planner proved no row can satisfy the
    query, so nothing is scanned at all.  ``reason`` carries the
    intensional explanation shown by EXPLAIN."""

    def __init__(self, scope: Scope, bindings: Sequence[str], reason: str):
        super().__init__(scope, bindings)
        self.reason = reason

    def records_output(self) -> float:
        return 0.0

    def cost(self) -> float:
        return 0.0

    def distinct_values(self, binding: str, column: str) -> float:
        return 0.0

    def _batches(self, size: int) -> Iterator[list[tuple]]:
        yield from ()

    def label(self) -> str:
        return f"Empty [{self.reason}]"


class ProjectPlan(Plan):
    """Root node: SELECT-list evaluation, grouping, ORDER BY, DISTINCT.

    Delegates to the executor's projection (or, for the shapes it
    covers, the vectorized fast path).  The child's batches are fed
    to the projection as a lazy row stream, so the joined intermediate
    is never materialized -- only the projected output rows (the result
    itself) accumulate here, which is the one permitted top-of-tree
    materialization.
    """

    def __init__(self, scope: Scope, statement: ast.SelectStmt,
                 child: Plan, result_name: str = "result"):
        super().__init__(scope, child.bindings)
        self.statement = statement
        self.child = child
        self.result_name = result_name

    def records_output(self) -> float:
        return self.child.records_output()

    def cost(self) -> float:
        return self.child.cost() + self.child.records_output()

    def distinct_values(self, binding: str, column: str) -> float:
        return self.child.distinct_values(binding, column)

    def execute_relation(self, batch_size: int | None = None) -> Relation:
        self.reset_actuals()
        start = time.perf_counter()
        from repro.plan import vectorized
        result = vectorized.fast_result(self)
        if result is None:
            stream = (rows for batch in self.child.batches(batch_size)
                      for rows in batch)
            result = project_statement(self.scope, self.statement,
                                       self.child.bindings, stream,
                                       self.result_name)
        end = time.perf_counter()
        self.actual_rows = len(result)
        self.actual_time_s = end - start
        obs.record_span("plan.node.ProjectPlan", start, end,
                        label=self.label(), rows=len(result))
        return result

    def _batches(self, size: int):  # pragma: no cover - use execute_relation
        raise NotImplementedError("ProjectPlan executes to a Relation")

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def label(self) -> str:
        if self.statement.star:
            items = "*"
        else:
            items = ", ".join(item.render()
                              for item in self.statement.items)
        return f"Project [{items}]"
