"""The version-aware multi-level query cache.

Three levels, one invalidation substrate:

* **plan cache** -- compiled :class:`~repro.plan.planner.PlannedQuery`
  trees keyed on the statement's canonical rendering + result name +
  rule-base version.  Validated against the catalog's ``stats_version``
  with the per-dependency revalidation idiom the statistics catalog
  uses: equal version means *nothing anywhere changed* (hit without
  looking further); otherwise each dependency must still be the same
  relation object at the same mutation version.
* **result cache** -- SELECT result relations keyed like plans, guarded
  by a *version vector* over exactly the relations the plan touches.
  Admission is cost-based (only results whose measured execution time
  cleared :attr:`QueryCache.floor_s` are worth the memory) and eviction
  is byte-budgeted LRU.
* **ask cache** -- full intensional answers
  (:class:`~repro.query.system.QueryResult`) keyed on the normalized
  SQL fingerprint, additionally pinned to the rule-base version and the
  storage layer's ``rules_stale`` degradation flag, so ILS re-induction
  and stale-rule suppression can never serve an answer induced from
  other data.

Invalidation is *eager and exact*: the cache subscribes to the
catalog's mutation listeners, so the moment any registered relation
changes -- live DML, transaction rollback undo, or WAL tail replay,
which all mutate through the same hooks -- the entries depending on
that relation (and only those) are dropped.  The lazy version-vector
check stays as a belt-and-suspenders guard.

Transactions: nothing is admitted while an explicit transaction is
open on the attached storage (:func:`in_transaction`; the refusal
counts as ``admit.skipped``), the rule the server's wire memo keeps
too.  Every entry therefore comes from committed state; a
transaction's writes and its rollback's undo bump relation versions,
which the listener and :func:`deps_valid` already check, so no reader
is served uncommitted or undone rows.

Everything is observable twice over: always-on internal counters (the
``\\cache`` shell command and the invalidation tests read these) and
the usual zero-when-disabled obs metrics
(``query_cache_requests_total{level,result}``,
``query_cache_invalidations_total{level,reason}``,
``query_cache_evictions_total``, ``query_cache_bytes``).

Knobs: ``REPRO_CACHE=off`` disables caching process-wide (this module
is the only reader), ``REPRO_CACHE_BYTES`` sets the value-store budget
(default 32 MiB).  The dependency vector (:func:`deps_of`,
:func:`deps_valid`) and the transaction test (:func:`in_transaction`)
are shared with the server's wire memo.
"""

from __future__ import annotations

import os
import sys
import time
from collections import OrderedDict
from typing import Any, Iterable

from repro import obs
from repro.relational.database import Database
from repro.relational.relation import Relation

__all__ = [
    "DEFAULT_BYTE_BUDGET",
    "DEFAULT_FLOOR_MS",
    "QueryCache",
    "cache_enabled_default",
    "deps_of",
    "deps_valid",
    "in_transaction",
    "query_cache",
]

#: Value-store (result + ask entries) budget when ``REPRO_CACHE_BYTES``
#: is absent.  Plans are count-capped instead -- they hold no rows.
DEFAULT_BYTE_BUDGET = 32 * 1024 * 1024

#: Admission floor: executions faster than this are not worth a cache
#: slot (the lookup machinery itself costs a few microseconds).
DEFAULT_FLOOR_MS = 0.2

#: Compiled plans kept per database (LRU on statement fingerprint).
PLAN_CAPACITY = 256

_OFF_VALUES = frozenset({"off", "0", "false", "no"})


def cache_enabled_default() -> bool:
    """Whether ``REPRO_CACHE`` leaves caching on (the default)."""
    return os.environ.get(
        "REPRO_CACHE", "").strip().lower() not in _OFF_VALUES


def _env_byte_budget() -> int:
    raw = os.environ.get("REPRO_CACHE_BYTES", "")
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_BYTE_BUDGET
    return value if value > 0 else DEFAULT_BYTE_BUDGET


def deps_of(relations: Iterable[Relation]) -> tuple:
    """The version vector of *relations*: ``(name, relation, version)``
    per distinct relation name."""
    seen: dict[str, Relation] = {}
    for relation in relations:
        seen[relation.name.lower()] = relation
    return tuple((name, relation, relation.version)
                 for name, relation in seen.items())


def deps_valid(catalog, deps: tuple) -> bool:
    """Whether every relation in *deps* is still registered in *catalog*
    as the same object at the same mutation version."""
    for name, relation, version in deps:
        if name not in catalog:
            return False
        current = catalog.get(name)
        if current is not relation or current.version != version:
            return False
    return True


def in_transaction(database: Database) -> bool:
    """Whether an explicit transaction is open on *database*'s storage:
    while one is, nothing derived from the data may be memoized."""
    storage = database.storage
    return storage is not None and storage.in_transaction()


def estimate_relation_bytes(relation: Relation) -> int:
    """Approximate retained size: fixed overhead plus the mean sampled
    row footprint scaled to the row count (sampling keeps admission
    O(1) for huge results)."""
    rows = relation.rows
    if not rows:
        return 512
    sample = rows[:32]
    per_row = sum(
        sys.getsizeof(row) + sum(sys.getsizeof(value) for value in row)
        for row in sample) / len(sample)
    return int(512 + per_row * len(rows))


class _PlanEntry:
    __slots__ = ("plan", "stats_version", "deps")

    def __init__(self, plan, stats_version: int, deps: tuple):
        self.plan = plan
        self.stats_version = stats_version
        self.deps = deps


class _ValueEntry:
    __slots__ = ("value", "deps", "rules_version", "degraded", "nbytes")

    def __init__(self, value, deps: tuple, rules_version: int,
                 degraded: bool, nbytes: int):
        self.value = value
        self.deps = deps
        self.rules_version = rules_version
        self.degraded = degraded
        self.nbytes = nbytes


class QueryCache:
    """Per-database three-level cache; obtain via :func:`query_cache`."""

    def __init__(self, database: Database):
        self.database = database
        self.enabled = cache_enabled_default()
        self.byte_budget = _env_byte_budget()
        self.floor_s = DEFAULT_FLOOR_MS / 1000.0
        self._plans: OrderedDict[tuple, _PlanEntry] = OrderedDict()
        #: result + ask entries share one LRU and one byte budget.
        self._values: OrderedDict[tuple, _ValueEntry] = OrderedDict()
        #: relation name -> keys of value entries depending on it.
        self._by_dep: dict[str, set[tuple]] = {}
        self.bytes_used = 0
        #: always-on counters: ``"<level>.<hit|miss|bypass>"``,
        #: ``"invalidate.<reason>"``, ``"evictions"``, ``"admit.skipped"``.
        self.counters: dict[str, int] = {}
        database.catalog.add_listener(self._on_mutation)

    # -- bookkeeping -------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _probe(self, level: str, result: str) -> None:
        self._count(f"{level}.{result}")
        obs.cache_event(level, result)

    def _set_bytes_gauge(self) -> None:
        obs.gauge("query_cache_bytes",
                  "bytes retained by the result/ask cache").set(
                      self.bytes_used)

    # -- plan cache --------------------------------------------------------

    def plan_for(self, statement, rules=None, result_name: str = "result",
                 ) -> tuple[Any, str]:
        """Plan *statement* through the plan cache.

        Returns ``(planned, status)`` with status one of ``hit`` /
        ``miss`` / ``bypass`` (EXPLAIN renders it).  A cached plan is
        reused only while every relation it was planned against is the
        same object at the same mutation version -- otherwise the
        statistics it embedded are stale and the statement is re-planned.
        """
        from repro.plan.planner import plan_select
        if not self.enabled:
            self._probe("plan", "bypass")
            return plan_select(self.database, statement, rules=rules,
                               result_name=result_name), "bypass"
        rules_version = 0 if rules is None else rules.version
        key = (statement.render(), result_name, rules_version)
        stats_version = self.database.catalog.stats_version()
        entry = self._plans.get(key)
        if entry is not None:
            if (entry.stats_version == stats_version
                    or deps_valid(self.database.catalog, entry.deps)):
                entry.stats_version = stats_version
                self._plans.move_to_end(key)
                self._probe("plan", "hit")
                return entry.plan, "hit"
            del self._plans[key]
            self._invalidated("plan", "stale")
        planned = plan_select(self.database, statement, rules=rules,
                              result_name=result_name)
        deps = deps_of(planned.scope.relations.values())
        self._plans[key] = _PlanEntry(planned, stats_version, deps)
        while len(self._plans) > PLAN_CAPACITY:
            self._plans.popitem(last=False)
            self._count("evictions")
            obs.counter("query_cache_evictions_total",
                        "cache entries evicted for capacity").inc()
        self._probe("plan", "miss")
        return planned, "miss"

    # -- result cache ------------------------------------------------------

    def execute_select(self, statement, rules=None,
                       result_name: str = "result",
                       batch_size: int | None = None) -> Relation:
        """Execute a SELECT through the plan *and* result caches."""
        planned, _status = self.plan_for(statement, rules=rules,
                                         result_name=result_name)
        if not self.enabled:
            self._probe("result", "bypass")
            return planned.execute(batch_size)
        rules_version = 0 if rules is None else rules.version
        key = ("result", statement.render(), result_name, rules_version)
        entry = self._lookup(key, "result", rules_version, degraded=False)
        if entry is not None:
            return entry.value
        start = time.perf_counter()
        result = planned.execute(batch_size)
        elapsed = time.perf_counter() - start
        self._admit(key, result,
                    deps=deps_of(planned.scope.relations.values()),
                    rules_version=rules_version, degraded=False,
                    elapsed=elapsed,
                    nbytes=estimate_relation_bytes(result))
        return result

    # -- ask cache ---------------------------------------------------------

    def lookup_ask(self, ask_key: tuple, rules_version: int,
                   degraded: bool):
        """A cached :class:`QueryResult` for *ask_key*, or ``None``.

        *ask_key* is ``(normalize_sql(sql), forward, backward)``.  The
        entry must match the current rule-base version *and* the
        staleness degradation flag: a mismatch means the knowledge base
        moved (or went stale) underneath the answer, which is counted
        as a ``stale_rules`` invalidation, never served.
        """
        if not self.enabled:
            self._probe("ask", "bypass")
            return None
        entry = self._lookup(("ask",) + ask_key, "ask", rules_version,
                             degraded)
        return None if entry is None else entry.value

    def admit_ask(self, ask_key: tuple, rules_version: int, degraded: bool,
                  relations: Iterable[Relation], result,
                  elapsed: float) -> None:
        if not self.enabled:
            return
        nbytes = estimate_relation_bytes(result.extensional) + 2048
        self._admit(("ask",) + ask_key, result,
                    deps=deps_of(relations),
                    rules_version=rules_version, degraded=degraded,
                    elapsed=elapsed, nbytes=nbytes)

    # -- shared value-store machinery --------------------------------------

    def _lookup(self, key: tuple, level: str, rules_version: int,
                degraded: bool) -> _ValueEntry | None:
        entry = self._values.get(key)
        if entry is None:
            self._probe(level, "miss")
            return None
        if entry.rules_version != rules_version or \
                entry.degraded != degraded:
            self._drop(key, reason="stale_rules")
            self._probe(level, "miss")
            return None
        if not deps_valid(self.database.catalog, entry.deps):
            self._drop(key, reason="stale")
            self._probe(level, "miss")
            return None
        self._values.move_to_end(key)
        self._probe(level, "hit")
        return entry

    def _admit(self, key: tuple, value, deps: tuple, rules_version: int,
               degraded: bool, elapsed: float, nbytes: int) -> None:
        if (elapsed < self.floor_s or nbytes > self.byte_budget
                or in_transaction(self.database)):
            self._count("admit.skipped")
            return
        self._remove(key)
        self._values[key] = _ValueEntry(value, deps, rules_version,
                                        degraded, nbytes)
        self.bytes_used += nbytes
        for name, _relation, _version in deps:
            self._by_dep.setdefault(name, set()).add(key)
        while self.bytes_used > self.byte_budget and self._values:
            oldest = next(iter(self._values))
            self._remove(oldest)
            self._count("evictions")
            obs.counter("query_cache_evictions_total",
                        "cache entries evicted for capacity").inc()
        self._set_bytes_gauge()

    def _remove(self, key: tuple) -> None:
        entry = self._values.pop(key, None)
        if entry is None:
            return
        self.bytes_used -= entry.nbytes
        for name, _relation, _version in entry.deps:
            keys = self._by_dep.get(name)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_dep[name]

    def _drop(self, key: tuple, reason: str) -> None:
        if key in self._values:
            self._remove(key)
            self._invalidated(key[0], reason)
        self._set_bytes_gauge()

    def _invalidated(self, level: str, reason: str) -> None:
        self._count(f"invalidate.{reason}")
        obs.counter("query_cache_invalidations_total",
                    "cache entries invalidated by reason",
                    level=level, reason=reason).inc()

    # -- invalidation entry points ----------------------------------------

    def _on_mutation(self, relation: Relation | None) -> None:
        """Catalog listener: a registered relation changed (DML, DDL,
        rollback undo, or WAL replay).  Drop exactly the value entries
        depending on it; plans self-invalidate through their version
        checks."""
        if relation is None:
            for key in list(self._values):
                self._drop(key, reason="dml")
            return
        keys = self._by_dep.get(relation.name.lower())
        if keys:
            for key in list(keys):
                self._drop(key, reason="dml")

    def invalidate_rules(self, reason: str = "reinduction") -> int:
        """The rule base was replaced (ILS re-induction): every plan
        (semantic rewrites baked in) and every value entry (results of
        rule-optimized plans, intensional answers) dies.  Returns the
        number of entries dropped."""
        with obs.span("cache.invalidate_rules", reason=reason):
            dropped = len(self._plans)
            for _ in range(dropped):
                self._plans.popitem(last=False)
                self._invalidated("plan", reason)
            for key in list(self._values):
                self._drop(key, reason=reason)
                dropped += 1
        return dropped

    def clear(self) -> int:
        """Drop everything (the ``\\cache clear`` command)."""
        dropped = len(self._plans) + len(self._values)
        self._plans.clear()
        for key in list(self._values):
            self._remove(key)
        self._count("invalidate.clear", dropped)
        self._set_bytes_gauge()
        return dropped

    # -- introspection -----------------------------------------------------

    def entry_counts(self) -> dict[str, int]:
        counts = {"plan": len(self._plans), "result": 0, "ask": 0}
        for key in self._values:
            counts[key[0]] += 1
        return counts

    def status(self) -> dict[str, Any]:
        """Snapshot for the shell's ``\\cache`` command."""
        return {
            "enabled": self.enabled,
            "entries": self.entry_counts(),
            "bytes_used": self.bytes_used,
            "byte_budget": self.byte_budget,
            "floor_ms": self.floor_s * 1000.0,
            "counters": dict(sorted(self.counters.items())),
        }


def query_cache(database: Database) -> QueryCache:
    """The per-database cache, created (and subscribed to the catalog)
    on first use -- the same lazy-accessor idiom as
    :func:`repro.plan.stats.statistics`."""
    cache = getattr(database, "_query_cache", None)
    if cache is None or cache.database is not database:
        cache = QueryCache(database)
        database._query_cache = cache
    return cache
