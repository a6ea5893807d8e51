"""The durable storage engine: transactions, WAL, checkpoint, recovery.

Attachment model: a :class:`StorageEngine` attaches to one in-memory
:class:`~repro.relational.database.Database` by installing itself as the
*journal* of the catalog and of every registered relation.  From then on
every relation mutation and every DDL action reports its redo payload
here *before* applying, and the engine groups those payloads into
transactions:

* ``begin()`` / ``commit()`` / ``rollback()`` -- the explicit API;
* ``statement()`` -- a scope the SQL executor wraps around each DML
  statement, giving autocommit-per-statement semantics (and statement
  rollback on error) when no explicit transaction is open;
* any mutation outside both -- its own single-record transaction.

Transactions reach the WAL only at commit (redo-only, no-steal): the
``begin``/``mut``/``ddl``/``rule_sync``/``commit`` records are appended
as one batch and fsynced per policy, so a crash leaves each transaction
either fully logged or torn at the tail -- recovery therefore always
restores a *prefix of committed transactions*.  Rollback undoes the
in-memory changes from per-relation pre-images captured at first touch.

Recovery (ARIES-lite, redo-only) = load the latest snapshot, then
replay the WAL tail: records are applied in LSN order, only for
transactions whose ``commit`` record survived, and idempotently -- each
mutation record carries the relation's post-mutation version, and replay
skips records at or below the relation's current watermark.  Replayed
mutations go through the same ``_touch`` path as live ones, so index
and statistics caches invalidate identically.

The engine also tracks whether the **rule base** (the rule relations of
:mod:`repro.rules.rule_relations`) still describes the data: an ILS run
commits a ``rule_sync`` marker in the same transaction as the rule
relations, and any later committed data mutation marks the rules stale.
Recovery reports that flag so the query system can degrade to
extensional-only answers instead of serving wrong intensional ones.
"""

from __future__ import annotations

import os
import time
from typing import Any

from repro import obs
from repro.errors import RecoveryError, StorageError
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.rules.rule_relations import (
    ATTRIBUTE_MAP_NAME, INDUCTION_META_NAME, RULE_RELATION_NAME,
    SUPPORT_RELATION_NAME, VALUE_MAP_NAME,
)
from repro.storage import codec
from repro.storage.faults import REAL_OPS, FileOps
from repro.storage.snapshot import (
    SNAPSHOT_FILE, load_snapshot, snapshot_exists, write_snapshot,
)
from repro.storage.wal import WriteAheadLog, read_records

WAL_FILE = "wal.jsonl"

#: How many idempotency-dedup entries the engine keeps (and carries
#: across checkpoints in the snapshot metadata).  Retry windows are
#: seconds; the cap only bounds memory, not correctness within them.
DEDUP_KEEP = 4096

#: Relations that *are* the knowledge base; mutations of anything else
#: count as data mutations for rule-staleness tracking.
RULE_RELATIONS = frozenset(name.lower() for name in (
    RULE_RELATION_NAME, ATTRIBUTE_MAP_NAME, VALUE_MAP_NAME,
    SUPPORT_RELATION_NAME, INDUCTION_META_NAME))


def is_rule_relation(name: str) -> bool:
    return name.lower() in RULE_RELATIONS


class _Transaction:
    """Buffered redo records plus in-memory undo state for one tx.

    ``last_insert_rel``/``last_insert_rows`` point at the trailing
    record when it is an insert, so consecutive inserts to the same
    relation can coalesce without re-inspecting the record dict on
    every row (the WAL hot path).  Any other record appended in between
    must reset ``last_insert_rel`` to ``None``.
    """

    __slots__ = ("txid", "records", "undo",
                 "last_insert_rel", "last_insert_rows",
                 "last_insert_plain")

    def __init__(self, txid: int):
        self.txid = txid
        self.records: list[dict] = []
        self.undo: list[tuple] = []
        self.last_insert_rel: Relation | None = None
        self.last_insert_rows: list | None = None
        self.last_insert_plain = True


class _StatementScope:
    """Context manager the executor wraps around one DML statement."""

    __slots__ = ("engine",)

    def __init__(self, engine: "StorageEngine"):
        self.engine = engine

    def __enter__(self) -> "_StatementScope":
        self.engine._scope_depth += 1
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        engine = self.engine
        engine._scope_depth -= 1
        if exc_type is not None:
            # A failed statement aborts its transaction -- the implicit
            # one it opened, or (PostgreSQL-style) the enclosing
            # explicit one, which cannot be left half-applied.
            if engine._tx is not None:
                engine._rollback_current()
            return None
        if (engine._tx is not None and not engine._explicit
                and engine._scope_depth == 0):
            engine._flush_commit()


class RecoveryReport:
    """What recovery found and did; rendered by the CLI."""

    def __init__(self) -> None:
        self.snapshot_used = False
        self.snapshot_lsn = 0
        self.replayed_records = 0
        self.committed_transactions = 0
        self.discarded_records = 0
        self.torn_tail = False
        self.rules_stale = False
        self.has_rules = False
        self.last_lsn = 0
        #: committed idempotency entries (key -> recorded response):
        #: snapshot metadata overlaid with the WAL tail's ``dedup``
        #: records, exactly the retried-DML answers whose effects
        #: survived recovery.
        self.dedup_entries: dict[str, dict] = {}

    def render(self) -> str:
        lines = [
            "recovery complete:",
            f"  snapshot: "
            + (f"loaded (lsn {self.snapshot_lsn})" if self.snapshot_used
               else "none"),
            f"  WAL: {self.replayed_records} records replayed across "
            f"{self.committed_transactions} committed transactions",
        ]
        if self.discarded_records:
            lines.append(f"  discarded: {self.discarded_records} records "
                         "of uncommitted transactions")
        if self.torn_tail:
            lines.append("  torn tail detected and ignored (normal "
                         "after a crash)")
        if self.has_rules:
            lines.append("  rule base: "
                         + ("STALE -- intensional answers degraded"
                            if self.rules_stale else "fresh"))
        return "\n".join(lines)


class StorageEngine:
    """Durability for one database: WAL + snapshots + transactions."""

    def __init__(self, database: Database, data_dir: str,
                 fsync: str = "commit",
                 file_ops: FileOps | None = None):
        os.makedirs(data_dir, exist_ok=True)
        self.database = database
        self.data_dir = data_dir
        self.ops = file_ops or REAL_OPS
        self.wal = WriteAheadLog(os.path.join(data_dir, WAL_FILE),
                                 fsync=fsync, file_ops=self.ops)
        self._tx: _Transaction | None = None
        self._explicit = False
        self._scope_depth = 0
        self._suspended = False
        self._next_tx = 1
        #: rule-staleness tracking (see module docstring).
        self.has_rules = any(is_rule_relation(name)
                             for name in database.catalog.names())
        self.rules_stale = False
        #: committed idempotency entries (insertion-ordered, capped at
        #: :data:`DEDUP_KEEP`); carried into checkpoint metadata so a
        #: WAL rotation cannot forget a recent retried-DML answer.
        self._dedup_recent: dict[str, dict] = {}
        # Attach: become the journal of the catalog and every relation.
        database.storage = self
        database.catalog.journal = self
        for relation in database.catalog:
            relation.journal = self
        if (self.wal.last_lsn == 0 and not snapshot_exists(data_dir)
                and len(database.catalog) > 0):
            self._bootstrap_catalog()

    def _bootstrap_catalog(self) -> None:
        """First attach of a non-empty database to a fresh directory:
        journal the pre-existing catalog as one committed transaction.

        Without this, a crash before the first checkpoint would recover
        an empty database -- or worse, a later rules transaction without
        the data it was induced from, violating the rule-base-never-
        newer-than-data invariant."""
        tx = self._ensure_tx()
        for relation in self.database.catalog:
            record = {"type": "ddl", "op": "register", "tx": tx.txid,
                      "replace": False,
                      **codec.encode_relation(relation)}
            record["name"] = relation.name
            tx.records.append(record)
        if self.has_rules:
            # Pre-existing rule relations describe the pre-existing
            # data: they bootstrap fresh, not stale.
            tx.records.append({
                "type": "rule_sync", "tx": tx.txid,
                "stats_version": self.database.catalog.stats_version()})
        self._flush_commit()

    # -- attachment --------------------------------------------------------

    def detach(self) -> None:
        """Stop journaling (pending implicit work is committed first)."""
        if self._tx is not None:
            if self._explicit:
                self._rollback_current()
            else:
                self._flush_commit()
        self.database.storage = None
        self.database.catalog.journal = None
        for relation in self.database.catalog:
            relation.journal = None
        self.wal.close()

    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.data_dir, SNAPSHOT_FILE)

    # -- journal protocol (called by Relation / Catalog) -------------------

    def log_mutation(self, relation: Relation, op: str,
                     payload: dict[str, Any]) -> None:
        if self._suspended:
            return
        # The insert arm is the WAL hot path (one call per inserted
        # row): the tx lookup, autocommit check and staleness-cache
        # probe are inlined rather than delegated, and consecutive
        # inserts into the same relation coalesce into one record -- a
        # transaction of N single-row inserts would otherwise pay N
        # JSON encodings, the dominant cost of bulk commits.  The first
        # record's truncate undo already covers the grown row range.
        tx = self._tx
        if tx is None:
            tx = self._tx = _Transaction(self._next_tx)
            self._next_tx += 1
        if op == "insert":
            new_rows = payload["rows"]
            if tx.last_insert_rel is relation:
                if tx.last_insert_plain:
                    tx.last_insert_rows.extend(new_rows)
                else:
                    tx.last_insert_rows.extend(
                        codec.encode_row(r) for r in new_rows)
            else:
                needs = codec.schema_needs_row_encoding(relation.schema)
                if needs:
                    rows_out = [codec.encode_row(r) for r in new_rows]
                else:
                    # Validated rows of a date-free schema are JSON-
                    # safe tuples already -- the record references
                    # them; only the containing list is fresh.
                    rows_out = list(new_rows)
                tx.records.append({"type": "mut", "tx": tx.txid,
                                   "rel": relation.name, "op": "insert",
                                   "ver": relation.version + 1,
                                   "rows": rows_out})
                tx.undo.append(("truncate", relation,
                                len(relation.rows)))
                tx.last_insert_rel = relation
                tx.last_insert_rows = rows_out
                tx.last_insert_plain = not needs
            if not self._explicit and self._scope_depth == 0:
                self._flush_commit()
            return
        tx.last_insert_rel = None
        record = {"type": "mut", "tx": tx.txid, "rel": relation.name,
                  "op": op, "ver": relation.version + 1}
        # Undo entries are exact inverses sized to the rows affected (a
        # full pre-image copy would make a transaction of N inserts into
        # an N-row relation quadratic).  The relation has not mutated
        # yet, so its current rows *are* the pre-image.
        rows = relation.rows
        if op == "delete":
            positions = list(payload["positions"])
            record["positions"] = positions
            tx.undo.append(("reinsert", relation,
                            [(index, rows[index]) for index in positions]))
        elif op == "replace":
            changes = payload["changes"]
            record["changes"] = [[index, codec.encode_row(row)]
                                 for index, row in changes]
            tx.undo.append(("putback", relation,
                            [(index, rows[index]) for index, _ in changes]))
        elif op == "clear":
            tx.undo.append(("allrows", relation, list(rows)))
        else:
            raise StorageError(f"unknown mutation op {op!r}")
        tx.records.append(record)
        self._maybe_autocommit()

    def log_register(self, relation: Relation, replace: bool,
                     displaced: Relation | None) -> None:
        if self._suspended:
            return
        tx = self._ensure_tx()
        tx.last_insert_rel = None
        record = {"type": "ddl", "op": "register", "tx": tx.txid,
                  "replace": bool(replace),
                  **codec.encode_relation(relation)}
        record["name"] = relation.name
        tx.records.append(record)
        tx.undo.append(("register", relation, displaced))
        self._maybe_autocommit()

    def log_drop(self, relation: Relation) -> None:
        if self._suspended:
            return
        tx = self._ensure_tx()
        tx.last_insert_rel = None
        tx.records.append({"type": "ddl", "op": "drop", "tx": tx.txid,
                           "name": relation.name})
        tx.undo.append(("drop", relation))
        self._maybe_autocommit()

    def mark_rules_current(self) -> None:
        """Record (transactionally) that the rule relations now describe
        the current data: the ILS calls this inside the same transaction
        that registers the freshly induced rule relations."""
        if self._suspended:
            return
        tx = self._ensure_tx()
        tx.last_insert_rel = None
        tx.records.append({
            "type": "rule_sync", "tx": tx.txid,
            "stats_version": self.database.catalog.stats_version()})
        self._maybe_autocommit()

    def note_dedup(self, key: str, response: dict[str, Any]) -> None:
        """Journal an idempotency entry in the *current* transaction.

        The server wraps an autocommit DML statement in an outer
        :meth:`statement` scope, executes it (the executor's inner scope
        exits at depth 1 without flushing), then calls this -- so the
        ``dedup`` record commits in the same WAL batch as the mutation
        it acknowledges.  A crash therefore either keeps both (retry
        answered from the journal) or neither (retry re-executes
        safely); there is no window where the effect is durable but the
        acknowledgement key is not.
        """
        if self._suspended:
            return
        tx = self._ensure_tx()
        tx.last_insert_rel = None
        tx.records.append({"type": "dedup", "tx": tx.txid,
                           "key": key, "resp": dict(response)})
        self._maybe_autocommit()

    def _remember_dedup(self, records: list[dict]) -> None:
        for record in records:
            if record["type"] == "dedup":
                self._dedup_recent[record["key"]] = record["resp"]
        while len(self._dedup_recent) > DEDUP_KEEP:
            self._dedup_recent.pop(next(iter(self._dedup_recent)))

    # -- transaction machinery ---------------------------------------------

    def _ensure_tx(self) -> _Transaction:
        if self._tx is None:
            self._tx = _Transaction(self._next_tx)
            self._next_tx += 1
        return self._tx

    def _maybe_autocommit(self) -> None:
        if (self._tx is not None and not self._explicit
                and self._scope_depth == 0):
            self._flush_commit()

    def in_transaction(self) -> bool:
        return self._tx is not None and self._explicit

    def begin(self) -> None:
        """Open an explicit transaction; mutations buffer until
        :meth:`commit` and can be undone by :meth:`rollback`."""
        if self._tx is not None:
            raise StorageError(
                "a transaction is already open",
                hint="commit or rollback the open transaction first")
        self._tx = _Transaction(self._next_tx)
        self._next_tx += 1
        self._explicit = True

    def commit(self) -> None:
        """Make the open transaction durable (WAL append + fsync)."""
        if self._tx is None or not self._explicit:
            raise StorageError(
                "no open transaction to commit",
                hint="open one with begin(); plain statements "
                     "autocommit on their own")
        self._flush_commit()

    def rollback(self) -> None:
        """Discard the open transaction, restoring every touched
        relation's pre-transaction rows (nothing reaches the WAL)."""
        if self._tx is None or not self._explicit:
            raise StorageError(
                "no open transaction to roll back",
                hint="open one with begin(); plain statements "
                     "autocommit on their own")
        self._rollback_current()

    def transaction(self):
        """``with engine.transaction(): ...`` -- begin, then commit on
        success or roll back on error."""
        return _TransactionScope(self)

    def statement(self) -> _StatementScope:
        """The per-DML-statement scope (see class docstring)."""
        return _StatementScope(self)

    def _flush_commit(self) -> None:
        tx, self._tx, self._explicit = self._tx, None, False
        if tx is None or not tx.records:
            return
        records = ([{"type": "begin", "tx": tx.txid}]
                   + tx.records
                   + [{"type": "commit", "tx": tx.txid}])
        self.wal.append(records, commit_batch=True)
        obs.counter("wal_transactions_total",
                    "transactions committed to the WAL").inc()
        self._track_staleness(tx.records)
        self._remember_dedup(tx.records)

    def _track_staleness(self, records: list[dict]) -> None:
        synced_at = touched_data_at = None
        for index, record in enumerate(records):
            if record["type"] == "rule_sync":
                synced_at = index
            elif self._touches_data(record):
                touched_data_at = index
        if synced_at is not None:
            self.has_rules = True
            self.rules_stale = (touched_data_at is not None
                                and touched_data_at > synced_at)
        elif touched_data_at is not None and self.has_rules:
            self.rules_stale = True

    @staticmethod
    def _touches_data(record: dict) -> bool:
        name = record.get("rel") or record.get("name")
        return name is not None and not is_rule_relation(name)

    def _rollback_current(self) -> None:
        tx, self._tx, self._explicit = self._tx, None, False
        if tx is None:
            return
        self._suspended = True
        try:
            for entry in reversed(tx.undo):
                kind = entry[0]
                if kind == "truncate":
                    _kind, relation, length = entry
                    del relation.rows[length:]
                    relation._touch()
                elif kind == "reinsert":
                    _kind, relation, items = entry
                    for position, row in items:  # ascending positions
                        relation.rows.insert(position, row)
                    relation._touch()
                elif kind == "putback":
                    _kind, relation, items = entry
                    for position, row in items:
                        relation.rows[position] = row
                    relation._touch()
                elif kind == "allrows":
                    _kind, relation, rows = entry
                    relation.restore_rows(rows)
                elif kind == "register":
                    _kind, relation, displaced = entry
                    if relation.name in self.database.catalog:
                        self.database.catalog.drop(relation.name)
                    if displaced is not None:
                        self.database.catalog.register(displaced)
                elif kind == "drop":
                    _kind, relation = entry
                    self.database.catalog.register(relation, replace=True)
        finally:
            self._suspended = False

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> int:
        """Atomically snapshot the database (rule relations included)
        and truncate the WAL; returns the snapshot's LSN watermark."""
        if self._tx is not None:
            raise StorageError(
                "cannot checkpoint inside an open transaction",
                hint="commit or rollback first; checkpoints must "
                     "capture a quiesced state")
        start = time.perf_counter()
        meta = {
            "database": self.database.name,
            "lsn": self.wal.last_lsn,
            "versions": {relation.name: relation.version
                         for relation in self.database.catalog},
            "next_tx": self._next_tx,
            "has_rules": self.has_rules,
            "rules_stale": self.rules_stale,
            "dedup": dict(self._dedup_recent),
        }
        write_snapshot(self.database, self.snapshot_path, meta, self.ops)
        self.wal.rotate(meta["lsn"])
        obs.counter("checkpoints_total", "snapshots written").inc()
        obs.histogram("checkpoint_seconds", "checkpoint latency").observe(
            time.perf_counter() - start)
        return meta["lsn"]

    # -- recovery ----------------------------------------------------------

    @classmethod
    def recover(cls, data_dir: str, fsync: str = "commit",
                file_ops: FileOps | None = None,
                ) -> tuple["StorageEngine", RecoveryReport]:
        """Restart: load the latest snapshot, replay the WAL tail, and
        return a live engine over the recovered database plus a report.
        """
        report = RecoveryReport()
        snapshot_path = os.path.join(data_dir, SNAPSHOT_FILE)
        next_tx = 1
        if os.path.exists(snapshot_path):
            database, meta = load_snapshot(snapshot_path)
            report.snapshot_used = True
            report.snapshot_lsn = int(meta.get("lsn", 0))
            report.has_rules = bool(meta.get("has_rules"))
            report.rules_stale = bool(meta.get("rules_stale"))
            report.dedup_entries = dict(meta.get("dedup") or {})
            next_tx = int(meta.get("next_tx", 1))
        else:
            database = Database()
        records, torn = read_records(os.path.join(data_dir, WAL_FILE))
        report.torn_tail = torn
        _replay(database, records, report.snapshot_lsn, report)
        for record in records:
            if record["type"] in ("begin", "mut", "ddl", "rule_sync",
                                  "dedup", "commit"):
                next_tx = max(next_tx, int(record["tx"]) + 1)
        report.has_rules = RULE_RELATION_NAME in database.catalog
        if not report.has_rules:
            report.rules_stale = False
        engine = cls(database, data_dir, fsync=fsync, file_ops=file_ops)
        engine._next_tx = next_tx
        engine.has_rules = report.has_rules
        engine.rules_stale = report.rules_stale
        engine._dedup_recent = dict(report.dedup_entries)
        engine._remember_dedup(())  # enforce the DEDUP_KEEP cap
        report.last_lsn = engine.wal.last_lsn
        obs.counter("recovery_runs_total", "recoveries performed").inc()
        obs.counter("recovery_replayed_records_total",
                    "WAL records redone during recovery").inc(
                        report.replayed_records)
        if report.rules_stale:
            obs.counter("recovery_stale_rule_base_total",
                        "recoveries that found a stale rule base").inc()
        return engine, report

    def replay_tail(self) -> RecoveryReport:
        """Apply committed WAL records the live database has not seen
        yet (idempotent, by version watermark) -- the warm-standby path,
        also exercised by the cache-invalidation regression tests."""
        report = RecoveryReport()
        records, torn = read_records(self.wal.path)
        report.torn_tail = torn
        self._suspended = True
        try:
            _replay(self.database, records, 0, report)
        finally:
            self._suspended = False
        report.last_lsn = self.wal.last_lsn
        return report

    # -- status ------------------------------------------------------------

    def status(self) -> dict[str, Any]:
        return {
            "data_dir": self.data_dir,
            "fsync": self.wal.fsync,
            "last_lsn": self.wal.last_lsn,
            "in_transaction": self.in_transaction(),
            "has_rules": self.has_rules,
            "rules_stale": self.rules_stale,
            "snapshot": os.path.exists(self.snapshot_path),
        }


class _TransactionScope:
    __slots__ = ("engine",)

    def __init__(self, engine: StorageEngine):
        self.engine = engine

    def __enter__(self) -> StorageEngine:
        self.engine.begin()
        return self.engine

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc_type is not None:
            if self.engine._tx is not None:
                self.engine._rollback_current()
            return None
        if self.engine._tx is not None:
            self.engine.commit()


def _replay(database: Database, records: list[dict], start_lsn: int,
            report: RecoveryReport) -> None:
    """Redo committed transactions above *start_lsn* onto *database*."""
    tail = [record for record in records
            if record["lsn"] > start_lsn and record["type"] != "header"]
    committed = {record["tx"] for record in tail
                 if record["type"] == "commit"}
    report.committed_transactions = len(committed)
    last_rules_lsn = last_data_lsn = None
    for record in tail:
        if record["type"] in ("begin", "commit"):
            continue
        if record["tx"] not in committed:
            report.discarded_records += 1
            continue
        if record["type"] == "dedup":
            # Idempotency entries mutate no relation: collect the
            # committed answer for the server's dedup table and move on.
            report.dedup_entries[record["key"]] = record["resp"]
            report.replayed_records += 1
            continue
        _apply(database, record)
        report.replayed_records += 1
        name = record.get("rel") or record.get("name")
        if record["type"] == "rule_sync" or (
                name is not None and is_rule_relation(name)):
            last_rules_lsn = record["lsn"]
        elif name is not None:
            last_data_lsn = record["lsn"]
    # Rule staleness: the snapshot's verdict stands unless the WAL tail
    # has newer evidence either way.
    if last_rules_lsn is not None or last_data_lsn is not None:
        if last_rules_lsn is None:
            report.rules_stale = report.has_rules or report.rules_stale
        else:
            report.rules_stale = (last_data_lsn is not None
                                  and last_data_lsn > last_rules_lsn)
        report.has_rules = True if last_rules_lsn is not None \
            else report.has_rules


def _apply(database: Database, record: dict) -> None:
    kind = record["type"]
    if kind == "rule_sync":
        return
    if kind == "ddl":
        if record["op"] == "register":
            relation = codec.decode_relation(record)
            database.catalog.register(relation, replace=True)
            return
        if record["op"] == "drop":
            if record["name"] in database.catalog:
                database.catalog.drop(record["name"])
            return
        raise RecoveryError(f"unknown DDL op {record['op']!r} in WAL")
    if kind != "mut":
        raise RecoveryError(f"unknown WAL record type {kind!r}")
    try:
        relation = database.relation(record["rel"])
    except Exception as error:
        raise RecoveryError(
            f"WAL mutates unknown relation {record['rel']!r}") from error
    version = int(record["ver"])
    if version <= relation.version:
        return  # already reflected (snapshot or a previous replay)
    op = record["op"]
    rows = relation.rows
    try:
        if op == "insert":
            rows.extend(codec.decode_row(row) for row in record["rows"])
        elif op == "delete":
            doomed = set(record["positions"])
            rows[:] = [row for index, row in enumerate(rows)
                       if index not in doomed]
        elif op == "replace":
            for index, row in record["changes"]:
                rows[index] = codec.decode_row(row)
        elif op == "clear":
            rows.clear()
        else:
            raise RecoveryError(f"unknown mutation op {op!r} in WAL")
    except (IndexError, KeyError) as error:
        raise RecoveryError(
            f"WAL record lsn {record['lsn']} does not fit relation "
            f"{relation.name} (wrong snapshot/WAL pair?)") from error
    # The same invalidation path as a live mutation: bump + hooks ...
    relation._touch()
    # ... then pin the watermark to the logged post-mutation version.
    relation._version = version
