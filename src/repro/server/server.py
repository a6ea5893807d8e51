"""The multi-client query server: thread-per-connection sessions over
one shared :class:`~repro.query.system.IntensionalQueryProcessor`.

Concurrency model
-----------------

The engine itself (catalog, caches, storage transaction buffer) is a
single-threaded structure, so the server serializes *statement
execution* behind one mutex -- under the GIL there is no intra-process
CPU parallelism to lose -- and provides *transaction isolation* across
statements with strict two-phase relation locks
(:mod:`repro.server.concurrency`):

* a reader S-locks the relations a statement touches (plus the rule
  base) for the statement, or until commit inside an explicit
  transaction;
* a writer X-locks the written relation *and* the transaction token --
  the storage engine buffers one transaction at a time, so write
  transactions serialize while readers of untouched relations stream
  past them;
* uncommitted writes are therefore invisible: any reader of a written
  relation blocks on its S-lock until the writer commits or rolls
  back, which is exactly committed-prefix visibility;
* lock waits time out (deadlock victims); a victim inside an explicit
  transaction is rolled back before the error frame is sent.

Nothing is memoized while a transaction is open: the query cache
(:class:`repro.cache.core.QueryCache`) and the wire memo below both
refuse admission while :func:`repro.cache.core.in_transaction` holds,
and a session's ``begin`` always opens that storage transaction.
Every memoized entry therefore comes from committed state.

Hot read responses additionally go through a *wire memo*: the fully
encoded response bytes of a SELECT/ask are reused while the query
cache's dependency check (:func:`repro.cache.core.deps_valid`) passes
over the touched relations and the rule base has neither moved nor gone
stale, skipping re-encoding on the serve path entirely.  The memo holds
at most :data:`WIRE_MEMO_BYTES` of frames.

Lifecycle: connection limits refuse excess clients with an error
frame; idle sessions are closed after ``idle_timeout_s``; shutdown
drains in-flight requests, rolls back every open transaction, and only
then returns.

Resilience (PR 8)
-----------------

Statement execution sits behind an :class:`AdmissionController`
(bounded in-flight + bounded queue; overflow is shed with a
``RetryLater`` error frame carrying a retry-after hint, and nothing has
executed).  The wire-memo fast path runs *before* admission, so cached
reads keep serving under overload.  Requests may carry ``deadline_ms``;
expired work is refused up front and streaming plans are cancelled
cooperatively (:func:`repro.plan.plans.set_statement_deadline`) at the
earlier of the request deadline and ``statement_timeout_s``.  DML with
an idempotency ``token`` is answered from a :class:`DedupTable` on
retry; the commit journals a ``dedup`` record atomically with the
mutation so exactly-once survives recovery.  ``ask`` degrades to an
extensional-only answer (with a warning) while the gate is saturated.
An idle reaper closes silent connections but never one with a
statement in flight.
"""

from __future__ import annotations

import io
import socket
import threading
import time
from typing import Any

from repro import obs
from repro.cache.core import deps_of, deps_valid, in_transaction
from repro.errors import (
    DeadlineExceeded, LockTimeout, ProtocolError, ReproError, SqlError,
    StorageError,
)
from repro.server import protocol
from repro.server.concurrency import (
    LockManager, LockTable, RULES_TOKEN, TXN_TOKEN,
)
from repro.server.resilience import (
    AdmissionController, Deadline, DedupTable,
)
from repro.sql import ast
from repro.sql.fingerprint import normalize_sql
from repro.sql.parser import parse_select, parse_statement

__all__ = ["ADMIN_COMMANDS", "IntensionalQueryServer", "Session"]

#: Shell commands the ``admin`` op may run (read/observability surface;
#: transaction control and recovery go through their typed ops or stay
#: server-local).
ADMIN_COMMANDS = frozenset({
    "cache", "help", "hierarchy", "lint", "metrics", "obs", "rules",
    "schema", "show", "slowlog", "tables", "trace", "wal",
})

#: Wire-memo budget: bytes of encoded response frames kept for hot
#: repeated reads.  The oldest frames go first; a frame larger than the
#: whole budget is sent but not kept.
WIRE_MEMO_BYTES = 6 * 1024 * 1024


class Session:
    """One client connection: socket, lock manager, transaction state."""

    def __init__(self, server: "IntensionalQueryServer",
                 sock: socket.socket, address, session_id: str):
        self.server = server
        self.sock = sock
        self.address = address
        self.id = session_id
        self.locks = LockManager(server.lock_table, session_id)
        self.in_transaction = False
        self.requests_served = 0
        self.started_at = time.time()
        #: idle-reaper state: a session is only reapable when it is
        #: *between* requests (``in_flight`` false) and its last
        #: activity is older than the idle timeout.
        self.last_activity = time.monotonic()
        self.in_flight = False
        self._closing = False
        self._done = False

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> None:
        """The connection loop (runs on the session's own thread)."""
        try:
            self.sock.settimeout(self.server.idle_timeout_s)
            protocol.write_frame(self.sock, {
                "ok": True, "kind": "hello", "server": "repro",
                "session": self.id})
            while not self._closing:
                try:
                    request = protocol.read_frame(self.sock)
                except (TimeoutError, socket.timeout):
                    self._try_send(protocol.error_frame(
                        ProtocolError(
                            f"idle for more than "
                            f"{self.server.idle_timeout_s:g}s; closing"),
                        aborted=self.in_transaction))
                    break
                if request is None:  # clean EOF
                    break
                # Bump activity at statement *start* as well as end:
                # the reaper must never mistake a long-running
                # statement for an idle connection.
                self.in_flight = True
                self.last_activity = time.monotonic()
                try:
                    response, keep_going = self._serve(request)
                finally:
                    self.last_activity = time.monotonic()
                    self.in_flight = False
                if response is not None:
                    self._try_send(response)
                if not keep_going:
                    break
        except (ProtocolError, OSError):
            pass  # peer vanished or spoke garbage; cleanup below
        finally:
            self.cleanup()

    def _try_send(self, message) -> bool:
        """Send a response: a dict is framed, raw ``bytes`` (a frame
        the wire memo stores) go out verbatim."""
        try:
            if isinstance(message, (bytes, bytearray)):
                self.sock.sendall(message)
            else:
                protocol.write_frame(self.sock, message)
            return True
        except OSError:
            return False

    def request_shutdown(self) -> None:
        """Ask the session to finish its in-flight request and exit:
        flips the flag a mid-request session checks, and shuts the
        socket's read side so a session blocked in ``recv`` wakes."""
        self._closing = True
        try:
            self.sock.shutdown(socket.SHUT_RD)
        except OSError:
            pass

    def cleanup(self) -> None:
        """Roll back any open transaction, release locks, close."""
        with self.server.engine_lock:
            if self._done:
                return
            self._done = True
            if self.in_transaction:
                try:
                    self.server.system.rollback()
                    obs.counter(
                        "server_disconnect_rollbacks_total",
                        "open transactions rolled back at "
                        "session end").inc()
                except ReproError:
                    pass
                self.in_transaction = False
        self.locks.end()
        try:
            self.sock.close()
        except OSError:
            pass
        self.server._unregister(self)

    # -- request dispatch --------------------------------------------------

    def _serve(self, request: dict) -> tuple[dict | bytes | None, bool]:
        """``(response, keep_connection)`` for one request frame; a
        ``bytes`` response is a pre-encoded frame from the wire memo."""
        op = str(request.get("op", ""))
        start = time.perf_counter()
        self.requests_served += 1
        self.server.stats["requests_total"] += 1
        aborted = False
        try:
            with obs.span("server.request", op=op, session=self.id):
                # Control ops bypass admission and deadlines entirely:
                # a commit must never be shed, and liveness probes must
                # answer even under full load.
                if op == "ping":
                    return {"ok": True, "kind": "ok", "pong": True}, True
                if op == "bye":
                    return {"ok": True, "kind": "ok",
                            "message": "bye"}, False
                if op in ("begin", "commit", "rollback"):
                    return self._transaction_op(op), True
                deadline = self._request_deadline(request)
                if op == "admin":
                    with self.server.admission.admit(deadline):
                        return self._admin(
                            str(request.get("command", ""))), True
                if op == "sql":
                    return self._sql(request, deadline), True
                if op == "ask":
                    return self._ask(request, deadline), True
                if op == "explain":
                    with self.server.admission.admit(deadline):
                        return self._explain(request, deadline), True
                raise ProtocolError(f"unknown op {op!r}")
        except LockTimeout as error:
            # The deadlock policy: the waiter is the victim.  An open
            # transaction cannot be left half-granted -- roll it back
            # so the client can retry from a clean slate.
            aborted = self._abort_on_timeout()
            return protocol.error_frame(error, aborted=aborted), True
        except ReproError as error:
            self.locks.statement_done()
            return protocol.error_frame(error), True
        except Exception as error:  # never leak a traceback mid-protocol
            self.locks.statement_done()
            return protocol.error_frame(error), True
        finally:
            if obs.enabled():
                obs.histogram(
                    "server_request_seconds",
                    "server request latency by op", op=op).observe(
                        time.perf_counter() - start)

    def _abort_on_timeout(self) -> bool:
        if self.in_transaction:
            with self.server.engine_lock:
                try:
                    self.server.system.rollback()
                except ReproError:
                    pass
                self.in_transaction = False
            self.locks.end()
            obs.counter("server_deadlock_victims_total",
                        "transactions rolled back on lock "
                        "timeout").inc()
            return True
        self.locks.statement_done()
        return False

    # -- transaction control -----------------------------------------------

    def _transaction_op(self, op: str) -> dict:
        system = self.server.system
        if op == "begin":
            if self.in_transaction:
                raise StorageError(
                    "a transaction is already open on this session",
                    hint="commit or rollback it first")
            self.locks.begin()
            try:
                # One write transaction at a time: the storage engine
                # has a single transaction buffer, so BEGIN serializes
                # on the transaction token.
                self.locks.xlock(TXN_TOKEN)
                with self.server.engine_lock:
                    system.begin()
            except ReproError:
                self.locks.end()
                raise
            self.in_transaction = True
            return {"ok": True, "kind": "ok",
                    "message": "transaction opened"}
        if not self.in_transaction:
            raise StorageError(
                f"no open transaction to {op}",
                hint="open one with begin first")
        with self.server.engine_lock:
            if op == "commit":
                system.commit()
            else:
                system.rollback()
        self.in_transaction = False
        self.locks.end()
        return {"ok": True, "kind": "ok", "message": op + " done"}

    # -- statements --------------------------------------------------------

    def _sql(self, request: dict,
             deadline: Deadline | None = None) -> dict | bytes:
        text = str(request.get("sql", ""))
        if not text.strip():
            raise SqlError("empty sql request")
        # Memo before admission: a cached read costs no execution slot,
        # so hot reads keep serving even while the gate sheds new work.
        memo_key = ("sql", normalize_sql(text))
        hit = self._memo_fast_path(memo_key)
        if hit is not None:
            return hit
        with self.server.admission.admit(deadline):
            statement = parse_statement(text)
            if isinstance(statement, (ast.SelectStmt, ast.ExplainStmt)):
                return self._read_statement(statement, memo_key, deadline)
            return self._write_statement(text, statement, request,
                                         deadline)

    def _memo_fast_path(self, key: tuple) -> bytes | None:
        """Serve a memoized frame without parsing or locking.

        Safe without S-locks because :meth:`_wire_memo_get` validates
        every dependency's live version under the engine lock: an open
        transaction's writes bump the versions of the relations they
        touched, so a hit can only reproduce committed state -- the
        same answer the lock path would grant by ordering the reader
        before the writer.
        """
        with self.server.engine_lock:
            return self.server._wire_memo_get(key)

    def _read_statement(self, statement, memo_key: tuple | None,
                        deadline: Deadline | None = None) -> dict | bytes:
        """A SELECT's relation reply, through the wire memo under
        *memo_key*, or an EXPLAIN's text, which is never memoized (the
        ``explain`` op passes no key)."""
        explain = isinstance(statement, ast.ExplainStmt)
        select = statement.select if explain else statement
        self._lock_tables(select, exclusive=False)
        system = self.server.system
        try:
            with self.server.engine_lock:
                if not explain:
                    hit = self.server._wire_memo_get(memo_key)
                    if hit is not None:
                        return hit
                rules = system.planner_rules
                if explain:
                    from repro.plan.explain import explain_select
                    with self._statement_guard(deadline):
                        return {"ok": True, "kind": "text",
                                "text": explain_select(
                                    system.database, select, rules=rules,
                                    analyze=statement.analyze)}
                from repro.sql.executor import execute_select
                with self._statement_guard(deadline):
                    result = execute_select(system.database, select,
                                            rules=rules)
                response = {
                    "ok": True, "kind": "relation",
                    "relation": protocol.encode_relation_payload(result)}
                return self.server._wire_memo_put(memo_key, response,
                                                  select)
        finally:
            self.locks.statement_done()

    def _write_statement(self, text: str, statement, request: dict,
                         deadline: Deadline | None = None) -> dict:
        table = getattr(statement, "table", None)
        if table is None:
            raise SqlError(
                f"unsupported statement {type(statement).__name__}")
        server = self.server
        dedup_key = self._dedup_key(request)
        if dedup_key is not None:
            cached = server.dedup.get(dedup_key)
            if cached is not None:
                return dict(cached, deduplicated=True)
        # Writers serialize behind the transaction token (the storage
        # engine has one transaction buffer): an autocommit write waits
        # for any open explicit transaction to finish, and never joins
        # it by accident.
        self.locks.xlock(TXN_TOKEN)
        self.locks.xlock(table)
        system = server.system
        try:
            record = journaled = False
            with server.engine_lock:
                if dedup_key is not None:
                    # Re-probe under the engine lock: the retried twin
                    # may have committed while this attempt waited.
                    cached = server.dedup.get(dedup_key)
                    if cached is not None:
                        return dict(cached, deduplicated=True)
                from repro.sql.executor import execute_statement
                storage = system.database.storage
                # Inside an explicit transaction the statement's effects
                # can still roll back, so no dedup entry may outlive
                # it; everywhere else the entry is recorded -- durably
                # (WAL) when storage is attached, in memory otherwise
                # (no restart to survive without storage).
                record = (dedup_key is not None
                          and not in_transaction(system.database))
                journaled = record and storage is not None
                with self._statement_guard(deadline):
                    if journaled:
                        # An outer statement scope: the executor's inner
                        # scope exits at depth 1 without flushing, so
                        # the dedup record commits in the same WAL batch
                        # as the mutation.
                        with storage.statement():
                            count = execute_statement(system.database,
                                                      text)
                            storage.note_dedup(dedup_key, {
                                "ok": True, "kind": "count",
                                "count": int(count)})
                    else:
                        count = execute_statement(system.database, text)
            server.stats["writes_total"] += 1
            response = {"ok": True, "kind": "count", "count": int(count)}
            if record:
                # Only after a successful commit: an exception above
                # skipped this, so a failed attempt leaves no entry and
                # the retry re-executes from scratch.
                server.dedup.put(dedup_key, response)
            return response
        finally:
            self.locks.statement_done()

    def _ask(self, request: dict,
             deadline: Deadline | None = None) -> dict | bytes:
        text = str(request.get("sql", ""))
        if not text.strip():
            raise SqlError("empty ask request")
        forward = bool(request.get("forward", True))
        backward = bool(request.get("backward", True))
        memo_key = ("ask", normalize_sql(text), forward, backward)
        hit = self._memo_fast_path(memo_key)
        if hit is not None:
            return hit
        with self.server.admission.admit(deadline):
            return self._ask_slow(text, forward, backward, memo_key,
                                  deadline)

    def _ask_slow(self, text: str, forward: bool, backward: bool,
                  memo_key: tuple,
                  deadline: Deadline | None) -> dict | bytes:
        select = parse_select(text)
        self._lock_tables(select, exclusive=False)
        system = self.server.system
        try:
            with self.server.engine_lock:
                hit = self.server._wire_memo_get(memo_key)
                if hit is not None:
                    return hit
                # Degraded serving: while the admission gate is
                # saturated, skip rule inference and answer
                # extensionally -- a smaller, honest answer beats a
                # shed request.
                shedding = self.server.admission.overloaded()
                with self._statement_guard(deadline):
                    result = system.ask(
                        text, forward=forward and not shedding,
                        backward=backward and not shedding)
                warnings = list(result.warnings)
                if shedding and (forward or backward):
                    warnings.append(
                        "server overloaded: intensional inference "
                        "skipped, extensional answer only")
                response = {
                    "ok": True, "kind": "ask",
                    "relation": protocol.encode_relation_payload(
                        result.extensional),
                    "intensional": [answer.render()
                                    for answer in result.intensional],
                    "summary": result.inference.summary(),
                    "rendered": result.render(),
                    "warnings": warnings}
                if shedding:
                    # A degraded answer is not the full answer: never
                    # let it shadow future healthy serves.
                    return response
                return self.server._wire_memo_put(memo_key, response,
                                                  select)
        finally:
            self.locks.statement_done()

    def _explain(self, request: dict,
                 deadline: Deadline | None = None) -> dict:
        text = str(request.get("sql", ""))
        analyze = bool(request.get("analyze", False))
        statement = parse_statement(text)
        if isinstance(statement, ast.ExplainStmt):
            analyze = analyze or statement.analyze
            statement = statement.select
        if not isinstance(statement, ast.SelectStmt):
            raise SqlError("explain takes a SELECT statement")
        return self._read_statement(ast.ExplainStmt(statement, analyze),
                                    None, deadline)

    # -- admin -------------------------------------------------------------

    def _admin(self, command: str) -> dict:
        word, _sep, _rest = command.strip().partition(" ")
        word = word.lower()
        if word == "locks":
            return {"ok": True, "kind": "text",
                    "text": self.server.lock_table.render()}
        if word == "sessions":
            return {"ok": True, "kind": "text",
                    "text": self.server.render_sessions()}
        if word == "status":
            import json
            return {"ok": True, "kind": "text",
                    "text": json.dumps(self.server.status(), indent=2,
                                       sort_keys=True, default=str)}
        if word not in ADMIN_COMMANDS:
            raise ProtocolError(
                f"admin command {word or '(empty)'!r} is not allowed "
                f"over the wire (allowed: locks, sessions, status, "
                f"{', '.join(sorted(ADMIN_COMMANDS))})")
        with self.server.engine_lock:
            out = io.StringIO()
            shell = self.server._admin_shell()
            shell.out = out
            shell.handle("\\" + command.strip())
            return {"ok": True, "kind": "text",
                    "text": out.getvalue().rstrip("\n")}

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _request_deadline(request: dict) -> Deadline | None:
        """The request's remaining time budget, from ``deadline_ms``.

        A request that arrives already expired is refused here, before
        any admission or parsing work -- the integer header says so
        without touching the clock."""
        raw = request.get("deadline_ms")
        if raw is None:
            return None
        try:
            remaining_ms = int(raw)
        except (TypeError, ValueError):
            raise ProtocolError(
                f"deadline_ms must be an integer, got {raw!r}") from None
        if remaining_ms <= 0:
            raise DeadlineExceeded(
                "the request arrived with its deadline already "
                "expired; nothing was executed")
        return Deadline.after(remaining_ms / 1000.0)

    @staticmethod
    def _dedup_key(request: dict) -> str | None:
        """The idempotency key for a DML request, or ``None``.

        Keyed on the *client* id (stable across reconnects), not the
        session id -- a retry after a wire fault arrives on a fresh
        session and must still hit the original entry.
        """
        token = request.get("token")
        if not token:
            return None
        client = str(request.get("client") or "")
        return f"{client}|{token}"

    def _statement_guard(self, deadline: Deadline | None):
        """Arm the cooperative per-statement execution deadline (the
        earlier of the server's statement timeout and the request's
        remaining budget) around one statement's execution."""
        from repro.plan import plans
        budget = self.server.statement_timeout_s
        if deadline is not None:
            remaining = deadline.remaining()
            budget = remaining if budget is None \
                else min(budget, remaining)
        return plans.statement_deadline_scope(budget)

    def _lock_tables(self, select: ast.SelectStmt,
                     exclusive: bool = False) -> None:
        """S-lock (or X-lock) every relation the statement names, in
        sorted order, plus a shared hold on the rule base."""
        names = sorted({table.name.lower() for table in select.tables})
        self.locks.slock(RULES_TOKEN)
        for name in names:
            if exclusive:
                self.locks.xlock(name)
            else:
                self.locks.slock(name)

    def describe(self) -> dict:
        return {"id": self.id, "peer": f"{self.address}",
                "requests": self.requests_served,
                "in_transaction": self.in_transaction,
                "in_flight": self.in_flight,
                "idle_s": time.monotonic() - self.last_activity,
                "age_s": time.time() - self.started_at}


class IntensionalQueryServer:
    """Serve one :class:`IntensionalQueryProcessor` to many clients."""

    def __init__(self, system, host: str = "127.0.0.1", port: int = 0,
                 max_connections: int = 64,
                 idle_timeout_s: float = 300.0,
                 lock_timeout_s: float = 10.0,
                 drain_timeout_s: float = 5.0,
                 statement_timeout_s: float | None = 30.0,
                 max_in_flight: int = 8,
                 max_queue: int = 16):
        self.system = system
        self.host = host
        self._requested_port = port
        self.max_connections = max_connections
        self.idle_timeout_s = idle_timeout_s
        self.drain_timeout_s = drain_timeout_s
        self.statement_timeout_s = statement_timeout_s
        self.admission = AdmissionController(max_in_flight=max_in_flight,
                                             max_queue=max_queue)
        self.dedup = DedupTable()
        storage = getattr(system.database, "storage", None)
        recovered = getattr(storage, "_dedup_recent", None)
        if recovered:
            # Recovery rebuilt exactly the idempotency entries whose
            # DML effects survived; serve retries from them.
            self.dedup.seed(recovered.items())
        self.lock_table = LockTable(timeout_s=lock_timeout_s)
        #: serializes statement execution on the shared engine.
        self.engine_lock = threading.RLock()
        self.stats = {"connections_total": 0, "requests_total": 0,
                      "writes_total": 0, "refused_total": 0}
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._reaper_thread: threading.Thread | None = None
        self._sessions: dict[str, tuple[Session, threading.Thread]] = {}
        self._sessions_guard = threading.Lock()
        self._next_session = 1
        self._closing = threading.Event()
        self._shell = None
        #: key -> (deps, rules_version, encoded response frame), oldest
        #: first.  The memo stores *encoded bytes*, not the response
        #: dict: a hit skips JSON encoding entirely, which is what lets
        #: N client processes scale past one server-side GIL.
        self._wire_memo: dict[tuple, tuple[tuple, int, bytes]] = {}
        #: bytes of the frames in ``_wire_memo``, at most WIRE_MEMO_BYTES.
        self._wire_memo_bytes = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        if self._listener is None:
            return self._requested_port
        return self._listener.getsockname()[1]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "IntensionalQueryServer":
        if self._listener is not None:
            raise StorageError("server is already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(128)
        self._listener = listener
        self._closing.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-server-accept",
            daemon=True)
        self._accept_thread.start()
        self._reaper_thread = threading.Thread(
            target=self._reaper_loop, name="repro-server-reaper",
            daemon=True)
        self._reaper_thread.start()
        return self

    def __enter__(self) -> "IntensionalQueryServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`shutdown`."""
        if self._listener is None:
            self.start()
        self._closing.wait()

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                sock, address = self._listener.accept()
            except OSError:
                break  # listener closed by shutdown
            self._admit(sock, address)

    def _admit(self, sock: socket.socket, address) -> None:
        with self._sessions_guard:
            if self._closing.is_set() or (
                    len(self._sessions) >= self.max_connections):
                reason = ("server is shutting down"
                          if self._closing.is_set() else
                          f"connection limit of {self.max_connections} "
                          f"reached")
                self.stats["refused_total"] += 1
                try:
                    sock.sendall(protocol.encode_frame(
                        protocol.error_frame(ProtocolError(
                            reason, hint="retry later"))))
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
                return
            session_id = f"s{self._next_session}"
            self._next_session += 1
            session = Session(self, sock, address, session_id)
            thread = threading.Thread(
                target=session.run, name=f"repro-session-{session_id}",
                daemon=True)
            self._sessions[session_id] = (session, thread)
            self.stats["connections_total"] += 1
        obs.counter("server_connections_total",
                    "client connections accepted").inc()
        self._set_connection_gauge()
        thread.start()

    def _reaper_loop(self) -> None:
        interval = max(0.05, min(1.0, self.idle_timeout_s / 4))
        while not self._closing.wait(interval):
            self._reap_idle()

    def _reap_idle(self) -> None:
        """Close sessions idle past the timeout -- but never one with a
        statement in flight: a slow statement is *work*, not idleness,
        whatever the wall clock says (its activity stamp was bumped at
        statement start precisely so this check cannot misfire on a
        request older than the idle window)."""
        now = time.monotonic()
        with self._sessions_guard:
            sessions = [session for session, _ in self._sessions.values()]
        for session in sessions:
            if session.in_flight:
                continue
            if now - session.last_activity <= self.idle_timeout_s:
                continue
            session._try_send(protocol.error_frame(
                ProtocolError(
                    f"idle for more than {self.idle_timeout_s:g}s; "
                    f"closing"),
                aborted=session.in_transaction))
            session.request_shutdown()
            obs.counter("server_idle_reaped_total",
                        "sessions closed by the idle reaper").inc()

    def _unregister(self, session: Session) -> None:
        with self._sessions_guard:
            self._sessions.pop(session.id, None)
        self._set_connection_gauge()

    def _set_connection_gauge(self) -> None:
        with self._sessions_guard:
            live = len(self._sessions)
        obs.gauge("server_connections",
                  "currently connected sessions").set(live)

    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, drain in-flight requests, roll back every
        open transaction, close every connection, and return."""
        if self._listener is None:
            return
        self._closing.set()
        try:
            # Closing alone does not wake a thread blocked in accept()
            # on Linux: the accept thread would live on, holding this
            # server and its system.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._sessions_guard:
            entries = list(self._sessions.values())
        for session, _thread in entries:
            session.request_shutdown()
        deadline = time.monotonic() + (self.drain_timeout_s if drain
                                       else 0.0)
        for session, thread in entries:
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                # Drain budget exhausted: sever the connection; the
                # session's cleanup still runs on its thread, and the
                # sweep below covers a thread stuck outside it.
                try:
                    session.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        for session, thread in entries:
            thread.join(1.0)
            if thread.is_alive():
                session.cleanup()
        if self._accept_thread is not None:
            self._accept_thread.join(1.0)
        self._accept_thread = None
        if self._reaper_thread is not None:
            self._reaper_thread.join(2.0)
        self._reaper_thread = None
        self._listener = None
        self._wire_memo.clear()
        self._wire_memo_bytes = 0

    # -- wire memo ---------------------------------------------------------

    def _wire_memo_get(self, key: tuple) -> bytes | None:
        """The encoded response frame for *key*, while the query cache's
        dependency check passes for it and the rule base has neither
        moved nor gone stale.  Call under the engine lock."""
        entry = self._wire_memo.get(key)
        if entry is None:
            return None
        deps, rules_version, frame = entry
        system = self.system
        if (rules_version != system.rules.version or system.degraded
                or not deps_valid(system.database.catalog, deps)):
            self._wire_memo_drop(key)
            return None
        return frame

    def _wire_memo_put(self, key: tuple, response: dict,
                       select: ast.SelectStmt) -> dict | bytes:
        """Memoize *response* unless a transaction is open (entries
        derived from uncommitted state must never be shareable) or the
        rule base is degraded.  Returns what to send: the encoded frame,
        kept or too large to keep, so a reply is encoded once; else
        *response* itself."""
        if in_transaction(self.system.database) or self.system.degraded:
            return response
        frame = protocol.encode_frame(response)
        self._wire_memo_drop(key)
        if len(frame) > WIRE_MEMO_BYTES:
            return frame
        while self._wire_memo_bytes + len(frame) > WIRE_MEMO_BYTES:
            self._wire_memo_drop(next(iter(self._wire_memo)))
        database = self.system.database
        deps = deps_of(database.relation(table.name)
                       for table in select.tables)
        self._wire_memo[key] = (deps, self.system.rules.version, frame)
        self._wire_memo_bytes += len(frame)
        return frame

    def _wire_memo_drop(self, key: tuple) -> None:
        entry = self._wire_memo.pop(key, None)
        if entry is not None:
            self._wire_memo_bytes -= len(entry[2])

    # -- admin/introspection ----------------------------------------------

    def _admin_shell(self):
        if self._shell is None:
            from repro.cli import Shell
            self._shell = Shell(self.system, out=io.StringIO())
        return self._shell

    def sessions(self) -> list[dict]:
        with self._sessions_guard:
            return [session.describe()
                    for session, _thread in self._sessions.values()]

    def render_sessions(self) -> str:
        rows = self.sessions()
        if not rows:
            return "(no connected sessions)"
        lines = []
        for row in sorted(rows, key=lambda entry: entry["id"]):
            lines.append(
                f"{row['id']}: peer={row['peer']} "
                f"requests={row['requests']} "
                f"tx={'open' if row['in_transaction'] else 'none'} "
                f"age={row['age_s']:.1f}s")
        return "\n".join(lines)

    def status(self) -> dict[str, Any]:
        from repro.plan import parallel
        with self._sessions_guard:
            live = len(self._sessions)
        return {
            "address": self.address,
            "connections": live,
            "max_connections": self.max_connections,
            "idle_timeout_s": self.idle_timeout_s,
            "lock_timeout_s": self.lock_table.timeout_s,
            "statement_timeout_s": self.statement_timeout_s,
            "parallel_workers": parallel.workers(),
            "stats": dict(self.stats),
            "locks": self.lock_table.status(),
            "admission": self.admission.status(),
            "dedup": self.dedup.status(),
            "overloaded": self.admission.overloaded(),
            "degraded_rules": self.system.degraded,
        }
