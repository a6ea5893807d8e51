"""Property-based isolation tests: two sessions, arbitrary
interleavings of DML, ask(), and transaction control, checked against
a committed-prefix model.

The model is a multiset of test-row ids per state:

* ``committed`` -- rows every session must see;
* per-session ``overlay`` -- the open transaction's pending effects,
  visible only to its own session.

The driver applies a hypothesis-generated interleaving one operation
at a time and branches on the *actual* outcome: a ``LockTimeout`` is
the concurrency control working (the blocked statement observed
nothing), any success must match the model exactly.  Invariants:

1. a read never shows another session's uncommitted rows and never
   misses a committed row (no stale cache entry, private or wire-memo,
   can leak across sessions);
2. DML row counts equal the model's (no lost updates);
3. a read can only time out when the *other* session holds a write
   lock on the relation, and a write can only time out when the other
   session holds the transaction token or the relation.

Scripted two-session checks over a table of several thousand rows
(large enough for the vectorized COUNT path) close the file: blocked
dirty reads, invisible rollbacks, and a seeded concurrent burst whose
reads only ever land on commit boundaries.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ServerError
from repro.query import IntensionalQueryProcessor
from repro.relational.database import Database
from repro.relational.datatypes import INTEGER, char
from repro.server import IntensionalQueryServer
from repro.server.client import Client
from repro.testbed import ship_database, ship_ker_schema

IDS = ["T1", "T2", "T3"]

operations = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.one_of(
            st.just(("begin",)),
            st.just(("commit",)),
            st.just(("rollback",)),
            st.just(("read",)),
            st.just(("ask",)),
            st.tuples(st.just("insert"), st.sampled_from(IDS)),
            st.tuples(st.just("delete"), st.sampled_from(IDS)),
        )),
    max_size=9)


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    system = IntensionalQueryProcessor.from_database(
        ship_database(), ker_schema=ship_ker_schema(),
        relation_order=["SUBMARINE", "CLASS", "SONAR", "INSTALL"])
    system.attach_storage(
        str(tmp_path_factory.mktemp("isolation") / "data"))
    system.storage.checkpoint()
    server = IntensionalQueryServer(system, lock_timeout_s=0.1)
    server.start()
    clients = [Client("127.0.0.1", server.port).connect()
               for _ in range(2)]
    yield server, clients
    for client in clients:
        client.close()
    server.shutdown()


class Model:
    """Committed-prefix visibility over the test rows."""

    def __init__(self):
        self.committed: Counter = Counter()
        self.in_tx = [False, False]
        #: pending (op, id) effects of each session's open transaction.
        self.overlay: list[list[tuple[str, str]]] = [[], []]

    def visible_to(self, session: int) -> Counter:
        view = self.committed.copy()
        if self.in_tx[session]:
            for op, row_id in self.overlay[session]:
                if op == "insert":
                    view[row_id] += 1
                else:
                    view[row_id] = 0
        return +view

    def apply(self, session: int, op: str, row_id: str) -> int:
        """Apply a *successful* DML; returns the expected row count."""
        if self.in_tx[session]:
            affected = (self.visible_to(session)[row_id]
                        if op == "delete" else 1)
            self.overlay[session].append((op, row_id))
            return affected
        if op == "insert":
            self.committed[row_id] += 1
            return 1
        affected = self.committed.pop(row_id, 0)
        return affected

    def finish(self, session: int, commit: bool) -> None:
        if commit:
            self.committed = self.visible_to(session)
        self.in_tx[session] = False
        self.overlay[session] = []

    def other_blocks_read(self, session: int) -> bool:
        other = 1 - session
        return self.in_tx[other] and bool(self.overlay[other])

    def other_blocks_write(self, session: int) -> bool:
        return self.in_tx[1 - session]


def _rollback_all(clients):
    for client in clients:
        try:
            client.rollback()
        except ServerError:
            pass


def _reset(clients, model_rows=IDS):
    _rollback_all(clients)
    for row_id in model_rows:
        clients[0].sql(
            f"DELETE FROM SUBMARINE WHERE Id = '{row_id}'")


def _read_ids(client, via_ask: bool) -> Counter:
    sql = "SELECT Id FROM SUBMARINE"
    rows = (client.ask(sql).extensional if via_ask
            else client.sql(sql))
    return Counter(row[0] for row in rows if str(row[0]) in IDS)


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plan=operations)
def test_no_lost_updates_and_committed_prefix_visibility(harness, plan):
    _server, clients = harness
    _reset(clients)
    model = Model()
    for session, op in plan:
        client = clients[session]
        kind = op[0]
        try:
            if kind == "begin":
                client.begin()
                assert not model.in_tx[session]
                assert not model.other_blocks_write(session)
                model.in_tx[session] = True
            elif kind in ("commit", "rollback"):
                getattr(client, kind)()
                assert model.in_tx[session]
                model.finish(session, commit=kind == "commit")
            elif kind in ("read", "ask"):
                seen = _read_ids(client, via_ask=kind == "ask")
                assert seen == model.visible_to(session), \
                    f"read saw {seen}, model says " \
                    f"{model.visible_to(session)}"
            elif kind == "insert":
                row_id = op[1]
                count = client.sql(
                    f"INSERT INTO SUBMARINE VALUES "
                    f"('{row_id}', 'Prop', '0102')")
                expected = model.apply(session, "insert", row_id)
                assert count == expected
            elif kind == "delete":
                row_id = op[1]
                count = client.sql(
                    f"DELETE FROM SUBMARINE WHERE Id = '{row_id}'")
                expected = model.apply(session, "delete", row_id)
                assert count == expected, \
                    f"delete affected {count}, model says {expected}"
        except ServerError as error:
            if error.remote_type == "LockTimeout":
                # Blocking is only legal when the other session
                # actually holds a conflicting lock.
                if kind in ("read", "ask"):
                    assert model.other_blocks_read(session)
                else:
                    assert model.other_blocks_write(session)
                if error.aborted:
                    model.finish(session, commit=False)
            elif error.remote_type == "StorageError":
                # begin-inside-tx / commit-without-tx misuse.
                if kind == "begin":
                    assert model.in_tx[session]
                else:
                    assert kind in ("commit", "rollback")
                    assert not model.in_tx[session]
            else:  # pragma: no cover - unexpected failure class
                raise
    _reset(clients)
    # After cleanup both sessions converge on the same committed view.
    assert _read_ids(clients[0], False) == Counter()
    assert _read_ids(clients[1], True) == Counter()


@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(row_id=st.sampled_from(IDS), via_ask=st.booleans())
def test_private_cache_entries_never_leak(harness, row_id, via_ask):
    """A read cached inside one session's transaction must not be
    served to the other session after rollback."""
    _server, clients = harness
    _reset(clients)
    one, two = clients
    one.begin()
    one.sql(f"INSERT INTO SUBMARINE VALUES ('{row_id}', 'P', '0102')")
    # Prime every cache layer from inside the transaction.
    assert _read_ids(one, via_ask)[row_id] == 1
    one.rollback()
    assert _read_ids(two, via_ask)[row_id] == 0
    assert _read_ids(one, via_ask)[row_id] == 0


# -- scripted sessions over a larger table -----------------------------------

EVENT_ROWS = 6000
COUNT_SQL = "SELECT COUNT(*) FROM EVENT WHERE EVENT.V != 500"


@pytest.fixture(scope="module")
def event_harness(tmp_path_factory):
    """A server over a single EVENT table, plus two clients."""
    database = Database("event-bed")
    database.create("EVENT", [("Id", INTEGER), ("V", INTEGER),
                              ("Cat", char(8))],
                    [(i, (i * 7919) % 1000, f"c{i % 5}")
                     for i in range(EVENT_ROWS)])
    system = IntensionalQueryProcessor.from_database(database)
    system.attach_storage(
        str(tmp_path_factory.mktemp("event-isolation") / "data"))
    system.storage.checkpoint()
    server = IntensionalQueryServer(system, lock_timeout_s=0.25)
    server.start()
    clients = [Client("127.0.0.1", server.port).connect()
               for _ in range(2)]
    yield clients
    for client in clients:
        client.close()
    server.shutdown()


def _count(client) -> int:
    return client.sql(COUNT_SQL).rows[0][0]


def _reset_events(clients):
    _rollback_all(clients)
    clients[0].sql(f"DELETE FROM EVENT WHERE EVENT.Id >= {EVENT_ROWS}")


def test_uncommitted_writes_block_the_other_session(event_harness):
    clients = event_harness
    _reset_events(clients)
    writer, reader = clients
    base = _count(reader)
    writer.begin()
    try:
        writer.sql(f"INSERT INTO EVENT VALUES ({EVENT_ROWS}, 1, 'new')")
        # 2PL: the writer holds an exclusive lock, so the read cannot
        # observe the uncommitted row -- it must block until the lock
        # timeout instead of returning a dirty count.
        with pytest.raises(ServerError) as exc:
            reader.sql(COUNT_SQL)
        assert exc.value.remote_type == "LockTimeout"
    finally:
        writer.commit()
    assert _count(reader) == base + 1
    _reset_events(clients)


def test_rolled_back_writes_stay_invisible(event_harness):
    clients = event_harness
    _reset_events(clients)
    writer, reader = clients
    base = _count(reader)
    writer.begin()
    writer.sql(f"INSERT INTO EVENT VALUES ({EVENT_ROWS + 1}, 1, 'gone')")
    writer.rollback()
    assert _count(reader) == base
    assert _count(writer) == base
    _reset_events(clients)


def test_seeded_burst_reads_only_committed_boundaries(event_harness):
    """Seeded concurrent burst: the writer commits in strides of
    ``tx_rows`` rows while the reader hammers COUNTs.  Every successful
    read must land on a commit boundary -- an intermediate count would
    mean a scan saw half a transaction."""
    clients = event_harness
    _reset_events(clients)
    writer, reader = clients
    rng = random.Random(1234)
    base = _count(reader)
    tx_rows, tx_count = 10, 5
    committed = {base + tx_rows * j for j in range(tx_count + 1)}
    violations: list[int] = []
    done = threading.Event()

    def read_loop():
        while not done.is_set():
            try:
                seen = _count(reader)
            except ServerError as error:  # blocked on the writer: fine
                assert error.remote_type == "LockTimeout"
            else:
                if seen not in committed:
                    violations.append(seen)

    thread = threading.Thread(target=read_loop, daemon=True)
    thread.start()
    try:
        for j in range(tx_count):
            time.sleep(rng.uniform(0.0, 0.01))  # seeded interleaving
            writer.begin()
            for i in range(tx_rows):
                row_id = EVENT_ROWS + 100 + j * tx_rows + i
                writer.sql(
                    f"INSERT INTO EVENT VALUES ({row_id}, 1, 'b')")
            writer.commit()
    finally:
        done.set()
        thread.join(10.0)
    assert not thread.is_alive()
    assert violations == []
    assert _count(reader) == base + tx_rows * tx_count
    _reset_events(clients)
