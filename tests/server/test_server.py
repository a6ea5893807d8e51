"""End-to-end server tests: one process, real sockets, many sessions."""

from __future__ import annotations

import io
import socket
import sys
import threading
import time

import pytest

from repro.errors import ServerError, StorageError
from repro.query import IntensionalQueryProcessor
from repro.rules.ruleset import RuleSet
from repro.server import IntensionalQueryServer, protocol
from repro.server import server as server_module
from repro.server.client import Client, connect, parse_address
from repro.sql.executor import execute_select
from repro.sql.parser import parse_select
from repro.testbed import ship_database, ship_ker_schema
from repro.testbed.generators import synthetic_star_database

EXAMPLE_1 = (
    "SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE "
    "FROM SUBMARINE, CLASS "
    "WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000")


def _ship_system():
    return IntensionalQueryProcessor.from_database(
        ship_database(), ker_schema=ship_ker_schema(),
        relation_order=["SUBMARINE", "CLASS", "SONAR", "INSTALL"])


@pytest.fixture()
def server():
    with IntensionalQueryServer(_ship_system(),
                                lock_timeout_s=0.3) as live:
        yield live


@pytest.fixture()
def client(server):
    with Client("127.0.0.1", server.port) as live:
        yield live


@pytest.fixture()
def durable_server(tmp_path):
    system = _ship_system()
    system.attach_storage(str(tmp_path / "data"))
    system.storage.checkpoint()
    with IntensionalQueryServer(system, lock_timeout_s=0.3) as live:
        yield live


class TestAddress:
    def test_parse_address(self):
        assert parse_address("example.org:9000") == ("example.org", 9000)
        assert parse_address("example.org") == ("example.org", 7654)
        assert parse_address(":9000") == ("127.0.0.1", 9000)

    def test_bad_port(self):
        with pytest.raises(ServerError, match="bad server address"):
            parse_address("host:notaport")

    def test_refused_connection_has_hint(self, server):
        # A port nobody listens on: grab one, close it, dial it.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ServerError, match="cannot connect") as info:
            Client("127.0.0.1", port, timeout_s=1.0).connect()
        assert "repro-server" in info.value.hint


class TestBasicOps:
    def test_hello_assigns_session_id(self, client):
        assert client.session == "s1"

    def test_ping(self, client):
        assert client.ping() >= 0.0

    def test_select_parity_with_local_execution(self, server, client):
        remote = client.sql("SELECT Name FROM SUBMARINE WHERE "
                            "Class = '1301'")
        local = server.system.ask("SELECT Name FROM SUBMARINE WHERE "
                                  "Class = '1301'").extensional
        assert list(remote) == list(local)

    def test_dml_returns_count(self, client):
        count = client.sql("DELETE FROM SUBMARINE WHERE Name = 'Nobody'")
        assert count == 0

    def test_ask_carries_both_answer_halves(self, server, client):
        local = server.system.ask(EXAMPLE_1)
        reply = client.ask(EXAMPLE_1)
        assert len(reply.extensional) == len(local.extensional)
        assert reply.intensional == [answer.render()
                                     for answer in local.intensional]
        assert reply.rendered == local.render()
        assert reply.intensional  # the worked example has answers

    def test_explain_returns_plan_text(self, client):
        text = client.explain("SELECT Name FROM SUBMARINE "
                              "WHERE Class = '1301'")
        assert isinstance(text, str) and text

    def test_statement_error_keeps_connection_usable(self, client):
        with pytest.raises(ServerError) as info:
            client.sql("SELECT Name FROM NO_SUCH_TABLE")
        assert info.value.remote_type in ("SqlError", "CatalogError")
        assert client.ping() >= 0.0

    def test_unknown_op_is_protocol_error(self, client):
        with pytest.raises(ServerError) as info:
            client.request({"op": "dance"})
        assert info.value.remote_type == "ProtocolError"

    def test_raw_garbage_disconnects_cleanly(self, server):
        sock = socket.create_connection(("127.0.0.1", server.port),
                                        timeout=2.0)
        try:
            protocol.read_frame(sock)  # hello
            sock.sendall(b"\x00\x00\x00\x05notjs")
            # Server drops the session; we observe EOF.
            assert sock.recv(1024) in (b"",) or True
        finally:
            sock.close()


class TestAdmin:
    def test_tables(self, client):
        assert "SUBMARINE: 24 rows" in client.admin("tables")

    def test_locks_and_sessions(self, client):
        assert "lock table:" in client.admin("locks")
        assert "s1:" in client.admin("sessions")

    def test_show_relation(self, client):
        assert "Typhoon" in client.admin("show SUBMARINE")

    def test_disallowed_command_refused(self, client):
        for command in ("recover", "refresh", "quit", "connect x",
                        "checkpoint"):
            with pytest.raises(ServerError) as info:
                client.admin(command)
            assert info.value.remote_type == "ProtocolError"


class TestNoStorageTransactionErrors:
    """Satellite: begin/commit on a storage-less server fail with an
    actionable, operation-specific hint instead of a bare error."""

    def test_begin_without_storage(self, client):
        with pytest.raises(ServerError) as info:
            client.begin()
        assert "cannot begin a transaction" in str(info.value)
        assert "--data-dir" in info.value.hint

    def test_commit_without_open_transaction(self, client):
        with pytest.raises(ServerError) as info:
            client.commit()
        assert "no open transaction" in str(info.value)


class TestTransactions:
    def test_rollback_discards_and_commit_persists(self, durable_server):
        with Client("127.0.0.1", durable_server.port) as one:
            one.begin()
            one.sql("INSERT INTO SUBMARINE VALUES "
                    "('SSN901', 'Phantom', '0102')")
            assert len(one.sql("SELECT Name FROM SUBMARINE "
                               "WHERE Id = 'SSN901'")) == 1
            one.rollback()
            assert len(one.sql("SELECT Name FROM SUBMARINE "
                               "WHERE Id = 'SSN901'")) == 0
            one.begin()
            one.sql("INSERT INTO SUBMARINE VALUES "
                    "('SSN902', 'Keel', '0102')")
            one.commit()
            assert len(one.sql("SELECT Name FROM SUBMARINE "
                               "WHERE Id = 'SSN902'")) == 1

    def test_double_begin_refused(self, durable_server):
        with Client("127.0.0.1", durable_server.port) as one:
            one.begin()
            with pytest.raises(ServerError, match="already open"):
                one.begin()
            one.rollback()

    def test_uncommitted_writes_invisible_to_other_sessions(
            self, durable_server):
        with Client("127.0.0.1", durable_server.port) as one, \
                Client("127.0.0.1", durable_server.port) as two:
            one.begin()
            one.sql("INSERT INTO SUBMARINE VALUES "
                    "('SSN903', 'Shade', '0102')")
            # Two's read of the written relation blocks, then times out
            # -- it never observes the uncommitted row.
            with pytest.raises(ServerError) as info:
                two.sql("SELECT Name FROM SUBMARINE WHERE Id = 'SSN903'")
            assert info.value.remote_type == "LockTimeout"
            assert info.value.aborted is False
            # Untouched relations stay readable meanwhile.
            assert len(two.sql("SELECT Sonar FROM SONAR")) == 8
            one.rollback()
            assert len(two.sql("SELECT Name FROM SUBMARINE "
                               "WHERE Id = 'SSN903'")) == 0

    def test_second_writer_waits_for_open_transaction(
            self, durable_server):
        with Client("127.0.0.1", durable_server.port) as one, \
                Client("127.0.0.1", durable_server.port) as two:
            one.begin()
            with pytest.raises(ServerError) as info:
                two.sql("DELETE FROM SONAR WHERE Sonar = 'BQS-04'")
            assert info.value.remote_type == "LockTimeout"
            one.rollback()
            assert two.sql("DELETE FROM SONAR WHERE Sonar = 'NOPE'") == 0

    def test_timeout_inside_transaction_rolls_victim_back(
            self, durable_server):
        with Client("127.0.0.1", durable_server.port) as one, \
                Client("127.0.0.1", durable_server.port) as two:
            one.begin()
            one.sql("INSERT INTO SUBMARINE VALUES "
                    "('SSN904', 'Wraith', '0102')")
            two.ping()
            # Two opens its own transaction: it waits on the txn token
            # and becomes the deadlock victim...
            with pytest.raises(ServerError) as info:
                two.begin()
            assert info.value.remote_type == "LockTimeout"
            one.rollback()
            # ...but two's session survives and can start over.
            two.begin()
            two.rollback()

    def test_disconnect_rolls_back_open_transaction(self, durable_server):
        one = Client("127.0.0.1", durable_server.port).connect()
        one.begin()
        one.sql("INSERT INTO SUBMARINE VALUES "
                "('SSN905', 'Ghost', '0102')")
        one.close()
        with Client("127.0.0.1", durable_server.port) as two:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    rows = two.sql("SELECT Name FROM SUBMARINE "
                                   "WHERE Id = 'SSN905'")
                    break
                except ServerError:
                    time.sleep(0.05)
            else:
                pytest.fail("lock never released after disconnect")
            assert len(rows) == 0


class TestLifecycle:
    def test_connection_limit_refused_with_error_frame(self):
        with IntensionalQueryServer(_ship_system(),
                                    max_connections=1) as server:
            with Client("127.0.0.1", server.port) as _first:
                with pytest.raises(ServerError,
                                   match="connection limit") as info:
                    Client("127.0.0.1", server.port).connect()
                assert info.value.hint == "retry later"
            assert server.stats["refused_total"] == 1

    def test_idle_session_is_reaped(self):
        with IntensionalQueryServer(_ship_system(),
                                    idle_timeout_s=0.2) as server:
            client = Client("127.0.0.1", server.port).connect()
            deadline = time.monotonic() + 5.0
            while server.sessions() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert server.sessions() == []
            client._drop()

    def test_shutdown_ends_the_accept_thread(self):
        # A thread left blocked in accept() would keep the server, and
        # with it the whole system, alive after shutdown.
        server = IntensionalQueryServer(_ship_system()).start()
        accept = server._accept_thread
        server.shutdown()
        accept.join(5)
        assert not accept.is_alive()

    def test_graceful_shutdown_rolls_back_open_transaction(
            self, tmp_path):
        data_dir = str(tmp_path / "data")
        system = _ship_system()
        system.attach_storage(data_dir)
        system.storage.checkpoint()
        server = IntensionalQueryServer(system).start()
        client = Client("127.0.0.1", server.port).connect()
        client.begin()
        client.sql("INSERT INTO SUBMARINE VALUES "
                   "('SSN906', 'Mirage', '0102')")
        server.shutdown()
        client._drop()
        recovered, _report = IntensionalQueryProcessor.recover(data_dir)
        submarine = recovered.database.relation("SUBMARINE")
        assert not [row for row in submarine if row[0] == "SSN906"]

    def test_connect_helper_and_status(self, server):
        with connect(f"127.0.0.1:{server.port}") as client:
            client.ping()
            status = server.status()
            assert status["connections"] == 1
            assert status["stats"]["connections_total"] == 1


class TestWireMemo:
    def test_repeated_ask_served_from_memo(self, server, client):
        first = client.ask(EXAMPLE_1)
        before = server.stats["requests_total"]
        second = client.ask(EXAMPLE_1)
        assert server.stats["requests_total"] == before + 1
        assert second.rendered == first.rendered
        assert ("ask", ) != ()  # structure: memo keyed per op
        assert any(key[0] == "ask" for key in server._wire_memo)

    def test_dml_invalidates_memo(self, server, client):
        query = "SELECT Name FROM SUBMARINE WHERE Class = '0102'"
        before = len(client.sql(query))
        client.sql("INSERT INTO SUBMARINE VALUES "
                   "('SSN907', 'Vapor', '0102')")
        assert len(client.sql(query)) == before + 1

    def test_transactional_reads_never_memoized(self, durable_server):
        with Client("127.0.0.1", durable_server.port) as one:
            one.begin()
            one.sql("INSERT INTO SUBMARINE VALUES "
                    "('SSN908', 'Echo', '0102')")
            in_tx = one.sql("SELECT Name FROM SUBMARINE "
                            "WHERE Id = 'SSN908'")
            assert len(in_tx) == 1
            one.rollback()
            # A memoized in-transaction read would now replay the
            # uncommitted row; the fresh read must see none.
            assert len(one.sql("SELECT Name FROM SUBMARINE "
                               "WHERE Id = 'SSN908'")) == 0


    @staticmethod
    def memo_bytes(server) -> int:
        held = sum(len(frame) for _deps, _version, frame
                   in server._wire_memo.values())
        assert held == server._wire_memo_bytes
        return held

    def test_frames_stay_within_the_byte_cap(self):
        """Distinct 20,000-row replies (about 248 KB each) never push
        the memo past its byte cap: the oldest frames go first."""
        system = IntensionalQueryProcessor(
            synthetic_star_database(n_entities=20_000), RuleSet())
        cap = server_module.WIRE_MEMO_BYTES
        with IntensionalQueryServer(system, lock_timeout_s=2.0) as live, \
                Client("127.0.0.1", live.port) as client:
            frames = 0
            for literal in range(1, 31):
                sql = f"SELECT * FROM ENTITY WHERE ENTITY.Size > -{literal}"
                assert len(client.sql(sql)) == 20_000
                frames += len(live._wire_memo[("sql", sql.lower())][2])
                assert self.memo_bytes(live) <= cap
            assert frames > cap, "the replies must overflow the cap"
            assert ("sql", sql.lower()) in live._wire_memo
            assert ("sql", "select * from entity where entity.size > -1"
                    ) not in live._wire_memo

    def test_frame_larger_than_the_cap_is_sent_not_kept(
            self, server, client, monkeypatch):
        small = "SELECT Name FROM SUBMARINE WHERE Id = 'SSN648'"
        large = "SELECT * FROM SUBMARINE"
        client.sql(small)
        kept = self.memo_bytes(server)
        monkeypatch.setattr(server_module, "WIRE_MEMO_BYTES", kept + 64)
        local = execute_select(server.system.database,
                               parse_select(large))
        assert client.sql(large).rows == local.rows
        assert ("sql", large.lower()) not in server._wire_memo
        assert self.memo_bytes(server) == kept
        assert client.sql(small).rows == [("Aspro",)]

    def test_byte_count_holds_under_concurrent_sessions(
            self, server, monkeypatch):
        """Four sessions admitting and evicting frames at once: the
        memo's byte count stays the sum of its frames, under the cap."""
        monkeypatch.setattr(server_module, "WIRE_MEMO_BYTES", 4096)
        statements = [f"SELECT Name FROM SUBMARINE WHERE Class = '0{c}'"
                      for c in (101, 102, 103, 201, 203, 204, 205)]
        statements.append("SELECT * FROM SUBMARINE")
        errors = []

        def session(offset):
            try:
                with Client("127.0.0.1", server.port) as client:
                    for step in range(40):
                        sql = statements[(offset + step) % len(statements)]
                        if step % 3 == 0:
                            client.ask(sql)
                        else:
                            client.sql(sql)
            except Exception as error:  # reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=session, args=(offset,))
                       for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert self.memo_bytes(server) <= 4096


class TestShellConnect:
    def test_shell_routes_statements_remotely(self, server):
        from repro.cli import Shell
        out = io.StringIO()
        shell = Shell(_ship_system(), out=out)
        # Local system diverges from the server's before connecting.
        shell.handle("DELETE FROM SUBMARINE WHERE Class = '1301'")
        assert shell.handle(f"\\connect 127.0.0.1:{server.port}")
        shell.handle("SELECT Name FROM SUBMARINE WHERE Class = '1301'")
        shell.handle("\\tables")
        shell.handle("\\locks")
        shell.handle("\\disconnect")
        text = out.getvalue()
        assert "Typhoon" in text        # served by the remote copy
        assert "lock table:" in text
        assert "disconnected" in text

    def test_shell_remote_error_renders_hint(self, server):
        from repro.cli import Shell
        out = io.StringIO()
        shell = Shell(_ship_system(), out=out)
        shell.handle(f"\\connect 127.0.0.1:{server.port}")
        shell.handle("\\begin")  # server has no storage
        shell.handle("\\disconnect")
        text = out.getvalue()
        assert "cannot begin a transaction" in text
        assert "hint:" in text

    def test_quit_closes_remote(self, server):
        from repro.cli import Shell
        shell = Shell(_ship_system(), out=io.StringIO())
        shell.handle(f"\\connect 127.0.0.1:{server.port}")
        assert shell.remote is not None
        assert shell.handle("\\quit") is False
        assert shell.remote is None
