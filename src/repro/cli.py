"""Interactive shell for the intensional query processing system.

Usage::

    python -m repro.cli                 # ship database, knowledge induced
    python -m repro.cli --db dump.txt --ker schema.ker

Plain input is SQL and is answered extensionally *and* intensionally.
``EXPLAIN SELECT ...`` prints the cost-based query plan (estimated vs.
actual cardinalities, index choices, semantic rewrites) instead of the
answer; ``EXPLAIN ANALYZE SELECT ...`` adds the measured per-node wall
times.  Backslash commands inspect the system:

=================  ====================================================
``\\rules``         print the knowledge base (isa style)
``\\schema``        print the KER schema
``\\hierarchy T``   print the type hierarchy rooted at T
``\\tables``        list relations with row counts
``\\show T``        print relation T
``\\explain <sql>`` run a query and print the derivation trace
``\\lint``          run the KER schema linter against the data
``\\quel <stmt>``   run a QUEL statement
``\\cache``         query-cache status (``clear`` drops every entry,
                   ``on``/``off`` toggle caching for this session)
``\\obs on|off``    enable/disable observability (tracing + metrics)
``\\metrics``       dump recorded metrics (``prom`` for Prometheus
                   text format, ``reset`` to clear)
``\\trace [N]``     show the last N tracing spans (``clear``, or
                   ``export PATH`` for a JSONL dump)
``\\slowlog [ms]``  show the slow-query log / set its threshold
``\\begin``         open an explicit transaction (needs ``--data-dir``)
``\\commit``        commit it durably; ``\\rollback`` undoes it
``\\connect H:P``   drive a remote repro-server: SQL/ask/DML and
                   transactions go over the wire (with retries, an
                   idempotency token per DML and a circuit breaker)
                   until ``\\disconnect``; bare ``\\connect`` while
                   connected prints client+server resilience status
``\\checkpoint``    snapshot the database and truncate the WAL
``\\wal [N]``       storage status and the last N WAL records
``\\recover``       reload from the data directory (snapshot + WAL)
``\\refresh``       re-induce the rule base and store it atomically
``\\help``          this table
``\\quit``          leave
=================  ====================================================
"""

from __future__ import annotations

import argparse
import sys
from typing import TextIO

from repro.errors import ReproError
from repro.induction import InductionConfig
from repro.ker import parse_ker
from repro.ker.diagram import render_hierarchy, render_schema
from repro.quel import QuelSession
from repro.query import IntensionalQueryProcessor
from repro.relational.relation import Relation
from repro.relational.textio import load_database
from repro.testbed import ship_database, ship_ker_schema


class Shell:
    """The command interpreter; I/O-injectable for testing."""

    #: backslash commands forwarded over the wire while ``\connect``ed
    #: (transaction control plus the server's admin surface); anything
    #: else keeps acting on the local in-process system.
    REMOTE_COMMANDS = frozenset({
        "begin", "commit", "rollback", "cache", "hierarchy", "lint",
        "locks", "metrics", "obs", "rules", "schema", "sessions",
        "show", "slowlog", "status", "tables", "trace", "wal",
    })

    def __init__(self, system: IntensionalQueryProcessor,
                 out: TextIO | None = None):
        self.system = system
        self.out = out or sys.stdout
        self.quel = QuelSession(system.database)
        #: a repro.server client while ``\connect``ed, else None.
        self.remote = None

    def write(self, text: str = "") -> None:
        self.out.write(text + "\n")

    def handle(self, line: str) -> bool:
        """Process one input line; returns False when the shell should
        exit."""
        line = line.strip()
        if not line:
            return True
        try:
            if line.startswith("\\"):
                return self._command(line)
            if self.remote is not None:
                return self._remote_statement(line)
            first_word = line.split(None, 1)[0].lower()
            if first_word in ("insert", "delete", "update"):
                from repro.sql import execute_statement
                count = execute_statement(self.system.database, line)
                self.write(f"{count} rows affected")
                return True
            if first_word == "explain":
                from repro.sql import execute_statement
                self.write(execute_statement(self.system.database, line,
                                             rules=self.system.rules))
                return True
            result = self.system.ask(line)
            self.write(result.render())
        except ReproError as error:
            self.write(f"error: {error}")
            hint = getattr(error, "hint", None)
            if hint:
                self.write(f"hint: {hint}")
        return True

    def _command(self, line: str) -> bool:
        command, _sep, argument = line[1:].partition(" ")
        command = command.lower()
        argument = argument.strip()
        if command in ("quit", "q", "exit"):
            self._disconnect(silent=True)
            return False
        if command == "connect":
            return self._connect_command(argument)
        if command == "disconnect":
            self._disconnect()
            return True
        if self.remote is not None and command in self.REMOTE_COMMANDS:
            return self._remote_command(command, argument)
        if command == "help":
            self.write(__doc__.split("=" * 17, 1)[-1]
                       if "=" in __doc__ else __doc__)
            return True
        if command == "rules":
            if len(self.system.rules):
                self.write(self.system.rules.render(isa_style=True))
            else:
                self.write("(no rules -- no KER schema was supplied)")
            return True
        if command == "schema":
            if self.system.binding is None:
                self.write("(no KER schema loaded)")
            else:
                self.write(render_schema(self.system.binding.schema))
            return True
        if command == "hierarchy":
            if self.system.binding is None:
                self.write("(no KER schema loaded)")
            elif not argument:
                self.write("usage: \\hierarchy TYPE")
            else:
                self.write(render_hierarchy(
                    self.system.binding.schema, argument.upper()))
            return True
        if command == "tables":
            for relation in self.system.database.catalog:
                self.write(f"{relation.name}: {len(relation)} rows")
            return True
        if command == "show":
            if not argument:
                self.write("usage: \\show RELATION")
            else:
                self.write(
                    self.system.database.relation(argument).render())
            return True
        if command == "lint":
            if self.system.binding is None:
                self.write("(no KER schema loaded)")
                return True
            from repro.ker import analyze_binding
            findings = analyze_binding(self.system.binding)
            if not findings:
                self.write("schema and data are clean")
            for finding in findings:
                self.write(finding.render())
            return True
        if command == "explain":
            if not argument:
                self.write("usage: \\explain SELECT ...")
                return True
            from repro.inference import explain_inference
            result = self.system.ask(argument)
            self.write(explain_inference(result.inference))
            return True
        if command == "quel":
            if not argument:
                self.write("usage: \\quel <statement>")
                return True
            result = self.quel.execute(argument)
            if isinstance(result, Relation):
                self.write(result.render())
            elif result is not None:
                self.write(f"{result} rows affected")
            else:
                self.write("ok")
            return True
        if command == "cache":
            return self._cache_command(argument)
        if command == "obs":
            return self._obs_command(argument)
        if command == "metrics":
            return self._metrics_command(argument)
        if command == "trace":
            return self._trace_command(argument)
        if command == "slowlog":
            return self._slowlog_command(argument)
        if command == "begin":
            self.system.begin()
            self.write("transaction opened")
            return True
        if command == "commit":
            self.system.commit()
            self.write("committed")
            return True
        if command == "rollback":
            self.system.rollback()
            self.write("rolled back")
            return True
        if command == "checkpoint":
            lsn = self.system.checkpoint()
            self.write(f"checkpoint complete (WAL truncated at lsn {lsn})")
            return True
        if command == "wal":
            return self._wal_command(argument)
        if command == "recover":
            return self._recover_command()
        if command == "refresh":
            rules = self.system.refresh_rules()
            self.write(f"rule base refreshed: {len(rules)} rules stored")
            return True
        self.write(f"unknown command \\{command} (try \\help)")
        return True

    # -- remote (\connect) commands ------------------------------------------

    def _connect_command(self, argument: str) -> bool:
        from repro.server.client import connect
        from repro.server.resilience import CircuitBreaker, RetryPolicy
        if not argument:
            if self.remote is None:
                self.write("usage: \\connect HOST:PORT")
                return True
            # Bare \connect while connected: the resilience dashboard.
            status = self.remote.resilience_status()
            self.write(f"connected to {self.remote.host}:"
                       f"{self.remote.port} "
                       f"(session {self.remote.session})")
            self.write(
                f"client: {status['requests']} requests, "
                f"{status['retries']} retries, "
                f"{status['reconnects']} reconnects, "
                f"{status['deduped']} deduped DML"
                + (f", breaker {status['breaker']['state']}"
                   if "breaker" in status else ""))
            self.write(self.remote.admin("status"))
            return True
        if self.remote is not None:
            self._disconnect()
        self.remote = connect(argument, retry=RetryPolicy(),
                              breaker=CircuitBreaker())
        self.write(f"connected to {argument} "
                   f"(session {self.remote.session}); statements now "
                   "run remotely with retries -- \\connect for status, "
                   "\\disconnect to go back local")
        return True

    def _disconnect(self, silent: bool = False) -> None:
        remote, self.remote = self.remote, None
        if remote is None:
            if not silent:
                self.write("(not connected)")
            return
        remote.close()
        if not silent:
            self.write("disconnected; statements run on the local "
                       "in-process system again")

    def _remote_statement(self, line: str) -> bool:
        first_word = line.split(None, 1)[0].lower()
        if first_word == "select":
            self.write(self.remote.ask(line).render())
            return True
        result = self.remote.sql(line)
        if isinstance(result, Relation):
            self.write(result.render())
        elif isinstance(result, int):
            self.write(f"{result} rows affected")
        else:
            self.write(str(result))
        return True

    def _remote_command(self, command: str, argument: str) -> bool:
        if command == "begin":
            self.remote.begin()
            self.write("transaction opened (remote)")
        elif command == "commit":
            self.remote.commit()
            self.write("committed (remote)")
        elif command == "rollback":
            self.remote.rollback()
            self.write("rolled back (remote)")
        else:
            text = self.remote.admin(
                f"{command} {argument}".strip())
            self.write(text)
        return True

    # -- durability commands -------------------------------------------------

    def _wal_command(self, argument: str) -> bool:
        storage = self.system.storage
        if storage is None:
            self.write("(no durable storage attached -- start with "
                       "--data-dir DIR)")
            return True
        status = storage.status()
        self.write(f"data directory: {status['data_dir']}")
        self.write(f"fsync policy:   {status['fsync']}")
        self.write(f"last LSN:       {status['last_lsn']}")
        self.write(f"snapshot:       "
                   + ("present" if status["snapshot"] else "none"))
        self.write(f"transaction:    "
                   + ("open" if status["in_transaction"] else "none"))
        if status["has_rules"]:
            self.write("rule base:      "
                       + ("STALE (run \\refresh)" if status["rules_stale"]
                          else "fresh"))
        count = 10
        if argument:
            try:
                count = int(argument)
            except ValueError:
                self.write("usage: \\wal [N]")
                return True
        from repro.storage import read_records
        records, torn = read_records(storage.wal.path)
        for record in records[-count:]:
            parts = [f"lsn={record['lsn']}", record["type"]]
            if "tx" in record:
                parts.append(f"tx={record['tx']}")
            if "rel" in record:
                parts.append(f"rel={record['rel']} op={record['op']}")
            elif "name" in record:
                parts.append(f"{record.get('op', '')} {record['name']}")
            self.write("  " + " ".join(parts))
        if torn:
            self.write("  (torn tail follows -- dropped on next append)")
        return True

    def _recover_command(self) -> bool:
        storage = self.system.storage
        if storage is None:
            self.write("(no durable storage attached -- start with "
                       "--data-dir DIR)")
            return True
        data_dir = storage.data_dir
        fsync = storage.wal.fsync
        storage.detach()
        ker_schema = (self.system.binding.schema
                      if self.system.binding is not None else None)
        self.system, report = IntensionalQueryProcessor.recover(
            data_dir, fsync=fsync, ker_schema=ker_schema)
        self.quel = QuelSession(self.system.database)
        self.write(report.render())
        return True

    # -- cache commands -------------------------------------------------------

    def _cache_command(self, argument: str) -> bool:
        from repro.cache import query_cache
        cache = query_cache(self.system.database)
        if argument == "clear":
            dropped = cache.clear()
            self.write(f"cache cleared ({dropped} entries dropped)")
            return True
        if argument in ("on", "off"):
            cache.enabled = argument == "on"
            self.write(f"query cache {'enabled' if cache.enabled else 'disabled'}")
            return True
        if argument not in ("", "status"):
            self.write("usage: \\cache [status|clear|on|off]")
            return True
        status = cache.status()
        entries = status["entries"]
        self.write("query cache: "
                   + ("enabled" if status["enabled"] else "disabled"))
        self.write(f"  entries:   {entries['plan']} plan, "
                   f"{entries['result']} result, {entries['ask']} ask")
        self.write(f"  bytes:     {status['bytes_used']} / "
                   f"{status['byte_budget']}")
        self.write(f"  floor:     {status['floor_ms']:g}ms admission floor")
        counters = status["counters"]
        for level in ("plan", "result", "ask"):
            hits = counters.get(f"{level}.hit", 0)
            misses = counters.get(f"{level}.miss", 0)
            if hits or misses:
                self.write(f"  {level + ':':<10} {hits} hits, "
                           f"{misses} misses")
        invalidations = {name.split(".", 1)[1]: count
                         for name, count in counters.items()
                         if name.startswith("invalidate.")}
        if invalidations:
            self.write("  invalidations: " + " ".join(
                f"{reason}={count}"
                for reason, count in sorted(invalidations.items())))
        if counters.get("evictions"):
            self.write(f"  evictions: {counters['evictions']}")
        return True

    # -- observability commands ---------------------------------------------

    def _obs_command(self, argument: str) -> bool:
        from repro import obs
        if argument == "on":
            obs.enable()
            self.write("observability enabled")
        elif argument == "off":
            obs.disable()
            self.write("observability disabled")
        elif argument in ("", "status"):
            state = "enabled" if obs.enabled() else "disabled"
            self.write(f"observability is {state} "
                       f"({len(obs.tracer())} spans retained, "
                       f"{len(obs.slow_queries())} slow queries)")
        else:
            self.write("usage: \\obs [on|off|status]")
        return True

    def _metrics_command(self, argument: str) -> bool:
        from repro import obs
        if argument == "prom":
            self.write(obs.metrics().render_prometheus())
        elif argument == "reset":
            obs.metrics().reset()
            self.write("metrics cleared")
        elif not argument:
            self.write(obs.metrics().render())
        else:
            self.write("usage: \\metrics [prom|reset]")
        return True

    def _trace_command(self, argument: str) -> bool:
        from repro import obs
        if argument == "clear":
            obs.tracer().clear()
            self.write("trace buffer cleared")
            return True
        if argument.startswith("export"):
            _word, _sep, path = argument.partition(" ")
            path = path.strip()
            if not path:
                self.write("usage: \\trace export PATH")
                return True
            count = obs.tracer().export_jsonl(path)
            self.write(f"{count} spans written to {path}")
            return True
        count = 20
        if argument:
            try:
                count = int(argument)
            except ValueError:
                self.write("usage: \\trace [N|clear|export PATH]")
                return True
        spans = obs.tracer().tail(count)
        if not spans:
            self.write("(no spans recorded -- \\obs on to start tracing)")
        for span in spans:
            self.write(span.render())
        return True

    def _slowlog_command(self, argument: str) -> bool:
        from repro import obs
        log = obs.slow_queries()
        if argument == "clear":
            log.clear()
            self.write("slow-query log cleared")
            return True
        if argument:
            try:
                threshold_ms = float(argument)
            except ValueError:
                self.write("usage: \\slowlog [THRESHOLD_MS|clear]")
                return True
            log.set_threshold(threshold_ms / 1000.0)
            self.write(f"slow-query threshold set to {threshold_ms:g}ms")
            return True
        self.write(log.render())
        return True

    def repl(self, stream: TextIO | None = None) -> None:
        """Read-eval-print over *stream* (stdin by default)."""
        stream = stream or sys.stdin
        self.write("intensional query shell -- \\help for commands")
        while True:
            self.out.write("iqp> ")
            self.out.flush()
            line = stream.readline()
            if not line:
                break
            if not self.handle(line):
                break


def build_system(db_path: str | None = None,
                 ker_path: str | None = None,
                 n_c: float = 3,
                 data_dir: str | None = None,
                 fsync: str = "commit",
                 cache_bytes: int | None = None,
                 out: TextIO | None = None) -> IntensionalQueryProcessor:
    """Assemble the system for the CLI: the ship test bed by default,
    or a text-dumped database plus optional KER DDL file.

    With *data_dir*, the system is durable: an existing snapshot/WAL in
    the directory is recovered from (the ``--db`` bootstrap is ignored
    then); a fresh directory is initialized with a baseline checkpoint
    of the bootstrap database.

    *cache_bytes* overrides the query cache's result-store budget
    (``--cache-bytes``; the ``REPRO_CACHE_BYTES`` env var is the
    non-CLI spelling).
    """
    def _configure_cache(system: IntensionalQueryProcessor
                         ) -> IntensionalQueryProcessor:
        if cache_bytes is not None:
            from repro.cache import query_cache
            query_cache(system.database).byte_budget = max(cache_bytes, 0)
        return system

    schema = None
    if ker_path is not None:
        with open(ker_path) as handle:
            schema = parse_ker(handle.read())
    elif db_path is None:
        # Default ship test bed: its KER schema is built in, and a
        # recovery without it would silently lose the binding (and with
        # it every subtype-style intensional answer).
        schema = ship_ker_schema()
    if data_dir is not None:
        from repro.storage import SNAPSHOT_FILE, snapshot_exists
        from repro.storage.engine import WAL_FILE
        import os
        if (snapshot_exists(data_dir)
                or os.path.exists(os.path.join(data_dir, WAL_FILE))):
            system, report = IntensionalQueryProcessor.recover(
                data_dir, fsync=fsync, ker_schema=schema)
            if out is not None:
                out.write(report.render() + "\n")
            return _configure_cache(system)
    if db_path is None:
        system = IntensionalQueryProcessor.from_database(
            ship_database(), ker_schema=ship_ker_schema(),
            config=InductionConfig(n_c=n_c),
            relation_order=["SUBMARINE", "CLASS", "SONAR", "INSTALL"])
    else:
        with open(db_path) as handle:
            database = load_database(handle.readlines())
        system = IntensionalQueryProcessor.from_database(
            database, ker_schema=schema, config=InductionConfig(n_c=n_c))
    if data_dir is not None:
        storage = system.attach_storage(data_dir, fsync=fsync)
        if len(system.rules):
            # The bootstrap induction predates attachment; store its
            # rule relations and sync marker so the baseline snapshot
            # starts with a fresh (not stale) knowledge base.
            from repro.rules.rule_relations import encode_rule_relations
            with storage.transaction():
                encode_rule_relations(system.rules).register_into(
                    system.database)
                storage.mark_rules_current()
        storage.checkpoint()
    return _configure_cache(system)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Intensional query shell (Chu & Lee reproduction)")
    parser.add_argument("--db", help="database dump (repro.relational."
                                     "textio format); default: ship DB")
    parser.add_argument("--ker", help="KER DDL file for --db")
    parser.add_argument("--nc", type=float, default=3,
                        help="induction support threshold N_c")
    parser.add_argument("--data-dir", help="durable storage directory "
                        "(WAL + snapshots); recovered from if non-empty")
    parser.add_argument("--fsync", default="commit",
                        choices=["always", "commit", "never"],
                        help="WAL fsync policy (default: commit)")
    parser.add_argument("--cache-bytes", type=int, default=None,
                        help="query-cache result-store budget in bytes "
                             "(default: 32 MiB; REPRO_CACHE=off disables "
                             "caching entirely)")
    arguments = parser.parse_args(argv)
    shell = Shell(build_system(arguments.db, arguments.ker,
                               n_c=arguments.nc,
                               data_dir=arguments.data_dir,
                               fsync=arguments.fsync,
                               cache_bytes=arguments.cache_bytes,
                               out=sys.stdout))
    shell.repl()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
