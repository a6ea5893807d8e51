"""The three closed-loop workloads, their answer checks and metrics.

Every workload is closed loop: a caller sends its next op only after
the reply to the previous one arrived.  Load comes from this one
process.  A run has one timed loop (``--trace 0``); a traced run
(``--trace 1``) has two half-length loops over the same op stream, each
after its own set-up: an untraced one and one with the tracer's
wrappers installed, so the gap between the two is the tracing overhead.

Answer checks run off the clock.  What a check needs from a reply is
taken between ops with the loop's clock stopped; the comparison with a
reference that does not share the layer under test runs after the loop.
"""

from __future__ import annotations

import bisect
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.cache.core import query_cache
from repro.inference.verification import (
    verify_answers, verify_forward_answers,
)
from repro.query.system import IntensionalQueryProcessor
from repro.server.client import Client
from repro.sql.executor import execute_select
from repro.sql.parser import parse_select
from repro.synth import build_instance

from perfbench import inputs, program
from perfbench.tracer import (
    CLIENT_TARGETS, ENGINE_TARGETS, SpanSummary, Tracer, fired,
    outermost_s, read_spans,
)

ROOT = Path(__file__).resolve().parents[1]

#: Where runs leave spans and the WAL data dir (ignored by git).
RUNS = ROOT / "perfbench" / ".runs"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: ``read_skewed`` checks a statement's reply at these occurrences:
#: the first is always computed, a later one may be served from a cache.
CHECKED_OCCURRENCES = (1, 2)

#: Per-layer times that some workload never reaches and so reads as 0 on
#: every run of it: no server in ``ask_cold``, no writes in
#: ``read_skewed``, no inference in ``mixed_rw`` once its first commit
#: made the rule base stale.  The report prints them; the JSON carries
#: each as ``<layer>_share``, its self time over the callers' wall time.
REPORT_ONLY = frozenset({
    "sql.dml_ms", "inference.infer_ms", "server.dispatch_ms",
    "server.protocol.encode_ms", "server.client.send_ms",
    "server.client.decode_ms", "server.client.wait_ms",
    "server.engine_lock_wait_ms", "server.concurrency.lock_wait_ms",
    "server.resilience.admission_wait_ms", "storage.wal_append_ms",
})

_MASK = (1 << 64) - 1


def fingerprint(rows) -> tuple[int, int]:
    """Order-free digest of a row multiset (this process only: str
    hashes differ between processes)."""
    count = 0
    total = 0
    for row in rows:
        total += hash(tuple(row))
        count += 1
    return count, total & _MASK


def percentile(values, q: float) -> float:
    """Linear interpolation between the closest ranks."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# -- the closed loop ------------------------------------------------------


@dataclass
class Loop:
    """One caller's timed loop."""

    kinds: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    wall_s: float = 0.0
    start: float = 0.0
    end: float = 0.0
    thread: int = 0
    exhausted: bool = False


def closed_loop(ops, call, seconds: float, inspect=None,
                barrier: threading.Barrier | None = None) -> Loop:
    """Send *ops* one at a time until *seconds* of loop time passed.

    *inspect* ``(index, kind, sql, reply, error)`` runs with the clock
    stopped.  An op that raises is recorded as failed and the loop goes
    on: a failure is a measurement, not the end of the run.
    """
    loop = Loop(thread=threading.get_ident())
    if barrier is not None:
        barrier.wait()
    paused = 0.0
    perf_counter = time.perf_counter
    loop.start = perf_counter()
    for index, (kind, sql) in enumerate(ops):
        began = perf_counter()
        if began - loop.start - paused >= seconds:
            break
        error = None
        reply = None
        try:
            reply = call(kind, sql)
        except Exception as exc:  # noqa: BLE001 - counted below
            error = f"{type(exc).__name__}: {exc}"
        done = perf_counter()
        loop.kinds.append(kind)
        loop.latencies.append(done - began)
        loop.errors.append(error)
        if inspect is not None:
            inspect(index, kind, sql, reply, error)
            paused += perf_counter() - done
    else:
        loop.exhausted = True
    loop.end = perf_counter()
    loop.wall_s = loop.end - loop.start - paused
    return loop


@dataclass
class Phase:
    """One set-up plus its timed loops and what the checks recorded."""

    loops: list
    setup_s: list
    rss_mb: float = 0.0
    calibration_ms: float = 0.0
    steal_ms: float = 0.0
    #: ops that raised, were refused or returned a wrong answer.
    failed: set = field(default_factory=set)
    #: check failures that belong to no single op.
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    records: list = field(default_factory=list)
    rows_out: list = field(default_factory=list)
    degraded: int = 0
    asks: int = 0
    writes: int = 0
    spans: list = field(default_factory=list)
    remote_spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    cache: tuple = ({}, {})
    wal_bytes: int = 0
    report: dict = field(default_factory=dict)
    status: dict = field(default_factory=dict)
    data_dir: Path | None = None

    @property
    def ops(self) -> int:
        return sum(len(loop.latencies) for loop in self.loops)

    @property
    def ops_per_s(self) -> float:
        return self.ops / max(loop.wall_s for loop in self.loops)

    def latencies(self, kinds=None) -> list:
        return [latency for loop in self.loops
                for kind, latency in zip(loop.kinds, loop.latencies)
                if kinds is None or kind in kinds]

    def errors(self) -> list:
        return [error for loop in self.loops for error in loop.errors
                if error is not None]


def calibration_ms() -> float:
    """A fixed pure-Python loop, timed five times (the median is kept)
    to tell host drift from a regression; it never scales a metric."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for number in range(400_000):
            total += number * number % 7
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def steal_ms() -> float:
    """CPU time the hypervisor took from this machine so far
    (``/proc/stat``), or 0 where it is not reported."""
    try:
        with open("/proc/stat", encoding="utf-8") as stat:
            fields = stat.readline().split()
        return int(fields[8]) * 1000.0 / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


# -- counts from the program's public surfaces ----------------------------


_CACHE_LINE = re.compile(r"^\s+(plan|result|ask):\s+(\d+) hits, (\d+) misses")
_CACHE_BYTES = re.compile(r"^\s+bytes:\s+(\d+) /")


def cache_counts(status: dict) -> dict:
    """``QueryCache.status()`` reduced to hit/miss counters and bytes."""
    counts = {name: value for name, value in status["counters"].items()
              if name.endswith((".hit", ".miss"))}
    counts["bytes_used"] = status["bytes_used"]
    return counts


def parse_cache_text(text: str) -> dict:
    """The same counts from the ``admin cache`` op's text."""
    counts: dict = {"bytes_used": 0}
    for line in text.splitlines():
        match = _CACHE_LINE.match(line)
        if match:
            counts[f"{match[1]}.hit"] = int(match[2])
            counts[f"{match[1]}.miss"] = int(match[3])
        match = _CACHE_BYTES.match(line)
        if match:
            counts["bytes_used"] = int(match[1])
    return counts


def parse_metrics_text(text: str) -> dict:
    """``admin metrics`` text: one ``series value`` per line."""
    series = {}
    for line in text.splitlines():
        parts = line.rsplit(None, 1)
        if len(parts) == 2:
            try:
                series[parts[0]] = float(parts[1])
            except ValueError:
                continue
    return series


def _series_sum(series: dict, name: str, label: str = "") -> float:
    return sum(value for key, value in series.items()
               if (key == name or key.startswith(name + "{"))
               and label in key)


# -- the workloads ----------------------------------------------------------


class Workload:
    """Common base: inputs, phases, metrics.  Each subclass's
    docstring says what it runs and why it exists."""

    name = ""
    storage = False
    #: Wrapper targets each traced run of this workload must fire.
    reaches: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.instance = inputs.input_instance()
        self.rows_digest = inputs.rows_digest(self.instance.database)
        self.inputs = inputs.workload_inputs(self.name, self.instance, seed)
        self.warmup = self.inputs["warmup"]
        self.ops = self.inputs["ops"]
        self.run_dir = RUNS / self.name
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)

    def pin_problems(self) -> list[str]:
        return inputs.check_pins(self.name, self.instance, self.rows_digest,
                                 self.inputs, self.seed)

    # subclasses: phase(seconds, repeats, tracer) -> Phase, check(phases)

    def run(self, seconds: float, trace: bool) -> list[Phase]:
        """One phase, or an untraced and a traced one of half length."""
        if trace:
            phases = [self.phase(seconds / 2, 1, None),
                      self.phase(seconds / 2, 1, Tracer())]
        else:
            phases = [self.phase(seconds, SETUP_REPEATS, None)]
        self.check(phases)
        return phases

    # -- metrics ----------------------------------------------------------

    def end_to_end(self, phase: Phase) -> dict:
        latencies = phase.latencies()
        writes = phase.latencies({"dml"})
        return {
            "setup_s": (statistics.median(phase.setup_s), "s",
                        f"median of {len(phase.setup_s)} set-ups"),
            "ops_per_s": (phase.ops_per_s, "ops/s",
                          f"n={phase.ops} ops in "
                          f"{max(loop.wall_s for loop in phase.loops):.2f}"
                          f" s"),
            "latency_p50_ms": (percentile(latencies, 0.5) * 1000, "ms",
                               f"n={len(latencies)}"),
            "latency_p99_ms": (percentile(latencies, 0.99) * 1000, "ms",
                               f"n={len(latencies)}, "
                               f"{_beyond(latencies, 0.99)} beyond"),
            "write_p50_ms": (percentile(writes, 0.5) * 1000 if writes
                             else None, "ms", f"n={len(writes)} writes"),
            "write_p90_ms": (percentile(writes, 0.9) * 1000 if writes
                             else None, "ms",
                             f"n={len(writes)} writes, "
                             f"{_beyond(writes, 0.9)} beyond"),
            "degraded_ratio": (phase.degraded / max(phase.asks, 1), "ratio",
                               f"{phase.degraded} of {phase.asks} asks"),
            "error_ratio": (len(phase.failed) / max(phase.ops, 1), "ratio",
                            f"{len(phase.failed)} of {phase.ops} ops"),
            "rss_mb": (phase.rss_mb, "MB", self.rss_source),
        }

    def per_layer(self, plain: Phase, traced: Phase,
                  window: tuple[float, float]) -> dict:
        ops = max(traced.ops, 1)
        local = SpanSummary(traced.spans, window)
        remote = SpanSummary(traced.remote_spans, window)
        engine = remote if traced.remote_spans else local

        spent = {}

        def per_op_ms(summary, layer):
            spent[layer] = summary.self_s.get(layer, 0.0)
            return spent[layer] * 1000.0 / ops

        appends = engine.count("repro.storage.wal.WriteAheadLog.append")
        spent["storage.wal_append"] = engine.self_s.get(
            "storage.wal_append", 0.0)
        before, after = traced.cache
        series = traced.counters
        callers = {loop.thread for loop in traced.loops}
        caller_wall = sum(loop.wall_s for loop in traced.loops)
        serves = engine.count("repro.server.server.Session._serve")
        admits = engine.count(
            "repro.server.resilience.AdmissionController.admit")
        send = "repro.server.server.Session._try_send"
        sends = {span[0] for span in remote.spans if span[2] == send}
        reply_bytes = sum(span[7] for span in remote.spans
                          if span[0] in sends or span[1] in sends)

        def ratio(level):
            hits = after.get(f"{level}.hit", 0) - before.get(f"{level}.hit", 0)
            misses = (after.get(f"{level}.miss", 0)
                      - before.get(f"{level}.miss", 0))
            return hits / (hits + misses) if hits + misses else 0.0

        metrics = {
            "query.ask_ms": (per_op_ms(engine, "query.ask"), "ms"),
            "sql.parse_ms": (per_op_ms(engine, "sql.parse"), "ms"),
            "sql.dml_ms": (per_op_ms(engine, "sql.dml"), "ms"),
            "plan.plan_ms": (per_op_ms(engine, "plan.plan"), "ms"),
            "plan.execute_ms": (per_op_ms(engine, "plan.execute"), "ms"),
            "plan.rows_out": (
                sum(traced.rows_out) / max(len(traced.rows_out), 1),
                "count"),
            "plan.stats_invalidations": (
                _series_sum(series, "stats_cache_invalidations_total")
                / max(traced.writes, 1), "count"),
            "plan.parallel_morsels": (
                _series_sum(series, "plan_parallel_morsels") / ops, "count"),
            "plan.columnar_fused": (
                _series_sum(series, "columnar_fused_total",
                            'result="fused"') / ops, "count"),
            "plan.vectorized": (
                _series_sum(series, "plan_vectorized_total",
                            'result="fast"') / ops, "count"),
            "plan.select_path.planner": (
                _series_sum(series, "select_path_total",
                            'path="planner"') / ops, "count"),
            "plan.select_path.legacy": (
                _series_sum(series, "select_path_total",
                            'path="legacy"') / ops, "count"),
            "relational.kernel_ms": (
                per_op_ms(engine, "relational.kernel"), "ms"),
            "inference.infer_ms": (
                per_op_ms(engine, "inference.infer"), "ms"),
            "inference.rules_fired": (
                _series_sum(series, "inference_rules_fired_total")
                / max(traced.asks, 1), "count"),
            "cache.plan_hit_ratio": (ratio("plan"), "ratio"),
            "cache.result_hit_ratio": (ratio("result"), "ratio"),
            "cache.ask_hit_ratio": (ratio("ask"), "ratio"),
            "cache.overhead_ms": (per_op_ms(engine, "cache.overhead"), "ms"),
            "cache.bytes_used": (float(after.get("bytes_used", 0)), "bytes"),
            "server.memo_hit_ratio": (
                1.0 - admits / serves if serves else 0.0, "ratio"),
            "server.dispatch_ms": (
                per_op_ms(remote, "server.dispatch"), "ms"),
            "server.protocol.encode_ms": (
                per_op_ms(remote, "server.protocol.encode"), "ms"),
            "server.protocol.reply_bytes": (
                reply_bytes / len(sends) if sends else 0.0, "bytes"),
            "server.client.send_ms": (
                per_op_ms(local, "server.client.send"), "ms"),
            "server.client.decode_ms": (
                per_op_ms(local, "server.client.decode"), "ms"),
            "server.client.wait_ms": (
                per_op_ms(local, "server.client.wait"), "ms"),
            "server.engine_lock_wait_ms": (
                per_op_ms(remote, "server.engine_lock_wait"), "ms"),
            "server.concurrency.lock_wait_ms": (
                per_op_ms(remote, "server.concurrency.lock_wait"), "ms"),
            "server.resilience.admission_wait_ms": (
                per_op_ms(remote, "server.resilience.admission_wait"),
                "ms"),
            "storage.wal_append_ms": (
                spent["storage.wal_append"] * 1000.0 / appends
                if appends else 0.0, "ms"),
            "storage.wal_bytes_per_write": (
                traced.wal_bytes / traced.writes if traced.writes else 0.0,
                "bytes"),
            "induction.induce_s": (
                outermost_s(traced.remote_spans or traced.spans,
                            "induction.induce"), "s"),
            "trace.coverage": (
                local.self_on(callers) / caller_wall, "ratio"),
            "trace.overhead": (traced.ops_per_s / plain.ops_per_s, "ratio"),
        }
        for name in sorted(REPORT_ONLY):
            layer = name.removesuffix("_ms")
            metrics[f"{layer}_share"] = (spent[layer] / caller_wall, "ratio")
        return metrics

    def wrappers_fired(self, traced: Phase) -> dict[str, int]:
        return fired(traced.spans + traced.remote_spans)

    def worker_threads(self, traced: Phase, window) -> list[str]:
        """Self time per (layer, thread) on the threads that serve no
        request themselves: the worker pool."""
        lines = []
        for spans, local in ((traced.spans, True),
                             (traced.remote_spans, False)):
            summary = SpanSummary(spans, window)
            callers = ({loop.thread for loop in traced.loops} if local
                       else {span[3] for span in summary.spans
                             if span[2].endswith("Session._serve")})
            for (layer, thread), own in sorted(summary.threads.items()):
                if thread not in callers:
                    lines.append(f"thread {thread} {layer} "
                                 f"{own * 1000:.1f} ms")
        return lines

    @staticmethod
    def window(phase: Phase) -> tuple[float, float]:
        return (min(loop.start for loop in phase.loops),
                max(loop.end for loop in phase.loops))


def _beyond(values, q: float) -> int:
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


# -- ask_cold ---------------------------------------------------------------


_ASK = re.compile(r"^SELECT (\w+)\.(\w+) FROM (\w+) WHERE \3\.(\w+) >= (.+)"
                  r" AND \3\.\4 <= (.+)$")


class ReferenceFilter:
    """Interval asks answered by the benchmark's own code: each column
    sorted once, then two binary searches per ask."""

    def __init__(self, database):
        self.database = database
        self._columns: dict = {}
        self._rows: dict = {}

    @staticmethod
    def parse(sql: str) -> tuple[str, str, str, object, object]:
        """``(relation, key column, column, low, high)`` of an ask."""
        match = _ASK.match(sql)
        if match is None:
            raise ValueError(f"not a generated interval ask: {sql!r}")
        _table, key, relation, column, low, high = match.groups()
        [low] = inputs.parse_literals(low)
        [high] = inputs.parse_literals(high)
        return relation, key, column, low, high

    def keys(self, sql: str) -> list[tuple]:
        relation, key, column, low, high = self.parse(sql)
        values, keys = self._column(relation, column, key)
        return keys[bisect.bisect_left(values, low):
                    bisect.bisect_right(values, high)]

    def _column(self, relation: str, column: str, key: str):
        entry = self._columns.get((relation, column))
        if entry is None:
            table = self.database.relation(relation)
            value_at = table.schema.position(column)
            key_at = table.schema.position(key)
            pairs = sorted((row[value_at], row[key_at]) for row in table)
            entry = ([value for value, _key in pairs],
                     [(key,) for _value, key in pairs])
            self._columns[(relation, column)] = entry
        return entry

    def forward_holds(self, sql: str, result) -> bool:
        """The paper's forward guarantee, checked on full rows: every
        answer tuple satisfies every fact derived about its relation.
        (``verify_answers`` can only check columns the answer projects,
        and an ask projects the key alone.)"""
        relation, key, _column, _low, _high = self.parse(sql)
        rows = self._rows.get(relation)
        if rows is None:
            table = self.database.relation(relation)
            key_at = table.schema.position(key)
            rows = self._rows[relation] = (
                table.schema, {row[key_at]: row for row in table})
        schema, by_key = rows
        for derivation in result.inference.forward:
            attribute = derivation.clause.attribute
            if attribute.relation.upper() != relation.upper():
                continue
            at = schema.position(attribute.attribute)
            interval = derivation.clause.interval
            for (answer_key,) in result.extensional:
                if not interval.contains_value(by_key[answer_key][at]):
                    return False
        return True


#: ``verify_answers`` runs in full on every this-many-th ask whose
#: answer has at most this many rows: its backward half walks every
#: answer row once per description and holds by construction, and on a
#: large answer it costs a hundred times the ask.
VERIFY_EVERY = 50
VERIFY_MAX_ROWS = 1000


class AskCold(Workload):
    """One in-process caller of ``IntensionalQueryProcessor.ask()``.

    What: a stream of distinct interval asks from
    ``ProgramGenerator.ask_statement()`` with duplicates dropped, so
    every ask misses every cache level; no wire and no storage.

    Why: it is the paper's own operation.  An inference or execution
    change should show here; a server, cache or storage change should
    not.

    Checks: on every ask, the rows must equal a direct filter of the
    relation's rows (:class:`ReferenceFilter`), the forward answers must
    pass ``verify_forward_answers`` and hold on the full rows of the
    relation; every :data:`VERIFY_EVERY`-th ask with at most
    :data:`VERIFY_MAX_ROWS` rows also passes ``verify_answers`` in full
    (the paper's Section 4 guarantees).
    """

    name = "ask_cold"
    rss_source = "benchmark process (it executes the asks)"
    reaches = (
        "repro.query.system.IntensionalQueryProcessor.ask",
        "repro.query.system.parse_select",
        "repro.plan.planner.plan_select",
        "repro.plan.planner.PlannedQuery.execute",
        "repro.relational.kernels.predicate_mask",
        "repro.inference.engine.TypeInferenceEngine.infer",
        "repro.cache.core.QueryCache.lookup_ask",
        "repro.cache.core.QueryCache.admit_ask",
        "repro.cache.core.QueryCache.plan_for",
        "repro.cache.core.QueryCache.execute_select",
        "repro.induction.ils.InductiveLearningSubsystem.induce",
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        self.reference = ReferenceFilter(self.instance.database)

    def _setup(self):
        system = program.build_system()
        program.warm_up(system, self.warmup)
        return system

    def phase(self, seconds, repeats, tracer) -> Phase:
        if tracer is not None:
            tracer.install(ENGINE_TARGETS)
        try:
            setup_s, system = program.timed_setups(
                repeats, self._setup, lambda _system: None)
            records = []

            def call(_kind, sql):
                return system.ask(sql)

            def inspect(index, _kind, sql, result, _error):
                if result is None:
                    return
                verified = all(check.holds for check
                               in verify_forward_answers(result))
                if (index % VERIFY_EVERY == 0
                        and len(result.extensional) <= VERIFY_MAX_ROWS):
                    verified = verified and verify_answers(result).all_hold
                records.append((index, sql, len(result.extensional),
                                fingerprint(result.extensional),
                                verified and self.reference.forward_holds(
                                    sql, result),
                                bool(result.warnings)))

            cache = query_cache(system.database)
            before = cache_counts(cache.status())
            if tracer is not None:
                obs.reset()
                obs.enable()
            calibration = calibration_ms()
            stolen = steal_ms()
            loop = closed_loop(self.ops, call, seconds, inspect)
            stolen = steal_ms() - stolen
            counters = obs.metrics().snapshot() if tracer else {}
        finally:
            obs.disable()
            if tracer is not None:
                tracer.uninstall()
        phase = Phase([loop], setup_s, rss_mb=program.peak_rss_mb(),
                      calibration_ms=calibration, steal_ms=stolen)
        phase.cache = (before, cache_counts(cache.status()))
        phase.counters = counters
        phase.records = records
        phase.asks = len(loop.kinds)
        phase.degraded = sum(1 for record in records if record[5])
        phase.rows_out = [record[2] for record in records]
        if tracer is not None:
            phase.spans = tracer.spans
            tracer.write(str(self.run_dir / "spans.jsonl"))
        return phase

    def check(self, phases) -> None:
        for phase in phases:
            loop = phase.loops[0]
            phase.failed = {index for index, error in enumerate(loop.errors)
                            if error is not None}
            wrong = unverified = 0
            for index, sql, _rows, got, verified, _warned in phase.records:
                if got != fingerprint(self.reference.keys(sql)):
                    wrong += 1
                    phase.failed.add(index)
                    phase.notes.append(f"WRONG ANSWER op {index}: {sql}")
                if not verified:
                    unverified += 1
                    phase.failed.add(index)
                    phase.notes.append(f"GUARANTEE VIOLATED op {index}: "
                                       f"{sql}")
            checked = len(phase.records)
            phase.notes.append(
                f"check: {checked - wrong} of {checked} asks equal the "
                f"reference filter; {checked - unverified} of {checked} "
                f"keep the forward guarantees (full verify_answers on "
                f"every {VERIFY_EVERY}th ask of at most {VERIFY_MAX_ROWS} "
                f"rows)")


# -- the server process -----------------------------------------------------


#: The launcher is killed if a phase has not ended by then.
LAUNCHER_TIMEOUT_S = 150


def clean_env() -> dict:
    """The environment without ``REPRO_*`` knobs: the benchmark measures
    the program's defaults."""
    return {name: value for name, value in os.environ.items()
            if not name.startswith("REPRO_")}


class Launcher:
    """One server process (``perfbench/launcher.py``) for one phase."""

    def __init__(self, workload: "Workload", repeats: int, trace: bool,
                 data_dir: Path | None = None):
        config = {"repeats": repeats, "trace": trace,
                  "data_dir": str(data_dir) if data_dir else None,
                  "spans": str(workload.run_dir / "server-spans.jsonl"),
                  "warmup": workload.warmup}
        self.process = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(ROOT), env=clean_env())
        self._watchdog = threading.Timer(LAUNCHER_TIMEOUT_S,
                                         self.process.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        try:
            self.process.stdin.write(json.dumps(config) + "\n")
            self.process.stdin.flush()
            self.ready = self._expect("READY")
        except BaseException:
            self.kill()
            raise
        self.port = self.ready["port"]

    def _expect(self, tag: str) -> dict:
        prefix = f"PERFBENCH {tag} "
        for line in self.process.stdout:
            if line.startswith(prefix):
                return json.loads(line[len(prefix):])
        code = self.process.wait()
        raise RuntimeError(f"server launcher ended before {tag} "
                           f"(exit code {code})")

    def stop(self) -> dict:
        """Shut the server down and collect its report."""
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.close()
            report = self._expect("DONE")
            self.process.wait(timeout=60)
        finally:
            self.kill()
        return report

    def kill(self) -> None:
        self._watchdog.cancel()
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None and not stream.closed:
                stream.close()


def connect(port: int) -> Client:
    return Client("127.0.0.1", port, timeout_s=60.0).connect()


def call_over(client):
    def call(kind, sql):
        return client.ask(sql) if kind == "ask" else client.sql(sql)
    return call


class ServerWorkload(Workload):
    """What the two wire workloads share: a launcher per phase, the
    client-side wrappers and the counts read over the wire."""

    rss_source = "server process"
    connections = 1
    storage = False
    phases_run = 0

    def phase(self, seconds, repeats, tracer) -> Phase:
        self.phases_run += 1
        data_dir = (self.run_dir / f"data-{self.phases_run}"
                    if self.storage else None)
        launcher = Launcher(self, repeats, tracer is not None, data_dir)
        clients = []
        try:
            clients = [connect(launcher.port)
                       for _ in range(self.connections)]
            admin = clients[0]
            if tracer is not None:
                tracer.install(CLIENT_TARGETS)
                admin.admin("metrics reset")
            before = parse_cache_text(admin.admin("cache"))
            wal = data_dir / "wal.jsonl" if data_dir else None
            wal_before = wal.stat().st_size if wal else 0
            calibration = calibration_ms()
            stolen = steal_ms()
            records, loops = self.loops(clients, seconds)
            stolen = steal_ms() - stolen
            wal_after = wal.stat().st_size if wal else 0
            counters = {}
            if tracer is not None:
                tracer.uninstall()
                counters = parse_metrics_text(admin.admin("metrics"))
            after = parse_cache_text(admin.admin("cache"))
            status = json.loads(admin.admin("status"))
            for client in clients:
                client.close()
            report = launcher.stop()
        finally:
            if tracer is not None:
                tracer.uninstall()
            launcher.kill()
        phase = Phase(loops, launcher.ready["setup_s"],
                      rss_mb=report["rss_mb"], calibration_ms=calibration,
                      steal_ms=stolen)
        phase.cache = (before, after)
        phase.counters = counters
        phase.records = records
        phase.report = report
        phase.status = status
        phase.data_dir = data_dir
        phase.wal_bytes = wal_after - wal_before
        kinds = [kind for loop in loops for kind in loop.kinds]
        phase.asks = kinds.count("ask")
        phase.writes = kinds.count("dml")
        phase.degraded = sum(1 for record in records if record[4])
        phase.rows_out = [record[3] for record in records
                          if record[1] != "dml"]
        if tracer is not None:
            phase.spans = tracer.spans
            tracer.write(str(self.run_dir / "client-spans.jsonl"))
            phase.remote_spans = read_spans(report["spans"])
        return phase

    def loops(self, clients, seconds):
        """Run the timed loops; returns ``(records, loops)``, a record
        being ``(index, kind, sql, rows out, degraded, reply digest)``."""
        raise NotImplementedError


# -- read_skewed ------------------------------------------------------------


class ReadSkewed(ServerWorkload):
    """One connection to a server process over the same instance, with
    no storage and reads only.

    What: ``sql`` SELECTs (joins, aggregates, GROUP BY, ORDER BY) and
    ``ask``s in a 3:1 ratio, drawn Zipf(1.1) from a fixed pool of 512
    distinct statements, so the head fits the 128-entry wire memo and
    the tail overflows it.  The draws form a fixed deck that each seed
    replays in its own orders.

    Why: the caches and the wire do most of their work here.  Memo hits
    put ``latency_p50_ms`` on the hit path; ``ops_per_s`` and
    ``latency_p99_ms`` measure the miss path.

    Checks: the reply to the first and second occurrence of each
    distinct statement must equal an in-process evaluation on a fresh
    instance with the query cache off: rows as a multiset and, for
    asks, the rendered intensional answers.
    """

    name = "read_skewed"
    reaches = (
        "repro.server.server.Session._serve",
        "repro.server.server.Session._try_send",
        "repro.server.server.parse_statement",
        "repro.server.server.parse_select",
        "repro.query.system.IntensionalQueryProcessor.ask",
        "repro.query.system.parse_select",
        "repro.plan.planner.plan_select",
        "repro.plan.planner.PlannedQuery.execute",
        "repro.relational.kernels.predicate_mask",
        "repro.relational.kernels.membership_mask",
        "repro.relational.kernels.notnull_mask",
        "repro.inference.engine.TypeInferenceEngine.infer",
        "repro.cache.core.QueryCache.lookup_ask",
        "repro.cache.core.QueryCache.admit_ask",
        "repro.cache.core.QueryCache.plan_for",
        "repro.cache.core.QueryCache.execute_select",
        "repro.server.protocol.encode_frame",
        "repro.server.protocol.encode_relation_payload",
        "repro.server.concurrency.LockTable.slock",
        "repro.server.resilience.AdmissionController.admit",
        "IntensionalQueryServer.engine_lock",
        "repro.induction.ils.InductiveLearningSubsystem.induce",
        "repro.server.protocol.write_frame",
        "repro.server.protocol.read_frame",
        "repro.server.protocol.decode_frame",
        "repro.server.protocol.decode_relation_payload",
    )

    def loops(self, clients, seconds):
        records = []
        seen: dict[str, int] = {}
        call = call_over(clients[0])

        def inspect(index, kind, sql, reply, _error):
            if reply is None:
                return
            rows = reply.extensional if kind == "ask" else reply
            seen[sql] = seen.get(sql, 0) + 1
            answer = None
            if seen[sql] in CHECKED_OCCURRENCES:
                answer = (fingerprint(rows), sorted(reply.intensional)
                          if kind == "ask" else None)
            records.append((index, kind, sql, len(rows),
                            kind == "ask" and bool(reply.warnings), answer))

        return records, [closed_loop(self.ops, call, seconds, inspect)]

    def check(self, phases) -> None:
        fresh = build_instance(inputs.DOMAIN, seed=inputs.INSTANCE_SEED,
                               scale=inputs.SCALE)
        query_cache(fresh.database).enabled = False
        system = IntensionalQueryProcessor(fresh.database, fresh.rules,
                                           binding=fresh.binding)
        expected: dict[str, tuple] = {}

        def reference(kind, sql):
            if sql not in expected:
                if kind == "ask":
                    result = system.ask(sql)
                    expected[sql] = (
                        fingerprint(result.extensional),
                        sorted(answer.render()
                               for answer in result.intensional))
                else:
                    relation = execute_select(fresh.database,
                                              parse_select(sql))
                    expected[sql] = (fingerprint(relation), None)
            return expected[sql]

        for phase in phases:
            phase.failed = {index for index, error
                            in enumerate(phase.loops[0].errors)
                            if error is not None}
            checked = wrong = 0
            for index, kind, sql, _rows, _degraded, answer in phase.records:
                if answer is None:
                    continue
                checked += 1
                if answer != reference(kind, sql):
                    wrong += 1
                    phase.failed.add(index)
                    phase.notes.append(f"WRONG ANSWER op {index}: {sql}")
            phase.notes.append(
                f"check: {checked - wrong} of {checked} checked replies "
                f"({len(expected)} distinct statements) equal the "
                f"cache-off in-process reference")


# -- mixed_rw ---------------------------------------------------------------


class MixedRW(ServerWorkload):
    """Two connections (two threads) to a server with durable storage
    and the rule base stored by ``refresh_rules``.

    What: each connection replays its own fixed deck of the generator's
    default select/ask/DML mix (6:2:2) in a seeded order; storage is
    attached with WAL fsync policy ``commit`` in a data dir inside the
    checkout.

    Why: the same plan, cache and server layers, but with writes beside
    reads.  It is the only workload with WAL commits, lock contention
    and rule staleness: the first commit makes the rule base stale, so
    later asks come back degraded and the wire memo is off.

    Checks: after the run the data dir is recovered with
    ``IntensionalQueryProcessor.recover``; its relations must equal the
    live server's final ones and contain every acknowledged INSERT
    (inserts use keys no other insert of the run uses).
    """

    name = "mixed_rw"
    connections = inputs.MIXED_RW_CONNECTIONS
    storage = True
    reaches = ReadSkewed.reaches + (
        "repro.sql.executor.execute_statement",
        "repro.sql.parser.parse_statement",
        "repro.server.concurrency.LockTable.xlock",
        "repro.storage.wal.WriteAheadLog.append",
        "repro.induction.ils.InductiveLearningSubsystem.induce_and_store",
    )

    def loops(self, clients, seconds):
        barrier = threading.Barrier(len(clients))
        results: list = [None] * len(clients)
        errors: list = []

        def connection(number):
            records = []
            call = call_over(clients[number])

            def inspect(index, kind, sql, reply, _error):
                if reply is None:
                    return
                degraded = kind == "ask" and bool(reply.warnings)
                if kind == "dml":
                    rows = reply
                else:
                    rows = len(reply.extensional if kind == "ask" else reply)
                records.append(((number, index), kind, sql, rows, degraded,
                                None))

            try:
                loop = closed_loop(self.ops[number], call, seconds, inspect,
                                   barrier)
                results[number] = (records, loop)
            except BaseException as error:  # re-raised on the main thread
                errors.append(error)
                barrier.abort()

        threads = [threading.Thread(target=connection, args=(number,))
                   for number in range(len(clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(LAUNCHER_TIMEOUT_S)
        if errors:
            raise errors[0]
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a mixed_rw connection did not finish")
        return ([record for records, _loop in results for record in records],
                [loop for _records, loop in results])

    def check(self, phases) -> None:
        for phase in phases:
            phase.failed = {(number, index)
                            for number, loop in enumerate(phase.loops)
                            for index, error in enumerate(loop.errors)
                            if error is not None}
            acknowledged = [
                (op, tuple(inputs.parse_literals(
                    sql.split(" VALUES (", 1)[1][:-1])), sql.split()[2])
                for op, kind, sql, count, _degraded, _answer
                in phase.records
                if kind == "dml" and sql.startswith("INSERT") and count == 1]
            data_dir = str(phase.data_dir)
            recovered, _report = IntensionalQueryProcessor.recover(
                data_dir, fsync=program.FSYNC)
            try:
                database = recovered.database
                digests = inputs.relation_digests(database)
                live = phase.report["relations"]
                if digests != live:
                    differ = sorted(name for name in set(digests) | set(live)
                                    if digests.get(name) != live.get(name))
                    phase.problems.append(
                        f"DURABILITY: recovered relations differ from the "
                        f"live server's: {', '.join(differ)}")
                missing = 0
                rows = {name: set(database.relation(name))
                        for name in ("PATIENT", "WARD")}
                for op, row, table in acknowledged:
                    if row not in rows[table]:
                        missing += 1
                        phase.failed.add(op)
                        phase.notes.append(
                            f"DURABILITY: acknowledged insert {row} missing")
                phase.notes.append(
                    f"check: recovered {len(digests)} relations "
                    f"{'equal' if digests == live else 'DIFFER from'} the "
                    f"live server's; {len(acknowledged) - missing} of "
                    f"{len(acknowledged)} acknowledged inserts present")
            finally:
                recovered.database.storage.detach()
            shutil.rmtree(data_dir, ignore_errors=True)


WORKLOADS = {workload.name: workload
             for workload in (AskCold, ReadSkewed, MixedRW)}
