"""Spans for the traced run, recorded from outside the program.

The tracer replaces public functions of the program with timing
wrappers.  Each name is patched where its caller looks it up: a module
that did ``from repro.sql.parser import parse_select`` holds its own
binding, so the wrapper goes on ``repro.query.system.parse_select``,
not only on the defining module.  Methods are patched on their class.

A span is ``(id, parent id, target, thread, start, end, self seconds,
size)``.  Self time is the duration minus the time of child spans on
the same thread.  Spans stay in memory and are written out as JSON
lines when the run ends.  Times are ``time.perf_counter`` readings,
which on Linux is the system-wide monotonic clock, so spans of the
server process and of the benchmark process share one time line.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

#: Wrappers in the process that executes the queries:
#: ``(module, attribute, layer)``.
ENGINE_TARGETS = (
    ("repro.query.system", "IntensionalQueryProcessor.ask", "query.ask"),
    ("repro.query.system", "parse_select", "sql.parse"),
    ("repro.server.server", "parse_select", "sql.parse"),
    ("repro.server.server", "parse_statement", "sql.parse"),
    # execute_statement imports parse_statement at call time.
    ("repro.sql.parser", "parse_statement", "sql.parse"),
    # Session._write_statement imports execute_statement at call time.
    ("repro.sql.executor", "execute_statement", "sql.dml"),
    # QueryCache.plan_for imports plan_select at call time.
    ("repro.plan.planner", "plan_select", "plan.plan"),
    ("repro.plan.planner", "PlannedQuery.execute", "plan.execute"),
    ("repro.relational.kernels", "predicate_mask", "relational.kernel"),
    ("repro.relational.kernels", "membership_mask", "relational.kernel"),
    ("repro.relational.kernels", "notnull_mask", "relational.kernel"),
    ("repro.inference.engine", "TypeInferenceEngine.infer",
     "inference.infer"),
    ("repro.cache.core", "QueryCache.lookup_ask", "cache.overhead"),
    ("repro.cache.core", "QueryCache.admit_ask", "cache.overhead"),
    ("repro.cache.core", "QueryCache.plan_for", "cache.overhead"),
    ("repro.cache.core", "QueryCache.execute_select", "cache.overhead"),
    ("repro.storage.wal", "WriteAheadLog.append", "storage.wal_append"),
    ("repro.induction.ils", "InductiveLearningSubsystem.induce",
     "induction.induce"),
    ("repro.induction.ils", "InductiveLearningSubsystem.induce_and_store",
     "induction.induce"),
    ("repro.server.server", "Session._serve", "server.dispatch"),
    ("repro.server.server", "Session._try_send", "server.dispatch"),
    ("repro.server.protocol", "encode_frame", "server.protocol.encode"),
    ("repro.server.protocol", "encode_relation_payload",
     "server.protocol.encode"),
    ("repro.server.concurrency", "LockTable.slock",
     "server.concurrency.lock_wait"),
    ("repro.server.concurrency", "LockTable.xlock",
     "server.concurrency.lock_wait"),
    ("repro.server.resilience", "AdmissionController.admit",
     "server.resilience.admission_wait"),
)

#: Wrappers in the benchmark process when it is the server's client.
CLIENT_TARGETS = (
    ("repro.server.protocol", "write_frame", "server.client.send"),
    # Self time of read_frame is the time blocked on the reply.
    ("repro.server.protocol", "read_frame", "server.client.wait"),
    ("repro.server.protocol", "decode_frame", "server.client.decode"),
    ("repro.server.protocol", "decode_relation_payload",
     "server.client.decode"),
)

#: The timing wrapper around ``IntensionalQueryServer.engine_lock``.
ENGINE_LOCK = "IntensionalQueryServer.engine_lock"

LAYERS = {f"{module}.{attribute}": layer
          for module, attribute, layer in ENGINE_TARGETS + CLIENT_TARGETS}
LAYERS[ENGINE_LOCK] = "server.engine_lock_wait"


def _reply_size(args, _result) -> int:
    """A wire-memo hit sends pre-encoded bytes; a dict reply is sized
    by its ``encode_frame`` child span."""
    message = args[1]
    return len(message) if isinstance(message, (bytes, bytearray)) else 0


#: Targets whose spans also record a size: bytes of an encoded frame.
SIZES = {
    "repro.server.protocol.encode_frame": lambda _args, result: len(result),
    "repro.server.server.Session._try_send": _reply_size,
}


class Tracer:
    """Records spans from the wrappers it installs."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, target: str, func):
        """*func* timed as a span of *target*."""
        size_of = SIZES.get(target)
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            size = 0
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                if size_of is not None:
                    size = size_of(args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                spans.append((frame[0], parent[0] if parent else 0, target,
                              threading.get_ident(), start, end,
                              duration - frame[1], size))

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", target)
        return wrapper

    def install(self, targets) -> None:
        for module_name, attribute, _layer in targets:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
            self._patched.append((owner, name, original))
            setattr(owner, name,
                    self.wrap(f"{module_name}.{attribute}", original))

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def timed_lock(self, lock) -> "TimedLock":
        return TimedLock(lock, self.wrap(ENGINE_LOCK, lock.acquire))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class TimedLock:
    """A lock whose acquisitions are spans: the wait for the lock."""

    def __init__(self, lock, timed_acquire):
        self._lock = lock
        self.acquire = timed_acquire

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *_exc) -> None:
        self._lock.release()


def read_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle]


class SpanSummary:
    """Spans that started inside a time window, grouped for metrics."""

    def __init__(self, spans, window: tuple[float, float]):
        low, high = window
        self.spans = [span for span in spans if low <= span[4] <= high]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.threads: dict[tuple[str, int], float] = defaultdict(float)
        for _id, _parent, target, thread, _start, _end, own, _size \
                in self.spans:
            layer = LAYERS[target]
            self.self_s[layer] += own
            self.calls[target] += 1
            self.threads[(layer, thread)] += own

    def self_on(self, threads) -> float:
        """Self time of every span on *threads*."""
        return sum(span[6] for span in self.spans if span[3] in threads)

    def count(self, target: str) -> int:
        return self.calls.get(target, 0)


def fired(spans) -> dict[str, int]:
    """How often each wrapper fired, over all *spans*."""
    return dict(Counter(span[2] for span in spans))


def outermost_s(spans, layer: str) -> float:
    """Total duration of the *layer* spans not nested in another span
    of the same layer (induction: ``induce_and_store`` calls
    ``induce``)."""
    by_id = {span[0]: span for span in spans}
    total = 0.0
    for span in spans:
        if LAYERS[span[2]] != layer:
            continue
        parent = by_id.get(span[1])
        while parent is not None and LAYERS[parent[2]] != layer:
            parent = by_id.get(parent[1])
        if parent is None:
            total += span[5] - span[4]
    return total
