"""Observability substrate: tracing spans, metrics, slow-query log.

Everything hangs off **one flag**.  Observability is *disabled* by
default and every helper here -- :func:`span`, :func:`counter`,
:func:`observe_query` -- collapses to a constant-time no-op until
:func:`enable` flips the flag, so instrumented hot paths cost nothing
in the default configuration and call sites never branch themselves::

    from repro import obs

    with obs.span("plan.select", tables=len(scope.bindings)) as sp:
        ...                       # no-op span when disabled
        sp.set(notes=len(notes))
    obs.counter("plans_total", "plans produced").inc()

Layers:

* :mod:`repro.obs.trace` -- nested :class:`~repro.obs.trace.Span`
  recording over monotonic clocks, ring-buffer retention, JSONL export.
* :mod:`repro.obs.metrics` -- counters / gauges / histograms with a
  Prometheus text dump.
* :mod:`repro.obs.slowlog` -- over-threshold query capture.

The module-level singletons are process-wide on purpose (one registry
to scrape, one trace buffer to export); :func:`reset` restores a clean
slate for tests.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import (
    Counter, Gauge, Histogram, MetricsRegistry,
)
from repro.obs.slowlog import SlowQuery, SlowQueryLog
from repro.obs.trace import NULL_SPAN, Span, Tracer, traced

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SlowQuery",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "cache_event",
    "counter",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "histogram",
    "metrics",
    "observe_query",
    "reset",
    "slow_queries",
    "span",
    "traced",
    "tracer",
]


class _NullCounter:
    """Absorbs ``inc``/``set``/``observe`` when observability is off."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        return None

    def dec(self, amount: float = 1) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NULL_COUNTER = _NullCounter()

#: The single observability flag (module-private; use enable/disable).
_enabled = False

_tracer = Tracer()
_metrics = MetricsRegistry()
_slowlog = SlowQueryLog()


def enable() -> None:
    """Turn instrumentation on, process-wide."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn instrumentation off (recorded data is kept)."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    return _enabled


def reset() -> None:
    """Clear every recorded span, metric and slow query (flag kept)."""
    _tracer.clear()
    _metrics.reset()
    _slowlog.clear()


# -- accessors (always live, for dumping even after disable) ---------------


def tracer() -> Tracer:
    return _tracer


def metrics() -> MetricsRegistry:
    return _metrics


def slow_queries() -> SlowQueryLog:
    return _slowlog


# -- guarded instrumentation helpers ---------------------------------------


def span(name: str, **attributes: Any):
    """A tracer span, or the shared no-op span when disabled."""
    if not _enabled:
        return NULL_SPAN
    return _tracer.span(name, **attributes)


def record_span(name: str, start_s: float, end_s: float,
                **attributes: Any) -> None:
    """Record a caller-timed span (no-op when disabled)."""
    if _enabled:
        _tracer.record(name, start_s, end_s, **attributes)


def counter(name: str, help: str = "", **labels: Any):
    if not _enabled:
        return _NULL_COUNTER
    return _metrics.counter(name, help, **labels)


def gauge(name: str, help: str = "", **labels: Any):
    if not _enabled:
        return _NULL_COUNTER
    return _metrics.gauge(name, help, **labels)


def histogram(name: str, help: str = "", **labels: Any):
    if not _enabled:
        return _NULL_COUNTER
    return _metrics.histogram(name, help, **labels)


def cache_event(level: str, result: str) -> None:
    """Count one query-cache probe: ``level`` is ``plan`` / ``result``
    / ``ask``, ``result`` is ``hit`` / ``miss`` / ``bypass`` (no-op
    when disabled).  One call keeps the cache's hot path from paying
    label-handling costs while observability is off.
    """
    if _enabled:
        _metrics.counter(
            "query_cache_requests_total",
            "query-cache probes by level and outcome",
            level=level, result=result).inc()


def observe_query(statement: str, duration_s: float,
                  rows: int | None = None,
                  kind: str = "select") -> None:
    """Feed one finished query into the latency histogram and the
    slow-query log (no-op when disabled)."""
    if not _enabled:
        return
    _metrics.histogram(
        "query_seconds", "end-to-end query latency",
        kind=kind).observe(duration_s)
    if _slowlog.observe(statement, duration_s, rows):
        _metrics.counter(
            "slow_queries_total",
            "queries over the slow-query threshold").inc()
