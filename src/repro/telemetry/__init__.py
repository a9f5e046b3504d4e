"""``repro.telemetry`` — the observability subsystem.

Four layers (see the README's "Observability" section):

* a **metrics registry** (:mod:`repro.telemetry.registry`): one namespace
  of native instruments (counters, gauges, latency histograms);
* **span-based query tracing** (:mod:`repro.telemetry.tracing` /
  :mod:`repro.telemetry.explain`) threaded through the cursor pipeline and
  surfaced as ``fs.explain`` / ``fs.explain_analyze`` / ``fs.trace``;
* **per-operation attribution** (:mod:`repro.telemetry.attribution`):
  every user-facing operation accumulates the pages, cache traffic, WAL
  bytes, retries and lock waits it caused (``fs.operations()``), timed
  locks profile contention, a slow-query log captures outliers
  (``fs.slow_queries()``) and a metrics history powers the ``top`` view;
* **exporters** (:mod:`repro.telemetry.exporters`) rendering snapshots as
  JSON or Prometheus text for the CLI's ``stats --format {json,prom}``.

:class:`Telemetry` bundles the registry, the tracer, the attribution ledger,
the slow-query log and the history sampler, and is what the filesystem
facade owns; ``Telemetry(enabled=False)`` degrades every instrument to a
shared no-op and drops everything else so the engine's hot paths pay only
``is not None`` checks.
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.attribution import (
    AttributionLedger,
    MetricsHistory,
    OperationContext,
    SlowQueryLog,
    TimedLock,
    current_operation,
    histogram_quantiles,
)
from repro.telemetry.exporters import prometheus_text, stats_to_json, to_jsonable
from repro.telemetry.explain import (
    ExplainReport,
    explain_analyze_query,
    explain_query,
)
from repro.telemetry.registry import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.tracing import (
    ExplainTracer,
    QueryTrace,
    QueryTracer,
    Span,
    TraceCursor,
)


class Telemetry:
    """The observability bundle a filesystem instance owns.

    ``enabled=False`` keeps only the (disabled) registry — ``fs.stats()``
    reads the layers directly, so it keeps its shape — and drops the tracer, the
    attribution ledger, the slow-query log and the history sampler, leaving
    the hot paths with nothing but ``is not None`` checks.
    """

    def __init__(self, enabled: bool = True, trace_capacity: int = 64,
                 operation_capacity: int = 128,
                 slow_query_capacity: int = 32) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry(enabled=enabled)
        self.tracer: Optional[QueryTracer] = (
            QueryTracer(capacity=trace_capacity) if enabled else None
        )
        self.attribution: Optional[AttributionLedger] = (
            AttributionLedger(capacity=operation_capacity) if enabled else None
        )
        self.slow_queries: Optional[SlowQueryLog] = (
            SlowQueryLog(capacity=slow_query_capacity) if enabled else None
        )
        self.history: Optional[MetricsHistory] = (
            MetricsHistory(self.metrics) if enabled else None
        )


__all__ = [
    "AttributionLedger",
    "Counter",
    "ExplainReport",
    "ExplainTracer",
    "Gauge",
    "Histogram",
    "MetricsHistory",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "OperationContext",
    "QueryTrace",
    "QueryTracer",
    "SlowQueryLog",
    "Span",
    "Telemetry",
    "TimedLock",
    "TraceCursor",
    "current_operation",
    "explain_analyze_query",
    "explain_query",
    "histogram_quantiles",
    "prometheus_text",
    "stats_to_json",
    "to_jsonable",
]
