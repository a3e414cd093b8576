"""repro.obs — instrumentation for the compositional analysis engine.

The pieces:

* :mod:`repro.obs.trace` — span-based tracer (context-manager API,
  thread-local span stack) used by the global fixed-point loop to emit
  per-iteration convergence spans.  It keeps no finished span: each
  one is published on the bus as a single record.
* :mod:`repro.obs.metrics` — counters, gauges, and histograms behind a
  create-on-first-use registry; the engine's metrics are derived from
  its records (:data:`~repro.obs.metrics.RECORD_METRICS`).  The process
  has one registry and each running job one of its own
  (:mod:`repro.obs.context`): :func:`metrics` answers with the job's
  inside a job, and the backend that ran the job folds it into the
  process registry when the attempt finishes.
* :mod:`repro.obs.export` — JSONL trace reader, JSON metrics
  exporter, and the Chrome/Perfetto trace-event converter.
* :mod:`repro.obs.bus` — process-global streaming event bus that span,
  batch-lifecycle and engine-record events publish through *while a
  run is in flight*; each publisher asks :meth:`EventBus.wants` for its
  event type first.
* :mod:`repro.obs.sinks` / :mod:`repro.obs.aggregate` — pluggable bus
  subscribers: the JSONL/Chrome trace exporters and the
  :class:`LiveAggregator` behind the batch progress line and the
  ``python -m repro top`` monitor (:mod:`repro.obs.top`).

The analysis engine reports each of its events — a global iteration, a
local analysis, a divergence-guard verdict, a quarantine — as one
record through :func:`emit`.  It writes no metric, span attribute or bus
event besides, and it keeps its own effort counts (the chain cache's
hits, the numpy kernels' lanes, the memos' reuse) where they happen:
:func:`engine_stats` reads them where they are shown.

Observability is **off by default** and the disabled fast path is a
single module-attribute check — instrumented call sites are written as::

    from .. import obs as _obs
    ...
    if _obs.enabled:
        _obs.metrics().counter("serve.requests").inc()

so no string is formatted and no dict is allocated unless tracing was
explicitly requested via :func:`configure`.

Typical use::

    import repro
    from repro.viz import ConvergenceReport

    records = []
    bus = repro.obs.get_bus()
    collect = bus.subscribe(records.append, interests={"span"})
    repro.configure(enabled=True)
    result = repro.analyze_system(system)
    bus.unsubscribe(collect)
    print(ConvergenceReport.from_records(records).render())

or from the shell: ``python -m repro trace examples/quickstart.py``.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Optional

from .aggregate import LiveAggregator
from .bus import BUS, EventBus
from . import context as _context
from .context import (
    TraceContext,
    current_request_id,
    new_request_id,
    request_context,
)
from .export import (
    metrics_to_json,
    read_jsonl,
    records_to_chrome,
    span_to_dict,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .openmetrics import render_registry as render_openmetrics
from .profile import SamplingProfiler
from .sinks import ChromeTraceSink, JsonlEventSink, Sink
from .trace import Span, Tracer

#: Master switch.  Instrumented call sites check this module attribute
#: before doing *any* observability work; keep reads cheap by accessing
#: it through the module object (``obs.enabled``), never by ``from``
#: imports (which would freeze the value at import time).
enabled = False

_tracer = Tracer()
_metrics = MetricsRegistry()


def configure(*, enabled: bool = True, reset: bool = False) -> None:
    """Turn observability on or off for the whole process.

    Parameters
    ----------
    enabled:
        New state of the master switch.
    reset:
        Also restart the tracer (span ids, clock origin) and zero
        every metric.
    """
    sys.modules[__name__].enabled = enabled
    if reset:
        _tracer.reset()
        _metrics.reset()


def disable(*, reset: bool = False) -> None:
    """Shorthand for ``configure(enabled=False, ...)``."""
    configure(enabled=False, reset=reset)


def is_enabled() -> bool:
    """Current state of the master switch (for callers that hold a
    ``from repro.obs import ...`` style reference)."""
    return enabled


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _tracer


def metrics() -> MetricsRegistry:
    """The registry of the job running in this context
    (:func:`repro.batch.jobs.run_job`), else the process registry."""
    registry = getattr(_context.current_job(), "registry", None)
    return _metrics if registry is None else registry


def get_bus() -> EventBus:
    """The process-global telemetry event bus."""
    return BUS


def emit(kind: str, record: Dict[str, Any],
         span: Optional[Span] = None) -> None:
    """Emit one engine record, once, to every consumer.

    *kind* is ``"iteration"``, ``"local_analysis"``, ``"guard"`` or
    ``"quarantine"``.  The record's fields become *span*'s attributes
    (without a span, a *kind* event on the current span); the registry
    (:func:`metrics`, so a running job's own) folds it through
    :data:`~repro.obs.metrics.RECORD_METRICS`; and while some sink takes
    *kind* events it is published as one ``{"type": kind, ...}`` bus
    event.  The engine calls it only while :data:`enabled` is on.
    """
    if span is None:
        span = _tracer.current()
        if span is not None:
            span.event(kind, **record)
    else:
        span.set(**record)
    metrics().fold(kind, record)
    if BUS.wants(kind):
        BUS.publish({"type": kind, **record})


def engine_stats() -> Dict[str, float]:
    """The counts the engine keeps itself, read where they are shown
    (the :class:`~repro.viz.ConvergenceReport` footer, the trace CLI,
    ``GET /metrics``): the chain cache's hits, misses and entries, the
    numpy kernels' rounds and lanes, and the named memos' task reuse
    rate."""
    from ..analysis import kernels
    from ..analysis.memo import memo_pool_stats
    from ..eventmodels.compile import cache

    chains = cache().stats()
    lanes = kernels.stats()
    pools = memo_pool_stats().values()
    tasks = sum(p["tasks_total"] for p in pools)
    return {"compile.cache.hits": chains["hits"],
            "compile.cache.misses": chains["misses"],
            "compile.cache.entries": chains["entries"],
            "kernels.batches": lanes["batches"],
            "kernels.lanes": lanes["lanes"],
            "memo.reuse_rate": (sum(p["task_reuses"] for p in pools) / tasks
                                if tasks else 0.0)}


__all__ = [
    "enabled",
    "configure",
    "emit",
    "engine_stats",
    "disable",
    "is_enabled",
    "get_tracer",
    "get_bus",
    "metrics",
    "Tracer",
    "Span",
    "TraceContext",
    "SamplingProfiler",
    "current_request_id",
    "new_request_id",
    "request_context",
    "render_openmetrics",
    "EventBus",
    "Sink",
    "JsonlEventSink",
    "ChromeTraceSink",
    "LiveAggregator",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "span_to_dict",
    "records_to_chrome",
    "read_jsonl",
    "metrics_to_json",
]
