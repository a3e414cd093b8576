"""Process-global event bus: the streaming side of ``repro.obs``.

Spans, metrics, batch-job lifecycles and the analysis engine's
records all *publish* plain-dict events through one
:class:`EventBus`; pluggable *sinks* subscribe and fold or forward
them (see :mod:`repro.obs.sinks`).  Where the metrics
registry answers "what happened" after a run, the bus answers "what is
happening" while it runs — it is the seam a live monitor
(:mod:`repro.obs.top`), a progress line (:mod:`repro.batch.cli`), a
trace exporter, or the daemon's HTTP progress stream plugs into.

Events are JSON-compatible dicts with a ``"type"`` field; consumers
must skip unknown types so the vocabulary can grow.  The core types:

``span`` / ``span_start`` / ``span_point``
    Finished spans (the :func:`repro.obs.trace.span_to_dict` record,
    absolute times, span events included), span openings, and
    point-in-time span events from the tracer.  The ``span`` record is
    the only way a finished span leaves the tracer; records shipped
    back from pool workers are re-published with a ``worker`` tag.
``metric``
    One instrument update (``kind``/``name`` plus ``inc`` or
    ``value``).  Only published while some sink declares interest in
    metrics — counters fire millions of times per sweep, so the
    default cost must stay one attribute load and branch.
``sweep`` / ``job`` / ``job_retry``
    Batch lifecycle from :class:`repro.batch.executor.BatchRunner`:
    sweep start/end envelopes, one ``job`` event per unique point
    (cached or executed, any status), one ``job_retry`` per transient
    failure sent back to the queue.
``iteration`` / ``local_analysis`` / ``guard`` / ``quarantine``
    The engine's records (:func:`repro.obs.emit`), one event each: a
    global fixed-point iteration of
    :func:`repro.system.propagation.analyze_system` with its
    convergence residuals, a local analysis with the busy windows it
    computed, a :class:`repro.resilience.guards.DivergenceGuard`
    verdict, a degraded run's quarantine.
``soak``
    Burn-in campaign lifecycle from :mod:`repro.soak.campaign`:
    ``phase`` is ``start``/``end`` (campaign envelopes), ``sample``
    (one judged sample with its violated contract ids), or
    ``violation`` (a triaged violation with its bundle path).

Publishing is allocation-free when nothing is subscribed: call sites
check :attr:`EventBus.active` (or :attr:`EventBus.metric_interest` /
:attr:`EventBus.span_interest`) before building the event dict.  Sink
exceptions are counted and swallowed — a broken monitor must never sink
an analysis run.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import context as _context

#: Sinks may be plain callables or objects with a ``handle`` method.
SinkLike = Callable[[Dict[str, Any]], None]


class EventBus:
    """Thread-safe publish/subscribe hub for telemetry events.

    Subscribers declare optional *interests* — a collection of event
    types — and only receive matching events; ``None`` means
    everything.  The bus keeps three cheap flags, :attr:`active` (any
    sink at all), :attr:`metric_interest` and :attr:`span_interest`
    (some sink wants ``"metric"`` / ``"span"`` events), so hot call
    sites can skip event construction entirely with one attribute
    read.
    """

    def __init__(self):
        self._lock = threading.Lock()
        #: list of (handler, interests frozenset or None, token, label)
        self._sinks: List[
            Tuple[SinkLike, Optional[frozenset], Any, str]] = []
        self.active = False
        self.metric_interest = False
        self.span_interest = False
        #: Exceptions swallowed while dispatching to sinks (total).
        self.sink_errors = 0
        #: Swallowed exceptions broken out by sink label — the total
        #: alone cannot say *which* monitor is broken.
        self._sink_error_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def subscribe(self, sink: Any,
                  interests: Optional[Any] = None) -> Any:
        """Attach *sink*; returns *sink* itself (the unsubscribe token).

        *sink* is either a callable taking one event dict or an object
        with a ``handle(event)`` method; when *interests* is ``None``
        the sink's own ``interests`` attribute (if any) is used.
        """
        handler = getattr(sink, "handle", None)
        if handler is None:
            handler = sink
        if interests is None:
            interests = getattr(sink, "interests", None)
        wanted = None if interests is None else frozenset(interests)
        label = (getattr(sink, "name", None)
                 or getattr(sink, "__name__", None)
                 or type(sink).__name__)
        with self._lock:
            self._sinks.append((handler, wanted, sink, str(label)))
            self._refresh_flags()
        return sink

    def unsubscribe(self, sink: Any) -> bool:
        """Detach *sink*; returns whether it was subscribed."""
        with self._lock:
            before = len(self._sinks)
            self._sinks = [entry for entry in self._sinks
                           if entry[2] is not sink]
            self._refresh_flags()
            return len(self._sinks) < before

    def _refresh_flags(self) -> None:
        self.active = bool(self._sinks)
        self.metric_interest = self._accepts("metric")
        self.span_interest = self._accepts("span")

    def _accepts(self, kind: str) -> bool:
        return any(wanted is None or kind in wanted
                   for _, wanted, _, _ in self._sinks)

    def clear(self) -> None:
        """Drop every sink (test isolation; sinks are not closed)."""
        with self._lock:
            self._sinks = []
            self._refresh_flags()
        self.sink_errors = 0
        self._sink_error_counts = {}

    def sink_error_counts(self) -> Dict[str, int]:
        """Swallowed-exception counts per sink label (a copy)."""
        with self._lock:
            return dict(self._sink_error_counts)

    # ------------------------------------------------------------------
    def publish(self, event: Dict[str, Any]) -> None:
        """Dispatch *event* to every interested sink.

        The event dict gains a ``"t"`` wall-clock-free timestamp
        (:func:`time.perf_counter` seconds) unless the publisher
        already stamped one.  Dispatch happens outside the lock on a
        snapshot of the sink list, so sinks may (un)subscribe from
        inside a handler.
        """
        with self._lock:
            sinks = list(self._sinks)
        if not sinks:
            return
        if "t" not in event:
            event["t"] = time.perf_counter()
        if "request_id" not in event:
            rid = _context.current_request_id()
            if rid:
                event["request_id"] = rid
        kind = event.get("type")
        for handler, wanted, _, label in sinks:
            if wanted is not None and kind not in wanted:
                continue
            try:
                handler(event)
            except Exception:
                self.sink_errors += 1
                with self._lock:
                    self._sink_error_counts[label] = \
                        self._sink_error_counts.get(label, 0) + 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._sinks)


#: The process-global bus every instrumented call site publishes to.
#: Access it through :func:`repro.obs.get_bus` from user code.
BUS = EventBus()
