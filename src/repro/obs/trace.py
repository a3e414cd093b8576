"""Span-based tracing for the analysis engine.

A :class:`Span` is a named, timed region of work with free-form
attributes; spans nest via a thread-local stack kept by the
:class:`Tracer`.  A finished span leaves the tracer one way: as one
``"span"`` record (:func:`span_to_dict`) published on the event bus.
The tracer keeps nothing; whoever wants spans attaches a sink for the
run it cares about (:class:`~repro.obs.sinks.JsonlEventSink`,
:class:`~repro.obs.sinks.ChromeTraceSink`), and
:class:`~repro.viz.ConvergenceReport` reads the records.

Call sites never touch this module when observability is disabled: the
hot paths guard every tracer call with ``if obs.enabled:`` so the
disabled cost is a single attribute load and branch.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from . import context as _context
from .bus import BUS


class Span:
    """One named, timed region of work.

    Spans are context managers::

        with tracer.span("local_analysis", resource="cpu1") as span:
            ...
            span.set(tasks=3)

    An exception escaping the ``with`` block marks the span with
    ``status="error"`` and the exception repr before re-raising.
    """

    __slots__ = ("name", "attributes", "events", "span_id", "parent_id",
                 "thread_id", "request_id", "start", "end",
                 "status", "error", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int],
                 attributes: Optional[Dict[str, Any]] = None):
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread_id = threading.get_ident()
        #: Request correlation id, stamped from the active
        #: :class:`repro.obs.context.TraceContext` (``None`` outside
        #: any request).
        self.request_id: Optional[str] = None
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.events: List[Dict[str, Any]] = []
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.status = "ok"
        self.error: Optional[str] = None

    # ------------------------------------------------------------------
    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) attributes on the span."""
        self.attributes.update(attributes)
        return self

    def event(self, name: str, **attributes: Any) -> None:
        """Record a point-in-time event inside the span."""
        self.events.append({"name": name,
                            "time": time.perf_counter(),
                            **attributes})

    @property
    def duration(self) -> Optional[float]:
        """Wall-clock seconds between start and finish, if finished."""
        if self.end is None:
            return None
        return self.end - self.start

    def finish(self) -> None:
        self._tracer._finish(self)

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.status = "error"
            self.error = repr(exc)
        self.finish()
        return False  # never swallow the exception

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "open" if self.end is None else f"{self.duration:.6f}s"
        return f"<Span {self.name} id={self.span_id} {state}>"


def span_to_dict(span: Span, t0: float = 0.0) -> Dict[str, Any]:
    """JSON-serialisable record of one span: the ``"span"`` bus event.

    Times are ``perf_counter`` seconds minus *t0*; the tracer publishes
    absolute times (``t0=0``) and sinks rebase them.
    """
    record: Dict[str, Any] = {
        "type": "span",
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "thread_id": span.thread_id,
        "start": span.start - t0,
        "end": (span.end - t0) if span.end is not None else None,
        "duration": span.duration,
        "status": span.status,
        "attributes": _jsonable(span.attributes),
    }
    if span.request_id is not None:
        record["request_id"] = span.request_id
    if span.error is not None:
        record["error"] = span.error
    if span.events:
        record["events"] = [
            {**_jsonable(e), "time": e["time"] - t0} for e in span.events
        ]
    return record


def _jsonable(value: Any) -> Any:
    """Best-effort conversion to JSON-serialisable structures."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class Tracer:
    """Hands out span ids and keeps a per-thread stack of open spans.

    ``span()``/``start()`` push onto the calling thread's stack so
    nested spans automatically pick up their parent.  A finished span is
    published on the bus as one :func:`span_to_dict` record (built only
    while some sink takes ``"span"`` events) and then forgotten: only
    :attr:`finished_count` remembers it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        #: Spans finished since the last reset (a run's span count,
        #: e.g. ``JobResult.obs["spans"]``).
        self.finished_count = 0
        #: perf_counter origin for relative timestamps in exports.
        self.t0 = time.perf_counter()

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    def start(self, name: str, **attributes: Any) -> Span:
        """Open a span (caller must ``finish()`` it, or use ``span()``)."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = self.current()
        parent_id = parent.span_id if parent is not None else None
        ctx = _context.current()
        if parent_id is None and ctx is not None:
            # Empty stack inside an active request: weld onto the
            # request's root span — this is how worker-thread span
            # trees stay contiguous with the serving edge.
            parent_id = ctx.root_span_id
        span = Span(self, name, span_id, parent_id, attributes)
        if ctx is not None:
            span.request_id = ctx.request_id
        elif parent is not None:
            span.request_id = parent.request_id
        self._stack().append(span)
        self._announce(span)
        return span

    def start_detached(self, name: str,
                       parent_id: Optional[int] = None,
                       ctx: Optional["_context.TraceContext"] = None,
                       **attributes: Any) -> Span:
        """Open a span *without* pushing it on any thread's stack.

        Detached spans are for regions whose start and finish happen on
        different threads (a serve request's root span starts on the
        event loop and finishes when the dispatcher resolves it); they
        never become an implicit parent, so nesting is explicit via
        *parent_id* or a :class:`~repro.obs.context.TraceContext`
        carrying their ``span_id``.
        """
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(self, name, span_id, parent_id, attributes)
        if ctx is None:
            ctx = _context.current()
        if ctx is not None:
            span.request_id = ctx.request_id
            if span.parent_id is None:
                span.parent_id = ctx.root_span_id
        self._announce(span)
        return span

    def _announce(self, span: Span) -> None:
        if BUS.active:
            event: Dict[str, Any] = {
                "type": "span_start", "name": span.name,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "thread_id": span.thread_id,
                "t": span.start}
            if span.request_id is not None:
                event["request_id"] = span.request_id
            BUS.publish(event)

    def span(self, name: str, **attributes: Any) -> Span:
        """Open a span for use as a context manager."""
        return self.start(name, **attributes)

    def event(self, name: str, **attributes: Any) -> None:
        """Record an event on the current span (dropped when no span is
        open — events only make sense inside a traced region)."""
        current = self.current()
        if current is not None:
            current.event(name, **attributes)
            if BUS.active:
                BUS.publish({"type": "span_point", "name": name,
                             "span_id": current.span_id,
                             "span_name": current.name,
                             "attributes": dict(attributes)})

    def _finish(self, span: Span) -> None:
        if span.end is not None:
            return  # double-finish is a no-op
        span.end = time.perf_counter()
        stack = self._stack()
        # Exception safety: pop every span opened after this one too, so
        # a missed finish() deeper down cannot corrupt the stack.  A
        # span that is not on *this* thread's stack (detached spans, or
        # a cross-thread finish) must leave the stack alone.
        if span in stack:
            while stack:
                popped = stack.pop()
                if popped is span:
                    break
        with self._lock:
            self.finished_count += 1
        if BUS.span_interest:
            BUS.publish(span_to_dict(span))

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restart the span ids, the finished count and the clock
        origin."""
        with self._lock:
            self._next_id = 0
            self.finished_count = 0
        self._local = threading.local()
        self.t0 = time.perf_counter()
