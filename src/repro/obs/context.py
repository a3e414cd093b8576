"""Request and job scopes: one id from HTTP edge to result store, and
one registry per running job.

A :class:`TraceContext` is minted at the serving edge (one per HTTP
request, honouring an ``X-Repro-Request-Id`` header when the client
supplies one) and carried on a :class:`contextvars.ContextVar`.  Every
layer that runs *within* the activated context — the tracer, the event
bus, ``run_job`` — reads it lazily and stamps the request id onto what
it emits, so one id correlates:

* the HTTP response header (``X-Repro-Request-Id``),
* every span the tracer finishes (→ the Chrome/Perfetto export),
* every bus event published while the context is active,
* the persisted :class:`~repro.batch.jobs.JobResult` record.

``contextvars`` values do **not** cross into
``loop.run_in_executor`` threads (only ``asyncio.to_thread`` copies
the context), so the daemon carries the context on its
:class:`~repro.serve.queue.WorkItem` and re-activates it explicitly on
the worker thread via :func:`activate`/:func:`deactivate` (or the
:func:`request_context` manager).

A job's :class:`JobScope` is held the same way, by :func:`job_scope`
while :func:`~repro.batch.jobs.run_job` runs the job: it carries the
job's options and deadline, and (telemetry on) the registry
:func:`repro.obs.metrics` answers.  A context is per thread, so jobs on
two dispatcher threads and the event loop never share a scope.  The
engine calls :func:`check_deadline` at its loop heads; crossing the
deadline raises :class:`JobTimeout`, which ``run_job`` reports.

Of :mod:`repro.obs` this module imports only the leaf
:mod:`repro.obs.metrics`: :mod:`repro.obs.bus` and
:mod:`repro.obs.trace` import it.
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar, Token
from dataclasses import dataclass
from typing import Iterator, Optional

from .metrics import MetricsRegistry

__all__ = [
    "JobScope",
    "JobTimeout",
    "TraceContext",
    "activate",
    "check_deadline",
    "current",
    "current_job",
    "current_request_id",
    "deactivate",
    "job_scope",
    "new_request_id",
    "request_context",
    "wait",
]


@dataclass(frozen=True)
class TraceContext:
    """Identity of one in-flight request.

    ``root_span_id`` (when set) becomes the fallback parent for spans
    started on a thread with an empty span stack — that is what welds
    the worker-thread span tree onto the request's root span even
    though the two live on different threads.
    """

    request_id: str
    root_span_id: Optional[int] = None
    endpoint: str = ""


_CURRENT: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_trace_context", default=None)


def new_request_id() -> str:
    """A fresh request id: 16 hex chars, unique enough for a fleet."""
    return uuid.uuid4().hex[:16]


def current() -> Optional[TraceContext]:
    """The active context on this thread, or ``None``."""
    return _CURRENT.get()


def current_request_id() -> str:
    """The active request id, or ``""`` outside any request."""
    ctx = _CURRENT.get()
    return ctx.request_id if ctx is not None else ""


def activate(ctx: TraceContext) -> Token:
    """Install *ctx* on the calling thread; returns the reset token."""
    return _CURRENT.set(ctx)


def deactivate(token: Token) -> None:
    """Undo a matching :func:`activate`."""
    _CURRENT.reset(token)


@contextmanager
def request_context(request_id: Optional[str] = None,
                    root_span_id: Optional[int] = None,
                    endpoint: str = "") -> Iterator[TraceContext]:
    """Scope a :class:`TraceContext` over a ``with`` block (mints a
    fresh id when none is given)."""
    ctx = TraceContext(request_id=request_id or new_request_id(),
                       root_span_id=root_span_id, endpoint=endpoint)
    token = activate(ctx)
    try:
        yield ctx
    finally:
        deactivate(token)


class JobTimeout(Exception):
    """The running job crossed its deadline.  Not a ``ReproError``, so
    the engine's handlers of analysis failures let it through."""


class JobScope:
    """One running job's options, deadline (``None``, or ``timeout``
    seconds after the scope opened) and, with *telemetry*, its own
    registry and count of finished spans (else ``registry`` is None)."""

    __slots__ = ("options", "timeout", "deadline", "registry", "spans")

    def __init__(self, options=None, timeout: Optional[float] = None,
                 telemetry: bool = True):
        self.options = dict(options or {})
        self.timeout = timeout
        self.deadline = None if timeout is None else time.monotonic() + timeout
        self.registry = MetricsRegistry() if telemetry else None
        self.spans = 0


_JOB: ContextVar[Optional[JobScope]] = ContextVar(
    "repro_job_scope", default=None)


def current_job() -> Optional[JobScope]:
    """The scope of the job running in this context, or ``None``."""
    return _JOB.get()


@contextmanager
def job_scope(options=None, timeout: Optional[float] = None,
              telemetry: bool = True) -> Iterator[JobScope]:
    """Scope a fresh :class:`JobScope` over a ``with`` block."""
    scope = JobScope(options, timeout, telemetry)
    token = _JOB.set(scope)
    try:
        yield scope
    finally:
        _JOB.reset(token)


def check_deadline() -> None:
    """Raise :class:`JobTimeout` once the job running in this context is
    past its deadline; otherwise (no job, no deadline) return."""
    scope = _JOB.get()
    if (scope is not None and scope.deadline is not None
            and time.monotonic() >= scope.deadline):
        raise JobTimeout(f"job exceeded timeout of {scope.timeout}s")


def wait(seconds: float) -> None:
    """``time.sleep(seconds)`` that checks the running job's deadline
    every 10 ms."""
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        check_deadline()
        time.sleep(min(0.01, max(0.0, end - time.monotonic())))
