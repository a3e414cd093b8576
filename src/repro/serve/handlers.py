"""Request handlers: the seam from HTTP payloads into the batch engine.

Every served analysis flows through the existing content-addressed
machinery — the handler builds a :class:`~repro.batch.jobs.Job`, runs
it through a :class:`~repro.batch.executor.BatchRunner` over the
daemon's shared :class:`~repro.batch.store.ResultStore`, and returns
the :class:`~repro.batch.jobs.JobResult` as the response body.  That
buys the service, for free:

* **shared hot caches** — identical requests from any client hit the
  store (and the process-global shared-chain LRU warms across
  requests, since all dispatcher threads share one process);
* **resumability** — a drained request's job key can be resubmitted
  later and may already be answered;
* **resilience** — analyze requests default to ``on_failure="degrade"``
  and the runner carries the batch
  :class:`~repro.resilience.retry.RetryPolicy`, so one pathological
  system degrades one response instead of the daemon.

Handlers run on dispatcher worker threads (they block on real
fixed-point work); everything they touch is thread-safe (the store is
internally locked, the metrics registry and event bus already are).

A new ``explain`` job kind is registered here so explanation requests
are content-addressed and cached exactly like analyze requests.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional

from .._errors import ModelError
from ..batch.executor import BatchRunner
from ..batch.jobs import (
    Job,
    JobResult,
    check_timeout,
    job_kinds,
    register_job_kind,
)
from ..batch.spaces import NAMED_SPACES, pipeline_system
from ..obs.context import TraceContext, new_request_id
from ..system.model import System
from ..system.serialize import system_to_dict

#: Built-in example systems servable by name: name -> builder.
EXAMPLES: Dict[str, Callable[[], System]] = {}

#: Each built-in example, serialised once per process.  Every request
#: for it shares the dict: job payloads are read-only
#: (``system_from_dict`` only reads its dict).
_EXAMPLE_DICTS: Dict[str, Dict[str, Any]] = {}


def _register_examples() -> None:
    if EXAMPLES:
        return
    from ..examples_lib import body_gateway, rox08, stress
    EXAMPLES["rox08"] = lambda: rox08.build_system("hem")
    EXAMPLES["rox08-flat"] = lambda: rox08.build_system("flat")
    EXAMPLES["body_gateway"] = body_gateway.build
    EXAMPLES["overloaded"] = stress.build_overloaded
    EXAMPLES["oscillating"] = stress.build_oscillating
    EXAMPLES["pipeline"] = pipeline_system


def example_names() -> List[str]:
    _register_examples()
    return sorted(EXAMPLES)


def space_names() -> List[str]:
    return sorted(NAMED_SPACES)


class BadRequest(Exception):
    """Client-side payload error → 400."""


def mint_trace_context(request_id: str = "",
                       root_span_id: "Optional[int]" = None,
                       endpoint: str = "") -> TraceContext:
    """One :class:`~repro.obs.context.TraceContext` per HTTP request.

    An id supplied by the client (``X-Repro-Request-Id``) is honoured
    so a caller can correlate across retries and daemons; otherwise a
    fresh one is minted.  The server activates the context on the
    worker thread executing the request, which stamps the id onto
    every span, bus event, and stored result produced underneath.
    """
    return TraceContext(request_id=request_id.strip() or new_request_id(),
                        root_span_id=root_span_id, endpoint=endpoint)


def resolve_system_dict(payload: Dict[str, Any]) -> Dict[str, Any]:
    """``system`` (serialised dict) or ``example`` (builtin name) →
    canonical system dict.  Raises :class:`BadRequest` otherwise."""
    _register_examples()
    system = payload.get("system")
    example = payload.get("example")
    if system is not None and example is not None:
        raise BadRequest("give either 'system' or 'example', not both")
    if system is not None:
        if not isinstance(system, dict):
            raise BadRequest("'system' must be a serialised system dict")
        return system
    if example is not None:
        system = _EXAMPLE_DICTS.get(example)
        if system is None:
            builder = EXAMPLES.get(example)
            if builder is None:
                raise BadRequest(
                    f"unknown example {example!r} "
                    f"(known: {', '.join(sorted(EXAMPLES))})")
            system = _EXAMPLE_DICTS[example] = system_to_dict(builder())
        return system
    raise BadRequest("payload needs a 'system' dict or an 'example' name")


# ----------------------------------------------------------------------
# the explain job kind (registered on serve import; cached like analyze)
# ----------------------------------------------------------------------
@register_job_kind("explain")
def _run_explain(payload: "Dict[str, Any]") -> "Dict[str, Any]":
    """WCRT blame attribution + lineage of one serialised system.

    Payload: ``system`` (system dict), optional ``max_iterations``.
    Returns :meth:`repro.explain.engine.Explanation.to_dict`.
    """
    from ..explain.engine import explain_system
    from ..system.propagation import DEFAULT_MAX_ITERATIONS
    from ..system.serialize import system_from_dict

    system = system_from_dict(payload["system"])
    ex = explain_system(system, max_iterations=payload.get(
        "max_iterations", DEFAULT_MAX_ITERATIONS))
    return ex.to_dict()


# ----------------------------------------------------------------------
# job construction (runs on the event loop: cheap, no analysis)
# ----------------------------------------------------------------------
def build_job(kind: str, payload: Dict[str, Any]) -> Job:
    """Translate a request payload into a content-addressed job.

    ``analyze`` requests default to ``on_failure="degrade"`` — the
    daemon must keep serving when one request's system diverges — but a
    client may pass ``on_failure="raise"`` explicitly to get strict
    semantics (the failure then comes back as a failed job result, not
    an exception).

    An ``incremental`` request key (a group name, or ``true`` for the
    shared default group) becomes a job *option*: the analysis reuses
    unchanged local results from earlier requests of the same group.
    Options never enter the job key, so incremental and cold requests
    share one cache entry — backed by the memo layer's bit-identity
    guarantee.
    """
    from ..system.propagation import DEFAULT_MAX_ITERATIONS

    if kind == "analyze":
        job_payload: Dict[str, Any] = {
            "system": resolve_system_dict(payload),
            "max_iterations": payload.get("max_iterations",
                                          DEFAULT_MAX_ITERATIONS),
            "on_failure": payload.get("on_failure", "degrade"),
        }
        if job_payload["on_failure"] not in ("raise", "degrade"):
            raise BadRequest("on_failure must be 'raise' or 'degrade'")
        options: Dict[str, Any] = {}
        incremental = payload.get("incremental")
        if incremental:
            options["incremental"] = ("serve"
                                      if incremental is True
                                      else str(incremental))
        return Job("analyze", job_payload,
                   label=payload.get("label", payload.get("example", "")),
                   options=options)
    if kind == "explain":
        job_payload = {
            "system": resolve_system_dict(payload),
            "max_iterations": payload.get("max_iterations",
                                          DEFAULT_MAX_ITERATIONS),
        }
        return Job("explain", job_payload,
                   label=payload.get("label", payload.get("example", "")))
    if kind == "job":
        raw_kind = payload.get("kind")
        if raw_kind not in job_kinds():
            raise BadRequest(
                f"unknown job kind {raw_kind!r} "
                f"(known: {', '.join(job_kinds())})")
        raw_payload = payload.get("payload")
        if not isinstance(raw_payload, dict):
            raise BadRequest("'payload' must be a dict")
        return Job(raw_kind, raw_payload,
                   label=payload.get("label", ""),
                   timeout=_budget(payload))
    raise BadRequest(f"unhandled request kind {kind!r}")


def _budget(payload: Dict[str, Any]) -> Optional[float]:
    """The request's checked ``timeout``, else :class:`BadRequest`."""
    try:
        return check_timeout(payload.get("timeout"))
    except ModelError as exc:
        raise BadRequest(str(exc)) from None


def int_field(payload: Dict[str, Any], name: str, default: int) -> int:
    """The request's ``name`` field as an int (*default* when absent),
    else :class:`BadRequest` naming the field."""
    value = payload.get(name, default)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise BadRequest(f"{name} must be an integer, got {value!r}") \
            from None


# ----------------------------------------------------------------------
# worker-side execution (dispatcher threads)
# ----------------------------------------------------------------------
def run_unary(runner: BatchRunner, job: Job,
              profile: bool = False,
              profile_hz: int = 100) -> Dict[str, Any]:
    """Run one job through the memoising runner; response body + cache
    accounting.  The runner checkpoints the result into the shared
    store before we return, so a crash after this point loses nothing.

    With *profile* the wall-clock sampling profiler watches this
    worker thread for the duration of the job and the response body
    gains a ``"profile"`` report (collapsed stacks + hot table).
    """
    profiler = None
    if profile:
        from ..obs.profile import SamplingProfiler
        profiler = SamplingProfiler(
            hz=profile_hz, threads={threading.get_ident()})
        profiler.start()
    try:
        report = runner.run([job])
    finally:
        if profiler is not None:
            profiler.stop()
    body = result_body(report.results[job.key], job.key in report.cached)
    if profiler is not None:
        body["profile"] = profiler.to_dict()
    return body


def result_body(result: JobResult, cached: bool) -> Dict[str, Any]:
    """The response body answering a job with *result*."""
    body: Dict[str, Any] = {
        "key": result.key,
        "kind": result.kind,
        "status": result.status,
        "cached": cached,
        "data": result.data,
        "duration": result.duration,
        "attempts": result.attempts,
    }
    if result.error:
        body["error"] = result.error
    return body


class RequestSink:
    """Per-request event-bus sink for streaming sweep progress.

    The bus is process-global and every dispatcher thread publishes
    into it, so a per-request stream must filter.  Events are
    dispatched synchronously on the publishing thread
    (:meth:`repro.obs.bus.EventBus.publish`), which makes the thread
    identity of the *publisher* the request identity: the sink is
    bound to the dispatcher thread running this request's sweep and
    forwards only events published from it.

    Forwarding crosses back onto the event loop via
    ``loop.call_soon_threadsafe`` into the request's ``asyncio.Queue``
    — the HTTP handler drains that queue into NDJSON lines.
    """

    interests = frozenset(
        {"sweep", "job", "job_retry", "guard", "serve_state"})

    def __init__(self, loop, stream: "Any"):
        self._loop = loop
        self._stream = stream
        self._thread: Optional[int] = None
        self.forwarded = 0

    def bind_current_thread(self) -> None:
        self._thread = threading.get_ident()

    def handle(self, event: Dict[str, Any]) -> None:
        if self._thread != threading.get_ident():
            return
        self.forwarded += 1
        self._loop.call_soon_threadsafe(
            self._stream.put_nowait, dict(event))


def run_sweep(runner_factory: Callable[[str], BatchRunner],
              payload: Dict[str, Any],
              sink: Optional[RequestSink] = None) -> Dict[str, Any]:
    """Run a named design-space sweep; returns the final summary body.

    *runner_factory* builds a runner bound to the request's cache
    directory (sweeps use per-space stores, like the batch CLI, so a
    sweep and a direct ``python -m repro batch`` run share hits).
    """
    from ..obs.bus import BUS

    name = payload.get("space")
    if name not in NAMED_SPACES:
        raise BadRequest(
            f"unknown space {name!r} "
            f"(known: {', '.join(sorted(NAMED_SPACES))})")
    space = NAMED_SPACES[name]()
    space.timeout = _budget(payload)
    seed = int_field(payload, "seed", 0)
    points = (space.sample(int_field(payload, "sample", 0), seed=seed)
              if payload.get("sample") is not None else list(space.grid()))

    runner = runner_factory(name)
    if sink is not None:
        sink.bind_current_thread()
        BUS.subscribe(sink)
    try:
        sweep = space.run(runner, points=points)
    finally:
        if sink is not None:
            BUS.unsubscribe(sink)
    report = sweep.report
    return {
        "space": space.name,
        "points": len(points),
        "cached": len(report.cached),
        "executed": len(report.executed),
        "failed": len(report.failed),
        "poisoned": len(report.poisoned),
        "cache_hit_rate": report.cache_hit_rate,
        "wall": report.wall,
        "table": sweep.table(),
        "summary": report.summary(),
    }


__all__ = [
    "BadRequest",
    "EXAMPLES",
    "RequestSink",
    "build_job",
    "example_names",
    "int_field",
    "mint_trace_context",
    "resolve_system_dict",
    "result_body",
    "run_sweep",
    "run_unary",
    "space_names",
]
