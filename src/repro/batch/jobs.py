"""Job abstraction: content-addressed units of analysis work.

A :class:`Job` is a *pure, serialisable* description of one analysis
question — "analyse this system", "how much WCET headroom does this
resource have", "does the simulator stay below the analytic bounds" —
keyed by a deterministic content hash of its canonical JSON payload.
Because the payload carries the system as a :func:`repro.system.
system_to_dict` dict (never a live object), jobs cross process
boundaries without pickling schedulers or event models: workers rebuild
the system with :func:`repro.system.system_from_dict` and run the
ordinary engine.

Job kinds are looked up in a registry so downstream code (and tests)
can add their own::

    @register_job_kind("my_kind")
    def _run_my_kind(payload: dict) -> dict:
        ...

The executor layer (:mod:`repro.batch.executor`) calls :func:`run_job`,
which never raises: failures come back as a :class:`JobResult` with
``status="failed"`` and the full traceback, so one diverging fixed
point cannot sink a thousand-point sweep.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .. import obs as _obs
from .._errors import ModelError
from ..obs import context as _obs_context
from ..analysis.interface import TaskSpec
from ..system.serialize import (
    content_hash,
    model_from_dict,
    model_to_dict,
    scheduler_from_dict,
    system_from_dict,
)

#: Result statuses.  ``ok`` results are cache-eligible; ``failed`` and
#: ``timeout`` results are recorded (so a resumed sweep knows the point
#: was attempted) but retried on the next run.  ``poisoned`` results are
#: failures quarantined by the retry machinery (deterministic errors, or
#: transients that survived the attempt budget); they are served from
#: cache like ``ok`` results so later sweeps skip the known mine.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_POISONED = "poisoned"

#: Version of the results the job kinds compute, hashed into every
#: :attr:`Job.key`.  Bump it whenever a change makes a job kind return
#: different ``data`` for the same payload (a bound, a reported
#: utilisation, a new field): stored results are looked up by key, so a
#: persisted :class:`~repro.batch.store.ResultStore` (the serve cache
#: directory, ``repro batch --resume``) would otherwise keep serving
#: what the older code computed.  Version 2: utilisation read from
#: ``EventModel.long_run_rate``.
RESULT_VERSION = 2


@dataclass(frozen=True)
class Job:
    """One content-addressed unit of analysis work.

    Attributes
    ----------
    kind:
        Registry name of the function that executes the job.
    payload:
        JSON-compatible arguments for the kind function.  Systems travel
        as ``system_to_dict`` dicts.
    label:
        Human-readable tag for progress output and tables; *not* part of
        the identity.
    timeout:
        Per-job wall-time budget in seconds (``None`` or finite > 0),
        the deadline :func:`run_job` sets; excluded from the identity.
    options:
        Execution hints that must **not** change what the job computes —
        e.g. ``{"incremental": "<group>"}`` to route the analysis
        through a shared :class:`~repro.analysis.memo.AnalysisMemo`.
        Like ``label`` and ``timeout`` they are excluded from the
        identity: an incremental job and a cold job of the same payload
        share one cache entry, which is exactly the bit-identity
        contract the memo layer guarantees.  Job kinds read them via
        :func:`current_job_options`.
    key:
        Derived content hash over ``(kind, payload)`` and
        :data:`RESULT_VERSION` — equal payloads produce equal keys in
        every process running the same code.
    """

    kind: str
    payload: Mapping[str, Any]
    label: str = ""
    timeout: Optional[float] = None
    options: Mapping[str, Any] = field(default_factory=dict)
    key: str = field(init=False)

    def __post_init__(self):
        if not self.kind:
            raise ModelError("job kind must be non-empty")
        check_timeout(self.timeout)
        digest = content_hash({"kind": self.kind,
                               "payload": dict(self.payload),
                               "version": RESULT_VERSION})
        object.__setattr__(self, "key", digest)


def check_timeout(timeout: Any) -> Optional[float]:
    """*timeout* if it is a job budget (``None``, or a finite number of
    seconds > 0), else a :class:`ModelError` naming ``timeout``."""
    if timeout is None or (
            isinstance(timeout, (int, float))
            and not isinstance(timeout, bool)
            and 0 < timeout < float("inf")):
        return timeout
    raise ModelError(f"timeout must be a finite number of seconds > 0, "
                     f"got {timeout!r}", context={"field": "timeout"})


@dataclass
class JobResult:
    """Outcome of executing one :class:`Job`.

    ``obs`` carries what the job alone recorded when it ran with
    ``repro.obs`` enabled: its registry's ``"metrics"`` (an
    :meth:`~repro.obs.metrics.MetricsRegistry.as_delta` payload), the
    ``"spans"`` it finished and the ``"pid"`` that ran it.  A plain
    dict, it crosses the process boundary with the rest of the result;
    :func:`repro.batch.executor.finish_attempt` folds it.

    ``attempts``/``history`` are filled in by the retry machinery:
    ``attempts`` counts executions of this job in the producing run, and
    ``history`` records one ``{"attempt", "status", "error"}`` dict per
    failed earlier attempt — a poisoned result documents the whole
    trail that condemned it.
    """

    key: str
    kind: str
    label: str
    status: str
    data: Dict[str, Any] = field(default_factory=dict)
    error: str = ""
    traceback: str = ""
    duration: float = 0.0
    obs: Dict[str, Any] = field(default_factory=dict)
    attempts: int = 1
    history: list = field(default_factory=list)
    #: Correlation id of the serve request that produced this result
    #: ("" for results produced outside any request).
    request_id: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_dict(self) -> Dict[str, Any]:
        record = {
            "key": self.key,
            "kind": self.kind,
            "label": self.label,
            "status": self.status,
            "data": self.data,
            "error": self.error,
            "traceback": self.traceback,
            "duration": self.duration,
            "obs": self.obs,
            "attempts": self.attempts,
            "history": self.history,
        }
        if self.request_id:
            record["request_id"] = self.request_id
        return record

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobResult":
        return cls(
            key=data["key"],
            kind=data.get("kind", ""),
            label=data.get("label", ""),
            status=data.get("status", STATUS_FAILED),
            data=dict(data.get("data", {})),
            error=data.get("error", ""),
            traceback=data.get("traceback", ""),
            duration=data.get("duration", 0.0),
            obs=dict(data.get("obs", {})),
            attempts=data.get("attempts", 1),
            history=list(data.get("history", [])),
            request_id=data.get("request_id", ""),
        )


# ----------------------------------------------------------------------
# job-kind registry
# ----------------------------------------------------------------------
_JOB_KINDS: "Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]]" = {}


def register_job_kind(name: str):
    """Decorator registering a payload→data function under *name*."""
    def decorator(fn: Callable[[Dict[str, Any]], Dict[str, Any]]):
        _JOB_KINDS[name] = fn
        return fn
    return decorator


def job_kinds() -> "Tuple[str, ...]":
    return tuple(sorted(_JOB_KINDS))


def current_job_options() -> "Dict[str, Any]":
    """The running :class:`Job`'s options (``{}`` outside :func:`run_job`)."""
    scope = _obs_context.current_job()
    return dict(scope.options) if scope is not None else {}


def run_job(job: Job, ship_spans: bool = False) -> JobResult:
    """Execute *job*, capturing errors and wall time; never raises.

    The job runs in a :func:`~repro.obs.context.job_scope` holding its
    options and deadline.  The engine checks the deadline at its loop
    heads and this function once more when the job returns; past it,
    the job ends ``timeout`` (no ``data``, ``obs`` kept) on every
    backend and thread.  With observability enabled the result's
    ``obs`` carries what the job's own registry recorded, whichever
    process ran it.  With *ship_spans* its span records travel along
    as ``obs["span_records"]`` for the parent to re-publish.
    """
    telemetry = _obs.enabled
    span_records: "Optional[list]" = None
    if telemetry and ship_spans:
        span_records = []
        collect = span_records.append
        _obs.get_bus().subscribe(collect, interests=("span",))
    try:
        with _obs_context.job_scope(job.options, job.timeout,
                                    telemetry) as scope:
            if telemetry:
                scope.registry.counter(f"analysis.jobs.{job.kind}").inc()
            result = _run(job)
    finally:
        if span_records is not None:
            _obs.get_bus().unsubscribe(collect)
    if telemetry:
        result.obs = {"metrics": scope.registry.as_delta(),
                      "spans": scope.spans, "pid": os.getpid()}
        if span_records:
            result.obs["span_records"] = span_records
    return result


def _run(job: Job) -> JobResult:
    """:func:`run_job` inside the job's scope."""
    result = JobResult(job.key, job.kind, job.label, STATUS_OK,
                       request_id=_obs_context.current_request_id())
    fn = _JOB_KINDS.get(job.kind)
    if fn is None:
        result.status = STATUS_FAILED
        result.error = (f"unknown job kind {job.kind!r} "
                        f"(known: {', '.join(job_kinds())})")
        return result
    t0 = time.perf_counter()
    try:
        data = fn(dict(job.payload))
        _obs_context.check_deadline()
        result.data = data
    except _obs_context.JobTimeout as exc:
        result.status = STATUS_TIMEOUT
        result.error = str(exc)
    except Exception as exc:
        result.status = STATUS_FAILED
        result.error = f"{type(exc).__name__}: {exc}"
        result.traceback = traceback.format_exc()
    result.duration = time.perf_counter() - t0
    return result


# ----------------------------------------------------------------------
# TaskSpec serialisation (resource-level jobs)
# ----------------------------------------------------------------------
def taskspec_to_dict(spec: TaskSpec) -> "Dict[str, Any]":
    return {
        "name": spec.name,
        "c_min": spec.c_min,
        "c_max": spec.c_max,
        "event_model": model_to_dict(spec.event_model),
        "priority": spec.priority,
        "slot": spec.slot,
        "deadline": spec.deadline,
        "blocking": spec.blocking,
    }


def taskspec_from_dict(data: Mapping[str, Any]) -> TaskSpec:
    return TaskSpec(
        data["name"], data["c_min"], data["c_max"],
        model_from_dict(data["event_model"]),
        priority=data.get("priority", 0),
        slot=data.get("slot"),
        deadline=data.get("deadline"),
        blocking=data.get("blocking", 0.0))


# ----------------------------------------------------------------------
# built-in job kinds
# ----------------------------------------------------------------------
@register_job_kind("analyze")
def _run_analyze(payload: "Dict[str, Any]") -> "Dict[str, Any]":
    """Global compositional analysis of one serialised system.

    Payload: ``system`` (system dict), optional ``max_iterations``,
    optional ``on_failure`` (``"raise"`` default, or ``"degrade"`` to
    quarantine failing resources and return health + certificates in
    an ``"outcome"`` data key instead of failing the job).

    Job *option* ``incremental`` (a group name) routes the run through
    the named :func:`~repro.analysis.memo.memo_for` memo: adjacent jobs
    of one sweep reuse the local analyses of unchanged resources.
    Being an option, it never enters the job key — incremental results
    are bit-identical to cold ones.
    """
    from ..system.propagation import DEFAULT_MAX_ITERATIONS, analyze_system

    system = system_from_dict(payload["system"])
    on_failure = payload.get("on_failure", "raise")
    memo = None
    before = None
    group = current_job_options().get("incremental")
    if group:
        from ..analysis.memo import memo_for

        memo = memo_for(str(group))
        before = memo.stats()
    outcome = None
    result = analyze_system(
        system,
        max_iterations=payload.get("max_iterations",
                                   DEFAULT_MAX_ITERATIONS),
        on_failure=on_failure, memo=memo)
    if on_failure == "degrade":
        outcome = result
        result = outcome.result
    wcrt = {}
    utilization = {}
    for rr in result.resource_results.values():
        utilization[rr.resource] = rr.utilization
        for name, tr in rr.task_results.items():
            wcrt[name] = tr.r_max
    data = {
        "converged": result.converged,
        "iterations": result.iterations,
        "wcrt": wcrt,
        "worst_wcrt": max(wcrt.values()) if wcrt else 0.0,
        "utilization": utilization,
    }
    if outcome is not None:
        data["outcome"] = outcome.to_dict()
    if memo is not None and before is not None:
        after = memo.stats()
        reused = after["task_reuses"] - before["task_reuses"]
        total = after["tasks_total"] - before["tasks_total"]
        data["incremental"] = {
            "group": str(group),
            "reused_tasks": reused,
            "analyzed_tasks": total,
            "reuse_rate": reused / total if total else 0.0,
        }
    return data


@register_job_kind("wcet_scaling")
def _run_wcet_scaling(payload: "Dict[str, Any]") -> "Dict[str, Any]":
    """Sensitivity search: max uniform WCET inflation on one resource.

    Payload: ``scheduler`` (scheduler dict), ``tasks`` (TaskSpec dicts),
    ``deadlines``, optional ``precision``.
    """
    from ..analysis.sensitivity import DEFAULT_PRECISION, max_wcet_scaling

    scheduler = scheduler_from_dict(payload["scheduler"])
    tasks = [taskspec_from_dict(t) for t in payload["tasks"]]
    factor = max_wcet_scaling(
        scheduler, tasks, dict(payload["deadlines"]),
        precision=payload.get("precision", DEFAULT_PRECISION))
    return {"factor": factor}


@register_job_kind("task_slack")
def _run_task_slack(payload: "Dict[str, Any]") -> "Dict[str, Any]":
    """Sensitivity search: extra WCET one task can absorb.

    Payload: ``scheduler``, ``tasks``, ``task``, ``deadlines``,
    optional ``precision``.
    """
    from ..analysis.sensitivity import DEFAULT_PRECISION, task_wcet_slack

    scheduler = scheduler_from_dict(payload["scheduler"])
    tasks = [taskspec_from_dict(t) for t in payload["tasks"]]
    slack = task_wcet_slack(
        scheduler, tasks, payload["task"], dict(payload["deadlines"]),
        precision=payload.get("precision", DEFAULT_PRECISION))
    return {"slack": slack}


@register_job_kind("simulate")
def _run_simulate(payload: "Dict[str, Any]") -> "Dict[str, Any]":
    """Sim-vs-analysis validation of one serialised system.

    Analyses the system, simulates it under critical-instant arrivals
    for ``horizon`` time units, and reports both bounds per task plus a
    ``sound`` verdict (every observed response ≤ its analytic WCRT).
    """
    from ..sim.generators import worst_case_arrivals
    from ..sim.system_sim import simulate_system
    from ..system.propagation import analyze_system
    from ..timebase import EPS

    system = system_from_dict(payload["system"])
    horizon = float(payload["horizon"])
    analysis = analyze_system(system)
    arrivals = {name: worst_case_arrivals(src.model, horizon)
                for name, src in system.sources.items()}
    run = simulate_system(system, arrivals, horizon)

    observed = {}
    analytic = {}
    sound = True
    for task in run.responses.tasks():
        worst = run.responses.worst_case(task)
        bound = analysis.wcrt(task)
        observed[task] = worst
        if bound is not None:
            analytic[task] = bound
            sound = sound and worst <= bound + EPS
    return {
        "observed": observed,
        "analytic": analytic,
        "sound": sound,
        "iterations": analysis.iterations,
    }
