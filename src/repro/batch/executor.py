"""Execution backends and the batch runner.

Two interchangeable backends execute :class:`~repro.batch.jobs.Job`
lists:

* :class:`SerialBackend` — in-process, deterministic order; the
  debugging baseline and the zero-dependency fallback.
* :class:`ProcessPoolBackend` — a ``concurrent.futures``
  ``ProcessPoolExecutor`` fan-out.  Jobs carry serialised systems (plain
  dicts), so nothing but JSON-compatible data crosses the process
  boundary; workers rebuild the system and run the ordinary engine.

Both run each job through :func:`~repro.batch.jobs.run_job`, whose
one deadline the engine checks on every thread, so a job past its
``timeout`` ends ``timeout`` the same way on both; and both capture
failures as ``failed`` results instead of raising, so a sweep always
runs to completion.  Both pass every finished attempt through
:func:`finish_attempt`, so a job's metrics reach the process registry
one way, whichever backend ran it.

:class:`BatchRunner` ties a backend to a persistent
:class:`~repro.batch.store.ResultStore`: results stored as ``ok`` are
served from the cache (cross-run memoisation — this is what makes a
killed sweep resumable), everything else is (re-)executed and written
back immediately.  Counters, the cache hit rate, and a per-job latency
histogram are emitted through :mod:`repro.obs` when observability is
enabled.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .. import obs as _obs
from .._errors import ModelError
from ..obs.aggregate import effort_summary
from ..obs.bus import BUS as _BUS
from .jobs import (
    STATUS_FAILED,
    STATUS_POISONED,
    STATUS_TIMEOUT,
    Job,
    JobResult,
    run_job,
)
from .store import ResultStore

#: Signature of the per-result callback backends invoke as jobs finish.
OnResult = Callable[[JobResult], None]


def _publish_job(result: JobResult, cached: bool) -> None:
    """One ``job`` lifecycle event per unique point, cached or not.

    Only an executed point carries the engine effort it spent; a cached
    point's stored ``obs`` describes the run that first computed it."""
    event = {
        "type": "job", "key": result.key, "kind": result.kind,
        "label": result.label, "status": result.status,
        "cached": cached, "duration": result.duration,
        "attempts": result.attempts,
    }
    if result.error:
        event["error"] = result.error
    if result.obs and not cached:
        event["obs"] = effort_summary(result.obs)
    _BUS.publish(event)


def served_from_store(stored: Optional[JobResult],
                      retry_poisoned: bool = False) -> bool:
    """Whether a job's *stored* result answers it instead of a run: an
    ``ok`` result always, a ``poisoned`` one (a known mine) unless
    *retry_poisoned*.  The runner and the serve daemon's admission both
    decide here, and count what they serve with
    :func:`count_stored_answers`."""
    return stored is not None and (
        stored.ok or (stored.status == STATUS_POISONED
                      and not retry_poisoned))


def count_stored_answers(results: Sequence[JobResult]) -> None:
    """Count *results*, served from the store, in ``batch.cache.hits``
    and publish each one's cached ``job`` event."""
    if not _obs.enabled:
        return
    _obs.metrics().counter("batch.cache.hits").inc(len(results))
    if _BUS.wants("job"):
        for result in results:
            _publish_job(result, cached=True)


def finish_attempt(result: JobResult) -> JobResult:
    """The one step every finished attempt takes, on every backend:
    fold the attempt's ``obs`` into the process registry (its spans as
    ``batch.worker.spans``) unless it timed out, and re-publish shipped
    span records under a ``worker`` tag (their own Chrome/Perfetto
    lane)."""
    if not result.obs:
        return result
    span_records = result.obs.pop("span_records", ())
    if result.status != STATUS_TIMEOUT:
        registry = _obs.metrics()
        registry.merge_delta(result.obs["metrics"])
        if result.obs["spans"]:
            registry.counter("batch.worker.spans").inc(result.obs["spans"])
    worker = str(result.obs["pid"])
    for record in span_records:
        record["worker"] = worker
        _BUS.publish(record)
    return result


class SerialBackend:
    """Run jobs one after another in the calling process, each finished
    attempt through :func:`finish_attempt`."""

    name = "serial"
    workers = 1

    def run(self, jobs: Sequence[Job], on_result: OnResult) -> None:
        for job in jobs:
            on_result(finish_attempt(run_job(job)))


class ProcessPoolBackend:
    """Fan jobs out across worker processes; each result carries its
    job's metrics back, and :func:`finish_attempt` folds them here.

    Parameters
    ----------
    workers:
        Pool size (must be >= 1).
    mp_context:
        Optional :mod:`multiprocessing` context.  The platform default
        (``fork`` on Linux) keeps worker start-up cheap; pass a
        ``spawn`` context for stricter isolation.
    """

    name = "process"

    def __init__(self, workers: int, mp_context=None):
        if workers < 1:
            raise ModelError(f"need at least one worker, got {workers}")
        self.workers = workers
        self._mp_context = mp_context

    def run(self, jobs: Sequence[Job], on_result: OnResult) -> None:
        if not jobs:
            return
        from concurrent.futures import ProcessPoolExecutor, as_completed

        # Workers ship their span records only when some sink here will
        # take them; a forked worker drops the sinks it inherited, so
        # each record reaches them once, re-published by the parent.
        ship = _obs.enabled and _BUS.wants("span")
        with ProcessPoolExecutor(max_workers=self.workers,
                                 mp_context=self._mp_context,
                                 initializer=_drop_inherited_sinks) as pool:
            futures = {pool.submit(run_job, job, ship): job
                       for job in jobs}
            for future in as_completed(futures):
                job = futures[future]
                try:
                    result = future.result()
                except Exception as exc:
                    # Worker death (BrokenProcessPool) or a payload that
                    # failed to cross the boundary: record, keep going.
                    result = JobResult(
                        job.key, job.kind, job.label, STATUS_FAILED,
                        error=f"{type(exc).__name__}: {exc}",
                        traceback=traceback.format_exc())
                on_result(finish_attempt(result))


def _drop_inherited_sinks() -> None:
    """Pool initializer: a forked worker's copies of the parent's sinks
    must not see its events."""
    _BUS.clear()


def make_backend(workers: int = 0, mp_context=None):
    """``workers <= 0`` → :class:`SerialBackend`; otherwise a pool."""
    if workers <= 0:
        return SerialBackend()
    return ProcessPoolBackend(workers, mp_context=mp_context)


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
@dataclass
class BatchReport:
    """Aggregate outcome of one :meth:`BatchRunner.run` call."""

    results: Dict[str, JobResult] = field(default_factory=dict)
    order: List[str] = field(default_factory=list)
    cached: List[str] = field(default_factory=list)
    executed: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    poisoned: List[str] = field(default_factory=list)
    wall: float = 0.0

    def __getitem__(self, key: str) -> JobResult:
        return self.results[key]

    def result_for(self, job: Job) -> Optional[JobResult]:
        return self.results.get(job.key)

    @property
    def total(self) -> int:
        return len(self.order)

    @property
    def cache_hit_rate(self) -> float:
        return len(self.cached) / self.total if self.total else 0.0

    @property
    def ok(self) -> bool:
        return not self.failed

    def summary(self) -> str:
        text = (f"{self.total} jobs: {len(self.cached)} cached, "
                f"{len(self.executed)} executed, {len(self.failed)} "
                f"failed")
        if self.poisoned:
            text += f" ({len(self.poisoned)} poisoned)"
        return (f"{text} ({self.cache_hit_rate:.0%} cache hit rate, "
                f"{self.wall:.2f}s)")


class BatchRunner:
    """Memoising batch executor: store in front, backend behind.

    ``run`` deduplicates jobs by content key, serves keys whose stored
    status is ``ok`` from the cache, executes the rest through the
    backend, and checkpoints every finished result into the store
    before moving on.  Failed or timed-out points are recorded but stay
    retryable: a subsequent run (the *resume* path) re-executes exactly
    the failed/missing keys.

    With a :class:`~repro.resilience.retry.RetryPolicy` attached, the
    runner distinguishes *transient* failures (worker crashes, broken
    pools, timeouts — retried in backoff rounds up to the attempt
    budget) from *deterministic* ones (engine errors that would repeat
    identically — poisoned on first sight).  Poisoned results land in
    the store with their full attempt history and are served from cache
    on later runs (pass ``retry_poisoned=True`` to re-execute them).
    """

    def __init__(self, store: Optional[ResultStore] = None,
                 backend=None, retry=None, retry_poisoned: bool = False):
        self.store = store
        self.backend = backend or SerialBackend()
        self.retry = retry
        self.retry_poisoned = retry_poisoned

    def run(self, jobs: Sequence[Job],
            progress: Optional[OnResult] = None) -> BatchReport:
        unique: "Dict[str, Job]" = {}
        for job in jobs:
            unique.setdefault(job.key, job)

        report = BatchReport(order=list(unique))
        to_run: "List[Job]" = []
        for key, job in unique.items():
            cached = self.store.get(key) if self.store is not None else None
            if served_from_store(cached, self.retry_poisoned):
                report.results[key] = cached
                report.cached.append(key)
                if not cached.ok:
                    report.failed.append(key)
                    report.poisoned.append(key)
            else:
                to_run.append(job)

        if _obs.enabled:
            registry = _obs.metrics()
            registry.counter("batch.cache.misses").inc(len(to_run))
            registry.counter("batch.jobs.submitted").inc(len(to_run))
            registry.gauge("batch.workers").set(
                getattr(self.backend, "workers", 1))
            if _BUS.wants("sweep"):
                _BUS.publish({
                    "type": "sweep", "phase": "start",
                    "total": len(unique), "cached": len(report.cached),
                    "to_run": len(to_run),
                    "workers": getattr(self.backend, "workers", 1),
                    "backend": getattr(self.backend, "name", "?"),
                })
        count_stored_answers([report.results[key] for key in report.cached])

        attempts: "Dict[str, int]" = {}
        histories: "Dict[str, List[dict]]" = {}
        retry_queue: "List[Job]" = []

        def record(result: JobResult) -> None:
            if self.store is not None:
                self.store.put(result)
            report.results[result.key] = result
            report.executed.append(result.key)
            if not result.ok:
                report.failed.append(result.key)
                if result.status == STATUS_POISONED:
                    report.poisoned.append(result.key)
            if _obs.enabled:
                registry = _obs.metrics()
                if result.ok:
                    registry.counter("batch.jobs.completed").inc()
                elif result.status == STATUS_TIMEOUT:
                    registry.counter("batch.jobs.timeout").inc()
                    registry.counter("batch.jobs.failed").inc()
                else:
                    registry.counter("batch.jobs.failed").inc()
                if result.status == STATUS_POISONED:
                    registry.counter("batch.poisoned").inc()
                registry.histogram("batch.job_seconds").observe(
                    result.duration)
                if _BUS.wants("job"):
                    _publish_job(result, cached=False)
            if progress is not None:
                progress(result)

        def on_result(result: JobResult) -> None:
            key = result.key
            attempts[key] = attempts.get(key, 0) + 1
            result.attempts = attempts[key]
            result.history = list(histories.get(key, ()))
            if self.retry is None or result.ok:
                record(result)
                return
            if self.retry.retryable(result, attempts[key]):
                # Transient failure with budget left: queue for the
                # next backoff round; nothing recorded yet.
                histories.setdefault(key, []).append({
                    "attempt": attempts[key],
                    "status": result.status,
                    "error": result.error,
                })
                retry_queue.append(unique[key])
                if _obs.enabled:
                    _obs.metrics().counter("batch.retries").inc()
                    if _BUS.wants("job_retry"):
                        _BUS.publish({
                            "type": "job_retry", "key": key,
                            "label": result.label,
                            "attempt": attempts[key],
                            "status": result.status,
                            "error": result.error,
                        })
                return
            # Deterministic failure, or a transient one that exhausted
            # its attempts: quarantine as poisoned.
            record(JobResult(
                key, result.kind, result.label, STATUS_POISONED,
                error=result.error, traceback=result.traceback,
                duration=result.duration, attempts=attempts[key],
                history=list(histories.get(key, ())),
                request_id=result.request_id))

        t0 = time.perf_counter()
        try:
            pending = to_run
            while pending:
                retry_queue.clear()
                self.backend.run(pending, on_result)
                pending = list(retry_queue)
                if pending:
                    # attempts[key] failures so far → this is retry
                    # number attempts[key]; one sleep covers the round.
                    delay = max(
                        self.retry.delay(attempts[job.key], job.key)
                        for job in pending)
                    self.retry.sleep(delay)
        finally:
            report.wall = time.perf_counter() - t0
            if self.store is not None:
                self.store.close()
            if _obs.enabled and _BUS.wants("sweep"):
                _BUS.publish({
                    "type": "sweep", "phase": "end",
                    "total": report.total, "wall": report.wall,
                    "cached": len(report.cached),
                    "executed": len(report.executed),
                    "failed": len(report.failed),
                    "poisoned": len(report.poisoned),
                })
        return report
