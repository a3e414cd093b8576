"""Fingerprint-keyed memoisation of local analyses.

The incremental re-analysis machinery rests on one observation: a local
scheduling analysis is a **pure function** of (scheduler parameters,
ordered task-spec list).  Two spec lists with equal *structural
fingerprints* — name, execution times, priority/slot/deadline/blocking,
plus the structural fingerprint of the activating event model
(:func:`repro.eventmodels.compile.fingerprint`) — produce bit-identical
:class:`~repro.analysis.results.ResourceResult`\\ s, so re-running the
solver is wasted work.  That equality argument is exact, not heuristic:
fingerprints are structural identities of the model graph, and any model
the fingerprint registry cannot canonicalise poisons the key to ``None``
(memoisation then simply disables itself — never a wrong reuse).

Two reuse granularities layer on top:

* **whole-resource** — :class:`LocalAnalysisMemo` keeps a small LRU of
  ``resource_fingerprint -> ResourceResult``; an identical re-analysis
  request (the common case in converged propagation iterations and
  adjacent sweep points) returns the stored result outright;
* **per-task** — when the resource changed, each scheduler's
  :meth:`~repro.analysis.interface.Scheduler.influence_fingerprint`
  narrows what a single task's result depends on (SPP: same-or-higher
  priorities; TDMA: own spec + cycle length; default: everything).
  Tasks whose influence cone is untouched get their previous
  ``TaskResult`` passed back to ``analyze(..., reuse=...)``, which skips
  their q-loops while still running set-wide validity checks.
"""

from __future__ import annotations

import inspect
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Sequence, Tuple

from ..eventmodels import compile as _compile
from .interface import Scheduler, TaskSpec
from .results import ResourceResult


def _freeze(obj: Any) -> Any:
    """Recursively convert JSON-ish data into a hashable key."""
    if isinstance(obj, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(_freeze(v) for v in obj)
    if isinstance(obj, set):
        return tuple(sorted(_freeze(v) for v in obj))
    return obj


def scheduler_key(scheduler: Scheduler) -> Optional[Tuple]:
    """Canonical key of a scheduler's analysis-relevant parameters.

    Built on the hash-stable serialisation; ``arbitration_eps`` is added
    explicitly because the wire format keeps it implicit.  Schedulers
    without a serialisation (custom subclasses) return ``None`` —
    memoisation disables itself for them.
    """
    try:
        from ..system.serialize import scheduler_to_dict
        data = scheduler_to_dict(scheduler)
    except Exception:
        return None
    return ("sched", type(scheduler).__name__, _freeze(data),
            getattr(scheduler, "arbitration_eps", None))


def spec_fingerprint(spec: TaskSpec) -> Optional[Tuple]:
    """Structural fingerprint of one task spec, or ``None`` when its
    event model cannot be fingerprinted (which disables reuse)."""
    mfp = _compile.fingerprint(spec.event_model)
    if mfp is None:
        return None
    return ("spec", spec.name, spec.c_min, spec.c_max, spec.priority,
            spec.slot, spec.deadline, spec.blocking, mfp)


def resource_fingerprint(scheduler: Scheduler,
                         specs: Sequence[TaskSpec]) -> Optional[Tuple]:
    """Fingerprint of a whole local-analysis input (order-sensitive:
    spec order affects float accumulation order, hence exact results)."""
    sk = scheduler_key(scheduler)
    if sk is None:
        return None
    parts = [sk]
    for s in specs:
        fp = spec_fingerprint(s)
        if fp is None:
            return None
        parts.append(fp)
    return tuple(parts)


def _accepts_reuse(scheduler: Scheduler) -> bool:
    try:
        return "reuse" in inspect.signature(
            type(scheduler).analyze).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False


class LocalAnalysisMemo:
    """Cross-run memo for one resource's local analyses.

    Sound by construction: a whole-resource hit requires full
    fingerprint equality; a per-task reuse requires influence-cone
    fingerprint equality against the *immediately previous* successful
    run.  Failed analyses never update the memo.
    """

    def __init__(self, max_entries: int = 64):
        self.max_entries = max_entries
        self._full: "OrderedDict[Tuple, ResourceResult]" = OrderedDict()
        self._last_influence: Dict[str, Tuple] = {}
        self._last_result: Optional[ResourceResult] = None
        self.resource_hits = 0
        self.task_reuses = 0
        self.tasks_total = 0
        self.analyses = 0

    def analyze(self, scheduler: Scheduler, specs: Sequence[TaskSpec],
                resource_name: str,
                ) -> Tuple[ResourceResult, Dict[str, int]]:
        """Run (or reuse) the local analysis; returns ``(result, info)``
        with ``info = {"reused_tasks": n, "computed_tasks": m,
        "resource_hit": 0|1, "activations": a}``, *a* the activations
        the computed tasks' busy windows examined (Σ ``q_max``)."""
        self.analyses += 1
        self.tasks_total += len(specs)
        fp = resource_fingerprint(scheduler, specs)
        if fp is not None and fp in self._full:
            self._full.move_to_end(fp)
            self.resource_hits += 1
            result = self._full[fp]
            self.task_reuses += len(result.task_results)
            return result, {"reused_tasks": len(result.task_results),
                            "computed_tasks": 0, "resource_hit": 1,
                            "activations": 0}
        reuse: Dict[str, Any] = {}
        influence: Dict[str, Tuple] = {}
        if fp is not None:
            prev = self._last_result
            for s in specs:
                ifp = scheduler.influence_fingerprint(s, specs)
                if ifp is None:
                    continue
                influence[s.name] = ifp
                if prev is not None \
                        and self._last_influence.get(s.name) == ifp:
                    tr = prev.task_results.get(s.name)
                    if tr is not None and not tr.degraded:
                        reuse[s.name] = tr
        if reuse and _accepts_reuse(scheduler):
            result = scheduler.analyze(specs, resource_name, reuse=reuse)
        else:
            reuse = {}
            result = scheduler.analyze(specs, resource_name)
        # Only a *successful* analysis becomes the reuse baseline.
        self._last_influence = influence
        self._last_result = result
        if fp is not None:
            self._full[fp] = result
            while len(self._full) > self.max_entries:
                self._full.popitem(last=False)
        self.task_reuses += len(reuse)
        return result, {"reused_tasks": len(reuse),
                        "computed_tasks": len(specs) - len(reuse),
                        "resource_hit": 0,
                        "activations": sum(
                            tr.q_max for name, tr
                            in result.task_results.items()
                            if name not in reuse)}

    def stats(self) -> Dict[str, int]:
        return {"analyses": self.analyses,
                "resource_hits": self.resource_hits,
                "task_reuses": self.task_reuses,
                "tasks_total": self.tasks_total,
                "entries": len(self._full)}


class AnalysisMemo:
    """Cross-run dirty-set memo for the *global* compositional analysis.

    Holds one :class:`LocalAnalysisMemo` per resource.  When
    :func:`repro.system.propagation.analyze_system` runs with a memo, it
    routes every local analysis through the resource's memo — nothing
    else changes.  The global iteration therefore follows exactly the
    same trajectory as a from-scratch run (same seeds, same per-
    iteration inputs, same convergence checks), and every reused result
    is backed by fingerprint equality, so an incremental run is
    **bit-identical** to a cold one — including the ``iterations``
    count.

    What is deliberately *not* done: seeding the global iterate
    (responses or port models) from a previous run's converged state.
    The busy-window workloads shrink when a sweep edit reduces
    interference, and a fixed-point iteration started above the new
    least fixed point may converge onto a higher one — silently
    pessimistic results.  Memoising local analyses sidesteps the hazard
    entirely: the previous run seeds the *caches*, never the iterate.

    Thread safety: a memo serves one analysis run at a time.  Callers
    take :meth:`acquire` (non-blocking); when it fails — another thread
    is mid-run on the same group — the analysis simply runs without the
    memo, trading reuse for correctness-by-isolation.
    """

    def __init__(self, max_entries_per_resource: int = 64):
        self.max_entries_per_resource = max_entries_per_resource
        self._resources: Dict[str, LocalAnalysisMemo] = {}
        self._lock = threading.Lock()
        self.runs = 0

    def acquire(self) -> bool:
        """Non-blocking claim for one analysis run."""
        return self._lock.acquire(blocking=False)

    def release(self) -> None:
        self._lock.release()

    def resource_memo(self, name: str) -> LocalAnalysisMemo:
        memo = self._resources.get(name)
        if memo is None:
            memo = LocalAnalysisMemo(self.max_entries_per_resource)
            self._resources[name] = memo
        return memo

    def stats(self) -> Dict[str, Any]:
        """Aggregate reuse statistics across all resources."""
        totals = {"runs": self.runs, "resources": len(self._resources),
                  "analyses": 0, "resource_hits": 0, "task_reuses": 0,
                  "tasks_total": 0}
        for memo in self._resources.values():
            s = memo.stats()
            totals["analyses"] += s["analyses"]
            totals["resource_hits"] += s["resource_hits"]
            totals["task_reuses"] += s["task_reuses"]
            totals["tasks_total"] += s["tasks_total"]
        totals["reuse_rate"] = (
            totals["task_reuses"] / totals["tasks_total"]
            if totals["tasks_total"] else 0.0)
        return totals


# ----------------------------------------------------------------------
# named memo pool (incremental batch sweeps / serve)
# ----------------------------------------------------------------------
_MEMO_POOL: "Dict[str, AnalysisMemo]" = {}
_POOL_LOCK = threading.Lock()


def memo_for(group: str) -> AnalysisMemo:
    """The process-wide :class:`AnalysisMemo` for *group*.

    Batch sweeps and the serve daemon key memos by a group name (e.g.
    the design-space name) so adjacent jobs of one sweep share reuse
    state.  Pool workers each hold their own pool — reuse then happens
    within a worker, which is exactly as sound and nearly as effective
    for sorted sweeps.
    """
    with _POOL_LOCK:
        memo = _MEMO_POOL.get(group)
        if memo is None:
            memo = AnalysisMemo()
            _MEMO_POOL[group] = memo
        return memo


def memo_pool_stats() -> "Dict[str, Dict[str, Any]]":
    """Snapshot of every named memo's aggregate statistics."""
    with _POOL_LOCK:
        groups = dict(_MEMO_POOL)
    return {name: memo.stats() for name, memo in groups.items()}


__all__ = [
    "AnalysisMemo",
    "LocalAnalysisMemo",
    "memo_for",
    "memo_pool_stats",
    "resource_fingerprint",
    "scheduler_key",
    "spec_fingerprint",
]
