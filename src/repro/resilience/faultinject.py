"""Seeded fault-injection harness.

Deterministic perturbations of a :class:`~repro.system.model.System`
that model real failure modes while staying *monotone conservative*:
every fault only ever adds load, jitter, or error overhead, so for any
two plans ``A ⊆ B`` (B contains every fault of A) every analysed WCRT
under B is at least the WCRT under A.  The metamorphic suite
(:func:`check_monotone_conservativeness`) asserts exactly that property
— it is the paper-level soundness invariant the analysis must keep
under degradation.

Fault kinds
-----------
``wcet_inflation``
    Multiply a task's ``c_max`` by ``1 + magnitude`` (``c_min``
    untouched).  Models pessimistic execution paths, cache misses,
    DVFS throttling.
``jitter_inflation``
    Add ``magnitude * period`` of jitter to a source's standard event
    model.  Models upstream scheduling noise and clock drift.
``frame_drop``
    Inflate the transmission time of every task on a bus resource by a
    retransmission factor ``1 + ceil(magnitude)``: each frame may be
    corrupted and resent up to ``ceil(magnitude)`` times.  (A dropped
    CAN frame is retransmitted by the controller, so the worst-case
    *timing* effect of loss is extra transmissions, never fewer.)
``can_error_burst``
    Attach (or intensify) a
    :class:`~repro.analysis.spnp.CanErrorModel` on an SPNP bus:
    ``magnitude`` error frames strike at the critical instant, each
    costing an error flag plus the retransmission of the largest frame.

Determinism: applying a plan involves *no* randomness — a
:class:`Fault` is fully determined by ``(kind, target, magnitude)``.
The ``seed`` lives in :meth:`FaultPlan.sample`, which draws random
plans reproducibly; two runs with the same seed build identical plans,
and plans are value objects you can log, diff, and replay.

Chaos hooks for the batch pool live here too:
:class:`ChaosBackend` wraps any executor backend and injects seeded
worker crashes, and the ``chaos_probe`` job kind
fails deterministically for its first N executions — together they
drive the retry/poisoning machinery of
:class:`~repro.batch.executor.BatchRunner` in tests and in the CI
chaos-smoke job.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .._errors import ModelError
from ..analysis.spnp import CanErrorModel, SPNPScheduler
from ..eventmodels.standard import StandardEventModel
from ..obs.context import wait
from ..system.model import Junction, Resource, Source, System, Task

FAULT_KINDS = ("wcet_inflation", "jitter_inflation", "frame_drop",
               "can_error_burst")

#: Error-frame cost factor: a CAN error frame is at most 31 bit times
#: and the smallest data frame is 47, so one error costs at most
#: ``31/47`` of any frame's transmission time on top of the
#: retransmission itself.
_ERROR_FRAME_FACTOR = 1.0 + 31.0 / 47.0


# ----------------------------------------------------------------------
# structural system clone
# ----------------------------------------------------------------------
def clone_system(system: System) -> System:
    """Deep-enough structural copy of a system graph.

    Tasks, junctions, and resources are copied (they are mutated or
    replaced by fault application); event models are shared (immutable
    value objects).  Deliberately *not* a serialise/deserialise round
    trip: serialisation freezes derived models to sampled curves and
    must stay lossless-optional, while the clone must preserve the
    exact objects the strict analysis would see.
    """
    cloned = System(system.name)
    for name, src in system.sources.items():
        cloned.sources[name] = Source(name, src.model)
    for name, res in system.resources.items():
        cloned.resources[name] = Resource(name, res.scheduler)
    for name, task in system.tasks.items():
        cloned.tasks[name] = replace(task, inputs=list(task.inputs))
    for name, junction in system.junctions.items():
        cloned.junctions[name] = replace(
            junction, inputs=list(junction.inputs),
            properties=dict(junction.properties))
    return cloned


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fault:
    """One deterministic perturbation: ``(kind, target, magnitude)``.

    ``target`` names the node the fault applies to (task for
    ``wcet_inflation``, source for ``jitter_inflation``, resource for
    ``frame_drop``/``can_error_burst``); ``None`` applies the fault to
    every eligible node.
    """

    kind: str
    target: Optional[str] = None
    magnitude: float = 1.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ModelError(
                f"unknown fault kind {self.kind!r} "
                f"(known: {', '.join(FAULT_KINDS)})")
        if self.magnitude < 0:
            raise ModelError(
                f"fault magnitude must be >= 0, got {self.magnitude}")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, replayable collection of faults."""

    faults: Tuple[Fault, ...] = ()
    seed: int = 0

    def __len__(self) -> int:
        return len(self.faults)

    def extend(self, *faults: Fault) -> "FaultPlan":
        """Superset plan — the metamorphic suite compares a plan
        against its extensions."""
        return FaultPlan(self.faults + tuple(faults), seed=self.seed)

    def describe(self) -> str:
        if not self.faults:
            return "fault plan: (empty)"
        lines = [f"fault plan (seed {self.seed}):"]
        for f in self.faults:
            lines.append(f"  {f.kind} target={f.target or '*'} "
                         f"magnitude={f.magnitude:g}")
        return "\n".join(lines)

    def to_dict(self) -> "Dict[str, object]":
        """JSON-compatible value: plans are loggable and replayable
        (soak triage bundles and fault-drill reports carry them
        verbatim)."""
        return {
            "seed": self.seed,
            "faults": [{"kind": f.kind, "target": f.target,
                        "magnitude": f.magnitude}
                       for f in self.faults],
        }

    @classmethod
    def from_dict(cls, data: "Dict[str, object]") -> "FaultPlan":
        return cls(
            faults=tuple(Fault(kind=f["kind"], target=f.get("target"),
                               magnitude=f.get("magnitude", 1.0))
                         for f in data.get("faults", [])),
            seed=int(data.get("seed", 0)))

    @classmethod
    def sample(cls, system: System, seed: int,
               n_faults: int = 3,
               kinds: Sequence[str] = FAULT_KINDS,
               max_magnitude: float = 0.5) -> "FaultPlan":
        """Draw a random plan reproducibly from *seed*.

        Randomness is confined to plan construction; applying the
        resulting plan is fully deterministic.
        """
        rng = random.Random(seed)
        faults = []
        for _ in range(n_faults):
            kind = rng.choice(list(kinds))
            if kind == "wcet_inflation":
                pool = sorted(system.tasks)
            elif kind == "jitter_inflation":
                pool = sorted(
                    name for name, src in system.sources.items()
                    if isinstance(src.model, StandardEventModel))
            elif kind == "can_error_burst":
                pool = sorted(
                    name for name, res in system.resources.items()
                    if isinstance(res.scheduler, SPNPScheduler))
            else:
                pool = sorted(system.resources)
            if not pool:
                continue
            target = rng.choice(pool)
            if kind == "can_error_burst":
                magnitude = float(rng.randint(1, 3))
            else:
                magnitude = rng.uniform(0.05, max_magnitude)
            faults.append(Fault(kind, target, magnitude))
        return cls(tuple(faults), seed=seed)


# ----------------------------------------------------------------------
# fault application
# ----------------------------------------------------------------------
def inject_faults(system: System, plan: FaultPlan) -> System:
    """Return a perturbed clone of *system*; the original is untouched."""
    injected = clone_system(system)
    for fault in plan.faults:
        _apply(injected, fault)
    return injected


def _apply(system: System, fault: Fault) -> None:
    if fault.kind == "wcet_inflation":
        for task in _target_tasks(system, fault.target):
            task.c_max = task.c_max * (1.0 + fault.magnitude)
    elif fault.kind == "jitter_inflation":
        for name in _target_sources(system, fault.target):
            model = system.sources[name].model
            extra = fault.magnitude * model.period
            system.sources[name] = Source(
                name, model.with_jitter(model.jitter + extra))
    elif fault.kind == "frame_drop":
        retransmissions = max(1, math.ceil(fault.magnitude))
        for task in _resource_tasks(system, fault.target):
            task.c_max = task.c_max * (1.0 + retransmissions)
    elif fault.kind == "can_error_burst":
        for name in _target_spnp_resources(system, fault.target):
            resource = system.resources[name]
            scheduler = resource.scheduler
            c_worst = max(
                (t.c_max for t in system.tasks_on(name)), default=0.0)
            recovery = c_worst * _ERROR_FRAME_FACTOR
            previous = scheduler.error_model
            if previous is not None:
                model = CanErrorModel(
                    previous.burst_errors + int(fault.magnitude),
                    previous.error_rate,
                    max(previous.recovery_time, recovery))
            else:
                model = CanErrorModel(int(fault.magnitude), 0.0,
                                      recovery)
            system.resources[name] = Resource(name, SPNPScheduler(
                scheduler.utilization_limit, scheduler.arbitration_eps,
                error_model=model))


def _target_tasks(system: System, target: Optional[str]) -> List[Task]:
    if target is None:
        return list(system.tasks.values())
    if target not in system.tasks:
        raise ModelError(f"fault target task {target!r} not in system",
                         context={"task": target})
    return [system.tasks[target]]


def _target_sources(system: System,
                    target: Optional[str]) -> List[str]:
    if target is None:
        return [name for name, src in system.sources.items()
                if isinstance(src.model, StandardEventModel)]
    if target not in system.sources:
        raise ModelError(
            f"fault target source {target!r} not in system",
            context={"source": target})
    if not isinstance(system.sources[target].model, StandardEventModel):
        raise ModelError(
            f"jitter_inflation needs a standard event model on "
            f"{target!r}", context={"source": target})
    return [target]


def _resource_tasks(system: System,
                    target: Optional[str]) -> List[Task]:
    if target is None:
        return list(system.tasks.values())
    if target not in system.resources:
        raise ModelError(
            f"fault target resource {target!r} not in system",
            context={"resource": target})
    return system.tasks_on(target)


def _target_spnp_resources(system: System,
                           target: Optional[str]) -> List[str]:
    if target is None:
        return [name for name, res in system.resources.items()
                if isinstance(res.scheduler, SPNPScheduler)]
    if target not in system.resources:
        raise ModelError(
            f"fault target resource {target!r} not in system",
            context={"resource": target})
    if not isinstance(system.resources[target].scheduler,
                      SPNPScheduler):
        raise ModelError(
            f"can_error_burst needs an SPNP resource, {target!r} is "
            f"{system.resources[target].scheduler.policy}",
            context={"resource": target})
    return [target]


# ----------------------------------------------------------------------
# metamorphic conservativeness check
# ----------------------------------------------------------------------
def check_monotone_conservativeness(
        system: System, plans: Sequence[FaultPlan],
        max_iterations: int = 64) -> List[dict]:
    """Assert the monotone-conservativeness invariant over a fault
    ladder.

    ``plans`` must be ordered by inclusion (each plan a superset of the
    previous; start with ``FaultPlan()`` for the fault-free baseline).
    Every system is analysed in degraded mode; for each consecutive
    pair, every task that is *cleanly analysed in both* (not
    quarantined in either) must have a non-decreasing WCRT.  Returns a
    list of violation records — empty means the invariant held.
    """
    from ..system.propagation import analyze_system
    from ..timebase import EPS

    outcomes = []
    for plan in plans:
        injected = inject_faults(system, plan)
        outcomes.append(
            analyze_system(injected, max_iterations=max_iterations,
                           on_failure="degrade"))

    violations = []
    for i in range(1, len(outcomes)):
        before, after = outcomes[i - 1], outcomes[i]
        for task_name in system.tasks:
            b = before.result.task_result(task_name)
            a = after.result.task_result(task_name)
            if b is None or a is None:
                continue
            if b.degraded or a.degraded:
                continue  # quarantined/frozen bounds are not comparable
            if a.r_max < b.r_max - EPS:
                violations.append({
                    "task": task_name,
                    "plan_index": i,
                    "wcrt_before": b.r_max,
                    "wcrt_after": a.r_max,
                    "added_faults": [
                        f"{f.kind}:{f.target}:{f.magnitude:g}"
                        for f in plans[i].faults[len(plans[i - 1]):]],
                })
    return violations


# ----------------------------------------------------------------------
# batch-pool chaos hooks
# ----------------------------------------------------------------------
class ChaosBackend:
    """Wrap an executor backend with seeded worker chaos.

    With probability ``crash_rate`` a job's execution is replaced by a
    fabricated transient worker-crash failure (the job function never
    runs).  Draws are deterministic in ``(seed, job key, occurrence)``:
    the first execution of a job may crash while its retry succeeds,
    and the whole schedule replays identically for the same seed.  A
    slow attempt is what ``chaos_probe``'s ``hang_seconds`` is for.
    """

    name = "chaos"

    def __init__(self, inner, seed: int = 0, crash_rate: float = 0.0):
        self.inner = inner
        self.seed = seed
        self.crash_rate = crash_rate
        self._seen: Dict[str, int] = {}

    @property
    def workers(self) -> int:
        return getattr(self.inner, "workers", 1)

    def _draw(self, key: str) -> random.Random:
        occurrence = self._seen.get(key, 0)
        self._seen[key] = occurrence + 1
        return random.Random(f"{self.seed}:{key}:{occurrence}")

    def run(self, jobs, on_result) -> None:
        from ..batch.jobs import STATUS_FAILED, JobResult

        survivors = []
        for job in jobs:
            if self._draw(job.key).random() < self.crash_rate:
                on_result(JobResult(
                    job.key, job.kind, job.label, STATUS_FAILED,
                    error="ChaosWorkerCrash: injected worker crash "
                          f"(seed {self.seed})"))
                continue
            survivors.append(job)
        self.inner.run(survivors, on_result)


def register_chaos_job_kinds() -> None:
    """Register the ``chaos_probe`` job kind (idempotent).

    ``chaos_probe`` fails its first ``fail_times`` executions and
    succeeds afterwards, tracking attempts in a file under
    ``state_dir`` so the count survives process boundaries (pool
    workers).  ``error`` selects the failure flavour: ``"transient"``
    raises a plain ``RuntimeError`` (retryable), ``"model"`` raises
    :class:`~repro._errors.ModelError` (deterministic — poisoned on
    first sight).  ``hang_seconds`` waits that long, deadline-aware
    (:func:`repro.obs.context.wait`), to make an attempt slow.
    """
    from ..batch.jobs import _JOB_KINDS, register_job_kind

    if "chaos_probe" in _JOB_KINDS:
        return

    @register_job_kind("chaos_probe")
    def _run_chaos_probe(payload: dict) -> dict:
        import os

        state_dir = payload["state_dir"]
        probe_id = payload.get("probe_id", "probe")
        marker = os.path.join(state_dir, f"chaos-{probe_id}.count")
        try:
            with open(marker) as fh:
                attempts = int(fh.read().strip() or 0)
        except FileNotFoundError:
            attempts = 0
        attempts += 1
        with open(marker, "w") as fh:
            fh.write(str(attempts))

        if payload.get("hang_seconds"):
            wait(float(payload["hang_seconds"]))
        if attempts <= int(payload.get("fail_times", 0)):
            if payload.get("error", "transient") == "model":
                raise ModelError(
                    f"injected deterministic failure "
                    f"(attempt {attempts})",
                    context={"probe": probe_id, "attempt": attempts})
            raise RuntimeError(
                f"injected transient crash (attempt {attempts})")
        return {"attempts_needed": attempts}
