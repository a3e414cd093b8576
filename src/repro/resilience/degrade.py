"""Graceful degradation: the ``degrade`` failure policy of the global loop.

Strict compositional analysis is all-or-nothing: one overloaded bus and
:func:`~repro.system.propagation.analyze_system` raises, discarding every
bound it had already computed for the healthy 95 % of the system.  With
``analyze_system(..., on_failure="degrade")`` the same fixed-point
loop (:func:`~repro.system.propagation._global_fixed_point`) runs under
the failure policy defined here, which keeps going instead:

1. A resource whose local analysis fails is **quarantined**: it is
   excluded from further iterations and its health is recorded
   (``overloaded`` for :class:`~repro._errors.NotSchedulableError`,
   ``quarantined`` for model/cascade failures, ``diverged`` when the
   :class:`~repro.resilience.guards.DivergenceGuard` aborted it).
2. Every output port of a quarantined resource is replaced by a
   **guaranteed-conservative widened event model**, and the substitution
   is recorded as a :class:`ConservativenessCertificate`:

   * *Overload / cascade widening* — the sporadic envelope
     ``sporadic(c_min)``.  Completions of a single task are serialised
     by its own execution, so any feasible output stream satisfies
     δ⁻(2) >= c_min; by δ⁻ superadditivity (δ⁻(n) >= (n-1)·δ⁻(2)) the
     sporadic model with period ``c_min`` lower-bounds every feasible
     distance function and therefore upper-bounds η⁺ — conservative for
     every downstream consumer.  When ``c_min == 0`` no serialisation
     bound exists and the :class:`UnboundedEnvelope` (δ⁻ ≡ 0) is
     installed; consumers then fail with
     :class:`~repro._errors.UnboundedStreamError`, deliberately
     cascading the quarantine downstream rather than certifying an
     unsound bound.
   * *Divergence widening* — the response interval is frozen to the
     min/max observed across the iteration history and the output model
     becomes Θ_τ(activation, frozen interval).  This over-approximates
     every response the iteration actually visited; for a limit cycle
     the observed range brackets the cycle, which is exactly the case
     the oscillation guard detects.  (For monotone growth the observed
     range is *not* a bound on the true supremum — the certificate says
     so — but it is the tightest statement the run supports, and the
     resource is flagged ``diverged`` so no one mistakes it for a clean
     bound.)

3. The remaining healthy resources iterate to a fixed point against the
   widened inputs, so their bounds are valid (conservative) WCRTs of the
   degraded system.

Degraded runs never raise for *analysis* failures; they always return an
:class:`~repro.resilience.outcome.AnalysisOutcome`.  Model-construction
errors detected by :meth:`System.validate` (dangling ports, bad
parameters) still raise — they are caller bugs, not properties of the
analysed system, and no conservative substitution exists for them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .. import obs as _obs
from .._errors import (
    AnalysisError,
    ModelError,
    NotSchedulableError,
    UnboundedStreamError,
)
from ..analysis.memo import AnalysisMemo
from ..analysis.results import ResourceResult, SystemResult, TaskResult
from ..core.update import BusyWindowOutput, apply_operation
from ..eventmodels.base import EventModel
from ..eventmodels.standard import sporadic
from ..system.model import System, Task
from ..system.propagation import (
    DEFAULT_MAX_ITERATIONS,
    _changed_ports,
    _global_fixed_point,
    _StreamResolver,
)
from ..timebase import EPS, INF
from .guards import DivergenceGuard, GuardVerdict
from .outcome import (
    HEALTH_DIVERGED,
    HEALTH_OVERLOADED,
    HEALTH_QUARANTINED,
    AnalysisOutcome,
    ConservativenessCertificate,
    ResourceHealth,
)

#: Exceptions the degraded engine converts into quarantines.  Anything
#: else (KeyboardInterrupt, genuine bugs) still propagates.
_QUARANTINE_ERRORS = (ModelError, UnboundedStreamError, AnalysisError)


class UnboundedEnvelope(EventModel):
    """δ⁻ ≡ 0: a stream with no rate limit whatsoever.

    The only conservative output substitute for an overloaded task with
    ``c_min == 0`` — nothing serialises its completions, so no finite
    event bound is sound.  Any busy-window analysis consuming this model
    fails with :class:`UnboundedStreamError`, which the degraded engine
    turns into a cascade quarantine of the downstream resource.
    """

    def __init__(self, origin: str = ""):
        self.origin = origin
        self.name = f"unbounded({origin})" if origin else "unbounded"

    def delta_min(self, n: int) -> float:
        self._check_n(n)
        return 0.0

    def delta_plus(self, n: int) -> float:
        self._check_n(n)
        return 0.0 if n < 2 else INF

    def eta_plus(self, dt: float) -> int:
        if dt <= 0:
            return 0
        raise UnboundedStreamError(
            f"stream {self.name} has no rate limit (source task was "
            f"quarantined with c_min == 0)",
            context={"origin": self.origin,
                     "reason": "unbounded_envelope"})

    def eta_min(self, dt: float) -> int:
        return 0

    def load(self, accuracy: int = 1000) -> float:
        return INF

    def __repr__(self) -> str:
        return f"<UnboundedEnvelope {self.origin or '?'}>"


# ----------------------------------------------------------------------
# widenings
# ----------------------------------------------------------------------
def widen_overload(task: Task, reason: str) \
        -> "Tuple[EventModel, ConservativenessCertificate]":
    """Sporadic-envelope widening for a task on a failed resource."""
    d2 = task.c_min
    if d2 > EPS:
        model = sporadic(d2, name=f"widened:{task.name}")
        argument = (
            f"completions of {task.name} are serialised by its own "
            f"execution, so any feasible output stream has "
            f"delta_min(2) >= c_min = {d2:g}; by superadditivity "
            f"delta_min(n) >= (n-1)*{d2:g}, hence sporadic({d2:g}) "
            f"lower-bounds every feasible distance function and "
            f"upper-bounds eta_plus for all consumers")
        cert = ConservativenessCertificate(
            port=task.name, task=task.name, resource=task.resource,
            reason=reason, substitute=repr(model), argument=argument,
            d2=d2)
    else:
        model = UnboundedEnvelope(origin=task.name)
        argument = (
            f"{task.name} has c_min == 0: nothing serialises its "
            f"completions, so no finite rate bound is sound; the "
            f"unbounded envelope (delta_min == 0) is installed and "
            f"downstream consumers are cascade-quarantined instead of "
            f"receiving an unsound bound")
        cert = ConservativenessCertificate(
            port=task.name, task=task.name, resource=task.resource,
            reason=reason, substitute=repr(model), argument=argument)
    return model, cert


def widen_diverged(task: Task, resolver: _StreamResolver,
                   history: "List[Tuple[float, float]]") \
        -> "Tuple[EventModel, ConservativenessCertificate, float, float]":
    """Frozen-interval widening for a task on a diverged resource.

    Freezes the response interval to the min/max observed over the
    iteration history and derives the output through Θ_τ.  Falls back to
    the overload widening when the activation stream itself cannot be
    evaluated.
    """
    if history:
        r_lo = min(r for r, _ in history)
        r_hi = max(r for _, r in history)
    else:
        r_lo, r_hi = task.c_min, task.c_max
    try:
        activation = resolver.activation_model(task)
        model = apply_operation(activation, BusyWindowOutput(r_lo, r_hi))
    except _QUARANTINE_ERRORS:
        model, cert = widen_overload(task, HEALTH_DIVERGED)
        return model, cert, r_lo, r_hi
    argument = (
        f"response interval of {task.name} frozen to the observed "
        f"range [{r_lo:g}, {r_hi:g}] over {len(history)} iterations; "
        f"Theta_tau of the activating stream with that interval "
        f"over-approximates every response the iteration visited "
        f"(brackets the limit cycle for oscillating systems; for "
        f"unbounded growth it is the tightest statement this run "
        f"supports and the resource stays flagged 'diverged')")
    cert = ConservativenessCertificate(
        port=task.name, task=task.name, resource=task.resource,
        reason=HEALTH_DIVERGED, substitute=repr(model),
        argument=argument, frozen_interval=(r_lo, r_hi))
    return model, cert, r_lo, r_hi


# ----------------------------------------------------------------------
# the degrade failure policy
# ----------------------------------------------------------------------
def degraded_analyze(system: System,
                     max_iterations: int = DEFAULT_MAX_ITERATIONS,
                     initial_outputs:
                     "Optional[Dict[str, EventModel]]" = None,
                     guard: "Optional[DivergenceGuard]" = None,
                     memo: "Optional[AnalysisMemo]" = None,
                     ) -> AnalysisOutcome:
    """Run the global fixed point with graceful degradation.

    Parameters mirror :func:`~repro.system.propagation.analyze_system`;
    ``guard=None`` installs a default :class:`DivergenceGuard`, pass
    ``guard=False`` to disable trend detection (the iteration budget
    then remains the only divergence backstop).  A ``memo`` routes the
    healthy resources' local analyses through the incremental cache;
    failed analyses never enter the memo, so quarantine behaviour is
    unchanged.

    Returns an :class:`AnalysisOutcome` — never raises for analysis
    failures (overload, divergence, unbounded streams).  Structural
    model errors from :meth:`System.validate` still raise.
    """
    return _global_fixed_point(system, _DegradePolicy(system),
                               max_iterations, initial_outputs, guard, memo)


class _DegradePolicy:
    """Failure policy of ``on_failure="degrade"`` for
    :func:`~repro.system.propagation._global_fixed_point`: quarantine failed
    resources, substitute widened outputs, and assemble the outcome."""

    mode = "degraded"
    errors = _QUARANTINE_ERRORS

    def __init__(self, system: System):
        self.system = system
        self.substitutes: "Dict[str, EventModel]" = {}
        self.health: "Dict[str, ResourceHealth]" = {
            name: ResourceHealth(name) for name in system.resources}
        self.certificates: "List[ConservativenessCertificate]" = []
        self.verdicts: "List[GuardVerdict]" = []
        #: Per-task ``(r_min, r_max)`` of every iteration, the evidence
        #: a divergence widening freezes.
        self.history: "Dict[str, List[Tuple[float, float]]]" = {}
        self.degraded_results: "Dict[str, ResourceResult]" = {}

    # --- loop hooks ---------------------------------------------------
    def analysis_failed(self, resource_name: str, exc: Exception) -> None:
        kind = (HEALTH_OVERLOADED if isinstance(exc, NotSchedulableError)
                else HEALTH_QUARANTINED)
        self.quarantine(resource_name, kind, exc)

    def port_failed(self, task: Task, exc: Exception) -> EventModel:
        if self.health[task.resource].ok:
            self.quarantine(task.resource, HEALTH_QUARANTINED, exc)
        return self.substitutes[task.name]

    def diverged(self, verdict: GuardVerdict, residual_info: dict,
                 prev_models: "Dict[str, EventModel]",
                 new_models: "Dict[str, EventModel]",
                 resolver: _StreamResolver,
                 resource_results: "Dict[str, ResourceResult]") -> bool:
        # The culprit is the resource of the task that moved most, else
        # of the first healthy task whose output model still moves.
        self.verdicts.append(verdict)
        tasks = self.system.tasks
        worst = residual_info.get("residual_argmax")
        if worst not in tasks:
            worst = next(
                (port for port in _changed_ports(prev_models, new_models)
                 if port in tasks and self.health[tasks[port].resource].ok),
                None)
        if worst is None:
            return False
        culprit = tasks[worst].resource
        self.quarantine_diverged(culprit, verdict, resolver,
                                 resource_results.get(culprit))
        return True

    def finish(self, iterations: int, converged: bool,
               last_results: "Dict[str, ResourceResult]"
               ) -> AnalysisOutcome:
        # A quarantined resource reports its degraded result, a healthy
        # one its last local analysis; idle resources report nothing.
        resource_results: "Dict[str, ResourceResult]" = {}
        for name in self.system.resources:
            rr = self.degraded_results.get(name, last_results.get(name))
            if rr is not None:
                resource_results[name] = rr
        result = SystemResult(iterations=iterations, converged=converged,
                              resource_results=resource_results)
        outcome = AnalysisOutcome(result=result, resources=self.health,
                                  certificates=self.certificates,
                                  verdicts=self.verdicts,
                                  iterations=iterations,
                                  converged=converged)
        if _obs.enabled:
            _obs.metrics().gauge("resilience.failed_resources").set(
                len(outcome.failed_resources()))
        return outcome

    # --- quarantine ---------------------------------------------------
    def quarantine(self, resource_name: str, kind: str,
                   exc: Exception) -> None:
        record = self.health[resource_name]
        record.health = kind
        record.error = str(exc)
        record.error_type = type(exc).__name__
        record.context = dict(getattr(exc, "context", None) or {})
        if _obs.enabled:
            _obs.metrics().counter("resilience.quarantines").inc()
            _obs.get_tracer().event(
                "resilience.quarantine", resource=resource_name,
                health=kind, error_type=record.error_type)
        task_results = {}
        for t in self.system.tasks_on(resource_name):
            model, cert = widen_overload(t, kind)
            self._substitute(t, model, cert)
            task_results[t.name] = TaskResult(
                name=t.name, r_min=t.c_min, r_max=INF, degraded=True)
        utilization = getattr(exc, "utilization", None)
        self.degraded_results[resource_name] = ResourceResult(
            resource_name,
            utilization if utilization is not None else float("nan"),
            task_results, health=kind)

    def quarantine_diverged(self, resource_name: str,
                            verdict: GuardVerdict,
                            resolver: _StreamResolver,
                            prev_rr: "Optional[ResourceResult]") -> None:
        record = self.health[resource_name]
        record.health = HEALTH_DIVERGED
        record.error = f"divergence guard: {verdict.verdict}"
        record.error_type = "ConvergenceError"
        record.context = {"verdict": verdict.verdict,
                          "iteration": verdict.iteration,
                          "detail": verdict.detail}
        if _obs.enabled:
            _obs.metrics().counter("resilience.quarantines").inc()
            _obs.get_tracer().event(
                "resilience.quarantine", resource=resource_name,
                health=HEALTH_DIVERGED, verdict=verdict.verdict)
        task_results = {}
        for t in self.system.tasks_on(resource_name):
            model, cert, r_lo, r_hi = widen_diverged(
                t, resolver, self.history.get(t.name, []))
            self._substitute(t, model, cert)
            task_results[t.name] = TaskResult(
                name=t.name, r_min=r_lo, r_max=r_hi, degraded=True,
                details={"frozen": 1.0})
        self.degraded_results[resource_name] = ResourceResult(
            resource_name,
            prev_rr.utilization if prev_rr is not None else float("nan"),
            task_results, health=HEALTH_DIVERGED)

    def _substitute(self, task: Task, model: EventModel,
                    cert: ConservativenessCertificate) -> None:
        self.substitutes[task.name] = model
        self.certificates.append(cert)
        if _obs.enabled:
            _obs.metrics().counter("resilience.widenings").inc()
