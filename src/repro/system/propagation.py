"""Global compositional analysis: the fixed-point iteration.

This is the system-level loop the paper describes in its introduction:

    "in each global iteration of the compositional system level analysis,
     local analysis is performed for each component to derive response
     times and the timing of output event streams.  Afterwards, the
     calculated output event streams are propagated to the connected
     components, where they are used as input event streams for the
     subsequent global iteration."

The engine resolves every task's activating event model from the stream
graph (applying junction constructors — including the hierarchical pack
constructor and the unpack deconstructor — on the way), runs each
resource's local analysis, derives output models through Θ_τ (with inner
updates for hierarchical streams), and repeats until both response times
and propagated event models are stable.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Set

from .. import obs as _obs
from .._errors import ConvergenceError, ModelError
from ..analysis.interface import TaskSpec
from ..analysis.memo import AnalysisMemo, spec_fingerprint
from ..analysis.results import ResourceResult, SystemResult, TaskResult
from ..core.constructors import hsc_and, hsc_or, hsc_pack
from ..core.deconstruct import unpack_signal
from ..core.hem import is_hierarchical
from ..core.update import BusyWindowOutput, apply_operation
from ..eventmodels import compile as _compile
from ..eventmodels.base import EventModel, models_equal
from ..eventmodels.operations import and_join, or_join
from ..explain.lineage import (
    KIND_ACTIVATION,
    KIND_AND,
    KIND_OR,
    KIND_PACK,
    KIND_SOURCE,
    KIND_THETA,
    KIND_UNPACK,
    LineageNode,
)
from ..timebase import EPS
from .model import Junction, JunctionKind, System, Task

#: Default bound on global iterations before declaring divergence.
DEFAULT_MAX_ITERATIONS = 64

#: Event-count range on which propagated models are compared for
#: convergence.
CONVERGENCE_CHECK_N = 32


class _StreamResolver:
    """Resolves the event model present at any output port of the graph
    for one global iteration, with memoisation and cycle detection.

    ``substitutes`` maps ports to fixed models served before anything
    is resolved (the widened outputs of quarantined resources in a
    degraded run).  The mapping is read live, so a quarantine decided
    mid-iteration takes effect for every later lookup.

    ``lineage``, when given, receives one
    :class:`~repro.explain.lineage.LineageNode` per resolved port: the
    derivation step that produced its model.  Without it nothing is
    recorded.

    ``read_seed`` turns True once a dependency cycle was cut with a
    model of ``initial_outputs``.  ``junctions`` counts the junctions
    resolved, per kind; the global loop points it at one tally per
    iteration, which the iteration's record carries.
    """

    def __init__(self, system: System,
                 responses: "Dict[str, TaskResult]",
                 initial_outputs: "Dict[str, EventModel]",
                 substitutes: "Optional[Dict[str, EventModel]]" = None,
                 lineage: "Optional[Dict[str, LineageNode]]" = None):
        self._system = system
        self._responses = responses
        self._initial = initial_outputs
        self._substitutes = {} if substitutes is None else substitutes
        self._lineage = lineage
        self._cache: "Dict[str, EventModel]" = {}
        self._visiting: Set[str] = set()
        self.read_seed = False
        self.junctions: Dict[str, int] = {}

    def _record(self, port: str, kind: str, inputs=(), **attrs) -> None:
        self._lineage[port] = LineageNode(port, kind, tuple(inputs), attrs)

    # ------------------------------------------------------------------
    def port(self, port: str) -> EventModel:
        """Event model observable at *port* this iteration."""
        substitute = self._substitutes.get(port)
        if substitute is not None:
            return substitute
        cached = self._cache.get(port)
        if cached is not None:
            return cached
        # Share derived chains through the global fingerprint cache:
        # a stream whose inputs did not move is last iteration's chain,
        # memos filled.
        model = _compile.maybe_compile(self._resolve(port))
        self._cache[port] = model
        return model

    def _resolve(self, port: str) -> EventModel:
        system = self._system
        node = system.producer_of(port)
        if node in system.sources:
            model = system.sources[node].model
            if self._lineage is not None:
                self._record(port, KIND_SOURCE, model=repr(model))
            return model
        if node in system.junctions:
            return self._resolve_junction(system.junctions[node], port)
        return self._resolve_task_output(system.tasks[node])

    # ------------------------------------------------------------------
    def _resolve_junction(self, junction: Junction,
                          port: str) -> EventModel:
        kind = junction.kind.value
        self.junctions[kind] = self.junctions.get(kind, 0) + 1
        key = f"junction:{junction.name}"
        if key in self._visiting:
            raise ModelError(
                f"dependency cycle through junction {junction.name!r} "
                f"while resolving port {port!r}",
                context={"junction": junction.name, "port": port,
                         "reason": "dependency_cycle"})
        self._visiting.add(key)
        try:
            if junction.kind is JunctionKind.UNPACK:
                upstream = self.port(junction.inputs[0])
                if not is_hierarchical(upstream):
                    raise ModelError(
                        f"unpack junction {junction.name}: input stream "
                        f"{junction.inputs[0]!r} is flat",
                        context={"junction": junction.name, "port": port,
                                 "input": junction.inputs[0],
                                 "reason": "unpack_flat_stream"})
                if port == junction.name:
                    # the unadorned port exposes the outer stream
                    if self._lineage is not None:
                        self._record(
                            port, KIND_UNPACK, inputs=junction.inputs,
                            rule="Ψ (outer stream)", label="(outer)")
                    return upstream.outer
                label = port[len(junction.name) + 1:]
                if self._lineage is not None:
                    self._record(
                        port, KIND_UNPACK, inputs=junction.inputs,
                        rule="Ψ_pa: F_i = L(i)", label=label,
                        from_rule=upstream.rule.name)
                return unpack_signal(upstream, label)

            inputs = {name: self.port(name) for name in junction.inputs}
            if junction.kind is JunctionKind.PACK:
                timer = (self._system.sources[junction.timer].model
                         if junction.timer is not None else None)
                signals = {name: (model, junction.properties[name])
                           for name, model in inputs.items()}
                packed = hsc_pack(signals, timer=timer,
                                  name=junction.name)
                if self._lineage is not None:
                    upstream = list(junction.inputs)
                    if junction.timer is not None:
                        # The timer never passes through port(); record
                        # its source node here so the DAG is closed.
                        upstream.append(junction.timer)
                        self._record(junction.timer, KIND_SOURCE,
                                     model=repr(timer))
                    self._record(
                        port, KIND_PACK, inputs=upstream,
                        rule=f"Ω_pa: {packed.rule.describe()}",
                        inner_labels=packed.labels,
                        timer=junction.timer)
                return packed
            if junction.kind is JunctionKind.OR:
                joined = hsc_or(inputs, name=junction.name)
                if self._lineage is not None:
                    self._record(port, KIND_OR, inputs=junction.inputs,
                                 rule=f"Ω_∨: {joined.rule.describe()}",
                                 inner_labels=joined.labels)
                return joined
            if junction.kind is JunctionKind.AND:
                joined = hsc_and(inputs, name=junction.name)
                if self._lineage is not None:
                    self._record(port, KIND_AND, inputs=junction.inputs,
                                 rule=f"Ω_∧: {joined.rule.describe()}",
                                 inner_labels=joined.labels)
                return joined
            raise ModelError(
                f"junction {junction.name}: unsupported kind "
                f"{junction.kind}",
                context={"junction": junction.name, "port": port,
                         "kind": str(junction.kind),
                         "reason": "unsupported_junction_kind"})
        finally:
            self._visiting.discard(key)

    # ------------------------------------------------------------------
    def _resolve_task_output(self, task: Task) -> EventModel:
        key = f"task:{task.name}"
        if key in self._visiting:
            # Dependency cycle: cut it with the previous iteration's
            # output (or a user-provided initial model).
            fallback = self._initial.get(task.name)
            if fallback is None:
                raise ModelError(
                    f"dependency cycle through task {task.name!r} on "
                    f"resource {task.resource!r}; provide an initial "
                    f"output model to cut it",
                    context={"task": task.name,
                             "resource": task.resource,
                             "reason": "dependency_cycle"})
            self.read_seed = True
            return fallback
        self._visiting.add(key)
        try:
            activation = self.activation_model(task)
        finally:
            self._visiting.discard(key)
        result = self._responses.get(task.name)
        if result is not None:
            r_min, r_max = result.r_min, result.r_max
        else:
            # First iteration: optimistic seed — the task responds within
            # its own execution-time interval.
            r_min, r_max = task.c_min, task.c_max
        op = BusyWindowOutput(r_min, r_max)
        if self._lineage is not None:
            attrs = {"rule": "Θ_τ", "r_min": r_min, "r_max": r_max,
                     "resource": task.resource}
            if is_hierarchical(activation):
                attrs.update(
                    inner_update=f"B_Θτ,C_{activation.rule.name} "
                                 f"(k={activation.outer.simultaneity()})",
                    inner_labels=activation.labels)
            upstream = ([f"{task.name}.act"] if len(task.inputs) > 1
                        else list(task.inputs))
            self._record(task.name, KIND_THETA, inputs=upstream, **attrs)
        return apply_operation(activation, op)

    # ------------------------------------------------------------------
    def activation_model(self, task: Task) -> EventModel:
        """The stream that activates *task* (combining multiple inputs
        per the task's activation semantics)."""
        models = [self.port(p) for p in task.inputs]
        if len(models) == 1:
            return models[0]
        flat = [m.outer if is_hierarchical(m) else m for m in models]
        if task.activation == "and":
            joined = and_join(flat, name=f"{task.name}.act")
        else:
            joined = or_join(flat, name=f"{task.name}.act")
        if self._lineage is not None:
            flattened = [p for p, m in zip(task.inputs, models)
                         if is_hierarchical(m)]
            self._record(
                f"{task.name}.act", KIND_ACTIVATION, inputs=task.inputs,
                rule=f"{task.activation.upper()}-join "
                     f"({task.activation}_join of {len(models)} inputs)",
                flattened_hierarchies=flattened)
        return _compile.maybe_compile(joined)

    def task_specs(self, tasks: "List[Task]") -> "List[TaskSpec]":
        """What a local analysis sees of *tasks*: each one's parameters
        and the stream that activates it."""
        return [TaskSpec(name=t.name, c_min=t.c_min, c_max=t.c_max,
                         event_model=self.activation_model(t),
                         priority=t.priority, slot=t.slot,
                         deadline=t.deadline, blocking=t.blocking)
                for t in tasks]


def _converged_resolver(system: System, result,
                        lineage: "Optional[Dict[str, LineageNode]]" = None
                        ) -> _StreamResolver:
    """A resolver serving the streams of *result*'s converged responses:
    exactly the models of the final iteration."""
    responses: "Dict[str, TaskResult]" = {}
    for rr in result.resource_results.values():
        responses.update(rr.task_results)
    return _StreamResolver(system, responses, {}, lineage=lineage)


def output_models(system: System, result,
                  ports: "Optional[list]" = None
                  ) -> "Dict[str, EventModel]":
    """Reconstruct the converged per-port output event models.

    :class:`~repro.analysis.results.SystemResult` carries response
    times, not the propagated streams; differential checks (e.g. the
    soak oracle's envelope-containment contract) need the analytic
    output model of each task to compare observed traces against.
    Rebuilding a :class:`_StreamResolver` from the converged task
    results reproduces exactly the models of the final iteration.

    ``ports`` defaults to every task's output port.  Systems with
    dependency cycles need the cycle seeds the original call provided;
    this helper targets acyclic graphs and raises for unseeded cycles.
    """
    resolver = _converged_resolver(system, result)
    if ports is None:
        ports = list(system.tasks)
    return {port: resolver.port(port) for port in ports}


def analyze_system(system: System,
                   max_iterations: int = DEFAULT_MAX_ITERATIONS,
                   initial_outputs: "Optional[Dict[str, EventModel]]" = None,
                   on_failure: str = "raise",
                   guard=None,
                   memo: "Optional[AnalysisMemo]" = None,
                   ):
    """Run the global compositional fixed-point analysis.

    Parameters
    ----------
    system:
        The system graph; validated before the first iteration.
    max_iterations:
        Bound on global iterations; exceeding it raises
        :class:`~repro._errors.ConvergenceError` (response times that keep
        growing indicate an overloaded or ill-conditioned system).
    initial_outputs:
        Optional seed output models for tasks inside dependency cycles.
        Seed *every* task of a cycle — which member the resolver revisits
        first depends on its traversal entry point.  After the first
        iteration all task outputs serve as their own seeds.
    on_failure:
        ``"raise"`` (default): analysis failures propagate as
        exceptions.  ``"degrade"``: the same loop runs under
        :func:`repro.resilience.degrade.degraded_analyze`'s failure
        policy — failed resources are quarantined, their outputs
        conservatively widened, and an
        :class:`~repro.resilience.outcome.AnalysisOutcome` is returned
        instead of raising.
    guard:
        Divergence guard
        (:class:`~repro.resilience.guards.DivergenceGuard`).  ``None``
        installs the default guard, ``False`` disables trend detection.
        In strict mode a guard verdict raises
        :class:`~repro._errors.ConvergenceError` early (fail fast); in
        degraded mode it triggers widening of the diverging resource.
    memo:
        Optional :class:`~repro.analysis.memo.AnalysisMemo` enabling
        dirty-set incremental re-analysis: local analyses whose input
        fingerprints match a previous run are reused instead of
        re-solved.  The iteration trajectory is unchanged, so results
        (including the iteration count) are bit-identical to a cold
        run.  A memo busy in another thread is skipped, not awaited.

    Returns
    -------
    :class:`~repro.analysis.results.SystemResult` in strict mode, an
    :class:`~repro.resilience.outcome.AnalysisOutcome` in degraded mode.
    """
    if on_failure not in ("raise", "degrade"):
        raise ModelError(
            f"on_failure must be 'raise' or 'degrade', got "
            f"{on_failure!r}")
    if on_failure == "degrade":
        # Lazy import: repro.resilience.degrade imports this module at
        # its top level, so the dependency must stay one-directional at
        # import time.
        from ..resilience.degrade import degraded_analyze

        return degraded_analyze(system, max_iterations=max_iterations,
                                initial_outputs=initial_outputs,
                                guard=guard, memo=memo)
    return _global_fixed_point(system, _StrictPolicy(system),
                               max_iterations, initial_outputs, guard, memo)


class _StrictPolicy:
    """Failure policy of ``on_failure="raise"``.

    ``errors`` is empty, so the loop catches nothing: every analysis
    failure propagates with its own type and context.  A guard verdict
    or an exhausted budget raises
    :class:`~repro._errors.ConvergenceError`.
    """

    mode = "strict"
    errors: tuple = ()
    #: Per-task response history; only the degraded policy keeps one.
    history = None

    def __init__(self, system: System):
        self.system = system
        self.substitutes: "Dict[str, EventModel]" = {}

    def diverged(self, verdict, *_loop_state) -> bool:
        raise ConvergenceError(
            f"divergence guard aborted the global analysis after "
            f"{verdict.iteration} iterations: {verdict.verdict} "
            f"({verdict.detail})", iterations=verdict.iteration,
            verdict=verdict.verdict, residuals=verdict.residuals)

    def finish(self, iterations: int, converged: bool,
               resource_results: "Dict[str, ResourceResult]"
               ) -> SystemResult:
        if not converged:
            raise ConvergenceError(
                f"global analysis did not converge within {iterations} "
                f"iterations", iterations=iterations,
                context={"system": self.system.name})
        return SystemResult(iterations=iterations, converged=True,
                            resource_results=resource_results)


def _global_fixed_point(system: System, policy, max_iterations: int,
                        initial_outputs: "Optional[Dict[str, EventModel]]",
                        guard, memo: "Optional[AnalysisMemo]"):
    """The global fixed-point iteration behind both failure modes.

    *policy* decides what a failure means (:class:`_StrictPolicy`
    raises, the degraded policy in :mod:`repro.resilience.degrade`
    quarantines and widens).  The loop consults it where the modes
    differ:

    * ``analysis_failed(resource_name, exc)`` — a local analysis raised
      one of ``policy.errors``;
    * ``port_failed(task, exc)`` — resolving an output port did; returns
      the model to propagate instead;
    * ``diverged(verdict, residual_info, prev_models, new_models,
      resolver, resource_results)`` — the guard issued a verdict;
      returns whether the guard's trend should be reset;
    * ``finish(iterations, converged, resource_results)`` — builds the
      return value once the run converged or the budget ran out.

    Ports in ``policy.substitutes`` resolve to their fixed models, and
    resources whose outputs are substituted are not analysed again.
    """
    if guard is None:
        from ..resilience.guards import DivergenceGuard

        guard = DivergenceGuard()
    if memo is not None and not memo.acquire():
        memo = None
    try:
        system.validate()
        return policy.finish(*_iterate(system, policy, max_iterations,
                                       initial_outputs, guard, memo))
    finally:
        if memo is not None:
            memo.runs += 1
            memo.release()


def _local_analysis(resource, specs, memo: "Optional[AnalysisMemo]"):
    """One resource's local analysis, through the memo when present.

    With telemetry on it runs inside a ``local_analysis`` span and, when
    it succeeds, emits its record: the analysis, its memo reuse and the
    busy windows it computed (a memo hit or a reused task adds none).
    Returns ``(ResourceResult, info)`` where ``info`` is the memo's
    reuse accounting (``None`` without a memo).
    """
    with (_obs.get_tracer().span("local_analysis") if _obs.enabled
          else nullcontext()) as span:
        if memo is None:
            rr, info = resource.scheduler.analyze(specs, resource.name), None
        else:
            rr, info = memo.resource_memo(resource.name).analyze(
                resource.scheduler, specs, resource.name)
        if span is not None:
            record = {"resource": resource.name,
                      "policy": resource.scheduler.policy,
                      "tasks": len(specs), "utilization": rr.utilization,
                      "duration": time.perf_counter() - span.start}
            if info is None:
                record["windows"] = len(specs)
                record["activations"] = sum(
                    tr.q_max for tr in rr.task_results.values())
            else:
                record.update(info, windows=info["computed_tasks"])
            _obs.emit("local_analysis", record, span)
    return rr, info


def _specs_key(specs: "List[TaskSpec]") -> Optional[tuple]:
    """What a local analysis depends on besides its scheduler: the
    specs' fingerprints in order, or None when one has none."""
    key = tuple(spec_fingerprint(s) for s in specs)
    return None if None in key else key


def _iterate(system: System, policy, max_iterations: int,
             initial_outputs: "Optional[Dict[str, EventModel]]",
             guard, memo: "Optional[AnalysisMemo]"):
    """Run the loop; returns ``(iterations, converged,
    resource_results)`` for ``policy.finish``.  With telemetry on, each
    iteration runs in a ``global_iteration`` span and emits one record,
    plus one per guard verdict."""
    responses: "Dict[str, TaskResult]" = {}
    prev_models: "Dict[str, EventModel]" = {}
    cycle_seeds: "Dict[str, EventModel]" = dict(initial_outputs or {})
    resource_results: "Dict[str, ResourceResult]" = {}
    # The spec keys of last iteration's successful local analyses
    # (without a memo; the memo keeps its own).
    spec_keys: "Dict[str, tuple]" = {}
    substitutes = policy.substitutes
    handoff: "Optional[_StreamResolver]" = None
    iteration = 0
    converged = False

    for iteration in range(1, max_iterations + 1):
        iter_span = (_obs.get_tracer().start("global_iteration",
                                             system=system.name,
                                             iteration=iteration)
                     if _obs.enabled else None)
        # This iteration's junction resolutions, per kind (its record's
        # ``junctions``): both its resolvers count into it.
        junctions: Dict[str, int] = {}
        try:
            # Last iteration's propagation resolver, when it serves
            # exactly what a fresh one would (see below), already holds
            # every port of these responses.
            resolver = (handoff if handoff is not None
                        else _StreamResolver(system, responses, cycle_seeds,
                                             substitutes))
            resolver.junctions = junctions

            # Local analysis per resource (through the incremental memo
            # when one is attached — same inputs, reused outputs).  A
            # quarantined resource keeps its substituted outputs, and
            # without a memo a resource whose specs fingerprint as last
            # iteration's keeps last iteration's result.
            new_resource_results: "Dict[str, ResourceResult]" = {}
            new_spec_keys: "Dict[str, tuple]" = {}
            dirty_resources = reused_tasks = kept_resources = 0
            for resource in system.resources.values():
                tasks = system.tasks_on(resource.name)
                if not tasks or tasks[0].name in substitutes:
                    continue
                try:
                    specs = resolver.task_specs(tasks)
                    key = _specs_key(specs) if memo is None else None
                    if key is not None \
                            and spec_keys.get(resource.name) == key:
                        rr, info = resource_results[resource.name], None
                        kept_resources += 1
                    else:
                        rr, info = _local_analysis(resource, specs, memo)
                except policy.errors as exc:
                    policy.analysis_failed(resource.name, exc)
                    continue
                if info is not None:
                    reused_tasks += info["reused_tasks"]
                    dirty_resources += not info["resource_hit"]
                if key is not None:
                    new_spec_keys[resource.name] = key
                new_resource_results[resource.name] = rr
            spec_keys = new_spec_keys

            # Gather new responses and check convergence.
            new_responses: "Dict[str, TaskResult]" = {}
            for rr in new_resource_results.values():
                new_responses.update(rr.task_results)
            if policy.history is not None:
                for name, tr in new_responses.items():
                    policy.history.setdefault(name, []).append(
                        (tr.r_min, tr.r_max))

            stable = _responses_stable(responses, new_responses)
            residual_info = (_response_residuals(responses, new_responses)
                             if iter_span is not None or guard else None)
            responses = new_responses
            resource_results = new_resource_results

            # Propagate: compute every task's output model with the *new*
            # responses and compare with the previous iteration's models.
            resolver = _StreamResolver(system, responses, cycle_seeds,
                                       substitutes)
            resolver.junctions = junctions
            new_models: "Dict[str, EventModel]" = {}
            for task_name, task in system.tasks.items():
                try:
                    out = resolver.port(task_name)
                except policy.errors as exc:
                    out = policy.port_failed(task, exc)
                new_models[task_name] = out
                # Cycle seeds advance with the iteration.
                cycle_seeds[task_name] = out
            # Hand this resolver to the next iteration's local analysis
            # only where a fresh one would serve the same models: it read
            # no cycle seed (it resolved every task port, so it crossed
            # every cycle: the graph has none), and the policy catches
            # nothing (no substitute can appear while the next iteration
            # analyses).
            handoff = (resolver if not policy.errors
                       and not resolver.read_seed else None)

            models_stable = _models_stable(prev_models, new_models)
            converged = stable and models_stable
            if iter_span is not None:
                changed = ([] if models_stable
                           else _changed_ports(prev_models, new_models))
                record = {
                    "system": system.name, "iteration": iteration,
                    "mode": policy.mode, **residual_info,
                    "responses_stable": stable,
                    "models_stable": models_stable,
                    "converged": converged,
                    "unstable_models": len(changed),
                    "changed_ports": changed,
                    "widened_ports": sorted(substitutes),
                    "failed_resources": len({system.tasks[port].resource
                                             for port in substitutes}),
                    "kept_resources": kept_resources,
                    "junctions": dict(junctions),
                }
                if memo is not None:
                    record["dirty_resources"] = dirty_resources
                    record["reused_tasks"] = reused_tasks
                _obs.emit("iteration", record, iter_span)
            if converged:
                break

            if guard:
                verdict = guard.observe(
                    iteration, residual_info["residual_r_max"], stable,
                    models_stable)
                if verdict is not None:
                    if iter_span is not None:
                        _obs.emit("guard", {
                            "system": system.name,
                            "verdict": verdict.verdict,
                            "iteration": iteration,
                            "detail": verdict.detail,
                            "mode": policy.mode})
                    if policy.diverged(verdict, residual_info, prev_models,
                                       new_models, resolver,
                                       resource_results):
                        guard.reset()
            prev_models = new_models
        finally:
            if iter_span is not None:
                iter_span.finish()
    return iteration, converged, resource_results


def _responses_stable(old: "Dict[str, TaskResult]",
                      new: "Dict[str, TaskResult]") -> bool:
    if set(old) != set(new):
        return False
    for name, result in new.items():
        prev = old[name]
        if abs(prev.r_max - result.r_max) > EPS:
            return False
        if abs(prev.r_min - result.r_min) > EPS:
            return False
    return True


def _models_stable(old: "Dict[str, EventModel]",
                   new: "Dict[str, EventModel]") -> bool:
    if set(old) != set(new):
        return False
    return all(models_equal(old[k], new[k], n_max=CONVERGENCE_CHECK_N)
               for k in new)


def _response_residuals(old: "Dict[str, TaskResult]",
                        new: "Dict[str, TaskResult]") -> dict:
    """Convergence diagnostics for one iteration (observability only):
    the largest response-time movement and which task moved most."""
    residual_r_max = 0.0
    residual_r_min = 0.0
    argmax = None
    for name, result in new.items():
        prev = old.get(name)
        if prev is None:
            # New task this iteration: its whole response is the delta.
            d_max, d_min = result.r_max, result.r_min
        else:
            d_max = abs(prev.r_max - result.r_max)
            d_min = abs(prev.r_min - result.r_min)
        if d_max > residual_r_max:
            residual_r_max = d_max
            argmax = name
        if d_min > residual_r_min:
            residual_r_min = d_min
    return {"residual_r_max": residual_r_max,
            "residual_r_min": residual_r_min,
            "residual_argmax": argmax}


def _changed_ports(old: "Dict[str, EventModel]",
                   new: "Dict[str, EventModel]") -> list:
    """Task output ports whose propagated model moved this iteration
    (observability only)."""
    return sorted(
        name for name, model in new.items()
        if name not in old
        or not models_equal(old[name], model, n_max=CONVERGENCE_CHECK_N))
