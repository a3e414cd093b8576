"""Static-priority preemptive (SPP) response-time analysis.

The classic busy-window analysis for fixed-priority preemptive resources
(Lehoczky 1990, as used at the component level by Richter's compositional
framework and the paper's CPU1 example):

    B_i(q) = q * C_i⁺ + Σ_{j ∈ hp(i)} η⁺_j(B_i(q)) * C_j⁺
    r_i⁺   = max_q [ B_i(q) - δ⁻_i(q) ]          while δ⁻_i(q+1) < B_i(q)
    r_i⁻   = C_i⁻                                 (preemptive best case)

Equal-priority ties
-------------------
Equal-priority tasks are **conservatively counted as interference**: the
interferer set is ``{j ≠ i : priority_j <= priority_i}``, not strictly
``<``.  The tie-break order between equal priorities is unknown to the
analysis (implementation-defined dispatch, FIFO arbitration, ...), so
each of two tied tasks must assume the other may win every race; with a
strict ``<`` the analysis would certify response times that a real
tie-losing execution can exceed.  This is pinned by a regression test
(``test_spp_ties.py``), not just this comment.

A resource with many tasks at high load (:func:`kernels.batch_worthwhile`)
runs its per-task q-loops through the numpy kernel driver: one joint
vector fixed point per activation round across all tasks of the
resource, bit-identical to the scalar loop.  The scalar loop is the test
reference and the only path when numpy is not installed.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .._errors import NotSchedulableError
from ..explain.blame import (
    KIND_BLOCKING,
    KIND_INTERFERENCE,
    KIND_OWN,
    Blame,
    BlameTerm,
    critical_activation,
)
from . import kernels
from .busy_window import fixed_point, multi_activation_loop
from .interface import Scheduler, TaskSpec
from .results import ResourceResult, TaskResult


class SPPScheduler(Scheduler):
    """Static-priority preemptive analysis (smaller priority value wins)."""

    policy = "spp"

    def __init__(self, utilization_limit: float = 1.0):
        self.utilization_limit = utilization_limit

    def analyze(self, tasks: Sequence[TaskSpec],
                resource_name: str = "resource",
                reuse: Optional[Dict[str, TaskResult]] = None,
                ) -> ResourceResult:
        self.check_unique_names(tasks)
        util = self.total_load(tasks)
        if util > self.utilization_limit + 1e-9:
            raise NotSchedulableError(
                f"{resource_name}: utilization {util:.4f} exceeds "
                f"{self.utilization_limit}", resource=resource_name,
                utilization=util)
        reuse = reuse or {}
        todo = [t for t in tasks if t.name not in reuse]
        if kernels.batch_worthwhile(len(todo), util) and todo:
            computed = self._analyze_batched(todo, tasks, resource_name)
        else:
            computed = {t.name: self._analyze_task(t, tasks, resource_name)
                        for t in todo}
        results = {t.name: computed.get(t.name, reuse.get(t.name))
                   for t in tasks}
        return ResourceResult(resource_name, util, results)

    @staticmethod
    def _interferers(task: TaskSpec,
                     tasks: Sequence[TaskSpec]) -> Sequence[TaskSpec]:
        # <= not <: equal-priority ties conservatively interfere (see
        # module docstring).
        return [t for t in tasks
                if t is not task and t.priority <= task.priority]

    def influence_fingerprint(self, task, tasks):
        """SPP result for *task* depends only on tasks at the same or
        higher priority (plus the task itself), in task-set order."""
        from .memo import spec_fingerprint
        parts = [("spp", self.utilization_limit, spec_fingerprint(task))]
        for j in self._interferers(task, tasks):
            parts.append(spec_fingerprint(j))
        if any(p is None for p in parts) or parts[0][2] is None:
            return None
        return tuple(parts)

    def _analyze_batched(self, todo: Sequence[TaskSpec],
                         tasks: Sequence[TaskSpec],
                         resource_name: str) -> Dict[str, TaskResult]:
        """Every task's q-loop as one lane of a kernel run."""
        index = {t.name: i for i, t in enumerate(tasks)}
        coeffs = [[0.0] * len(tasks) for _ in tasks]
        start_terms = [0.0] * len(tasks)
        interferer_counts = []
        for task in todo:
            i = index[task.name]
            interferers = self._interferers(task, tasks)
            for j in interferers:
                coeffs[i][index[j.name]] = j.c_max
            start_terms[i] = sum(j.c_max for j in interferers)
            interferer_counts.append(len(interferers))
        r_max, busy_times, q_max = kernels.run_lanes(
            tasks, coeffs, [index[t.name] for t in todo], [0.0] * len(todo),
            lambda i, a, q: f"{resource_name}/{tasks[i].name} SPP q={q}",
            resource_name, blocking=[t.blocking for t in tasks],
            start_terms=start_terms)
        return {task.name: TaskResult(
                    name=task.name, r_min=task.c_min, r_max=r_max[k],
                    busy_times=busy_times[k], q_max=q_max[k],
                    details={"interferers": float(interferer_counts[k])})
                for k, task in enumerate(todo)}

    def _analyze_task(self, task: TaskSpec, tasks: Sequence[TaskSpec],
                      resource_name: str) -> TaskResult:
        interferers = self._interferers(task, tasks)
        last_w = [None]

        def busy_time(q: int) -> float:
            def workload(w: float) -> float:
                demand = task.blocking + q * task.c_max
                for j in interferers:
                    demand += j.event_model.eta_plus(w) * j.c_max
                return demand

            start = task.blocking + q * task.c_max \
                + sum(j.c_max for j in interferers)
            w = fixed_point(workload, start,
                            context=f"{resource_name}/{task.name} "
                                    f"SPP q={q}",
                            resource=resource_name, task=task.name,
                            hint=last_w[0])
            last_w[0] = w
            return w

        r_max, busy_times, q_max = multi_activation_loop(
            task.event_model, busy_time,
            resource=resource_name, task=task.name)
        return TaskResult(name=task.name, r_min=task.c_min, r_max=r_max,
                          busy_times=busy_times, q_max=q_max,
                          details={"interferers": float(len(interferers))})

    def blame(self, task: TaskSpec, tasks: Sequence[TaskSpec],
              resource_name: str, result: TaskResult) -> Blame:
        """Decompose the WCRT at the critical activation.

        At the least fixed point ``B(q*) = blocking + q*·C⁺ +
        Σ η⁺_j(B(q*))·C_j⁺`` holds with equality, so re-evaluating each
        interferer's activation count at B(q*) recovers the exact
        additive split.
        """
        busy_times = result.busy_times
        arrivals = [task.event_model.delta_min(q)
                    for q in range(1, len(busy_times) + 1)]
        q = critical_activation(busy_times, arrivals)
        bq = busy_times[q - 1]
        terms = [BlameTerm(j.name, KIND_INTERFERENCE,
                           contribution=j.event_model.eta_plus(bq)
                           * j.c_max,
                           activations=j.event_model.eta_plus(bq),
                           c_max=j.c_max)
                 for j in self._interferers(task, tasks)]
        blocking = (BlameTerm(task.name, KIND_BLOCKING,
                              contribution=task.blocking)
                    if task.blocking else None)
        return Blame(
            task=task.name, resource=resource_name, policy="spp", q=q,
            busy_time=bq, arrival=arrivals[q - 1], wcrt=result.r_max,
            own=BlameTerm(task.name, KIND_OWN, contribution=q * task.c_max,
                          activations=q, c_max=task.c_max),
            blocking=blocking, interference=terms)
