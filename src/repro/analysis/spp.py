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

Each task's q-loop is one lane of a :class:`~repro.analysis.kernels.Lanes`
description, built once per resource by :meth:`SPPScheduler._lanes`;
:func:`~repro.analysis.kernels.run_lanes` evaluates it (scalar, or numpy
rounds for many tasks at high load) and :meth:`SPPScheduler.blame`
reads its terms off it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

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
        lanes = self._lanes(todo, tasks, resource_name)
        computed = {task.name: TaskResult(
                        name=task.name, r_min=task.c_min, r_max=r_max,
                        busy_times=busy_times, q_max=q_max,
                        details={"interferers": float(len(
                            lanes.interferers[i]))})
                    for task, i, (r_max, busy_times, q_max) in zip(
                        todo, lanes.lane_task,
                        kernels.run_lanes(lanes, len(todo), util))}
        results = {t.name: computed.get(t.name, reuse.get(t.name))
                   for t in tasks}
        return ResourceResult(resource_name, util, results)

    @staticmethod
    def _interferers(task: TaskSpec,
                     tasks: Sequence[TaskSpec]) -> List[TaskSpec]:
        # <= not <: equal-priority ties conservatively interfere (see
        # module docstring).
        priority = task.priority
        return [t for t in tasks if t.priority <= priority and t is not task]

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

    def _lanes(self, todo: Sequence[TaskSpec], tasks: Sequence[TaskSpec],
               resource_name: str) -> kernels.Lanes:
        """One lane per task of *todo*, at offset 0: B(q) is the least
        fixed point of ``w = (blocking + q·C⁺) + Σ_{j ∈ hp(i)}
        η⁺_j(w)·C_j⁺``, started with one activation of each
        interferer."""
        index = {t.name: i for i, t in enumerate(tasks)}
        interferers: List[Sequence[TaskSpec]] = [()] * len(tasks)
        start_terms = [0.0] * len(tasks)
        for task in todo:
            i = index[task.name]
            interferers[i] = others = self._interferers(task, tasks)
            start_terms[i] = sum([j.c_max for j in others])
        return kernels.Lanes(
            tasks, interferers, [index[t.name] for t in todo],
            [0.0] * len(todo),
            lambda i, a, q: f"{resource_name}/{tasks[i].name} SPP q={q}",
            resource_name, [t.blocking for t in tasks], start_terms)

    def blame(self, task: TaskSpec, tasks: Sequence[TaskSpec],
              resource_name: str, result: TaskResult) -> Blame:
        """Decompose the WCRT at the critical activation.

        At the least fixed point ``B(q*) = blocking + q*·C⁺ +
        Σ η⁺_j(B(q*))·C_j⁺`` holds with equality, so the task's lane
        read at B(q*) gives the exact additive split.
        """
        busy_times = result.busy_times
        arrivals = [task.event_model.delta_min(q)
                    for q in range(1, len(busy_times) + 1)]
        q = critical_activation(busy_times, arrivals)
        bq = busy_times[q - 1]
        lanes = self._lanes([task], tasks, resource_name)
        terms = [BlameTerm(j.name, KIND_INTERFERENCE,
                           contribution=n * j.c_max, activations=n,
                           c_max=j.c_max)
                 for j, _, n in lanes.counts(0, q, bq)]
        blocking = (BlameTerm(task.name, KIND_BLOCKING,
                              contribution=task.blocking)
                    if task.blocking else None)
        return Blame(
            task=task.name, resource=resource_name, policy="spp", q=q,
            busy_time=bq, arrival=arrivals[q - 1], wcrt=result.r_max,
            own=BlameTerm(task.name, KIND_OWN, contribution=q * task.c_max,
                          activations=q, c_max=task.c_max),
            blocking=blocking, interference=terms)
