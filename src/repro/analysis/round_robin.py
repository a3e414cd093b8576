"""Round-robin response-time analysis.

Each task owns a slot (quantum) of length ``slot``; the scheduler cycles
through all tasks, skipping empty queues.  The interference any other task
j can impose while task i completes q activations is bounded both by j's
own arrivals and by the number of rounds i needs:

    rounds_i(q)      = ceil(q * C_i⁺ / θ_i)
    I_j(w, q)        = min( η⁺_j(w) * C_j⁺ , rounds_i(q) * θ_j )
    B_i(q): w        = q * C_i⁺ + Σ_{j ≠ i} I_j(w, q)

(Richter's thesis, ch. 4 — the min captures that a queue can only use its
slot when it actually holds work.)
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .._errors import ModelError, NotSchedulableError
from ..explain.blame import (
    KIND_INTERFERENCE,
    KIND_OWN,
    Blame,
    BlameTerm,
    critical_activation,
)
from .busy_window import fixed_point, multi_activation_loop
from .interface import Scheduler, TaskSpec
from .results import ResourceResult, TaskResult


class RoundRobinScheduler(Scheduler):
    """Round-robin analysis; every task needs a positive ``slot``."""

    policy = "round_robin"

    def __init__(self, utilization_limit: float = 1.0):
        self.utilization_limit = utilization_limit

    def analyze(self, tasks: Sequence[TaskSpec],
                resource_name: str = "resource",
                reuse: Optional[dict] = None) -> ResourceResult:
        self.check_unique_names(tasks)
        for t in tasks:
            if t.slot is None or t.slot <= 0:
                raise ModelError(
                    f"round-robin task {t.name} needs a positive slot")
        util = self.total_load(tasks)
        if util > self.utilization_limit + 1e-9:
            raise NotSchedulableError(
                f"{resource_name}: utilization {util:.4f} exceeds "
                f"{self.utilization_limit}", resource=resource_name,
                utilization=util)
        reuse = reuse or {}
        computed = {t.name: self._analyze_task(t, tasks, resource_name)
                    for t in tasks if t.name not in reuse}
        results = {t.name: computed.get(t.name, reuse.get(t.name))
                   for t in tasks}
        return ResourceResult(resource_name, util, results)

    def _analyze_task(self, task: TaskSpec, tasks: Sequence[TaskSpec],
                      resource_name: str) -> TaskResult:
        others = [t for t in tasks if t is not task]
        last_w = [None]

        def busy_time(q: int) -> float:
            rounds = math.ceil(q * task.c_max / task.slot)

            def workload(w: float) -> float:
                demand = q * task.c_max
                for j in others:
                    arrival_bound = j.event_model.eta_plus(w) * j.c_max
                    slot_bound = rounds * j.slot
                    demand += min(arrival_bound, slot_bound)
                return demand

            w = fixed_point(workload, q * task.c_max,
                            context=f"{resource_name}/{task.name} "
                                    f"RR q={q}",
                            resource=resource_name, task=task.name,
                            hint=last_w[0])
            last_w[0] = w
            return w

        r_max, busy_times, q_max = multi_activation_loop(
            task.event_model, busy_time,
            resource=resource_name, task=task.name)
        return TaskResult(name=task.name, r_min=task.c_min, r_max=r_max,
                          busy_times=busy_times, q_max=q_max)

    def blame(self, task: TaskSpec, tasks: Sequence[TaskSpec],
              resource_name: str, result: TaskResult) -> Blame:
        """Decompose the WCRT at the critical activation; interference
        capped by the round count is marked ``slot-capped``."""
        busy_times = result.busy_times
        arrivals = [task.event_model.delta_min(q)
                    for q in range(1, len(busy_times) + 1)]
        q = critical_activation(busy_times, arrivals)
        bq = busy_times[q - 1]
        rounds = math.ceil(q * task.c_max / task.slot)
        terms = []
        for j in tasks:
            if j is task:
                continue
            n = j.event_model.eta_plus(bq)
            arrival_bound = n * j.c_max
            slot_bound = rounds * j.slot
            capped = slot_bound < arrival_bound
            terms.append(BlameTerm(
                j.name, KIND_INTERFERENCE,
                contribution=min(arrival_bound, slot_bound),
                activations=n, c_max=j.c_max,
                note=(f"slot-capped at {rounds} rounds x {j.slot:g}"
                      if capped else "")))
        return Blame(
            task=task.name, resource=resource_name, policy="round_robin",
            q=q, busy_time=bq, arrival=arrivals[q - 1], wcrt=result.r_max,
            own=BlameTerm(task.name, KIND_OWN, contribution=q * task.c_max,
                          activations=q, c_max=task.c_max),
            interference=terms, candidate={"rounds": rounds})
