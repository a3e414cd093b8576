"""TDMA response-time analysis via supply functions.

Each task owns a dedicated slot of length θ_i in a TDMA cycle of length
``c = Σ_j θ_j``.  The worst case aligns an activation just after the own
slot ended, giving the standard supply bound

    sbf_i(Δt) = k * θ_i + max(0, Δt' - k * c)      Δt' = Δt - (c - θ_i),
                                                   k = floor(Δt' / c)

The q-event busy time is the pseudo-inverse evaluated at the demand
``q * C_i⁺`` (no other task interferes beyond taking its own slots):

    B_i(q) = (c - θ_i) + floor' * c + rem           where
    floor' = ceil(D / θ_i) - 1, rem = D - floor' * θ_i, D = q * C_i⁺
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .._errors import ModelError, NotSchedulableError
from ..explain.blame import (
    KIND_OWN,
    KIND_SUPPLY,
    Blame,
    BlameTerm,
    critical_activation,
)
from ..timebase import EPS
from .busy_window import multi_activation_loop
from .interface import Scheduler, TaskSpec
from .results import ResourceResult, TaskResult


def tdma_supply(dt: float, slot: float, cycle: float) -> float:
    """Worst-case TDMA service available in a window of length ``dt``."""
    if dt <= 0:
        return 0.0
    shifted = dt - (cycle - slot)
    if shifted <= 0:
        return 0.0
    k = math.floor(shifted / cycle)
    return k * slot + max(0.0, min(slot, shifted - k * cycle))


def tdma_supply_inverse(demand: float, slot: float, cycle: float) -> float:
    """Smallest window guaranteeing ``demand`` units of TDMA service."""
    if demand <= 0:
        return 0.0
    full = math.ceil(demand / slot - EPS) - 1
    rem = demand - full * slot
    return (cycle - slot) + full * cycle + rem


class TDMAScheduler(Scheduler):
    """TDMA analysis; every task needs a positive ``slot``."""

    policy = "tdma"

    def analyze(self, tasks: Sequence[TaskSpec],
                resource_name: str = "resource",
                reuse: Optional[dict] = None) -> ResourceResult:
        self.check_unique_names(tasks)
        for t in tasks:
            if t.slot is None or t.slot <= 0:
                raise ModelError(f"TDMA task {t.name} needs a positive slot")
        cycle = sum(t.slot for t in tasks)
        util = self.total_load(tasks)
        reuse = reuse or {}
        for task in tasks:
            # Per-task capacity check: the own slot share must cover the
            # own long-run demand.
            share = task.slot / cycle
            load = task.load()
            if load > share + 1e-9:
                raise NotSchedulableError(
                    f"{resource_name}/{task.name}: demand {load:.4f} "
                    f"exceeds TDMA share {share:.4f}",
                    resource=resource_name, utilization=load / share)
        computed = {t.name: self._analyze_task(t, cycle, resource_name)
                    for t in tasks if t.name not in reuse}
        results = {t.name: computed.get(t.name, reuse.get(t.name))
                   for t in tasks}
        return ResourceResult(resource_name, util, results)

    def influence_fingerprint(self, task, tasks):
        """A TDMA result depends only on the task itself and the cycle
        length (the sum of all slots) — not on other tasks' streams."""
        from .memo import spec_fingerprint
        own = spec_fingerprint(task)
        if own is None:
            return None
        return ("tdma", sum(t.slot for t in tasks), own)

    def _analyze_task(self, task: TaskSpec, cycle: float,
                      resource_name: str) -> TaskResult:
        def busy_time(q: int) -> float:
            return tdma_supply_inverse(q * task.c_max, task.slot, cycle)

        r_max, busy_times, q_max = multi_activation_loop(
            task.event_model, busy_time,
            resource=resource_name, task=task.name)
        # Best case: activation at the start of the own slot, execution
        # fits into consecutive slots without waiting.
        own_slots = math.ceil(task.c_min / task.slot - EPS) - 1
        r_min = task.c_min + own_slots * (cycle - task.slot)
        r_min = max(task.c_min, min(r_min, r_max))
        return TaskResult(name=task.name, r_min=r_min, r_max=r_max,
                          busy_times=busy_times, q_max=q_max,
                          details={"cycle": cycle})

    def blame(self, task: TaskSpec, tasks: Sequence[TaskSpec],
              resource_name: str, result: TaskResult) -> Blame:
        """Decompose the WCRT: in TDMA no other task's arrivals matter —
        everything beyond the own demand is waiting for the own slot, a
        single ``supply`` term charged to the cycle."""
        busy_times = result.busy_times
        cycle = sum(t.slot for t in tasks)
        arrivals = [task.event_model.delta_min(q)
                    for q in range(1, len(busy_times) + 1)]
        q = critical_activation(busy_times, arrivals)
        bq = busy_times[q - 1]
        wait = bq - q * task.c_max
        extras = []
        if wait > 0:
            extras.append(BlameTerm(
                "tdma.cycle", KIND_SUPPLY, contribution=wait,
                note=f"foreign slots: cycle {cycle:g}, own slot "
                     f"{task.slot:g}"))
        return Blame(
            task=task.name, resource=resource_name, policy="tdma", q=q,
            busy_time=bq, arrival=arrivals[q - 1], wcrt=result.r_max,
            own=BlameTerm(task.name, KIND_OWN, contribution=q * task.c_max,
                          activations=q, c_max=task.c_max),
            extras=extras, candidate={"cycle": cycle})
