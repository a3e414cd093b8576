"""Static-priority non-preemptive (SPNP) analysis — the CAN bus model.

CAN arbitration is priority-based (lower identifier wins) but a frame that
has won the bus transmits to completion.  The busy-window analysis is the
classic one (Tindell/Davis CAN analysis recast in CPA terms):

    blocking  B_i = max_{j ∈ lp(i)} C_j⁺        (a lower-priority frame
                                                 already on the wire)
    queuing   w_i(q):  w = B_i + (q - 1) * C_i⁺
                           + Σ_{j ∈ hp(i)} η⁺_j(w + ε) * C_j⁺
    busy time B_i(q) = w_i(q) + C_i⁺
    response  r_i⁺   = max_q [ B_i(q) + ... - δ⁻_i(q) ]

The ``+ ε`` counts a higher-priority frame arriving exactly when
arbitration starts — it still wins the bus.  The window-close condition
uses the *full* busy time (queuing + own transmission) because the q+1-th
own frame keeps the priority-level busy period open while any earlier own
frame occupies the bus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .._errors import ModelError, NotSchedulableError
from ..explain.blame import (
    KIND_BLOCKING,
    KIND_ERRORS,
    KIND_INTERFERENCE,
    KIND_OWN,
    Blame,
    BlameTerm,
    critical_activation,
)
from ..timebase import EPS
from .busy_window import fixed_point, multi_activation_loop
from .interface import Scheduler, TaskSpec
from .results import ResourceResult, TaskResult

#: Arbitration tie epsilon: arrivals exactly at the arbitration instant
#: still participate.  Any positive value below the time resolution works.
ARBITRATION_EPS = 1e-6


@dataclass(frozen=True)
class CanErrorModel:
    """Fault model for CAN error frames and retransmissions (Tindell /
    Davis style).

    Every bus error costs up to an error frame (≤ 31 bit times) plus the
    retransmission of the interrupted frame.  The overhead admitted into
    a window of length ``w`` is::

        E(w) = (burst_errors + ceil(w * error_rate)) * recovery_time

    Attributes
    ----------
    burst_errors:
        Errors assumed to strike right at the critical instant.
    error_rate:
        Sustained error rate (errors per time unit) thereafter.
    recovery_time:
        Worst-case cost of one error: error frame + retransmission of
        the largest affected frame (caller computes it from the bus
        timing; see :meth:`recovery_time_for`).
    """

    burst_errors: int = 0
    error_rate: float = 0.0
    recovery_time: float = 0.0

    def __post_init__(self):
        if self.burst_errors < 0 or self.error_rate < 0 \
                or self.recovery_time < 0:
            raise ModelError("error-model parameters must be >= 0")

    def overhead(self, window: float) -> float:
        """Worst-case error overhead in a window of length *window*."""
        if window <= 0:
            return self.burst_errors * self.recovery_time
        count = self.burst_errors + math.ceil(window * self.error_rate)
        return count * self.recovery_time

    @staticmethod
    def recovery_time_for(bit_time: float,
                          max_frame_bits: int) -> float:
        """Per-error cost: 31-bit error frame + full retransmission."""
        return (31 + max_frame_bits) * bit_time


class SPNPScheduler(Scheduler):
    """Static-priority non-preemptive analysis (CAN-style arbitration)."""

    policy = "spnp"

    def __init__(self, utilization_limit: float = 1.0,
                 arbitration_eps: float = ARBITRATION_EPS,
                 error_model: Optional[CanErrorModel] = None):
        self.utilization_limit = utilization_limit
        self.arbitration_eps = arbitration_eps
        self.error_model = error_model

    def analyze(self, tasks: Sequence[TaskSpec],
                resource_name: str = "resource",
                reuse: Optional[dict] = None) -> ResourceResult:
        self.check_unique_names(tasks)
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

    def influence_fingerprint(self, task, tasks):
        """An SPNP result depends on the task itself, same-or-higher
        priorities (in order), the largest lower-priority C⁺ (the
        blocking term), and the arbitration/error parameters."""
        from .memo import spec_fingerprint
        own = spec_fingerprint(task)
        if own is None:
            return None
        parts = [("spnp", self.utilization_limit, self.arbitration_eps,
                  None if self.error_model is None else
                  (self.error_model.burst_errors,
                   self.error_model.error_rate,
                   self.error_model.recovery_time),
                  max((t.c_max for t in tasks
                       if t.priority > task.priority), default=0.0),
                  own)]
        for j in self._higher(task, tasks):
            fp = spec_fingerprint(j)
            if fp is None:
                return None
            parts.append(fp)
        return tuple(parts)

    def _blocking(self, task: TaskSpec,
                  tasks: Sequence[TaskSpec]) -> float:
        lower = [t for t in tasks if t.priority > task.priority]
        return max((t.c_max for t in lower), default=0.0) + task.blocking

    @staticmethod
    def _higher(task: TaskSpec,
                tasks: Sequence[TaskSpec]) -> Sequence[TaskSpec]:
        return [t for t in tasks
                if t is not task and t.priority <= task.priority]

    def _analyze_task(self, task: TaskSpec, tasks: Sequence[TaskSpec],
                      resource_name: str) -> TaskResult:
        higher = self._higher(task, tasks)
        blocking = self._blocking(task, tasks)
        eps = self.arbitration_eps

        error_model = self.error_model
        last_w = [None]

        def busy_time(q: int) -> float:
            def queuing(w: float) -> float:
                demand = blocking + (q - 1) * task.c_max
                for j in higher:
                    demand += j.event_model.eta_plus(w + eps) * j.c_max
                if error_model is not None:
                    demand += error_model.overhead(w + task.c_max)
                return demand

            start = blocking + (q - 1) * task.c_max \
                + sum(j.c_max for j in higher)
            w = fixed_point(queuing, start,
                            context=f"{resource_name}/{task.name} "
                                    f"SPNP q={q}",
                            resource=resource_name, task=task.name,
                            hint=last_w[0])
            last_w[0] = w
            return w + task.c_max

        r_max, busy_times, q_max = multi_activation_loop(
            task.event_model, busy_time,
            resource=resource_name, task=task.name)
        # Best case: the frame finds the bus idle and just transmits.
        return TaskResult(name=task.name, r_min=task.c_min, r_max=r_max,
                          busy_times=busy_times, q_max=q_max,
                          details={"blocking": blocking})

    def blame(self, task: TaskSpec, tasks: Sequence[TaskSpec],
              resource_name: str, result: TaskResult) -> Blame:
        """Decompose the WCRT at the critical activation.

        ``B(q*) = w + C⁺`` with ``w = blocking + (q*-1)·C⁺ +
        Σ η⁺_j(w+ε)·C_j⁺ + E(w + C⁺)`` exact at the fixed point; the own
        term folds the queued predecessors and the final transmission
        into q*·C⁺.
        """
        busy_times = result.busy_times
        blocking = self._blocking(task, tasks)
        arrivals = [task.event_model.delta_min(q)
                    for q in range(1, len(busy_times) + 1)]
        q = critical_activation(busy_times, arrivals)
        bq = busy_times[q - 1]
        w = bq - task.c_max
        eps = self.arbitration_eps
        terms = [BlameTerm(j.name, KIND_INTERFERENCE,
                           contribution=j.event_model.eta_plus(w + eps)
                           * j.c_max,
                           activations=j.event_model.eta_plus(w + eps),
                           c_max=j.c_max)
                 for j in self._higher(task, tasks)]
        extras = []
        if self.error_model is not None:
            extras.append(BlameTerm(
                "can.errors", KIND_ERRORS,
                contribution=self.error_model.overhead(w + task.c_max)))
        blocking_term = (BlameTerm(task.name, KIND_BLOCKING,
                                   contribution=blocking,
                                   note="lower-priority frame on the wire")
                         if blocking else None)
        return Blame(
            task=task.name, resource=resource_name, policy="spnp", q=q,
            busy_time=bq, arrival=arrivals[q - 1], wcrt=result.r_max,
            own=BlameTerm(task.name, KIND_OWN, contribution=q * task.c_max,
                          activations=q, c_max=task.c_max),
            blocking=blocking_term, interference=terms, extras=extras)
