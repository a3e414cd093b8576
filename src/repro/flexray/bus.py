"""FlexRay static-segment analysis: time-triggered slots as a scheduler.

Each frame owns one static slot per communication cycle; queued
transmissions drain one per cycle.  The busy-window form (worst case:
the activation just misses its slot's transmission start):

    B(q) = (cycle - L + C) + (q - 1) * cycle
           └ wait for next slot ┘  └ one slot per later instance ┘

with L the slot length and C the frame's wire time (C <= L).  The frame
stream a receiver sees is exactly periodic at the cycle length with the
slot's offset — offset-aware receivers can exploit that via
:func:`repro.eventmodels.offset_join`.
"""

from __future__ import annotations

from typing import Dict, Sequence

from .._errors import ModelError, NotSchedulableError
from ..analysis.busy_window import multi_activation_loop
from ..analysis.interface import Scheduler, TaskSpec
from ..analysis.results import ResourceResult, TaskResult
from .timing import FlexRayConfig


class FlexRayStaticScheduler(Scheduler):
    """Static-segment FlexRay 'scheduling' analysis.

    Tasks are frames; ``TaskSpec.slot`` is interpreted as the *static
    slot index* (an integer 0 .. n_static_slots - 1).  ``c_max`` is the
    frame's wire time and must fit the slot.
    """

    policy = "flexray-static"

    def __init__(self, config: FlexRayConfig):
        self.config = config

    def analyze(self, tasks: Sequence[TaskSpec],
                resource_name: str = "flexray") -> ResourceResult:
        self.check_unique_names(tasks)
        config = self.config
        assigned: "Dict[int, str]" = {}
        for t in tasks:
            if t.slot is None or t.slot != int(t.slot):
                raise ModelError(
                    f"frame {t.name}: needs an integer static slot index")
            slot = int(t.slot)
            config.slot_offset(slot)  # range check
            if slot in assigned:
                raise ModelError(
                    f"frames {assigned[slot]} and {t.name} share static "
                    f"slot {slot}")
            assigned[slot] = t.name
            if t.c_max > config.slot_length + 1e-12:
                raise ModelError(
                    f"frame {t.name}: wire time {t.c_max} exceeds the "
                    f"static slot length {config.slot_length}")

        results = {}
        for t in tasks:
            results[t.name] = self._analyze_frame(t, resource_name)
        util = self.total_load(tasks)
        return ResourceResult(resource_name, util, results)

    def _analyze_frame(self, task: TaskSpec,
                       resource_name: str) -> TaskResult:
        config = self.config
        cycle = config.cycle_length

        # Rate admission: more than one activation per cycle on average
        # can never drain.
        rate = task.event_model.long_run_rate()
        if rate * cycle > 1.0 + 1e-9:
            raise NotSchedulableError(
                f"{resource_name}/{task.name}: {rate * cycle:.3f} "
                f"activations per cycle exceed one static slot per "
                f"cycle", resource=resource_name)

        wait = cycle - config.slot_length

        def busy_time(q: int) -> float:
            return wait + (q - 1) * cycle + task.c_max

        r_max, busy_times, q_max = multi_activation_loop(
            task.event_model, busy_time)
        return TaskResult(name=task.name, r_min=task.c_min, r_max=r_max,
                          busy_times=busy_times, q_max=q_max,
                          details={"slot": float(int(task.slot)),
                                   "cycle": cycle})
