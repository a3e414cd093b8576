"""Minimal discrete-event simulation engine.

A classic time-ordered event queue: callbacks scheduled at absolute times,
executed in (time, insertion order).  All simulators in this package
(preemptive CPU, CAN bus, COM layer) are built on this engine so an entire
sender→bus→receiver chain runs in a single coherent timeline.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Callable, List, Optional, Tuple

from .. import obs as _obs
from .._errors import ModelError
from ..obs.context import check_deadline

#: Events run, scheduled or generated per check of the job deadline.
CHECK_EVERY = 256


class Simulator:
    """Discrete-event executive."""

    def __init__(self):
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def schedule(self, time: float, action: Callable[[], None]) -> None:
        """Schedule *action* at absolute *time* (>= now)."""
        if time < self._now - 1e-12:
            raise ModelError(
                f"cannot schedule into the past ({time} < {self._now})")
        heapq.heappush(self._queue, (time, next(self._counter), action))

    def schedule_in(self, delay: float,
                    action: Callable[[], None]) -> None:
        """Schedule *action* after *delay* time units."""
        self.schedule(self._now + delay, action)

    def run_until(self, t_end: float) -> None:
        """Execute events up to and including *t_end*."""
        self._running = True
        executed = 0
        t_start = time.perf_counter() if _obs.enabled else 0.0
        while self._queue and self._running:
            if not executed % CHECK_EVERY:
                check_deadline()
            when, _, action = self._queue[0]
            if when > t_end:
                break
            heapq.heappop(self._queue)
            self._now = when
            action()
            executed += 1
        self._now = max(self._now, t_end)
        self._running = False
        if _obs.enabled and executed:
            elapsed = time.perf_counter() - t_start
            registry = _obs.metrics()
            registry.counter("sim.events").inc(executed)
            registry.histogram("sim.run_seconds").observe(elapsed)
            if elapsed > 0:
                registry.gauge("sim.events_per_second").set(
                    executed / elapsed)

    def stop(self) -> None:
        """Abort a running :meth:`run_until` after the current event."""
        self._running = False

    def pending_events(self) -> int:
        return len(self._queue)
