"""Analysis-facing task description and the scheduler interface.

The analysis layer is deliberately decoupled from the system graph of
:mod:`repro.system`: local analyses consume plain :class:`TaskSpec` value
objects, which the system layer constructs from its richer task objects on
every global iteration.  That keeps each scheduling analysis a pure
function of (task set) → (results), directly unit-testable.

Priority convention
-------------------
**Smaller numeric value = higher priority** throughout the library,
matching CAN identifier semantics (lower ID wins arbitration).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from .._errors import ModelError
from ..eventmodels.base import EventModel
from .results import ResourceResult, TaskResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..explain.blame import Blame


@dataclass
class TaskSpec:
    """Everything a local analysis needs to know about one task.

    Attributes
    ----------
    name:
        Unique task name on its resource.
    c_min / c_max:
        Best-/worst-case core execution time (or frame transmission time).
    event_model:
        Activating event model (the *outer* model for hierarchical
        streams).
    priority:
        Static priority; smaller = higher.  Used by SPP/SPNP.
    slot:
        Time-slot or quantum length for TDMA / round-robin.
    deadline:
        Relative deadline, used by EDF.
    blocking:
        Direct blocking time from shared resources (the priority-ceiling
        term B_i: the longest lower-priority critical section that can
        delay this task once per busy window).  Added to the SPP busy
        window; SPNP adds it on top of the transmission blocking.
    """

    name: str
    c_min: float
    c_max: float
    event_model: EventModel
    priority: int = 0
    slot: Optional[float] = None
    deadline: Optional[float] = None
    blocking: float = 0.0

    def __post_init__(self):
        if self.c_min < 0 or self.c_max < self.c_min:
            raise ModelError(
                f"task {self.name}: need 0 <= c_min <= c_max, got "
                f"[{self.c_min}, {self.c_max}]")
        if self.c_max == 0:
            raise ModelError(f"task {self.name}: c_max must be positive")
        if self.blocking < 0:
            raise ModelError(
                f"task {self.name}: blocking must be >= 0, got "
                f"{self.blocking}")

    def load(self) -> float:
        """Long-run processor demand of this task: ``c_max`` times the
        activating stream's
        :meth:`~repro.eventmodels.base.EventModel.long_run_rate`."""
        return self.c_max * self.event_model.long_run_rate()


class Scheduler(ABC):
    """A local scheduling analysis: maps a task set to response times."""

    #: Human-readable policy name ("spp", "spnp", ...).
    policy: str = "abstract"

    @abstractmethod
    def analyze(self, tasks: Sequence[TaskSpec],
                resource_name: str = "resource") -> ResourceResult:
        """Run the local analysis; raises
        :class:`~repro._errors.NotSchedulableError` on overload.

        Concrete schedulers additionally accept a ``reuse`` keyword: a
        ``{task_name: TaskResult}`` mapping of results known to still be
        valid (see :mod:`repro.analysis.memo`).  A scheduler may skip
        re-deriving those tasks — set-wide validity checks (utilization,
        unique names, parameter validation) always run fresh.
        """

    def blame(self, task: TaskSpec, tasks: Sequence[TaskSpec],
              resource_name: str, result: TaskResult) -> "Optional[Blame]":
        """Decompose *task*'s worst-case response time at its critical
        activation into own, blocking and per-interferer terms.

        *result* is *task*'s entry of ``analyze(tasks, resource_name)``;
        the decomposition re-evaluates the workload terms at its
        busy times.  ``None`` when the policy has no decomposition.
        """
        return None

    def influence_fingerprint(self, task: TaskSpec,
                              tasks: Sequence[TaskSpec]):
        """Canonical key of everything *task*'s :class:`TaskResult`
        depends on under this policy, or ``None`` when unknown.

        The contract backing per-task incremental reuse: if two calls to
        :meth:`analyze` present the same influence fingerprint for a
        task, its ``TaskResult`` is identical (local analyses are pure
        functions of their spec sets).  The default covers *every* spec
        plus the scheduler parameters — universally sound, never over-
        eager.  Policies with a narrower dependency cone override it
        (SPP: same-or-higher priorities; TDMA: own spec + cycle length).
        """
        from .memo import resource_fingerprint
        return resource_fingerprint(self, tasks)

    @staticmethod
    def total_load(tasks: Sequence[TaskSpec]) -> float:
        """The utilisation every scheduler checks against its limit."""
        return sum(t.load() for t in tasks)

    @staticmethod
    def check_unique_names(tasks: Sequence[TaskSpec]) -> None:
        seen = set()
        for t in tasks:
            if t.name in seen:
                raise ModelError(f"duplicate task name {t.name!r}")
            seen.add(t.name)
