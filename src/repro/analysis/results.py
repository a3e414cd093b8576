"""Result containers for local and global analyses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class TaskResult:
    """Outcome of a local scheduling analysis for one task.

    Attributes
    ----------
    name:
        Task name.
    r_min:
        Best-case (minimum) response time r⁻.
    r_max:
        Worst-case (maximum) response time r⁺.
    busy_times:
        ``busy_times[q - 1]`` is the q-event busy time B(q) examined by
        the busy-window analysis (empty for analyses that do not use busy
        windows).
    q_max:
        Number of activations examined before the busy window closed.
    details:
        Analysis-specific diagnostics (e.g. blocking term for SPNP,
        critical offset for EDF).  The WCRT decomposition is not stored
        here: :meth:`repro.analysis.interface.Scheduler.blame` derives
        it from this result on demand.
    degraded:
        True when this result was produced (or substituted) by the
        degraded-analysis path of :mod:`repro.resilience` rather than a
        clean local analysis; the bounds are then conservative
        over-approximations, not tight CPA results.
    """

    name: str
    r_min: float
    r_max: float
    busy_times: List[float] = field(default_factory=list)
    q_max: int = 0
    details: Dict[str, float] = field(default_factory=dict)
    degraded: bool = False

    @property
    def response_jitter(self) -> float:
        """r⁺ - r⁻: the jitter this task adds to its output stream."""
        return self.r_max - self.r_min


@dataclass
class ResourceResult:
    """Results of one local analysis run over a whole resource.

    ``health`` is ``"ok"`` for a clean analysis; the degraded-analysis
    path of :mod:`repro.resilience` marks failed resources
    ``"overloaded"``, ``"diverged"``, or ``"quarantined"`` instead.
    """

    resource: str
    utilization: float
    task_results: Dict[str, TaskResult]
    health: str = "ok"

    def __getitem__(self, task_name: str) -> TaskResult:
        return self.task_results[task_name]

    def wcrt(self, task_name: str) -> float:
        return self.task_results[task_name].r_max


@dataclass
class SystemResult:
    """Converged outcome of the global compositional iteration."""

    iterations: int
    converged: bool
    resource_results: Dict[str, ResourceResult]
    path_latencies: Dict[str, float] = field(default_factory=dict)

    def wcrt(self, task_name: str) -> Optional[float]:
        """Worst-case response time of a task, searched across resources."""
        for rr in self.resource_results.values():
            if task_name in rr.task_results:
                return rr.task_results[task_name].r_max
        return None

    def task_result(self, task_name: str) -> Optional[TaskResult]:
        for rr in self.resource_results.values():
            if task_name in rr.task_results:
                return rr.task_results[task_name]
        return None
