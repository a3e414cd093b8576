"""Earliest-deadline-first (EDF) analysis.

Two entry points:

* :func:`edf_demand_schedulable` — the processor-demand criterion over the
  synchronous busy period: ``Σ_i dbf_i(t) <= t`` for every testing point,
  where ``dbf_i(t) = η⁺_i(t - D_i + ε) * C_i⁺`` counts jobs whose arrival
  *and* deadline fall inside ``[0, t]``.

* :class:`EDFScheduler` — conservative response-time bounds in the style
  of Spuri's deadline-busy-period analysis.  Unlike fixed priorities,
  EDF has no synchronous critical instant: the worst case for task i can
  have the interfering tasks released *before* i, so that their absolute
  deadlines land at or just before i's.  The analysis therefore examines
  a set of candidate offsets ``a`` of task i's first job into a busy
  window that opens with all other tasks released synchronously:

      a ∈ {0} ∪ {δ⁻_j(k) + D_j - D_i : j ≠ i, k >= 1, 0 < a < L}

  (L = synchronous busy period of the whole task set; the candidates
  align i's deadline with each interferer deadline, which is where the
  interference bound below jumps).  For the q-th job of task i at offset
  ``a`` (arrival a + δ⁻_i(q), absolute deadline d = a + δ⁻_i(q) + D_i),
  only jobs of j with deadlines at or before d interfere:

      n_j(d) = η⁺_j(d - D_j + ε)
      B_i(a, q): w = q * C_i⁺ + Σ_{j ≠ i} min(η⁺_j(w), n_j(d)) * C_j⁺
      r_i = max over a, q of max(B_i(a, q) - a - δ⁻_i(q), C_i⁺)

  Every (a, q) bound is individually conservative (η⁺ is phase
  independent), and the candidate sweep covers the deadline alignments
  where the true worst case occurs, so the maximum upper-bounds the
  exact worst-case response time.  Ties in absolute deadline are counted
  as interference (the ``+ ε``), which also covers FIFO tie-breaking.

  The interferers' deadline points ``δ⁻_j(k) + D_j`` are enumerated once
  per resource (:func:`_deadline_points`) and shared by every analysed
  task.  Each (task, candidate) q-loop is one lane of the
  :class:`~repro.analysis.kernels.Lanes` description that
  :meth:`EDFScheduler._lanes` builds once per resource;
  :func:`~repro.analysis.kernels.run_lanes` evaluates it (scalar, or
  numpy rounds for many lanes at high load) and
  :meth:`EDFScheduler.blame` reads its terms off it.  The sweep is
  complete or it raises: when an interferer
  still has deadlines inside the busy period after
  :data:`~repro.analysis.busy_window.MAX_ACTIVATIONS` points, the
  analysis raises :class:`NotSchedulableError` (``context["reason"] ==
  "activation_budget"``) instead of returning the optimistic bound of a
  cut sweep; :func:`edf_demand_schedulable` does the same for its
  testing points.
"""

from __future__ import annotations

from itertools import groupby
from typing import Optional, Sequence

from .._errors import ModelError, NotSchedulableError
from ..explain.blame import (
    KIND_INTERFERENCE,
    KIND_OWN,
    Blame,
    BlameTerm,
    critical_activation,
)
from ..timebase import EPS
from . import kernels
from .busy_window import DEADLINE_EPS, MAX_ACTIVATIONS, fixed_point
from .interface import Scheduler, TaskSpec
from .results import ResourceResult, TaskResult


def synchronous_busy_period(tasks: Sequence[TaskSpec],
                            resource: str = None) -> float:
    """Length of the longest processor busy period after a synchronous
    release (all streams fire together at t = 0)."""

    def workload(w: float) -> float:
        return sum(t.event_model.eta_plus(w) * t.c_max for t in tasks)

    start = sum(t.c_max for t in tasks)
    return fixed_point(workload, start, context="EDF busy period",
                       resource=resource)


def edf_demand_schedulable(tasks: Sequence[TaskSpec],
                           resource: str = None) -> bool:
    """Processor-demand schedulability test for EDF.

    Tests every absolute deadline inside the synchronous busy period.
    Requires every task to carry a relative ``deadline``.  Raises
    :class:`NotSchedulableError` when a task has more than
    :data:`MAX_ACTIVATIONS` deadlines inside the busy period, rather
    than answer for points it never tested.
    """
    for t in tasks:
        if t.deadline is None or t.deadline <= 0:
            raise ModelError(f"EDF task {t.name} needs a positive deadline")
    horizon = synchronous_busy_period(tasks, resource=resource)
    # Testing points: every absolute deadline of every task within the
    # busy period.
    points = set()
    for t in tasks:
        k = 1
        while True:
            d = t.event_model.delta_min(k) + t.deadline
            if d > horizon + EPS:
                break
            if k > MAX_ACTIVATIONS:
                raise NotSchedulableError(
                    f"EDF demand test: deadlines of {t.name} did not pass "
                    f"the busy period within {MAX_ACTIVATIONS} "
                    f"activations", resource=resource, task=t.name,
                    context={"reason": "activation_budget",
                             "activations": MAX_ACTIVATIONS})
            points.add(d)
            k += 1
    for point in sorted(points):
        demand = 0.0
        for t in tasks:
            jobs = t.event_model.eta_plus(point - t.deadline + DEADLINE_EPS)
            demand += jobs * t.c_max
        if demand > point + EPS:
            return False
    return True


def _deadline_points(j: TaskSpec, todo: Sequence[TaskSpec],
                     horizon: float) -> "list[float]":
    """Task j's absolute deadlines δ⁻_j(k) + D_j, k = 1, 2, ..., as far
    as any analysed task i ≠ j needs them: through the first point p
    with ``p − D_i ≥ L − EPS`` for the largest such D_i (a smaller D_i
    stops at or before it), and at most :data:`MAX_ACTIVATIONS` + 1
    points: the budget bounds the points inside the busy period, and one
    more shows that the sweep has passed it.

    Computed once per stream per resource, one δ⁻ call per k.
    """
    far = max((i.deadline for i in todo if i is not j), default=None)
    if far is None:
        return []
    em, limit = j.event_model, horizon - EPS
    points: "list[float]" = []
    for k in range(1, MAX_ACTIVATIONS + 2):
        p = em.delta_min(k) + j.deadline
        points.append(p)
        if p - far >= limit:
            break
    return points


def _candidates(task: TaskSpec, tasks: Sequence[TaskSpec],
                points: "list[list[float]]", horizon: float,
                resource_name: str) -> "list[float]":
    """Offsets of task i's first job into the busy window at which its
    absolute deadline aligns with an interferer's deadline (the jump
    points of the deadline-limited interference bound): ``{0} ∪
    {p − D_i : EPS < p − D_i < L − EPS}`` over the interferers'
    deadline points *p* (:func:`_deadline_points`, in *tasks* order).

    Raises :class:`NotSchedulableError` when an interferer has more
    than :data:`MAX_ACTIVATIONS` points with ``p − D_i < L − EPS``: a
    sweep cut there would miss alignments and return an optimistic
    bound.
    """
    offsets = {0.0}
    limit = horizon - EPS
    for j, pts in zip(tasks, points):
        if j is task:
            continue
        for p in pts:
            a = p - task.deadline
            if a >= limit:
                break  # δ⁻ is non-decreasing, so a only grows
            if a > EPS:
                offsets.add(a)
        else:
            raise NotSchedulableError(
                f"{resource_name}/{task.name} EDF: deadlines of {j.name} "
                f"did not pass the busy period within {MAX_ACTIVATIONS} "
                f"activations", resource=resource_name, task=task.name,
                context={"reason": "activation_budget",
                         "activations": MAX_ACTIVATIONS})
    return sorted(offsets)


class EDFScheduler(Scheduler):
    """Deadline-based conservative EDF response-time analysis."""

    policy = "edf"

    def __init__(self, utilization_limit: float = 1.0):
        self.utilization_limit = utilization_limit

    def analyze(self, tasks: Sequence[TaskSpec],
                resource_name: str = "resource",
                reuse: Optional[dict] = None) -> ResourceResult:
        self.check_unique_names(tasks)
        for t in tasks:
            if t.deadline is None or t.deadline <= 0:
                raise ModelError(
                    f"EDF task {t.name} needs a positive deadline")
        util = self.total_load(tasks)
        if util > self.utilization_limit + 1e-9:
            raise NotSchedulableError(
                f"{resource_name}: utilization {util:.4f} exceeds "
                f"{self.utilization_limit}", resource=resource_name,
                utilization=util)
        reuse = reuse or {}
        todo = [t for t in tasks if t.name not in reuse]
        computed = {}
        if todo:
            lanes = self._lanes(todo, tasks, resource_name)
            out = kernels.run_lanes(lanes, len(todo) * len(tasks), util)
            # A task's lanes are consecutive, in candidate order; the
            # first candidate to raise the response keeps the lead.
            for i, group in groupby(zip(lanes.lane_task, lanes.lane_offset,
                                        out), key=lambda lane: lane[0]):
                task = tasks[i]
                best = (task.c_max, [task.c_max], 1, 0.0)
                for _, a, (r_max, busy_times, q_max) in group:
                    r_a = r_max - a  # measured from i's arrival
                    if r_a > best[0]:
                        best = (r_a, busy_times, q_max, a)
                computed[task.name] = self._task_result(task, *best)
        results = {t.name: computed.get(t.name, reuse.get(t.name))
                   for t in tasks}
        return ResourceResult(resource_name, util, results)

    def _lanes(self, todo: Sequence[TaskSpec], tasks: Sequence[TaskSpec],
               resource_name: str) -> kernels.Lanes:
        """Every (task, candidate offset) q-loop of *todo* as a lane:
        B_i(a, q) is the least fixed point of ``w = q·C⁺ + Σ_{j ≠ i}
        min(η⁺_j(w), n_j(d))·C_j⁺``, started at q·C⁺.  The first task
        whose candidates hit the budget ends the lanes; its error is
        raised after the lanes of the tasks before it ran."""
        horizon = synchronous_busy_period(tasks, resource=resource_name)
        points = [_deadline_points(j, todo, horizon) for j in tasks]
        index = {t.name: i for i, t in enumerate(tasks)}
        lane_task, lane_offset, error = [], [], None
        for task in todo:
            try:
                candidates = _candidates(task, tasks, points, horizon,
                                         resource_name)
            except NotSchedulableError as exc:
                error = exc
                break
            lane_task += [index[task.name]] * len(candidates)
            lane_offset += candidates
        zeros = [0.0] * len(tasks)
        return kernels.Lanes(
            tasks, [[j for j in tasks if j is not i] for i in tasks],
            lane_task, lane_offset,
            lambda i, a, q: f"{resource_name}/{tasks[i].name} EDF a={a} "
                            f"q={q}",
            resource_name, zeros, zeros, True, error)

    @staticmethod
    def _task_result(task: TaskSpec, r_max: float,
                     busy_times: "list[float]", q_max: int,
                     offset: float) -> TaskResult:
        """The result at the critical candidate offset, which
        :meth:`blame` reads back from ``details["offset"]``."""
        return TaskResult(name=task.name, r_min=task.c_min, r_max=r_max,
                          busy_times=busy_times, q_max=q_max,
                          details={"offset": offset})

    def blame(self, task: TaskSpec, tasks: Sequence[TaskSpec],
              resource_name: str, result: TaskResult) -> Blame:
        """Decompose the WCRT at the critical candidate (a*, q*).

        At the fixed point ``B = q*·C⁺ + Σ min(η⁺_j(B), n_j(d))·C_j⁺``
        with ``d`` the critical job's absolute deadline; terms whose
        arrival count exceeds the deadline-eligible count are marked
        ``deadline-limited`` — the interference EDF filters out is
        exactly what fixed priorities would have charged.
        """
        busy_times = result.busy_times
        a = result.details["offset"]
        em = task.event_model
        arrivals = [a + em.delta_min(q)
                    for q in range(1, len(busy_times) + 1)]
        q = critical_activation(busy_times, arrivals)
        bq = busy_times[q - 1]
        lanes = self._lanes([task], tasks, resource_name)
        lane = lanes.lane_offset.index(a)
        terms = [BlameTerm(j.name, KIND_INTERFERENCE,
                           contribution=n * j.c_max, activations=n,
                           c_max=j.c_max,
                           note="deadline-limited" if n < arrived else "")
                 for j, arrived, n in lanes.counts(lane, q, bq)]
        return Blame(
            task=task.name, resource=resource_name, policy="edf", q=q,
            busy_time=bq, arrival=arrivals[q - 1], wcrt=result.r_max,
            own=BlameTerm(task.name, KIND_OWN, contribution=q * task.c_max,
                          activations=q, c_max=task.c_max),
            interference=terms,
            candidate={"offset": a,
                       "abs_deadline": lanes.abs_deadline(lane, q)})
