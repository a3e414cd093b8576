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
  task and by both paths: the scalar q-loops and the batched kernels
  (:func:`repro.analysis.kernels.run_lanes`, one lane per (task,
  candidate)).  The sweep is complete or it raises: when an interferer
  still has deadlines inside the busy period after
  :data:`~repro.analysis.busy_window.MAX_ACTIVATIONS` points, the
  analysis raises :class:`NotSchedulableError` (``context["reason"] ==
  "activation_budget"``) instead of returning the optimistic bound of a
  cut sweep; :func:`edf_demand_schedulable` does the same for its
  testing points.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .. import obs as _obs
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
from .busy_window import DEADLINE_EPS, MAX_ACTIVATIONS, fixed_point, \
    multi_activation_loop
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
            horizon = synchronous_busy_period(tasks,
                                              resource=resource_name)
            points = [_deadline_points(j, todo, horizon) for j in tasks]
            if kernels.batch_worthwhile(len(todo) * len(tasks), util):
                computed = self._analyze_batched(todo, tasks,
                                                 resource_name, horizon,
                                                 points)
            else:
                computed = {
                    t.name: self._analyze_task(
                        t, tasks, resource_name,
                        _candidates(t, tasks, points, horizon,
                                    resource_name))
                    for t in todo}
        results = {t.name: computed.get(t.name, reuse.get(t.name))
                   for t in tasks}
        return ResourceResult(resource_name, util, results)

    def _analyze_batched(self, todo: Sequence[TaskSpec],
                         tasks: Sequence[TaskSpec], resource_name: str,
                         horizon: float, points: "list[list[float]]",
                         ) -> dict:
        """All (task, candidate-offset) q-loops of the resource as the
        lanes of one kernel run; lane (i, a) caps interferer j's count
        at η⁺_j(((a + δ⁻_i(q)) + D_i) − D_j + ε)."""
        index = {t.name: i for i, t in enumerate(tasks)}
        lane_task, lane_offset, per_task = [], [], []
        budget_error = None
        for task in todo:
            try:
                candidates = _candidates(task, tasks, points, horizon,
                                         resource_name)
            except NotSchedulableError as exc:
                # The scalar loop would first finish the earlier tasks,
                # whose own errors take precedence.
                budget_error = exc
                break
            lane_task += [index[task.name]] * len(candidates)
            lane_offset += candidates
            per_task.append((task, candidates))
        r_max, busy_times, q_max = kernels.run_lanes(
            tasks, [[0.0 if j is i else j.c_max for j in tasks]
                    for i in tasks],
            lane_task, lane_offset,
            lambda i, a, q: f"{resource_name}/{tasks[i].name} EDF a={a} "
                            f"q={q}",
            resource_name, deadlines=[t.deadline for t in tasks])
        out = {}
        lane = 0
        for task, candidates in per_task:
            best_r = task.c_max
            best_busy = [task.c_max]
            best_q = 1
            best_a = 0.0
            for a in candidates:
                r_a = r_max[lane] - a
                if r_a > best_r:
                    best_r = r_a
                    best_busy = busy_times[lane]
                    best_q = q_max[lane]
                    best_a = a
                lane += 1
            out[task.name] = self._task_result(task, len(candidates),
                                               best_r, best_busy, best_q,
                                               best_a)
        if budget_error is not None:
            raise budget_error
        return out

    def _analyze_task(self, task: TaskSpec, tasks: Sequence[TaskSpec],
                      resource_name: str,
                      candidates: "list[float]") -> TaskResult:
        others = [t for t in tasks if t is not task]
        em = task.event_model

        best_r = task.c_max
        best_busy: "list[float]" = [task.c_max]
        best_q = 1
        best_a = 0.0
        for a in candidates:
            last_w = [None]

            def busy_time(q: int, _a: float = a, last_w=last_w) -> float:
                abs_deadline = _a + em.delta_min(q) + task.deadline

                def workload(w: float) -> float:
                    demand = q * task.c_max
                    for j in others:
                        n_arrived = j.event_model.eta_plus(w)
                        n_deadline = j.event_model.eta_plus(
                            abs_deadline - j.deadline + DEADLINE_EPS)
                        demand += min(n_arrived, n_deadline) * j.c_max
                    return demand

                w = fixed_point(workload, q * task.c_max,
                                context=f"{resource_name}/{task.name} "
                                        f"EDF a={_a} q={q}",
                                resource=resource_name, task=task.name,
                                hint=last_w[0])
                last_w[0] = w
                return w

            def window_closes(q: int, bq: float, _a: float = a) -> bool:
                return _a + em.delta_min(q + 1) >= bq - EPS

            r_a, busy_times, q_max = multi_activation_loop(
                em, busy_time, window_closes,
                resource=resource_name, task=task.name)
            r_a -= a  # responses are measured from task i's arrival
            if r_a > best_r:
                best_r = r_a
                best_busy = busy_times
                best_q = q_max
                best_a = a

        return self._task_result(task, len(candidates), best_r, best_busy,
                                 best_q, best_a)

    @staticmethod
    def _task_result(task: TaskSpec, candidates: int, r_max: float,
                     busy_times: "list[float]", q_max: int,
                     offset: float) -> TaskResult:
        """The result at the critical candidate offset, which
        :meth:`blame` reads back from ``details["offset"]``."""
        if _obs.enabled:
            registry = _obs.metrics()
            registry.counter("edf.tasks_analyzed").inc()
            registry.histogram("edf.candidate_offsets").observe(candidates)
            registry.histogram("edf.busy_window_activations").observe(
                q_max)
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
        abs_deadline = a + em.delta_min(q) + task.deadline
        terms = []
        for j in tasks:
            if j is task:
                continue
            n_arrived = j.event_model.eta_plus(bq)
            n_deadline = j.event_model.eta_plus(
                abs_deadline - j.deadline + DEADLINE_EPS)
            n = min(n_arrived, n_deadline)
            terms.append(BlameTerm(
                j.name, KIND_INTERFERENCE, contribution=n * j.c_max,
                activations=n, c_max=j.c_max,
                note=("deadline-limited" if n_deadline < n_arrived
                      else "")))
        return Blame(
            task=task.name, resource=resource_name, policy="edf", q=q,
            busy_time=bq, arrival=arrivals[q - 1], wcrt=result.r_max,
            own=BlameTerm(task.name, KIND_OWN, contribution=q * task.c_max,
                          activations=q, c_max=task.c_max),
            interference=terms,
            candidate={"offset": a, "abs_deadline": abs_deadline})
