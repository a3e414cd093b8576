"""Busy-window lanes: one description of a resource's q-loops, two
evaluators.

SPP and EDF state their busy-window recurrences once, as the lanes of a
:class:`Lanes` description each builds per resource.  Lane l is one
q-loop: task ``i = lane_task[l]`` at offset ``a = lane_offset[l]`` (an
SPP task at 0.0, an EDF (task, candidate offset) pair).  Its q-th busy
time B is the least fixed point of

    w = (blocking_i + q·C⁺_i) + Σ_{j ∈ interferers_i} min(η⁺_j(w), cap_j)·C⁺_j

started at ``(blocking_i + q·C⁺_i) + start_i``.  Without deadlines every
cap is ∞; with them (EDF) ``cap_j = η⁺_j(((a + δ⁻_i(q)) + D_i) − D_j +
DEADLINE_EPS)``.  The q-th response is ``B − δ⁻_i(q)``, and the window
closes once ``a + δ⁻_i(q+1) ≥ B − EPS``.  The schedulers' ``blame``
reads its terms off the same description (:meth:`Lanes.counts`).

:func:`run_lanes` evaluates a description one of two ways:

* **scalar** — each lane in turn through
  :func:`~repro.analysis.busy_window.fixed_point` and
  :func:`~repro.analysis.busy_window.multi_activation_loop`, warm-started
  from the previous q (:data:`~repro.analysis.busy_window.WARM_START`),
  with EDF's caps taken once per (lane, q).  It is the reference, the
  only evaluator without numpy, and it builds no array;
* **numpy** — one round per activation count q over every open lane.
  δ⁻_t(q) and δ⁻_t(q+1) are taken once per task with open lanes; the
  bases, starts, EDF caps (one vector η⁺ query per interferer column),
  responses and close tests are vector operations; and one joint vector
  fixed point per round (:func:`solve_round`) evaluates every
  interferer's η⁺ over the whole window vector at once
  (:class:`_TermPlan`), warm-starts each lane from its previous q and
  freezes lanes as they converge.

:func:`batch_worthwhile` picks the numpy rounds: numpy importable, at
least :data:`MIN_BATCH_LANES` estimated lanes and at least
:data:`MIN_BATCH_LOAD` utilization.  SPNP, round-robin and TDMA keep
their own loops over the :mod:`busy_window` helpers.

The convergence tests of :func:`solve_round` stay a per-lane python
loop (rounds average about 9 lanes, where numpy masks cost more than
they save; see ``docs/performance.md``).

Every numpy lane reproduces the *exact* float sequence of the scalar
evaluator: the same start, the same per-interferer accumulation order
(non-interferers add an exact ``+0.0``), the same deadline-cap
arguments, left to right, and the same convergence tests and budgets
(read from :mod:`busy_window` when they run) in the same order.  η⁺
vectorization dispatches per model type:

* :class:`~repro.eventmodels.standard.StandardEventModel` — elementwise
  replica of the closed form (same IEEE-754 ops);
* prefix-memo (Θ_τ, OR-join) / generic-η⁺ models — ``searchsorted``
  over the exact δ⁻ sample table, which *is* the generic
  pseudo-inverse;
* models that override ``eta_plus`` (superposition OR-join, hierarchical
  outer models, degraded envelopes) — per-lane scalar calls.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .._errors import NotSchedulableError
from ..eventmodels import base as _base
from ..eventmodels.base import EventModel, NullEventModel, unbounded_eta
from ..eventmodels.operations import PrefixMemoModel
from ..eventmodels.standard import StandardEventModel
from ..timebase import EPS, time_eq
from . import busy_window as _busy_window
from .busy_window import (
    DEADLINE_EPS,
    _WINDOW_BLOWUP,
    fixed_point,
    multi_activation_loop,
)

try:  # optional accelerator (the [fast] extra); absence is fully supported
    import numpy as _np
except Exception:  # pragma: no cover - then every analysis runs scalar
    _np = None

#: Below this estimated lane count a resource's batched run loses to the
#: scalar evaluator on pure bookkeeping (table/plan/lane setup dominates a
#: handful of short fixed points).
MIN_BATCH_LANES = 16

#: Below this resource utilization busy windows close after one or two
#: activations (length ~ C/(1-U)), so per-round vector setup can never
#: amortize no matter how many lanes there are.
MIN_BATCH_LOAD = 0.5

#: Rolling counters surfaced by ``stats()`` (and /healthz).
_STATS = {"batches": 0, "lanes": 0, "iterations": 0}


def batch_worthwhile(estimated_lanes: int, load: float) -> bool:
    """True when a resource with ~this many busy-window chains at ~this
    utilization should take the numpy evaluator.

    A pure speed decision — either evaluator is bit-identical.
    """
    return (_np is not None and estimated_lanes >= MIN_BATCH_LANES
            and load >= MIN_BATCH_LOAD)


def stats() -> Dict[str, Any]:
    """Snapshot of kernel activity for /healthz and ``repro top``."""
    return dict(_STATS)


# ----------------------------------------------------------------------
# the description
# ----------------------------------------------------------------------
class Lanes(NamedTuple):
    """One resource's busy-window recurrences (see the module docstring).

    Lane l is task ``tasks[lane_task[l]]`` at offset ``lane_offset[l]``.
    The per-task lists index *tasks*: ``interferers[i]`` holds the specs
    whose C⁺ enters task i's workload, in *tasks* order;
    ``blocking[i]`` and ``start_terms[i]`` open its windows.  With
    *capped* (EDF), each count is capped at the interferer's deadline
    count, the deadlines D being the specs'.  ``label(i, a, q)``
    prefixes a failing lane's error.  *error* is raised once every lane
    ran cleanly: EDF's enumeration budget error for the first task whose
    candidates hit it, after the q-loops of the tasks before it.
    """

    tasks: Sequence
    interferers: Sequence[Sequence]
    lane_task: List[int]
    lane_offset: List[float]
    label: Callable[[int, float, int], str]
    resource: str
    blocking: Sequence[float]
    start_terms: Sequence[float]
    capped: bool = False
    error: Optional[NotSchedulableError] = None

    def abs_deadline(self, lane: int, q: int) -> float:
        """``(a + δ⁻_i(q)) + D_i``: the absolute deadline of the lane's
        q-th job (EDF)."""
        task = self.tasks[self.lane_task[lane]]
        return ((self.lane_offset[lane] + task.event_model.delta_min(q))
                + task.deadline)

    def caps(self, lane: int, q: int) -> List[int]:
        """Each interferer's deadline count ``η⁺_j(d − D_j + ε)`` at the
        absolute deadline d of the lane's q-th job (EDF)."""
        d = self.abs_deadline(lane, q)
        return [j.event_model.eta_plus(d - j.deadline + DEADLINE_EPS)
                for j in self.interferers[self.lane_task[lane]]]

    def counts(self, lane: int, q: int, w: float) -> list:
        """``(j, η⁺_j(w), admitted)`` for each interferer j of the lane's
        q-th busy window at *w*, admitted being η⁺_j(w) capped at j's
        deadline count (EDF).  At w = B(q) the base plus Σ admitted·C⁺_j
        is B(q): the interference terms of ``blame``."""
        js = self.interferers[self.lane_task[lane]]
        arrived = [j.event_model.eta_plus(w) for j in js]
        caps = self.caps(lane, q) if self.capped else arrived
        return [(j, n, min(n, cap)) for j, n, cap in zip(js, arrived, caps)]


# ----------------------------------------------------------------------
# vector η⁺ evaluation
# ----------------------------------------------------------------------
_KIND_NULL = 0
_KIND_SEM = 1
_KIND_TABLE = 2
_KIND_SCALAR = 3

#: Initial δ⁻ sample count for table-backed models (grows geometrically).
_TABLE_SEED = 32


class EtaTable:
    """Vector η⁺ for one event model, bit-identical to ``model.eta_plus``.

    ``table``-kind models (Θ_τ and OR-join prefix memos, whose η⁺
    bisect equals the generic search in :meth:`EventModel.eta_plus`, and
    any model using that search) are evaluated by
    searching the exact δ⁻ sample prefix: the generic η⁺ *is* "largest n
    with δ⁻(n) < dt" (min 1 for dt > 0), which is
    ``searchsorted(δ⁻ samples, dt) - 1`` — no approximation involved.
    Standard models are evaluated in closed form by :class:`_TermPlan`;
    models that override ``eta_plus`` fall back to per-lane calls.
    """

    __slots__ = ("model", "kind", "_dmin", "_arr", "_p", "_j", "_d")

    def __init__(self, model: EventModel):
        self.model = model
        self._dmin: Optional[List[float]] = None
        self._arr = None
        if isinstance(model, NullEventModel):
            self.kind = _KIND_NULL
        elif isinstance(model, StandardEventModel):
            self.kind = _KIND_SEM
            self._p = model.period
            self._j = model.jitter
            self._d = model.d_min
        elif (isinstance(model, PrefixMemoModel)
              or type(model).eta_plus is EventModel.eta_plus):
            self.kind = _KIND_TABLE
            self._dmin = list(model.delta_min_block(_TABLE_SEED))
        else:
            self.kind = _KIND_SCALAR

    def _ensure(self, hi: float) -> None:
        """Grow the samples geometrically until the last one reaches
        *hi* or the table holds δ⁻(MAX_EVENTS + 1)."""
        dmin = self._dmin
        cap = _base.MAX_EVENTS + 1
        while dmin[-1] < hi and len(dmin) <= cap:
            dmin = list(self.model.delta_min_block(
                min(2 * (len(dmin) - 1), cap)))
            self._dmin = dmin
            self._arr = None

    def eta_many(self, xs):  # xs: float64 ndarray
        """η⁺ of a ``table``-kind model at every element of *xs*, as
        float64 exact counts; raises as ``eta_plus`` does at the first
        element whose count exceeds :data:`MAX_EVENTS`."""
        mx = float(xs.max()) if len(xs) else 0.0
        self._ensure(mx)
        if self._arr is None:
            self._arr = _np.asarray(self._dmin, dtype=float)
        ins = _np.searchsorted(self._arr, xs, side="left") - 1
        if len(self._dmin) > _base.MAX_EVENTS + 1:  # else ins <= the bound
            over = ins > _base.MAX_EVENTS
            if over.any():
                raise unbounded_eta(self.model, float(xs[over.argmax()]))
        res = _np.maximum(1, ins).astype(float)
        return _np.where(xs <= 0.0, 0.0, res)


class _TermPlan:
    """Per-resource numpy preparation shared by every round.

    Groups the interferer terms by :class:`EtaTable` kind so one
    evaluation touches numpy a *constant* number of times instead of a
    few ufuncs per term: all StandardEventModel columns evaluate as one
    2-D closed form, table columns as one ``searchsorted`` each, and
    the accumulation runs as a single row-``cumsum`` (sequential adds —
    the exact float association the scalar evaluator performs).
    """

    __slots__ = ("tables", "sem_cols", "table_cols", "scalar_cols",
                 "sem_p", "sem_j", "sem_d", "sem_has_d")

    def __init__(self, tables: Sequence[EtaTable]):
        self.tables = tables
        self.sem_cols = [j for j, t in enumerate(tables)
                         if t.kind == _KIND_SEM]
        self.table_cols = [j for j, t in enumerate(tables)
                           if t.kind == _KIND_TABLE]
        self.scalar_cols = [j for j, t in enumerate(tables)
                            if t.kind == _KIND_SCALAR]
        if self.sem_cols:
            self.sem_p = _np.asarray([tables[j]._p for j in self.sem_cols])
            self.sem_j = _np.asarray([tables[j]._j for j in self.sem_cols])
            d = _np.asarray([tables[j]._d for j in self.sem_cols])
            self.sem_has_d = d > 0
            # Guard the masked columns against divide-by-zero; their
            # quotient is discarded by the mask below.
            self.sem_d = _np.where(self.sem_has_d, d, 1.0)

    def select(self, used) -> Tuple[tuple, List[int]]:
        """The columns to evaluate, given which terms are *used* (one
        bool per term), and the dead columns the caller zero-fills.

        A column whose coefficient is zero in every lane contributes an
        exact +0.0 everywhere — skipping its η⁺ evaluation matches the
        scalar solvers, which never evaluate a non-interferer's model.
        """
        sem_pos = [k for k, j in enumerate(self.sem_cols) if used[j]]
        sem_out = [self.sem_cols[k] for k in sem_pos]
        table_cols = [j for j in self.table_cols if used[j]]
        scalar_cols = [j for j in self.scalar_cols if used[j]]
        live = set(sem_out) | set(table_cols) | set(scalar_cols)
        dead = [j for j in range(len(self.tables)) if j not in live]
        return (sem_pos, sem_out, table_cols, scalar_cols), dead

    def counts_matrix(self, xs, out, cols) -> None:
        """Fill ``out[:, j]`` with η⁺_j for the selected columns only.

        *xs* is either one window per lane (every column is evaluated
        at it) or a (lane x term) matrix (column j at ``xs[:, j]``, the
        EDF deadline caps).  *cols* comes from :meth:`select`;
        untouched columns are the caller's responsibility.
        """
        sem_pos, sem_out, table_cols, scalar_cols = cols
        per_column = xs.ndim == 2
        if sem_pos:
            whole = len(sem_pos) == len(self.sem_cols)
            p = self.sem_p if whole else self.sem_p[sem_pos]
            jit = self.sem_j if whole else self.sem_j[sem_pos]
            has_d = self.sem_has_d if whole else self.sem_has_d[sem_pos]
            dt = xs[:, sem_out] if per_column else xs[:, None]
            # Elementwise replica of StandardEventModel.eta_plus: the
            # same IEEE-754 divisions/floors, so counts match bit-wise.
            r1 = (dt + jit) / p
            f1 = _np.floor(r1)
            bound = _np.where(f1 == r1, f1 - 1.0, f1)
            if has_d.any():
                d = self.sem_d if whole else self.sem_d[sem_pos]
                r2 = dt / d
                f2 = _np.floor(r2)
                b2 = _np.where(f2 == r2, f2 - 1.0, f2)
                bound = _np.where(has_d, _np.minimum(bound, b2), bound)
            res = _np.maximum(1.0, bound + 1.0)
            out[:, sem_out] = _np.where(dt <= 0.0, 0.0, res)
        for j in table_cols:
            out[:, j] = self.tables[j].eta_many(
                xs[:, j] if per_column else xs)
        for j in scalar_cols:
            ep = self.tables[j].model.eta_plus
            col = xs[:, j] if per_column else xs
            out[:, j] = [float(ep(float(x))) for x in col]


# ----------------------------------------------------------------------
# joint vector fixed point
# ----------------------------------------------------------------------
def solve_round(starts: Sequence[float], hints: Sequence[Optional[float]],
                eval_fn: Callable[[Sequence[float], Sequence[int]],
                                  List[float]],
                contexts: Sequence[str], task_names: Sequence[str],
                resource_name: Optional[str],
                limit: float = _WINDOW_BLOWUP,
                ) -> Tuple[List[Optional[float]],
                           List[Optional[NotSchedulableError]],
                           List[int]]:
    """Jointly iterate every lane to its least fixed point.

    Each lane reproduces the scalar :func:`fixed_point` semantics
    (including the warm-start overshoot guard); converged and failed
    lanes are frozen out of subsequent evaluations.  Errors are
    *recorded*, not raised — :func:`run_lanes` decides which one the
    scalar evaluator would have hit first.  ``contexts[i]`` and
    ``task_names[i]`` are read only when lane i fails.
    """
    n = len(starts)
    ws = list(starts)
    guard = [False] * n
    for i, h in enumerate(hints):
        if _busy_window.WARM_START and h is not None and h > ws[i]:
            ws[i] = h
            guard[i] = True
    results: List[Optional[float]] = [None] * n
    errors: List[Optional[NotSchedulableError]] = [None] * n
    steps = [0] * n
    active = list(range(n))
    _STATS["batches"] += 1
    _STATS["lanes"] += n
    budget = _busy_window.MAX_FIXED_POINT_ITER
    for step in range(1, budget + 1):
        if not active:
            break
        _STATS["iterations"] += 1
        nxt = eval_fn([ws[i] for i in active], active)
        still = []
        for i, w_next in zip(active, nxt):
            w = ws[i]
            if w_next < w - EPS:
                if guard[i]:
                    # Stale warm-start hint overshot the fixed point:
                    # restart this lane from its cold start.
                    ws[i] = starts[i]
                    guard[i] = False
                    still.append(i)
                    continue
                errors[i] = NotSchedulableError(
                    f"{contexts[i]}: workload function not monotone "
                    f"({w_next} < {w})", resource=resource_name,
                    task=task_names[i],
                    context={"reason": "non_monotone_workload"})
                continue
            guard[i] = False
            if time_eq(w_next, w):
                results[i] = w_next
                steps[i] = step
                continue
            if w_next > limit:
                errors[i] = NotSchedulableError(
                    f"{contexts[i]}: busy window exceeds {limit}; resource "
                    f"overloaded", resource=resource_name,
                    task=task_names[i],
                    context={"reason": "busy_window_blowup",
                             "window": w_next, "limit": limit})
                continue
            ws[i] = w_next
            still.append(i)
        active = still
    for i in active:
        errors[i] = NotSchedulableError(
            f"{contexts[i]}: no fixed point within {budget} "
            f"iterations", resource=resource_name, task=task_names[i],
            context={"reason": "fixed_point_budget",
                     "iterations": budget})
    return results, errors, steps


# ----------------------------------------------------------------------
# the two evaluators
# ----------------------------------------------------------------------
def run_lanes(lanes: Lanes, estimated_lanes: int, load: float,
              ) -> List[Tuple[float, List[float], int]]:
    """Evaluate every lane of *lanes*: the numpy rounds when
    :func:`batch_worthwhile` admits (*estimated_lanes*, *load*), each
    lane the scalar way otherwise.

    Returns, per lane, its largest response (from 0.0), busy times and
    closing q.  A failing lane raises its error: the first errored lane
    *in lane order*, which is the one the scalar evaluator, finishing
    every earlier lane before a later one, meets first.  Then
    ``lanes.error`` raises, if set.
    """
    batched = lanes.lane_task and batch_worthwhile(estimated_lanes, load)
    out = (_run_numpy if batched else _run_scalar)(lanes)
    if lanes.error is not None:
        raise lanes.error
    return out


def _run_scalar(lanes: Lanes):
    return [_scalar_lane(lanes, lane) for lane in range(len(lanes.lane_task))]


def _scalar_lane(lanes: Lanes, lane: int):
    """One lane's q-loop through :func:`multi_activation_loop`, each
    busy time a :func:`fixed_point` warm-started from the last."""
    i, a = lanes.lane_task[lane], lanes.lane_offset[lane]
    task, others = lanes.tasks[i], lanes.interferers[i]
    em, c_own, block = task.event_model, task.c_max, lanes.blocking[i]
    extra, capped, label = lanes.start_terms[i], lanes.capped, lanes.label
    resource = lanes.resource
    last: List[Optional[float]] = [None]

    def busy_time(q: int) -> float:
        base = block + q * c_own
        if capped:
            bounded = list(zip(others, lanes.caps(lane, q)))

            def workload(w: float) -> float:
                demand = base
                for j, cap in bounded:
                    demand += min(j.event_model.eta_plus(w), cap) * j.c_max
                return demand
        else:
            def workload(w: float) -> float:
                demand = base
                for j in others:
                    demand += j.event_model.eta_plus(w) * j.c_max
                return demand

        last[0] = fixed_point(workload, base + extra,
                              context=label(i, a, q), resource=resource,
                              task=task.name, hint=last[0])
        return last[0]

    def window_closes(q: int, bq: float) -> bool:
        return a + em.delta_min(q + 1) >= bq - EPS

    return multi_activation_loop(em, busy_time, window_closes,
                                 resource=resource, task=task.name)


class _OnDemand:
    """Item i is ``fn(i)``, computed when indexed: a round hands
    :func:`solve_round` its lanes' error prefixes without formatting
    one for a lane that does not fail."""

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[int], str]):
        self._fn = fn

    def __getitem__(self, i: int) -> str:
        return self._fn(i)


def _run_numpy(lanes: Lanes):
    """Every lane's q-loop jointly, one round per activation count."""
    np = _np
    tasks, resource_name, label = lanes.tasks, lanes.resource, lanes.label
    lane_task, lane_offset = lanes.lane_task, lanes.lane_offset
    n = len(tasks)
    models = [t.event_model for t in tasks]
    names = [t.name for t in tasks]
    plan = _TermPlan([EtaTable(m) for m in models])
    c_max = np.asarray([t.c_max for t in tasks], dtype=float)
    position = {id(t): k for k, t in enumerate(tasks)}
    coeff_m = np.zeros((n, n))
    for i, others in enumerate(lanes.interferers):
        cols = [position[id(j)] for j in others]
        coeff_m[i, cols] = c_max[cols]
    block = np.asarray(lanes.blocking, dtype=float)
    extra = np.asarray(lanes.start_terms, dtype=float)
    dl = (np.asarray([t.deadline for t in tasks], dtype=float)
          if lanes.capped else None)
    task_of = np.asarray(lane_task, dtype=np.intp)
    offset = np.asarray(lane_offset, dtype=float)
    n_lanes = len(task_of)
    r_max = np.zeros(n_lanes)
    q_max = np.zeros(n_lanes, dtype=np.intp)
    busy: List[List[float]] = [[] for _ in range(n_lanes)]
    hints: List[Optional[float]] = [None] * n_lanes
    errors: List[Optional[NotSchedulableError]] = [None] * n_lanes
    dq = np.zeros(n)    # δ⁻_t(q), filled for tasks with open lanes
    dq1 = np.zeros(n)   # δ⁻_t(q + 1)
    open_lanes = np.arange(n_lanes)
    q = 0
    while len(open_lanes):
        q += 1
        ti = task_of[open_lanes]
        live = np.zeros(n, dtype=bool)
        live[ti] = True
        for t in np.flatnonzero(live).tolist():
            dq[t] = models[t].delta_min(q)
            dq1[t] = models[t].delta_min(q + 1)
        base = block[ti] + q * c_max[ti]
        rows = coeff_m[ti]
        cols, dead = plan.select(rows.any(axis=0))
        caps = None
        if dl is not None:
            # The scalar's association, left to right.
            x = ((((offset[open_lanes] + dq[ti]) + dl[ti])[:, None] - dl)
                 + DEADLINE_EPS)
            caps = np.full(x.shape, np.inf)
            plan.counts_matrix(x, caps, cols)
            caps[np.arange(len(open_lanes)), ti] = np.inf
        width = len(open_lanes)

        def eval_np(ws, idxs, base=base, rows=rows, caps=caps,
                    cols=cols, dead=dead, width=width):
            # One (lane x term) counts matrix per iteration, then one
            # sequential row-cumsum: column 0 carries the base, so the
            # running sum associates exactly like the scalar evaluator's
            # ``acc = base; acc += v_j`` (zero-coeff terms add an exact
            # +0.0, which is identity for the positive partial sums).
            if len(idxs) != width:
                sel = np.asarray(idxs, dtype=np.intp)
                base, rows = base[sel], rows[sel]
                if caps is not None:
                    caps = caps[sel]
            full = np.empty((len(idxs), n + 1))
            full[:, 0] = base
            counts = full[:, 1:]
            plan.counts_matrix(np.asarray(ws), counts, cols)
            if dead:
                counts[:, dead] = 0.0
            if caps is not None:
                np.minimum(counts, caps, out=counts)
            counts *= rows
            return np.cumsum(full, axis=1)[:, -1].tolist()

        open_list = open_lanes.tolist()
        values, errs, _steps = solve_round(
            (base + extra[ti]).tolist(), [hints[l] for l in open_list],
            eval_np,
            _OnDemand(lambda k, q=q, open_list=open_list: label(
                lane_task[open_list[k]], lane_offset[open_list[k]], q)),
            _OnDemand(lambda k, open_list=open_list:
                      names[lane_task[open_list[k]]]),
            resource_name)
        done, windows = [], []
        for l, w, err in zip(open_list, values, errs):
            if err is not None:
                errors[l] = err
                continue
            hints[l] = w
            busy[l].append(w)
            done.append(l)
            windows.append(w)
        open_lanes = np.asarray(done, dtype=np.intp)
        bq = np.asarray(windows, dtype=float)
        ti = task_of[open_lanes]
        response = bq - dq[ti]
        best = r_max[open_lanes]
        r_max[open_lanes] = np.where(response > best, response, best)
        closed = (offset[open_lanes] + dq1[ti]) >= (bq - EPS)
        q_max[open_lanes[closed]] = q
        open_lanes = open_lanes[~closed]
        if len(open_lanes) and q + 1 > _busy_window.MAX_ACTIVATIONS:
            budget = _busy_window.MAX_ACTIVATIONS
            for l in open_lanes.tolist():
                errors[l] = NotSchedulableError(
                    f"busy window did not close within {budget} "
                    f"activations", resource=resource_name,
                    task=names[lane_task[l]],
                    context={"reason": "activation_budget",
                             "activations": budget})
            open_lanes = open_lanes[:0]
    for err in errors:
        if err is not None:
            raise err
    return list(zip(r_max.tolist(), busy, q_max.tolist()))


__all__ = [
    "EtaTable",
    "Lanes",
    "MIN_BATCH_LANES",
    "MIN_BATCH_LOAD",
    "batch_worthwhile",
    "run_lanes",
    "solve_round",
    "stats",
]
