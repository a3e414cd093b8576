"""Batched busy-window kernels: numpy joint fixed points for SPP and EDF.

The scalar solvers iterate one ``fixed_point`` per task per activation
count q, re-walking every interferer's ``eta_plus(w) * c_max`` one
python call at a time.  For the two policies where that pays
(:mod:`spp` and :mod:`edf`), this module batches the work in one
function, :func:`run_lanes`:

* **lanes described as arrays** — every busy-window chain (an SPP task,
  or an EDF (task, candidate-offset) pair) is one lane.  A resource
  describes its lanes with arrays: each lane's task index and offset
  ``a``, an n×n coefficient matrix (row i holds the C⁺ of i's
  interferers, ``0.0`` elsewhere), each task's blocking and start term,
  and for EDF the relative deadlines.  EDF enumerates its candidate
  offsets once per resource, for both paths, and raises when the
  enumeration hits its budget (see :mod:`repro.analysis.edf`);
* **one round per activation count q** — δ⁻_t(q) and δ⁻_t(q+1) are
  taken once per task with open lanes; the lanes' bases and starts,
  the EDF deadline caps (one vector η⁺ query per interferer column),
  the responses and the window-close tests are vector operations over
  the round's open lanes;
* **one joint vector iteration per round** — every open lane
  contributes one element to a shared window vector ``w``; each
  iteration evaluates every interferer's η⁺ over the whole vector at
  once (:class:`_TermPlan`), applies per-lane coefficients and deadline
  caps, and advances all lanes in lockstep (:func:`solve_round`),
  freezing lanes as they converge;
* **warm starts within a q-chain** — the converged q-window seeds the
  (q+1)-window iteration, exactly as the scalar loops do (see
  :data:`repro.analysis.busy_window.WARM_START`).

The convergence tests of :func:`solve_round` (warm-start guard,
monotonicity, ``time_eq``, blow-up, iteration budget) stay a per-lane
python loop: a round of the 40-task SPP resource in the
``sweep-incremental`` benchmark averages about 9 lanes, where numpy
masks cost more than they save.  Error messages are formatted only for
lanes that fail.

The batched path needs numpy (``pip install repro[fast]``).  A solver
takes it only when :func:`batch_worthwhile` says so: numpy importable,
at least :data:`MIN_BATCH_LANES` lanes and at least
:data:`MIN_BATCH_LOAD` utilization.  Everything else — and every SPNP,
round-robin and TDMA resource — runs the scalar loops, which stay the
reference the tests compare against.

Bit-identity contract
---------------------
Every lane reproduces the *exact* float sequence the scalar solver
would compute: identical start expression, identical per-interferer
accumulation order (inactive interferers contribute an exact ``+0.0``),
identical deadline-cap arguments (``((a + δ⁻_i(q)) + D_i) − D_j + ε``,
left to right), identical convergence/limit tests in the same order.
η⁺ vectorization dispatches per model type:

* :class:`~repro.eventmodels.standard.StandardEventModel` — elementwise
  replica of the closed form (same IEEE-754 ops);
* prefix-memo (Θ_τ, OR-join) / generic-η⁺ models — ``searchsorted``
  over the exact δ⁻ sample table, which *is* the generic
  pseudo-inverse;
* models that override ``eta_plus`` (superposition OR-join, hierarchical
  outer models, degraded envelopes) — per-lane scalar calls.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs as _obs
from .._errors import NotSchedulableError, UnboundedStreamError
from ..eventmodels.base import MAX_EVENTS, EventModel, NullEventModel
from ..eventmodels.operations import PrefixMemoModel
from ..eventmodels.standard import StandardEventModel
from ..timebase import EPS, time_eq
from . import busy_window as _busy_window
from .busy_window import (
    DEADLINE_EPS,
    MAX_ACTIVATIONS,
    MAX_FIXED_POINT_ITER,
    _WINDOW_BLOWUP,
)

try:  # optional accelerator (the [fast] extra); absence is fully supported
    import numpy as _np
except Exception:  # pragma: no cover - then every analysis runs scalar
    _np = None

#: Below this estimated lane count a resource's batched run loses to the
#: scalar loops on pure bookkeeping (table/plan/lane setup dominates a
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
    utilization should take the batched path.

    A pure speed decision — either path is bit-identical.
    """
    return (_np is not None and estimated_lanes >= MIN_BATCH_LANES
            and load >= MIN_BATCH_LOAD)


def stats() -> Dict[str, Any]:
    """Snapshot of kernel activity for /healthz and ``repro top``."""
    return dict(_STATS)


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
        dmin = self._dmin
        while dmin[-1] < hi:
            top = len(dmin) - 1
            if top > MAX_EVENTS:
                raise UnboundedStreamError(
                    f"eta_plus({hi!r}) exceeds {MAX_EVENTS} events for "
                    f"{self.model!r}; the stream has no effective rate limit")
            dmin = list(self.model.delta_min_block(2 * top))
            self._dmin = dmin
            self._arr = None

    def eta_many(self, xs):  # xs: float64 ndarray
        """η⁺ of a ``table``-kind model at every element of *xs*, as
        float64 exact counts."""
        mx = float(xs.max()) if len(xs) else 0.0
        self._ensure(mx)
        if self._arr is None:
            self._arr = _np.asarray(self._dmin, dtype=float)
        ins = _np.searchsorted(self._arr, xs, side="left") - 1
        res = _np.maximum(1, ins).astype(float)
        return _np.where(xs <= 0.0, 0.0, res)


class _TermPlan:
    """Per-resource numpy preparation shared by every round.

    Groups the interferer terms by :class:`EtaTable` kind so one
    evaluation touches numpy a *constant* number of times instead of a
    few ufuncs per term: all StandardEventModel columns evaluate as one
    2-D closed form, table columns as one ``searchsorted`` each, and
    the accumulation runs as a single row-``cumsum`` (sequential adds —
    the exact float association the scalar loop performs).
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
    scalar path would have hit first.  ``contexts[i]`` and
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
    for step in range(1, MAX_FIXED_POINT_ITER + 1):
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
            f"{contexts[i]}: no fixed point within {MAX_FIXED_POINT_ITER} "
            f"iterations", resource=resource_name, task=task_names[i],
            context={"reason": "fixed_point_budget",
                     "iterations": MAX_FIXED_POINT_ITER})
    if _obs.enabled:
        registry = _obs.metrics()
        registry.counter("kernel.batches").inc()
        registry.counter("kernels.vector_lanes").inc(n)
        registry.histogram("kernel.batch_lanes").observe(n)
        converged = registry.counter("busy_window.fixed_point_calls")
        it_hist = registry.histogram("busy_window.fixed_point_iterations")
        for i in range(n):
            if results[i] is not None:
                converged.inc()
                it_hist.observe(steps[i])
    return results, errors, steps


# ----------------------------------------------------------------------
# lanes (the batched multi_activation_loop)
# ----------------------------------------------------------------------
class _OnDemand:
    """Item i is ``fn(i)``, computed when indexed: a round hands
    :func:`solve_round` its lanes' error prefixes without formatting
    one for a lane that does not fail."""

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[int], str]):
        self._fn = fn

    def __getitem__(self, i: int) -> str:
        return self._fn(i)


def run_lanes(tasks: Sequence, coeffs: Sequence[Sequence[float]],
              lane_task: Sequence[int], lane_offset: Sequence[float],
              label: Callable[[int, float, int], str], resource_name: str,
              blocking: Optional[Sequence[float]] = None,
              start_terms: Optional[Sequence[float]] = None,
              deadlines: Optional[Sequence[float]] = None,
              ) -> Tuple[List[float], List[List[float]], List[int]]:
    """Drive every lane's q-loop jointly, one round per activation count.

    *tasks* are the resource's task specs; every other argument indexes
    them.  Lane l belongs to task ``i = lane_task[l]`` at offset
    ``a = lane_offset[l]``.  Its q-th busy time B is the least fixed
    point of

        w = (blocking_i + q·C⁺_i) + Σ_j min(η⁺_j(w), cap_j) · coeffs[i][j]

    started at ``(blocking_i + q·C⁺_i) + start_terms_i``.  Without
    *deadlines* every cap is ∞; with them (EDF) ``cap_j =
    η⁺_j(((a + δ⁻_i(q)) + D_i) − D_j + DEADLINE_EPS)``, ∞ on the lane's
    own column.  The response is ``B − δ⁻_i(q)`` and the window closes
    once ``a + δ⁻_i(q+1) ≥ B − EPS`` (for ``a = 0.0`` the scalar's
    ``δ⁻_i(q+1) ≥ B − EPS``).

    Returns, per lane, the largest response (from 0.0), the busy times
    and the closing q.  Every lane runs to a terminal state; then the
    first errored lane *in lane order* raises — the error the scalar
    loops, which finish every earlier chain before a later one, surface
    first.  ``label(i, a, q)`` formats a failing lane's error prefix,
    with *a* as given in *lane_offset* (python floats print as the
    scalar path prints them).
    """
    np = _np
    n = len(tasks)
    models = [t.event_model for t in tasks]
    names = [t.name for t in tasks]
    plan = _TermPlan([EtaTable(m) for m in models])
    coeff_m = np.asarray(coeffs, dtype=float).reshape(n, n)
    c_max = np.asarray([t.c_max for t in tasks], dtype=float)
    zeros = np.zeros(n)
    block = zeros if blocking is None else np.asarray(blocking, dtype=float)
    extra = (zeros if start_terms is None
             else np.asarray(start_terms, dtype=float))
    dl = None if deadlines is None else np.asarray(deadlines, dtype=float)
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
    lanes = np.arange(n_lanes)
    q = 0
    while len(lanes):
        q += 1
        ti = task_of[lanes]
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
            x = ((((offset[lanes] + dq[ti]) + dl[ti])[:, None] - dl)
                 + DEADLINE_EPS)
            caps = np.full(x.shape, np.inf)
            plan.counts_matrix(x, caps, cols)
            caps[np.arange(len(lanes)), ti] = np.inf
        width = len(lanes)

        def eval_np(ws, idxs, base=base, rows=rows, caps=caps,
                    cols=cols, dead=dead, width=width):
            # One (lane x term) counts matrix per iteration, then one
            # sequential row-cumsum: column 0 carries the base, so the
            # running sum associates exactly like the scalar loop's
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

        open_list = lanes.tolist()
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
        lanes = np.asarray(done, dtype=np.intp)
        bq = np.asarray(windows, dtype=float)
        ti = task_of[lanes]
        response = bq - dq[ti]
        best = r_max[lanes]
        r_max[lanes] = np.where(response > best, response, best)
        closed = (offset[lanes] + dq1[ti]) >= (bq - EPS)
        q_max[lanes[closed]] = q
        lanes = lanes[~closed]
        if len(lanes) and q + 1 > MAX_ACTIVATIONS:
            for l in lanes.tolist():
                errors[l] = NotSchedulableError(
                    f"busy window did not close within {MAX_ACTIVATIONS} "
                    f"activations", resource=resource_name,
                    task=names[lane_task[l]],
                    context={"reason": "activation_budget",
                             "activations": MAX_ACTIVATIONS})
            lanes = lanes[:0]
    q_maxes = q_max.tolist()
    if _obs.enabled:
        registry = _obs.metrics()
        windows_closed = registry.counter("busy_window.windows")
        act_hist = registry.histogram("busy_window.activations")
        for err, lane_q in zip(errors, q_maxes):
            if err is None:
                windows_closed.inc()
                act_hist.observe(lane_q)
    for err in errors:
        if err is not None:
            raise err
    return r_max.tolist(), busy, q_maxes


__all__ = [
    "EtaTable",
    "MIN_BATCH_LANES",
    "MIN_BATCH_LOAD",
    "batch_worthwhile",
    "run_lanes",
    "solve_round",
    "stats",
]
