"""Batched busy-window kernels: numpy joint fixed points for SPP and EDF.

The scalar solvers iterate one ``fixed_point`` per task per activation
count q, re-walking every interferer's ``eta_plus(w) * c_max`` one
python call at a time.  For the two policies where that pays
(:mod:`spp` and :mod:`edf`), this module batches the work:

* **one joint vector iteration per resource** — every open busy-window
  chain (an SPP task, or an EDF (task, candidate-offset) pair)
  contributes one lane to a shared window vector ``w``; each iteration
  evaluates every interferer's η⁺ over the whole vector at once
  (:class:`_TermPlan`), applies per-lane coefficients and deadline caps,
  and advances all lanes in lockstep, freezing lanes as they converge;
* **warm starts within a q-chain** — the converged q-window seeds the
  (q+1)-window iteration, exactly as the scalar loops do (see
  :data:`repro.analysis.busy_window.WARM_START`).

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
identical convergence/limit tests in the same order.  η⁺ vectorization
dispatches per model type:

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
    MAX_ACTIVATIONS,
    MAX_FIXED_POINT_ITER,
    _WINDOW_BLOWUP,
)

try:  # optional accelerator (the [fast] extra); absence is fully supported
    import numpy as _np
except Exception:  # pragma: no cover - then every analysis runs scalar
    _np = None

#: Below this estimated lane count a resource's batched run loses to the
#: scalar loops on pure bookkeeping (table/plan/chain setup dominates a
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


def tables_for(specs: Sequence) -> List[EtaTable]:
    """One :class:`EtaTable` per task spec (shared across a resource)."""
    return [EtaTable(t.event_model) for t in specs]


# ----------------------------------------------------------------------
# per-round workload assembly
# ----------------------------------------------------------------------
class Element:
    """One lane of a joint vector fixed point: (chain, q) at one round.

    ``coeffs[j]`` is interferer j's C⁺ for this lane (``0.0`` = not an
    interferer: the lane then accumulates an exact ``+0.0``, preserving
    the scalar's per-interferer float addition order).  ``count_caps``
    (EDF deadline caps) bound the activation count.
    """

    __slots__ = ("start", "base", "coeffs", "count_caps")

    def __init__(self, start: float, base: float,
                 coeffs: Sequence[float],
                 count_caps: Optional[Sequence[Optional[float]]] = None):
        self.start = start
        self.base = base
        self.coeffs = coeffs
        self.count_caps = count_caps


class _TermPlan:
    """Per-batch numpy preparation shared by every round of a resource.

    Groups the interferer terms by :class:`EtaTable` kind so one
    iteration touches numpy a *constant* number of times instead of a
    few ufuncs per term: all StandardEventModel columns evaluate as one
    2-D closed form, table columns as one ``searchsorted`` each, and
    the accumulation runs as a single row-``cumsum`` (sequential adds —
    the exact float association the scalar loop performs).  Coefficient
    rows are cached per identity of a chain's coeff list, which the
    solvers keep stable across rounds.
    """

    __slots__ = ("tables", "sem_cols", "table_cols", "scalar_cols",
                 "sem_p", "sem_j", "sem_d", "sem_has_d", "_rows")

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
        self._rows: Dict[int, Tuple[Any, Any]] = {}

    def coeff_row(self, coeffs: Sequence[float]):
        key = id(coeffs)
        hit = self._rows.get(key)
        # The keep-alive reference in the cache makes the id() key
        # stable; the identity check guards against a recycled id from
        # a chain that built fresh lists each round.
        if hit is not None and hit[0] is coeffs:
            return hit[1]
        row = _np.asarray(coeffs, dtype=float)
        self._rows[key] = (coeffs, row)
        return row

    def counts_matrix(self, xs, out, sem_pos, sem_out, table_cols,
                      scalar_cols):
        """Fill ``out[:, j]`` with η⁺_j(xs) for the *used* terms only.

        ``sem_pos`` indexes into the stacked SEM parameter arrays,
        ``sem_out`` holds the matching output columns; untouched columns
        are the caller's responsibility (it zero-fills them).
        """
        if sem_pos:
            whole = len(sem_pos) == len(self.sem_cols)
            p = self.sem_p if whole else self.sem_p[sem_pos]
            jit = self.sem_j if whole else self.sem_j[sem_pos]
            has_d = self.sem_has_d if whole else self.sem_has_d[sem_pos]
            dt = xs[:, None]
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
            out[:, j] = self.tables[j].eta_many(xs)
        for j in scalar_cols:
            ep = self.tables[j].model.eta_plus
            out[:, j] = [float(ep(float(x))) for x in xs]


def _make_workload(elements: Sequence[Element], plan: _TermPlan):
    """Build ``eval_fn(ws_active, active_idx) -> next windows``.

    Caps/coefficients are constant across the iterations of one round,
    so they are baked into matrices once here (coefficient rows come
    from the per-batch *plan* cache).
    """
    nt = len(plan.tables)
    bases_a = _np.asarray([el.base for el in elements])
    coeff_m = _np.stack([plan.coeff_row(el.coeffs) for el in elements])
    ccaps_m = None
    if any(el.count_caps is not None for el in elements):
        ccaps_m = _np.asarray(
            [[_np.inf if el.count_caps is None
              or el.count_caps[j] is None else float(el.count_caps[j])
              for j in range(nt)] for el in elements])
    # A column whose coefficient is zero in every lane contributes an
    # exact +0.0 everywhere — skip its η⁺ evaluation entirely, matching
    # the scalar solvers, which never evaluate a non-interferer's model.
    used = coeff_m.any(axis=0)
    sem_pos = [k for k, j in enumerate(plan.sem_cols) if used[j]]
    sem_out = [plan.sem_cols[k] for k in sem_pos]
    table_cols = [j for j in plan.table_cols if used[j]]
    scalar_cols = [j for j in plan.scalar_cols if used[j]]
    live = set(sem_out) | set(table_cols) | set(scalar_cols)
    dead_cols = [j for j in range(nt) if j not in live]

    def eval_np(ws: Sequence[float], idxs: Sequence[int]) -> List[float]:
        xs = _np.asarray(ws)
        sel = _np.asarray(idxs, dtype=_np.intp)
        # One (lane x term) counts matrix per iteration, then one
        # sequential row-cumsum: column 0 carries the base, so the
        # running sum associates exactly like the scalar loop's
        # ``acc = base; acc += v_j`` (zero-coeff terms add an exact
        # +0.0, which is identity for the positive partial sums).
        full = _np.empty((len(idxs), nt + 1))
        full[:, 0] = bases_a[sel]
        counts = full[:, 1:]
        plan.counts_matrix(xs, counts, sem_pos, sem_out, table_cols,
                           scalar_cols)
        if dead_cols:
            counts[:, dead_cols] = 0.0
        if ccaps_m is not None:
            _np.minimum(counts, ccaps_m[sel], out=counts)
        counts *= coeff_m[sel]
        return _np.cumsum(full, axis=1)[:, -1].tolist()

    return eval_np


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
    *recorded*, not raised — the chain driver decides which one the
    scalar path would have hit first.
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
# chain driver (the batched multi_activation_loop)
# ----------------------------------------------------------------------
class Chain:
    """One busy-window q-sequence: an SPP task, or an EDF (task, offset)
    pair.

    *element(q)* supplies the workload lane; *closes(q, bq)* is the
    window-closing predicate (default: next activation arrives after
    the window drains).
    """

    __slots__ = ("name", "em", "context", "element", "closes", "r_max",
                 "busy_times", "q_max", "error", "hint", "done")

    def __init__(self, name: str, em: EventModel,
                 context: Callable[[int], str],
                 element: Callable[[int], Element],
                 closes: Optional[Callable[[int, float], bool]] = None):
        self.name = name
        self.em = em
        self.context = context
        self.element = element
        self.closes = closes
        self.r_max = 0.0
        self.busy_times: List[float] = []
        self.q_max = 0
        self.error: Optional[NotSchedulableError] = None
        self.hint: Optional[float] = None
        self.done = False


def run_chains(chains: Sequence[Chain], tables: Sequence[EtaTable],
               resource_name: str) -> None:
    """Drive every chain's q-loop jointly, one round per activation count.

    Round q advances all still-open chains' q-th windows in one vector
    fixed point.  Chains record ``(r_max, busy_times, q_max)`` in place.
    Error ordering matches the scalar path: all chains run to a terminal
    state, then the first errored chain *in sequence order* raises —
    exactly the error the sequential solver would have surfaced first
    (it, too, finishes every earlier chain before touching a later one).
    """
    open_chains = [c for c in chains if not c.done]
    plan = _TermPlan(tables)
    q = 0
    while open_chains:
        q += 1
        elems = [c.element(q) for c in open_chains]
        values, errors, _steps = solve_round(
            [el.start for el in elems], [c.hint for c in open_chains],
            _make_workload(elems, plan),
            [c.context(q) for c in open_chains],
            [c.name for c in open_chains], resource_name)
        for c, w, err in zip(open_chains, values, errors):
            if err is not None:
                c.error = err
                c.done = True
                continue
            c.hint = w
            _finish_window(c, q, w, resource_name)
        open_chains = [c for c in open_chains if not c.done]
    if _obs.enabled:
        registry = _obs.metrics()
        windows = registry.counter("busy_window.windows")
        act_hist = registry.histogram("busy_window.activations")
        for c in chains:
            if c.error is None:
                windows.inc()
                act_hist.observe(c.q_max)
    for c in chains:
        if c.error is not None:
            raise c.error


def _finish_window(c: Chain, q: int, bq: float,
                   resource_name: Optional[str] = None) -> None:
    c.busy_times.append(bq)
    response = bq - c.em.delta_min(q)
    if response > c.r_max:
        c.r_max = response
    if c.closes is not None:
        closed = c.closes(q, bq)
    else:
        closed = c.em.delta_min(q + 1) >= bq - EPS
    if closed:
        c.q_max = q
        c.done = True
    elif q + 1 > MAX_ACTIVATIONS:
        c.error = NotSchedulableError(
            f"busy window did not close within {MAX_ACTIVATIONS} "
            f"activations", resource=resource_name, task=c.name,
            context={"reason": "activation_budget",
                     "activations": MAX_ACTIVATIONS})
        c.done = True


__all__ = [
    "Chain",
    "Element",
    "EtaTable",
    "MIN_BATCH_LANES",
    "MIN_BATCH_LOAD",
    "batch_worthwhile",
    "run_chains",
    "solve_round",
    "stats",
    "tables_for",
]
