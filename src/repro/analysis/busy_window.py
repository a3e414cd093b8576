"""Shared busy-window machinery (Lehoczky's technique).

All fixed-priority analyses follow the same skeleton:

1. For activation counts q = 1, 2, ... compute the *q-event busy time*
   B(q): the least fixed point of a workload function ``W(q, w)``.
2. The q-th response time is ``B(q) - δ⁻(q)`` (the q-th activation arrives
   no earlier than δ⁻(q) after the window opens).
3. Stop once the busy window closes: the (q+1)-th activation arrives only
   after the q-event window has drained.

This module provides the fixed-point solver and the q-loop driver.  SPP
and EDF state their workloads once as :class:`~repro.analysis.kernels.Lanes`,
whose scalar evaluator drives these two; SPNP, round-robin and TDMA
call them from their own loops.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from .._errors import NotSchedulableError
from ..timebase import EPS, time_eq
from ..eventmodels.base import EventModel

#: Hard cap on fixed-point iterations for a single busy time.
MAX_FIXED_POINT_ITER = 100_000

#: Hard cap on the number of activations examined in one busy window.
MAX_ACTIVATIONS = 50_000

#: EDF's deadline-tie slack: a job of j whose absolute deadline ties the
#: analysed job's deadline d counts, via η⁺_j(d − D_j + DEADLINE_EPS).
DEADLINE_EPS = 1e-6

#: Busy times beyond this multiple of the total WCET budget of the task set
#: indicate an overload that the utilisation pre-check missed.
_WINDOW_BLOWUP = 1e12

#: Honour warm-start hints (see :func:`fixed_point`).  Results are
#: identical either way; tests turn it off to compare against cold starts.
WARM_START = True


def fixed_point(workload: Callable[[float], float], start: float,
                limit: float = _WINDOW_BLOWUP,
                context: str = "busy window",
                resource: str = None, task: str = None,
                hint: float = None) -> float:
    """Least fixed point of a monotone workload function.

    Iterates ``w <- workload(w)`` from ``start`` until the value is stable
    (within :data:`~repro.timebase.EPS`) or exceeds *limit*, in which case
    the window never closes and :class:`NotSchedulableError` is raised.

    ``hint`` warm-starts the iteration from ``max(start, hint)``: a
    caller holding a known lower bound on the least fixed point (e.g.
    the converged (q-1)-event window, since the workload is pointwise
    non-decreasing in q) skips the climb back up.  The hint is *guarded*:
    if the first evaluation decreases, the hint overshot (it was stale,
    not a lower bound) and the iteration restarts from the cold *start*
    — so a bad hint costs one evaluation instead of soundness.  Because
    the iterates then climb the same monotone staircase the cold start
    would, the returned fixed point is identical whenever workload
    plateau steps exceed :data:`~repro.timebase.EPS` (always true for
    real task sets: steps are multiples of some C⁺ ≫ 1e-9).

    ``resource`` / ``task`` attach structured attribution to any raised
    :class:`NotSchedulableError` (used by degraded-mode quarantine
    reports); ``context`` stays the human-readable prefix.
    """
    w = start
    guarded = False
    if WARM_START and hint is not None and hint > start:
        w = hint
        guarded = True
    for _ in range(MAX_FIXED_POINT_ITER):
        w_next = workload(w)
        if w_next < w - EPS:
            if guarded:
                # Stale warm-start hint overshot the fixed point:
                # restart from the cold start.
                w = start
                guarded = False
                continue
            # A monotone workload never shrinks along the iteration; a
            # decrease signals a non-monotone workload function (bug in
            # the caller), not an analysis result.
            raise NotSchedulableError(
                f"{context}: workload function not monotone "
                f"({w_next} < {w})", resource=resource, task=task,
                context={"reason": "non_monotone_workload"})
        guarded = False
        if time_eq(w_next, w):
            return w_next
        if w_next > limit:
            raise NotSchedulableError(
                f"{context}: busy window exceeds {limit}; resource "
                f"overloaded", resource=resource, task=task,
                context={"reason": "busy_window_blowup",
                         "window": w_next, "limit": limit})
        w = w_next
    raise NotSchedulableError(
        f"{context}: no fixed point within {MAX_FIXED_POINT_ITER} "
        f"iterations", resource=resource, task=task,
        context={"reason": "fixed_point_budget",
                 "iterations": MAX_FIXED_POINT_ITER})


def multi_activation_loop(
        event_model: EventModel,
        busy_time: Callable[[int], float],
        window_closes: Callable[[int, float], bool] = None,
        resource: str = None, task: str = None,
) -> Tuple[float, List[float], int]:
    """Drive the q-activation loop of a busy-window analysis.

    Parameters
    ----------
    event_model:
        The analysed task's activating event model (supplies δ⁻).
    busy_time:
        ``busy_time(q)`` returns the q-event busy time B(q).
    window_closes:
        Predicate ``(q, B(q)) -> bool``; default closes when the next
        activation arrives no earlier than the q-event window ends,
        i.e. ``δ⁻(q + 1) >= B(q)``.

    Returns
    -------
    (r_max, busy_times, q_max):
        Worst-case response across activations, the list of busy times,
        and the number of activations examined.
    """
    if window_closes is None:
        def window_closes(q, bq):
            return event_model.delta_min(q + 1) >= bq - EPS

    r_max = 0.0
    busy_times: List[float] = []
    q = 1
    while True:
        bq = busy_time(q)
        busy_times.append(bq)
        response = bq - event_model.delta_min(q)
        if response > r_max:
            r_max = response
        if window_closes(q, bq):
            break
        q += 1
        if q > MAX_ACTIVATIONS:
            raise NotSchedulableError(
                f"busy window did not close within {MAX_ACTIVATIONS} "
                f"activations", resource=resource, task=task,
                context={"reason": "activation_budget",
                         "activations": MAX_ACTIVATIONS})
    return r_max, busy_times, q
