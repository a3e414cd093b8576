"""Junction-related checks and helpers.

AND-activation only has bounded buffering when all joined streams share
the same long-run rate (Jersak); :func:`check_and_join_rates` verifies
that before an AND junction is trusted.  :func:`decompose_multi_input`
documents/automates the paper's decomposition of a multi-input task into
a stream constructor followed by a single-input task.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .._errors import AnalysisError, ModelError
from ..eventmodels.base import EventModel


def check_and_join_rates(models: Sequence[EventModel],
                         tolerance: float = 0.05) -> None:
    """Raise :class:`ModelError` if the joined streams' long-run rates
    (:meth:`~repro.eventmodels.base.EventModel.long_run_rate`) differ by
    more than *tolerance* (relative) — AND-activation would then
    require unbounded buffering on the faster input."""
    rates = [m.long_run_rate() for m in models]
    lo, hi = min(rates), max(rates)
    if lo <= 0:
        raise ModelError("AND-join input with zero rate never activates")
    if (hi - lo) / hi > tolerance:
        raise ModelError(
            f"AND-join rates diverge (min {lo:.6g}, max {hi:.6g}); "
            f"buffering is unbounded")


def and_join_buffer_bound(models: Sequence[EventModel],
                          horizon_n: int = 512) -> int:
    """Worst-case token backlog at an AND junction.

    An AND join consumes one token from *every* input per output; input
    i's queue is deepest when i runs maximally fast while the slowest
    partner runs minimally.  With the n-th token of i arriving at
    δ⁻ᵢ(n) earliest and only ``η⁻ⱼ`` outputs guaranteed by then::

        backlog_i  <=  max_n [ n - min_j η⁻ⱼ(δ⁻ᵢ(n)) ]

    evaluated over n up to *horizon_n*.  Returns the maximum over all
    inputs; raises :class:`AnalysisError` if the bound has not settled
    within the horizon (diverging rates — check
    :func:`check_and_join_rates` first).
    """
    if len(models) < 2:
        raise ModelError("an AND join needs at least two inputs")
    worst = 1
    for i, fast in enumerate(models):
        partners = [m for j, m in enumerate(models) if j != i]
        best_for_i = 1
        settled = 0
        for n in range(1, horizon_n + 1):
            arrival = fast.delta_min(n)
            consumed = min(p.eta_min(arrival) for p in partners)
            backlog = n - consumed
            if backlog > best_for_i:
                best_for_i = backlog
                settled = 0
            else:
                settled += 1
            if settled > 64:
                break
        else:
            raise AnalysisError(
                f"AND-join backlog still growing after {horizon_n} "
                f"tokens; input rates likely diverge")
        worst = max(worst, best_for_i)
    return worst


def decompose_multi_input(task_name: str, inputs: Sequence[str],
                          activation: str = "or"
                          ) -> Tuple[Tuple[str, str, List[str]],
                                     Tuple[str, List[str]]]:
    """Decompose a multi-input task into (constructor, processing task).

    Returns ``((junction_name, kind, inputs), (task_name, [junction]))``
    — the explicit two-operation form of the paper's section 3: "tasks
    activated by multiple event streams are decomposed in two operations:
    the first is an event stream constructor (SC) ... the second models
    the actual processing".
    """
    if len(inputs) < 2:
        raise ModelError("decomposition only applies to multi-input tasks")
    junction_name = f"{task_name}__sc"
    return ((junction_name, activation, list(inputs)),
            (task_name, [junction_name]))
