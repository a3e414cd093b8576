"""Stimulus generation: event sequences consistent with event models.

Three generators, all returning sorted arrival-time lists:

* :func:`periodic_arrivals` — a strictly periodic sequence with optional
  phase.
* :func:`random_jitter_arrivals` — periodic reference points displaced by
  uniform random jitter, post-processed to respect a minimum distance;
  the result is a legal sequence of the (P, J, d_min) standard model.
* :func:`worst_case_arrivals` — the *critical-instant* sequence of any
  event model: event n arrives exactly at δ⁻(n + 1), packing events as
  early as the model permits.  This is the sequence busy-window analysis
  assumes, so simulated response times under it approach the analytic
  bounds from below.
"""

from __future__ import annotations

import random
from typing import List, Optional

from .._errors import ModelError
from ..eventmodels.base import EventModel
from ..eventmodels.standard import StandardEventModel
from ..obs.context import check_deadline
from .engine import CHECK_EVERY


def periodic_arrivals(period: float, t_end: float,
                      phase: float = 0.0) -> List[float]:
    """Arrivals at phase, phase+P, phase+2P, ... up to t_end."""
    if period <= 0:
        raise ModelError("period must be positive")
    if phase < 0:
        raise ModelError("phase must be >= 0")
    out = []
    t = phase
    while t <= t_end:
        if not len(out) % CHECK_EVERY:
            check_deadline()
        out.append(t)
        t += period
    return out


def random_jitter_arrivals(model: StandardEventModel, t_end: float,
                           rng: Optional[random.Random] = None,
                           phase: float = 0.0) -> List[float]:
    """A random legal arrival sequence of a standard event model.

    Each event k is nominally released at ``phase + k * P`` and displaced
    by ``U(0, J)``; releases are then made non-decreasing and at least
    ``d_min`` apart by clamping from the left.  Clamping can only move
    events *later*, which keeps the sequence inside the model's bounds.
    """
    rng = rng if rng is not None else random.Random(0)
    arrivals: List[float] = []
    k = 0
    while True:
        if not k % CHECK_EVERY:
            check_deadline()
        nominal = phase + k * model.period
        if nominal > t_end:
            break
        t = nominal + rng.uniform(0.0, model.jitter)
        if arrivals:
            t = max(t, arrivals[-1] + model.d_min)
        arrivals.append(t)
        k += 1
    return [t for t in arrivals if t <= t_end]


def worst_case_arrivals(model: EventModel, t_end: float,
                        phase: float = 0.0) -> List[float]:
    """The earliest-possible (critical instant) arrival sequence.

    With the first event at ``phase``, the n-th event (1-based) can
    arrive no earlier than ``phase + δ⁻(n)``; arriving exactly then
    achieves the η⁺ bound in every window anchored at ``phase``.
    """
    out = []
    n = 1
    while True:
        if not n % CHECK_EVERY:
            check_deadline()
        t = phase + model.delta_min(n)
        if t > t_end:
            break
        out.append(t)
        n += 1
        if n > 10_000_000:
            raise ModelError("worst_case_arrivals: runaway stream")
    return out
