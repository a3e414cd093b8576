"""Time arithmetic helpers shared across the library.

The library represents time as ``float`` in an arbitrary unit (the paper's
example uses a unit consistent with its CET/period tables; we treat it as
microseconds).  ``math.inf`` marks an unbounded maximum distance — e.g. the
delta-plus bound of a *pending* signal stream after frame packing (paper
eq. (8)).

Floating-point comparisons inside fixed-point iterations use an absolute
tolerance :data:`EPS`; all analysis code must compare through
:func:`time_eq` / :func:`time_leq` rather than ``==`` so that accumulated
rounding never flips a convergence test.
"""

from __future__ import annotations

import math
from typing import Iterable

#: Absolute tolerance for time comparisons.
EPS = 1e-9

#: Convenience re-export so call sites do not import :mod:`math` just for inf.
INF = math.inf


def is_finite(t: float) -> bool:
    """Return True if *t* is a finite time value: False for NaN, ±inf
    and anything that is not a real number.

    Input validation reads this rather than comparing with ``<``: NaN
    fails every comparison, so a range check alone lets it through."""
    try:
        return math.isfinite(t)
    except TypeError:
        return False


def time_eq(a: float, b: float, eps: float = EPS) -> bool:
    """Tolerant equality for time values (inf-aware)."""
    if a == b:  # covers inf == inf and exact matches
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= eps


def time_leq(a: float, b: float, eps: float = EPS) -> bool:
    """Tolerant ``a <= b`` for time values."""
    return a <= b + eps


def time_lt(a: float, b: float, eps: float = EPS) -> bool:
    """Tolerant strict ``a < b`` for time values."""
    return a < b - eps


def strict_floor(x: float) -> int:
    """Largest integer *strictly* less than x.

    Used by the closed-form eta-plus of the standard event model: the
    largest ``n`` with ``delta_min(n) < dt`` resolves to a strict-floor of a
    ratio.  ``strict_floor(3.0) == 2`` while ``floor(3.0) == 3``.
    """
    f = math.floor(x)
    if f == x:
        return int(f) - 1
    return int(f)


def strict_ceil(x: float) -> int:
    """Smallest integer *strictly* greater than x."""
    c = math.ceil(x)
    if c == x:
        return int(c) + 1
    return int(c)


def merge_eq(seq_a: Iterable[float], seq_b: Iterable[float],
             eps: float = EPS) -> bool:
    """Elementwise tolerant comparison of two equally long sequences."""
    a = list(seq_a)
    b = list(seq_b)
    if len(a) != len(b):
        return False
    return all(time_eq(x, y, eps) for x, y in zip(a, b))
