"""Curve-based event models: finite δ prefixes with conservative extension.

Arbitrary event streams (measured traces, join outputs, shaped streams) are
represented by finite prefixes of their distance functions plus an
extension rule for event counts beyond the prefix:

* **Additive (default).**  True δ⁻ functions are *superadditive* in the
  sense ``δ⁻(a + b - 1) >= δ⁻(a) + δ⁻(b)`` (split a window of ``a + b - 1``
  events at event ``a``), and δ⁺ functions are *subadditive* in the same
  sense.  Hence for ``n`` beyond the prefix length ``N``::

      q, r such that n - 1 = q * (N - 1) + (r - 1), 2 <= r <= N
      δ⁻(n) >= q * δ⁻(N) + δ⁻(r)        (valid lower bound)
      δ⁺(n) <= q * δ⁺(N) + δ⁺(r)        (valid upper bound)

  i.e. the extension remains a conservative bound for *any* stream that
  satisfies the prefix.

* **Periodic.**  If the stream is known to repeat with ``t_period`` every
  ``n_period`` events, ``δ(n + k * n_period) = δ(n) + k * t_period``
  exactly.

The module also provides :class:`CachedModel`, a generic memoising wrapper
for lazily-evaluated derived models (join outputs, Θ_τ outputs, inner
updates) so repeated busy-window evaluations stay cheap.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from .._errors import ModelError
from ..timebase import INF
from .base import EventModel


def _extend_additive(values: Sequence[float], n: int) -> float:
    """Additive extension of a δ prefix (see module docstring).

    ``values[i]`` holds δ(i) for 0 <= i <= N; requires N >= 2.
    """
    top = len(values) - 1
    if n <= top:
        return values[n]
    if math.isinf(values[top]):
        return INF
    span = top - 1  # events consumed per full block beyond the first
    q, rem = divmod(n - 1, span)
    if rem == 0:
        q -= 1
        rem = span
    r = rem + 1  # 2 <= r <= top
    return q * values[top] + values[r]


def _extend_periodic(values: Sequence[float], n: int,
                     n_period: int, t_period: float) -> float:
    top = len(values) - 1
    if n <= top:
        return values[n]
    k = -((top - n) // n_period)  # ceil((n - top) / n_period)
    base = n - k * n_period
    return values[base] + k * t_period


class CurveEventModel(EventModel):
    """Event model defined by explicit δ⁻ / δ⁺ prefixes.

    Parameters
    ----------
    delta_min_prefix:
        ``[δ⁻(0), δ⁻(1), δ⁻(2), ..., δ⁻(N)]``; the first two entries must
        be 0 and the sequence must be non-decreasing.  Length >= 3.
    delta_plus_prefix:
        Same layout for δ⁺; entries may be ``inf``.  Must dominate the
        δ⁻ prefix pointwise.
    n_period, t_period:
        Optional exact periodic extension (both or neither).  When absent
        the conservative additive extension is used.
    """

    # _fp: the carried fingerprint (see repro.eventmodels.compile).
    __slots__ = ("_dmin", "_dplus", "_n_period", "_t_period", "name", "_fp")

    def __init__(self, delta_min_prefix: Sequence[float],
                 delta_plus_prefix: Sequence[float],
                 n_period: Optional[int] = None,
                 t_period: Optional[float] = None,
                 name: str = "curve"):
        dmin = [float(v) for v in delta_min_prefix]
        dplus = [float(v) for v in delta_plus_prefix]
        if len(dmin) < 3 or len(dplus) < 3:
            raise ModelError("curve prefixes need at least δ(0..2)")
        if len(dmin) != len(dplus):
            raise ModelError("δ⁻ and δ⁺ prefixes must have equal length")
        if dmin[0] != 0.0 or dmin[1] != 0.0 or dplus[0] != 0.0 \
                or dplus[1] != 0.0:
            raise ModelError("δ(0) and δ(1) must both be 0")
        for i in range(1, len(dmin)):
            if dmin[i] < dmin[i - 1]:
                raise ModelError(f"δ⁻ prefix not non-decreasing at n={i}")
            if dplus[i] < dplus[i - 1]:
                raise ModelError(f"δ⁺ prefix not non-decreasing at n={i}")
        for i, (lo, hi) in enumerate(zip(dmin, dplus)):
            if lo > hi:
                raise ModelError(
                    f"δ⁻({i}) = {lo} exceeds δ⁺({i}) = {hi}")
        if (n_period is None) != (t_period is None):
            raise ModelError("n_period and t_period must be given together")
        if n_period is not None:
            if n_period < 1 or t_period <= 0:
                raise ModelError("periodic extension needs n_period >= 1 "
                                 "and t_period > 0")
            if n_period > len(dmin) - 2:
                raise ModelError(
                    f"n_period ({n_period}) must not exceed prefix length "
                    f"minus one ({len(dmin) - 2}) or the extension would "
                    f"index below δ(1)")
        self._dmin = dmin
        self._dplus = dplus
        self._n_period = n_period
        self._t_period = t_period
        self.name = name

    # ------------------------------------------------------------------
    def delta_min(self, n: int) -> float:
        self._check_n(n)
        if n < 2:
            return 0.0
        if self._n_period is not None:
            return _extend_periodic(self._dmin, n, self._n_period,
                                    self._t_period)
        return _extend_additive(self._dmin, n)

    def delta_plus(self, n: int) -> float:
        self._check_n(n)
        if n < 2:
            return 0.0
        if self._n_period is not None:
            return _extend_periodic(self._dplus, n, self._n_period,
                                    self._t_period)
        return _extend_additive(self._dplus, n)

    @property
    def prefix_length(self) -> int:
        """Largest n covered by the stored prefix."""
        return len(self._dmin) - 1

    def __repr__(self) -> str:
        ext = ("periodic" if self._n_period is not None else "additive")
        return (f"<CurveEM {self.name} N={self.prefix_length} ext={ext}>")


class FunctionEventModel(EventModel):
    """Event model defined directly by callables for δ⁻ and δ⁺.

    Thin adapter used in tests and by generators; the callables receive
    ``n >= 2`` (smaller n short-circuit to 0).
    """

    def __init__(self, delta_min_fn: Callable[[int], float],
                 delta_plus_fn: Callable[[int], float],
                 name: str = "fn"):
        self._dmin_fn = delta_min_fn
        self._dplus_fn = delta_plus_fn
        self.name = name

    def delta_min(self, n: int) -> float:
        self._check_n(n)
        if n < 2:
            return 0.0
        return self._dmin_fn(n)

    def delta_plus(self, n: int) -> float:
        self._check_n(n)
        if n < 2:
            return 0.0
        return self._dplus_fn(n)


class CachedModel(EventModel):
    """Memoising proxy around another event model.

    Derived models (OR-joins, Θ_τ outputs, inner updates) recompute their
    δ values recursively; busy-window analyses evaluate the same δ(n) many
    times.  Wrapping a derived model in :class:`CachedModel` makes these
    evaluations O(1) after first touch without changing semantics.  A
    δ query writes no telemetry: the sharing worth counting is the chain
    cache's (:mod:`repro.eventmodels.compile`), which counts itself.
    """

    # _fp, _shared: the carried fingerprint and shared-chain mark (see
    # repro.eventmodels.compile).
    __slots__ = ("_inner", "_dmin_cache", "_dplus_cache", "name", "_fp",
                 "_shared")

    def __init__(self, inner: EventModel, name: Optional[str] = None):
        self._inner = inner
        self._dmin_cache: dict = {}
        self._dplus_cache: dict = {}
        self.name = name if name is not None else f"cached({inner.name})"

    @property
    def wrapped(self) -> EventModel:
        """The underlying event model."""
        return self._inner

    def long_run_rate(self) -> float:
        return self._inner.long_run_rate()

    def delta_min(self, n: int) -> float:
        v = self._dmin_cache.get(n)
        if v is None:
            v = self._inner.delta_min(n)
            self._dmin_cache[n] = v
        return v

    def delta_plus(self, n: int) -> float:
        v = self._dplus_cache.get(n)
        if v is None:
            v = self._inner.delta_plus(n)
            self._dplus_cache[n] = v
        return v

    def delta_min_block(self, n_max: int) -> list:
        cache = self._dmin_cache
        if any(n not in cache for n in range(n_max + 1)):
            block = self._inner.delta_min_block(n_max)
            for n, v in enumerate(block):
                cache.setdefault(n, v)
        return [cache[n] for n in range(n_max + 1)]

    def delta_plus_block(self, n_max: int) -> list:
        cache = self._dplus_cache
        if any(n not in cache for n in range(n_max + 1)):
            block = self._inner.delta_plus_block(n_max)
            for n, v in enumerate(block):
                cache.setdefault(n, v)
        return [cache[n] for n in range(n_max + 1)]

    def __repr__(self) -> str:
        return f"<Cached {self._inner!r}>"


def freeze(model: EventModel, n_max: int = 128,
           name: Optional[str] = None) -> CurveEventModel:
    """Materialise any event model into a :class:`CurveEventModel` by
    sampling its δ prefixes up to ``n_max``.

    The additive extension of the result conservatively bounds the
    original beyond the sampled range (δ⁻ is never overestimated, δ⁺ never
    underestimated), so freezing is always safe for analysis — at the cost
    of some precision in the tail.
    """
    dmin = [model.delta_min(n) for n in range(n_max + 1)]
    dplus = [model.delta_plus(n) for n in range(n_max + 1)]
    return CurveEventModel(dmin, dplus,
                           name=name if name is not None
                           else f"frozen({model.name})")
