"""Stream operations: Θ_τ output models, OR/AND joins, shapers.

These are the ``stream operations`` of the paper's Definition 2 — functions
mapping input event-stream function tuples to output tuples.  They are the
building blocks both of the flat compositional analysis (Richter/SymTA/S
style) and of the hierarchical constructors in :mod:`repro.core`.

Implemented operations
----------------------
``TaskOutputModel`` (Θ_τ)
    The busy-window output-model operation for an analysed task with
    response times in ``[r_min, r_max]`` (paper section 3)::

        δ'⁻(n) = max{ δ⁻(n) - (r⁺ - r⁻),  δ'⁻(n - 1) + r⁻ }
        δ'⁺(n) = δ⁺(n) + (r⁺ - r⁻)

``or_join`` (paper eqs. (3)/(4))
    Exact OR-combination of m streams via pairwise min-max / max-min
    composition over contribution vectors::

        δ⁻_or(n) = min_{Σk_i = n}     max_i δ⁻_i(k_i)
        δ⁺_or(n) = max_{Σk_i = n - 2} min_i δ⁺_i(k_i + 2)

    Pairwise composition is exact because both operators are associative
    over the split of the contribution vector.  The equivalent
    superposition form (η⁺_or = Σ η⁺_i inverted back to δ⁻) is provided as
    :func:`or_join_superposition` and cross-checked in the test suite.

``and_join``
    Jersak's AND-activation: an output event is produced once every input
    queue holds a token; the n-th output occurs no earlier than the
    latest n-th input event, giving ``δ⁻_and(n) = max_i δ⁻_i(n)`` and
    ``δ⁺_and(n) = max_i δ⁺_i(n)``.

``DminShaper``
    Greedy minimum-distance shaper: delays events just enough to enforce a
    spacing of ``d``.  Raises δ⁻ to ``max(δ⁻(n), (n-1)d)``; δ⁺ grows by
    the worst-case shaping backlog delay.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from bisect import bisect_left
from typing import List, Sequence

from .._errors import ModelError, UnboundedStreamError
from ..timebase import INF
from .base import MAX_EVENTS, EventModel, NullEventModel
from .curves import CachedModel


def spaced_rate(rate: float, spacing: float) -> float:
    """Long-run rate of a stream of rate *rate* whose consecutive events
    are also at least *spacing* apart: ``min(rate, 1 / spacing)``, or
    *rate* alone when the spacing is 0.  The rule of every operation
    whose δ⁻ is ``max(..., (n - 1) * spacing)``."""
    return min(rate, 1.0 / spacing) if spacing > 0 else rate


# ----------------------------------------------------------------------
# the δ⁻ prefix memo of Θ_τ, the pairwise OR-join and the inner update
# ----------------------------------------------------------------------
class PrefixMemoModel(EventModel):
    """An event model whose δ⁻ is memoised as a prefix list.

    Subclasses implement :meth:`_fill_min`: continue the memo to
    ``n_max`` through the block path, as a new list that replaces the
    memo.  The memo is never extended in place: the fingerprint cache
    shares chains between threads, and a thread still reading the old
    list must not see it change.  A point query past the memo fills it
    geometrically, so a walk over n costs amortised O(1) per point (a
    subclass with an O(1) pointwise δ⁻ may answer points directly, as
    :class:`~repro.core.update.InnerJitterSpacingModel` does), and η⁺
    is one bisect over the memo.  ``_fp`` and ``_shared`` carry the
    fingerprint and the shared-chain mark of :mod:`.compile`.
    """

    __slots__ = ("_dmin_memo", "_fp", "_shared")

    @abstractmethod
    def _fill_min(self, n_max: int) -> list:
        """Fill the δ⁻ memo up to ``n_max`` and return it."""

    def delta_min(self, n: int) -> float:
        self._check_n(n)
        memo = self._dmin_memo
        if n >= len(memo):
            memo = self._fill_min(max(n, 2 * (len(memo) - 1)))
        return memo[n]

    def delta_min_block(self, n_max: int) -> list:
        self._check_n(n_max)
        memo = self._dmin_memo
        if n_max >= len(memo):
            memo = self._fill_min(n_max)
        return memo[:n_max + 1]

    def eta_plus(self, dt: float) -> int:
        if dt <= 0:
            return 0
        memo = self._dmin_memo
        while memo[-1] < dt:
            top = 2 * (len(memo) - 1)
            if top > MAX_EVENTS:
                raise UnboundedStreamError(
                    f"eta_plus({dt!r}) exceeds {MAX_EVENTS} events for "
                    f"{self!r}; the stream has no effective rate limit")
            memo = self._fill_min(top)
        # Largest n with δ⁻(n) < dt.  Entries 0 and 1 are 0 < dt, so the
        # insertion point is >= 2 and the result >= 1: the generic
        # exponential + binary search of EventModel.eta_plus in one
        # bisect.
        return bisect_left(memo, dt) - 1


# ----------------------------------------------------------------------
# Θ_τ — task output model
# ----------------------------------------------------------------------
class TaskOutputModel(PrefixMemoModel):
    """Output event model of an analysed task (operation Θ_τ).

    The recursion for δ'⁻ is memoised as a prefix list (see
    :class:`PrefixMemoModel`).
    """

    __slots__ = ("_in", "r_min", "r_max", "name")

    def __init__(self, input_model: EventModel, r_min: float, r_max: float,
                 name: str = "out"):
        if r_min < 0 or r_max < r_min:
            raise ModelError(
                f"need 0 <= r_min <= r_max, got [{r_min}, {r_max}]")
        self._in = input_model
        self.r_min = float(r_min)
        self.r_max = float(r_max)
        self._dmin_memo = [0.0, 0.0]
        self.name = name

    @property
    def input_model(self) -> EventModel:
        return self._in

    @property
    def response_span(self) -> float:
        """r⁺ - r⁻, the jitter added by the task."""
        return self.r_max - self.r_min

    def long_run_rate(self) -> float:
        # Unrolled, δ'⁻(n) is a max of δ⁻(n - j) - span + j * r⁻ over j,
        # and of (n - 1) * r⁻: each term is at most (n - 1) times
        # max(1 / rate, r⁻).
        return spaced_rate(self._in.long_run_rate(), self.r_min)

    def _fill_min(self, n_max: int) -> list:
        """The δ'⁻ memo continued to n_max by one block recursion."""
        memo = self._dmin_memo
        src = self._in.delta_min_block(n_max)
        span = self.response_span
        r_min = self.r_min
        out = memo[:]
        prev = out[-1]
        for k in range(len(memo), n_max + 1):
            prev = max(src[k] - span, prev + r_min)
            out.append(prev)
        self._dmin_memo = out
        return out

    def delta_plus(self, n: int) -> float:
        self._check_n(n)
        if n < 2:
            return 0.0
        return self._in.delta_plus(n) + self.response_span

    def delta_plus_block(self, n_max: int) -> list:
        self._check_n(n_max)
        src = self._in.delta_plus_block(n_max)
        span = self.response_span
        out = src[:2]
        out.extend(v + span for v in src[2:])
        return out


# ----------------------------------------------------------------------
# OR-join — paper eqs. (3) and (4)
# ----------------------------------------------------------------------
class _PairwiseOrJoin(PrefixMemoModel):
    """Exact OR-combination of exactly two event models.

    Both δ functions are memoised as prefix lists filled by the block
    merge below; a point query past the memo fills it geometrically, so
    a cold δ(n) costs O(n) per fold level and a walk over n amortised
    O(1) per point.  The δ⁺ memo is replaced on a fill like the δ⁻ memo
    (see :class:`PrefixMemoModel`).
    """

    __slots__ = ("_a", "_b", "_dplus_memo", "name")

    def __init__(self, a: EventModel, b: EventModel, name: str = "or2"):
        self._a = a
        self._b = b
        self._dmin_memo = [0.0, 0.0]
        self._dplus_memo = [0.0, 0.0]
        self.name = name

    def delta_plus(self, n: int) -> float:
        self._check_n(n)
        memo = self._dplus_memo
        if n >= len(memo):
            memo = self._fill_plus(max(n, 2 * (len(memo) - 1)))
        return memo[n]

    def long_run_rate(self) -> float:
        # η⁺ of the join is the sum of the inputs' η⁺ (eqs. (3)/(4)).
        return self._a.long_run_rate() + self._b.long_run_rate()

    # ------------------------------------------------------------------
    # reference: the per-point contribution-vector optimisation
    # ------------------------------------------------------------------
    def delta_min_eq3(self, n: int) -> float:
        """δ⁻(n) by eq. (3) directly, without the memo: O(n) point
        queries of the inputs.  The reference the tests hold the block
        merge to."""
        self._check_n(n)
        if n < 2:
            return 0.0
        # eq. (3): min over k of max(δ⁻_a(k), δ⁻_b(n - k)).
        best = INF
        for k in range(0, n + 1):
            cand = max(self._a.delta_min(k), self._b.delta_min(n - k))
            if cand < best:
                best = cand
            if best == 0.0:
                break
        return best

    def delta_plus_eq4(self, n: int) -> float:
        """δ⁺(n) by eq. (4) directly (see :meth:`delta_min_eq3`)."""
        self._check_n(n)
        if n < 2:
            return 0.0
        # eq. (4): max over j_a + j_b = n - 2 of
        #          min(δ⁺_a(j_a + 2), δ⁺_b(j_b + 2)).
        m = n - 2
        best = 0.0
        for j in range(0, m + 1):
            cand = min(self._a.delta_plus(j + 2),
                       self._b.delta_plus(m - j + 2))
            if cand > best:
                best = cand
            if math.isinf(best):
                break
        return best

    # ------------------------------------------------------------------
    # block evaluation: the merge formulation of eqs. (3)/(4)
    # ------------------------------------------------------------------
    # η⁺ of the OR-join is the sum of the input η⁺ functions, so δ⁻_or is
    # the pseudo-inverse of a summed step function: its steps are exactly
    # the multiset union of the input δ⁻ values.  Hence
    #
    #     δ⁻_or(n) = n-th smallest of {δ⁻_a(k) : k >= 1} ∪ {δ⁻_b(k) : k >= 1}
    #     δ⁺_or(n) = (n-1)-th smallest of {δ⁺_a(k) : k >= 2} ∪ {δ⁺_b(k) : k >= 2}
    #
    # Every output value is *selected* from an input array (no arithmetic),
    # so the block results are bit-identical to the per-n contribution-
    # vector optimisation — at O(n) per join level instead of O(n²).
    def delta_plus_block(self, n_max: int) -> list:
        self._check_n(n_max)
        memo = self._dplus_memo
        if n_max >= len(memo):
            memo = self._fill_plus(n_max)
        return memo[:n_max + 1]

    def _fill_min(self, n_max: int) -> list:
        """Merge the input δ⁻ blocks up to n_max into a new memo."""
        da = self._a.delta_min_block(n_max)
        db = self._b.delta_min_block(n_max)
        out = [0.0] * (n_max + 1)
        # The merged multiset leads with da[1] = db[1] = 0; out[n] is its
        # n-th smallest element, so consume da[1] up front and take one
        # further element per n.
        i, j = 2, 1
        for n in range(2, n_max + 1):
            if da[i] <= db[j]:
                out[n] = da[i]
                i += 1
            else:
                out[n] = db[j]
                j += 1
        self._dmin_memo = out
        return out

    def _fill_plus(self, n_max: int) -> list:
        """Merge the input δ⁺ blocks up to n_max into a new memo."""
        pa = self._a.delta_plus_block(n_max)
        pb = self._b.delta_plus_block(n_max)
        out = [0.0] * (n_max + 1)
        i = j = 2
        for n in range(2, n_max + 1):
            if pa[i] <= pb[j]:
                out[n] = pa[i]
                i += 1
            else:
                out[n] = pb[j]
                j += 1
        self._dplus_memo = out
        return out


def or_join(models: Sequence[EventModel], name: str = "or") -> EventModel:
    """OR-combination of any number of event streams (paper eqs. (3)/(4)).

    The n-th output event distance is the exact optimum over all
    contribution vectors, computed by folding the exact two-stream join
    (both optimisations are associative over vector splits).  Null streams
    are the neutral element and are dropped.
    """
    active: List[EventModel] = [m for m in models
                                if not isinstance(m, NullEventModel)]
    if not active:
        return NullEventModel()
    if len(active) == 1:
        return active[0]
    combined = active[0]
    for nxt in active[1:]:
        combined = _PairwiseOrJoin(combined, nxt)
    combined.name = name
    return combined


class _SuperpositionOrJoin(EventModel):
    """OR-join computed through η-superposition.

    δ⁻_or is the pseudo-inverse of ``η⁺_or(Δt) = Σ_i η⁺_i(Δt)`` and δ⁺_or
    the pseudo-inverse of ``η⁻_or(Δt) = Σ_i η⁻_i(Δt)``.  Mathematically
    equivalent to the contribution-vector formulation; kept as an
    independent implementation for cross-checking and for benchmarking
    the two evaluation strategies against each other.
    """

    _SEARCH_CAP = 1e15

    def __init__(self, models: Sequence[EventModel], name: str = "orsup"):
        if not models:
            raise ModelError("or_join needs at least one input stream")
        self._models = list(models)
        self.name = name

    def eta_plus(self, dt: float) -> int:
        if dt <= 0:
            return 0
        return max(1, sum(m.eta_plus(dt) for m in self._models))

    def eta_min(self, dt: float) -> int:
        if dt < 0:
            return 0
        return sum(m.eta_min(dt) for m in self._models)

    def delta_min(self, n: int) -> float:
        self._check_n(n)
        if n < 2:
            return 0.0
        # δ⁻(n) = inf{Δt : η⁺(Δt) >= n}; η⁺ is a step function, so
        # binary-search the step position.  The tolerance-terminated
        # bisection brackets the step as lo < δ⁻(n) <= hi; a minimum
        # distance must never be *over*estimated, so snap to the low side
        # of the step — the η⁺ re-check guarantees lo is conservative
        # (η⁺(lo) < n means a window of length lo cannot be claimed to
        # separate n events).
        if self.eta_plus(self._SEARCH_CAP) < n:
            return INF
        lo, hi = 0.0, 1.0
        while self.eta_plus(hi) < n:
            lo = hi
            hi *= 2.0
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if self.eta_plus(mid) >= n:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-12 * max(1.0, hi):
                break
        # Invariant maintained by the loop: η⁺(lo) < n <= η⁺(hi).
        return lo

    def delta_plus(self, n: int) -> float:
        self._check_n(n)
        if n < 2:
            return 0.0
        # δ⁺(n) = sup{Δt : η⁻(Δt) <= n - 2}.  Dual of delta_min: the
        # bisection brackets the step as lo <= δ⁺(n) <= hi, and a maximum
        # distance must never be *under*estimated, so snap to the high
        # side — the η⁻ re-check guarantees hi is conservative
        # (η⁻(hi) > n - 2 means hi lies at or beyond the true supremum).
        if self.eta_min(self._SEARCH_CAP) <= n - 2:
            return INF
        lo, hi = 0.0, 1.0
        while self.eta_min(hi) <= n - 2:
            lo = hi
            hi *= 2.0
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if self.eta_min(mid) <= n - 2:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12 * max(1.0, hi):
                break
        # Invariant maintained by the loop: η⁻(lo) <= n - 2 < η⁻(hi).
        return hi


def or_join_superposition(models: Sequence[EventModel],
                          name: str = "orsup") -> EventModel:
    """η-superposition variant of :func:`or_join` (see class docstring)."""
    active = [m for m in models if not isinstance(m, NullEventModel)]
    if not active:
        return NullEventModel()
    if len(active) == 1:
        return active[0]
    return CachedModel(_SuperpositionOrJoin(active, name=name), name=name)


# ----------------------------------------------------------------------
# AND-join
# ----------------------------------------------------------------------
class _AndJoin(EventModel):
    def __init__(self, models: Sequence[EventModel], name: str = "and"):
        self._models = list(models)
        self.name = name

    def delta_min(self, n: int) -> float:
        self._check_n(n)
        if n < 2:
            return 0.0
        return max(m.delta_min(n) for m in self._models)

    def delta_plus(self, n: int) -> float:
        self._check_n(n)
        if n < 2:
            return 0.0
        return max(m.delta_plus(n) for m in self._models)

    def delta_min_block(self, n_max: int) -> list:
        self._check_n(n_max)
        blocks = [m.delta_min_block(n_max) for m in self._models]
        return [max(b[n] for b in blocks) for n in range(n_max + 1)]

    def delta_plus_block(self, n_max: int) -> list:
        self._check_n(n_max)
        blocks = [m.delta_plus_block(n_max) for m in self._models]
        return [max(b[n] for b in blocks) for n in range(n_max + 1)]

    def long_run_rate(self) -> float:
        return min(m.long_run_rate() for m in self._models)


def and_join(models: Sequence[EventModel], name: str = "and") -> EventModel:
    """AND-combination: output when every input has produced an event.

    Requires all inputs to have the same long-run rate for bounded
    buffering (Jersak's condition); this function does not enforce the
    rate check — see :func:`repro.system.junctions.check_and_join_rates`.
    """
    if not models:
        raise ModelError("and_join needs at least one input stream")
    if len(models) == 1:
        return models[0]
    return CachedModel(_AndJoin(models, name=name), name=name)


# ----------------------------------------------------------------------
# Shapers
# ----------------------------------------------------------------------
class DminShaper(EventModel):
    """Greedy minimum-distance shaper.

    Events are released in FIFO order, delayed as little as possible such
    that consecutive releases are at least ``d`` apart.  Output bounds::

        δ'⁻(n) = max(δ⁻(n), (n - 1) * d)
        δ'⁺(n) = δ⁺(n) + D_max

    where ``D_max = sup_n [ (n - 1) * d - δ⁻(n) ]⁺`` is the worst-case
    shaping delay of a single event (finite iff the input's long-run rate
    is below ``1/d``).  The δ⁺ bound is conservative: the first event of
    a window may be delayed by up to ``D_max`` while the last is not
    delayed at all.
    """

    def __init__(self, input_model: EventModel, d: float,
                 horizon: int = 10_000, name: str = "shaper"):
        if d < 0:
            raise ModelError(f"shaper distance must be >= 0, got {d}")
        self._in = input_model
        self.d = float(d)
        self._horizon = horizon
        self._max_delay = None
        self.name = name

    @property
    def max_delay(self) -> float:
        """Worst-case delay the shaper adds to a single event."""
        if self._max_delay is None:
            self._max_delay = self._compute_max_delay()
        return self._max_delay

    def _compute_max_delay(self) -> float:
        if self.d == 0.0:
            return 0.0
        rate = self._in.load(accuracy=self._horizon)
        if rate * self.d >= 1.0:
            return INF
        best = 0.0
        n = 2
        while n <= self._horizon:
            lag = (n - 1) * self.d - self._in.delta_min(n)
            if lag > best:
                best = lag
            # once δ⁻ has outrun the shaping line by the current best lag,
            # no later n can produce a larger lag (δ⁻ superadditive with
            # rate > 1/d keeps diverging)
            if self._in.delta_min(n) - (n - 1) * self.d > best:
                break
            n += 1
        return best

    def delta_min(self, n: int) -> float:
        self._check_n(n)
        if n < 2:
            return 0.0
        return max(self._in.delta_min(n), (n - 1) * self.d)

    def long_run_rate(self) -> float:
        return spaced_rate(self._in.long_run_rate(), self.d)

    def delta_plus(self, n: int) -> float:
        self._check_n(n)
        if n < 2:
            return 0.0
        dp = self._in.delta_plus(n)
        if math.isinf(dp):
            return INF
        return max(dp + self.max_delay, (n - 1) * self.d)

    def delta_min_block(self, n_max: int) -> list:
        self._check_n(n_max)
        src = self._in.delta_min_block(n_max)
        d = self.d
        out = src[:2]
        out.extend(max(src[n], (n - 1) * d) for n in range(2, n_max + 1))
        return out

    def delta_plus_block(self, n_max: int) -> list:
        self._check_n(n_max)
        src = self._in.delta_plus_block(n_max)
        delay = self.max_delay
        d = self.d
        out = src[:2]
        out.extend(
            INF if math.isinf(dp) else max(dp + delay, (n - 1) * d)
            for n, dp in enumerate(src[2:], start=2))
        return out
