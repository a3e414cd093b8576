"""Abstract event-model interface: the four characteristic functions.

Following Richter's compositional analysis framework (and the paper's
section 3), an event stream is bounded by four characteristic functions:

``delta_min(n)``  (δ⁻)
    Lower bound on the length of any time interval containing ``n``
    consecutive events of the stream.  Defined for all ``n >= 0`` with
    ``delta_min(0) == delta_min(1) == 0``.

``delta_plus(n)``  (δ⁺)
    Upper bound on the length of the interval spanned by ``n`` consecutive
    events; may be ``inf`` (the stream may stall — e.g. pending signals).

``eta_plus(dt)``  (η⁺)
    Maximum number of events in any half-open time window of length
    ``dt``.  Derived from δ⁻ via the paper's eq. (1):
    ``η⁺(Δt) = max[{n >= 2 : δ⁻(n) < Δt} ∪ {1}]`` for ``Δt > 0`` and 0 for
    ``Δt <= 0``.

``eta_min(dt)``  (η⁻)
    Minimum number of events in any window of length ``dt``, paper eq. (2):
    ``η⁻(Δt) = min{n >= 0 : δ⁺(n + 2) > Δt}``.

Only δ⁻/δ⁺ are abstract; η⁺/η⁻ default to a generic pseudo-inverse using
doubling + binary search, which concrete models may override with closed
forms.  All models are treated as immutable value objects; δ evaluations of
derived models are memoised by the subclasses that need it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from .._errors import ModelError, UnboundedStreamError
from ..timebase import EPS, INF

#: Safety cap for the η⁺ searches: ``eta_plus(dt)`` raises
#: :class:`UnboundedStreamError` exactly when η⁺(dt) would exceed this many
#: events (δ⁻(MAX_EVENTS + 1) < dt), a modelling error such as a
#: zero-distance unbounded stream.  Every search (the generic one below,
#: the prefix memo's bisect, the kernels' vector tables) reads the bound
#: from here when it runs.
MAX_EVENTS = 1_000_000


def unbounded_eta(model: "EventModel", dt: float) -> UnboundedStreamError:
    """The error of an η⁺ query past :data:`MAX_EVENTS`."""
    return UnboundedStreamError(
        f"eta_plus({dt!r}) exceeds {MAX_EVENTS} events for {model!r}; "
        f"the stream has no effective rate limit")


class EventModel(ABC):
    """Bound on the timing of all event sequences of a stream."""

    # Empty __slots__ here lets the hot derived-model subclasses opt out
    # of per-instance dicts entirely; subclasses that declare no
    # __slots__ still get a __dict__ as usual.
    __slots__ = ()

    #: Short human-readable tag used in reprs and reports.
    name: str = "em"

    # ------------------------------------------------------------------
    # abstract surface
    # ------------------------------------------------------------------
    @abstractmethod
    def delta_min(self, n: int) -> float:
        """δ⁻(n): minimum distance spanned by ``n`` consecutive events."""

    @abstractmethod
    def delta_plus(self, n: int) -> float:
        """δ⁺(n): maximum distance spanned by ``n`` consecutive events."""

    # ------------------------------------------------------------------
    # derived characteristic functions (paper eqs. (1) and (2))
    # ------------------------------------------------------------------
    def eta_plus(self, dt: float) -> int:
        """η⁺(Δt): maximum number of events in a window of length ``dt``."""
        if dt <= 0:
            return 0
        # Largest n >= 1 with delta_min(n) < dt.  delta_min is
        # non-decreasing in n, so exponential search for an upper bracket
        # followed by binary search is exact.
        if not self.delta_min(2) < dt:
            return 1
        cap = MAX_EVENTS + 1
        lo = 2  # delta_min(lo) < dt holds
        hi = min(4, cap)
        while self.delta_min(hi) < dt:
            if hi == cap:
                raise unbounded_eta(self, dt)
            lo = hi
            hi = min(2 * hi, cap)
        # invariant: delta_min(lo) < dt <= delta_min(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.delta_min(mid) < dt:
                lo = mid
            else:
                hi = mid
        return lo

    def eta_min(self, dt: float) -> int:
        """η⁻(Δt): minimum number of events in a window of length ``dt``."""
        if dt < 0:
            return 0
        # Smallest n >= 0 with delta_plus(n + 2) > dt.  delta_plus is
        # non-decreasing; if delta_plus(2) > dt already then n = 0.
        if self.delta_plus(2) > dt:
            return 0
        lo = 0  # delta_plus(lo + 2) <= dt holds
        hi = 2
        while not self.delta_plus(hi + 2) > dt:
            lo = hi
            hi *= 2
            if hi > MAX_EVENTS:
                raise UnboundedStreamError(
                    f"eta_min({dt!r}) exceeds {MAX_EVENTS} events for "
                    f"{self!r}"
                )
        # invariant: delta_plus(lo+2) <= dt < delta_plus(hi+2)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.delta_plus(mid + 2) > dt:
                hi = mid
            else:
                lo = mid
        return hi

    # ------------------------------------------------------------------
    # stream statistics
    # ------------------------------------------------------------------
    def load(self, accuracy: int = 1000) -> float:
        """Long-run event rate (events per time unit), estimated from the
        minimum-distance function at a horizon of ``accuracy`` events.

        For a standard event model this converges to ``1 / P``.  The value
        upper-bounds the true long-run rate because δ⁻ lower-bounds the
        true distances.
        """
        n = max(2, accuracy)
        d = self.delta_min(n)
        if d <= 0:
            return INF
        return (n - 1) / d

    def long_run_rate(self) -> float:
        """Long-run event rate read from the stream's structure.

        Every derived model that knows its rate answers in one visit to
        its inputs: the sum of the inputs for an OR-join (η⁺ of an
        OR-join is the sum of its inputs' η⁺, paper eqs. (3)/(4)), the
        outer stream's rate for a hierarchy, and so on.  Each such
        answer keeps the invariant

            δ⁻(n) <= (n - 1) / long_run_rate()     for every n >= 2

        whenever its inputs keep it.  Every other model answers with
        :meth:`load`: exact for the standard (1/P) and null (0) models,
        which keep the invariant, and the estimate at 1000 events
        otherwise, which holds it at n = 1000 only.  So on a chain whose
        leaves are standard or null models the rate is never above
        :meth:`load` at any horizon; above any other leaf it may be.
        """
        return self.load()

    def simultaneity(self, cap: int = MAX_EVENTS) -> int:
        """Maximum number of events that can arrive simultaneously, i.e.
        the largest ``n`` with ``delta_min(n) == 0``.

        This is the ``k`` of the paper's Definition 9 (the inner update
        function): events of the packed outer stream that coincide get
        serialised by the frame transmission, shrinking the embedded
        streams' minimum distances by ``(k - 1) * r_min``.
        """
        if self.delta_min(2) > EPS:
            return 1
        lo, hi = 2, 4
        while hi <= cap and self.delta_min(hi) <= EPS:
            lo = hi
            hi *= 2
        if hi > cap and self.delta_min(min(hi, cap)) <= EPS:
            raise UnboundedStreamError(
                f"simultaneity exceeds cap {cap} for {self!r}"
            )
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.delta_min(mid) <= EPS:
                lo = mid
            else:
                hi = mid
        return lo

    def busy_window_event_bound(self, window: float) -> int:
        """Number of activations to examine for a busy window of the given
        length — simply ``eta_plus(window)``, provided for readability at
        analysis call sites."""
        return self.eta_plus(window)

    # ------------------------------------------------------------------
    # block evaluation (batch APIs)
    # ------------------------------------------------------------------
    def delta_min_block(self, n_max: int) -> list:
        """[δ⁻(0), ..., δ⁻(n_max)] in one call.

        The generic implementation is a plain loop; memoised models
        (:class:`~repro.eventmodels.operations.PrefixMemoModel`) override
        it with a prefix slice.  Engine code that needs a δ range —
        convergence checks, serialisation — should use the block APIs
        rather than per-n virtual calls.
        """
        return [self.delta_min(n) for n in range(n_max + 1)]

    def delta_plus_block(self, n_max: int) -> list:
        """[δ⁺(0), ..., δ⁺(n_max)] in one call (see
        :meth:`delta_min_block`)."""
        return [self.delta_plus(n) for n in range(n_max + 1)]

    # ------------------------------------------------------------------
    # sampling helpers used by reports, figures, and tests
    # ------------------------------------------------------------------
    def delta_min_seq(self, n_max: int) -> list:
        """[δ⁻(0), δ⁻(1), ..., δ⁻(n_max)] as a plain list."""
        return self.delta_min_block(n_max)

    def delta_plus_seq(self, n_max: int) -> list:
        """[δ⁺(0), δ⁺(1), ..., δ⁺(n_max)] as a plain list."""
        return self.delta_plus_block(n_max)

    def eta_plus_series(self, t_max: float, step: float) -> list:
        """Sampled (Δt, η⁺(Δt)) pairs for plotting figures like the
        paper's Figure 4.

        Sample positions are computed as ``i * step`` (not accumulated)
        so float drift over long series cannot shift or drop the final
        sample.
        """
        if step <= 0:
            raise ModelError("step must be positive")
        series = []
        i = 0
        while True:
            t = i * step
            if t > t_max + EPS:
                break
            series.append((t, self.eta_plus(t)))
            i += 1
        return series

    # ------------------------------------------------------------------
    # common validation helpers for subclasses
    # ------------------------------------------------------------------
    @staticmethod
    def _check_n(n: int) -> None:
        if n < 0:
            raise ModelError(f"event count must be >= 0, got {n}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class NullEventModel(EventModel):
    """A stream that never produces any event.

    δ⁻ is infinite for n >= 2 (two events never happen), δ⁺ likewise.
    Useful as the neutral element of OR-joins and for disconnected inputs.
    """

    __slots__ = ()

    name = "null"

    def delta_min(self, n: int) -> float:
        self._check_n(n)
        return 0.0 if n < 2 else INF

    def delta_plus(self, n: int) -> float:
        self._check_n(n)
        return 0.0 if n < 2 else INF

    def eta_plus(self, dt: float) -> int:
        return 0

    def eta_min(self, dt: float) -> int:
        return 0

    def load(self, accuracy: int = 1000) -> float:
        return 0.0

    def __eq__(self, other) -> bool:
        return isinstance(other, NullEventModel)

    def __hash__(self) -> int:
        return hash("NullEventModel")


def models_equal(a: EventModel, b: EventModel, n_max: int = 64,
                 eps: float = EPS) -> bool:
    """Tolerant behavioural equality of two event models on a test range.

    Used by the global propagation loop as its convergence criterion: two
    models are considered equal when both δ functions agree for all
    ``n <= n_max``.  A model is equal to itself without evaluation (a
    shared chain that did not move is the same object); otherwise both
    are evaluated through the block APIs, so memoised chains are compared
    by slices rather than per-n virtual calls.
    """
    if a is b:
        return True
    da = a.delta_min_block(n_max)
    db = b.delta_min_block(n_max)
    for n in range(2, n_max + 1):
        if not _feq(da[n], db[n], eps):
            return False
    pa = a.delta_plus_block(n_max)
    pb = b.delta_plus_block(n_max)
    for n in range(2, n_max + 1):
        if not _feq(pa[n], pb[n], eps):
            return False
    return True


def _feq(a: float, b: float, eps: float) -> bool:
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= eps
