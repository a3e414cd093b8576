"""Standard event models (SEM): the (P, J, d_min) parameterisation.

Richter's standard event models describe periodic streams with jitter and a
minimum inter-arrival distance:

* ``periodic``            — (P, 0, P)
* ``periodic w/ jitter``  — (P, J, max(P - J, 0)) for J < P
* ``periodic w/ burst``   — (P, J, d_min) for J >= P, d_min > 0
* ``sporadic``            — same δ⁻ family, but δ⁺ unbounded

Closed forms:

    δ⁻(n) = max((n - 1) * P - J, (n - 1) * d_min)       for n >= 2
    δ⁺(n) = (n - 1) * P + J                             for n >= 2

η⁺/η⁻ are overridden with exact closed forms (strict-floor/strict-ceil of
the corresponding ratios); the generic pseudo-inverse of the base class
remains the reference implementation the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .._errors import ModelError
from ..timebase import INF, strict_ceil, strict_floor
from .base import EventModel


@dataclass(frozen=True)
class StandardEventModel(EventModel):
    """Periodic-with-jitter-and-minimum-distance event model.

    Parameters
    ----------
    period:
        Mean distance P between events; must be positive.
    jitter:
        Maximum deviation J from the periodic reference; non-negative.
    d_min:
        Minimum distance between any two events.  Defaults to
        ``max(period - jitter, 0)``; a zero d_min means events may
        coincide (a "burst" of simultaneous arrivals).
    sporadic:
        If True the stream may stall: δ⁺(n) = inf for n >= 2.  The δ⁻
        bound (and hence η⁺ / worst-case load) is unchanged.
    """

    period: float
    jitter: float = 0.0
    d_min: float = field(default=None)  # type: ignore[assignment]
    sporadic: bool = False
    name: str = "sem"

    def __post_init__(self):
        if self.period <= 0:
            raise ModelError(f"period must be > 0, got {self.period}")
        if self.jitter < 0:
            raise ModelError(f"jitter must be >= 0, got {self.jitter}")
        if self.d_min is None:
            object.__setattr__(self, "d_min",
                               max(self.period - self.jitter, 0.0))
        if self.d_min < 0:
            raise ModelError(f"d_min must be >= 0, got {self.d_min}")
        if self.d_min > self.period:
            raise ModelError(
                f"d_min ({self.d_min}) may not exceed the period "
                f"({self.period}); the long-run rate would be inconsistent"
            )

    # ------------------------------------------------------------------
    def delta_min(self, n: int) -> float:
        self._check_n(n)
        if n < 2:
            return 0.0
        return max((n - 1) * self.period - self.jitter,
                   (n - 1) * self.d_min)

    def delta_plus(self, n: int) -> float:
        self._check_n(n)
        if n < 2:
            return 0.0
        if self.sporadic:
            return INF
        return (n - 1) * self.period + self.jitter

    # The blocks evaluate the closed forms above with the same float
    # expressions, so every entry equals the per-n value bit for bit.
    def delta_min_block(self, n_max: int) -> list:
        self._check_n(n_max)
        p, j, d = self.period, self.jitter, self.d_min
        out = [0.0] * min(n_max + 1, 2)
        out.extend(max((n - 1) * p - j, (n - 1) * d)
                   for n in range(2, n_max + 1))
        return out

    def delta_plus_block(self, n_max: int) -> list:
        self._check_n(n_max)
        out = [0.0] * min(n_max + 1, 2)
        if self.sporadic:
            out.extend([INF] * (n_max - 1))
        else:
            p, j = self.period, self.jitter
            out.extend((n - 1) * p + j for n in range(2, n_max + 1))
        return out

    # ------------------------------------------------------------------
    # closed-form characteristic functions
    # ------------------------------------------------------------------
    def eta_plus(self, dt: float) -> int:
        if dt <= 0:
            return 0
        # largest n with max((n-1)P - J, (n-1)d) < dt
        bound = strict_floor((dt + self.jitter) / self.period)
        if self.d_min > 0:
            bound = min(bound, strict_floor(dt / self.d_min))
        return max(1, bound + 1)

    def eta_min(self, dt: float) -> int:
        if dt < 0:
            return 0
        if self.sporadic:
            return 0
        # smallest n >= 0 with (n+1)P + J > dt
        n = strict_ceil((dt - self.jitter) / self.period - 1.0)
        return max(0, n)

    def load(self, accuracy: int = 1000) -> float:
        return 1.0 / self.period

    # ------------------------------------------------------------------
    def with_jitter(self, jitter: float) -> "StandardEventModel":
        """Return a copy with a different jitter (d_min recomputed unless a
        burst model, in which case the explicit d_min is preserved)."""
        d_min = self.d_min if self.jitter >= self.period else None
        return StandardEventModel(self.period, jitter, d_min,
                                  sporadic=self.sporadic, name=self.name)

    def __repr__(self) -> str:
        kind = "sporadic" if self.sporadic else "periodic"
        return (f"<SEM {self.name} {kind} P={self.period} J={self.jitter} "
                f"d={self.d_min}>")


def periodic(period: float, name: str = "periodic") -> StandardEventModel:
    """Strictly periodic stream: (P, 0, P)."""
    return StandardEventModel(period, 0.0, name=name)


def periodic_with_jitter(period: float, jitter: float,
                         name: str = "pjd") -> StandardEventModel:
    """Periodic stream with jitter: (P, J, max(P - J, 0))."""
    return StandardEventModel(period, jitter, name=name)


def periodic_with_burst(period: float, jitter: float, d_min: float,
                        name: str = "burst") -> StandardEventModel:
    """Periodic stream with burst: (P, J, d_min); J typically >= P."""
    return StandardEventModel(period, jitter, d_min, name=name)


def sporadic(period: float, jitter: float = 0.0, d_min: float = None,
             name: str = "sporadic") -> StandardEventModel:
    """Sporadic stream: same arrival bound as the periodic model but no
    guarantee that events keep coming (δ⁺ = inf)."""
    return StandardEventModel(period, jitter, d_min, sporadic=True,
                              name=name)
