"""Metrics primitives: counters, gauges, histograms, and a registry.

All instruments are create-on-first-use through the
:class:`MetricsRegistry` so call sites never need registration
boilerplate::

    obs.metrics().counter("serve.requests").inc()
    with obs.metrics().histogram("serve.request_seconds").time_block():
        handle(request)

The analysis engine writes no instrument by hand: each of its events is
one record (:func:`repro.obs.emit`), and :meth:`MetricsRegistry.fold`
derives the engine's metrics from the records through one table,
:data:`RECORD_METRICS`.

A process has one registry and each running job its own
(:mod:`repro.obs.context`): the job ships :meth:`MetricsRegistry.
as_delta` in its result, and its backend folds that into the process
registry with :meth:`MetricsRegistry.merge_delta` unless it timed out.

Instrument objects are cheap plain-Python holders; the registry hands
out the same object for the same name, so hot call sites may keep a
local reference.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Dict, List, Optional

from .._errors import ModelError


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Gauge {self.name}={self.value}>"


class _TimeBlock:
    """Context manager that observes its elapsed wall time."""

    __slots__ = ("_hist", "_t0")

    def __init__(self, hist: "Histogram"):
        self._hist = hist

    def __enter__(self) -> "_TimeBlock":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._hist.observe(time.perf_counter() - self._t0)
        return False


class Histogram:
    """Collects raw observations; summary statistics on demand.

    Observations are kept exactly (analysis runs produce thousands of
    samples, not millions), so percentiles are exact rather than
    bucket-approximated.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str):
        self.name = name
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    def time_block(self) -> _TimeBlock:
        """``with hist.time_block(): ...`` observes the block's seconds."""
        return _TimeBlock(self)

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        if not self.values:
            return 0.0
        return self.total / len(self.values)

    @property
    def min(self) -> float:
        return min(self.values) if self.values else 0.0

    @property
    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def percentile(self, p: float) -> float:
        """Exact p-th percentile with linear interpolation.

        *p* is clamped into [0, 100] (callers computing e.g.
        ``100 * (1 - 1/n)`` may land a hair outside through float
        error); NaN is rejected.  An empty histogram reports 0.0, a
        single sample is every percentile of itself, and p=0 / p=100
        are exactly the min / max.
        """
        if math.isnan(p):
            raise ModelError(f"percentile must be a number, got {p}")
        p = min(100.0, max(0.0, p))
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        if len(ordered) == 1:
            return ordered[0]
        if p <= 0.0:
            return ordered[0]
        if p >= 100.0:
            return ordered[-1]
        rank = (p / 100.0) * (len(ordered) - 1)
        lo = math.floor(rank)
        # Guard the index against float error in rank for p near 100.
        hi = min(math.ceil(rank), len(ordered) - 1)
        if lo == hi:
            return ordered[lo]
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
        }

    def reset(self) -> None:
        self.values.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Histogram {self.name} n={self.count}>"


#: How each engine record folds into the registry: per record kind,
#: ``(instrument, name, value)`` triples, *value* mapping the record to
#: the amount to add, set or observe (``None``: leave the instrument
#: alone).  A dict amount updates one instrument per key, named
#: ``name.format(key)``.  The record fields are listed in
#: ``docs/observability.md``.
RECORD_METRICS = {
    "iteration": (
        ("counter", "propagation.iterations", lambda r: 1),
        ("gauge", "propagation.iterations_to_convergence",
         lambda r: r["iteration"] if r["converged"] else None),
        ("counter", "propagation.junction.{}", lambda r: r["junctions"]),
        ("gauge", "resilience.failed_resources",
         lambda r: (r["failed_resources"] if r["mode"] == "degraded"
                    else None)),
    ),
    "local_analysis": (
        ("histogram", "propagation.local_analysis_seconds",
         lambda r: r["duration"]),
        ("counter", "busy_window.windows", lambda r: r["windows"]),
        ("counter", "busy_window.activations",
         lambda r: r["activations"]),
    ),
    "guard": (
        ("counter", "propagation.divergence_detected", lambda r: 1),
    ),
    "quarantine": (
        ("counter", "resilience.quarantines", lambda r: 1),
        ("counter", "resilience.widenings", lambda r: r["widenings"]),
        ("gauge", "resilience.failed_resources",
         lambda r: r["failed_resources"]),
    ),
}

#: The update method of each instrument type.
_UPDATE = {"counter": "inc", "gauge": "set", "histogram": "observe"}


class MetricsRegistry:
    """Namespace of instruments, create-on-first-use: the process's
    (what runs outside a job, plus every folded job) or one job's."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(name))
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge(name))
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(name, Histogram(name))
        return h

    def fold(self, kind: str, record: Dict[str, Any]) -> None:
        """Update the instruments :data:`RECORD_METRICS` maps a *kind*
        record to."""
        for instrument, name, value in RECORD_METRICS[kind]:
            amount = value(record)
            if amount is None:
                continue
            items = (amount.items() if isinstance(amount, dict)
                     else ((None, amount),))
            for key, v in items:
                target = getattr(self, instrument)(
                    name if key is None else name.format(key))
                getattr(target, _UPDATE[instrument])(v)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """All instrument values as one JSON-serialisable dict."""
        with self._lock:
            return {
                "counters": {n: c.value
                             for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value
                           for n, g in sorted(self._gauges.items())},
                "histograms": {n: h.summary()
                               for n, h in sorted(self._histograms.items())},
            }

    def export_state(self) -> Dict[str, Any]:
        """Raw instrument state for exposition renderers.

        Unlike :meth:`snapshot` (which pre-summarises histograms), this
        keeps the raw observation lists so an exporter can derive its
        own bucketing — :mod:`repro.obs.openmetrics` turns them into
        cumulative ``_bucket`` series at render time.
        """
        with self._lock:
            return {
                "counters": {n: c.value
                             for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value
                           for n, g in sorted(self._gauges.items())},
                "histograms": {n: list(h.values)
                               for n, h in sorted(self._histograms.items())},
            }

    def as_delta(self) -> Dict[str, Any]:
        """Everything recorded, as a JSON-serialisable
        :meth:`merge_delta` payload (non-zero counters, set gauges, raw
        histogram samples): a job's ``JobResult.obs["metrics"]``."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in self._counters.items()
                             if c.value},
                "gauges": {n: g.value for n, g in self._gauges.items()
                           if g.value is not None},
                "histograms": {n: list(h.values)
                               for n, h in self._histograms.items()
                               if h.values},
            }

    def merge_delta(self, delta: Dict[str, Any]) -> None:
        """Replay an :meth:`as_delta` payload into this registry (how
        a finished job's metrics reach the process registry, whichever
        backend ran it)."""
        for name, inc in delta.get("counters", {}).items():
            self.counter(name).inc(inc)
        for name, value in delta.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, samples in delta.get("histograms", {}).items():
            self.histogram(name).values.extend(samples)

    def is_empty(self) -> bool:
        """True when no instrument has recorded anything."""
        with self._lock:
            return (all(c.value == 0 for c in self._counters.values())
                    and all(g.value is None for g in self._gauges.values())
                    and all(h.count == 0
                            for h in self._histograms.values()))

    def reset(self) -> None:
        """Zero every instrument in place (objects stay valid, so call
        sites holding references keep working)."""
        with self._lock:
            for c in self._counters.values():
                c.reset()
            for g in self._gauges.values():
                g.reset()
            for h in self._histograms.values():
                h.reset()
