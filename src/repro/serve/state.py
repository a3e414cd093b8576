"""Service state machine and request accounting for the daemon.

The daemon's lifecycle is an explicit, observable state machine::

    STARTING ──> SERVING ──> DRAINING ──> STOPPED
        │                                    ^
        └────────────────────────────────────┘

* ``STARTING`` — the store is opening, dispatchers are spawning; no
  socket is bound yet.
* ``SERVING`` — the steady state: requests are accepted, queued, and
  dispatched.
* ``DRAINING`` — entered on SIGTERM/SIGINT (or an explicit drain):
  new work is refused with 503, in-flight jobs run to completion and
  checkpoint into the store, queued-but-unstarted requests are flushed
  with 503 + their resumable job key.
* ``STOPPED`` — dispatchers joined, listener closed, store
  checkpointed.

Transitions are validated (the daemon can never un-drain), recorded
with timestamps, announced to registered listeners, and published on
the :mod:`repro.obs` event bus as ``serve_state`` events so a live
monitor or the NDJSON progress stream can show lifecycle changes.

:class:`ServeStats` is the thread-safe request ledger behind
``/healthz``: totals per disposition (ok / failed / rejected /
deadline-expired / drained), cache hits vs misses as reported by the
:class:`~repro.batch.executor.BatchRunner`, and a latency sum.  The
same increments are mirrored into ``serve.*`` counters of the global
metrics registry when observability is enabled, so the daemon shows up
in metric snapshots next to ``batch.*`` and ``propagation.*``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import obs as _obs
from .._errors import ModelError
from ..obs.bus import BUS as _BUS

#: Lifecycle states.
STARTING = "starting"
SERVING = "serving"
DRAINING = "draining"
STOPPED = "stopped"

#: Legal transitions; anything else is a programming error.
_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    STARTING: (SERVING, STOPPED),
    SERVING: (DRAINING, STOPPED),
    DRAINING: (STOPPED,),
    STOPPED: (),
}


class ServiceStateMachine:
    """Validated, observable lifecycle state of one daemon instance."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._lock = threading.Lock()
        self._clock = clock
        self._state = STARTING
        self._history: List[Tuple[str, float]] = [(STARTING, clock())]
        self._listeners: List[Callable[[str, str], None]] = []

    @property
    def state(self) -> str:
        return self._state

    def is_(self, state: str) -> bool:
        return self._state == state

    @property
    def accepting(self) -> bool:
        """Whether new requests may enter the queue."""
        return self._state == SERVING

    def history(self) -> List[Dict[str, Any]]:
        with self._lock:
            t0 = self._history[0][1]
            return [{"state": s, "at": t - t0} for s, t in self._history]

    def add_listener(self, fn: Callable[[str, str], None]) -> None:
        """Register ``fn(old_state, new_state)``; called inside ``to``."""
        self._listeners.append(fn)

    def to(self, new_state: str) -> str:
        """Transition into *new_state*, validating legality.

        Idempotent on the current state (``to(SERVING)`` while serving
        is a no-op) so signal handlers may fire more than once.
        """
        with self._lock:
            old = self._state
            if new_state == old:
                return old
            if new_state not in _TRANSITIONS.get(old, ()):
                raise ModelError(
                    f"illegal service transition {old} -> {new_state}")
            self._state = new_state
            self._history.append((new_state, self._clock()))
        for fn in self._listeners:
            fn(old, new_state)
        if _BUS.wants("serve_state"):
            _BUS.publish({"type": "serve_state", "from": old,
                          "to": new_state})
        return new_state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ServiceStateMachine {self._state}>"


class ServeStats:
    """Thread-safe request ledger feeding ``/healthz``.

    Counters follow the request's final disposition exactly once:

    * ``ok`` / ``failed`` — a response was computed (``failed`` covers
      engine failures the batch layer reported; the HTTP status is
      still 200 with the failure in the body, mirroring how a sweep
      records failed points without dying).
    * ``rejected`` — refused at the door with 429 (queue full).
    * ``expired`` — the per-request deadline lapsed while queued (504).
    * ``drained`` — flushed with 503 during DRAINING.
    * ``errors`` — malformed requests and handler crashes (4xx/5xx).

    ``cache_hits``/``cache_misses`` count *served analysis points*:
    a request whose job came back from the
    :class:`~repro.batch.store.ResultStore` (or whose sweep points
    did) increments hits; executed points increment misses.
    """

    _DISPOSITIONS = ("ok", "failed", "rejected", "expired", "drained",
                     "errors")

    def __init__(self):
        self._lock = threading.Lock()
        self.requests = 0
        self.ok = 0
        self.failed = 0
        self.rejected = 0
        self.expired = 0
        self.drained = 0
        self.errors = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.latency_sum = 0.0
        self.streamed_events = 0

    # ------------------------------------------------------------------
    def _bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)
        if _obs.enabled:
            _obs.metrics().counter(f"serve.{name}").inc(amount)

    def request(self) -> None:
        self._bump("requests")

    def dispose(self, disposition: str, latency: Optional[float] = None
                ) -> None:
        if disposition not in self._DISPOSITIONS:
            raise ModelError(f"unknown disposition {disposition!r}")
        self._bump(disposition)
        if latency is not None:
            with self._lock:
                self.latency_sum += latency
            if _obs.enabled:
                _obs.metrics().histogram(
                    "serve.request_seconds").observe(latency)

    def cache(self, hits: int, misses: int) -> None:
        if hits:
            self._bump("cache_hits", hits)
        if misses:
            self._bump("cache_misses", misses)

    def streamed(self, events: int = 1) -> None:
        with self._lock:
            self.streamed_events += events

    # ------------------------------------------------------------------
    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "requests": self.requests,
                "ok": self.ok,
                "failed": self.failed,
                "rejected": self.rejected,
                "expired": self.expired,
                "drained": self.drained,
                "errors": self.errors,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_hit_rate": (self.cache_hits
                                   / (self.cache_hits + self.cache_misses)
                                   if self.cache_hits + self.cache_misses
                                   else 0.0),
                "latency_sum": self.latency_sum,
                "streamed_events": self.streamed_events,
            }
