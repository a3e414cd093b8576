"""Bounded priority queue between the HTTP layer and the dispatchers.

Requests accepted by the HTTP handlers become :class:`WorkItem` entries
ordered by ``(priority, seq)`` — lower priority number first, FIFO
within a priority class — in a heap bounded by ``capacity``.  The
queue is the daemon's backpressure valve and its drain point:

* a full queue raises :class:`QueueFull` carrying a ``retry_after``
  estimate, which the HTTP layer turns into ``429 Too Many Requests``
  with a ``Retry-After`` header;
* a closed queue (DRAINING) raises :class:`QueueClosed` → 503;
* :meth:`RequestQueue.drain` flushes everything queued-but-unstarted
  so each waiter can be answered with 503 plus its resumable job key.

Per-request *deadlines* bound queue wait: :meth:`WorkItem.expired`
is checked by the dispatcher at pop time, so a request that sat in the
queue past its budget is answered ``504`` without burning a worker on
an answer nobody is waiting for anymore.

The queue is asyncio-native: ``submit``/``drain`` are plain methods
called on the event-loop thread, ``pop`` is a coroutine dispatchers
await.  Nothing here is thread-safe by design — all entry points run
on the loop; worker threads only ever touch the item they were handed.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .._errors import ModelError

#: Default priority for requests that do not ask for one (lower runs
#: sooner; think Unix nice).
DEFAULT_PRIORITY = 10


class QueueFull(Exception):
    """Queue at capacity — reject with 429 + Retry-After."""

    def __init__(self, depth: int, retry_after: float):
        super().__init__(f"request queue full ({depth} queued)")
        self.depth = depth
        self.retry_after = retry_after


class QueueClosed(Exception):
    """Queue closed for new work (daemon draining) — reject with 503."""


@dataclass(order=True)
class WorkItem:
    """One queued request: ordering key + everything the dispatcher
    and the waiting HTTP handler need.

    Only ``priority`` and ``seq`` participate in ordering.  ``future``
    is resolved exactly once — by the dispatcher (result or handler
    error), by deadline expiry, or by the drain flush.
    """

    priority: int
    seq: int
    kind: str = field(compare=False, default="")
    payload: Dict[str, Any] = field(compare=False, default_factory=dict)
    #: Content-addressed job key when known at submit time (analyze /
    #: explain / job requests); the resumable handle a drained 503
    #: hands back.
    job_key: str = field(compare=False, default="")
    #: The request's job (analyze / explain / job requests), built once
    #: at admission; None for sweeps.
    job: Optional[Any] = field(compare=False, default=None)
    #: Absolute monotonic deadline for *starting* the work, or None.
    deadline: Optional[float] = field(compare=False, default=None)
    enqueued_at: float = field(compare=False,
                               default_factory=time.monotonic)
    future: "asyncio.Future" = field(compare=False, default=None)
    #: For streaming requests: the asyncio queue NDJSON events flow
    #: through (None for unary requests).
    stream: Optional["asyncio.Queue"] = field(compare=False, default=None)
    #: Correlation id minted at the HTTP edge; stamped onto spans, bus
    #: events, and the persisted result record.
    request_id: str = field(compare=False, default="")
    #: The request's root span (detached — started on the loop thread,
    #: finished wherever the request is resolved), or None.
    span: Optional[Any] = field(compare=False, default=None)

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else time.monotonic()) \
            > self.deadline

    def queue_wait(self, now: Optional[float] = None) -> float:
        return (now if now is not None else time.monotonic()) \
            - self.enqueued_at


class RequestQueue:
    """Bounded priority queue with deadline expiry and drain flush."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ModelError(f"queue capacity must be >= 1, got "
                             f"{capacity}")
        self.capacity = capacity
        self._heap: List[WorkItem] = []
        self._seq = itertools.count()
        self._closed = False
        self._waiters: "List[asyncio.Future]" = []
        #: Rolling mean service time (seconds) fed by the dispatcher;
        #: used for the Retry-After estimate.
        self._service_mean = 0.05
        self._workers = 1

    # ------------------------------------------------------------------
    def configure_estimate(self, workers: int) -> None:
        self._workers = max(1, workers)

    def observe_service_time(self, seconds: float) -> None:
        """Exponential moving average of job service time."""
        if seconds > 0:
            self._service_mean += 0.2 * (seconds - self._service_mean)

    def retry_after(self) -> float:
        """Seconds after which a rejected client should retry: the
        estimated time to drain the current backlog."""
        backlog = len(self._heap) * self._service_mean / self._workers
        return max(1.0, round(backlog, 1))

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self._heap)

    @property
    def closed(self) -> bool:
        return self._closed

    def oldest_wait(self, now: Optional[float] = None) -> float:
        """Queue wait of the longest-waiting item (seconds; 0.0 when
        empty) — the queue-age gauge exposed at ``/metrics``."""
        if not self._heap:
            return 0.0
        if now is None:
            now = time.monotonic()
        return max(item.queue_wait(now) for item in self._heap)

    def submit(self, kind: str, payload: Dict[str, Any], *,
               priority: int = DEFAULT_PRIORITY,
               deadline: Optional[float] = None,
               job_key: str = "",
               stream: Optional["asyncio.Queue"] = None,
               request_id: str = "",
               span: Optional[Any] = None,
               job: Optional[Any] = None) -> WorkItem:
        """Enqueue a request; returns the item whose ``future`` the
        caller awaits.  *deadline* is relative seconds from now."""
        if self._closed:
            raise QueueClosed()
        if len(self._heap) >= self.capacity:
            raise QueueFull(len(self._heap), self.retry_after())
        item = WorkItem(
            priority=int(priority), seq=next(self._seq), kind=kind,
            payload=payload, job_key=job_key, job=job,
            deadline=(time.monotonic() + deadline
                      if deadline is not None else None),
            future=asyncio.get_running_loop().create_future(),
            stream=stream, request_id=request_id, span=span)
        heapq.heappush(self._heap, item)
        self._wake_one()
        return item

    async def pop(self) -> Optional[WorkItem]:
        """Next item by priority, or ``None`` once closed and empty."""
        while True:
            if self._heap:
                return heapq.heappop(self._heap)
            if self._closed:
                return None
            waiter = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
            try:
                await waiter
            finally:
                if waiter in self._waiters:
                    self._waiters.remove(waiter)

    def close(self) -> None:
        """Refuse new submissions; wake dispatchers so idle ones exit."""
        self._closed = True
        self._wake_all()

    def drain(self) -> List[WorkItem]:
        """Close and flush: every queued-but-unstarted item is removed
        and returned so the server can answer its waiter with 503 + the
        resumable job key."""
        self.close()
        flushed = sorted(self._heap)
        self._heap.clear()
        return flushed

    # ------------------------------------------------------------------
    def _wake_one(self) -> None:
        for waiter in self._waiters:
            if not waiter.done():
                waiter.set_result(None)
                break

    def _wake_all(self) -> None:
        for waiter in self._waiters:
            if not waiter.done():
                waiter.set_result(None)

    def __len__(self) -> int:
        return len(self._heap)
