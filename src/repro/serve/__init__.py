"""repro.serve — analysis-as-a-service daemon over the batch engine.

The subsystem that turns the library into a long-lived service::

    python -m repro serve --port 8787 --workers 4     # the daemon
    python -m repro submit rox08                      # a client

Pieces:

* :mod:`repro.serve.server` — :class:`ServeDaemon`: asyncio HTTP/1.1 +
  JSON (stdlib only), dispatcher worker threads over the
  :class:`~repro.batch.executor.BatchRunner`, NDJSON sweep streaming,
  ``/healthz``, graceful SIGTERM drain.
* :mod:`repro.serve.state` — explicit lifecycle state machine
  (STARTING → SERVING → DRAINING → STOPPED) and the request ledger.
* :mod:`repro.serve.queue` — bounded priority queue with per-request
  deadlines and 429 backpressure.
* :mod:`repro.serve.handlers` — request → content-addressed job
  translation (plus the cached ``explain`` job kind).
* :mod:`repro.serve.client` — typed blocking :class:`ServeClient`.
* :mod:`repro.serve.cli` — the ``serve`` and ``submit`` entry points.

Because every request flows through the shared
:class:`~repro.batch.store.ResultStore` and the process-global
shared-chain LRU, the daemon's caches warm across *clients*: the
second identical request — from anyone — is a cache hit.
"""

from __future__ import annotations

from .client import RequestRejected, ServeClient, ServeError, ServeResponse
from .queue import QueueClosed, QueueFull, RequestQueue, WorkItem
from .server import DaemonHandle, ServeDaemon, daemon_in_thread
from .state import (
    DRAINING,
    SERVING,
    STARTING,
    STOPPED,
    ServeStats,
    ServiceStateMachine,
)

__all__ = [
    "DRAINING",
    "DaemonHandle",
    "QueueClosed",
    "QueueFull",
    "RequestQueue",
    "RequestRejected",
    "SERVING",
    "STARTING",
    "STOPPED",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "ServeResponse",
    "ServeStats",
    "ServiceStateMachine",
    "WorkItem",
    "daemon_in_thread",
]
