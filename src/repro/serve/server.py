"""``repro.serve`` daemon: asyncio HTTP/1.1 + JSON over the batch engine.

One process, one event loop, ``K`` dispatcher tasks backed by ``K``
worker threads.  The HTTP layer (stdlib only — ``asyncio.start_server``
plus a minimal HTTP/1.1 request parser) accepts JSON requests, drops
them into the bounded priority :class:`~repro.serve.queue.RequestQueue`
and awaits the per-request future; dispatchers drain the queue into the
existing :class:`~repro.batch.executor.BatchRunner` running on worker
threads, so the content-addressed :class:`~repro.batch.store.
ResultStore` and the process-global shared-chain LRU act as shared
hot caches across *all* clients of the daemon.

Endpoints (see ``docs/serve.md`` for the full protocol):

====================  ====================================================
``GET  /healthz``     state machine, queue depth, cache hit rates,
                      ``serve.*`` counters, :class:`LiveAggregator`
                      rollups
``POST /v1/analyze``  analyze a ``system`` dict or built-in ``example``
                      (degrades instead of failing, by default)
``POST /v1/explain``  WCRT blame + lineage, content-addressed & cached
``POST /v1/job``      any registered batch job kind, verbatim
``POST /v1/sweep``    run a named design space; **streams NDJSON**
                      progress events (bus-subscribed per-request sink)
                      followed by one ``result`` line
====================  ====================================================

Backpressure: a full queue answers ``429`` with a ``Retry-After``
estimate.  Deadlines: a request carrying ``deadline`` seconds that is
still queued when the budget lapses is answered ``504``.  Shutdown:
SIGTERM/SIGINT moves the state machine ``SERVING → DRAINING`` —
in-flight jobs finish and checkpoint into the store, queued-but-
unstarted requests get ``503`` with their resumable job key, then the
daemon stops.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from .. import obs as _obs
from .._errors import ModelError
from ..batch.executor import BatchRunner, SerialBackend
from ..batch.store import ResultStore
from ..obs import context as _context
from ..obs import openmetrics as _openmetrics
from ..obs.aggregate import LiveAggregator
from ..obs.bus import BUS as _BUS
from . import handlers
from .handlers import BadRequest, RequestSink
from .queue import (
    DEFAULT_PRIORITY,
    QueueClosed,
    QueueFull,
    RequestQueue,
    WorkItem,
)
from .state import (
    DRAINING,
    SERVING,
    STARTING,
    STOPPED,
    ServeStats,
    ServiceStateMachine,
)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8787
DEFAULT_WORKERS = 2
DEFAULT_QUEUE_SIZE = 64
DEFAULT_CACHE_ROOT = ".repro-serve"

#: Upper bound on request body size (a serialised system is ~kilobytes;
#: this is a guard against garbage, not a tuning knob).
MAX_BODY_BYTES = 8 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: Sentinel closing a per-request NDJSON stream.
_STREAM_END = object()


class _HttpError(Exception):
    """Internal: carries a status + JSON body up to the writer."""

    def __init__(self, status: int, body: Dict[str, Any],
                 headers: Optional[Dict[str, str]] = None):
        super().__init__(body.get("error", ""))
        self.status = status
        self.body = body
        self.headers = headers or {}


class ServeDaemon:
    """The analysis-as-a-service daemon.

    Lifecycle: :meth:`start` binds the socket and moves the state
    machine to SERVING; :meth:`serve_forever` parks until STOPPED;
    :meth:`begin_drain` (signal handlers call this) starts the graceful
    shutdown.  :meth:`run` wires all three plus signal handlers into a
    blocking call for the CLI; tests use :func:`daemon_in_thread`.
    """

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 workers: int = DEFAULT_WORKERS,
                 queue_size: int = DEFAULT_QUEUE_SIZE,
                 cache_dir: Optional[str] = None,
                 retry: Optional[Any] = None,
                 default_deadline: Optional[float] = None,
                 quiet: bool = True):
        if workers < 1:
            raise ModelError(f"need at least one worker, got {workers}")
        self.host = host
        self.requested_port = port
        self.workers = workers
        self.cache_root = Path(cache_dir or DEFAULT_CACHE_ROOT)
        self.default_deadline = default_deadline
        self.quiet = quiet
        self.machine = ServiceStateMachine()
        self.stats = ServeStats()
        self.queue = RequestQueue(queue_size)
        self.queue.configure_estimate(workers)
        self.aggregator = LiveAggregator()
        self.retry = retry if retry is not None else _default_retry()
        self.started_at = time.monotonic()
        self.store: Optional[ResultStore] = None
        self._sweep_stores: Dict[str, ResultStore] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._dispatchers: list = []
        self._in_flight = 0
        self._stopped = asyncio.Event()
        self._drain_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`; a requested
        port of 0 binds an ephemeral one)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self.requested_port

    @property
    def state(self) -> str:
        return self.machine.state

    async def start(self) -> None:
        """Open the store, spawn dispatchers, bind the socket."""
        self._loop = asyncio.get_running_loop()
        _obs.configure(enabled=True)
        _BUS.subscribe(self.aggregator)
        self.store = ResultStore(self.cache_root / "requests")
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="repro-serve-worker")
        self._dispatchers = [
            asyncio.ensure_future(self._dispatch_loop(i))
            for i in range(self.workers)]
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.requested_port)
        self.machine.to(SERVING)
        self._log(f"serving on {self.host}:{self.port} "
                  f"({self.workers} worker(s), queue "
                  f"{self.queue.capacity})")

    async def serve_forever(self) -> None:
        await self._stopped.wait()

    def begin_drain(self) -> None:
        """Start graceful shutdown; safe to call from signal handlers
        and from other threads, idempotent."""
        if self._loop is None or self.machine.state in (DRAINING, STOPPED):
            return
        self._loop.call_soon_threadsafe(self._begin_drain_on_loop)

    def _begin_drain_on_loop(self) -> None:
        if self.machine.state != SERVING or self._drain_task is not None:
            return
        self._drain_task = asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        self._log("draining: refusing new work, flushing the queue, "
                  "waiting for in-flight jobs")
        self.machine.to(DRAINING)
        # Stop accepting new connections first.
        if self._server is not None:
            self._server.close()
        # Flush queued-but-unstarted requests: 503 + resumable job key.
        for item in self.queue.drain():
            self._resolve(item, 503, {
                "error": "draining",
                "detail": "daemon is shutting down; resubmit later — "
                          "completed work is checkpointed",
                "job_key": item.job_key,
            })
            self.stats.dispose("drained")
        # Dispatchers exit once the (closed) queue is empty; in-flight
        # jobs run to completion and checkpoint into the store.
        if self._dispatchers:
            await asyncio.gather(*self._dispatchers,
                                 return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self._server is not None:
            await self._server.wait_closed()
        if self.store is not None:
            self.store.close()
        for store in self._sweep_stores.values():
            store.close()
        _BUS.unsubscribe(self.aggregator)
        self.machine.to(STOPPED)
        self._log("stopped")
        self._stopped.set()

    async def aclose(self) -> None:
        """Drain and wait until STOPPED (test/bench convenience)."""
        self._begin_drain_on_loop()
        await self.serve_forever()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _runner(self) -> BatchRunner:
        """A per-request runner over the shared request store.  Serial
        backend: concurrency comes from the dispatcher threads, and the
        store/LRU sharing happens at the store layer."""
        return BatchRunner(store=self.store, backend=SerialBackend(),
                           retry=self.retry)

    def _sweep_runner(self, space: str) -> BatchRunner:
        """Sweeps use one store per space (same layout as the batch
        CLI cache) so daemon sweeps and shell sweeps share hits."""
        store = self._sweep_stores.get(space)
        if store is None:
            store = ResultStore(self.cache_root / "sweeps" / space)
            self._sweep_stores[space] = store
        return BatchRunner(store=store, backend=SerialBackend(),
                           retry=self.retry)

    async def _dispatch_loop(self, worker_id: int) -> None:
        while True:
            item = await self.queue.pop()
            if item is None:
                return
            now = time.monotonic()
            self._observe_dequeue(item, now)
            if item.expired(now):
                self._resolve(item, 504, {
                    "error": "deadline_exceeded",
                    "detail": f"request waited "
                              f"{item.queue_wait(now):.3f}s in queue, "
                              f"past its deadline",
                    "job_key": item.job_key,
                })
                self.stats.dispose("expired")
                continue
            self._in_flight += 1
            t0 = time.perf_counter()
            try:
                body = await self._execute(item)
            except BadRequest as exc:
                self._resolve(item, 400, {"error": "bad_request",
                                          "detail": str(exc)})
                self.stats.dispose("errors")
            except Exception as exc:  # handler crash: one 500, keep serving
                self._resolve(item, 500, {
                    "error": "internal",
                    "detail": f"{type(exc).__name__}: {exc}"})
                self.stats.dispose("errors")
            else:
                latency = time.perf_counter() - t0
                self.queue.observe_service_time(latency)
                ok = body.get("status", "ok") == "ok"
                self.stats.dispose("ok" if ok else "failed", latency)
                if _obs.enabled:
                    _obs.metrics().histogram(_openmetrics.labeled(
                        "serve.endpoint_seconds",
                        endpoint=item.kind)).observe(latency)
                self._resolve(item, 200, body)
            finally:
                self._in_flight -= 1

    def _observe_dequeue(self, item: WorkItem, now: float) -> None:
        """Queue-depth gauge + queue-wait histogram/span at pop time."""
        if not _obs.enabled:
            return
        wait = item.queue_wait(now)
        registry = _obs.metrics()
        registry.gauge("serve.queue_depth").set(self.queue.depth)
        registry.histogram("serve.queue_wait_seconds").observe(wait)
        if item.span is not None:
            # A child span covering exactly the time spent queued —
            # back-dated to the root's start so the Perfetto lane shows
            # the wait as a contiguous region under the request.
            qspan = _obs.get_tracer().start_detached(
                "serve.queue_wait", parent_id=item.span.span_id,
                ctx=_context.TraceContext(request_id=item.request_id),
                seconds=wait)
            qspan.start = item.span.start
            qspan.finish()

    async def _execute(self, item: WorkItem) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        if item.kind == "sweep":
            sink = (RequestSink(loop, item.stream)
                    if item.stream is not None else None)
            body = await loop.run_in_executor(
                self._executor,
                self._in_request_context(
                    item,
                    lambda: handlers.run_sweep(self._sweep_runner,
                                               item.payload, sink)))
            body["status"] = "ok"
            body["type"] = "result"
            return body
        job = handlers.build_job(item.kind, item.payload)
        profile = bool(item.payload.get("profile"))
        body = await loop.run_in_executor(
            self._executor,
            self._in_request_context(
                item,
                lambda: handlers.run_unary(self._runner(), job,
                                           profile=profile)))
        self.stats.cache(int(bool(body.get("cached"))),
                         int(not body.get("cached")))
        if item.request_id:
            body.setdefault("request_id", item.request_id)
        return body

    def _in_request_context(self, item: WorkItem, fn):
        """Wrap *fn* so it runs on the worker thread *inside* the
        request's trace context.

        ``loop.run_in_executor`` does not propagate contextvars (only
        ``asyncio.to_thread`` copies the context), so the context rides
        on the :class:`WorkItem` and is activated explicitly here —
        this is what stamps the request id onto every span, bus event,
        and stored result the job produces.
        """
        if not item.request_id:
            return fn
        ctx = _context.TraceContext(
            request_id=item.request_id,
            root_span_id=(item.span.span_id
                          if item.span is not None else None),
            endpoint=item.kind)

        def wrapped():
            token = _context.activate(ctx)
            span = (_obs.get_tracer().start("serve.execute",
                                            endpoint=item.kind)
                    if _obs.enabled else None)
            try:
                return fn()
            finally:
                if span is not None:
                    span.finish()
                _context.deactivate(token)

        return wrapped

    def _resolve(self, item: WorkItem, status: int,
                 body: Dict[str, Any]) -> None:
        if item.span is not None:
            self._finish_root_span(item.span, status,
                                   body.get("error"))
            item.span = None
        if item.stream is not None:
            # Streaming requests learn their fate through the stream.
            item.stream.put_nowait((status, body))
            item.stream.put_nowait(_STREAM_END)
        if item.future is not None and not item.future.done():
            item.future.set_result((status, body))

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, headers = await self._read_head(reader)
                body = await self._read_body(reader, headers)
            except _HttpError as exc:
                await self._write_json(writer, exc.status, exc.body,
                                       exc.headers)
                return
            except (asyncio.IncompleteReadError, ConnectionError,
                    asyncio.LimitOverrunError, asyncio.TimeoutError):
                return
            try:
                await self._route(method, path, body, writer, headers)
            except _HttpError as exc:
                await self._write_json(writer, exc.status, exc.body,
                                       exc.headers)
            except Exception as exc:  # defensive: never kill the loop
                await self._write_json(writer, 500, {
                    "error": "internal",
                    "detail": f"{type(exc).__name__}: {exc}"})
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_head(self, reader: asyncio.StreamReader
                         ) -> Tuple[str, str, Dict[str, str]]:
        raw = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=30.0)
        if len(raw) > MAX_HEADER_BYTES:
            raise _HttpError(400, {"error": "bad_request",
                                   "detail": "headers too large"})
        try:
            head = raw.decode("latin-1")
            request_line, *header_lines = head.split("\r\n")
            method, path, _version = request_line.split(" ", 2)
        except ValueError:
            raise _HttpError(400, {"error": "bad_request",
                                   "detail": "malformed request line"})
        headers: Dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), path, headers

    async def _read_body(self, reader: asyncio.StreamReader,
                         headers: Dict[str, str]) -> Dict[str, Any]:
        length = int(headers.get("content-length", "0") or "0")
        if length == 0:
            return {}
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, {"error": "payload_too_large",
                                   "detail": f"body of {length} bytes "
                                             f"exceeds {MAX_BODY_BYTES}"})
        raw = await asyncio.wait_for(reader.readexactly(length),
                                     timeout=60.0)
        try:
            payload = json.loads(raw)
        except ValueError:
            raise _HttpError(400, {"error": "bad_request",
                                   "detail": "body is not valid JSON"})
        if not isinstance(payload, dict):
            raise _HttpError(400, {"error": "bad_request",
                                   "detail": "body must be a JSON object"})
        return payload

    async def _route(self, method: str, path: str,
                     payload: Dict[str, Any],
                     writer: asyncio.StreamWriter,
                     headers: Optional[Dict[str, str]] = None) -> None:
        headers = headers or {}
        path, _, query = path.partition("?")
        params = _parse_query(query)
        ctx = handlers.mint_trace_context(
            headers.get("x-repro-request-id", ""))
        rid_headers = {"X-Repro-Request-Id": ctx.request_id}
        try:
            if path == "/healthz":
                if method != "GET":
                    raise _HttpError(405, {"error": "method_not_allowed"})
                await self._write_json(writer, 200, self.health(),
                                       rid_headers)
                return
            if path == "/metrics":
                if method != "GET":
                    raise _HttpError(405, {"error": "method_not_allowed"})
                await self._write_text(writer, 200, self.metrics_text(),
                                       _openmetrics.CONTENT_TYPE,
                                       rid_headers)
                return
            routes = {"/v1/analyze": "analyze", "/v1/explain": "explain",
                      "/v1/job": "job", "/v1/sweep": "sweep"}
            kind = routes.get(path)
            if kind is None:
                raise _HttpError(404, {
                    "error": "not_found",
                    "detail": f"no route {path!r} (have /healthz, "
                              f"/metrics, {', '.join(sorted(routes))})"})
            if method != "POST":
                raise _HttpError(405, {"error": "method_not_allowed"})
            if _truthy(params.get("profile")) and kind != "sweep":
                payload = dict(payload, profile=True)
            if kind == "sweep":
                await self._handle_sweep(payload, writer, ctx.request_id)
                return
            item = self._enqueue(kind, payload,
                                 request_id=ctx.request_id)
            status, body = await item.future
            await self._write_json(writer, status, body, rid_headers)
        except _HttpError as exc:
            # Every response — including rejections — echoes the id.
            exc.headers = {**rid_headers, **exc.headers}
            raise

    def _enqueue(self, kind: str, payload: Dict[str, Any],
                 stream: Optional[asyncio.Queue] = None,
                 request_id: str = "") -> WorkItem:
        self.stats.request()
        if not self.machine.accepting:
            self.stats.dispose("drained"
                               if self.machine.state == DRAINING
                               else "errors")
            raise _HttpError(503, {
                "error": "unavailable",
                "detail": f"daemon is {self.machine.state}, "
                          f"not accepting work"})
        # Compute the content-addressed key up front where possible: it
        # is the resumable handle a drained/expired answer carries.
        job_key = ""
        if kind == "sweep":
            job_key = str(payload.get("space") or "")
        if kind in ("analyze", "explain", "job"):
            try:
                job_key = handlers.build_job(kind, payload).key
            except BadRequest as exc:
                self.stats.dispose("errors")
                raise _HttpError(400, {"error": "bad_request",
                                       "detail": str(exc)})
        deadline = payload.get("deadline", self.default_deadline)
        if deadline is not None:
            try:
                deadline = float(deadline)
            except (TypeError, ValueError):
                self.stats.dispose("errors")
                raise _HttpError(400, {"error": "bad_request",
                                       "detail": "deadline must be "
                                                 "seconds (number)"})
        # Root span of the request's trace tree: started here on the
        # loop thread, finished by whoever resolves the item (detached,
        # so it never pollutes any thread's span stack).
        span = None
        if _obs.enabled and request_id:
            span = _obs.get_tracer().start_detached(
                "serve.request",
                ctx=_context.TraceContext(request_id=request_id,
                                          endpoint=kind),
                endpoint=kind, job_key=job_key)
        try:
            item = self.queue.submit(
                kind, payload,
                priority=int(payload.get("priority", DEFAULT_PRIORITY)),
                deadline=deadline, job_key=job_key, stream=stream,
                request_id=request_id, span=span)
        except QueueFull as exc:
            self.stats.dispose("rejected")
            self._finish_root_span(span, 429, "backpressure")
            raise _HttpError(429, {
                "error": "backpressure",
                "detail": f"queue full ({exc.depth} waiting); retry "
                          f"after {exc.retry_after:g}s",
                "retry_after": exc.retry_after,
            }, headers={"Retry-After": f"{exc.retry_after:g}"})
        except QueueClosed:
            self.stats.dispose("drained")
            self._finish_root_span(span, 503, "draining")
            raise _HttpError(503, {"error": "draining",
                                   "detail": "daemon is draining",
                                   "job_key": job_key})
        if _obs.enabled:
            _obs.metrics().gauge("serve.queue_depth").set(
                self.queue.depth)
        return item

    @staticmethod
    def _finish_root_span(span: Optional[Any], status: int,
                          error: Optional[str] = None) -> None:
        if span is None:
            return
        span.set(http_status=status)
        if status >= 400:
            span.status = "error"
            span.error = error or f"http {status}"
        span.finish()

    async def _handle_sweep(self, payload: Dict[str, Any],
                            writer: asyncio.StreamWriter,
                            request_id: str = "") -> None:
        """Streaming response: NDJSON progress events, then the final
        ``result`` (or error) line, then EOF."""
        stream: asyncio.Queue = asyncio.Queue()
        self._enqueue("sweep", payload, stream=stream,
                      request_id=request_id)
        head = {"Content-Type": "application/x-ndjson",
                "Connection": "close"}
        if request_id:
            head["X-Repro-Request-Id"] = request_id
        await self._write_head(writer, 200, head)
        final: Optional[Tuple[int, Dict[str, Any]]] = None
        while True:
            event = await stream.get()
            if event is _STREAM_END:
                break
            if isinstance(event, tuple):
                final = event
                continue
            self.stats.streamed()
            await self._write_line(writer, event)
        if final is not None:
            status, body = final
            if status != 200 and "type" not in body:
                body = dict(body, type="error", http_status=status)
            await self._write_line(writer, body)

    # ------------------------------------------------------------------
    # metrics exposition
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """The ``GET /metrics`` body: refresh scrape-time gauges, then
        render the whole registry, plus the engine's own counts
        (:func:`repro.obs.engine_stats`) as gauges, as OpenMetrics
        text."""
        if _obs.enabled:
            registry = _obs.metrics()
            gauge = registry.gauge
            gauge("serve.queue_depth").set(self.queue.depth)
            gauge("serve.queue_oldest_wait_seconds").set(
                self.queue.oldest_wait())
            gauge("serve.in_flight").set(self._in_flight)
            gauge("serve.uptime_seconds").set(
                time.monotonic() - self.started_at)
            gauge("bus.sinks").set(len(_BUS))
            gauge("bus.swallowed_sink_errors").set(_BUS.sink_errors)
        state = _obs.metrics().export_state()
        state["gauges"].update(_obs.engine_stats())
        return _openmetrics.render_state(state)

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` payload."""
        compile_stats: Dict[str, Any] = {}
        try:
            from ..eventmodels.compile import cache
            compile_stats = dict(cache().stats())
        except Exception:
            pass
        kernel_stats: Dict[str, Any] = {}
        incremental_stats: Dict[str, Any] = {}
        try:
            from ..analysis import kernels
            from ..analysis.memo import memo_pool_stats
            kernel_stats = kernels.stats()
            incremental_stats = memo_pool_stats()
        except Exception:
            pass
        return {
            "service": "repro.serve",
            "state": self.machine.state,
            "state_history": self.machine.history(),
            "uptime": time.monotonic() - self.started_at,
            "workers": self.workers,
            "queue": {
                "depth": self.queue.depth,
                "capacity": self.queue.capacity,
                "in_flight": self._in_flight,
                "closed": self.queue.closed,
                "retry_after_estimate": self.queue.retry_after(),
            },
            "requests": self.stats.to_dict(),
            "store": {
                "dir": str(self.cache_root),
                "results": len(self.store)
                if self.store is not None else 0,
                "sweep_spaces": sorted(self._sweep_stores),
            },
            "compile_cache": compile_stats,
            "kernels": kernel_stats,
            "incremental": incremental_stats,
            "aggregate": self.aggregator.snapshot(),
            "bus": {"sinks": len(_BUS), "sink_errors": _BUS.sink_errors,
                    "sink_error_counts": _BUS.sink_error_counts()},
        }

    # ------------------------------------------------------------------
    # raw HTTP writing
    # ------------------------------------------------------------------
    async def _write_head(self, writer: asyncio.StreamWriter,
                          status: int, headers: Dict[str, str]) -> None:
        text = _STATUS_TEXT.get(status, "?")
        lines = [f"HTTP/1.1 {status} {text}"]
        lines += [f"{k}: {v}" for k, v in headers.items()]
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await writer.drain()

    async def _write_line(self, writer: asyncio.StreamWriter,
                          obj: Dict[str, Any]) -> None:
        writer.write(json.dumps(obj, sort_keys=True).encode("utf-8")
                     + b"\n")
        await writer.drain()

    async def _write_text(self, writer: asyncio.StreamWriter,
                          status: int, text: str, content_type: str,
                          extra_headers: Optional[Dict[str, str]] = None
                          ) -> None:
        payload = text.encode("utf-8")
        headers = {
            "Content-Type": content_type,
            "Content-Length": str(len(payload)),
            "Connection": "close",
        }
        if extra_headers:
            headers.update(extra_headers)
        await self._write_head(writer, status, headers)
        writer.write(payload)
        await writer.drain()

    async def _write_json(self, writer: asyncio.StreamWriter,
                          status: int, body: Dict[str, Any],
                          extra_headers: Optional[Dict[str, str]] = None
                          ) -> None:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(payload)),
            "Connection": "close",
        }
        if extra_headers:
            headers.update(extra_headers)
        await self._write_head(writer, status, headers)
        writer.write(payload)
        await writer.drain()

    # ------------------------------------------------------------------
    def _log(self, message: str) -> None:
        if not self.quiet:
            print(f"[repro.serve] {message}", flush=True)

    # ------------------------------------------------------------------
    # blocking entry point (CLI)
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Start, install signal handlers, serve until drained."""
        import signal

        async def _main() -> None:
            await self.start()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.begin_drain)
                except (NotImplementedError, RuntimeError):
                    pass  # non-main thread / unsupported platform
            await self.serve_forever()

        asyncio.run(_main())
        return 0


def _parse_query(query: str) -> Dict[str, str]:
    """Minimal query-string parser (last value wins; no list support —
    the daemon's query surface is boolean flags like ``profile=1``)."""
    from urllib.parse import parse_qsl
    return dict(parse_qsl(query, keep_blank_values=True))


def _truthy(value: Optional[str]) -> bool:
    return str(value).strip().lower() in ("1", "true", "yes", "on")


def _default_retry():
    """The daemon's default retry policy: a couple of fast attempts for
    transient failures, deterministic errors poisoned immediately."""
    from ..resilience.retry import RetryPolicy
    return RetryPolicy(max_attempts=2, base_delay=0.05, max_delay=0.5)


# ----------------------------------------------------------------------
# test/bench harness: daemon on a background thread
# ----------------------------------------------------------------------
class DaemonHandle:
    """A running daemon on a background thread (tests, benchmarks).

    The thread owns the event loop; :meth:`stop` triggers the same
    drain path a SIGTERM would and joins the thread.
    """

    def __init__(self, daemon: ServeDaemon, thread: threading.Thread):
        self.daemon = daemon
        self.thread = thread

    @property
    def port(self) -> int:
        return self.daemon.port

    @property
    def state(self) -> str:
        return self.daemon.state

    def begin_drain(self) -> None:
        self.daemon.begin_drain()

    def stop(self, timeout: float = 30.0) -> None:
        self.daemon.begin_drain()
        self.thread.join(timeout)
        if self.thread.is_alive():  # pragma: no cover - hang guard
            raise RuntimeError("serve daemon failed to stop in time")


def daemon_in_thread(ready_timeout: float = 30.0,
                     **kwargs: Any) -> DaemonHandle:
    """Start a :class:`ServeDaemon` on a daemon thread and wait until
    it is SERVING; kwargs are forwarded to the constructor (pass
    ``port=0`` for an ephemeral port, the default here)."""
    kwargs.setdefault("port", 0)
    daemon = ServeDaemon(**kwargs)
    ready = threading.Event()
    failure: list = []

    def _run() -> None:
        async def _main() -> None:
            try:
                await daemon.start()
            except Exception as exc:  # pragma: no cover - startup bug
                failure.append(exc)
                ready.set()
                return
            ready.set()
            await daemon.serve_forever()

        asyncio.run(_main())

    thread = threading.Thread(target=_run, name="repro-serve",
                              daemon=True)
    thread.start()
    if not ready.wait(ready_timeout):  # pragma: no cover - hang guard
        raise RuntimeError("serve daemon failed to start in time")
    if failure:
        raise failure[0]
    return DaemonHandle(daemon, thread)
