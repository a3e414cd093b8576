"""End-to-end tests for the repro.serve daemon.

Each test runs a real daemon (ephemeral port, background thread, tmp
cache dir) and talks to it over actual HTTP with the blocking
:class:`ServeClient` — the same wire path production clients use.

Backpressure / deadline / drain tests need a job that blocks until the
test says otherwise, so a ``serve_test_block`` job kind is registered
here, gated on a module-level event.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time

import pytest

from repro import obs
from repro.batch.jobs import register_job_kind, run_job
from repro.batch.store import ResultStore
from repro.examples_lib.synth import GraphSpace, synth_task_graph
from repro.serve import RequestRejected, ServeClient, daemon_in_thread
from repro.serve import handlers
from repro.serve.handlers import build_job
from repro.system import system_to_dict
from repro.system.serialize import content_hash

# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
_GATE = threading.Event()


@register_job_kind("serve_test_block")
def _run_block(payload):
    """Test-only job: parks until the test releases the gate."""
    if not _GATE.wait(timeout=30):
        raise RuntimeError("test gate never released")
    return {"n": payload.get("n")}


class _Call(threading.Thread):
    """Run a client call on a thread; join and inspect later."""

    def __init__(self, fn):
        super().__init__(daemon=True)
        self.fn = fn
        self.result = None
        self.error = None
        self.start()

    def run(self):
        try:
            self.result = self.fn()
        except Exception as exc:  # noqa: BLE001 - inspected by the test
            self.error = exc

    def finish(self, timeout=30.0):
        self.join(timeout)
        assert not self.is_alive(), "client call never completed"
        return self


def _wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached in time")


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True)
def _serve_isolation():
    _GATE.clear()
    yield
    _GATE.set()  # unstick any job still parked on the gate
    obs.configure(enabled=False, reset=True)
    obs.get_bus().clear()


@pytest.fixture
def daemon(tmp_path):
    handle = daemon_in_thread(cache_dir=str(tmp_path / "cache"))
    client = ServeClient(port=handle.port)
    client.wait_healthy()
    yield handle, client
    if handle.state != "stopped":
        handle.stop()


@pytest.fixture
def tight_daemon(tmp_path):
    """One worker, one queue slot: backpressure at the third request."""
    handle = daemon_in_thread(cache_dir=str(tmp_path / "cache"),
                              workers=1, queue_size=1)
    client = ServeClient(port=handle.port)
    client.wait_healthy()
    yield handle, client
    if handle.state != "stopped":
        handle.stop()


# ----------------------------------------------------------------------
# parity: daemon answers == direct engine answers
# ----------------------------------------------------------------------
class TestParity:
    def test_served_analyze_matches_direct_run(self, daemon):
        _handle, client = daemon
        resp = client.analyze(example="rox08")
        assert resp.ok and not resp.cached

        # The daemon routes through the registered analyze job kind;
        # running the identical content-addressed job directly must
        # produce byte-identical result data.
        job = build_job("analyze", {"example": "rox08"})
        direct = run_job(job)
        assert direct.ok
        assert resp.key == job.key
        assert (json.dumps(resp.data, sort_keys=True)
                == json.dumps(direct.data, sort_keys=True))

    def test_served_analyze_matches_analyze_system(self, daemon):
        from repro.examples_lib import rox08
        from repro.system.propagation import analyze_system

        _handle, client = daemon
        resp = client.analyze(example="rox08")
        direct = analyze_system(rox08.build_system("hem"))
        assert resp.data["converged"] == direct.converged
        assert resp.data["iterations"] == direct.iterations
        assert resp.data["wcrt"] == pytest.approx(
            {task: direct.wcrt(task) for task in resp.data["wcrt"]})

    def test_explain_served_and_cached(self, daemon):
        _handle, client = daemon
        first = client.explain(example="rox08")
        assert first.ok and not first.cached
        assert first.data["wcrt"]
        again = client.explain(example="rox08")
        assert again.ok and again.cached
        assert again.data == first.data


# ----------------------------------------------------------------------
# shared cache
# ----------------------------------------------------------------------
class TestCache:
    def test_identical_request_hits_store(self, daemon):
        handle, client = daemon
        cold = client.analyze(example="body_gateway")
        warm = client.analyze(example="body_gateway")
        assert cold.ok and not cold.cached
        assert warm.ok and warm.cached
        assert warm.key == cold.key
        assert (json.dumps(warm.data, sort_keys=True)
                == json.dumps(cold.data, sort_keys=True))

        health = client.health()
        assert health["requests"]["cache_hits"] >= 1
        assert health["requests"]["cache_misses"] >= 1
        # The answer is checkpointed in the shared store.
        assert health["store"]["results"] >= 1

    def test_cache_survives_restart(self, daemon, tmp_path):
        handle, client = daemon
        cold = client.analyze(example="rox08")
        assert not cold.cached
        handle.stop()

        fresh = daemon_in_thread(cache_dir=str(tmp_path / "cache"))
        try:
            client2 = ServeClient(port=fresh.port)
            client2.wait_healthy()
            warm = client2.analyze(example="rox08")
            assert warm.cached
            assert warm.key == cold.key
        finally:
            fresh.stop()


# ----------------------------------------------------------------------
# a stored answer returns at admission
# ----------------------------------------------------------------------
def _hold_workers(client, daemon, n):
    """Park *n* blocking jobs on the daemon's dispatchers."""
    calls = [_Call(lambda i=i: client.job("serve_test_block", {"n": i}))
             for i in range(n)]
    _wait_until(lambda: daemon._in_flight == n)
    return calls


class TestAdmission:
    """A request whose answer the store holds in memory is answered
    where it is admitted: no queue slot, no worker thread."""

    def test_stored_answer_needs_no_worker(self, daemon):
        handle, client = daemon
        first = client.analyze(example="rox08")
        assert first.ok and not first.cached
        held = _hold_workers(client, handle.daemon, 2)
        t0 = time.perf_counter()
        again = client.analyze(example="rox08")
        elapsed = time.perf_counter() - t0
        assert again.ok and again.cached
        assert again.data == first.data
        assert elapsed < 0.5, elapsed
        assert client.health()["queue"]["in_flight"] == 2
        _GATE.set()
        assert all(call.finish().result.ok for call in held)

    def test_stored_answer_is_never_429(self, tight_daemon):
        handle, client = tight_daemon
        assert not client.analyze(example="rox08").cached
        held = _hold_workers(client, handle.daemon, 1)
        queued = _Call(lambda: client.job("serve_test_block", {"n": 9}))
        _wait_until(lambda: handle.daemon.queue.depth == 1)
        assert client.analyze(example="rox08").cached
        with pytest.raises(RequestRejected) as excinfo:
            client.analyze(example="rox08-flat")
        assert excinfo.value.status == 429
        _GATE.set()
        assert held[0].finish().result.ok and queued.finish().result.ok

    def test_stored_answer_is_never_504(self, tight_daemon):
        handle, client = tight_daemon
        assert not client.analyze(example="rox08").cached
        held = _hold_workers(client, handle.daemon, 1)
        assert client.analyze(example="rox08", deadline=0.05).cached
        threading.Timer(0.4, _GATE.set).start()
        with pytest.raises(RequestRejected) as excinfo:
            client.analyze(example="rox08-flat", deadline=0.05)
        assert excinfo.value.status == 504
        assert held[0].finish().result.ok

    def test_each_request_builds_its_job_once(self, daemon, monkeypatch):
        _handle, client = daemon
        built = []

        def counting(kind, payload):
            built.append(kind)
            return build_job(kind, payload)

        monkeypatch.setattr(handlers, "build_job", counting)
        assert not client.analyze(example="rox08").cached
        assert built == ["analyze"]
        assert client.analyze(example="rox08").cached
        assert client.explain(example="rox08").ok
        assert built == ["analyze", "analyze", "explain"]

    def test_example_is_serialised_once(self, daemon, monkeypatch):
        _handle, client = daemon
        monkeypatch.setattr(handlers, "_EXAMPLE_DICTS", {})
        serialised = []

        def counting(system):
            serialised.append(system.name)
            return system_to_dict(system)

        monkeypatch.setattr(handlers, "system_to_dict", counting)
        assert client.analyze(example="body_gateway").ok
        shared = handlers._EXAMPLE_DICTS["body_gateway"]
        digest = content_hash(shared)
        assert client.analyze(example="body_gateway").cached
        assert client.explain(example="body_gateway").ok
        assert len(serialised) == 1
        assert handlers._EXAMPLE_DICTS["body_gateway"] is shared
        assert content_hash(shared) == digest

    def test_stored_poisoned_answer(self, daemon):
        """A strict overloaded analysis is poisoned, and the stored
        poison is answered as the runner serves it: cached, failed."""
        _handle, client = daemon
        first = client.analyze(example="overloaded", on_failure="raise")
        assert first.status == "poisoned" and not first.cached
        again = client.analyze(example="overloaded", on_failure="raise")
        assert again.status == "poisoned" and again.cached
        assert (again.key, again.data, again.error) == \
            (first.key, first.data, first.error)
        requests = client.health()["requests"]
        assert (requests["failed"], requests["cache_hits"]) == (2, 1)

    def test_admission_answer_counts_once(self, daemon):
        _handle, client = daemon
        spans = []
        sink = obs.get_bus().subscribe(spans.append, interests={"span"})
        try:
            assert not client.analyze(example="rox08").cached
            hit = client.analyze(example="rox08")
            assert hit.cached and hit.request_id
            text = client.metrics_text()
            requests = client.health()["requests"]
        finally:
            obs.get_bus().unsubscribe(sink)
        assert (requests["requests"], requests["ok"],
                requests["cache_hits"], requests["cache_misses"]) == \
            (2, 2, 1, 1)
        for name in ("requests", "ok", "cache_hits", "cache_misses"):
            assert _scraped(text, f"repro_serve_{name}_total") == \
                requests[name], name
        assert _scraped(
            text, 'repro_serve_endpoint_seconds_count{endpoint="analyze"}'
        ) == 2
        names = sorted(span["name"] for span in spans
                       if span.get("request_id") == hit.request_id)
        assert names == ["serve.request"]

    def test_profile_still_runs_on_a_worker(self, daemon):
        _handle, client = daemon
        assert not client.analyze(example="rox08").cached
        profiled = client.analyze(example="rox08", profile=True)
        assert profiled.cached and profiled.profile is not None


# ----------------------------------------------------------------------
# resilience: a pathological system degrades one answer, not the daemon
# ----------------------------------------------------------------------
class TestDegrade:
    def test_stress_example_degrades_daemon_stays_serving(self, daemon):
        handle, client = daemon
        resp = client.analyze(example="oscillating", max_iterations=40)
        assert resp.ok  # degraded is a served answer, not a failure
        outcome = resp.data["outcome"]
        assert outcome["degraded"] is True
        assert handle.state == "serving"
        # The daemon still answers follow-up work normally.
        after = client.analyze(example="rox08")
        assert after.ok
        assert not after.data.get("outcome", {}).get("degraded")


# ----------------------------------------------------------------------
# backpressure and deadlines
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_queue_full_answers_429_with_retry_after(self, tight_daemon):
        handle, client = tight_daemon
        daemon = handle.daemon
        busy = _Call(lambda: client.job("serve_test_block", {"n": 1}))
        _wait_until(lambda: daemon._in_flight == 1)
        queued = _Call(lambda: client.job("serve_test_block", {"n": 2}))
        _wait_until(lambda: daemon.queue.depth == 1)

        with pytest.raises(RequestRejected) as excinfo:
            client.job("serve_test_block", {"n": 3})
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after >= 1.0

        _GATE.set()
        assert busy.finish().result.ok
        assert queued.finish().result.ok
        health = client.health()
        assert health["requests"]["rejected"] == 1
        assert health["requests"]["ok"] == 2

    def test_expired_deadline_answers_504(self, tight_daemon):
        handle, client = tight_daemon
        daemon = handle.daemon
        busy = _Call(lambda: client.job("serve_test_block", {"n": 1}))
        _wait_until(lambda: daemon._in_flight == 1)

        # Enqueued with a 0.05s budget while the only worker is parked;
        # release the worker well after the budget lapses.
        threading.Timer(0.4, _GATE.set).start()
        with pytest.raises(RequestRejected) as excinfo:
            client.analyze(example="rox08", deadline=0.05)
        assert excinfo.value.status == 504
        assert excinfo.value.body["error"] == "deadline_exceeded"
        assert excinfo.value.job_key  # resumable handle

        assert busy.finish().result.ok
        assert client.health()["requests"]["expired"] == 1


# ----------------------------------------------------------------------
# graceful drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_finishes_in_flight_and_flushes_queued(
            self, tight_daemon, tmp_path):
        handle, client = tight_daemon
        daemon = handle.daemon
        in_flight = _Call(lambda: client.job("serve_test_block",
                                             {"n": 10}))
        _wait_until(lambda: daemon._in_flight == 1)
        queued = _Call(lambda: client.job("serve_test_block", {"n": 11}))
        _wait_until(lambda: daemon.queue.depth == 1)

        handle.begin_drain()
        _wait_until(lambda: daemon.state in ("draining", "stopped"))

        # Queued-but-unstarted: flushed with 503 + resumable job key.
        queued.finish()
        assert isinstance(queued.error, RequestRejected)
        assert queued.error.status == 503
        expected_key = build_job(
            "job", {"kind": "serve_test_block",
                    "payload": {"n": 11}, "label": ""}).key
        assert queued.error.job_key == expected_key

        # In-flight: runs to completion and is answered 200.
        _GATE.set()
        in_flight.finish()
        assert in_flight.error is None
        assert in_flight.result.ok
        assert in_flight.result.data == {"n": 10}

        handle.stop()
        assert handle.state == "stopped"
        history = [h["state"] for h in daemon.machine.history()]
        assert history == ["starting", "serving", "draining", "stopped"]

        # The finished job was checkpointed into the shared store.
        store = ResultStore(tmp_path / "cache" / "requests")
        stored = store.get(in_flight.result.key)
        assert stored is not None and stored.ok

    def test_submit_after_drain_is_refused(self, daemon):
        handle, client = daemon
        handle.stop()
        with pytest.raises(Exception):  # 503 or connection refused
            client.analyze(example="rox08")


# ----------------------------------------------------------------------
# streaming sweeps
# ----------------------------------------------------------------------
class TestSweepStream:
    def test_sweep_streams_progress_then_result(self, daemon):
        _handle, client = daemon
        events = []
        final = client.sweep("quickstart", sample=3,
                             on_event=events.append)
        assert final["type"] == "result"
        assert final["space"] == "quickstart"
        assert final["points"] >= 1
        assert final["failed"] == 0
        assert "worst_wcrt" in final["table"]

        kinds = {e.get("type") for e in events}
        assert "sweep" in kinds  # start/end lifecycle
        assert "job" in kinds    # per-point progress
        job_events = [e for e in events if e.get("type") == "job"]
        assert len(job_events) >= final["points"]

    def test_sweep_rerun_is_all_cache_hits(self, daemon):
        _handle, client = daemon
        cold = client.sweep("quickstart", sample=3)
        warm = client.sweep("quickstart", sample=3)
        assert cold["executed"] >= 1
        assert warm["cached"] == cold["points"]
        assert warm["cache_hit_rate"] == 1.0

    def test_unknown_space_is_rejected(self, daemon):
        _handle, client = daemon
        with pytest.raises(RequestRejected):
            client.sweep("definitely-not-a-space")


# ----------------------------------------------------------------------
# protocol edges
# ----------------------------------------------------------------------
class TestProtocol:
    def test_unknown_example_is_400(self, daemon):
        _handle, client = daemon
        with pytest.raises(RequestRejected) as excinfo:
            client.analyze(example="nope")
        assert excinfo.value.status == 400

    def test_unknown_route_is_404(self, daemon):
        handle, client = daemon
        with pytest.raises(RequestRejected) as excinfo:
            client._request("POST", "/v1/nope", {})
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, daemon):
        _handle, client = daemon
        with pytest.raises(RequestRejected) as excinfo:
            client._request("GET", "/v1/analyze")
        assert excinfo.value.status == 405

    def test_healthz_shape(self, daemon):
        _handle, client = daemon
        health = client.health()
        assert health["service"] == "repro.serve"
        assert health["state"] == "serving"
        assert health["queue"]["capacity"] >= 1
        assert health["workers"] >= 1
        assert "requests" in health and "compile_cache" in health
        states = [h["state"] for h in health["state_history"]]
        assert states == ["starting", "serving"]


# ----------------------------------------------------------------------
# malformed request fields: 400 naming the field, and the daemon serves on
# ----------------------------------------------------------------------
def _raw_post(port, head_lines, body=b""):
    """Send one hand-written POST /v1/analyze; returns the status code
    and the parsed JSON body of the answer."""
    head = "\r\n".join(["POST /v1/analyze HTTP/1.1",
                         "Host: 127.0.0.1", *head_lines, "", ""])
    return _raw_request(port, head.encode("latin-1") + body)


def _raw_request(port, raw_request):
    """Send *raw_request* bytes; the status code and parsed JSON body."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(raw_request)
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    status_line, _, rest = raw.partition(b"\r\n")
    _headers, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), json.loads(payload)


class TestMalformedFields:
    """A request field that does not parse is a 400 ``bad_request``
    naming the field, and the next good request still gets 200.  A
    request refused while its head or body is read counts once in
    ``requests`` and once in ``errors``, in ``/healthz`` and ``serve.*``
    alike."""

    def _counted_once(self, client, send):
        """*send* one malformed request; it adds one request and one
        error to the ledger and to the ``serve.*`` counters."""
        before = client.health()["requests"]
        answer = send()
        after = client.health()["requests"]
        assert after["requests"] - before["requests"] == 1
        assert after["errors"] - before["errors"] == 1
        text = client.metrics_text()
        for name in ("requests", "errors"):
            assert _scraped(text, f"repro_serve_{name}_total") == \
                after[name], name
        return answer

    def test_bad_priority(self, daemon):
        _handle, client = daemon
        with pytest.raises(RequestRejected) as excinfo:
            client.analyze(example="rox08", priority="abc")
        assert excinfo.value.status == 400
        assert excinfo.value.body["error"] == "bad_request"
        assert "priority" in excinfo.value.body["detail"]
        assert client.analyze(example="rox08").ok

    @pytest.mark.parametrize("field", ["sample", "seed"])
    def test_bad_sweep_field(self, daemon, field):
        _handle, client = daemon
        fields = {"sample": 1, "seed": 0, field: "abc"}
        with pytest.raises(RequestRejected) as excinfo:
            client.sweep("quickstart", **fields)
        assert excinfo.value.status == 400
        assert excinfo.value.body["error"] == "bad_request"
        assert field in excinfo.value.body["detail"]
        assert client.sweep("quickstart", sample=1)["failed"] == 0

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length(self, daemon, length):
        handle, client = daemon
        status, body = self._counted_once(client, lambda: _raw_post(
            handle.port, [f"Content-Length: {length}"]))
        assert status == 400
        assert body["error"] == "bad_request"
        assert "content-length" in body["detail"]
        payload = json.dumps({"example": "rox08"}).encode("utf-8")
        status, body = _raw_post(
            handle.port, [f"Content-Length: {len(payload)}",
                          "Content-Type: application/json"], payload)
        assert status == 200 and body["status"] == "ok"

    def test_malformed_request_line(self, daemon):
        handle, client = daemon
        status, body = self._counted_once(client, lambda: _raw_request(
            handle.port, b"NONSENSE\r\nHost: 127.0.0.1\r\n\r\n"))
        assert status == 400
        assert body["detail"] == "malformed request line"

    def test_oversized_content_length(self, daemon):
        handle, client = daemon
        status, body = self._counted_once(client, lambda: _raw_post(
            handle.port, ["Content-Length: 999999999999"]))
        assert status == 413
        assert body["error"] == "payload_too_large"

    def test_body_not_a_json_object(self, daemon):
        handle, client = daemon
        payload = b"[1, 2]"
        status, body = self._counted_once(client, lambda: _raw_post(
            handle.port, [f"Content-Length: {len(payload)}"], payload))
        assert status == 400
        assert body["detail"] == "body must be a JSON object"


# ----------------------------------------------------------------------
# uptime: a warm daemon's telemetry holds nothing per request
# ----------------------------------------------------------------------
class TestUptime:
    def test_warm_daemon_telemetry_stays_flat(self, tmp_path):
        """Cached hits with telemetry on (the aggregator keeps the bus
        active) leave no per-request state in repro/obs: 200 of them
        grow what obs/ still holds by less than 32 KiB."""
        import tracemalloc
        from pathlib import Path

        obs_dir = str(Path(obs.__file__).parent)
        handle = daemon_in_thread(cache_dir=str(tmp_path / "cache"),
                                  workers=2)
        try:
            client = ServeClient(port=handle.port)
            client.wait_healthy()
            for _ in range(20):
                client.analyze(example="rox08")
            tracemalloc.start()
            try:
                for _ in range(200):
                    assert client.analyze(example="rox08").ok
                snapshot = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
        finally:
            handle.stop()
        held = sum(stat.size for stat in snapshot.statistics("filename")
                   if stat.traceback[0].filename.startswith(obs_dir))
        assert held < 32 * 1024, f"{held / 1024:.1f} KiB held in obs/"


# ----------------------------------------------------------------------
# a served job's metrics are its own
# ----------------------------------------------------------------------
def _scraped(text, name):
    """The value of one unlabelled sample in an OpenMetrics scrape."""
    match = re.search(rf"^{re.escape(name)} (\S+)$", text, re.MULTILINE)
    assert match is not None, f"{name} not in /metrics"
    return float(match.group(1))


class TestJobMetrics:
    """A job on one dispatcher thread records into its own registry:
    neither its timeout nor its delta reaches what the event loop and
    the other dispatcher record meanwhile."""

    def _block_beside_hits(self, tmp_path, timeout):
        """Serve one blocking ``/v1/job`` while 10 hits are answered on
        the other worker; returns the handle, client and job answer."""
        handle = daemon_in_thread(cache_dir=str(tmp_path / "cache"),
                                  workers=2)
        client = ServeClient(port=handle.port)
        client.wait_healthy()
        assert not client.analyze(example="rox08").cached
        call = _Call(lambda: client.job("serve_test_block", {"n": 1},
                                        timeout=timeout))
        _wait_until(lambda: handle.daemon._in_flight == 1)
        for _ in range(10):
            assert client.analyze(example="rox08").cached
        if timeout is not None:
            time.sleep(timeout)
        _GATE.set()
        return handle, client, call.finish().result

    def test_timed_out_job_leaves_serve_counters_alone(self, tmp_path):
        handle, client, answer = self._block_beside_hits(tmp_path, 0.05)
        try:
            # The first attempt overran its budget on a dispatcher
            # thread, blocked outside the engine, so run_job caught it
            # on return; the daemon's retry ran past the open gate.
            assert answer.ok and answer.attempts == 2
            text = client.metrics_text()
            requests = client.health()["requests"]
        finally:
            handle.stop()
        assert requests["requests"] == 12 and requests["cache_hits"] == 10
        for name in ("requests", "ok", "cache_hits", "cache_misses"):
            assert _scraped(text, f"repro_serve_{name}_total") == \
                requests[name], name

    def test_stored_job_metrics_name_only_the_job(self, tmp_path):
        handle, _client, answer = self._block_beside_hits(tmp_path, None)
        try:
            assert answer.ok
            stored = handle.daemon.store.get(answer.key)
        finally:
            handle.stop()
        assert stored.obs["metrics"]["counters"] == {
            "analysis.jobs.serve_test_block": 1}
        assert not any(name.startswith(("serve.", "batch."))
                       for part in stored.obs["metrics"].values()
                       for name in part)

    def test_served_hit_leaves_the_index_alone(self, daemon, tmp_path):
        _handle, client = daemon
        assert not client.analyze(example="rox08").cached
        index = tmp_path / "cache" / "requests" / "index.json"
        before = index.stat()
        for _ in range(5):
            assert client.analyze(example="rox08").cached
        after = index.stat()
        assert (after.st_ino, after.st_mtime_ns) == \
            (before.st_ino, before.st_mtime_ns)


class TestJobBudget:
    """A ``/v1/job`` budget is the job's deadline on the dispatcher
    thread, and a budget that is not one is a bad request."""

    def test_served_job_frees_its_dispatcher(self, daemon):
        _handle, client = daemon
        # About 4 s of simulation without a budget.
        system = synth_task_graph(3, GraphSpace(
            max_resources=3, max_sources=8, max_chain=3,
            policies=("spp",), util_lo=0.5, util_hi=0.8))
        t0 = time.perf_counter()
        answer = client.job("simulate", {"system": system_to_dict(system),
                                         "horizon": 1e7}, timeout=0.2)
        elapsed = time.perf_counter() - t0
        assert answer.status == "poisoned" and answer.attempts == 2
        assert elapsed < 3.0, elapsed
        assert client.health()["queue"]["in_flight"] == 0

    @pytest.mark.parametrize("timeout", ["abc", float("nan"), -1])
    def test_bad_budget_is_a_bad_request(self, daemon, timeout):
        _handle, client = daemon
        with pytest.raises(RequestRejected) as excinfo:
            client.job("serve_test_block", {"n": 1}, timeout=timeout)
        assert excinfo.value.status == 400
        assert "timeout" in excinfo.value.body["detail"]
        with pytest.raises(RequestRejected) as excinfo:
            client.sweep("quickstart", sample=1, timeout=timeout)
        assert excinfo.value.status == 400
        assert "timeout" in excinfo.value.body["detail"]

    def test_valid_budget_still_works(self, daemon):
        _handle, client = daemon
        _GATE.set()
        assert client.job("serve_test_block", {"n": 1}, timeout=5).ok
        final = client.sweep("quickstart", sample=1, timeout=30.0)
        assert final["failed"] == 0 and final["points"] == 1
