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
import threading
import time

import pytest

from repro import obs
from repro.batch.jobs import register_job_kind, run_job
from repro.batch.store import ResultStore
from repro.serve import RequestRejected, ServeClient, daemon_in_thread
from repro.serve.handlers import build_job

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
