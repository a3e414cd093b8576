"""End-to-end request correlation: one id across every telemetry plane.

The acceptance bar for the tracing tentpole: a request id issued for
``ServeClient.analyze(...)`` must be recoverable from (1) the HTTP
response header, (2) the bus event stream, (3) the Chrome trace export
as one contiguous span tree from request to fixed point, and (4) the
persisted ``ResultStore`` record.
"""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.obs.context import (TraceContext, current_request_id,
                               new_request_id, request_context)
from repro.obs.export import records_to_chrome
from repro.serve import RequestRejected, ServeClient, daemon_in_thread


@pytest.fixture(autouse=True)
def _obs_isolation():
    yield
    obs.configure(enabled=False, reset=True)
    obs.get_bus().clear()


class _Recorder:
    """Bus sink that keeps every event."""

    name = "test-recorder"

    def __init__(self):
        self.events = []
        self._lock = threading.Lock()

    def handle(self, event):
        with self._lock:
            self.events.append(dict(event))

    def all(self):
        with self._lock:
            return list(self.events)

    def spans(self, request_id, name=None):
        """The request's span records (optionally of one name)."""
        return [e for e in self.all()
                if e["type"] == "span" and e.get("request_id") == request_id
                and name in (None, e["name"])]


# ----------------------------------------------------------------------
# context primitives
# ----------------------------------------------------------------------
class TestTraceContext:
    def test_new_request_ids_are_unique(self):
        ids = {new_request_id() for _ in range(64)}
        assert len(ids) == 64

    def test_no_ambient_context_by_default(self):
        assert current_request_id() == ""

    def test_request_context_scopes_the_id(self):
        with request_context(request_id="rid-1") as ctx:
            assert isinstance(ctx, TraceContext)
            assert current_request_id() == "rid-1"
        assert current_request_id() == ""

    def test_context_does_not_cross_threads(self):
        seen = {}

        def probe():
            seen["rid"] = current_request_id()

        with request_context(request_id="rid-2"):
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen["rid"] == ""


# ----------------------------------------------------------------------
# the e2e acceptance test
# ----------------------------------------------------------------------
class TestEndToEndCorrelation:
    def test_one_id_across_all_planes(self, tmp_path):
        recorder = _Recorder()
        obs.get_bus().subscribe(recorder)
        handle = daemon_in_thread(cache_dir=str(tmp_path / "cache"))
        try:
            client = ServeClient(port=handle.port)
            client.wait_healthy()
            resp = client.analyze(example="pipeline")
            record = handle.daemon.store.get(resp.key)
        finally:
            handle.stop()
            obs.get_bus().unsubscribe(recorder)
        spans = recorder.spans(resp.request_id)

        # (1) HTTP header (ServeClient copies the echoed header in).
        rid = resp.request_id
        assert rid and resp.ok

        # (2) bus events carry the id, from span_start to the final
        # job event.
        tagged = [e for e in recorder.all()
                  if e.get("request_id") == rid]
        kinds = {e["type"] for e in tagged}
        assert "span_start" in kinds
        assert "span" in kinds
        assert "job" in kinds

        # (3) the request's spans form ONE contiguous tree rooted at
        # serve.request: every span's parent is another span of the
        # same request.
        assert spans, "no spans stamped with the request id"
        by_id = {s["span_id"]: s for s in spans}
        roots = [s for s in spans if s["parent_id"] is None]
        assert len(roots) == 1
        assert roots[0]["name"] == "serve.request"
        for span in spans:
            if span["parent_id"] is not None:
                assert span["parent_id"] in by_id, (
                    f"{span['name']} parented outside the request tree")
        names = {s["name"] for s in spans}
        assert {"serve.request", "serve.queue_wait",
                "serve.execute"} <= names
        assert "global_iteration" in names, (
            "analysis spans not stitched under the request")

        # ... and the Chrome export keeps the id on every event.
        chrome = records_to_chrome(spans)
        complete = [e for e in chrome["traceEvents"]
                    if e.get("ph") == "X"]
        assert len(complete) == len(spans)
        assert all(e["args"].get("request_id") == rid
                   for e in complete)

        # (4) the persisted store record.
        assert record is not None
        assert record.request_id == rid
        assert record.to_dict()["request_id"] == rid

    def test_caller_supplied_id_is_honored(self, tmp_path):
        handle = daemon_in_thread(cache_dir=str(tmp_path / "cache"))
        try:
            client = ServeClient(port=handle.port)
            client.wait_healthy()
            resp = client.analyze(example="pipeline",
                                  request_id="my-rid-42")
        finally:
            handle.stop()
        assert resp.request_id == "my-rid-42"
        assert resp.data  # a real analysis came back

    def test_rejections_still_echo_an_id(self, tmp_path):
        handle = daemon_in_thread(cache_dir=str(tmp_path / "cache"))
        try:
            client = ServeClient(port=handle.port)
            client.wait_healthy()
            with pytest.raises(RequestRejected) as excinfo:
                client.analyze()  # neither system nor example: 400
        finally:
            handle.stop()
        assert excinfo.value.status == 400
        assert excinfo.value.request_id

    def test_distinct_requests_get_distinct_trees(self, tmp_path):
        recorder = _Recorder()
        obs.get_bus().subscribe(recorder)
        handle = daemon_in_thread(cache_dir=str(tmp_path / "cache"))
        try:
            client = ServeClient(port=handle.port)
            client.wait_healthy()
            first = client.analyze(example="pipeline")
            second = client.explain(example="pipeline")
        finally:
            handle.stop()
            obs.get_bus().unsubscribe(recorder)
        assert first.request_id != second.request_id
        for rid in (first.request_id, second.request_id):
            assert len(recorder.spans(rid, "serve.request")) == 1
