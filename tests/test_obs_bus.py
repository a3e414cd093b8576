"""Event bus, sinks, the tracer's span records, and worker trace
lanes."""

import json
import threading

import pytest

from repro import analyze_system, obs
from repro.examples_lib.rox08 import build_system
from repro.obs.aggregate import LiveAggregator
from repro.obs.bus import EventBus
from repro.obs.context import job_scope
from repro.obs.export import records_to_chrome
from repro.obs.sinks import ChromeTraceSink, JsonlEventSink
from repro.obs.trace import Tracer


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with a quiet bus and disabled obs."""
    obs.get_bus().clear()
    obs.configure(enabled=False, reset=True)
    yield
    obs.get_bus().clear()
    obs.configure(enabled=False, reset=True)


class Collector:
    """Minimal sink: remembers every event it was handed."""

    def __init__(self, interests=None):
        if interests is not None:
            self.interests = frozenset(interests)
        self.events = []

    def handle(self, event):
        self.events.append(dict(event))


class TestEventBus:
    def test_subscribe_publish_unsubscribe(self):
        bus = EventBus()
        sink = Collector()
        assert not bus.active
        bus.subscribe(sink)
        assert bus.active and len(bus) == 1
        bus.publish({"type": "job", "key": "k"})
        assert len(sink.events) == 1
        assert sink.events[0]["type"] == "job"
        assert "t" in sink.events[0]  # bus stamps a timestamp
        assert bus.unsubscribe(sink)
        assert not bus.active
        bus.publish({"type": "job", "key": "k2"})
        assert len(sink.events) == 1
        assert not bus.unsubscribe(sink)  # already gone

    def test_plain_callable_sink(self):
        bus = EventBus()
        seen = []
        handler = seen.append
        bus.subscribe(handler)
        bus.publish({"type": "anything"})
        assert len(seen) == 1
        assert bus.unsubscribe(handler)
        assert not bus.active

    def test_interest_filtering(self):
        bus = EventBus()
        only_jobs = Collector(interests={"job"})
        everything = Collector()
        bus.subscribe(only_jobs)
        bus.subscribe(everything)
        bus.publish({"type": "job"})
        bus.publish({"type": "iteration"})
        assert [e["type"] for e in only_jobs.events] == ["job"]
        assert [e["type"] for e in everything.events] == [
            "job", "iteration"]

    def test_publishers_ask_for_their_kind(self, monkeypatch):
        """With only the daemon's aggregator subscribed, the engine
        publishes its ``iteration`` records and nothing the aggregator
        does not take (12 events per analysis before: span openings and
        local-analysis records too)."""
        bus = obs.get_bus()
        published = []
        real = bus.publish
        monkeypatch.setattr(
            bus, "publish",
            lambda event: (published.append(event["type"]), real(event)))
        aggregator = bus.subscribe(LiveAggregator())
        obs.configure(enabled=True)
        for _ in range(10):
            analyze_system(build_system("hem"), on_failure="degrade")
        assert published == ["iteration"] * 30
        assert sum(map(len, aggregator.residuals.values())) == 30

    def test_sink_without_interests_takes_every_kind(self):
        everything = obs.get_bus().subscribe(Collector())
        obs.configure(enabled=True)
        with obs.get_tracer().span("outer"):
            obs.get_tracer().event("tick")
            analyze_system(build_system("hem"), on_failure="degrade")
        kinds = {e["type"] for e in everything.events}
        assert {"span_start", "span_point", "span", "iteration",
                "local_analysis"} <= kinds

    def test_sink_exception_isolated_and_counted(self):
        bus = EventBus()

        def broken(_event):
            raise RuntimeError("boom")

        healthy = Collector()
        bus.subscribe(broken)
        bus.subscribe(healthy)
        bus.publish({"type": "job"})
        bus.publish({"type": "job"})
        assert len(healthy.events) == 2
        assert bus.sink_errors == 2

    def test_sink_may_unsubscribe_from_handler(self):
        bus = EventBus()

        class OneShot(Collector):
            def handle(self, event):
                super().handle(event)
                bus.unsubscribe(self)

        sink = OneShot()
        bus.subscribe(sink)
        bus.publish({"type": "a"})
        bus.publish({"type": "b"})
        assert [e["type"] for e in sink.events] == ["a"]

    def test_publish_threadsafe(self):
        bus = EventBus()
        sink = Collector()
        bus.subscribe(sink)

        def spam(n):
            for i in range(200):
                bus.publish({"type": "job", "n": n, "i": i})

        threads = [threading.Thread(target=spam, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(sink.events) == 800


class TestTracerBusEvents:
    def test_span_lifecycle_published(self):
        sink = Collector()
        obs.get_bus().subscribe(sink)
        tracer = Tracer()
        with job_scope() as job:
            with tracer.span("outer", resource="cpu") as span:
                tracer.event("tick", n=1)
                span.set(tasks=2)
        kinds = [e["type"] for e in sink.events]
        assert kinds == ["span_start", "span_point", "span"]
        finished = sink.events[-1]
        assert finished["name"] == "outer"
        assert finished["status"] == "ok"
        assert finished["attributes"] == {"resource": "cpu", "tasks": 2}
        assert finished["end"] >= finished["start"]
        # the record is span_to_dict's, span events included
        assert finished["events"][0]["name"] == "tick"
        assert finished["events"][0]["n"] == 1
        assert job.spans == 1

    def test_span_interest_flag(self):
        bus = EventBus()
        assert not bus.wants("span")
        jobs = bus.subscribe(Collector(interests={"job"}))
        assert bus.active and not bus.wants("span")
        spans = bus.subscribe(Collector(interests={"span"}))
        assert bus.wants("span")
        bus.unsubscribe(spans)
        assert not bus.wants("span")
        bus.subscribe(Collector())  # None interests = everything
        assert bus.wants("span")
        bus.unsubscribe(jobs)

    def test_no_record_built_without_a_span_sink(self):
        sink = Collector(interests={"span_start", "job"})
        obs.get_bus().subscribe(sink)
        tracer = Tracer()
        with job_scope() as job:
            tracer.start("quiet").finish()
        assert [e["type"] for e in sink.events] == ["span_start"]
        assert job.spans == 1

    def test_error_span_carries_error(self):
        sink = Collector(interests={"span"})
        obs.get_bus().subscribe(sink)
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError("nope")
        assert sink.events[-1]["status"] == "error"
        assert "nope" in sink.events[-1]["error"]


class TestAdoptAndChromeLanes:
    def test_adopted_workers_get_distinct_lanes(self):
        tracer = Tracer()
        parent = tracer.start("parent")
        parent.finish()
        ident = parent.thread_id  # fork: workers report the same ident
        records = [obs.span_to_dict(parent)]
        for worker in ("101", "102"):
            records.append({"name": "job", "span_id": 0,
                            "parent_id": None, "thread_id": ident,
                            "start": 1.0, "end": 2.0, "status": "ok",
                            "attributes": {}, "worker": worker})
        payload = records_to_chrome(records)
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len({e["tid"] for e in complete}) == 3
        names = {e["args"]["name"]
                 for e in payload["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert f"thread-{ident}" in names
        assert f"worker-101 thread-{ident}" in names
        assert f"worker-102 thread-{ident}" in names

    def test_records_to_chrome_skips_unfinished(self):
        payload = records_to_chrome([
            {"name": "open", "span_id": 1, "thread_id": 1,
             "start": 0.0, "end": None},
            {"name": "done", "span_id": 2, "thread_id": 1,
             "start": 0.0, "end": 1.0},
        ])
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in complete] == ["done"]


class TestSinks:
    def test_jsonl_sink_streams_and_flushes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlEventSink(str(path))
        obs.get_bus().subscribe(sink)
        tracer = Tracer()
        tracer.start("one").finish()
        # flushed per event: readable before close
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # span_start + span
        sink.close()
        assert sink.written == 2

    def test_jsonl_span_only_matches_posthoc_exporter(self, tmp_path):
        """The span-only stream is span_to_dict over the finished spans,
        origin-relative: span events included and rebased too."""
        live = tmp_path / "live.jsonl"
        tracer = Tracer()
        sink = JsonlEventSink(str(live), span_only=True, t0=tracer.t0)
        obs.get_bus().subscribe(sink)
        with tracer.span("outer") as outer:
            tracer.event("checkpoint", junction="F1")
            inner = tracer.start("inner")
            inner.finish()
        sink.close()
        records = obs.read_jsonl(str(live))
        assert len(records) == 2
        expected = [obs.span_to_dict(span, tracer.t0)
                    for span in (inner, outer)]
        for record, want in zip(records, expected):
            assert record["name"] == want["name"]
            assert record["span_id"] == want["span_id"]
            assert record["parent_id"] == want["parent_id"]
            assert record["start"] == pytest.approx(want["start"])
            assert record["end"] == pytest.approx(want["end"])
            assert record.get("events") == want.get("events")
        checkpoint = records[1]["events"][0]
        assert checkpoint["name"] == "checkpoint"
        assert checkpoint["junction"] == "F1"
        assert records[1]["start"] <= checkpoint["time"] \
            <= records[1]["end"]

    def test_chrome_sink_payload(self, tmp_path):
        path = tmp_path / "trace.json"
        sink = ChromeTraceSink(str(path))
        obs.get_bus().subscribe(sink)
        tracer = Tracer()
        tracer.start("a").finish()
        tracer.start("b").finish()
        assert sink.count == 2
        sink.close()
        payload = json.loads(path.read_text())
        complete = [e for e in payload["traceEvents"]
                    if e["ph"] == "X"]
        assert sorted(e["name"] for e in complete) == ["a", "b"]

    def test_closed_sinks_ignore_events(self, tmp_path):
        sink = JsonlEventSink(str(tmp_path / "x.jsonl"))
        sink.close()
        sink.handle({"type": "span"})  # no error, nothing written
        assert sink.written == 0
        sink.close()  # idempotent
