"""Tests for the observability subsystem (repro.obs) and its wiring.

Covers: span nesting and exception safety, histogram percentiles,
JSONL round-trip, the convergence report, and — crucially — that the
disabled fast path adds no spans, no metrics, and no obs-side
allocations to ``analyze_system``.
"""

import tracemalloc
from pathlib import Path

import pytest

from repro import analyze_system, configure, get_tracer, metrics, obs
from repro._errors import ModelError
from repro.examples_lib.rox08 import build_system
from repro.obs import (
    ChromeTraceSink,
    JsonlEventSink,
    MetricsRegistry,
    Tracer,
    read_jsonl,
    span_to_dict,
)
from repro.obs.context import job_scope
from repro.viz import ConvergenceReport, render_convergence_report


def named(records, name):
    return [r for r in records if r["name"] == name]


@pytest.fixture
def obs_on():
    """Enable observability for one test, clean up afterwards."""
    configure(enabled=True, reset=True)
    yield obs
    configure(enabled=False, reset=True)


@pytest.fixture(autouse=True)
def obs_off_guard():
    """No test may leak a flipped switch into the rest of the suite."""
    yield
    configure(enabled=False)


class TestSpans:
    def test_nesting_assigns_parents(self, span_records):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                with tracer.span("leaf") as leaf:
                    assert leaf.parent_id == inner.span_id
            assert tracer.current() is outer
        assert tracer.current() is None
        assert [r["name"] for r in span_records] == \
            ["leaf", "inner", "outer"]

    def test_exception_marks_span_and_restores_stack(self, span_records):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("boom"):
                    raise ValueError("kaputt")
        assert tracer.current() is None
        boom = named(span_records, "boom")[0]
        assert boom["status"] == "error"
        assert "kaputt" in boom["error"]
        assert boom["end"] is not None
        # the outer span still closed cleanly
        assert named(span_records, "outer")[0]["status"] in ("error", "ok")

    def test_missed_finish_deeper_down_is_recovered(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        tracer.start("forgotten")  # never finished explicitly
        outer.finish()
        assert tracer.current() is None

    def test_attributes_and_events(self, span_records):
        tracer = Tracer()
        with tracer.span("work", phase=1) as span:
            span.set(items=3)
            tracer.event("checkpoint", at="half")
        done = named(span_records, "work")[0]
        assert done["attributes"] == {"phase": 1, "items": 3}
        assert done["events"][0]["name"] == "checkpoint"
        assert done["events"][0]["at"] == "half"
        assert done["duration"] >= 0.0

    def test_event_without_open_span_is_dropped(self, span_records):
        tracer = Tracer()
        tracer.event("orphan")  # must not raise
        assert span_records == []

    def test_reset(self, span_records):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        assert [r["span_id"] for r in span_records] == [0]
        tracer.reset()
        assert tracer.start("y").span_id == 0


class TestMetrics:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 2.5
        assert not reg.is_empty()
        reg.reset()
        assert reg.is_empty()

    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")

    def test_histogram_percentiles(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h")
        for v in range(1, 101):  # 1..100
            hist.observe(float(v))
        assert hist.count == 100
        assert hist.min == 1.0 and hist.max == 100.0
        assert hist.mean == pytest.approx(50.5)
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 100.0
        assert hist.percentile(50) == pytest.approx(50.5)
        assert hist.percentile(90) == pytest.approx(90.1)

    def test_histogram_percentile_clamps_out_of_range(self):
        hist = MetricsRegistry().histogram("h")
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        # Callers computing p = 100*(1-1/n) can land a hair outside
        # [0, 100] through float error; clamp instead of raising.
        assert hist.percentile(101) == 3.0
        assert hist.percentile(-5) == 1.0
        assert hist.percentile(100.0000000001) == 3.0
        with pytest.raises(ModelError):
            hist.percentile(float("nan"))

    def test_histogram_empty_and_singleton(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.percentile(0) == 0.0
        assert hist.percentile(50) == 0.0
        assert hist.percentile(100) == 0.0
        assert hist.summary()["count"] == 0
        hist.observe(7.0)
        assert hist.percentile(0) == 7.0
        assert hist.percentile(50) == 7.0
        assert hist.percentile(100) == 7.0
        assert hist.summary()["p99"] == 7.0

    def test_histogram_p0_p100_exact_min_max(self):
        hist = MetricsRegistry().histogram("h")
        for v in (5.0, -2.0, 9.5, 3.0):
            hist.observe(v)
        assert hist.percentile(0) == -2.0 == hist.min
        assert hist.percentile(100) == 9.5 == hist.max

    def test_delta_since_and_merge(self):
        """A job's registry holds what the job recorded and nothing the
        process registry held before; its payload replays with
        ``merge_delta``."""
        process = metrics()
        process.counter("c").inc(3)
        process.histogram("h").observe(1.0)
        try:
            with job_scope() as job:
                reg = metrics()
                assert reg is job.registry and reg is not process
                reg.counter("c").inc(2)
                reg.counter("new").inc()
                reg.gauge("g").set(7.5)
                reg.histogram("h").observe(2.0)
                reg.histogram("h2").observe(9.0)
            assert metrics() is process
            assert process.counter("c").value == 3
        finally:
            process.reset()
        delta = job.registry.as_delta()
        assert delta["counters"] == {"c": 2, "new": 1}
        assert delta["gauges"] == {"g": 7.5}
        assert delta["histograms"] == {"h": [2.0], "h2": [9.0]}

        parent = MetricsRegistry()
        parent.counter("c").inc(10)
        parent.merge_delta(delta)
        snap = parent.snapshot()
        assert snap["counters"]["c"] == 12
        assert snap["counters"]["new"] == 1
        assert snap["gauges"]["g"] == 7.5
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["histograms"]["h2"]["max"] == 9.0

    def test_delta_is_json_serialisable(self):
        import json

        with job_scope() as job:
            metrics().counter("c").inc()
            metrics().histogram("h").observe(0.5)
        delta = json.loads(json.dumps(job.registry.as_delta()))
        other = MetricsRegistry()
        other.merge_delta(delta)
        assert other.counter("c").value == 1

    def test_empty_delta_merges_as_noop(self):
        with job_scope() as job:
            pass
        reg = MetricsRegistry()
        delta = job.registry.as_delta()
        assert delta == {"counters": {}, "gauges": {}, "histograms": {}}
        reg.merge_delta(delta)
        assert reg.is_empty()

    def test_time_block(self):
        hist = MetricsRegistry().histogram("t")
        with hist.time_block():
            pass
        assert hist.count == 1
        assert hist.values[0] >= 0.0


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        path = tmp_path / "trace.jsonl"
        sink = obs.get_bus().subscribe(
            JsonlEventSink(str(path), span_only=True, t0=tracer.t0))
        with tracer.span("outer", system="s") as outer:
            tracer.event("junction", junction="F1", kind="pack")
            with tracer.span("inner", resource="cpu"):
                pass
        obs.get_bus().unsubscribe(sink)
        sink.close()
        records = read_jsonl(str(path))
        assert len(records) == 2
        by_name = {r["name"]: r for r in records}
        assert by_name["outer"]["attributes"] == {"system": "s"}
        assert by_name["inner"]["parent_id"] == outer.span_id
        assert by_name["outer"]["events"][0]["junction"] == "F1"
        assert all(r["type"] == "span" for r in records)
        assert all(r["end"] >= r["start"] >= 0.0 for r in records)
        # span events are rebased to the tracer origin like the spans
        event_time = by_name["outer"]["events"][0]["time"]
        assert by_name["outer"]["start"] <= event_time \
            <= by_name["outer"]["end"]

    def test_span_to_dict_serialises_odd_attributes(self):
        tracer = Tracer()
        with tracer.span("x", model=object(), names=("a", "b")) as span:
            pass
        record = span_to_dict(span)
        assert isinstance(record["attributes"]["model"], str)
        assert record["attributes"]["names"] == ["a", "b"]

    def test_metrics_to_json(self, tmp_path):
        import json

        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.histogram("h").observe(1.0)
        path = tmp_path / "metrics.json"
        obs.metrics_to_json(reg, str(path), extra={"wall_seconds": 0.5})
        data = json.loads(Path(path).read_text())
        assert data["counters"]["c"] == 2
        assert data["histograms"]["h"]["count"] == 1
        assert data["wall_seconds"] == 0.5


def chrome_trace(path, run, t0=0.0):
    """Chrome payload a ChromeTraceSink writes for the spans *run*
    finishes."""
    sink = obs.get_bus().subscribe(ChromeTraceSink(str(path), t0=t0))
    try:
        run()
    finally:
        obs.get_bus().unsubscribe(sink)
        sink.close()
    return sink.payload()


class TestChromeExport:
    def test_complete_events_and_metadata(self, tmp_path):
        import json

        tracer = Tracer()

        def run():
            with tracer.span("outer", system="s"):
                tracer.event("checkpoint", junction="F1")
                with tracer.span("inner", resource="cpu"):
                    pass
        path = tmp_path / "trace.json"
        payload = chrome_trace(path, run, t0=tracer.t0)
        # file and payload agree and are valid JSON
        assert json.loads(path.read_text()) == payload
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        instant = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in complete} == {"outer", "inner"}
        assert [m["name"] for m in meta][:1] == ["process_name"]
        assert any(m["name"] == "thread_name" for m in meta)
        assert instant[0]["name"] == "checkpoint"
        assert instant[0]["args"]["junction"] == "F1"
        by_name = {e["name"]: e for e in complete}
        outer, inner = by_name["outer"], by_name["inner"]
        # microsecond timestamps, relative to the tracer origin
        assert outer["ts"] >= 0.0
        assert outer["dur"] >= inner["dur"] >= 0.0
        assert inner["ts"] >= outer["ts"]
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        # same (single) thread row for both spans
        assert outer["tid"] == inner["tid"] == 1
        assert outer["pid"] == inner["pid"] == 1
        assert outer["args"]["system"] == "s"

    def test_unfinished_spans_are_skipped(self, tmp_path):
        tracer = Tracer()

        def run():
            tracer.start("open")
            with tracer.span("closed"):
                pass
        payload = chrome_trace(tmp_path / "t.json", run)
        names = [e["name"] for e in payload["traceEvents"]
                 if e["ph"] == "X"]
        assert names == ["closed"]

    def test_error_spans_are_flagged(self, tmp_path):
        tracer = Tracer()

        def run():
            with pytest.raises(ValueError):
                with tracer.span("boom"):
                    raise ValueError("kaputt")
        payload = chrome_trace(tmp_path / "t.json", run, t0=tracer.t0)
        event = [e for e in payload["traceEvents"]
                 if e["ph"] == "X"][0]
        assert "error" in event["cat"]
        assert event["args"]["status"] == "error"
        assert "kaputt" in event["args"]["error"]

    def test_explained_run_exports_valid_chrome_trace(self, obs_on,
                                                      tmp_path):
        import json

        path = tmp_path / "t.json"
        chrome_trace(path, lambda: analyze_system(build_system("hem")),
                     t0=get_tracer().t0)
        payload = json.loads(path.read_text())
        complete = [e for e in payload["traceEvents"]
                    if e["ph"] == "X"]
        assert {e["name"] for e in complete} >= {
            "global_iteration", "local_analysis"}
        assert all(e["dur"] >= 0.0 for e in complete)

    def test_rox08_trace_carries_junction_counts(self, obs_on, tmp_path):
        """Each span carries its record: RoX08 HEM's 3 global iterations
        count its 8 junction resolutions per kind (the carried resolver
        re-derives no junction whose upstream responses held), beside 3
        local analyses (the resources an iteration keeps have none); a
        healthy strict run records no point event."""
        payload = chrome_trace(
            tmp_path / "t.json",
            lambda: analyze_system(build_system("hem")),
            t0=get_tracer().t0)
        phases = [e["ph"] for e in payload["traceEvents"]]
        assert phases.count("X") == 6
        assert phases.count("i") == 0
        iterations = [e["args"] for e in payload["traceEvents"]
                      if e["name"] == "global_iteration"]
        local = [e["args"] for e in payload["traceEvents"]
                 if e["name"] == "local_analysis"]
        assert len(iterations) == len(local) == 3
        per_kind = {}
        for args in iterations:
            for kind, n in args["junctions"].items():
                per_kind[kind] = per_kind.get(kind, 0) + n
        assert per_kind == {"pack": 2, "unpack": 6}
        counters = metrics().snapshot()["counters"]
        assert per_kind == {
            k[len("propagation.junction."):]: v
            for k, v in counters.items()
            if k.startswith("propagation.junction.")}
        assert sum(args["windows"] for args in local) \
            == counters["busy_window.windows"] == 8


class TestEngineIntegration:
    def test_analyze_system_emits_convergence_spans(self, obs_on,
                                                    span_records):
        result = analyze_system(build_system("hem"))
        iterations = named(span_records, "global_iteration")
        assert len(iterations) == result.iterations
        first = iterations[0]["attributes"]
        last = iterations[-1]["attributes"]
        assert first["iteration"] == 1
        assert first["residual_r_max"] > 0.0
        assert first["unstable_models"] == len(first["changed_ports"]) > 0
        assert last["converged"] is True
        assert last["residual_r_max"] == 0.0
        # local analyses nested under their iteration span
        local = named(span_records, "local_analysis")
        assert {r["attributes"]["resource"] for r in local} \
            == {"CAN", "CPU1"}
        assert all(r["parent_id"] is not None for r in local)

    def test_analyze_system_emits_metrics(self, obs_on):
        from repro.eventmodels import compile as emc

        emc.cache().clear()
        analyze_system(build_system("hem"))
        snap = metrics().snapshot()
        assert snap["counters"]["propagation.iterations"] >= 2
        # The chain cache counts its own hits; the engine pushes no copy.
        # A cold run shares its chains through its own resolver; a
        # second analysis of an equal system hits the chain cache.
        assert obs.engine_stats()["compile.cache.hits"] == 0
        analyze_system(build_system("hem"))
        assert obs.engine_stats()["compile.cache.hits"] > 0
        assert not [n for n in snap["counters"]
                    if n.startswith(("compile.", "eventmodels."))]
        assert snap["counters"]["propagation.junction.pack"] > 0
        assert snap["counters"]["propagation.junction.unpack"] > 0
        assert snap["counters"]["busy_window.windows"] > 0
        assert snap["counters"]["busy_window.activations"] > 0
        assert snap["histograms"][
            "propagation.local_analysis_seconds"]["count"] > 0
        assert snap["gauges"]["propagation.iterations_to_convergence"] \
            == snap["counters"]["propagation.iterations"]

    def test_simulator_throughput_metrics(self, obs_on):
        from repro.sim import Simulator

        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        sim.run_until(100.0)
        snap = metrics().snapshot()
        assert snap["counters"]["sim.events"] == 10
        assert snap["gauges"]["sim.events_per_second"] > 0

    def test_convergence_report_renders(self, obs_on, span_records,
                                        tmp_path):
        path = tmp_path / "t.jsonl"
        sink = obs.get_bus().subscribe(
            JsonlEventSink(str(path), span_only=True, t0=get_tracer().t0))
        analyze_system(build_system("hem"))
        obs.get_bus().unsubscribe(sink)
        sink.close()
        report = ConvergenceReport.from_records(span_records)
        text = report.render()
        assert report.converged is True
        assert "converged" in text
        assert "max |dR+|" in text
        # the same report reconstructed from an exported JSONL trace
        roundtrip = ConvergenceReport.from_records(read_jsonl(str(path)))
        assert roundtrip.iterations == report.iterations
        assert roundtrip.render() == text
        assert render_convergence_report(span_records) == text

    def test_empty_report_is_explicit(self):
        assert "no convergence data" in ConvergenceReport([]).render()

    def test_engine_metrics_footer(self, obs_on, force_batching,
                                   span_records):
        lanes = obs.engine_stats()["kernels.lanes"]
        analyze_system(build_system("hem"))
        report = ConvergenceReport.from_records(span_records,
                                                registry=metrics())
        # The footer reads the engine's own counts, fresh.
        assert report.engine == obs.engine_stats()
        assert report.engine["kernels.lanes"] > lanes
        assert report.engine["compile.cache.hits"] > 0
        text = report.render()
        assert "engine:" in text
        assert "kernels.lanes=" in text
        assert "compile.cache.hits=" in text

    def test_engine_footer_absent_without_registry(self, obs_on,
                                                   span_records):
        analyze_system(build_system("hem"))
        assert "engine:" not in ConvergenceReport.from_records(
            span_records).render()


class TestDisabledFastPath:
    def test_disabled_run_collects_nothing(self, span_records):
        configure(enabled=False, reset=True)
        result = analyze_system(build_system("hem"))
        assert result.converged
        assert span_records == []
        assert metrics().is_empty()

    def test_disabled_run_allocates_nothing_in_obs(self):
        """Regression guard for the near-zero-overhead promise: with the
        switch off, analyze_system on the rox08 example must not
        allocate a single block inside repro/obs/* or repro/explain/*.
        With the switch on it pays for telemetry only: explanations are
        built on demand, so repro/explain/* still allocates nothing."""
        import repro.explain as explain_pkg

        explain_dir = str(Path(explain_pkg.__file__).parent)
        cases = [(False, (str(Path(obs.__file__).parent), explain_dir)),
                 (True, (explain_dir,))]
        try:
            for enabled, guarded in cases:
                configure(enabled=enabled, reset=True)
                # warm caches outside the snapshot window
                analyze_system(build_system("hem"))
                tracemalloc.start()
                try:
                    analyze_system(build_system("hem"))
                    snapshot = tracemalloc.take_snapshot()
                finally:
                    tracemalloc.stop()
                blocks = [
                    stat for stat in snapshot.statistics("filename")
                    if stat.traceback[0].filename.startswith(guarded)
                ]
                assert blocks == [], (
                    f"enabled={enabled}: {guarded} allocated: {blocks}")
        finally:
            configure(enabled=False, reset=True)


class TestTraceCli:
    def test_trace_example_produces_convergence_jsonl(self, tmp_path,
                                                      capsys):
        from repro.obs.cli import trace_main

        out = tmp_path / "quickstart.trace.jsonl"
        example = Path(__file__).resolve().parent.parent / "examples" \
            / "quickstart.py"
        code = trace_main([str(example), "--quiet", "--out", str(out)])
        assert code == 0
        records = read_jsonl(str(out))
        convergence = [r for r in records
                       if r["name"] == "global_iteration"]
        assert convergence, "trace has no per-iteration spans"
        assert all("residual_r_max" in r["attributes"]
                   for r in convergence)
        assert convergence[-1]["attributes"]["converged"] is True
        stdout = capsys.readouterr().out
        assert "Convergence of the global fixed-point iteration" in stdout
        assert obs.enabled is False  # CLI must restore the switch

    def test_trace_builtin_rox08(self, tmp_path, capsys, monkeypatch):
        from repro.obs.cli import trace_main

        monkeypatch.chdir(tmp_path)
        code = trace_main(["rox08", "--metrics", "m.json"])
        assert code == 0
        records = read_jsonl("rox08.trace.jsonl")
        assert any(r["name"] == "global_iteration" for r in records)
        assert Path("m.json").exists()

    def test_trace_missing_target(self, capsys):
        from repro.obs.cli import trace_main

        assert trace_main(["no/such/example.py"]) == 2


class TestPublicApi:
    def test_top_level_exports(self):
        import repro

        assert repro.configure is obs.configure
        assert repro.get_tracer is obs.get_tracer
        assert repro.metrics is obs.metrics
        for name in ("obs", "configure", "get_tracer", "metrics"):
            assert name in repro.__all__

    def test_configure_toggles_module_flag(self):
        configure(enabled=True)
        assert obs.enabled is True
        configure(enabled=False)
        assert obs.enabled is False
