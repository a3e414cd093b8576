"""Live aggregation: the aggregate must match the ground truth.

The acceptance property of the streaming pipeline: a
:class:`LiveAggregator` fed by the bus during a sweep (serial *and*
pool-backed) reports exactly the counts the final
:class:`~repro.batch.executor.BatchReport` and the re-read
:class:`~repro.batch.store.ResultStore` report — telemetry is an
observation channel, never a second source of truth.
"""

import io
import multiprocessing

import pytest

from repro import SPPScheduler, System, obs, periodic
from repro.batch import (
    BatchRunner,
    Job,
    ProcessPoolBackend,
    ResultStore,
    SerialBackend,
)
from repro.batch.cli import ProgressLine
from repro.batch.spaces import quickstart_space
from repro.obs.aggregate import LiveAggregator
from repro.obs.top import StoreTail, fold_store_record
from repro.system import system_to_dict


@pytest.fixture(autouse=True)
def clean_obs():
    obs.get_bus().clear()
    obs.configure(enabled=False, reset=True)
    yield
    obs.get_bus().clear()
    obs.configure(enabled=False, reset=True)


def small_system(wcet=10.0, name="small"):
    s = System(name)
    s.add_source("stim", periodic(100.0))
    s.add_resource("cpu", SPPScheduler())
    s.add_task("a", "cpu", (wcet / 2, wcet), ["stim"], priority=1)
    return s


def analyze_jobs(n=4):
    return [Job("analyze",
                {"system": system_to_dict(small_system(wcet=6.0 + i))},
                label=f"wcet={6.0 + i}")
            for i in range(n)]


def fork_ctx():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        pytest.skip("fork start method unavailable")


def run_with_aggregator(jobs, store, backend):
    aggregator = LiveAggregator(total=len(jobs))
    obs.configure(enabled=True, reset=True)
    obs.get_bus().subscribe(aggregator)
    try:
        report = BatchRunner(store=store, backend=backend).run(jobs)
    finally:
        obs.get_bus().unsubscribe(aggregator)
    return aggregator, report


def assert_matches_ground_truth(aggregator, report, cache_dir):
    """The streamed aggregate equals BatchReport and the store."""
    assert aggregator.done == report.total
    assert aggregator.cached == len(report.cached)
    assert aggregator.executed == len(report.executed)
    assert aggregator.failed == len(report.failed)
    assert aggregator.poisoned == len(report.poisoned)
    assert aggregator.ok == report.total - len(report.failed)
    assert aggregator.cache_hit_rate == pytest.approx(
        report.cache_hit_rate)
    # the persisted store agrees too
    reread = ResultStore(cache_dir)
    stored_ok = sum(1 for r in reread.results() if r.ok)
    assert stored_ok == aggregator.ok
    assert len(reread) >= aggregator.done - aggregator.poisoned


class TestAggregateMatchesStore:
    def test_serial_sweep(self, tmp_path):
        jobs = analyze_jobs(5)
        aggregator, report = run_with_aggregator(
            jobs, ResultStore(tmp_path), SerialBackend())
        assert report.ok
        assert_matches_ground_truth(aggregator, report, tmp_path)
        assert aggregator.backend == "serial"
        assert aggregator.iterations > 0  # engine effort streamed
        assert aggregator.finished_at is not None
        assert aggregator.wall == pytest.approx(report.wall)

    def test_pool_sweep(self, tmp_path):
        jobs = analyze_jobs(6)
        aggregator, report = run_with_aggregator(
            jobs, ResultStore(tmp_path),
            ProcessPoolBackend(2, mp_context=fork_ctx()))
        assert report.ok
        assert_matches_ground_truth(aggregator, report, tmp_path)
        assert aggregator.backend == "process"
        assert aggregator.workers == 2
        # worker obs deltas crossed the process boundary
        assert aggregator.iterations > 0
        assert aggregator.worker_spans > 0

    def test_warm_rerun_counts_cached(self, tmp_path):
        jobs = analyze_jobs(4)
        run_with_aggregator(jobs, ResultStore(tmp_path),
                            SerialBackend())
        aggregator, report = run_with_aggregator(
            jobs, ResultStore(tmp_path), SerialBackend())
        assert len(report.cached) == 4
        assert_matches_ground_truth(aggregator, report, tmp_path)
        assert aggregator.cached == 4 and aggregator.executed == 0
        assert aggregator.cache_hit_rate == 1.0
        # a cached point spent no engine effort in this run
        assert aggregator.iterations == 0
        assert aggregator.worker_spans == 0

    def test_failures_streamed(self, tmp_path):
        jobs = analyze_jobs(2) + [
            Job("analyze", {"system": {"name": "broken",
                                       "tasks": "not-a-list"}},
                label="broken")]
        aggregator, report = run_with_aggregator(
            jobs, ResultStore(tmp_path), SerialBackend())
        assert len(report.failed) == 1
        assert_matches_ground_truth(aggregator, report, tmp_path)
        assert aggregator.failures
        label, error = aggregator.failures[-1]
        assert label == "broken" and error

    def test_design_space_end_to_end(self, tmp_path):
        space = quickstart_space()
        points = list(space.grid())[:6]
        aggregator = LiveAggregator(total=len(points))
        obs.configure(enabled=True, reset=True)
        obs.get_bus().subscribe(aggregator)
        try:
            sweep = space.run(
                BatchRunner(store=ResultStore(tmp_path)), points=points)
        finally:
            obs.get_bus().unsubscribe(aggregator)
        assert_matches_ground_truth(aggregator, sweep.report, tmp_path)
        assert aggregator.residuals  # in-process iteration events
        snap = aggregator.snapshot()
        assert snap["done"] == len(points)
        assert snap["finished"] is True


class TestFollowEquivalence:
    def test_store_tail_reconstructs_counts(self, tmp_path):
        jobs = analyze_jobs(5)
        live, report = run_with_aggregator(
            jobs, ResultStore(tmp_path), SerialBackend())
        followed = LiveAggregator(total=len(jobs))
        tail = StoreTail(tmp_path / "results.jsonl")
        folded = tail.poll(followed)
        assert folded == len(jobs)
        assert followed.done == live.done == report.total
        assert followed.ok == live.ok
        assert followed.failed == live.failed
        # nothing new appended -> second poll is a no-op
        assert tail.poll(followed) == 0

    def test_fold_store_record_maps_status(self):
        aggregator = LiveAggregator(total=2)
        fold_store_record(aggregator, {
            "key": "k1", "kind": "analyze", "label": "good",
            "status": "ok", "duration": 0.5, "attempts": 1,
            "obs": {"metrics": {"counters": {
                "propagation.iterations": 7}}, "spans": 3},
        })
        fold_store_record(aggregator, {
            "key": "k2", "kind": "analyze", "label": "bad",
            "status": "failed", "error": "boom",
        })
        assert aggregator.done == 2
        assert aggregator.ok == 1 and aggregator.failed == 1
        assert aggregator.iterations == 7
        assert aggregator.worker_spans == 3
        assert aggregator.failures[-1] == ("bad", "boom")

    def test_tail_tolerates_missing_and_torn(self, tmp_path):
        path = tmp_path / "results.jsonl"
        tail = StoreTail(path)
        aggregator = LiveAggregator()
        assert tail.poll(aggregator) == 0  # no file yet
        with open(path, "w") as fh:
            fh.write('{"key": "a", "status": "ok"}\n')
            fh.write('{"key": "b", "stat')  # torn mid-append
        assert tail.poll(aggregator) == 1
        with open(path, "a") as fh:
            fh.write('us": "ok"}\n')
        assert tail.poll(aggregator) == 1
        assert aggregator.done == 2


class TestRendering:
    def folded(self):
        aggregator = LiveAggregator(total=4)
        aggregator.handle({"type": "sweep", "phase": "start",
                           "total": 4, "cached": 1, "to_run": 3,
                           "workers": 2, "backend": "process", "t": 0.0})
        aggregator.handle({"type": "job", "key": "a", "status": "ok",
                           "cached": True, "t": 0.1})
        aggregator.handle({"type": "job", "key": "b", "status": "ok",
                           "cached": False, "duration": 0.2, "t": 0.3})
        aggregator.handle({"type": "job", "key": "c",
                           "status": "failed", "label": "pt-c",
                           "error": "boom", "cached": False, "t": 0.4})
        aggregator.handle({"type": "job_retry", "key": "d",
                           "attempt": 1, "status": "timeout"})
        aggregator.handle({"type": "iteration", "system": "sys",
                           "iteration": 1, "residual_r_max": 2.5})
        aggregator.handle({"type": "guard", "system": "sys",
                           "verdict": "diverging", "iteration": 9})
        return aggregator

    def test_render_line_mentions_counts(self):
        line = self.folded().render_line()
        assert "3/4 pts" in line
        assert "ok 2" in line and "fail 1" in line
        assert "cached 1" in line and "retry 1" in line
        assert len(line) <= 78

    def test_render_frame_sections(self):
        frame = self.folded().render(width=100)
        assert "3/4 points" in frame
        assert "backend process x2" in frame
        assert "residuals[sys]" in frame
        assert "guard: diverging on sys" in frame
        assert "FAILED pt-c: boom" in frame

    def test_eta_and_throughput(self):
        aggregator = LiveAggregator(total=10, clock=lambda: 5.0)
        for i in range(5):
            aggregator.handle({"type": "job", "key": str(i),
                               "status": "ok", "cached": False,
                               "duration": 1.0, "t": float(i)})
        assert aggregator.throughput() == pytest.approx(1.0)
        assert aggregator.eta_seconds() == pytest.approx(5.0)

    def test_residual_eviction_bounds_memory(self):
        aggregator = LiveAggregator()
        from repro.obs.aggregate import MAX_TRACKED_SYSTEMS
        for i in range(MAX_TRACKED_SYSTEMS + 5):
            aggregator.handle({"type": "iteration",
                               "system": f"sys{i}", "iteration": 1,
                               "residual_r_max": 0.1})
        assert len(aggregator.residuals) == MAX_TRACKED_SYSTEMS
        assert "sys0" not in aggregator.residuals


class TestProgressLine:
    def make(self, tty, quiet=False, interval=0.0):
        aggregator = LiveAggregator(total=2)
        aggregator.handle({"type": "job", "key": "a", "status": "ok",
                           "cached": False, "t": 1.0})

        class Stream(io.StringIO):
            def isatty(self):
                return tty

        stream = Stream()
        line = ProgressLine(aggregator, quiet=quiet, stream=stream,
                            interval=interval)
        return line, stream

    def test_tty_rewrites_in_place(self):
        line, stream = self.make(tty=True)
        line.update()
        line.update()
        out = stream.getvalue()
        assert out.count("\r") == 2 and "\n" not in out
        line.finish()
        assert stream.getvalue().endswith("\n")

    def test_non_tty_rate_limited(self):
        line, stream = self.make(tty=False, interval=3600.0)
        line.update()
        line.update()  # suppressed: inside the interval
        line.finish()  # always emits
        assert stream.getvalue().count("\n") == 2

    def test_quiet_suppresses_everything(self):
        line, stream = self.make(tty=True, quiet=True)
        line.update()
        line.finish()
        assert stream.getvalue() == ""

    def test_non_tty_rate_limit_uses_injected_monotonic_clock(self):
        now = {"t": 0.0}
        aggregator = LiveAggregator(total=2)

        class Stream(io.StringIO):
            def isatty(self):
                return False

        stream = Stream()
        line = ProgressLine(aggregator, stream=stream, interval=2.0,
                            clock=lambda: now["t"])
        line.update()          # t=0: emits
        now["t"] = 1.0
        line.update()          # inside the interval: suppressed
        now["t"] = 2.5
        line.update()          # interval elapsed: emits
        assert stream.getvalue().count("\n") == 2

    def test_finish_is_idempotent_and_final(self):
        line, stream = self.make(tty=False, interval=3600.0)
        line.finish()
        line.finish()          # second finish is a no-op
        line.update()          # updates after finish are ignored
        assert stream.getvalue().count("\n") == 1


class TestTelemetryHealth:
    def test_snapshot_surfaces_drops_and_sink_errors(self):
        class Boom:
            name = "boom-sink"

            def handle(self, event):
                raise RuntimeError("sink bug")

        obs.configure(enabled=True, reset=True)
        bus = obs.get_bus()
        boom = Boom()
        bus.subscribe(boom)
        try:
            bus.publish({"type": "job", "key": "x", "status": "ok"})
        finally:
            bus.unsubscribe(boom)
        snap = LiveAggregator().snapshot()
        telemetry = snap["telemetry"]
        assert telemetry == {"sink_errors": 1,
                             "sink_error_counts": {"boom-sink": 1}}

    def test_render_shows_telemetry_line_only_when_unhealthy(self):
        obs.configure(enabled=True, reset=True)
        aggregator = LiveAggregator()
        assert "telemetry:" not in aggregator.render()

        class Boom:
            name = "bad"

            def handle(self, event):
                raise RuntimeError("x")

        bus = obs.get_bus()
        boom = Boom()
        bus.subscribe(boom)
        try:
            bus.publish({"type": "job", "key": "y", "status": "ok"})
        finally:
            bus.unsubscribe(boom)
        frame = aggregator.render(width=120)
        assert "telemetry:" in frame
        assert "1 sink errors (bad=1)" in frame


class TestWorkerSpanShipping:
    def test_pool_spans_adopted_on_worker_lanes(self, tmp_path):
        """An attached span sink makes pool workers ship their span
        records; the parent re-publishes each once, worker-tagged."""
        jobs = analyze_jobs(3)
        obs.configure(enabled=True, reset=True)
        sink = obs.get_bus().subscribe(
            obs.ChromeTraceSink(str(tmp_path / "trace.json")))
        try:
            report = BatchRunner(
                store=ResultStore(tmp_path),
                backend=ProcessPoolBackend(2, mp_context=fork_ctx())
            ).run(jobs)
        finally:
            obs.get_bus().unsubscribe(sink)
            sink.close()
        assert report.ok
        # each span a worker finished arrived once
        assert sink.count == sum(r.obs["spans"]
                                 for r in report.results.values()) > 0
        lanes = {e["args"]["name"]
                 for e in sink.payload()["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert lanes and all(name.startswith("worker-") for name in lanes)
        # the store keeps results, not the shipped span records
        assert all("span_records" not in r.obs
                   for r in ResultStore(tmp_path).results())

    def test_jsonl_sink_gets_each_worker_span_once(self, tmp_path):
        """Forked workers drop the sinks they inherit: a file sink gets
        each worker span once, from the parent, worker-tagged."""
        jobs = analyze_jobs(3)
        path = tmp_path / "trace.jsonl"
        obs.configure(enabled=True, reset=True)
        sink = obs.get_bus().subscribe(
            obs.JsonlEventSink(str(path), span_only=True))
        try:
            report = BatchRunner(
                backend=ProcessPoolBackend(2, mp_context=fork_ctx())
            ).run(jobs)
        finally:
            obs.get_bus().unsubscribe(sink)
            sink.close()
        records = obs.read_jsonl(str(path))
        assert len(records) == sum(r.obs["spans"]
                                   for r in report.results.values()) > 0
        assert all(r.get("worker") for r in records)

    def test_pool_without_span_sink_ships_nothing(self):
        """A progress line's aggregator takes no spans: workers send
        their span counts, not their records."""
        jobs = analyze_jobs(2)
        obs.configure(enabled=True, reset=True)
        obs.get_bus().subscribe(LiveAggregator(total=len(jobs)))
        results = []
        ProcessPoolBackend(2, mp_context=fork_ctx()).run(
            jobs, results.append)
        assert len(results) == 2 and all(r.ok for r in results)
        assert all(r.obs["spans"] > 0 for r in results)
        assert all("span_records" not in r.obs for r in results)

    def test_serial_ships_nothing_extra(self, tmp_path, span_records):
        jobs = analyze_jobs(2)
        obs.configure(enabled=True, reset=True)
        report = BatchRunner(store=ResultStore(tmp_path),
                             backend=SerialBackend()).run(jobs)
        assert report.ok
        # serial jobs trace into the parent directly; nothing shipped
        assert span_records
        assert all("worker" not in r for r in span_records)
