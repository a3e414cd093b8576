"""Sampling profiler: sampling mechanics, CLI surfaces, serve opt-in."""

from __future__ import annotations

import re
import threading
import time

import pytest

from repro import obs
from repro.batch.cli import batch_main
from repro.obs.profile import SamplingProfiler, profile_main
from repro.serve import ServeClient, daemon_in_thread

COLLAPSED_LINE = re.compile(r"^\S.* \d+$")


def _busy_wait(stop: threading.Event) -> None:
    while not stop.is_set():
        sum(i * i for i in range(200))


@pytest.fixture(autouse=True)
def _obs_isolation():
    yield
    obs.configure(enabled=False, reset=True)
    obs.get_bus().clear()


class TestSamplingProfiler:
    def test_samples_a_busy_thread(self):
        stop = threading.Event()
        worker = threading.Thread(target=_busy_wait, args=(stop,),
                                  daemon=True)
        worker.start()
        try:
            with SamplingProfiler(
                    hz=200, threads={worker.ident}) as profiler:
                # Deadline-based, not a fixed sleep: under a loaded
                # machine the sampler thread may be starved for a while.
                deadline = time.monotonic() + 10.0
                while (profiler.samples < 5
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
        finally:
            stop.set()
            worker.join()
        assert profiler.samples >= 5
        text = profiler.collapsed()
        for line in text.splitlines():
            assert COLLAPSED_LINE.match(line), line
        assert "_busy_wait" in text
        rows = profiler.hot_table()
        assert rows and rows[0]["self"] >= 1
        assert "_busy_wait" in profiler.render_hot_table()

    def test_thread_filter_excludes_other_threads(self):
        stop = threading.Event()
        worker = threading.Thread(target=_busy_wait, args=(stop,),
                                  daemon=True)
        worker.start()
        try:
            # Filter on a fake ident: nothing may be sampled.
            with SamplingProfiler(hz=200, threads={-1}) as profiler:
                time.sleep(0.1)
        finally:
            stop.set()
            worker.join()
        assert profiler.samples == 0
        assert profiler.collapsed() == ""

    def test_sampling_rate_bounds_its_cost(self):
        """The sampler's cost is its sample count: one stack walk per
        tick, so at 100 Hz a busy thread gets at most hz × elapsed + 1
        samples however hot it runs."""
        stop = threading.Event()
        worker = threading.Thread(target=_busy_wait, args=(stop,),
                                  daemon=True)
        worker.start()
        try:
            with SamplingProfiler(hz=100,
                                  threads={worker.ident}) as profiler:
                deadline = time.monotonic() + 10.0
                while (profiler.samples < 20
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
        finally:
            stop.set()
            worker.join()
        assert 20 <= profiler.samples \
            <= profiler.hz * profiler.duration + 1

    def test_stop_is_clean_and_idempotent(self):
        profiler = SamplingProfiler(hz=500).start()
        assert profiler.running
        profiler.stop()
        assert not profiler.running
        profiler.stop()  # second stop is a no-op
        assert profiler.duration >= 0.0
        report = profiler.to_dict()
        assert set(report) == {"hz", "samples", "duration",
                               "collapsed", "hot"}

    def test_rejects_nonpositive_hz(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)


class TestProfileCli:
    def test_profiles_builtin_example(self, tmp_path, capsys):
        out = tmp_path / "pipeline.collapsed"
        rc = profile_main(["pipeline", "--hz", "500",
                           "--repeat", "3", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "profiled 'pipeline'" in captured

    def test_unknown_example_fails_cleanly(self, capsys):
        assert profile_main(["no-such-example"]) == 2
        assert "unknown example" in capsys.readouterr().err


class TestBatchProfileFlag:
    def test_profiled_sweep_writes_collapsed_file(self, tmp_path,
                                                  capsys):
        cache = tmp_path / "cache"
        rc = batch_main(["quickstart", "--sample", "2",
                         "--profile", "--profile-hz", "500",
                         "--cache-dir", str(cache), "--quiet"])
        assert rc == 0
        collapsed = cache / "profile.collapsed"
        assert collapsed.exists()
        for line in collapsed.read_text().splitlines():
            assert COLLAPSED_LINE.match(line), line
        assert "profile:" in capsys.readouterr().out


class TestServeProfileOptIn:
    def test_profile_query_attaches_report(self, tmp_path):
        handle = daemon_in_thread(cache_dir=str(tmp_path / "cache"))
        try:
            client = ServeClient(port=handle.port)
            client.wait_healthy()
            plain = client.analyze(example="pipeline")
            assert plain.profile is None
            profiled = client.analyze(example="pipeline", profile=True)
        finally:
            handle.stop()
        assert profiled.ok
        assert profiled.profile is not None
        assert profiled.profile["hz"] > 0
        assert isinstance(profiled.profile["collapsed"], str)
        assert isinstance(profiled.profile["hot"], list)
        # profiling must not change the job's content-addressed key
        assert profiled.key == plain.key
