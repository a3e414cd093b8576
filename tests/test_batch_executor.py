"""Executor backends and the memoising batch runner."""

import multiprocessing

import pytest

from repro import SPPScheduler, System, obs, periodic
from repro._errors import ModelError
from repro.batch import (
    BatchRunner,
    Job,
    ProcessPoolBackend,
    ResultStore,
    SerialBackend,
    make_backend,
)
from repro.system import system_to_dict


def small_system(wcet=10.0, name="small"):
    s = System(name)
    s.add_source("stim", periodic(100.0))
    s.add_resource("cpu", SPPScheduler())
    s.add_task("a", "cpu", (wcet / 2, wcet), ["stim"], priority=1)
    s.add_task("b", "cpu", (5.0, 8.0), ["a"], priority=2)
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


class TestBackends:
    def test_make_backend_selects(self):
        assert isinstance(make_backend(0), SerialBackend)
        assert isinstance(make_backend(3), ProcessPoolBackend)
        assert make_backend(3).workers == 3

    def test_pool_needs_workers(self):
        with pytest.raises(ModelError):
            ProcessPoolBackend(0)

    def test_serial_and_process_agree(self):
        jobs = analyze_jobs(3)
        serial_results = {}
        SerialBackend().run(jobs, lambda r: serial_results.update(
            {r.key: r}))
        pool_results = {}
        ProcessPoolBackend(2, mp_context=fork_ctx()).run(
            jobs, lambda r: pool_results.update({r.key: r}))
        assert set(serial_results) == set(pool_results)
        for key, serial in serial_results.items():
            pooled = pool_results[key]
            assert serial.ok and pooled.ok
            assert pooled.data["wcrt"] == pytest.approx(
                serial.data["wcrt"])


class TestRunnerMemoisation:
    def test_cold_then_warm(self, tmp_path):
        jobs = analyze_jobs(4)
        cold = BatchRunner(store=ResultStore(tmp_path)).run(jobs)
        assert cold.ok
        assert len(cold.executed) == 4
        assert cold.cache_hit_rate == 0.0

        warm = BatchRunner(store=ResultStore(tmp_path)).run(jobs)
        assert warm.ok
        assert len(warm.executed) == 0
        assert len(warm.cached) == 4
        assert warm.cache_hit_rate == 1.0
        for job in jobs:
            assert warm.result_for(job).data == \
                cold.result_for(job).data

    def test_cached_run_leaves_the_index_alone(self, tmp_path):
        """A run that puts nothing has nothing to checkpoint."""
        jobs = analyze_jobs(2)
        BatchRunner(store=ResultStore(tmp_path)).run(jobs)
        index = tmp_path / "index.json"
        before = index.stat()
        warm = BatchRunner(store=ResultStore(tmp_path)).run(jobs)
        assert len(warm.cached) == 2
        after = index.stat()
        assert (after.st_ino, after.st_mtime_ns) == \
            (before.st_ino, before.st_mtime_ns)

    def test_duplicate_jobs_collapse(self, tmp_path):
        job = analyze_jobs(1)[0]
        report = BatchRunner(store=ResultStore(tmp_path)).run(
            [job, job, job])
        assert report.total == 1
        assert len(report.executed) == 1

    def test_runner_without_store(self):
        report = BatchRunner().run(analyze_jobs(2))
        assert report.ok
        assert len(report.executed) == 2

    def test_checkpoint_resume_after_partial_run(self, tmp_path):
        """Killing a sweep loses nothing that already finished."""
        jobs = analyze_jobs(5)

        class DiesAfterTwo(SerialBackend):
            def run(self, pending, on_result):
                for i, job in enumerate(pending):
                    if i == 2:
                        raise KeyboardInterrupt()
                    super().run([job], on_result)

        runner = BatchRunner(store=ResultStore(tmp_path),
                             backend=DiesAfterTwo())
        with pytest.raises(KeyboardInterrupt):
            runner.run(jobs)

        resumed = BatchRunner(store=ResultStore(tmp_path)).run(jobs)
        assert resumed.ok
        assert len(resumed.cached) == 2
        assert len(resumed.executed) == 3

    def test_obs_counters(self, tmp_path):
        jobs = analyze_jobs(3)
        obs.configure(enabled=True, reset=True)
        try:
            BatchRunner(store=ResultStore(tmp_path)).run(jobs)
            BatchRunner(store=ResultStore(tmp_path)).run(jobs)
        finally:
            obs.configure(enabled=False)
        counters = obs.metrics().snapshot()["counters"]
        assert counters["batch.jobs.submitted"] == 3
        assert counters["batch.jobs.completed"] == 3
        assert counters["batch.cache.hits"] == 3
        assert counters["batch.cache.misses"] == 3
        hist = obs.metrics().snapshot()["histograms"][
            "batch.job_seconds"]
        assert hist["count"] == 3

    def test_progress_callback(self, tmp_path):
        seen = []
        BatchRunner(store=ResultStore(tmp_path)).run(
            analyze_jobs(2), progress=seen.append)
        assert len(seen) == 2
        assert all(r.ok for r in seen)


class TestWorkerObsMerging:
    """Worker-side metrics must reach the parent registry: pool workers
    serialise a delta into the job result, the runner replays it."""

    def test_two_worker_run_merges_worker_metrics(self, tmp_path):
        jobs = analyze_jobs(4)
        obs.configure(enabled=True, reset=True)
        try:
            backend = ProcessPoolBackend(2, mp_context=fork_ctx())
            report = BatchRunner(store=ResultStore(tmp_path),
                                 backend=backend).run(jobs)
        finally:
            obs.configure(enabled=False)
        assert report.ok
        snap = obs.metrics().snapshot()
        counters = snap["counters"]
        # parent-side batch accounting
        assert counters["batch.jobs.submitted"] == 4
        assert counters["batch.jobs.completed"] == 4
        # worker-side analysis counters, folded into the parent registry
        # (they were recorded in child processes whose registries died)
        assert counters["analysis.jobs.analyze"] == 4
        assert counters["propagation.iterations"] > 0
        assert counters["busy_window.windows"] > 0
        assert counters["busy_window.activations"] > 0
        assert counters["batch.worker.spans"] > 0
        # worker histograms merge as raw samples
        assert snap["histograms"][
            "propagation.local_analysis_seconds"]["count"] > 0
        # every executed result carried its own delta
        for result in report.results.values():
            assert result.obs["metrics"]["counters"][
                "analysis.jobs.analyze"] == 1
            assert result.obs["spans"] > 0

    def test_serial_backend_does_not_double_count(self, tmp_path):
        """Serial jobs already write into the parent registry; merging
        their deltas back would double every counter."""
        jobs = analyze_jobs(2)
        obs.configure(enabled=True, reset=True)
        try:
            report = BatchRunner(store=ResultStore(tmp_path)).run(jobs)
        finally:
            obs.configure(enabled=False)
        counters = obs.metrics().snapshot()["counters"]
        assert counters["analysis.jobs.analyze"] == 2
        # the delta is still captured on the result (it is part of the
        # serialised format), it is just not merged twice
        for result in report.results.values():
            assert result.obs["metrics"]["counters"][
                "analysis.jobs.analyze"] == 1

    def test_obs_delta_survives_result_round_trip(self, tmp_path):
        from repro.batch import JobResult

        jobs = analyze_jobs(1)
        obs.configure(enabled=True, reset=True)
        try:
            report = BatchRunner(store=ResultStore(tmp_path)).run(jobs)
        finally:
            obs.configure(enabled=False)
        result = report.result_for(jobs[0])
        clone = JobResult.from_dict(result.to_dict())
        assert clone.obs == result.obs
        assert clone.obs["metrics"]["counters"]

    def test_disabled_run_attaches_no_obs(self, tmp_path):
        obs.configure(enabled=False, reset=True)
        jobs = analyze_jobs(1)
        report = BatchRunner(store=ResultStore(tmp_path)).run(jobs)
        assert report.result_for(jobs[0]).obs == {}
