"""Worker fault handling: failures and timeouts never sink a sweep.

Satellite coverage: a job whose analysis raises (or exceeds its
timeout) is recorded as failed with the traceback, the remaining points
still complete, and a resumed run re-executes exactly the failed and
missing points.
"""

import multiprocessing
import threading
import time

import pytest

from repro import SPPScheduler, System, periodic
from repro.batch import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    BatchRunner,
    Job,
    ProcessPoolBackend,
    ResultStore,
    SerialBackend,
    register_job_kind,
)
from repro.batch.jobs import _JOB_KINDS
from repro.obs.context import wait
from repro.system import system_to_dict


@pytest.fixture
def scratch_kinds():
    """Let a test register throw-away job kinds, restored afterwards."""
    before = dict(_JOB_KINDS)
    yield
    _JOB_KINDS.clear()
    _JOB_KINDS.update(before)


def good_system(wcet=10.0):
    s = System("ok")
    s.add_source("stim", periodic(100.0))
    s.add_resource("cpu", SPPScheduler())
    s.add_task("a", "cpu", (wcet / 2, wcet), ["stim"], priority=1)
    return s


def overloaded_system():
    """Utilisation > 1: the local analysis raises, by design."""
    s = System("overloaded")
    s.add_source("stim", periodic(100.0))
    s.add_resource("cpu", SPPScheduler())
    s.add_task("a", "cpu", (90.0, 140.0), ["stim"], priority=1)
    return s


def fork_ctx():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        pytest.skip("fork start method unavailable")


def mixed_jobs():
    return [
        Job("analyze", {"system": system_to_dict(good_system(6.0))},
            label="good-1"),
        Job("analyze", {"system": system_to_dict(overloaded_system())},
            label="bad"),
        Job("analyze", {"system": system_to_dict(good_system(9.0))},
            label="good-2"),
    ]


class TestFailureCapture:
    def test_failure_recorded_sweep_completes(self, tmp_path):
        report = BatchRunner(store=ResultStore(tmp_path)).run(
            mixed_jobs())
        assert len(report.executed) == 3
        assert len(report.failed) == 1
        failed = report.results[report.failed[0]]
        assert failed.status == STATUS_FAILED
        assert failed.error
        assert "Traceback" in failed.traceback
        ok = [report.results[k] for k in report.order
              if k not in report.failed]
        assert all(r.status == STATUS_OK for r in ok)

    def test_failure_captured_in_worker_process(self, tmp_path):
        backend = ProcessPoolBackend(2, mp_context=fork_ctx())
        report = BatchRunner(store=ResultStore(tmp_path),
                             backend=backend).run(mixed_jobs())
        assert len(report.executed) == 3
        assert len(report.failed) == 1
        failed = report.results[report.failed[0]]
        assert "Traceback" in failed.traceback

    def test_malformed_payload_is_a_failed_result(self, tmp_path):
        report = BatchRunner(store=ResultStore(tmp_path)).run(
            [Job("analyze", {"system": {"tasks": {"t": {}}}})])
        assert report.failed
        assert report.results[report.failed[0]].status == STATUS_FAILED


class TestTimeouts:
    """A kind that waits through the deadline-aware wait stops at its
    deadline, on the main thread, on a thread and in a pool worker."""

    @pytest.fixture
    def sleepy(self, scratch_kinds):
        @register_job_kind("sleepy")
        def _sleepy(payload):
            wait(payload["seconds"])
            return {"slept": payload["seconds"]}

    def test_serial_timeout_preempts(self, sleepy, tmp_path):
        jobs = [Job("sleepy", {"seconds": 5.0}, timeout=0.2),
                Job("sleepy", {"seconds": 0.0}, timeout=5.0)]
        t0 = time.perf_counter()
        report = BatchRunner(store=ResultStore(tmp_path)).run(jobs)
        assert time.perf_counter() - t0 < 4.0  # pre-empted, not slept out
        slow = report.results[jobs[0].key]
        fast = report.results[jobs[1].key]
        assert slow.status == STATUS_TIMEOUT
        assert "timeout" in slow.error
        assert fast.status == STATUS_OK

    def test_thread_timeout_preempts(self, sleepy, tmp_path):
        jobs = [Job("sleepy", {"seconds": 5.0}, timeout=0.2),
                Job("sleepy", {"seconds": 0.0}, timeout=5.0)]
        reports = []
        t0 = time.perf_counter()
        thread = threading.Thread(target=lambda: reports.append(
            BatchRunner(store=ResultStore(tmp_path)).run(jobs)))
        thread.start()
        thread.join(30)
        assert not thread.is_alive()
        assert time.perf_counter() - t0 < 4.0
        slow = reports[0].results[jobs[0].key]
        assert slow.status == STATUS_TIMEOUT
        assert "timeout" in slow.error
        assert reports[0].results[jobs[1].key].status == STATUS_OK

    def test_pool_timeout_preempts_in_worker(self, sleepy, tmp_path):
        jobs = [Job("sleepy", {"seconds": 5.0}, timeout=0.2,
                    label="slow"),
                Job("sleepy", {"seconds": 0.0}, timeout=5.0,
                    label="fast")]
        backend = ProcessPoolBackend(2, mp_context=fork_ctx())
        t0 = time.perf_counter()
        report = BatchRunner(store=ResultStore(tmp_path),
                             backend=backend).run(jobs)
        assert time.perf_counter() - t0 < 4.0
        assert report.results[jobs[0].key].status == STATUS_TIMEOUT
        assert report.results[jobs[1].key].status == STATUS_OK


class TestResumeRetriesFailedOnly:
    def test_resume_skips_ok_retries_failed_and_missing(self, tmp_path):
        jobs = mixed_jobs()
        first = BatchRunner(store=ResultStore(tmp_path)).run(jobs)
        assert len(first.failed) == 1
        failed_key = first.failed[0]

        # Add a brand-new point; resume must run it plus the failure —
        # and nothing else.
        extra = Job("analyze",
                    {"system": system_to_dict(good_system(12.0))},
                    label="new-point")
        resumed = BatchRunner(store=ResultStore(tmp_path)).run(
            jobs + [extra])
        assert sorted(resumed.executed) == sorted(
            [failed_key, extra.key])
        assert len(resumed.cached) == 2
        # The failure is deterministic, so it fails again — but it was
        # retried, not served from the cache.
        assert resumed.results[failed_key].status == STATUS_FAILED

    def test_timeout_results_are_retried(self, scratch_kinds, tmp_path):
        calls = {"n": 0}

        @register_job_kind("flaky_slow")
        def _flaky(payload):
            calls["n"] += 1
            if calls["n"] == 1:
                time.sleep(0.5)  # blocks outside the engine: caught on return
            return {"attempt": calls["n"]}

        job = Job("flaky_slow", {"x": 1}, timeout=0.2)
        store = ResultStore(tmp_path)
        first = BatchRunner(store=store).run([job])
        assert first.results[job.key].status == STATUS_TIMEOUT
        second = BatchRunner(store=store).run([job])
        assert second.results[job.key].status == STATUS_OK
        assert len(second.executed) == 1
