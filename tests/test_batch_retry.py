"""Retry, poisoning, chaos injection, and post-hoc timeout hygiene."""

import multiprocessing
import threading

import pytest

from repro import RetryPolicy, obs
from repro.batch import BatchRunner, Job, ResultStore
from repro.batch.executor import ProcessPoolBackend, SerialBackend
from repro.batch.jobs import (
    STATUS_POISONED,
    STATUS_TIMEOUT,
    JobResult,
    run_job,
)
from repro.examples_lib.rox08 import build_system
from repro.examples_lib.stress import build_overloaded
from repro.resilience import ChaosBackend, register_chaos_job_kinds
from repro.resilience.retry import DETERMINISTIC, TRANSIENT
from repro.system import system_to_dict

register_chaos_job_kinds()


def no_sleep_policy(**kwargs):
    kwargs.setdefault("max_attempts", 3)
    kwargs.setdefault("base_delay", 0.001)
    return RetryPolicy(sleep=lambda _: None, **kwargs)


def probe(tmp_path, probe_id, fail_times, **extra):
    payload = {"state_dir": str(tmp_path), "probe_id": probe_id,
               "fail_times": fail_times}
    payload.update(extra)
    return Job("chaos_probe", payload)


def runner(tmp_path, **kwargs):
    kwargs.setdefault("retry", no_sleep_policy())
    return BatchRunner(store=ResultStore(tmp_path / "store.json"),
                       **kwargs)


class TestClassification:
    def test_engine_errors_are_deterministic(self):
        policy = no_sleep_policy()
        for name in ("ModelError", "NotSchedulableError",
                     "ConvergenceError", "UnboundedStreamError"):
            result = JobResult("k", "analyze", "", "failed",
                               error=f"{name}: boom")
            assert policy.classify(result) == DETERMINISTIC

    def test_crashes_and_timeouts_are_transient(self):
        policy = no_sleep_policy()
        crash = JobResult("k", "analyze", "", "failed",
                          error="BrokenProcessPool: worker died")
        timeout = JobResult("k", "analyze", "", STATUS_TIMEOUT,
                            error="job exceeded timeout")
        assert policy.classify(crash) == TRANSIENT
        assert policy.classify(timeout) == TRANSIENT

    def test_unknown_kind_is_deterministic(self):
        policy = no_sleep_policy()
        result = JobResult("k", "wat", "", "failed",
                           error="unknown job kind 'wat' (known: ...)")
        assert policy.classify(result) == DETERMINISTIC

    def test_backoff_caps_and_jitters_deterministically(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=3.0, jitter=0.5,
                             seed=9, sleep=lambda _: None)
        assert policy.delay(1, "k") == policy.delay(1, "k")
        assert policy.delay(1, "k") != policy.delay(1, "other")
        for attempt in range(1, 8):
            assert policy.delay(attempt, "k") <= 3.0 * 1.5

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestRetryLoop:
    def test_transient_crash_retried_to_success(self, tmp_path):
        job = probe(tmp_path, "t1", fail_times=1)
        report = runner(tmp_path).run([job])
        result = report[job.key]
        assert result.ok and result.attempts == 2
        assert result.history[0]["error"].startswith("RuntimeError")
        assert report.ok and not report.poisoned

    def test_backoff_sleep_invoked_between_rounds(self, tmp_path):
        sleeps = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.01,
                             sleep=sleeps.append)
        job = probe(tmp_path, "t2", fail_times=2)
        report = runner(tmp_path, retry=policy).run([job])
        assert report[job.key].ok
        assert len(sleeps) == 2
        assert sleeps[1] > sleeps[0]  # exponential growth

    def test_deterministic_error_poisoned_first_attempt(self, tmp_path):
        job = probe(tmp_path, "m1", fail_times=99, error="model")
        report = runner(tmp_path).run([job])
        result = report[job.key]
        assert result.status == STATUS_POISONED
        assert result.attempts == 1 and not result.history
        assert result.error.startswith("ModelError")
        assert job.key in report.poisoned and not report.ok
        # the probe really ran exactly once
        assert (tmp_path / "chaos-m1.count").read_text() == "1"

    def test_malformed_system_poisoned_first_attempt(self, tmp_path):
        payload = system_to_dict(build_overloaded())
        name = sorted(payload["tasks"])[0]
        del payload["tasks"][name]["resource"]
        sleeps = []
        job = Job("analyze", {"system": payload})
        report = runner(tmp_path, retry=RetryPolicy(
            sleep=sleeps.append)).run([job])
        result = report[job.key]
        assert result.status == STATUS_POISONED
        assert result.attempts == 1 and sleeps == []
        assert result.error.startswith(
            f"ModelError: task {name!r}: missing key 'resource'")

    def test_persistent_transient_poisoned_with_history(self, tmp_path):
        job = probe(tmp_path, "t3", fail_times=99)
        report = runner(tmp_path).run([job])
        result = report[job.key]
        assert result.status == STATUS_POISONED
        assert result.attempts == 3
        assert [h["attempt"] for h in result.history] == [1, 2]
        assert "poisoned" in report.summary()

    def test_poisoned_result_served_from_cache(self, tmp_path):
        job = probe(tmp_path, "t4", fail_times=99)
        runner(tmp_path).run([job])
        report = runner(tmp_path).run([job])
        assert job.key in report.cached
        assert report[job.key].status == STATUS_POISONED
        # 3 attempts from the first run, none from the second
        assert (tmp_path / "chaos-t4.count").read_text() == "3"

    def test_retry_poisoned_reexecutes(self, tmp_path):
        job = probe(tmp_path, "t5", fail_times=2)
        first = runner(tmp_path,
                       retry=no_sleep_policy(max_attempts=2)).run([job])
        assert first[job.key].status == STATUS_POISONED
        second = runner(tmp_path, retry_poisoned=True).run([job])
        assert second[job.key].ok

    def test_no_policy_keeps_legacy_behaviour(self, tmp_path):
        job = probe(tmp_path, "t6", fail_times=1)
        report = BatchRunner(
            store=ResultStore(tmp_path / "store.json")).run([job])
        result = report[job.key]
        assert result.status == "failed" and result.attempts == 1

    def test_retry_counters_emitted(self, tmp_path):
        obs.configure(enabled=True, reset=True)
        try:
            ok_job = probe(tmp_path, "c1", fail_times=1)
            bad_job = probe(tmp_path, "c2", fail_times=99,
                            error="model")
            runner(tmp_path).run([ok_job, bad_job])
            counters = obs.metrics().snapshot()["counters"]
            assert counters.get("batch.retries") == 1
            assert counters.get("batch.poisoned") == 1
        finally:
            obs.disable(reset=True)


class TestChaosBackend:
    def test_injected_crashes_retried(self, tmp_path):
        job = probe(tmp_path, "cb1", fail_times=0)

        class CrashOnce(ChaosBackend):
            def _draw(self, key):
                rng = super()._draw(key)
                first = self._seen[key] == 1

                class Draw:
                    def random(self_inner):
                        return 0.0 if first else 1.0
                return Draw()

        backend = CrashOnce(SerialBackend(), seed=3, crash_rate=0.5)
        report = runner(tmp_path, backend=backend).run([job])
        result = report[job.key]
        assert result.ok and result.attempts == 2
        assert "ChaosWorkerCrash" in result.history[0]["error"]

    def test_chaos_schedule_reproducible(self, tmp_path):
        def crash_keys(seed):
            backend = ChaosBackend(SerialBackend(), seed=seed,
                                   crash_rate=0.5)
            crashed = []
            jobs = [probe(tmp_path, f"r{i}", fail_times=0)
                    for i in range(8)]
            backend.run(jobs, lambda r: crashed.append(r.key)
                        if not r.ok else None)
            return crashed

        assert crash_keys(13) == crash_keys(13)

    def test_delayed_result_trips_budget(self, tmp_path):
        job = Job("chaos_probe",
                  {"state_dir": str(tmp_path), "probe_id": "d1",
                   "fail_times": 0},
                  timeout=10.0)
        backend = ChaosBackend(SerialBackend(), seed=1, delay_rate=1.0,
                               delay=60.0, sleep=lambda _: None)
        results = []
        backend.run([job], results.append)
        assert results[0].status == STATUS_TIMEOUT


class TestPostHocTimeout:
    """Satellite regression: the non-SIGALRM path must discard a timed
    out job's observability side effects."""

    def _run_off_main_thread(self, job):
        captured = []
        thread = threading.Thread(
            target=lambda: SerialBackend().run([job], captured.append))
        thread.start()
        thread.join()
        return captured[0]

    def test_posthoc_timeout_discards_metrics(self):
        obs.configure(enabled=True, reset=True)
        try:
            registry = obs.metrics()
            job = Job("analyze",
                      {"system": system_to_dict(build_overloaded()),
                       "on_failure": "degrade"},
                      timeout=1e-9)
            before = dict(registry.snapshot()["counters"])
            result = self._run_off_main_thread(job)
            after = registry.snapshot()["counters"]
            assert result.status == STATUS_TIMEOUT
            # every counter the job touched was rolled back
            for name in ("propagation.iterations",
                         "resilience.quarantines",
                         "analysis.jobs.analyze"):
                assert after.get(name, 0) == before.get(name, 0)
        finally:
            obs.disable(reset=True)

    def test_posthoc_control_run_keeps_metrics(self):
        # Same job without the timeout: the metrics must survive,
        # proving the regression test above observes the discard and
        # not an accounting accident.
        obs.configure(enabled=True, reset=True)
        try:
            registry = obs.metrics()
            job = Job("analyze",
                      {"system": system_to_dict(build_overloaded()),
                       "on_failure": "degrade"})
            result = self._run_off_main_thread(job)
            counters = registry.snapshot()["counters"]
            assert result.ok
            assert counters.get("propagation.iterations", 0) > 0
            assert counters.get("resilience.quarantines", 0) > 0
        finally:
            obs.disable(reset=True)

    def test_sigalrm_timeout_also_discarded(self, tmp_path):
        # On the main thread SIGALRM pre-empts the job; partial
        # metrics written before the alarm are discarded the same way.
        obs.configure(enabled=True, reset=True)
        try:
            registry = obs.metrics()
            job = Job("chaos_probe",
                      {"state_dir": str(tmp_path), "probe_id": "alarm",
                       "hang_seconds": 5.0},
                      timeout=0.05)
            captured = []
            SerialBackend().run([job], captured.append)
            assert captured[0].status == STATUS_TIMEOUT
            counters = registry.snapshot()["counters"]
            assert counters.get("analysis.jobs.chaos_probe", 0) == 0
        finally:
            obs.disable(reset=True)


class TestBackendParity:
    """Every finished attempt is folded the same way on both backends:
    a retried failure counts, and every executed job's spans count."""

    def _sweep(self, tmp_path, backend):
        jobs = [probe(tmp_path, "parity", fail_times=1),
                Job("analyze", {"system": system_to_dict(build_system("hem")),
                                "on_failure": "degrade"})]
        obs.configure(enabled=True, reset=True)
        try:
            report = runner(tmp_path, backend=backend).run(jobs)
            snap = obs.metrics().snapshot()
        finally:
            obs.disable(reset=True)
        assert report.ok
        return snap

    def test_serial_and_pool_fold_equal_metrics(self, tmp_path):
        serial = self._sweep(tmp_path / "serial", SerialBackend())
        pool = self._sweep(tmp_path / "pool", ProcessPoolBackend(
            2, mp_context=multiprocessing.get_context("fork")))
        assert serial["counters"]["analysis.jobs.chaos_probe"] == 2
        assert serial["counters"]["batch.worker.spans"] == 6
        assert serial["counters"] == pool["counters"]
        assert ({n: h["count"] for n, h in serial["histograms"].items()}
                == {n: h["count"] for n, h in pool["histograms"].items()})
        assert serial["gauges"].pop("batch.workers") == 1
        assert pool["gauges"].pop("batch.workers") == 2
        assert serial["gauges"] == pool["gauges"]


class TestDegradeJobKind:
    def test_analyze_job_degrade_option(self):
        job = Job("analyze",
                  {"system": system_to_dict(build_overloaded()),
                   "on_failure": "degrade"})
        result = run_job(job)
        assert result.ok
        outcome = result.data["outcome"]
        assert outcome["degraded"]
        assert outcome["health"]["CPU_HOT"] == "overloaded"
        assert outcome["tasks"]["T_hot"]["r_max"] == "inf"

    def test_analyze_job_strict_still_fails(self):
        job = Job("analyze",
                  {"system": system_to_dict(build_overloaded())})
        result = run_job(job)
        assert result.status == "failed"
        assert result.error.startswith("NotSchedulableError")
