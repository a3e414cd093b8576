"""Retry, poisoning, chaos injection, and timeout hygiene."""

import multiprocessing
import threading

import pytest

from repro import (
    RetryPolicy,
    SPPScheduler,
    TaskSpec,
    analyze_system,
    obs,
    periodic,
)
from repro._errors import ReproError
from repro.analysis import max_wcet_scaling
from repro.batch import BatchRunner, Job, ResultStore
from repro.batch.executor import ProcessPoolBackend, SerialBackend
from repro.batch.jobs import (
    STATUS_POISONED,
    STATUS_TIMEOUT,
    JobResult,
    job_kinds,
    run_job,
    taskspec_to_dict,
)
from repro.examples_lib.rox08 import build_system
from repro.examples_lib.stress import build_overloaded
from repro.examples_lib.synth import GraphSpace, synth_task_graph
from repro.obs.context import JobTimeout, job_scope
from repro.resilience import ChaosBackend, register_chaos_job_kinds
from repro.resilience.retry import DETERMINISTIC, TRANSIENT
from repro.serve import handlers  # noqa: F401 - registers "explain"
from repro.soak.campaign import sample_job
from repro.soak.oracle import KIND_GRAPH, SampleSpec, gather_evidence
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


class TestPostHocTimeout:
    """A timed-out attempt folds none of its observability side effects
    into the process registry, off the main thread or on it."""

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
        # On the main thread the probe's wait ends at the deadline;
        # what the attempt recorded before it is discarded the same way.
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


def on_thread(fn):
    """``fn()`` run on a fresh thread (where no signal can reach)."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(60)
    assert not thread.is_alive()
    return out[0]


def fork_pool(workers=1):
    return ProcessPoolBackend(
        workers, mp_context=multiprocessing.get_context("fork"))


def run_through(backend, jobs):
    captured = []
    backend.run(jobs, captured.append)
    return {r.key: r for r in captured}


LOCAL_TASKS = [TaskSpec("hi", 5.0, 5.0, periodic(50.0), priority=1),
               TaskSpec("lo", 3.0, 3.0, periodic(20.0), priority=2)]
LOCAL_DEADLINES = {"hi": 10.0, "lo": 20.0}


def local_payload():
    """A ``wcet_scaling`` payload: two SPP tasks and their deadlines."""
    return {"scheduler": {"policy": "spp"},
            "tasks": [taskspec_to_dict(t) for t in LOCAL_TASKS],
            "deadlines": dict(LOCAL_DEADLINES)}


def in_tree_jobs(tmp_path, timeout):
    """One job of every in-tree kind, each with *timeout*."""
    hem = system_to_dict(build_system("hem"))
    dense = system_to_dict(synth_task_graph(3, GraphSpace(
        max_resources=3, max_sources=8, max_chain=3, policies=("spp",),
        util_lo=0.5, util_hi=0.8)))
    jobs = [
        Job("analyze", {"system": hem, "on_failure": "degrade"},
            timeout=timeout),
        Job("explain", {"system": hem}, timeout=timeout),
        Job("wcet_scaling", local_payload(), timeout=timeout),
        Job("task_slack", dict(local_payload(), task="lo"),
            timeout=timeout),
        Job("simulate", {"system": dense, "horizon": 1e7},
            timeout=timeout),
        sample_job("smoke", 7, 0, {"faults": 2}, [KIND_GRAPH], timeout),
        Job("chaos_probe", {"state_dir": str(tmp_path),
                            "hang_seconds": 0.3}, timeout=timeout),
    ]
    assert {job.kind for job in jobs} <= set(job_kinds())
    return jobs


class TestOneDeadline:
    """A job's one deadline, checked by the engine, ends it the same
    way on the main thread, on a thread and in a fork pool."""

    def test_same_record_on_every_path(self, tmp_path):
        job = Job("chaos_probe",
                  {"state_dir": str(tmp_path), "probe_id": "slow",
                   "hang_seconds": 0.3},
                  timeout=0.05)
        obs.configure(enabled=True, reset=True)
        try:
            results = [run_through(SerialBackend(), [job]),
                       on_thread(lambda: run_through(SerialBackend(),
                                                     [job])),
                       run_through(fork_pool(), [job])]
        finally:
            obs.disable(reset=True)
        results = [by_key[job.key] for by_key in results]
        assert {(r.status, r.error, tuple(sorted(r.obs)))
                for r in results} == {
            (STATUS_TIMEOUT, "job exceeded timeout of 0.05s",
             ("metrics", "pid", "spans"))}
        assert [r.data for r in results] == [{}, {}, {}]
        assert all(r.duration < 0.2 for r in results), \
            [r.duration for r in results]

    def test_a_retry_does_no_extra_work(self, tmp_path):
        job = Job("analyze",
                  {"system": system_to_dict(build_system("hem")),
                   "on_failure": "degrade"},
                  timeout=1e-9)
        iterations = []
        collect = iterations.append
        obs.configure(enabled=True, reset=True)
        obs.get_bus().subscribe(collect, interests={"iteration"})
        try:
            report = on_thread(lambda: runner(
                tmp_path, retry=no_sleep_policy(max_attempts=2)).run([job]))
        finally:
            obs.get_bus().unsubscribe(collect)
            obs.disable(reset=True)
        result = report[job.key]
        assert result.status == STATUS_POISONED and result.attempts == 2
        assert [h["status"] for h in result.history] == [STATUS_TIMEOUT]
        assert iterations == []  # no attempt completed a global iteration

    def test_sensitivity_kinds_stop(self):
        job = Job("wcet_scaling", local_payload(), timeout=1e-9)
        result = on_thread(
            lambda: run_through(SerialBackend(), [job]))[job.key]
        assert result.status == STATUS_TIMEOUT
        assert "factor" not in result.data

    def test_engine_handlers_let_it_through(self):
        """The sensitivity bisection, degraded mode's quarantine and the
        soak oracle catch analysis failures; the timeout is none."""
        assert not issubclass(JobTimeout, ReproError)
        calls = [
            lambda: max_wcet_scaling(SPPScheduler(), LOCAL_TASKS,
                                     LOCAL_DEADLINES),
            lambda: analyze_system(build_system("hem"),
                                   on_failure="degrade"),
            lambda: gather_evidence(SampleSpec(KIND_GRAPH, 1, {})),
        ]
        for call in calls:
            with job_scope(timeout=1e-9):
                with pytest.raises(JobTimeout):
                    call()

    @pytest.mark.parametrize("path", ["main", "thread", "pool"])
    def test_every_in_tree_kind_stops(self, tmp_path, path):
        jobs = in_tree_jobs(tmp_path, 1e-9)
        if path == "pool":
            results = run_through(fork_pool(2), jobs)
        else:
            def serial():
                return run_through(SerialBackend(), jobs)
            results = serial() if path == "main" else on_thread(serial)
        for job in jobs:
            result = results[job.key]
            assert result.status == STATUS_TIMEOUT, (job.kind, result.error)
            assert result.error == "job exceeded timeout of 1e-09s"
            assert result.data == {} and result.duration < 0.2, job.kind


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
