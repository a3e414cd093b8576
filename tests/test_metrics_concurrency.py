"""Metrics under concurrency: the registry, and one registry per job.

The serve daemon runs jobs on two dispatcher threads while its event
loop records ``serve.*`` metrics, and ``repro top`` runs a sweep on a
worker thread.  Each job records into a registry of its own
(``repro.obs.context.job_scope``), which its backend folds into the
process registry once the attempt is finished.  These tests drive
registries and jobs from several threads at once and assert
*conservation*: nothing recorded is lost, double counted or credited
to the wrong job once the dust settles.
"""

import sys
import threading

import pytest

from repro import obs
from repro.batch import BatchRunner, Job, SerialBackend
from repro.batch.jobs import register_job_kind, run_job
from repro.examples_lib.rox08 import build_system
from repro.obs.metrics import MetricsRegistry
from repro.system import system_to_dict

INCS_PER_WRITER = 2_000

_WAITING = threading.Event()
_RELEASE = threading.Event()


@register_job_kind("metrics_test_wait")
def _run_wait(payload):
    """Test-only job: records nothing and parks until released."""
    _WAITING.set()
    if not _RELEASE.wait(timeout=30):
        raise RuntimeError("test job never released")
    return {}


@pytest.fixture
def process_registry():
    """Telemetry on over a fresh process registry, off afterwards."""
    obs.configure(enabled=True, reset=True)
    yield obs.metrics()
    obs.configure(enabled=False, reset=True)


def rox08_job(max_iterations=20):
    """A degraded RoX08 HEM analysis (3 iterations, 6 spans); the
    iteration cap only tells jobs apart."""
    return Job("analyze", {"system": system_to_dict(build_system("hem")),
                           "on_failure": "degrade",
                           "max_iterations": max_iterations})


def hammer(registry, writer_id, stop=None):
    """One writer thread's workload: counters + histogram samples."""
    counter = registry.counter("work.items")
    mine = registry.counter(f"work.writer{writer_id}")
    hist = registry.histogram("work.seconds")
    for i in range(INCS_PER_WRITER):
        counter.inc()
        mine.inc()
        hist.observe(float(i % 7))


class TestConcurrentDeltas:
    def test_observers_see_monotone_counts(self):
        """Snapshots taken while writers run never go backwards."""
        registry = MetricsRegistry()
        writers = [threading.Thread(target=hammer, args=(registry, w))
                   for w in range(2)]
        seen = []
        for t in writers:
            t.start()
        while any(t.is_alive() for t in writers):
            snap = registry.snapshot()
            seen.append(snap["counters"].get("work.items", 0))
        for t in writers:
            t.join()
        assert seen == sorted(seen)
        assert registry.snapshot()["counters"]["work.items"] == \
            2 * INCS_PER_WRITER



    def test_serial_runners_on_four_threads_conserve(
            self, process_registry):
        """Four threads run jobs through serial runners into one
        process registry: its totals are the sum of the jobs' deltas."""
        reports = []

        def sweep(w):
            jobs = [rox08_job(20 + 3 * w + i) for i in range(3)]
            reports.append(BatchRunner(backend=SerialBackend()).run(jobs))

        threads = [threading.Thread(target=sweep, args=(w,))
                   for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as it can
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        results = [r for report in reports
                   for r in report.results.values()]
        assert len(results) == 12 and all(r.ok for r in results)
        counters, samples = {}, {}
        for result in results:
            delta = result.obs["metrics"]
            for name, inc in delta["counters"].items():
                counters[name] = counters.get(name, 0) + inc
            for name, values in delta["histograms"].items():
                samples[name] = samples.get(name, 0) + len(values)
        assert counters["analysis.jobs.analyze"] == 12
        assert counters["propagation.iterations"] == 36
        snap = process_registry.snapshot()
        for name, total in counters.items():
            assert snap["counters"][name] == total, name
        for name, count in samples.items():
            assert snap["histograms"][name]["count"] == count, name
        assert snap["counters"]["batch.worker.spans"] == \
            sum(r.obs["spans"] for r in results) == 72


class TestJobScopes:
    def test_a_job_holds_only_its_own_work(self, process_registry):
        """Job A parks while job B runs on another thread: each result
        carries its own job's metrics and spans, and ``run_job`` alone
        writes nothing into the process registry."""
        _WAITING.clear()
        _RELEASE.clear()
        results = {}
        a = threading.Thread(target=lambda: results.update(
            a=run_job(Job("metrics_test_wait", {}))))
        a.start()
        try:
            assert _WAITING.wait(timeout=30)
            b = threading.Thread(target=lambda: results.update(
                b=run_job(rox08_job())))
            b.start()
            b.join(timeout=60)
        finally:
            _RELEASE.set()
            a.join(timeout=60)
        assert not a.is_alive() and not b.is_alive()
        job_b = results["b"].obs
        assert job_b["metrics"]["counters"]["propagation.iterations"] == 3
        assert job_b["metrics"]["counters"]["analysis.jobs.analyze"] == 1
        assert job_b["spans"] == 6
        job_a = results["a"].obs
        assert job_a["metrics"] == {
            "counters": {"analysis.jobs.metrics_test_wait": 1},
            "gauges": {}, "histograms": {}}
        assert job_a["spans"] == 0
        assert process_registry.is_empty()
