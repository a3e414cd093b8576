"""End-to-end burn-in campaign behaviour.

Exercises the full soak loop: a clean smoke campaign, cache-served
resume (including resume after SIGKILL mid-campaign), and the triage
pipeline on a deliberately planted unsound bound — the campaign must
catch the violation, shrink it to a minimal system, and emit a bundle
whose replay reproduces the violation.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.batch.store import ResultStore
from repro.soak import (load_bundle, replay_bundle, run_campaign)
from repro.soak.report import write_artifacts

REPO = pathlib.Path(__file__).resolve().parent.parent


def _store_indices(cache_dir):
    store = ResultStore(str(cache_dir))
    try:
        return [r.data["index"] for r in store.results()
                if isinstance(r.data, dict) and "index" in r.data]
    finally:
        store.close()


class TestCampaign:
    def test_smoke_campaign_clean(self, tmp_path):
        report = run_campaign("smoke", samples=4, seed=7,
                              cache_dir=str(tmp_path / "soak"),
                              workers=0)
        assert report.samples == 4
        assert report.errors == 0
        assert report.violations == []
        assert report.bundles == []
        assert report.wall > 0
        assert report.samples_per_sec > 0
        # 3 graph + 1 gateway cycle: both kinds exercised.
        indices = _store_indices(tmp_path / "soak")
        assert sorted(indices) == [0, 1, 2, 3]
        # Every contract saw at least one non-skip outcome.
        exercised = {
            cid for cid, by_status in report.contract_counts.items()
            if by_status.get("pass", 0)
            + by_status.get("violation", 0) > 0}
        from repro.soak import contract_ids
        assert exercised == set(contract_ids())

    def test_artifacts(self, tmp_path, monkeypatch):
        report = run_campaign("smoke", samples=1, seed=7,
                              cache_dir=str(tmp_path / "soak"),
                              workers=0)
        (tmp_path / "bench").mkdir()
        monkeypatch.setenv("BENCH_OUT_DIR", str(tmp_path / "bench"))
        paths = write_artifacts(report)
        report_json = tmp_path / "soak" / "report.json"
        assert report_json in [pathlib.Path(p) for p in paths]
        loaded = json.loads(report_json.read_text())
        assert loaded["profile"] == "smoke"
        assert loaded["samples"] == 1
        bench = json.loads(
            (tmp_path / "bench" / "BENCH_soak.json").read_text())
        assert bench["schema"] == "repro-bench/1"
        assert bench["payload"]["samples_per_sec"] > 0

    def test_resume_serves_finished_samples_from_cache(self, tmp_path):
        cache = tmp_path / "soak"
        first = run_campaign("smoke", samples=2, seed=7,
                             cache_dir=str(cache), workers=0)
        assert first.samples == 2 and first.cached == 0
        second = run_campaign("smoke", samples=5, seed=7,
                              cache_dir=str(cache), workers=0,
                              resume=True)
        assert second.samples == 5
        assert second.cached == 2
        assert second.resumed_from == 2
        assert sorted(_store_indices(cache)) == [0, 1, 2, 3, 4]

    def test_sigkill_mid_campaign_then_resume(self, tmp_path):
        """A killed campaign resumes without re-running or duplicating
        finished samples."""
        cache = tmp_path / "soak"
        # A campaign that finishes before the kill writes its bench
        # file; it must land in the test's directory, not the checkout.
        root_bench = REPO / "BENCH_soak.json"
        root_before = (root_bench.stat().st_mtime_ns
                       if root_bench.exists() else None)
        env = dict(os.environ,
                   PYTHONPATH=str(REPO / "src"),
                   BENCH_OUT_DIR=str(tmp_path))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "soak", "run", "smoke",
             "--samples", "5", "--seed", "3",
             "--cache-dir", str(cache), "--quiet"],
            cwd=str(REPO), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            results = cache / "results.jsonl"
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if results.exists() and results.read_text().strip():
                    break
                if proc.poll() is not None:
                    pytest.fail("campaign exited before first sample")
                time.sleep(0.1)
            else:
                pytest.fail("no sample landed before the kill window")
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
        assert (root_bench.stat().st_mtime_ns if root_bench.exists()
                else None) == root_before, \
            "the campaign wrote BENCH_soak.json into the repo root"

        done_before = _store_indices(cache)
        assert done_before, "kill landed before any result persisted"

        report = run_campaign("smoke", samples=5, seed=3,
                              cache_dir=str(cache), workers=0,
                              resume=True)
        assert report.samples == 5
        assert report.cached >= len(done_before)
        assert report.resumed_from == max(done_before) + 1
        indices = _store_indices(cache)
        assert sorted(indices) == [0, 1, 2, 3, 4]
        assert len(indices) == len(set(indices)), \
            "duplicate sample ids after resume"


class TestPlantedViolation:
    def _plant_unsound_bound(self, monkeypatch, factor=0.25):
        """Make every static-priority solver under-report r_max."""
        from repro.analysis.spnp import SPNPScheduler
        from repro.analysis.spp import SPPScheduler

        for cls in (SPPScheduler, SPNPScheduler):
            original = cls.analyze

            def unsound(self, tasks, resource_name="resource",
                        reuse=None, _orig=original):
                rr = _orig(self, tasks, resource_name, reuse=reuse)
                for tr in rr.task_results.values():
                    if tr is not None:
                        tr.r_max = max(tr.r_min, factor * tr.r_max)
                return rr

            monkeypatch.setattr(cls, "analyze", unsound)

    def test_unsound_bound_is_caught_shrunk_and_replayable(
            self, tmp_path, monkeypatch):
        self._plant_unsound_bound(monkeypatch)
        cache = tmp_path / "soak"
        report = run_campaign("smoke", samples=1, seed=7,
                              cache_dir=str(cache), workers=0)
        assert report.samples == 1
        violated = {v["contract"] for v in report.violations}
        assert "wcrt-sim-conservative" in violated

        record = next(v for v in report.violations
                      if v["contract"] == "wcrt-sim-conservative")
        bundle_path = pathlib.Path(record["bundle"])
        assert (bundle_path / "bundle.json").is_file()

        bundle = load_bundle(bundle_path)
        assert bundle["contract"] == "wcrt-sim-conservative"
        assert bundle["shrink"]["shrunk_tasks"] <= 3
        assert len(bundle["system"]["tasks"]) \
            == bundle["shrink"]["shrunk_tasks"]
        assert bundle["repro"].startswith("python -m repro soak replay")

        # While the planted bug is live, the bundle reproduces the
        # violation through the same path the repro command runs.
        outcome = replay_bundle(bundle_path)
        assert outcome["status"] == "violation"
        assert outcome["contract"] == "wcrt-sim-conservative"

    def test_healthy_engine_does_not_reproduce(self, tmp_path,
                                               monkeypatch):
        """A bundle minted under the planted bug stops reproducing once
        the bug is gone — replay re-runs the real analysis."""
        with pytest.MonkeyPatch.context() as patched:
            self._plant_unsound_bound(patched)
            report = run_campaign("smoke", samples=1, seed=7,
                                  cache_dir=str(tmp_path / "soak"),
                                  workers=0)
        record = next(v for v in report.violations
                      if v["contract"] == "wcrt-sim-conservative")
        outcome = replay_bundle(record["bundle"])
        assert outcome["status"] != "violation"
