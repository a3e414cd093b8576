"""Bench envelopes, BENCH_HISTORY.jsonl, and the regression gate."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                       / "benchmarks"))

import bench_history  # noqa: E402


def write_compile(out_dir, speedups, enveloped=True):
    payload = {"cases": {f"case{i}": {"speedup": s, "identical": True}
                         for i, s in enumerate(speedups)}}
    doc = bench_history.envelope(payload, "compile",
                                 host="h", git_sha="sha",
                                 timestamp=1.0) if enveloped else payload
    (out_dir / "BENCH_compile.json").write_text(json.dumps(doc))


def write_batch(out_dir, points=64, wall=2.0, hit_rate=1.0,
                enveloped=True):
    payload = {"points": points, "pool_wall_seconds": wall,
               "warm_cache_hit_rate": hit_rate}
    doc = bench_history.envelope(payload, "batch", host="h",
                                 git_sha="sha",
                                 timestamp=1.0) if enveloped else payload
    (out_dir / "BENCH_batch.json").write_text(json.dumps(doc))


class TestEnvelope:
    def test_explicit_provenance(self):
        env = bench_history.envelope({"a": 1}, "compile", host="ci-3",
                                     git_sha="abc", timestamp=42.0)
        assert env["schema"] == bench_history.SCHEMA
        assert env["bench"] == "compile"
        assert env["host"] == "ci-3"
        assert env["git_sha"] == "abc"
        assert env["timestamp"] == 42.0
        assert env["payload"] == {"a": 1}

    def test_env_var_fallbacks(self, monkeypatch):
        monkeypatch.setenv("BENCH_HOST", "runner-7")
        monkeypatch.setenv("BENCH_GIT_SHA", "deadbeef")
        monkeypatch.setenv("BENCH_TIMESTAMP", "123.5")
        env = bench_history.envelope({}, "batch")
        assert env["host"] == "runner-7"
        assert env["git_sha"] == "deadbeef"
        assert env["timestamp"] == 123.5

    def test_unwrap_enveloped_and_legacy(self):
        env = bench_history.envelope({"x": 2}, "batch", host="h",
                                     git_sha="s", timestamp=1.0)
        payload, meta = bench_history.unwrap(env)
        assert payload == {"x": 2}
        assert meta["bench"] == "batch" and "payload" not in meta
        payload, meta = bench_history.unwrap({"x": 2})
        assert payload == {"x": 2} and meta == {}

    def test_load_artifact_tolerates_both(self, tmp_path):
        write_compile(tmp_path, [3.0], enveloped=True)
        write_batch(tmp_path, enveloped=False)
        comp = bench_history.load_artifact(
            tmp_path / "BENCH_compile.json")
        batch = bench_history.load_artifact(
            tmp_path / "BENCH_batch.json")
        assert comp["cases"]["case0"]["speedup"] == 3.0
        assert batch["points"] == 64
        assert bench_history.load_artifact(
            tmp_path / "missing.json") is None


#: The workloads BENCHMARK.json declares.
WORKLOADS = [w["name"] for w in bench_history.BENCHMARK["workloads"]]


def e2e_document(p10=40.0, rss=80.0, smoke=False):
    """A run.py --out document: one untraced and one traced result per
    workload, metrics as ``{"value", "unit"}``."""
    results = []
    for workload in WORKLOADS:
        results.append({"workload": workload, "trace": False,
                        "metrics": {
                            "setup_s": {"value": 1.5, "unit": "s"},
                            "input_p10_ms": {"value": p10, "unit": "ms"},
                            "peak_rss_mb": {"value": rss, "unit": "MB"},
                            "p50_ms": {"value": 2 * p10, "unit": "ms"}}})
        results.append({"workload": workload, "trace": True,
                        "metrics": {
                            "analysis.spp.self_ms": {"value": 3.0,
                                                     "unit": "ms"},
                            "analysis.spnp.self_ms": {"value": 8.0,
                                                      "unit": "ms"},
                            "eventmodels.compile.self_ms": {"value": 4.0,
                                                            "unit": "ms"},
                            "core.theta.self_ms": {"value": 0.5,
                                                   "unit": "ms"},
                            "analysis.spp.calls": {"value": 99.0,
                                                   "unit": "count"}}})
    return {"schema": "repro-e2e/1", "seed": 0, "smoke": smoke,
            "results": results}


def write_e2e(out_dir, **kwargs):
    (out_dir / "BENCH_e2e.json").write_text(
        json.dumps(e2e_document(**kwargs)))


class TestMetrics:
    def test_extractors(self):
        comp = {"cases": {"a": {"speedup": 5.0}, "b": {"speedup": 2.0}}}
        batch = {"points": 64, "pool_wall_seconds": 4.0,
                 "warm_cache_hit_rate": 0.95}
        metrics = bench_history.TRACKED_METRICS
        assert metrics["compile.min_speedup"][1](comp) == 2.0
        assert metrics["batch.throughput"][1](batch) == 16.0
        assert metrics["batch.warm_cache_hit_rate"][1](batch) == 0.95
        assert metrics["compile.min_speedup"][1]({}) is None
        assert metrics["batch.throughput"][1](
            {"points": 1, "pool_wall_seconds": 0}) is None

    def test_e2e_extractors(self):
        metrics = bench_history.TRACKED_METRICS
        doc = e2e_document(p10=12.5, rss=41.0)
        for workload in WORKLOADS:
            p10 = metrics[f"e2e.{workload}.input_p10_ms"]
            rss = metrics[f"e2e.{workload}.peak_rss_mb"]
            assert p10.bench == rss.bench == "e2e"
            assert p10.better == rss.better == "lower"
            assert p10.extract(doc) == 12.5
            assert rss.extract(doc) == 41.0
            assert metrics[f"e2e.{workload}.setup_s"].extract(doc) == 1.5
            # a smoke run is too short to compare with full runs
            assert p10.extract(e2e_document(smoke=True)) is None
        assert metrics["e2e.serve-mix.input_p10_ms"].extract({}) is None
        assert metrics["compile.min_speedup"].better == "higher"

    def test_e2e_metrics_follow_benchmark_definition(self):
        """Every workload x end-to-end metric of a BENCHMARK.json
        document, with its direction and bound; nothing else."""
        benchmark = {
            "workloads": [{"name": "w1"}, {"name": "w2"}],
            "end_to_end": [
                {"name": "lat_ms", "better": "lower", "bound": 0.25},
                {"name": "ops", "better": "higher", "bound": 0.1}]}
        metrics = bench_history.e2e_metrics(benchmark)
        assert sorted(metrics) == ["e2e.w1.lat_ms", "e2e.w1.ops",
                                   "e2e.w2.lat_ms", "e2e.w2.ops"]
        assert metrics["e2e.w2.lat_ms"][2:] == ("lower", 0.25)
        assert metrics["e2e.w1.ops"][2:] == ("higher", 0.1)
        tracked = {name for name in bench_history.TRACKED_METRICS
                   if name.startswith("e2e.")}
        assert tracked == set(bench_history.e2e_metrics(
            bench_history.BENCHMARK))

    def test_top_layers(self):
        layers = bench_history.top_layers(e2e_document())
        assert set(layers) == set(WORKLOADS)
        assert layers["corpus-cold"] == [
            ("analysis.spnp.self_ms", 8.0),
            ("eventmodels.compile.self_ms", 4.0),
            ("analysis.spp.self_ms", 3.0)]


class TestRecordAndCheck:
    def record(self, tmp_path):
        return bench_history.main(["--dir", str(tmp_path), "record"])

    def check(self, tmp_path, *extra):
        return bench_history.main(
            ["--dir", str(tmp_path), "check", *extra])

    def test_record_appends_envelopes(self, tmp_path):
        write_compile(tmp_path, [3.0])
        write_batch(tmp_path)
        assert self.record(tmp_path) == 0
        assert self.record(tmp_path) == 0  # append, not overwrite
        lines = (tmp_path / "BENCH_HISTORY.jsonl").read_text() \
            .strip().splitlines()
        assert len(lines) == 4
        benches = [json.loads(line)["bench"] for line in lines]
        assert benches.count("compile") == 2
        assert benches.count("batch") == 2

    def test_check_passes_without_baseline(self, tmp_path):
        write_compile(tmp_path, [3.0])
        write_batch(tmp_path)
        assert self.check(tmp_path) == 0
        assert self.check(tmp_path, "--require-baseline") == 1

    def test_check_ok_within_threshold(self, tmp_path):
        write_compile(tmp_path, [10.0])
        write_batch(tmp_path, wall=2.0)
        assert self.record(tmp_path) == 0
        # 20% slower: inside the default 25% noise threshold
        write_compile(tmp_path, [8.0])
        write_batch(tmp_path, wall=2.5)
        assert self.check(tmp_path) == 0

    def test_check_fails_on_regression(self, tmp_path, capsys):
        write_compile(tmp_path, [10.0])
        write_batch(tmp_path, wall=2.0)
        assert self.record(tmp_path) == 0
        write_compile(tmp_path, [10.0])
        write_batch(tmp_path, wall=20.0)  # 10x slower sweep
        assert self.check(tmp_path) == 1
        err = capsys.readouterr().err
        assert "batch.throughput" in err

    def test_check_flags_e2e_rise(self, tmp_path, capsys):
        write_e2e(tmp_path, p10=40.0, rss=80.0)
        assert self.record(tmp_path) == 0
        write_e2e(tmp_path, p10=52.0, rss=80.0)  # 30% slower
        assert self.check(tmp_path) == 1
        captured = capsys.readouterr()
        assert "e2e.corpus-cold.input_p10_ms: 52.0000 > 50.0000" \
            in captured.err
        assert "peak_rss_mb" not in captured.err
        # the traced layers are printed, not gated
        assert ("e2e.corpus-cold top layers (not gated): "
                "analysis.spnp.self_ms 8 ms") in captured.out

    def test_check_passes_e2e_drop(self, tmp_path, capsys):
        write_e2e(tmp_path, p10=40.0, rss=80.0)
        assert self.record(tmp_path) == 0
        write_e2e(tmp_path, p10=8.0, rss=42.0)  # much faster, smaller
        assert self.check(tmp_path) == 0
        assert "REGRESSION" not in capsys.readouterr().out
        write_e2e(tmp_path, p10=49.0, rss=87.0)  # within both bounds
        assert self.check(tmp_path) == 0

    def test_check_gates_e2e_at_benchmark_bound(self, tmp_path, capsys):
        """peak_rss_mb is gated at its 10% BENCHMARK.json bound, not at
        the 25% --threshold default."""
        write_e2e(tmp_path, p10=40.0, rss=80.0)
        assert self.record(tmp_path) == 0
        write_e2e(tmp_path, p10=40.0, rss=92.0)  # 15% larger
        assert self.check(tmp_path) == 1
        err = capsys.readouterr().err
        assert ("e2e.corpus-cold.peak_rss_mb: 92.0000 > 88.0000 "
                "(baseline 80.0000, threshold 10%)") in err
        assert "input_p10_ms" not in err
        # --threshold does not loosen a declared bound
        assert self.check(tmp_path, "--threshold", "0.5") == 1

    def test_baseline_is_median_of_window(self, tmp_path):
        # history: speedups 2, 100, 100 -> median 100; current 60
        # regresses vs median even though it beats the oldest entry
        for speedup in (2.0, 100.0, 100.0):
            write_compile(tmp_path, [speedup])
            assert self.record(tmp_path) == 0
        write_compile(tmp_path, [60.0])
        assert self.check(tmp_path) == 1
        # a shorter window of 1 sees only the newest entry (100)
        assert self.check(tmp_path, "--window", "1") == 1
        # looser threshold lets it through
        assert self.check(tmp_path, "--threshold", "0.5") == 0

    def test_skip_last_excludes_just_recorded(self, tmp_path):
        write_compile(tmp_path, [10.0])
        assert self.record(tmp_path) == 0
        write_compile(tmp_path, [1.0])  # big regression...
        assert self.record(tmp_path) == 0  # ...already recorded
        # without --skip-last the regressed entry pollutes the baseline
        # (median of 10 and 1 = 5.5; 1 < 5.5*0.75 -> still fails here)
        assert self.check(tmp_path, "--skip-last") == 1

    def test_check_tolerates_missing_artifacts(self, tmp_path):
        assert self.check(tmp_path) == 0  # nothing to check: vacuous

    def test_history_ignores_garbage_lines(self, tmp_path):
        write_compile(tmp_path, [10.0])
        (tmp_path / "BENCH_HISTORY.jsonl").write_text(
            "not json\n"
            '{"bench": "unknown-kind"}\n'
            + json.dumps(bench_history.envelope(
                {"cases": {"a": {"speedup": 9.0}}}, "compile",
                host="h", git_sha="s", timestamp=1.0)) + "\n")
        history = bench_history.load_history(
            tmp_path / "BENCH_HISTORY.jsonl")
        assert len(history) == 1
        assert bench_history.baseline_for(
            "compile.min_speedup", history) == 9.0


class TestSuiteEnvelope:
    def test_conftest_suite_roundtrip(self, tmp_path):
        """The benchmark conftest reads legacy and enveloped suite maps
        alike (read-modify-write must survive the format change)."""
        legacy = {"old_test": {"wall_seconds": 1.0}}
        enveloped = bench_history.envelope(legacy, "suite", host="h",
                                           git_sha="s", timestamp=1.0)
        for doc in (legacy, enveloped):
            payload, _ = bench_history.unwrap(doc)
            assert payload == legacy
