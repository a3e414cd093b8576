"""``run.py --smoke``: every workload for a few seconds, every check, and
every metric BENCHMARK.json names."""

from __future__ import annotations

import json
import subprocess
import sys

import common


def test_smoke_run_reports_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(common.HERE / "run.py"), "--smoke",
         "--seed", "1", "--out", str(out)],
        cwd=str(common.ROOT), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

    bench = common.benchmark_definition()
    extra = common.spec()["extra_end_to_end"]
    results = json.loads(out.read_text())["results"]
    seen = {(r["workload"], r["trace"]) for r in results}
    assert seen == {(w, t) for w in common.WORKLOADS for t in (False, True)}
    for result in results:
        assert result["correct"], result["problems"]
        wanted = [m["name"] for m in bench[
            "per_layer" if result["trace"] else "end_to_end"]]
        if not result["trace"]:
            wanted += [name for name, m in extra.items()
                       if result["workload"] in m["workloads"]]
        missing = [name for name in wanted if name not in result["metrics"]]
        assert not missing, (result["workload"], result["trace"], missing)
