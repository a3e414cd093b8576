"""End-to-end benchmark of ``repro``: four workloads, end-to-end metrics
with tracing off, per-layer self times from a traced run.

    python3 benchmarks/e2e/run.py [--seed N] [--out PATH] [--smoke]
    python3 benchmarks/e2e/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1 [--out PATH]

Without ``--workload`` every workload runs untraced (end-to-end metrics)
and then traced (per-layer metrics); each result is printed as
``<workload> <metric> <value> <unit>`` lines and written as JSON to
``--out`` (default ``.e2e/results-seed<N>.json``).  With ``--workload``
one run of one workload is made and the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the ``end_to_end`` metrics of ``BENCHMARK.json`` untraced, its
``per_layer`` metrics traced).  The exit status is non-zero when any
correctness check fails.

Every analysing process is a fresh child of this one: ``worker.py`` for
the in-process workloads, the ``serve_child.py`` daemon for serve-mix.
``setup_s`` is the median of :data:`SETUPS` set-ups, each timed from the
child's spawn to the end of its warm-up pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: Set-ups per untraced run (their median is ``setup_s``).
SETUPS = 3
#: Default window lengths of a full run and of ``--smoke``.
FULL_SECONDS = {"untraced": 20.0, "traced": 10.0}
SMOKE_SECONDS = {"untraced": 1.5, "traced": 1.5}

#: Units of metrics without an entry in BENCHMARK.json or spec.json,
#: by name suffix.
_SUFFIX_UNITS = (("_pct", "%"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                 ("_rate", "ratio"), ("_samples", "count"), (".calls", "count"),
                 (".batches", "count"), (".lanes", "count"))


def unit_of(name: str, catalogue: Dict[str, dict]) -> str:
    if name in catalogue:
        return catalogue[name]["unit"]
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    return "1"


def catalogue() -> Dict[str, dict]:
    """Every end-to-end and per-layer metric with a declared unit."""
    bench = common.benchmark_definition()
    out = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    out.update(common.spec()["extra_end_to_end"])
    return out


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def run_in_process(name: str, seed: int, seconds: float, trace: bool,
                   setups: int, work: Path) -> dict:
    cmd = [sys.executable, str(common.HERE / "worker.py"),
           "--workload", name, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(trace)),
           "--work", str(work)]
    env = dict(os.environ, PYTHONPATH=str(common.SRC))
    setup_s: List[float] = []
    for i in range(setups):
        last = i == setups - 1
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd + ([] if last else ["--setup-only"]),
                                stdout=subprocess.PIPE, text=True,
                                cwd=str(common.ROOT), env=env)
        common.read_line(proc, lambda line: line.startswith(common.READY),
                         timeout=120.0)
        setup_s.append(time.perf_counter() - t0)
        if not last:
            proc.communicate(timeout=60.0)
    line = common.read_line(
        proc, lambda line: line.startswith(common.REPORT),
        timeout=seconds + 120.0)
    proc.communicate(timeout=60.0)
    report = json.loads(line[len(common.REPORT):])
    report["setup_s"] = setup_s
    return report


def measure(name: str, seed: int, seconds: float, trace: bool,
            setups: int) -> dict:
    """One run of one workload: ``metrics`` (name -> value) plus the
    ``attempted``/``failed`` and the correctness verdict."""
    work = common.WORK_ROOT / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if name == "serve-mix":
            import serve_mix

            report = serve_mix.run(seed, seconds, trace, setups, work)
        else:
            report = run_in_process(name, seed, seconds, trace, setups,
                                    work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        metrics = report["metrics"]
    else:
        metrics = end_to_end(name, report)
    attempted, failed = report["attempted"], report["failed"]
    return {
        "workload": name, "seed": seed, "trace": trace,
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "correct": not report["problems"] and not failed,
        "problems": report["problems"], "digest": report.get("digest"),
        "missing": report.get("missing", []),
    }


def end_to_end(name: str, report: dict) -> Dict[str, float]:
    """The end-to-end metrics of an untraced run."""
    if "passes" in report:
        samples, seconds = common.pooled(report["passes"])
        report["ops_per_s"] = sum(
            1 for _, x in samples if x != float("inf")) / seconds
    else:
        samples = report["samples"]
    latencies = common.latencies(samples)
    metrics = {
        "setup_s": common.median(report["setup_s"]),
        "input_p10_ms": common.input_percentile(samples, 10) * 1e3,
        "ops_per_s": report["ops_per_s"],
        "p50_ms": common.median(latencies) * 1e3,
        "p90_ms": common.percentile(latencies, 90) * 1e3,
        "peak_rss_mb": report["peak_rss_mb"],
        "error_rate": report["failed"] / report["attempted"],
    }
    if name == "serve-mix":
        metrics["p99_ms"] = common.percentile(latencies, 99) * 1e3
        metrics["loadgen.late_p99_ms"] = report["late_p99_ms"]
    metrics["latency_samples"] = len(latencies)
    return metrics


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def with_units(metrics: Dict[str, float], units: Dict[str, dict]
               ) -> Dict[str, dict]:
    return {k: {"value": v, "unit": unit_of(k, units)}
            for k, v in sorted(metrics.items())}


def print_result(result: dict, units: Dict[str, dict]) -> None:
    name = result["workload"]
    for metric, entry in with_units(result["metrics"], units).items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    if result["digest"]:
        print(f"{name} reference digest {result['digest']}")
    for problem in result["problems"]:
        print(f"{name} CHECK FAILED: {problem}")
    for target in result["missing"]:
        print(f"{name} ledger target missing: {target}")


def result_line(result: dict, bench: dict) -> str:
    """The final JSON line: exactly the metrics BENCHMARK.json lists for
    this kind of run (a per-layer metric of a deleted layer is left
    out)."""
    wanted = bench["per_layer" if result["trace"] else "end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]],
                           "unit": m["unit"]}
               for m in wanted if m["name"] in result["metrics"]}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not result["trace"]:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of repro (see README.md).")
    parser.add_argument("--workload", choices=common.WORKLOADS,
                        help="one run of one workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="write the results as JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload for a few seconds, all checks")
    args = parser.parse_args(argv)

    common.require_program()
    bench = common.benchmark_definition()
    units = catalogue()
    seed = (common.spec()["default_seed"] if args.seed is None
            else args.seed)
    started = time.time()
    results = []
    try:
        if args.workload:
            seconds = args.seconds or float(bench["run_seconds"])
            results.append(measure(args.workload, seed, seconds,
                                   bool(args.trace), SETUPS))
        else:
            lengths = SMOKE_SECONDS if args.smoke else FULL_SECONDS
            setups = 1 if args.smoke else SETUPS
            for trace in (False, True):
                seconds = args.seconds or lengths[
                    "traced" if trace else "untraced"]
                for name in common.WORKLOADS:
                    result = measure(name, seed, seconds, trace, setups)
                    print_result(result, units)
                    results.append(result)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"e2e: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    out = args.out or (None if args.workload else
                       str(common.WORK_ROOT / f"results-seed{seed}.json"))
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        document = {"schema": "repro-e2e/1", "seed": seed,
                    "started_at": started, "smoke": args.smoke,
                    "results": [dict(r, metrics=with_units(r["metrics"],
                                                           units))
                                for r in results]}
        Path(out).write_text(json.dumps(document, indent=1) + "\n",
                             encoding="utf-8")
    if args.workload:
        print_result(results[0], units)
        print(result_line(results[0], bench))
    elif out:
        print(f"wrote {out}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
