"""Benchmark history: envelopes, ``BENCH_HISTORY.jsonl``, regression gate.

Every ``BENCH_*.json`` artefact written by the benchmark harness is
wrapped in a schema-versioned *envelope* carrying the provenance a
cross-commit comparison needs::

    {
      "schema": "repro-bench/1",
      "bench": "compile",            # compile | batch | suite | e2e | ...
      "host": "runner-3",
      "git_sha": "3f4dab3...",
      "timestamp": 1754640000.0,
      "payload": { ... the benchmark's own report ... }
    }

Provenance defaults come from the environment (``BENCH_HOST``,
``BENCH_GIT_SHA``, ``BENCH_TIMESTAMP``) so CI can pin them, and fall
back to the hostname / ``git rev-parse HEAD`` / current time.

Two subcommands close the performance loop::

    python benchmarks/bench_history.py record   # append current BENCH
                                                # artefacts to history
    python benchmarks/bench_history.py check    # regression gate

``record`` appends one envelope per present artefact to
``BENCH_HISTORY.jsonl`` (append-only, one JSON object per line).
``check`` compares the *current* artefacts against a baseline derived
from the recorded history: for each tracked metric the baseline is the
median of the last ``--window`` history entries.  The gate fails when a
higher-is-better metric drops more than ``--threshold`` (fractional)
below that baseline, or a lower-is-better one rises more than its bound
above it.  Higher is better for:

* ``compile.min_speedup``      — worst-case shared/unshared speedup
                                 across the ``BENCH_compile.json`` cases
* ``batch.throughput``         — points / pool wall seconds
* ``batch.warm_cache_hit_rate``— warm-rerun store hit rate
* ``serve.throughput``         — daemon sustained warm requests / second
* ``kernels.speedup``          — best whole-resource vectorized speedup
                                 from ``BENCH_kernels.json``
* ``incremental.reuse_rate``   — dirty-set sweep task reuse rate
* ``soak.samples_per_sec``     — burn-in campaign sample throughput
                                 from ``BENCH_soak.json``

The repository benchmark's end-to-end metrics are read from
``BENCH_e2e.json`` — the document
``python3 benchmarks/e2e/run.py --out BENCH_e2e.json`` writes (a
``--smoke`` document carries no tracked values).  ``BENCHMARK.json``
names them: one ``e2e.<workload>.<metric>`` per workload and
``end_to_end`` entry it declares (``setup_s``, ``input_p10_ms`` and
``peak_rss_mb``, all lower-is-better), each gated at that entry's
``bound`` instead of ``--threshold``.

``check`` also prints each workload's three largest traced
``*.self_ms`` layers from that document, ungated.

With no history yet (first run on a branch) ``check`` passes with a
note unless ``--require-baseline`` is given — so the gate can be wired
into CI before a baseline exists.  Legacy un-enveloped artefacts are
tolerated everywhere: readers unwrap when a ``schema`` field is
present and treat the whole document as the payload otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

SCHEMA = "repro-bench/1"

HISTORY_NAME = "BENCH_HISTORY.jsonl"

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Artefact file per bench name.
ARTIFACTS = {
    "compile": "BENCH_compile.json",
    "batch": "BENCH_batch.json",
    "suite": "BENCH_suite.json",
    "serve": "BENCH_serve.json",
    "kernels": "BENCH_kernels.json",
    "soak": "BENCH_soak.json",
    "e2e": "BENCH_e2e.json",
}

#: The repository benchmark: its workloads and end-to-end metrics.
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(
    encoding="utf-8"))

DEFAULT_WINDOW = 5
DEFAULT_THRESHOLD = 0.25

BENCH_OUT_DIR = Path(os.environ.get("BENCH_OUT_DIR", REPO_ROOT))


# --------------------------------------------------------------------------
# envelopes


def _default_host() -> str:
    env = os.environ.get("BENCH_HOST")
    if env:
        return env
    try:
        return socket.gethostname()
    except OSError:  # pragma: no cover - no hostname available
        return "unknown"


def _default_git_sha() -> str:
    env = os.environ.get("BENCH_GIT_SHA")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _default_timestamp() -> float:
    env = os.environ.get("BENCH_TIMESTAMP")
    if env:
        try:
            return float(env)
        except ValueError:
            pass
    return time.time()


def envelope(payload: Dict[str, Any], bench: str, *,
             host: Optional[str] = None,
             git_sha: Optional[str] = None,
             timestamp: Optional[float] = None) -> Dict[str, Any]:
    """Wrap a benchmark *payload* in the versioned provenance envelope."""
    return {
        "schema": SCHEMA,
        "bench": bench,
        "host": host if host is not None else _default_host(),
        "git_sha": git_sha if git_sha is not None else _default_git_sha(),
        "timestamp": (timestamp if timestamp is not None
                      else _default_timestamp()),
        "payload": payload,
    }


def unwrap(data: Any) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Return ``(payload, meta)`` from an enveloped **or** legacy flat
    document.  Legacy documents yield empty meta."""
    if (isinstance(data, dict) and "payload" in data
            and str(data.get("schema", "")).startswith("repro-bench/")):
        meta = {k: v for k, v in data.items() if k != "payload"}
        payload = data["payload"]
        return (payload if isinstance(payload, dict) else {}, meta)
    return (data if isinstance(data, dict) else {}, {})


def load_artifact(path: Path) -> Optional[Dict[str, Any]]:
    """Payload of a BENCH artefact on disk, or None when absent/bad."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    payload, _ = unwrap(data)
    return payload or None


# --------------------------------------------------------------------------
# tracked metrics


def _metric_compile_min_speedup(payload: Dict[str, Any]) -> Optional[float]:
    cases = payload.get("cases")
    if not isinstance(cases, dict) or not cases:
        return None
    speedups = [row.get("speedup") for row in cases.values()
                if isinstance(row, dict)
                and isinstance(row.get("speedup"), (int, float))]
    return min(speedups) if speedups else None


def _metric_batch_throughput(payload: Dict[str, Any]) -> Optional[float]:
    points = payload.get("points")
    wall = payload.get("pool_wall_seconds")
    if (isinstance(points, (int, float)) and points
            and isinstance(wall, (int, float)) and wall > 0):
        return points / wall
    return None


def _metric_warm_hit_rate(payload: Dict[str, Any]) -> Optional[float]:
    rate = payload.get("warm_cache_hit_rate")
    return float(rate) if isinstance(rate, (int, float)) else None


def _metric_serve_throughput(payload: Dict[str, Any]) -> Optional[float]:
    rps = payload.get("sustained_rps")
    if isinstance(rps, (int, float)) and rps > 0:
        return float(rps)
    return None


def _metric_kernels_speedup(payload: Dict[str, Any]) -> Optional[float]:
    summary = payload.get("summary")
    if not isinstance(summary, dict):
        return None
    best = summary.get("best_local_speedup")
    return float(best) if isinstance(best, (int, float)) else None


def _metric_soak_throughput(payload: Dict[str, Any]) -> Optional[float]:
    rate = payload.get("samples_per_sec")
    if isinstance(rate, (int, float)) and rate > 0:
        return float(rate)
    return None


def _metric_incremental_reuse(payload: Dict[str, Any]) -> Optional[float]:
    summary = payload.get("summary")
    if not isinstance(summary, dict):
        return None
    rate = summary.get("incremental_reuse_rate")
    return float(rate) if isinstance(rate, (int, float)) else None


def _e2e_results(payload: Dict[str, Any], traced: bool
                 ) -> Dict[str, Dict[str, Any]]:
    """workload -> metrics of the untraced (or traced) runs of an e2e
    document; empty for a ``--smoke`` document."""
    results = payload.get("results")
    if payload.get("smoke") or not isinstance(results, list):
        return {}
    return {r["workload"]: r.get("metrics") or {} for r in results
            if isinstance(r, dict) and "workload" in r
            and bool(r.get("trace")) == traced}


def _value(entry: Any) -> Optional[float]:
    """A metric value as run.py writes it: ``{"value": v, "unit": u}``."""
    value = entry.get("value") if isinstance(entry, dict) else None
    return float(value) if isinstance(value, (int, float)) else None


def _metric_e2e(workload: str, name: str
                ) -> Callable[[Dict[str, Any]], Optional[float]]:
    def extract(payload: Dict[str, Any]) -> Optional[float]:
        metrics = _e2e_results(payload, traced=False).get(workload, {})
        return _value(metrics.get(name))
    return extract


def top_layers(payload: Dict[str, Any], count: int = 3
               ) -> Dict[str, List[Tuple[str, float]]]:
    """workload -> its *count* largest traced ``*.self_ms`` layers."""
    out = {}
    for workload, metrics in _e2e_results(payload, traced=True).items():
        layers = [(name, _value(entry)) for name, entry in metrics.items()
                  if name.endswith(".self_ms")]
        out[workload] = sorted((layer for layer in layers
                                if layer[1] is not None),
                               key=lambda layer: -layer[1])[:count]
    return out


class Metric(NamedTuple):
    bench: str
    extract: Callable[[Dict[str, Any]], Optional[float]]
    better: str = "higher"
    #: Allowed fractional move against ``better``; None: ``--threshold``.
    bound: Optional[float] = None


def e2e_metrics(benchmark: Dict[str, Any]) -> Dict[str, Metric]:
    """``e2e.<workload>.<metric>`` for every workload and end-to-end
    metric a ``BENCHMARK.json`` document declares, with its direction
    and bound."""
    return {f"e2e.{w['name']}.{m['name']}":
            Metric("e2e", _metric_e2e(w["name"], m["name"]), m["better"],
                   float(m["bound"]))
            for w in benchmark["workloads"] for m in benchmark["end_to_end"]}


#: name -> (bench artefact it reads, extractor, "higher" | "lower",
#: bound or None).
TRACKED_METRICS: Dict[str, Metric] = {
    "compile.min_speedup": Metric("compile", _metric_compile_min_speedup),
    "batch.throughput": Metric("batch", _metric_batch_throughput),
    "batch.warm_cache_hit_rate": Metric("batch", _metric_warm_hit_rate),
    "serve.throughput": Metric("serve", _metric_serve_throughput),
    "kernels.speedup": Metric("kernels", _metric_kernels_speedup),
    "incremental.reuse_rate": Metric("kernels", _metric_incremental_reuse),
    "soak.samples_per_sec": Metric("soak", _metric_soak_throughput),
}
TRACKED_METRICS.update(e2e_metrics(BENCHMARK))


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def load_history(path: Path) -> List[Dict[str, Any]]:
    """All well-formed envelopes from a history file, oldest first."""
    entries: List[Dict[str, Any]] = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return entries
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except ValueError:
            continue
        if isinstance(data, dict) and data.get("bench") in ARTIFACTS:
            entries.append(data)
    return entries


def baseline_for(metric: str, history: List[Dict[str, Any]],
                 window: int = DEFAULT_WINDOW) -> Optional[float]:
    """Median of the metric over the last *window* history entries that
    carry it, or None when the history has no usable sample."""
    bench, extract = TRACKED_METRICS[metric][:2]
    samples: List[float] = []
    for entry in reversed(history):
        if entry.get("bench") != bench:
            continue
        payload, _ = unwrap(entry)
        value = extract(payload)
        if value is not None:
            samples.append(value)
        if len(samples) >= window:
            break
    return _median(samples) if samples else None


# --------------------------------------------------------------------------
# subcommands


def cmd_record(args) -> int:
    out_dir = Path(args.dir)
    history_path = out_dir / HISTORY_NAME
    recorded = 0
    with open(history_path, "a", encoding="utf-8") as fh:
        for bench, name in sorted(ARTIFACTS.items()):
            payload = load_artifact(out_dir / name)
            if payload is None:
                continue
            fh.write(json.dumps(envelope(payload, bench),
                                sort_keys=True) + "\n")
            recorded += 1
    print(f"recorded {recorded} artefact(s) into {history_path}")
    if recorded == 0:
        print("note: no BENCH_*.json artefacts found "
              f"in {out_dir}", file=sys.stderr)
    return 0


def cmd_check(args) -> int:
    out_dir = Path(args.dir)
    history = load_history(out_dir / HISTORY_NAME)
    if args.skip_last and history:
        # The artefacts under check were already recorded as the final
        # history entries (record-then-check CI order): drop the newest
        # entry per bench so the baseline reflects *prior* runs only.
        seen = set()
        trimmed = []
        for entry in reversed(history):
            bench = entry.get("bench")
            if bench not in seen:
                seen.add(bench)
                continue
            trimmed.append(entry)
        history = list(reversed(trimmed))

    failures: List[str] = []
    missing_baseline: List[str] = []
    for metric, (bench, extract, better, bound) in sorted(
            TRACKED_METRICS.items()):
        payload = load_artifact(out_dir / ARTIFACTS[bench])
        if payload is None:
            print(f"{metric:>34}: no current {ARTIFACTS[bench]}; skipped")
            continue
        current = extract(payload)
        if current is None:
            print(f"{metric:>34}: not present in current artefact; skipped")
            continue
        baseline = baseline_for(metric, history, window=args.window)
        if baseline is None:
            missing_baseline.append(metric)
            print(f"{metric:>34}: {current:10.4f}  (no baseline yet)")
            continue
        threshold = args.threshold if bound is None else bound
        if better == "lower":
            label, limit = "ceiling", baseline * (1.0 + threshold)
            regressed, sign = current > limit, ">"
        else:
            label, limit = "floor", baseline * (1.0 - threshold)
            regressed, sign = current < limit, "<"
        verdict = "REGRESSION" if regressed else "ok"
        print(f"{metric:>34}: {current:10.4f}  baseline {baseline:10.4f}"
              f"  {label} {limit:10.4f}  {verdict}")
        if regressed:
            failures.append(
                f"{metric}: {current:.4f} {sign} {limit:.4f} "
                f"(baseline {baseline:.4f}, threshold {threshold:.0%})")

    e2e = load_artifact(out_dir / ARTIFACTS["e2e"])
    for workload, layers in sorted(top_layers(e2e or {}).items()):
        shown = ", ".join(f"{name} {value:.3g} ms" for name, value in layers)
        print(f"e2e.{workload} top layers (not gated): {shown}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if missing_baseline and args.require_baseline:
        print(f"FAIL: no baseline for {', '.join(missing_baseline)} "
              "and --require-baseline given", file=sys.stderr)
        return 1
    if missing_baseline:
        print("note: no baseline yet for "
              f"{', '.join(missing_baseline)}; gate passes vacuously")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_history.py",
        description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dir", default=str(BENCH_OUT_DIR),
        help="directory holding BENCH_*.json and BENCH_HISTORY.jsonl "
             "(default: BENCH_OUT_DIR or the repo root)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "record",
        help="append the current BENCH artefacts to the history")

    check = sub.add_parser(
        "check", help="fail when a tracked metric regresses vs history")
    check.add_argument(
        "--window", type=int, default=DEFAULT_WINDOW, metavar="N",
        help=f"history entries per metric to median over "
             f"(default {DEFAULT_WINDOW})")
    check.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        metavar="FRACTION",
        help=f"allowed fractional move against the metric's direction "
             f"for metrics without a BENCHMARK.json bound "
             f"(default {DEFAULT_THRESHOLD})")
    check.add_argument(
        "--require-baseline", action="store_true",
        help="fail when a tracked metric has no recorded baseline")
    check.add_argument(
        "--skip-last", action="store_true",
        help="exclude the newest history entry per bench from the "
             "baseline (record-then-check CI order)")

    args = parser.parse_args(argv)
    if args.command == "record":
        return cmd_record(args)
    return cmd_check(args)


if __name__ == "__main__":
    raise SystemExit(main())
