"""End-to-end benchmark of chain sharing.

Times ``analyze_system`` with sharing off (``compile.enabled = False``:
every global iteration evaluates freshly built chains) against sharing
on (``repro.eventmodels.compile``: chains interned by fingerprint, each
analysis starting from ``compile.cache().clear()``) on

* the paper's RoX08 gateway case study (flat and hierarchical variants),
* a synthetic wide-fanout COM-layer space (``repro.examples_lib.synth``)
  at three sizes,

verifies that both modes produce **bit-identical** analysis results
(response times, utilizations, iteration counts), and records a
``__slots__`` micro-benchmark of the memoised chain classes.

Usage::

    PYTHONPATH=src python benchmarks/bench_compile.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_compile.py --quick  # CI smoke

Emits ``BENCH_compile.json`` into the repository root (override with
``BENCH_OUT_DIR``).  Exit status is non-zero when the shared mode is
slower than unshared on the RoX08 case or when any case diverges between
the two modes — the CI smoke job runs ``--quick`` as a regression gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_history import envelope  # noqa: E402
from repro import obs  # noqa: E402
from repro.eventmodels import compile as emc  # noqa: E402
from repro.eventmodels.operations import (  # noqa: E402
    TaskOutputModel,
    _PairwiseOrJoin,
)
from repro.eventmodels.standard import StandardEventModel  # noqa: E402
from repro.examples_lib.rox08 import build_system as build_rox08  # noqa: E402
from repro.examples_lib.synth import synth_system  # noqa: E402
from repro.system.propagation import analyze_system  # noqa: E402

BENCH_OUT_DIR = Path(os.environ.get(
    "BENCH_OUT_DIR", Path(__file__).resolve().parent.parent))

#: Synthetic wide-fanout sizes: (signals, frames, base_period).  The base
#: period scales with size to keep CAN utilization below 1 (the default
#: 800 overloads the bus beyond ~20 one-byte signals).
SYNTH_SIZES = [(16, 2, 800.0), (24, 3, 1400.0), (32, 4, 2000.0)]
SYNTH_SIZES_QUICK = [(16, 2, 800.0)]


def result_key(result) -> dict:
    """Canonical, comparable digest of a SystemResult."""
    return {
        "iterations": result.iterations,
        "resources": {
            rn: {
                "utilization": rr.utilization,
                "tasks": {tn: (tr.r_min, tr.r_max)
                          for tn, tr in sorted(rr.task_results.items())},
            }
            for rn, rr in sorted(result.resource_results.items())
        },
    }


def time_case(build, repeats: int):
    """Best-of-``repeats`` wall time for unshared and shared runs plus
    the result digests and fingerprint-cache statistics."""
    unshared_times, shared_times = [], []
    unshared_key = shared_key = None
    cache_stats = {}
    try:
        for _ in range(repeats):
            emc.enabled = False
            system = build()
            t0 = time.perf_counter()
            unshared_key = result_key(analyze_system(system))
            unshared_times.append(time.perf_counter() - t0)

            emc.enabled = True
            emc.cache().clear()
            system = build()
            t0 = time.perf_counter()
            shared_key = result_key(analyze_system(system))
            shared_times.append(time.perf_counter() - t0)
            cache_stats = emc.cache().stats()
    finally:
        emc.enabled = True
    return {
        "unshared_seconds": min(unshared_times),
        "shared_seconds": min(shared_times),
        "speedup": min(unshared_times) / min(shared_times),
        "identical": unshared_key == shared_key,
        "iterations": unshared_key["iterations"],
        "compile_cache": cache_stats,
    }


def slots_microbench(n: int = 50_000) -> dict:
    """Instance-construction micro-benchmark for the ``__slots__``-ed
    memoised chain classes (Θ_τ and the pairwise OR-join), which every
    global iteration builds.  ``__slots__`` removes the per-instance
    ``__dict__``; the interesting numbers are construction rate and the
    confirmation that no ``__dict__`` exists to pay for."""
    src = StandardEventModel(period=10.0, jitter=4.0)

    def build_many():
        t0 = time.perf_counter()
        for _ in range(n):
            _PairwiseOrJoin(TaskOutputModel(src, 1.0, 3.0), src)
        return time.perf_counter() - t0

    build_many()  # warm-up
    seconds = build_many()
    sample = _PairwiseOrJoin(TaskOutputModel(src, 1.0, 3.0), src)
    return {
        "instances": 2 * n,
        "seconds": seconds,
        "instances_per_second": 2 * n / seconds,
        "has_dict": {
            "TaskOutputModel": hasattr(sample._a, "__dict__"),
            "_PairwiseOrJoin": hasattr(sample, "__dict__"),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: rox08 + smallest synth size, "
                             "single repeat")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per case (best-of)")
    args = parser.parse_args(argv)

    repeats = args.repeats or (1 if args.quick else 3)
    sizes = SYNTH_SIZES_QUICK if args.quick else SYNTH_SIZES

    obs.configure(enabled=True, reset=True)
    report = {"quick": args.quick, "repeats": repeats, "cases": {}}
    failures = []

    for variant in ("flat", "hem"):
        case = f"rox08_{variant}"
        report["cases"][case] = time_case(
            lambda v=variant: build_rox08(v), repeats)

    for n_signals, n_frames, base_period in sizes:
        case = f"synth_{n_signals}x{n_frames}"
        report["cases"][case] = time_case(
            lambda n=n_signals, f=n_frames, bp=base_period:
                synth_system(n, f, base_period=bp),
            repeats)

    report["slots_microbench"] = slots_microbench()
    snap = obs.metrics().snapshot()
    report["compile_metrics"] = {
        k: v for k, v in sorted(snap.get("counters", {}).items())
        if k.startswith("compile.")}

    for case, row in report["cases"].items():
        flag = "" if row["identical"] else "  RESULTS DIVERGE"
        print(f"{case:>16}: unshared {row['unshared_seconds']:7.3f}s   "
              f"shared {row['shared_seconds']:7.3f}s   "
              f"speedup {row['speedup']:7.1f}x{flag}")
        if not row["identical"]:
            failures.append(f"{case}: unshared and shared results differ")
    mb = report["slots_microbench"]
    print(f"  slots microbench: {mb['instances']} instances in "
          f"{mb['seconds']:.3f}s ({mb['instances_per_second']:,.0f}/s), "
          f"__dict__ present: {mb['has_dict']}")

    # Regression gate: shared must not be slower than unshared on rox08.
    for variant in ("flat", "hem"):
        row = report["cases"][f"rox08_{variant}"]
        if row["shared_seconds"] > row["unshared_seconds"]:
            failures.append(
                f"rox08_{variant}: shared ({row['shared_seconds']:.3f}s)"
                f" slower than unshared ({row['unshared_seconds']:.3f}s)")

    report["failures"] = failures
    BENCH_OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = BENCH_OUT_DIR / "BENCH_compile.json"
    out.write_text(json.dumps(envelope(report, "compile"),
                              indent=2, sort_keys=True))
    print(f"wrote {out}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
