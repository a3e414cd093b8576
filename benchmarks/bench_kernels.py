"""Benchmark of the vectorized busy-window kernels + incremental memo.

Three case families, each verifying **bit-identical** results before
reporting a speedup:

* **local** — whole-resource ``scheduler.analyze`` on synthetic
  high-utilization SPP and EDF task sets (one EDF set activated by
  Θ_τ output streams, whose η⁺ is a table search), scalar loops vs the
  numpy kernels (reported as unavailable when numpy is not installed);
* **e2e** — ``analyze_system`` end-to-end on the RoX08 gateway (flat and
  hierarchical) and the synthetic COM-layer space, scalar vs vectorized;
* **incremental** — a single-axis WCET sweep over a two-resource system
  where only a small leaf resource changes per point: from-scratch
  analysis per point vs a shared :class:`repro.analysis.memo.AnalysisMemo`
  (dirty-set re-analysis), reporting the end-to-end sweep speedup and
  the task-level reuse rate.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick  # CI smoke

Emits ``BENCH_kernels.json`` into the repository root (override with
``BENCH_OUT_DIR``).  Exit status is non-zero when any case diverges
from the scalar reference, when the numpy kernels are slower than
scalar on the EDF gate case, or when the incremental sweep fails to
beat from-scratch.  The scalar reference is reached by hiding numpy
from :mod:`repro.analysis.kernels` for the timed call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_history import envelope  # noqa: E402
from repro import obs  # noqa: E402
from repro.analysis import kernels  # noqa: E402
from repro.analysis.edf import EDFScheduler  # noqa: E402
from repro.analysis.interface import TaskSpec  # noqa: E402
from repro.analysis.memo import AnalysisMemo  # noqa: E402
from repro.analysis.spp import SPPScheduler  # noqa: E402
from repro.eventmodels.operations import TaskOutputModel  # noqa: E402
from repro.eventmodels.standard import StandardEventModel  # noqa: E402
from repro.examples_lib.rox08 import build_system as build_rox08  # noqa: E402
from repro.examples_lib.synth import synth_system  # noqa: E402
from repro.system.model import System  # noqa: E402
from repro.system.propagation import analyze_system  # noqa: E402

BENCH_OUT_DIR = Path(os.environ.get(
    "BENCH_OUT_DIR", Path(__file__).resolve().parent.parent))

#: Synthetic end-to-end sizes, mirroring bench_compile.
SYNTH_SIZES = [(16, 2, 800.0), (24, 3, 1400.0), (32, 4, 2000.0)]
SYNTH_SIZES_QUICK = [(16, 2, 800.0)]

#: Local whole-resource cases: (case name, policy, n tasks, streams).
#: High utilization (0.85) keeps busy windows spanning many activations —
#: the regime the kernels are built for.  ``theta`` streams are Θ_τ
#: outputs of the standard ones, so their η⁺ columns are table-kind (a
#: search over δ⁻).  The last ``edf`` case is the speed gate.
LOCAL_CASES = [("spp_24", "spp", 24, "standard"),
               ("spp_48", "spp", 48, "standard"),
               ("edf_theta_16", "edf", 16, "theta"),
               ("edf_16", "edf", 16, "standard"),
               ("edf_24", "edf", 24, "standard")]
LOCAL_CASES_QUICK = [("spp_24", "spp", 24, "standard"),
                     ("edf_theta_12", "edf", 12, "theta"),
                     ("edf_12", "edf", 12, "standard")]

#: Total utilization of the synthetic local task sets.
UTILIZATION = 0.85

#: Leaf-task WCET scale factors for the incremental sweep.
SWEEP_FACTORS = [1.0, 1.03, 1.06, 1.09, 1.12, 1.15, 1.18, 1.21]
SWEEP_FACTORS_QUICK = SWEEP_FACTORS[:4]


def make_local_tasks(n: int, policy: str, streams: str = "standard"):
    """``n`` jittery periodic tasks at ~85% total utilization; with
    ``streams="theta"`` each is activated by the Θ_τ output of its
    standard stream instead."""
    tasks = []
    share = UTILIZATION / n
    for i in range(n):
        period = 100.0 * (i + 3) + 7.0 * (i % 5)
        em = StandardEventModel(period=period, jitter=period * 0.4,
                                d_min=1.0 + 0.1 * i)
        if streams == "theta":
            em = TaskOutputModel(em, 0.1 * period, 0.3 * period)
        cmax = share * period
        kw = (dict(deadline=period * 2.0) if policy == "edf"
              else dict(priority=i + 1))
        tasks.append(TaskSpec(name=f"t{i}", event_model=em,
                              c_min=cmax * 0.6, c_max=cmax, **kw))
    return tasks


def resource_digest(rr) -> dict:
    return {name: (tr.r_min, tr.r_max, tr.q_max, tuple(tr.busy_times))
            for name, tr in sorted(rr.task_results.items())}


def system_digest(result) -> dict:
    return {
        "iterations": result.iterations,
        "resources": {rn: resource_digest(rr)
                      for rn, rr in sorted(result.resource_results.items())},
        "paths": dict(sorted(result.path_latencies.items())),
    }


def best_of(fn, repeats: int):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


@contextmanager
def scalar_only():
    """Run every analysis on the scalar loops, as without numpy."""
    saved = kernels._np
    kernels._np = None
    try:
        yield
    finally:
        kernels._np = saved


def time_local_case(policy: str, n: int, streams: str,
                    repeats: int) -> dict:
    scheduler = SPPScheduler() if policy == "spp" else EDFScheduler()
    tasks = make_local_tasks(n, policy, streams)

    def run():
        return resource_digest(scheduler.analyze(tasks, "bench"))

    with scalar_only():
        t_scalar, d_scalar = best_of(run, repeats)
    t_np, d_np = best_of(run, repeats)
    return {"policy": policy, "tasks": n, "streams": streams,
            "scalar_seconds": t_scalar,
            "numpy_seconds": t_np, "numpy_speedup": t_scalar / t_np,
            "identical": d_np == d_scalar}


def time_e2e_case(build, repeats: int) -> dict:
    def run():
        return system_digest(analyze_system(build()))

    with scalar_only():
        t_scalar, d_scalar = best_of(run, repeats)
    t_vec, d_vec = best_of(run, repeats)
    return {"scalar_seconds": t_scalar, "vectorized_seconds": t_vec,
            "backend": "numpy" if kernels._np is not None else "scalar",
            "speedup": t_scalar / t_vec,
            "identical": d_vec == d_scalar}


# ----------------------------------------------------------------------
# incremental sweep case
# ----------------------------------------------------------------------
def build_sweep_system(leaf_wcet_scale: float = 1.0,
                       n_big: int = 40) -> System:
    """A hot SPP resource feeding a small leaf resource.

    The sweep scales only the leaf tasks' WCETs, so the expensive BIG
    resource (40 tasks at 95% utilization — long busy windows) sees
    unchanged inputs at every point — exactly the shape dirty-set
    re-analysis exploits (and the common one: tuning one component of a
    larger system).
    """
    system = System("kernel-sweep")
    share = 0.95 / n_big
    for i in range(n_big):
        period = 100.0 * (i + 3) + 7.0 * (i % 5)
        system.add_source(f"S{i}", StandardEventModel(
            period=period, jitter=period * 0.5, d_min=1.0 + 0.1 * i))
    system.add_resource("BIG", SPPScheduler())
    for i in range(n_big):
        period = 100.0 * (i + 3) + 7.0 * (i % 5)
        cmax = share * period
        system.add_task(f"B{i}", "BIG", (cmax * 0.6, cmax), [f"S{i}"],
                        priority=i + 1)
    system.add_resource("LEAF", SPPScheduler())
    for i in range(3):
        cmax = 40.0 * leaf_wcet_scale
        system.add_task(f"L{i}", "LEAF", (cmax * 0.5, cmax), [f"B{i}"],
                        priority=i + 1)
    return system


def time_incremental_sweep(factors, repeats: int) -> dict:
    def cold():
        return [system_digest(analyze_system(build_sweep_system(f)))
                for f in factors]

    def warm():
        memo = AnalysisMemo()
        digests = [system_digest(analyze_system(build_sweep_system(f),
                                                memo=memo))
                   for f in factors]
        return digests, memo.stats()

    t_cold, d_cold = best_of(cold, repeats)
    t_warm, (d_warm, stats) = best_of(warm, repeats)
    return {
        "points": len(factors),
        "cold_seconds": t_cold,
        "incremental_seconds": t_warm,
        "speedup": t_cold / t_warm,
        "identical": d_warm == d_cold,
        "reuse_rate": stats["reuse_rate"],
        "task_reuses": stats["task_reuses"],
        "tasks_total": stats["tasks_total"],
        "resource_hits": stats["resource_hits"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: smaller cases, single repeat")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per case (best-of)")
    args = parser.parse_args(argv)

    # Best-of needs a couple of repeats even in quick mode: a single
    # repeat times the scalar baseline against cold model/chain
    # caches, which flatters (or on tiny cases penalizes) whichever
    # configuration happens to run second.
    repeats = args.repeats or (2 if args.quick else 5)
    local_cases = LOCAL_CASES_QUICK if args.quick else LOCAL_CASES
    sizes = SYNTH_SIZES_QUICK if args.quick else SYNTH_SIZES
    factors = SWEEP_FACTORS_QUICK if args.quick else SWEEP_FACTORS

    obs.configure(enabled=True, reset=True)
    numpy_available = kernels._np is not None
    report = {"quick": args.quick, "repeats": repeats,
              "numpy_available": numpy_available,
              "local": {}, "e2e": {}, "incremental": None}
    failures = []

    if not numpy_available:
        # The batched kernels need numpy; without it every analysis runs
        # the scalar loops and there is nothing to compare them with.
        report["local"] = "unavailable: numpy is not installed"
        print("local: unavailable (numpy is not installed, so nothing "
              "batches; install the [fast] extra)")
        local_cases = []
    for case, policy, n, streams in local_cases:
        row = time_local_case(policy, n, streams, repeats)
        report["local"][case] = row
        flag = "" if row["identical"] else "  RESULTS DIVERGE"
        print(f"local {case:>8}: scalar {row['scalar_seconds']:7.3f}s   "
              f"numpy {row['numpy_speedup']:5.2f}x{flag}")
        if not row["identical"]:
            failures.append(f"local {case}: vectorized diverges from scalar")

    for variant in ("flat", "hem"):
        case = f"rox08_{variant}"
        report["e2e"][case] = time_e2e_case(
            lambda v=variant: build_rox08(v), repeats)
    for n_signals, n_frames, base_period in sizes:
        case = f"synth_{n_signals}x{n_frames}"
        report["e2e"][case] = time_e2e_case(
            lambda n=n_signals, f=n_frames, bp=base_period:
                synth_system(n, f, base_period=bp),
            repeats)
    for case, row in report["e2e"].items():
        flag = "" if row["identical"] else "  RESULTS DIVERGE"
        print(f"e2e   {case:>12}: scalar {row['scalar_seconds']:7.3f}s   "
              f"vectorized[{row['backend']}] {row['speedup']:5.2f}x{flag}")
        if not row["identical"]:
            failures.append(f"e2e {case}: vectorized diverges from scalar")

    inc = time_incremental_sweep(factors, repeats)
    report["incremental"] = inc
    flag = "" if inc["identical"] else "  RESULTS DIVERGE"
    print(f"incremental sweep ({inc['points']} points): "
          f"cold {inc['cold_seconds']:7.3f}s   "
          f"incremental {inc['incremental_seconds']:7.3f}s   "
          f"{inc['speedup']:5.2f}x   "
          f"reuse {inc['reuse_rate']:.0%}{flag}")
    if not inc["identical"]:
        failures.append("incremental sweep diverges from from-scratch")

    # ------------------------------------------------------------------
    # regression gates
    # ------------------------------------------------------------------
    # The numpy kernels must not lose to scalar on the gate case (the
    # large EDF case is the most numpy-friendly and noise-robust).
    speedups = []
    if numpy_available:
        gate_case = next(c for c, _, _, _ in reversed(local_cases)
                         if c.startswith("edf"))
        gate_speedup = report["local"][gate_case]["numpy_speedup"]
        if gate_speedup < 1.0:
            failures.append(
                f"local {gate_case}: numpy kernels slower than scalar "
                f"({gate_speedup:.2f}x)")
        speedups = [r["numpy_speedup"] for r in report["local"].values()]
    if inc["speedup"] < (1.5 if args.quick else 2.0):
        failures.append(
            f"incremental sweep speedup {inc['speedup']:.2f}x below gate")

    report["summary"] = {
        "best_local_speedup": max(speedups, default=None),
        "min_local_numpy_speedup": min(speedups, default=None),
        "incremental_speedup": inc["speedup"],
        "incremental_reuse_rate": inc["reuse_rate"],
    }
    report["kernel_stats"] = kernels.stats()

    report["failures"] = failures
    BENCH_OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = BENCH_OUT_DIR / "BENCH_kernels.json"
    out.write_text(json.dumps(envelope(report, "kernels"),
                              indent=2, sort_keys=True))
    print(f"wrote {out}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
