"""Child process of one run of an in-process workload.

Sets the workload up (imports, seeded inputs, one unmeasured warm-up
pass), prints :data:`common.READY`, measures, checks the outputs outside
the timed windows and prints one :data:`common.REPORT` line.  With
``--setup-only`` it exits after the ready line: the parent spawns such
children to take the median of several set-up times.

Untraced, the window runs ``--seconds``.  Traced, the same time is split
into three equal windows: plain, with ``repro.configure(enabled=True)``
(the price of the program's own telemetry) and with the layer ledger
installed (the per-layer self times; its difference from the plain window
is the ledger's own overhead).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List, Set

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def window(workload, seconds: float, root=nullcontext):
    """Run whole passes over the workload's inputs until ``seconds`` have
    passed.  Returns the passes as ``(samples, seconds)``, a sample being
    ``(input, latency)`` and a failed operation's latency ``inf``.

    Each pass runs on the next of the cores this process may use, in
    turn.  The cores of this host do not run equally fast: two
    corpus-cold processes started at the same moment, one on each core,
    often differed by 1.4x for their whole run, so a run left on one
    core would measure which core the scheduler picked.
    """
    allowed = _cores()
    cores = itertools.cycle(sorted(allowed))
    passes = []
    end = time.perf_counter() + seconds
    try:
        while not passes or time.perf_counter() < end:
            _pin({next(cores)})
            samples: List[common.Sample] = []
            start = time.perf_counter()
            for _ in range(workload.pass_size):
                workload.run_unit(lambda key, x: samples.append((key, x)),
                                  root)
            passes.append((samples, time.perf_counter() - start))
    finally:
        _pin(allowed)
    return passes


def _cores() -> Set[int]:
    if hasattr(os, "sched_getaffinity"):
        return os.sched_getaffinity(0)
    return {0}


def _pin(cores: Set[int]) -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cores)


def p50(passes) -> float:
    return common.median(common.latencies(common.pooled(passes)[0]))


def traced(workload, seconds: float) -> Dict[str, object]:
    import repro

    import ledger as _ledger
    import workloads

    third = seconds / 3.0
    plain = window(workload, third)
    repro.configure(enabled=True, reset=True)
    try:
        with_obs = window(workload, third)
    finally:
        repro.configure(enabled=False, reset=True)

    ledger = _ledger.Ledger()
    totals: Dict[str, float] = {}

    @contextmanager
    def measured():
        """The ledger's root around one operation, and the deltas of the
        program's counters over it (a workload that clears the curve
        cache resets its counters: their value after is the delta)."""
        before = workloads.counters()
        with ledger.root():
            yield
        for key, value in workloads.counters().items():
            if not (workload.clears_curve_cache
                    and key.startswith("compile.")):
                value -= before.get(key, 0)
            totals[key] = totals.get(key, 0) + value

    ledger.install()
    try:
        with_ledger = window(workload, third, measured)
    finally:
        ledger.uninstall()
    ops = sum(len(samples) for samples, _ in with_ledger)
    snapshot = ledger.snapshot()
    metrics = _ledger.per_op(snapshot, ops)
    metrics.update(_ledger.counter_metrics(totals, ops))
    base = p50(plain)
    metrics["obs.overhead_pct"] = (p50(with_obs) / base - 1) * 100
    metrics["trace.overhead_pct"] = (p50(with_ledger) / base - 1) * 100
    attempted = sum(len(samples) for run in (plain, with_obs, with_ledger)
                    for samples, _ in run)
    return {"metrics": metrics, "missing": snapshot["missing"],
            "attempted": attempted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=common.IN_PROCESS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    workload = workloads.IN_PROCESS[args.workload](args.seed,
                                                   Path(args.work))
    workload.warm_up()
    print(common.READY, flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        report = traced(workload, args.seconds)
    else:
        passes = window(workload, args.seconds)
        report = {"passes": passes,
                  "attempted": sum(len(s) for s, _ in passes)}
    # Before the checks: their reference pass fills caches of its own.
    report["peak_rss_mb"] = common.peak_rss_mb()
    expected = common.spec()["expected"].get(args.workload)
    report["problems"] = workload.check(expected)
    report["digest"] = workload.digest
    report["failed"] = workload.failures
    print(common.REPORT + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
