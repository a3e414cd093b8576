"""``python -m repro trace`` — run a workload instrumented, dump JSONL.

Runs an example script (or the built-in paper system) with
observability enabled and a span-only :class:`JsonlEventSink` attached,
so every span finished during the run lands in the JSONL trace; then
prints the convergence report of any global fixed-point runs and
summarises the headline figures (the chain cache's hits, the busy
windows the local analyses computed, batch jobs)::

    python -m repro trace examples/quickstart.py
    python -m repro trace rox08 --out rox08.trace.jsonl --metrics m.json
"""

from __future__ import annotations

import argparse
import runpy
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import configure, engine_stats, get_bus, get_tracer, metrics
from .export import metrics_to_json, read_jsonl
from .sinks import JsonlEventSink


def _run_builtin_rox08() -> None:
    """Analyse the paper's evaluation system (section 6) end to end."""
    from ..examples_lib.rox08 import build_system
    from ..system import analyze_system

    result = analyze_system(build_system("hem"))
    print(f"rox08 hem variant: converged in {result.iterations} "
          f"iterations")
    for rr in result.resource_results.values():
        for name, task in sorted(rr.task_results.items()):
            print(f"  {name}: r_max = {task.r_max:g}")


def trace_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run an example with tracing enabled and dump the "
                    "span trace as JSONL.")
    parser.add_argument(
        "target",
        help="path to an example script, or 'rox08' for the built-in "
             "paper system")
    parser.add_argument(
        "--out", default=None,
        help="trace output path (default: <target>.trace.jsonl)")
    parser.add_argument(
        "--metrics", dest="metrics_out", default=None,
        help="also write a metrics snapshot JSON to this path")
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the workload's own stdout")
    args = parser.parse_args(argv)

    if args.target == "rox08":
        out_path = args.out or "rox08.trace.jsonl"
        workload = _run_builtin_rox08
    else:
        script = Path(args.target)
        if not script.exists():
            print(f"error: no such example: {script}", file=sys.stderr)
            return 2
        out_path = args.out or f"{script.stem}.trace.jsonl"

        def workload() -> None:
            runpy.run_path(str(script), run_name="__main__")

    configure(enabled=True, reset=True)
    sink = get_bus().subscribe(JsonlEventSink(
        out_path, span_only=True, t0=get_tracer().t0))
    try:
        if args.quiet:
            import contextlib
            import io
            with contextlib.redirect_stdout(io.StringIO()):
                workload()
        else:
            workload()
    finally:
        get_bus().unsubscribe(sink)
        sink.close()
        configure(enabled=False)

    registry = metrics()
    records = read_jsonl(out_path)
    print(f"\n--- trace: {len(records)} spans -> {out_path}")

    from ..viz.convergence import ConvergenceReport
    report = ConvergenceReport.from_records(records)
    if report.rows:
        print(report.render())

    counters = registry.snapshot()["counters"]
    engine = engine_stats()
    hits = engine["compile.cache.hits"]
    misses = engine["compile.cache.misses"]
    if hits + misses:
        print(f"chain cache: {hits} hits / {misses} misses "
              f"({hits / (hits + misses):.1%} hit rate), "
              f"{engine['compile.cache.entries']} chains")
    windows = counters.get("busy_window.windows", 0)
    if windows:
        print(f"busy windows: {windows} computed, "
              f"{counters.get('busy_window.activations', 0)} activations")
    submitted = counters.get("batch.jobs.submitted", 0)
    batch_hits = counters.get("batch.cache.hits", 0)
    if submitted or batch_hits:
        total = batch_hits + counters.get("batch.cache.misses", 0)
        rate = batch_hits / total if total else 0.0
        print(f"batch jobs: {submitted} submitted, "
              f"{counters.get('batch.jobs.completed', 0)} completed, "
              f"{counters.get('batch.jobs.failed', 0)} failed "
              f"({rate:.1%} cache hit rate)")
    if args.metrics_out:
        metrics_to_json(registry, args.metrics_out)
        print(f"metrics snapshot -> {args.metrics_out}")
    return 0
