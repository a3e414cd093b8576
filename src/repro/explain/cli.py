"""``python -m repro explain`` — explain a built-in example's results.

Analyses the example, explains the converged result and prints, for
every task (or one ``--task``), the WCRT blame table, the per-term
breakdown, and the activation-model lineage.  For ``rox08`` both paper
variants are analysed and the flat-vs-HEM WCRT delta is attributed to
the receiver-side activation counts::

    python -m repro explain rox08
    python -m repro explain rox08 --task T3 --dot lineage.dot
    python -m repro explain body_gateway --chrome trace.json

``--dot`` writes the lineage DAG as Graphviz DOT; ``--chrome`` turns
telemetry on for the explained run alone and writes its span trace in
Chrome trace-event format (open in https://ui.perfetto.dev or
``chrome://tracing``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Sequence

from ..system.model import System

#: Built-in explainable examples: name -> zero-arg System factory.
#: ``rox08`` is special-cased to also show the flat-variant delta.
EXAMPLES: Dict[str, Callable[[], System]] = {}


def _register_examples() -> None:
    if EXAMPLES:
        return
    from ..examples_lib import body_gateway, rox08
    EXAMPLES["rox08"] = lambda: rox08.build_system("hem")
    EXAMPLES["rox08-flat"] = lambda: rox08.build_system("flat")
    EXAMPLES["body_gateway"] = body_gateway.build


def explain_main(argv: Optional[Sequence[str]] = None) -> int:
    _register_examples()
    parser = argparse.ArgumentParser(
        prog="python -m repro explain",
        description="Explain an example's analysis results: WCRT blame "
                    "attribution and event-model lineage.")
    parser.add_argument(
        "example", choices=sorted(EXAMPLES),
        help="built-in example system to explain")
    parser.add_argument(
        "--task", default=None,
        help="only explain this task (default: all analysed tasks)")
    parser.add_argument(
        "--dot", default=None, metavar="PATH",
        help="write the lineage DAG as Graphviz DOT to PATH")
    parser.add_argument(
        "--chrome", default=None, metavar="PATH",
        help="write the run's span trace in Chrome trace-event format "
             "(load in Perfetto or chrome://tracing)")
    args = parser.parse_args(argv)

    from .. import obs as _obs
    from .engine import explain_system

    # The Chrome export covers exactly the explained run's spans: it is
    # written before the rox08 flat baseline below runs.
    was_enabled = _obs.enabled
    if args.chrome:
        _obs.configure(enabled=True, reset=True)
    try:
        ex = explain_system(EXAMPLES[args.example]())
        if args.chrome:
            from ..obs.export import tracer_to_chrome
            trace = tracer_to_chrome(_obs.get_tracer(), args.chrome)
    finally:
        _obs.configure(enabled=was_enabled)

    print(f"=== {ex.system_name}: converged in "
          f"{ex.result.iterations} iterations ===\n")
    print(ex.render_blame_table())

    if args.task is not None and args.task not in ex.blames:
        print(f"error: no such task: {args.task} "
              f"(known: {', '.join(sorted(ex.blames))})", file=sys.stderr)
        return 2
    tasks = [args.task] if args.task else sorted(ex.blames)

    for name in tasks:
        print(f"\n--- {name} ---")
        print(ex.render_blame(name))
        port = ex.activation_ports.get(name)
        if port is not None and port in ex.graph:
            print(f"\nactivation-model lineage ({port}):")
            print(ex.render_lineage(name))

    if args.example == "rox08":
        _print_flat_delta(ex, tasks)

    if args.dot:
        dot = ex.lineage_to_dot(args.task) if args.task \
            else ex.lineage_to_dot()
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
        print(f"\nlineage DAG -> {args.dot}")
    if args.chrome:
        print(f"chrome trace: {len(trace['traceEvents'])} events "
              f"-> {args.chrome}")
    return 0


def _print_flat_delta(ex, tasks: Sequence[str]) -> None:
    """Attribute the flat-vs-HEM WCRT gap on the rox08 receiver tasks.

    The flat baseline charges every receiver task one activation per
    *frame* arrival; the HEM variant unpacks per-signal streams, so the
    blame records show directly which interference the hierarchy
    removed.
    """
    from ..examples_lib.rox08 import CPU_TASKS, build_system
    from .engine import explain_system

    flat = explain_system(build_system("flat"))
    rows = []
    for name in sorted(CPU_TASKS):
        hem_b, flat_b = ex.blames.get(name), flat.blames.get(name)
        if hem_b is None or flat_b is None:
            continue
        rows.append((name, flat_b, hem_b))
    if not rows:
        return
    print("\n=== flat baseline vs hierarchical event models ===")
    from ..viz.tables import render_table
    print(render_table(
        ["task", "WCRT flat", "WCRT hem", "delta", "interference flat",
         "interference hem"],
        [[n, f.wcrt, h.wcrt, f.wcrt - h.wcrt, float(f.interference_total),
          float(h.interference_total)] for n, f, h in rows]))
    for name, f, h in rows:
        if name not in tasks:
            continue
        removed = {t.name: t.contribution for t in f.interference}
        for t in h.interference:
            removed[t.name] = removed.get(t.name, 0.0) - t.contribution
        gone = {k: v for k, v in removed.items() if v > 1e-9}
        if gone:
            detail = ", ".join(f"{k} -{v:g}" for k, v in
                               sorted(gone.items()))
            print(f"  {name}: hierarchy removed interference {detail}")
