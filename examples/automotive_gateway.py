#!/usr/bin/env python3
"""The paper's evaluation system end to end (section 6, Fig. 2).

Builds the 4-source / 2-frame / 3-task automotive system from the paper's
Tables 1-3, runs the global compositional analysis twice — once with flat
event streams (standard event models) and once with hierarchical event
models — and prints the Table 3 comparison plus the Figure 4 curves.

Run:  python examples/automotive_gateway.py
"""

from repro.examples_lib.rox08 import (
    CPU_TASKS,
    SOURCES,
    analyze_both_variants,
    build_system,
)
from repro.system import analyze_system
from repro.system.propagation import output_models
from repro.viz import eta_plus_series, render_step_chart, render_table


def main() -> None:
    print("Sources (Table 1):")
    print(render_table(
        ["source", "period", "type"],
        [(n, p, prop.value) for n, (p, prop) in SOURCES.items()]))
    print()

    comparison = analyze_both_variants()
    rows = [(task, flat, hem, f"{red:.1f}%")
            for task, flat, hem, red in comparison.rows()]
    print("Worst-case response times on CPU1 (Table 3):")
    print(render_table(["task", "R+ flat", "R+ HEM", "reduction"], rows))
    print()

    # Figure 4: eta+ of the frame output stream vs the unpacked signals.
    system = build_system("hem")
    result = analyze_system(system)
    frame_out = output_models(system, result, ["F1"])["F1"]

    series = {"F1 frames": eta_plus_series(frame_out.outer, 2000.0, 25.0)}
    for label in frame_out.labels:
        series[f"signal {label}"] = eta_plus_series(
            frame_out.inner(label), 2000.0, 25.0)
    print(render_step_chart(
        series, title="Figure 4: eta+ of F1 output vs unpacked signals"))


if __name__ == "__main__":
    main()
