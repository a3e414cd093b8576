"""One-shot reproduction report: ``python -m repro``.

Runs the paper's full evaluation (both analysis variants, Figure 4
curves, simulation validation) and prints a self-contained markdown-ish
report.  This is the "does the reproduction hold on this machine" button.
"""

from __future__ import annotations

import sys

from .can import CanBusTiming
from .eventmodels import trace_within_bounds
from .examples_lib.rox08 import (
    BIT_TIME,
    CPU_TASKS,
    SOURCES,
    TASK_SIGNAL,
    analyze_both_variants,
    build_com_layer,
    build_source_models,
    build_system,
)
from .sim import GatewayScenario, arrivals_for_models, simulate_gateway
from .system import analyze_system
from .system.propagation import output_models
from .viz import eta_plus_series, render_step_chart, render_table

SIM_HORIZON = 100_000.0


def build_report(sim_horizon: float = SIM_HORIZON) -> str:
    """Assemble the full reproduction report as text."""
    sections = []

    # --- Table 1 ------------------------------------------------------
    sections.append("## Table 1 — Sources\n" + render_table(
        ["Source", "Period", "Type"],
        [(n, p, prop.value) for n, (p, prop) in SOURCES.items()],
        floatfmt=".0f"))

    # --- Tables 2 and 3 ----------------------------------------------
    hem_result = analyze_system(build_system("hem"))
    sections.append("## Table 2 — Bus (CAN)\n" + render_table(
        ["Frame", "R- bus", "R+ bus"],
        [(f, hem_result.task_result(f).r_min,
          hem_result.task_result(f).r_max) for f in ("F1", "F2")]))

    comparison = analyze_both_variants()
    sections.append("## Table 3 — CPU1 WCRT, flat vs HEM\n" + render_table(
        ["Task", "R+ flat", "R+ HEM", "Reduction"],
        [(t, flat, hem, f"{red:.1f}%")
         for t, flat, hem, red in comparison.rows()]))

    # --- Figure 4 ------------------------------------------------------
    frame_out = output_models(build_system("hem"), hem_result, ["F1"])["F1"]
    series = {"F1 frames": eta_plus_series(frame_out.outer, 2000.0, 25.0)}
    for label in frame_out.labels:
        series[f"signal {label}"] = eta_plus_series(
            frame_out.inner(label), 2000.0, 25.0)
    sections.append("## Figure 4 — eta+ curves\n"
                    + render_step_chart(series))

    # --- Simulation validation -----------------------------------------
    layer = build_com_layer()
    scenario = GatewayScenario(
        layer=layer,
        bus_timing=CanBusTiming(BIT_TIME),
        signal_arrivals=arrivals_for_models(build_source_models(),
                                            sim_horizon, mode="worst"),
        cpu_tasks={t: (prio, cet, TASK_SIGNAL[t])
                   for t, (cet, prio) in CPU_TASKS.items()},
    )
    run = simulate_gateway(scenario, sim_horizon)
    rows = []
    sound = True
    for name in ("F1", "F2", "T1", "T2", "T3"):
        observed = run.responses.worst_case(name)
        bound = hem_result.wcrt(name)
        ok = observed <= bound + 1e-6
        sound = sound and ok
        rows.append((name, observed, bound, "OK" if ok else "VIOLATED"))
    for label in frame_out.labels:
        ok = trace_within_bounds(run.delivered(label),
                                 frame_out.inner(label))
        sound = sound and ok
        rows.append((f"rx.{label}", len(run.delivered(label)),
                     "inner bound", "OK" if ok else "VIOLATED"))
    sections.append(
        f"## Simulation validation ({sim_horizon:g} time units)\n"
        + render_table(["Item", "observed", "bound", "verdict"], rows))

    verdict = "SOUND" if sound else "*** BOUND VIOLATIONS ***"
    sections.append(f"## Verdict: {verdict}")
    return "\n\n".join(sections)


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    horizon = SIM_HORIZON
    if argv:
        try:
            horizon = float(argv[0])
        except ValueError:
            print(f"usage: python -m repro [sim_horizon]",
                  file=sys.stderr)
            return 2
    report = build_report(horizon)
    print(report)
    return 0 if "VIOLATED" not in report else 1
