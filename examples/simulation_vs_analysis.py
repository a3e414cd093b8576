#!/usr/bin/env python3
"""Validate the analytic bounds with the discrete-event simulator.

Runs the paper's system in simulation (sources → COM layer → CAN bus →
receiver CPU) under critical-instant stimuli, then checks

* observed worst-case response times  <=  analysed WCRT bounds, and
* observed per-signal delivery streams stay inside the unpacked inner
  event models (the streams HEM analysis feeds to the receiver tasks).

Run:  python examples/simulation_vs_analysis.py
"""

from repro.can import CanBusTiming
from repro.examples_lib.rox08 import (
    BIT_TIME,
    CPU_TASKS,
    TASK_SIGNAL,
    build_com_layer,
    build_source_models,
    build_system,
)
from repro.eventmodels import trace_within_bounds
from repro.sim import GatewayScenario, arrivals_for_models, simulate_gateway
from repro.system import analyze_system
from repro.system.propagation import output_models
from repro.viz import render_table

HORIZON = 100_000.0


def main() -> None:
    layer = build_com_layer()
    models = build_source_models()
    scenario = GatewayScenario(
        layer=layer,
        bus_timing=CanBusTiming(BIT_TIME),
        signal_arrivals=arrivals_for_models(models, HORIZON, mode="worst"),
        cpu_tasks={t: (prio, cet, TASK_SIGNAL[t])
                   for t, (cet, prio) in CPU_TASKS.items()},
    )
    run = simulate_gateway(scenario, HORIZON)

    system = build_system("hem")
    result = analyze_system(system)

    rows = []
    for name in ("F1", "F2", "T1", "T2", "T3"):
        observed = run.responses.worst_case(name)
        bound = result.wcrt(name)
        rows.append((name, observed, bound,
                     "OK" if observed <= bound + 1e-6 else "VIOLATION"))
    print(f"Simulated {HORIZON:g} time units (critical-instant stimuli):")
    print(render_table(
        ["task/frame", "observed WCRT", "analysed bound", "verdict"], rows))
    print()

    # Per-signal delivery streams vs unpacked inner models.
    frame_out = output_models(system, result, ["F1"])["F1"]
    rows = []
    for label in frame_out.labels:
        delivered = run.delivered(label)
        ok = trace_within_bounds(delivered, frame_out.inner(label))
        rows.append((label, len(delivered), "inside bound" if ok
                     else "BOUND VIOLATED"))
    print("Delivered signal streams vs unpacked inner event models:")
    print(render_table(["signal", "deliveries", "verdict"], rows))


if __name__ == "__main__":
    main()
