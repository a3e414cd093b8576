"""Keep docs/usage.md honest: its recipes must run as written."""

import pytest

from repro import (
    SPPScheduler,
    System,
    TaskSpec,
    analyze_system,
    apply_operation,
    backlog_bound,
    hsc_pack,
    max_wcet_scaling,
    path_latency,
    periodic,
    periodic_with_jitter,
    task_wcet_slack,
    unpack,
    unpack_polled,
)
from repro.core import BusyWindowOutput, TransferProperty


def test_stream_recipe():
    em = periodic_with_jitter(100.0, 30.0)
    assert em.delta_min(5) == 370.0
    assert em.eta_plus(250.0) == 3
    assert em.long_run_rate() == 0.01
    assert em.load() == pytest.approx(0.01)
    assert em.simultaneity() == 1


def test_processor_recipe():
    tasks = [
        TaskSpec("ctrl", 2.0, 2.0, periodic(10.0), priority=1),
        TaskSpec("ui", 3.0, 3.0, periodic(30.0), priority=2,
                 blocking=0.5),
    ]
    result = SPPScheduler().analyze(tasks, "cpu0")
    assert result["ui"].r_max == 5.5


def test_pipeline_recipe():
    frame = hsc_pack(
        {"spd": (periodic(250.0), TransferProperty.TRIGGERING),
         "diag": (periodic(1000.0), TransferProperty.PENDING)},
        timer=periodic(1000.0), name="F1")
    after_bus = apply_operation(frame, BusyWindowOutput(40.0, 120.0))
    signals = unpack(after_bus)
    assert set(signals) == {"spd", "diag"}
    polled = unpack_polled(after_bus, "diag", 500.0)
    assert polled.delta_min(2) >= 500.0


def test_system_recipe():
    from repro.can import CanBus
    from repro.com import ComLayer, Frame, FrameType, Signal

    system = System("demo")
    system.add_source("spd", periodic(250.0))
    bus = CanBus.from_bitrate("CAN", 2.0)
    bus.install(system)
    system.add_resource("ECU", SPPScheduler())

    com = ComLayer()
    com.add_frame(Frame("F1", FrameType.DIRECT,
                        [Signal("spd", 16,
                                TransferProperty.TRIGGERING)],
                        can_id=1))
    ports = com.install(system, "CAN", bus.timing, {"spd": "spd"})
    system.add_task("consumer", "ECU", (5.0, 5.0), [ports["spd"]],
                    priority=1)
    result = analyze_system(system)
    assert result.wcrt("consumer") == 5.0
    assert "consumer on ECU" in system.describe()

    lat = path_latency(system, result,
                       ["spd", "F1_pack", "F1", "F1_rx", "consumer"])
    assert lat.worst_case > lat.best_case > 0

    # sensitivity recipes
    tasks = [
        TaskSpec("ctrl", 2.0, 2.0, periodic(10.0), priority=1),
        TaskSpec("ui", 3.0, 3.0, periodic(30.0), priority=2),
    ]
    deadlines = {"ctrl": 10.0, "ui": 30.0}
    assert max_wcet_scaling(SPPScheduler(), tasks, deadlines) > 1.0
    assert task_wcet_slack(SPPScheduler(), tasks, "ui", deadlines) > 0
    r = SPPScheduler().analyze(tasks, "cpu")
    assert backlog_bound(r["ui"], tasks[1].event_model) >= 1
