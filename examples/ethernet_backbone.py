#!/usr/bin/env python3
"""CAN-to-Ethernet gateway: HEM propagation across a multi-hop backbone.

A full in-engine version of the nested-hierarchy story: sensor signals
are packed into a CAN frame, cross the CAN bus, and the gateway forwards
the frame stream as an Ethernet flow through two strict-priority switch
hops.  The hierarchical event model rides through every hop (Θ_τ on the
outer stream, Definition 9 on the inner streams), so the final receiver
unpacks tight per-signal activation models four hops from the sources.

Run:  python examples/ethernet_backbone.py
"""

from repro import SPPScheduler, TransferProperty, periodic
from repro.can import CanBus
from repro.com import ComLayer, Frame, FrameType, Signal
from repro.ethernet import EthernetLink, Flow, SwitchedNetwork
from repro.system import JunctionKind, System, analyze_system, path_latency
from repro.system.propagation import output_models
from repro.viz import render_table

TRIG = TransferProperty.TRIGGERING
PEND = TransferProperty.PENDING


def main() -> None:
    system = System("can-eth-gateway")

    # Sources on the sensor ECU.
    system.add_source("speed", periodic(200.0, "speed"))
    system.add_source("torque", periodic(350.0, "torque"))
    system.add_source("diag", periodic(1500.0, "diag"))

    # CAN side: one mixed frame carries all three signals.
    bus = CanBus.from_bitrate("CAN", 2.0)
    bus.install(system)
    com = ComLayer("sensor-ecu")
    com.add_frame(Frame(
        "SENSORS", FrameType.MIXED,
        [Signal("speed", 16, TRIG), Signal("torque", 16, TRIG),
         Signal("diag", 16, PEND)],
        period=1000.0, can_id=1))
    com.install(system, "CAN", bus.timing,
                {"speed": "speed", "torque": "torque", "diag": "diag"})

    # Ethernet backbone: the gateway forwards every received CAN frame
    # as one Ethernet frame through two switches; a bulk flow competes.
    net = SwitchedNetwork("backbone")
    link = EthernetLink.mbps(100.0)
    net.add_port("gw.out", link)
    net.add_port("sw.out", link)
    net.add_flow(Flow("sensors", "SENSORS", ["gw.out", "sw.out"],
                      payload_bytes=100, priority=1))
    system.add_source("nas", periodic(250.0, "nas"))
    net.add_flow(Flow("bulk", "nas", ["gw.out", "sw.out"],
                      payload_bytes=1500, priority=2))
    sinks = net.install(system)

    # Receiver ECU: unpack AFTER the Ethernet hops and bound three
    # consumer tasks by their own signal streams.
    system.add_junction("rx", JunctionKind.UNPACK, [sinks["sensors"]])
    system.add_resource("RXCPU", SPPScheduler())
    consumers = {"speed_task": ("speed", 15.0, 1),
                 "torque_task": ("torque", 25.0, 2),
                 "diag_task": ("diag", 40.0, 3)}
    for task, (signal, cet, prio) in consumers.items():
        system.add_task(task, "RXCPU", (cet, cet), [f"rx.{signal}"],
                        priority=prio)

    result = analyze_system(system)
    print(f"Global analysis converged in {result.iterations} iterations.")

    rows = []
    for name in ("SENSORS", "sensors@gw.out", "sensors@sw.out",
                 *consumers):
        rows.append((name, result.wcrt(name)))
    print(render_table(["task / hop", "WCRT"], rows))

    lat = path_latency(system, result,
                       ["speed", "SENSORS_pack", "SENSORS",
                        "sensors@gw.out", "sensors@sw.out", "rx",
                        "speed_task"])
    print(f"\nEnd-to-end latency speed -> speed_task: "
          f"[{lat.best_case:.1f}, {lat.worst_case:.1f}]")

    # Compare against the flat receiver (every Ethernet sensor frame
    # activates every task).
    port = sinks["sensors"]
    delivered = output_models(system, result, [port])[port]
    flat_rows = []
    horizon = 3000.0
    flat_rows.append(("all sensor frames", delivered.eta_plus(horizon)))
    for label in delivered.labels:
        flat_rows.append((f"unpacked {label!r}",
                          delivered.inner(label).eta_plus(horizon)))
    print(f"\nActivations possible in any {horizon:g}-unit window at "
          f"the receiver:")
    print(render_table(["stream", "eta+"], flat_rows))


if __name__ == "__main__":
    main()
