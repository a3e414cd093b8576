"""Generic simulation of system graphs: simulate what you analyse.

Maps a :class:`repro.system.System` onto the component simulators and
runs it end to end: source arrival sequences activate their consumer
tasks; every task completion activates its successors; each resource is
simulated by the executor matching its analysis policy:

========================  =============================
scheduler policy          simulator
========================  =============================
``spp``                   :class:`~repro.sim.cpu.SppCpuSim`
``spnp``                  :class:`~repro.sim.canbus.CanBusSim`
``tdma``                  :class:`~repro.sim.tdma.TdmaSim`
``round_robin``           :class:`~repro.sim.roundrobin.RoundRobinSim`
``edf``                   :class:`~repro.sim.edf.EdfCpuSim`
========================  =============================

Scope: task-graph systems with OR/AND activation.  Systems containing
PACK/UNPACK junctions have register semantics that this generic mapper
does not implement — use :mod:`repro.sim.gateway` (or model the COM
layer explicitly); such systems are rejected with a clear error.

Execution times are simulated at ``c_max`` (the value the analysis
bounds) — observed response times must therefore stay below every
analytic WCRT, which :func:`simulate_system` can assert directly.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

from .._errors import ModelError
from ..obs.context import check_deadline
from ..system.model import JunctionKind, System, Task
from .canbus import CanBusSim
from .cpu import SppCpuSim
from .edf import EdfCpuSim
from .engine import CHECK_EVERY, Simulator
from .measure import EventTrace, ResponseRecorder
from .roundrobin import RoundRobinSim
from .tdma import TdmaSim


@dataclass
class SystemRun:
    """Outcome of :func:`simulate_system`."""

    trace: EventTrace
    responses: ResponseRecorder
    t_end: float


class _AndGate:
    """Counting AND-join: fires once every input has one pending token."""

    def __init__(self, inputs: List[str]):
        self._pending: "Dict[str, int]" = {name: 0 for name in inputs}

    def offer(self, source: str) -> bool:
        self._pending[source] += 1
        if all(count > 0 for count in self._pending.values()):
            for name in self._pending:
                self._pending[name] -= 1
            return True
        return False


class SystemSimulation:
    """Instantiated simulators + wiring for one system graph."""

    def __init__(self, system: System,
                 arrivals: "Dict[str, List[float]]"):
        self._check_supported(system)
        self.system = system
        self.sim = Simulator()
        self.trace = EventTrace()
        self.responses = ResponseRecorder()
        self._executors: "Dict[str, object]" = {}
        self._activate: "Dict[str, callable]" = {}
        self._successors: "Dict[str, List[Task]]" = defaultdict(list)
        self._and_gates: "Dict[str, _AndGate]" = {}

        self._build_executors()
        self._wire_graph()
        self._schedule_sources(arrivals)

    # ------------------------------------------------------------------
    @staticmethod
    def _check_supported(system: System) -> None:
        for junction in system.junctions.values():
            if junction.kind in (JunctionKind.PACK, JunctionKind.UNPACK):
                raise ModelError(
                    f"junction {junction.name}: PACK/UNPACK register "
                    f"semantics are not part of the generic system "
                    f"simulator — use repro.sim.gateway for COM-layer "
                    f"scenarios")

    def _build_executors(self) -> None:
        for resource in self.system.resources.values():
            tasks = self.system.tasks_on(resource.name)
            if not tasks:
                continue
            policy = resource.scheduler.policy
            if policy in ("spp", "hspp"):
                cpu = SppCpuSim(self.sim, self.responses,
                                name=resource.name)
                for t in tasks:
                    cpu.add_task(t.name, t.priority, t.c_max,
                                 on_complete=self._on_complete)
                    self._activate[t.name] = \
                        (lambda _n=t.name, _c=cpu: _c.activate(_n))
            elif policy == "spnp":
                bus = CanBusSim(self.sim, self.responses,
                                name=resource.name,
                                require_unique_ids=False)
                for t in tasks:
                    bus.add_frame(
                        t.name, t.priority, t.c_max,
                        on_complete=lambda name, inst, time:
                        self._on_complete(name, time))
                    self._activate[t.name] = \
                        (lambda _n=t.name, _b=bus: _b.request(_n))
            elif policy == "tdma":
                slots = [(t.name, t.slot) for t in tasks]
                tdma = TdmaSim(self.sim, self._recorder_with_hook(),
                               slots)
                for t in tasks:
                    tdma.add_task(t.name, t.c_max)
                    self._activate[t.name] = \
                        (lambda _n=t.name, _x=tdma: _x.activate(_n))
            elif policy == "round_robin":
                rr = RoundRobinSim(self.sim, self._recorder_with_hook())
                for t in tasks:
                    rr.add_task(t.name, quantum=t.slot,
                                exec_time=t.c_max)
                    self._activate[t.name] = \
                        (lambda _n=t.name, _x=rr: _x.activate(_n))
            elif policy == "edf":
                edf = EdfCpuSim(self.sim, self._recorder_with_hook(),
                                name=resource.name)
                for t in tasks:
                    edf.add_task(t.name, t.deadline, t.c_max)
                    self._activate[t.name] = \
                        (lambda _n=t.name, _x=edf: _x.activate(_n))
            else:
                raise ModelError(
                    f"resource {resource.name}: no simulator for "
                    f"policy {policy!r}")

    def _recorder_with_hook(self) -> ResponseRecorder:
        """A recorder proxy that also fires successor activations.

        TDMA/RR/EDF executors report completions only through their
        recorder; this shim taps those records.
        """
        outer = self

        class _Hooked(ResponseRecorder):
            def record(self, task, activation, completion):
                outer.responses.record(task, activation, completion)
                outer._on_complete(task, completion)

        return _Hooked()

    # ------------------------------------------------------------------
    def _wire_graph(self) -> None:
        # Task consumers (with task-level AND gates).
        for task in self.system.tasks.values():
            for port in task.inputs:
                node = self.system.producer_of(port)
                self._successors[node].append(("task", task.name))
            if task.activation == "and" and len(task.inputs) > 1:
                self._and_gates[task.name] = _AndGate(
                    [self.system.producer_of(p) for p in task.inputs])
        # Junction consumers: OR junctions forward every input event,
        # AND junctions gate on all inputs.
        for junction in self.system.junctions.values():
            for port in junction.inputs:
                node = self.system.producer_of(port)
                self._successors[node].append(
                    ("junction", junction.name))
            if junction.kind is JunctionKind.AND:
                self._and_gates[junction.name] = _AndGate(
                    [self.system.producer_of(p)
                     for p in junction.inputs])

    def _schedule_sources(self,
                          arrivals: "Dict[str, List[float]]") -> None:
        for name in self.system.sources:
            for k, t in enumerate(arrivals.get(name, [])):
                if not k % CHECK_EVERY:
                    check_deadline()
                self.sim.schedule(
                    t, lambda _n=name: self._emit(_n))

    # ------------------------------------------------------------------
    def _emit(self, node: str) -> None:
        """An event appears at *node*'s output: activate successors."""
        self.trace.record(f"out.{node}", self.sim.now)
        for kind, name in self._successors.get(node, []):
            gate = self._and_gates.get(name)
            if gate is not None and not gate.offer(node):
                continue
            if kind == "task":
                self._activate[name]()
            else:
                self._emit(name)

    def _on_complete(self, task: str, time: float) -> None:
        self._emit(task)

    def run(self, t_end: float) -> SystemRun:
        self.sim.run_until(t_end)
        return SystemRun(trace=self.trace, responses=self.responses,
                         t_end=t_end)


def simulate_system(system: System,
                    arrivals: "Dict[str, List[float]]",
                    t_end: float) -> SystemRun:
    """Simulate a task-graph system under explicit source arrivals."""
    return SystemSimulation(system, arrivals).run(t_end)
