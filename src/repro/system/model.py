"""System graph: resources, tasks, sources, junctions.

The performance model of a distributed system (paper section 3, Fig. 1):
event streams interconnected by operations.  Concretely:

* :class:`Source` — an external stimulus with a fixed event model.
* :class:`Task` — a stream operation bound to a :class:`Resource`; its
  activating stream is the output stream of its predecessor.  Analysing
  the resource yields response times, and Θ_τ turns the activating model
  into the task's output model.
* :class:`Junction` — an explicit stream constructor node (OR, AND, or
  the hierarchical *pack*); tasks activated by multiple streams are
  decomposed into a junction followed by a single-input task, exactly as
  in the paper ("the first is an event stream constructor ... the second
  models the actual processing").
* :class:`Resource` — a processor or bus with a scheduling policy from
  :mod:`repro.analysis`.

The graph is deliberately explicit (named nodes, named ports) rather than
implicit via Python object wiring, so systems can be inspected, printed,
and serialised for reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .._errors import ModelError
from ..analysis.interface import Scheduler, TaskSpec
from ..core.constructors import TransferProperty
from ..eventmodels.base import EventModel
from ..timebase import is_finite


class JunctionKind(enum.Enum):
    """Stream-constructor flavours available as junction nodes."""

    OR = "or"
    AND = "and"
    PACK = "pack"
    UNPACK = "unpack"


@dataclass
class Source:
    """External event source with a fixed input event model."""

    name: str
    model: EventModel

    def __post_init__(self):
        if not isinstance(self.model, EventModel):
            raise ModelError(f"source {self.name}: model must be an "
                             f"EventModel",
                             context={"source": self.name})


@dataclass
class Task:
    """A computation or transmission bound to a resource.

    Attributes
    ----------
    name:
        Globally unique task name.
    resource:
        Name of the resource this task executes on.
    c_min / c_max:
        Best-/worst-case execution (or transmission) time.
    inputs:
        Names of the nodes (source/task/junction output ports) whose
        streams activate this task.  More than one input requires an
        ``activation`` combinator.
    priority / slot / deadline:
        Scheduling parameters forwarded to the resource's analysis.
    activation:
        How multiple inputs combine: "or" or "and" (single-input tasks
        ignore this).

    Every number must be finite; ``slot`` and ``deadline`` may also be
    None.
    """

    name: str
    resource: str
    c_min: float
    c_max: float
    inputs: List[str] = field(default_factory=list)
    priority: int = 0
    slot: Optional[float] = None
    deadline: Optional[float] = None
    activation: str = "or"
    blocking: float = 0.0

    def __post_init__(self):
        for key in ("c_min", "c_max", "blocking", "priority", "slot",
                    "deadline"):
            value = getattr(self, key)
            if not is_finite(value) and not (key in ("slot", "deadline")
                                             and value is None):
                raise ModelError(
                    f"task {self.name!r}: {key}: expected a finite "
                    f"number, got {value!r}",
                    context={"task": self.name, "resource": self.resource,
                             "field": key})
        if self.c_min < 0 or self.c_max < self.c_min:
            raise ModelError(
                f"task {self.name} on resource {self.resource!r}: need "
                f"0 <= c_min <= c_max (got [{self.c_min}, {self.c_max}])",
                context={"task": self.name, "resource": self.resource,
                         "c_min": self.c_min, "c_max": self.c_max})
        if self.activation not in ("or", "and"):
            raise ModelError(
                f"task {self.name}: activation must be 'or' or 'and' "
                f"(got {self.activation!r})",
                context={"task": self.name, "resource": self.resource,
                         "activation": self.activation})


@dataclass
class Junction:
    """Explicit stream-constructor node.

    For ``PACK`` junctions, ``properties[input]`` gives the transfer
    property of each input stream and ``timer`` optionally names a source
    acting as the transmission timer.  An ``UNPACK`` junction exposes one
    output port per inner stream of its (hierarchical) input; port names
    are ``f"{junction}.{label}"``.
    """

    name: str
    kind: JunctionKind
    inputs: List[str]
    properties: Dict[str, TransferProperty] = field(default_factory=dict)
    timer: Optional[str] = None

    def __post_init__(self):
        if not self.inputs:
            raise ModelError(f"junction {self.name}: needs inputs",
                             context={"junction": self.name,
                                      "kind": self.kind.value})
        if self.kind is JunctionKind.PACK:
            missing = [i for i in self.inputs if i not in self.properties]
            if missing:
                raise ModelError(
                    f"pack junction {self.name}: missing transfer "
                    f"properties for {missing}",
                    context={"junction": self.name,
                             "missing_properties": list(missing)})
        if self.kind is JunctionKind.UNPACK and len(self.inputs) != 1:
            raise ModelError(
                f"unpack junction {self.name}: exactly one input "
                f"required (got {self.inputs})",
                context={"junction": self.name,
                         "inputs": list(self.inputs)})


@dataclass
class Resource:
    """A processor or bus with a local scheduling analysis."""

    name: str
    scheduler: Scheduler


class System:
    """A complete analysable system model.

    Build incrementally with :meth:`add_source`, :meth:`add_resource`,
    :meth:`add_task`, :meth:`add_junction`; then hand to
    :func:`repro.system.propagation.analyze_system`.
    """

    def __init__(self, name: str = "system"):
        self.name = name
        self.sources: Dict[str, Source] = {}
        self.resources: Dict[str, Resource] = {}
        self.tasks: Dict[str, Task] = {}
        self.junctions: Dict[str, Junction] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_source(self, name: str, model: EventModel) -> Source:
        self._check_new_name(name)
        src = Source(name, model)
        self.sources[name] = src
        return src

    def add_resource(self, name: str, scheduler: Scheduler) -> Resource:
        if name in self.resources:
            raise ModelError(f"duplicate resource name {name!r}",
                             context={"resource": name})
        res = Resource(name, scheduler)
        self.resources[name] = res
        return res

    def add_task(self, name: str, resource: str, c: Tuple[float, float],
                 inputs: Sequence[str], priority: int = 0,
                 slot: Optional[float] = None,
                 deadline: Optional[float] = None,
                 activation: str = "or",
                 blocking: float = 0.0) -> Task:
        self._check_new_name(name)
        if resource not in self.resources:
            raise ModelError(
                f"task {name}: unknown resource {resource!r} (known: "
                f"{sorted(self.resources) or '(none)'})",
                context={"task": name, "resource": resource})
        task = Task(name, resource, c[0], c[1], list(inputs), priority,
                    slot, deadline, activation, blocking)
        self.tasks[name] = task
        return task

    def add_junction(self, name: str, kind: JunctionKind,
                     inputs: Sequence[str],
                     properties: Optional[Dict[str, TransferProperty]] = None,
                     timer: Optional[str] = None) -> Junction:
        self._check_new_name(name)
        junction = Junction(name, kind, list(inputs), properties or {},
                            timer)
        self.junctions[name] = junction
        return junction

    def add_pack_junction(self, name: str,
                          signals: Dict[str, TransferProperty],
                          timer: Optional[str] = None) -> Junction:
        """Convenience wrapper: a PACK junction over named input streams."""
        return self.add_junction(name, JunctionKind.PACK,
                                 list(signals), properties=signals,
                                 timer=timer)

    def _check_new_name(self, name: str) -> None:
        if name in self.sources or name in self.tasks \
                or name in self.junctions:
            kind = ("source" if name in self.sources
                    else "task" if name in self.tasks else "junction")
            raise ModelError(
                f"duplicate node name {name!r} (already a {kind})",
                context={"node": name, "existing_kind": kind})

    # ------------------------------------------------------------------
    # graph queries
    # ------------------------------------------------------------------
    def node_names(self) -> List[str]:
        return (list(self.sources) + list(self.tasks)
                + list(self.junctions))

    def tasks_on(self, resource: str) -> List[Task]:
        return [t for t in self.tasks.values() if t.resource == resource]

    def producer_of(self, port: str) -> str:
        """Resolve a port name to its producing node.

        A port is either a node name verbatim (source, task, or a
        junction's unadorned output) or ``junction.label`` selecting one
        output of an UNPACK junction.  Exact node names win, so task
        names may contain dots without being misparsed.
        """
        if port in self.sources or port in self.tasks \
                or port in self.junctions:
            return port
        if "." in port:
            node = port.split(".", 1)[0]
            if node in self.junctions:
                return node
        raise ModelError(f"unknown stream producer {port!r}",
                         context={"port": port})

    def validate(self) -> None:
        """Check referential integrity of the whole graph."""
        for task in self.tasks.values():
            if not task.inputs:
                raise ModelError(
                    f"task {task.name} on resource {task.resource!r}: "
                    f"no activating input",
                    context={"task": task.name,
                             "resource": task.resource})
            for port in task.inputs:
                try:
                    self.producer_of(port)
                except ModelError as exc:
                    raise ModelError(
                        f"task {task.name}: input port {port!r} has no "
                        f"producer",
                        context={"task": task.name,
                                 "resource": task.resource,
                                 "port": port}) from exc
        for junction in self.junctions.values():
            for port in junction.inputs:
                try:
                    self.producer_of(port)
                except ModelError as exc:
                    raise ModelError(
                        f"junction {junction.name}: input port {port!r} "
                        f"has no producer",
                        context={"junction": junction.name,
                                 "port": port}) from exc
            if junction.timer is not None:
                if junction.timer not in self.sources:
                    raise ModelError(
                        f"junction {junction.name}: timer "
                        f"{junction.timer!r} must be a source",
                        context={"junction": junction.name,
                                 "timer": junction.timer})

    def describe(self) -> str:
        """Human-readable dump of the whole graph (sources, resources
        with their policies, tasks with wiring, junctions)."""
        lines = [f"System {self.name!r}"]
        if self.sources:
            lines.append("  sources:")
            for src in self.sources.values():
                lines.append(f"    {src.name}: {src.model!r}")
        if self.resources:
            lines.append("  resources:")
            for res in self.resources.values():
                lines.append(
                    f"    {res.name}: {res.scheduler.policy}")
        if self.tasks:
            lines.append("  tasks:")
            for t in self.tasks.values():
                extras = []
                if t.slot is not None:
                    extras.append(f"slot={t.slot}")
                if t.deadline is not None:
                    extras.append(f"deadline={t.deadline}")
                if t.blocking:
                    extras.append(f"blocking={t.blocking}")
                extra = (", " + ", ".join(extras)) if extras else ""
                lines.append(
                    f"    {t.name} on {t.resource} "
                    f"C=[{t.c_min}, {t.c_max}] prio={t.priority}"
                    f"{extra} <- {' ,'.join(t.inputs) or '(none)'}")
        if self.junctions:
            lines.append("  junctions:")
            for j in self.junctions.values():
                timer = f" timer={j.timer}" if j.timer else ""
                lines.append(
                    f"    {j.name} [{j.kind.value}]{timer} "
                    f"<- {', '.join(j.inputs)}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<System {self.name}: {len(self.sources)} sources, "
                f"{len(self.resources)} resources, {len(self.tasks)} "
                f"tasks, {len(self.junctions)} junctions>")
