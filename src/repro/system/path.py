"""End-to-end path latency on analysed systems.

The classic first-order bound: the worst-case latency of an event
traversing a task chain is the sum of per-task worst-case response times
(each event is fully processed by stage k before stage k+1 sees it).  The
best case is the sum of best-case response times.

For chains crossing a *pack* junction the path semantics matter: a
triggering signal's frame leaves immediately, while a pending signal may
additionally wait up to the maximum frame distance δ⁺_f(2) for the next
transmission opportunity (paper section 4, Fig. 3).
:func:`path_latency` accounts for that sampling delay when the path
enters a pack junction through a pending input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .._errors import AnalysisError, ModelError
from ..analysis.results import SystemResult
from ..core.constructors import TransferProperty
from ..core.hem import is_hierarchical
from .model import JunctionKind, System


@dataclass
class PathLatency:
    """Best-/worst-case end-to-end latency of a named path."""

    path: List[str]
    best_case: float
    worst_case: float
    sampling_delay: float = 0.0

    @property
    def span(self) -> float:
        return self.worst_case - self.best_case


def path_latency(system: System, result: SystemResult,
                 path: Sequence[str]) -> PathLatency:
    """Sum-of-response-times latency bound along *path*.

    ``path`` lists node names in traversal order.  Tasks contribute their
    response-time interval; junction nodes contribute zero except a PACK
    junction entered through a *pending* input, which adds the worst-case
    wait for the next frame.  The pending wait is bounded by δ⁺(2) of the
    packed (outer) stream, which requires the junction's output model —
    recomputed here from the converged system state.
    """
    if len(path) < 2:
        raise ModelError("a path needs at least two nodes")
    best = 0.0
    worst = 0.0
    sampling = 0.0
    for idx, node in enumerate(path):
        if node in system.tasks:
            tr = result.task_result(node)
            if tr is None:
                raise AnalysisError(
                    f"path node {node!r} has no analysis result")
            best += tr.r_min
            worst += tr.r_max
        elif node in system.junctions:
            junction = system.junctions[node]
            if junction.kind is JunctionKind.PACK and idx > 0:
                prev = path[idx - 1]
                prop = junction.properties.get(prev)
                if prop is TransferProperty.PENDING:
                    wait = _pack_outer_delta_plus2(system, result, junction)
                    sampling += wait
                    worst += wait
        elif node in system.sources:
            if idx != 0:
                raise ModelError(
                    f"source {node!r} may only start a path")
        else:
            raise ModelError(f"unknown path node {node!r}")
    return PathLatency(list(path), best, worst, sampling)


def _pack_outer_delta_plus2(system: System, result: SystemResult,
                            junction) -> float:
    """δ⁺(2) of the pack junction's outer stream in the converged state."""
    from .propagation import output_models  # local import: avoid cycle

    model = output_models(system, result, [junction.name])[junction.name]
    if is_hierarchical(model):
        return model.outer.delta_plus(2)
    return model.delta_plus(2)
