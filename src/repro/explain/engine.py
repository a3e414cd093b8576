"""Explain a finished analysis: blame and lineage on demand.

:func:`explain_result` takes a system and its converged
:class:`SystemResult` and rebuilds what the analysis knew at its fixed
point: the stream resolver over the converged responses (recording each
port's derivation into a lineage graph private to the call), each
resource's local analysis on the task specs it resolves, and each
scheduler's :meth:`~repro.analysis.interface.Scheduler.blame`
decomposition of each task.  :func:`explain_system` analyses a system
and explains the result.  Neither reads or writes ``repro.obs.enabled``;
the result is an :class:`Explanation` bundling the converged result,
the per-task blame decompositions and the :class:`LineageGraph`::

    from repro.explain import explain_system
    ex = explain_system(build_system("hem"))
    print(ex.render_blame_table())
    print(ex.render_lineage("T3"))

Unlike :mod:`blame` and :mod:`lineage`, this module sits *above* the
analysis and system layers, so :mod:`repro.explain`'s ``__init__`` loads
it lazily to keep the solver → blame import edge acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..analysis.results import SystemResult
from ..system.model import System
from ..system.propagation import (
    DEFAULT_MAX_ITERATIONS,
    _converged_resolver,
    analyze_system,
)
from ..viz.tables import render_table
from .blame import Blame
from .lineage import LineageGraph, LineageNode


@dataclass
class Explanation:
    """Everything derived while explaining one system analysis."""

    system_name: str
    result: SystemResult
    #: Task name → blame decomposition (every task whose scheduler
    #: decomposes its bound).
    blames: Dict[str, Blame] = field(default_factory=dict)
    #: The event-model derivation DAG.
    graph: LineageGraph = field(default_factory=lambda: LineageGraph({}))
    #: Task name → the activation port whose lineage explains the task
    #: (its single input, or the synthetic ``<task>.act`` join node).
    activation_ports: Dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def blame(self, task: str) -> Blame:
        try:
            return self.blames[task]
        except KeyError:
            raise KeyError(
                f"no blame recorded for task {task!r}; known: "
                f"{sorted(self.blames)}") from None

    def wcrt(self, task: str) -> Optional[float]:
        return self.result.wcrt(task)

    def activation_port(self, task: str) -> str:
        try:
            return self.activation_ports[task]
        except KeyError:
            raise KeyError(
                f"unknown task {task!r}; known: "
                f"{sorted(self.activation_ports)}") from None

    # ------------------------------------------------------------------
    def render_blame_table(self, floatfmt: str = ".1f") -> str:
        """Markdown-ish summary table, one row per task."""
        return render_blame_table(self.blames, floatfmt=floatfmt)

    def render_blame(self, task: str, floatfmt: str = ".1f") -> str:
        """Per-term breakdown of one task's WCRT."""
        return render_blame(self.blame(task), floatfmt=floatfmt)

    def render_lineage(self, task_or_port: str) -> str:
        """ASCII derivation tree for a task's activation (or any port)."""
        from ..viz.lineage import render_lineage as _render

        port = self.activation_ports.get(task_or_port, task_or_port)
        return _render(self.graph, port)

    def lineage_to_dot(self, task_or_port: Optional[str] = None) -> str:
        """DOT of the lineage DAG (restricted to one task's ancestry
        when *task_or_port* is given)."""
        from ..viz.lineage import lineage_to_dot as _to_dot

        if task_or_port is None:
            return _to_dot(self.graph)
        port = self.activation_ports.get(task_or_port, task_or_port)
        return _to_dot(self.graph, roots=[port])

    def to_dict(self) -> Dict[str, Any]:
        return {
            "system": self.system_name,
            "iterations": self.result.iterations,
            "converged": self.result.converged,
            "wcrt": {t: self.result.wcrt(t) for t in sorted(self.blames)},
            "blames": {t: b.to_dict()
                       for t, b in sorted(self.blames.items())},
            "lineage": self.graph.to_dict(),
            "activation_ports": dict(self.activation_ports),
        }


def explain_result(system: System, result: SystemResult,
                   check: bool = True) -> Explanation:
    """Explain *result*, a converged analysis of *system*.

    Rebuilds the stream resolver from the converged responses (the
    models of the final iteration), re-runs each resource's local
    analysis on the task specs it resolves, and asks each scheduler to
    decompose each task's bound.  The lineage graph holds every port
    this resolution visits.  With ``check=True`` every blame record is
    verified to sum to its WCRT before returning.
    """
    nodes: Dict[str, LineageNode] = {}
    resolver = _converged_resolver(system, result, lineage=nodes)
    blames: Dict[str, Blame] = {}
    for resource in system.resources.values():
        tasks = system.tasks_on(resource.name)
        if not tasks:
            continue
        specs = resolver.task_specs(tasks)
        scheduler = resource.scheduler
        rr = scheduler.analyze(specs, resource.name)
        for spec in specs:
            blame = scheduler.blame(spec, specs, resource.name,
                                    rr.task_results[spec.name])
            if blame is not None:
                blames[spec.name] = blame
    # Every task's output stream, as the final iteration propagated it.
    for name in system.tasks:
        resolver.port(name)
    if check:
        for b in blames.values():
            b.check()

    ports = {name: (task.inputs[0] if len(task.inputs) == 1
                    else f"{name}.act")
             for name, task in system.tasks.items() if task.inputs}
    return Explanation(system_name=system.name, result=result,
                       blames=blames, graph=LineageGraph(nodes),
                       activation_ports=ports)


def explain_system(system: System,
                   max_iterations: int = DEFAULT_MAX_ITERATIONS,
                   check: bool = True) -> Explanation:
    """Analyse *system* and explain the converged result
    (:func:`explain_result`)."""
    return explain_result(
        system, analyze_system(system, max_iterations=max_iterations),
        check=check)


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------

def render_blame_table(blames: Dict[str, Blame],
                       floatfmt: str = ".1f") -> str:
    """One summary row per task: WCRT and where it comes from."""
    headers = ["task", "resource", "policy", "q*", "WCRT", "own",
               "blocking", "interference", "other", "dominant interferer"]
    rows: List[List[object]] = []
    for name in sorted(blames):
        b = blames[name]
        dom = b.dominant()
        extras = float(sum(t.contribution for t in b.extras))
        rows.append([
            name, b.resource, b.policy, b.q, float(b.wcrt),
            float(b.own.contribution),
            b.blocking.contribution if b.blocking is not None else 0.0,
            float(b.interference_total), extras,
            (f"{dom.name} ({format(dom.contribution, floatfmt)})"
             if dom is not None else "-"),
        ])
    return render_table(headers, rows, floatfmt=floatfmt)


def render_blame(blame: Blame, floatfmt: str = ".1f") -> str:
    """Per-term breakdown of one decomposition, with the identity line."""
    headers = ["term", "kind", "contribution", "activations", "C+",
               "note"]
    rows: List[List[object]] = []
    for t in blame.terms():
        rows.append([t.name, t.kind, t.contribution,
                     (f"{t.activations:g}" if t.activations else "-"),
                     (t.c_max if t.c_max else "-"), t.note or "-"])
    cand = "".join(f", {k}={v:g}" for k, v in blame.candidate.items())
    head = (f"{blame.task} on {blame.resource} ({blame.policy}): "
            f"r+ = {blame.wcrt:g} at q*={blame.q}{cand}")
    ident = (f"sum(terms) = {blame.total():g} = B(q*); "
             f"B(q*) - arrival {blame.arrival:g} = {blame.explained_wcrt():g}"
             f" = r+")
    return "\n".join([head, render_table(headers, rows,
                                         floatfmt=floatfmt), ident])
