"""Event-model lineage: where did this port's activation model come from?

The global propagation engine (:mod:`repro.system.propagation`) resolves
every port's event model by walking the stream graph and applying
constructors (``Ω_pa`` pack, OR/AND join), the task-output operation Θ_τ
with its inner update ``B_{Θ,C}``, and the deconstructor ``Ψ`` (unpack).
A resolver given a lineage dict records each derivation step there;
:func:`repro.explain.engine.explain_result` hands one to the resolver it
rebuilds from a converged result, so the full provenance chain of any
activation model can be queried and rendered (:mod:`repro.viz.lineage`):

    F1_rx.S3   unpack Ψ[S3]
      └─ F1    Θ_τ r=[37.5, 138.0] + inner update B_{Θτ,C_pa}
          └─ F1_pack   Ω_pa pack(triggering=[S1, S2] + timer, ...)
              ├─ S1    source
              ...

This module must stay import-light: the propagation engine imports it at
module load, so nothing here may import the analysis or system layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Node kinds, in rough upstream→downstream order of the paper's
#: pipeline.
KIND_SOURCE = "source"
KIND_PACK = "pack"           # Ω_pa (Def. 8)
KIND_OR = "or_join"
KIND_AND = "and_join"
KIND_THETA = "theta_tau"     # Θ_τ output (+ inner update B when HEM)
KIND_UNPACK = "unpack"       # Ψ (Def. 10)
KIND_ACTIVATION = "activation"  # multi-input join in front of a task

#: Display symbols for renderers.
SYMBOLS = {
    KIND_SOURCE: "src",
    KIND_PACK: "Ω_pa",
    KIND_OR: "∨",
    KIND_AND: "∧",
    KIND_THETA: "Θ_τ",
    KIND_UNPACK: "Ψ",
    KIND_ACTIVATION: "join",
}


@dataclass
class LineageNode:
    """One derivation step: *port* was produced by *kind* from *inputs*.

    ``attrs`` carries step-specific detail — the construction rule of a
    pack, response-time interval and inner-update parameters of a Θ_τ
    step, the selected label of an unpack, the HEM outer/inner structure
    of hierarchical results.
    """

    port: str
    kind: str
    inputs: Tuple[str, ...] = ()
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def symbol(self) -> str:
        return SYMBOLS.get(self.kind, self.kind)

    def describe(self) -> str:
        """One-line summary used by the ASCII renderer."""
        bits = [self.kind]
        rule = self.attrs.get("rule")
        if rule:
            bits.append(str(rule))
        if "label" in self.attrs:
            bits.append(f"label={self.attrs['label']}")
        if "r_min" in self.attrs:
            bits.append(f"r=[{self.attrs['r_min']:g}, "
                        f"{self.attrs['r_max']:g}]")
        if self.attrs.get("inner_update"):
            bits.append(str(self.attrs["inner_update"]))
        if self.attrs.get("inner_labels"):
            bits.append(f"inner={list(self.attrs['inner_labels'])}")
        if "model" in self.attrs:
            bits.append(str(self.attrs["model"]))
        return " ".join(bits)


class LineageGraph:
    """Immutable snapshot of recorded derivation steps — a DAG keyed by
    port name, queryable upstream."""

    def __init__(self, nodes: Dict[str, LineageNode]):
        self._nodes = dict(nodes)

    # ------------------------------------------------------------------
    def __contains__(self, port: str) -> bool:
        return port in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, port: str) -> Optional[LineageNode]:
        return self._nodes.get(port)

    def ports(self) -> List[str]:
        return sorted(self._nodes)

    def nodes(self) -> List[LineageNode]:
        return [self._nodes[p] for p in self.ports()]

    # ------------------------------------------------------------------
    def ancestors(self, port: str) -> List[LineageNode]:
        """Every node reachable upstream of *port* (excluding it),
        deduplicated, in BFS order."""
        seen = {port}
        order: List[LineageNode] = []
        frontier = list(self._inputs_of(port))
        while frontier:
            name = frontier.pop(0)
            if name in seen:
                continue
            seen.add(name)
            node = self._nodes.get(name)
            if node is None:
                continue
            order.append(node)
            frontier.extend(node.inputs)
        return order

    def chain(self, port: str) -> List[LineageNode]:
        """The derivation chain ending at *port*: the port's node first,
        then its ancestors upstream (BFS)."""
        head = self._nodes.get(port)
        tail = self.ancestors(port)
        return ([head] if head is not None else []) + tail

    def kinds_on_chain(self, port: str) -> List[str]:
        """The node kinds along :meth:`chain` — handy for asserting a
        hierarchy passed through pack/unpack."""
        return [n.kind for n in self.chain(port)]

    def _inputs_of(self, port: str) -> Tuple[str, ...]:
        node = self._nodes.get(port)
        return node.inputs if node is not None else ()

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form."""
        return {
            port: {"kind": n.kind, "inputs": list(n.inputs),
                   "attrs": {k: _plain(v) for k, v in n.attrs.items()}}
            for port, n in sorted(self._nodes.items())
        }


def _plain(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return repr(value)
