"""Stream operations on hierarchical streams and inner update functions.

Paper Definition 7: when a flat operation ``Θ`` (response-time output
calculation, shaping, ...) is applied to a hierarchical event stream, the
*outer* stream is transformed by the flat operation and the **inner update
function** ``B_{Θ, C}`` adapts every inner stream consistently with the
construction rule ``C``.

Definition 9 gives ``B_{Θ_τ, C_pa}`` for the busy-window output operation
applied to a packed stream (the frame crossing the CAN bus)::

    δ''⁻_i(n) = max( δ'⁻_i(n) - (r⁺ - r⁻) - (k - 1) * r⁻,  (n - 1) * r⁻ )
    δ''⁺_i(n) = δ'⁺_i(n) + (r⁺ - r⁻) + (k - 1) * r⁻

where ``k`` is the maximum number of outer events (before the operation)
that can be affected by the new minimum distance — i.e. the largest burst
of simultaneous frame activations that the transmission serialises, each
transmitted frame then being at least ``r⁻`` after its predecessor.

The same algebraic shape covers the d_min shaper (jitter ``D_max``,
spacing ``d``); :class:`InnerJitterSpacingModel` implements it once.

Dispatch is by (operation type, construction rule type) through a registry
so user code can register inner update functions for new combinations —
exactly the extension mechanism Definition 7 calls for.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Tuple, Type

from .._errors import ModelError
from ..eventmodels.base import EventModel
from ..eventmodels.compile import (
    fingerprint,
    maybe_compile,
    register_fingerprint,
)
from ..eventmodels.operations import (
    DminShaper,
    PrefixMemoModel,
    TaskOutputModel,
    spaced_rate,
)
from ..timebase import INF
from .constructors import AndRule, OrRule, PackRule
from .hem import ConstructionRule, HierarchicalEventModel


# ----------------------------------------------------------------------
# Operation objects (Definition 2 made concrete)
# ----------------------------------------------------------------------
class StreamOperation(ABC):
    """A flat stream operation Θ: maps one event model to one event model."""

    name: str = "op"

    @abstractmethod
    def apply_flat(self, model: EventModel) -> EventModel:
        """Transform a flat event model."""


class BusyWindowOutput(StreamOperation):
    """Θ_τ — output-model operation of an analysed task/frame with
    response times in [r_min, r_max]."""

    name = "theta_tau"

    def __init__(self, r_min: float, r_max: float):
        if r_min < 0 or r_max < r_min:
            raise ModelError(
                f"need 0 <= r_min <= r_max, got [{r_min}, {r_max}]")
        self.r_min = float(r_min)
        self.r_max = float(r_max)

    def apply_flat(self, model: EventModel) -> EventModel:
        return TaskOutputModel(model, self.r_min, self.r_max,
                               name=f"{model.name}'")

    def __repr__(self) -> str:
        return f"<Θτ r=[{self.r_min}, {self.r_max}]>"


class ShaperOperation(StreamOperation):
    """Greedy d_min shaping as a stream operation."""

    name = "shaper"

    def __init__(self, d: float):
        if d < 0:
            raise ModelError(f"shaper distance must be >= 0, got {d}")
        self.d = float(d)

    def apply_flat(self, model: EventModel) -> EventModel:
        return DminShaper(model, self.d, name=f"shaped({model.name})")


# ----------------------------------------------------------------------
# Inner update building block
# ----------------------------------------------------------------------
class InnerJitterSpacingModel(PrefixMemoModel):
    """Inner stream after the outer stream passed a jitter+serialisation
    stage (Definition 9 generalised).

    A point δ⁻(n) is one query of the inner model; the δ⁻ prefix memo
    (:class:`~repro.eventmodels.operations.PrefixMemoModel`) serves η⁺
    and block reads only, so a far point δ⁻(n) costs one inner query,
    not a fill to n.

    Parameters
    ----------
    inner:
        The inner model before the operation (δ'_i).
    jitter:
        Response-time span of the operation (r⁺ - r⁻ for Θ_τ, D_max for a
        shaper).
    spacing:
        Minimum separation the operation enforces between consecutive
        outer events (r⁻ for Θ_τ, d for a shaper).
    k:
        Maximum number of simultaneous outer events before the operation
        (bursts that the operation serialises).
    """

    def __init__(self, inner: EventModel, jitter: float, spacing: float,
                 k: int, name: str = "inner'"):
        if jitter < 0 or spacing < 0:
            raise ModelError("jitter and spacing must be >= 0")
        if k < 1:
            raise ModelError(f"simultaneity k must be >= 1, got {k}")
        self._inner = inner
        self.jitter = float(jitter)
        self.spacing = float(spacing)
        self.k = int(k)
        self._dmin_memo = [0.0, 0.0]
        self.name = name

    @property
    def total_shift(self) -> float:
        """(r⁺ - r⁻) + (k - 1) * r⁻ — the full distance reduction."""
        return self.jitter + (self.k - 1) * self.spacing

    def delta_min(self, n: int) -> float:
        self._check_n(n)
        if n < 2:
            return 0.0
        return max(self._inner.delta_min(n) - self.total_shift,
                   (n - 1) * self.spacing)

    def long_run_rate(self) -> float:
        return spaced_rate(self._inner.long_run_rate(), self.spacing)

    def _fill_min(self, n_max: int) -> list:
        """The δ⁻ memo continued to n_max from one input block."""
        memo = self._dmin_memo
        src = self._inner.delta_min_block(n_max)
        shift = self.total_shift
        spacing = self.spacing
        out = memo[:]
        out.extend(max(src[n] - shift, (n - 1) * spacing)
                   for n in range(len(memo), n_max + 1))
        self._dmin_memo = out
        return out

    def delta_plus(self, n: int) -> float:
        self._check_n(n)
        if n < 2:
            return 0.0
        dp = self._inner.delta_plus(n)
        if dp == INF:
            return INF
        return dp + self.total_shift

    def delta_plus_block(self, n_max: int) -> list:
        self._check_n(n_max)
        src = self._inner.delta_plus_block(n_max)
        shift = self.total_shift
        return src[:2] + [INF if dp == INF else dp + shift
                          for dp in src[2:]]


def _ijs_fingerprint(model: InnerJitterSpacingModel):
    inner = fingerprint(model._inner)
    if inner is None:
        return None
    return ("ijs", model.jitter, model.spacing, model.k, inner)


register_fingerprint(InnerJitterSpacingModel, _ijs_fingerprint)


# ----------------------------------------------------------------------
# Inner update dispatch (Definition 7)
# ----------------------------------------------------------------------
InnerUpdateFn = Callable[[StreamOperation, HierarchicalEventModel],
                         Dict[str, EventModel]]

_REGISTRY: "Dict[Tuple[Type[StreamOperation], Type[ConstructionRule]], InnerUpdateFn]" = {}


def register_inner_update(op_type: Type[StreamOperation],
                          rule_type: Type[ConstructionRule],
                          fn: InnerUpdateFn) -> None:
    """Register an inner update function B_{Θ, C} for an
    (operation, construction rule) pair."""
    _REGISTRY[(op_type, rule_type)] = fn


def _lookup(op: StreamOperation, rule: ConstructionRule) -> InnerUpdateFn:
    for op_type in type(op).__mro__:
        for rule_type in type(rule).__mro__:
            fn = _REGISTRY.get((op_type, rule_type))
            if fn is not None:
                return fn
    raise ModelError(
        f"no inner update function registered for operation "
        f"{type(op).__name__} on construction rule {type(rule).__name__}")


def apply_operation(stream: EventModel,
                    op: StreamOperation) -> EventModel:
    """Apply a flat operation to a (possibly hierarchical) stream.

    Flat stream: the operation output, plain.  Hierarchical stream: the
    outer stream is transformed by the operation and all inner streams by
    the registered inner update function (paper's composition rule after
    Definition 6).
    """
    if not isinstance(stream, HierarchicalEventModel):
        return maybe_compile(op.apply_flat(stream))
    update = _lookup(op, stream.rule)
    new_outer = maybe_compile(op.apply_flat(stream.outer))
    new_inner = update(op, stream)
    return stream.replace(outer=new_outer, inner=new_inner,
                          name=f"{stream.name}'")


# ----------------------------------------------------------------------
# Concrete inner update functions
# ----------------------------------------------------------------------
def _inner_update_theta_pack(op: BusyWindowOutput,
                             hem: HierarchicalEventModel
                             ) -> "Dict[str, EventModel]":
    """B_{Θ_τ, C_pa} — paper Definition 9.

    Inner streams that are themselves hierarchical (nested packing, see
    :mod:`repro.core.nesting`) are shifted recursively: the whole nested
    hierarchy experienced the same transport.
    """
    from .nesting import shift_hierarchy  # late import: avoid cycle

    k = hem.outer.simultaneity()
    jitter = op.r_max - op.r_min
    return {label: shift_hierarchy(hem.inner(label), jitter, op.r_min, k)
            for label in hem.labels}


def _inner_update_shaper_pack(op: ShaperOperation,
                              hem: HierarchicalEventModel
                              ) -> "Dict[str, EventModel]":
    """Shaper counterpart of Definition 9: delay span = worst shaping
    delay, spacing = shaper distance."""
    from .nesting import shift_hierarchy  # late import: avoid cycle

    shaped = op.apply_flat(hem.outer)
    jitter = shaped.max_delay
    if jitter == INF:
        raise ModelError(
            "shaper is unstable for this outer stream (rate exceeds 1/d); "
            "inner streams cannot be bounded")
    k = hem.outer.simultaneity()
    return {label: shift_hierarchy(hem.inner(label), jitter, op.d, k)
            for label in hem.labels}


# Passthrough-style hierarchies (OR/AND): every inner event is an outer
# event, so the generalised Definition 9 applies unchanged.
register_inner_update(BusyWindowOutput, PackRule, _inner_update_theta_pack)
register_inner_update(BusyWindowOutput, OrRule, _inner_update_theta_pack)
register_inner_update(BusyWindowOutput, AndRule, _inner_update_theta_pack)
register_inner_update(ShaperOperation, PackRule, _inner_update_shaper_pack)
register_inner_update(ShaperOperation, OrRule, _inner_update_shaper_pack)
register_inner_update(ShaperOperation, AndRule, _inner_update_shaper_pack)
