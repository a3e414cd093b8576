"""Hierarchical stream constructors (paper Definitions 4 and 8).

A hierarchical stream constructor ``Ω : Fⁿ → H`` combines several event
streams into a hierarchical event stream.  For every flat stream
constructor there is a hierarchical counterpart whose outer stream equals
the flat constructor's output (paper's note after Def. 5):

* :func:`hsc_or` / :func:`hsc_and` — hierarchical OR/AND combination;
  inner streams pass through unchanged (each inner event *is* an outer
  event).

* :func:`hsc_pack` — the paper's ``Ω_pa`` (Def. 8), modelling the AUTOSAR
  COM layer's frame packing.  Given triggering and pending input streams
  (and an optional transmission timer):

  - outer stream = OR-join of all *triggering* streams and the timer
    (paper eqs. (3)/(4); "a timer is treated as an additional triggering
    signal");
  - triggering inner streams keep their bounds (eqs. (5)/(6)):
    every triggering signal immediately causes a frame;
  - pending inner streams (eqs. (7)/(8))::

        δ'⁻_i(n) = max( δ⁻_i(n) - δ⁺_out(2),  δ⁻_out(n) )
        δ'⁺_i(n) = ∞

    — the first of n pending signals may just miss a frame and wait up to
    the maximum frame distance δ⁺_out(2); each frame carries at most one
    new value of a pending signal, so n transported values also need at
    least n frames.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Sequence, Tuple

from .._errors import ModelError
from ..eventmodels.base import EventModel
from ..eventmodels.compile import fingerprint, register_fingerprint
from ..eventmodels.curves import CachedModel
from ..eventmodels.operations import and_join, or_join
from ..timebase import INF
from .hem import ConstructionRule, HierarchicalEventModel


class TransferProperty(enum.Enum):
    """AUTOSAR signal transfer property (paper section 4)."""

    TRIGGERING = "triggering"
    PENDING = "pending"


class OrRule(ConstructionRule):
    """Construction rule of the hierarchical OR combination."""

    name = "or"

    def describe(self) -> str:
        return "hierarchical OR combination (inner streams pass through)"


class AndRule(ConstructionRule):
    """Construction rule of the hierarchical AND combination."""

    name = "and"

    def describe(self) -> str:
        return "hierarchical AND combination (inner streams pass through)"


class PackRule(ConstructionRule):
    """``C_Ω`` of the pack constructor: remembers transfer properties and
    the simultaneity of the outer stream at construction time (needed by
    the inner update function of Def. 9)."""

    name = "pack"

    def __init__(self, properties: "Dict[str, TransferProperty]",
                 has_timer: bool):
        self.properties = dict(properties)
        self.has_timer = has_timer

    def describe(self) -> str:
        trig = [k for k, v in self.properties.items()
                if v is TransferProperty.TRIGGERING]
        pend = [k for k, v in self.properties.items()
                if v is TransferProperty.PENDING]
        timer = " + timer" if self.has_timer else ""
        return f"pack(triggering={trig}{timer}, pending={pend})"

    def fingerprint_key(self) -> tuple:
        return (self.name, self.has_timer,
                tuple(sorted((k, v.value)
                             for k, v in self.properties.items())))


class PendingInnerModel(EventModel):
    """Inner event model of a pending signal after packing (eqs. (7)/(8)).

    Lazily evaluates against the signal's source model and the frame
    (outer) model so that later refinements of either propagate naturally
    when the HEM is rebuilt in a new global iteration.
    """

    def __init__(self, signal: EventModel, outer: EventModel,
                 name: str = "pending"):
        self._signal = signal
        self._outer = outer
        self.name = name

    def delta_min(self, n: int) -> float:
        self._check_n(n)
        if n < 2:
            return 0.0
        gap = self._outer.delta_plus(2)
        candidate = self._signal.delta_min(n) - gap if gap != INF else 0.0
        return max(candidate, self._outer.delta_min(n))

    def delta_plus(self, n: int) -> float:
        self._check_n(n)
        if n < 2:
            return 0.0
        return INF

    def long_run_rate(self) -> float:
        # δ'⁻ is the max of the signal's and the frames' δ⁻; without a
        # maximum frame distance only the frames' term is left.
        outer = self._outer.long_run_rate()
        if self._outer.delta_plus(2) == INF:
            return outer
        return min(self._signal.long_run_rate(), outer)

    def delta_min_block(self, n_max: int) -> list:
        self._check_n(n_max)
        sig = self._signal.delta_min_block(n_max)
        out = self._outer.delta_min_block(n_max)
        gap = self._outer.delta_plus(2)
        if gap == INF:
            return [0.0, 0.0] + out[2:]
        return sig[:2] + [max(sig[n] - gap, out[n])
                          for n in range(2, n_max + 1)]

    def delta_plus_block(self, n_max: int) -> list:
        self._check_n(n_max)
        return [0.0] * min(n_max + 1, 2) + [INF] * (n_max - 1)


def _pending_fingerprint(model: PendingInnerModel):
    signal = fingerprint(model._signal)
    outer = fingerprint(model._outer)
    if signal is None or outer is None:
        return None
    return ("pending", signal, outer)


register_fingerprint(PendingInnerModel, _pending_fingerprint)


def hsc_or(streams: "Dict[str, EventModel]",
           name: str = "hor") -> HierarchicalEventModel:
    """Hierarchical OR combination: outer = OR-join, inner pass through."""
    if not streams:
        raise ModelError("hsc_or needs at least one input stream")
    outer = or_join(list(streams.values()), name=f"{name}.out")
    return HierarchicalEventModel(outer, dict(streams), OrRule(), name=name)


def hsc_and(streams: "Dict[str, EventModel]",
            name: str = "hand") -> HierarchicalEventModel:
    """Hierarchical AND combination: outer = AND-join, inner pass through."""
    if not streams:
        raise ModelError("hsc_and needs at least one input stream")
    outer = and_join(list(streams.values()), name=f"{name}.out")
    return HierarchicalEventModel(outer, dict(streams), AndRule(), name=name)


def hsc_pack(signals: "Dict[str, Tuple[EventModel, TransferProperty]]",
             timer: Optional[EventModel] = None,
             name: str = "frame") -> HierarchicalEventModel:
    """The pack constructor ``Ω_pa`` (paper Definition 8).

    Parameters
    ----------
    signals:
        Mapping ``label -> (source event model, transfer property)`` for
        every signal packed into the frame.
    timer:
        Event model of the transmission timer, present for *periodic* and
        *mixed* frames; ``None`` for *direct* frames.
    name:
        Name of the resulting hierarchical stream (the frame).

    Raises
    ------
    ModelError:
        If no triggering signal and no timer exist — such a frame would
        never be transmitted, and the pending signals could never be
        delivered.
    """
    if not signals:
        raise ModelError("hsc_pack needs at least one signal")
    triggering = [em for em, prop in signals.values()
                  if prop is TransferProperty.TRIGGERING]
    if timer is not None:
        triggering.append(timer)
    if not triggering:
        raise ModelError(
            f"frame {name!r} has neither triggering signals nor a timer; "
            f"it would never be transmitted")

    outer = or_join(triggering, name=f"{name}.out")

    inner: "Dict[str, EventModel]" = {}
    for label, (em, prop) in signals.items():
        if prop is TransferProperty.TRIGGERING:
            # eqs. (5)/(6): the frame is sent immediately for every
            # triggering signal — the inner stream equals the source.
            inner[label] = em
        else:
            # eqs. (7)/(8).
            inner[label] = CachedModel(
                PendingInnerModel(em, outer, name=f"{label}@{name}"),
                name=f"{label}@{name}")

    rule = PackRule({label: prop for label, (_, prop) in signals.items()},
                    has_timer=timer is not None)
    return HierarchicalEventModel(outer, inner, rule, name=name)
