"""Hierarchical event models (paper Definitions 3–7).

A **hierarchical event stream** (Def. 3) results from combining n input
streams; it carries one *outer* event stream (the combined stream, e.g.
frame transmissions) and one *inner* event stream per embedded input
(e.g. the signals transported inside the frames).

The **hierarchical event model** (Def. 5) is the parameter tuple

    H = ( F_out, L, C )

with ``F_out`` the outer function tuple, ``L`` the list of inner function
tuples, and ``C`` the construction rule that produced the hierarchy.

Design note: :class:`HierarchicalEventModel` *is an* :class:`EventModel`
delegating its four characteristic functions to the outer stream.  This is
exactly the property the paper exploits in section 6 — "since HEMs can be
characterized by the four characteristic functions, similar to SEMs, the
different local scheduling analysis techniques can directly be reused".
Any local analysis in :mod:`repro.analysis` accepts a HEM transparently
and simply sees the outer stream.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Sequence, Tuple

from .._errors import ModelError
from ..eventmodels.base import EventModel
from ..eventmodels.compile import (
    fingerprint,
    maybe_compile,
    register_fingerprint,
    register_structural_compile,
)


class ConstructionRule(ABC):
    """The rule ``C_Ω`` recorded inside a HEM (paper Def. 5).

    The rule identifies which hierarchical stream constructor built the
    model and carries whatever constructor state the *inner update
    functions* (Def. 7) need — e.g. the pack rule remembers which inner
    streams are triggering and which are pending.
    """

    #: Identifier used for inner-update dispatch and reporting.
    name: str = "abstract"

    @abstractmethod
    def describe(self) -> str:
        """One-line human-readable description of the rule."""

    def fingerprint_key(self) -> tuple:
        """Canonical key of the rule for structural fingerprints
        (:mod:`repro.eventmodels.compile`).  Rules that carry constructor
        state the inner update functions read must override this so two
        hierarchies only share chains when that state agrees."""
        return (self.name,)


class HierarchicalEventModel(EventModel):
    """H = (F_out, L, C): outer stream + inner streams + construction rule.

    Immutable: operations on hierarchical streams return new instances.

    Parameters
    ----------
    outer:
        Event model of the combined (outer) stream — frame transmissions
        in the paper's COM-layer application.
    inner:
        Mapping from inner-stream label to its event model.  Order is
        preserved; ``L(i)`` of the paper's Def. 10 is the i-th value.
    rule:
        The construction rule ``C_Ω``.
    """

    def __init__(self, outer: EventModel,
                 inner: "Dict[str, EventModel]",
                 rule: ConstructionRule,
                 name: str = "hem"):
        if not inner:
            raise ModelError("a hierarchical event model needs at least "
                             "one inner stream")
        self._outer = outer
        self._inner = dict(inner)
        self._rule = rule
        self.name = name

    # ------------------------------------------------------------------
    # the outer stream IS the stream, for any flat consumer
    # ------------------------------------------------------------------
    def delta_min(self, n: int) -> float:
        return self._outer.delta_min(n)

    def delta_plus(self, n: int) -> float:
        return self._outer.delta_plus(n)

    def eta_plus(self, dt: float) -> int:
        return self._outer.eta_plus(dt)

    def eta_min(self, dt: float) -> int:
        return self._outer.eta_min(dt)

    def delta_min_block(self, n_max: int) -> list:
        return self._outer.delta_min_block(n_max)

    def delta_plus_block(self, n_max: int) -> list:
        return self._outer.delta_plus_block(n_max)

    def long_run_rate(self) -> float:
        return self._outer.long_run_rate()

    # ------------------------------------------------------------------
    # hierarchy accessors
    # ------------------------------------------------------------------
    @property
    def outer(self) -> EventModel:
        """F_out — the combined stream's event model."""
        return self._outer

    @property
    def rule(self) -> ConstructionRule:
        """C — the construction rule."""
        return self._rule

    @property
    def labels(self) -> Tuple[str, ...]:
        """Inner stream labels in construction order."""
        return tuple(self._inner)

    @property
    def inner_models(self) -> Tuple[EventModel, ...]:
        """L — the inner function tuples in construction order."""
        return tuple(self._inner.values())

    def inner(self, label: str) -> EventModel:
        """Event model of one embedded stream by label."""
        try:
            return self._inner[label]
        except KeyError:
            raise ModelError(
                f"no inner stream {label!r}; available: "
                f"{list(self._inner)}") from None

    def inner_by_index(self, i: int) -> EventModel:
        """``L(i)`` of the paper's Def. 10 (0-based here)."""
        try:
            return tuple(self._inner.values())[i]
        except IndexError:
            raise ModelError(
                f"inner index {i} out of range "
                f"(0..{len(self._inner) - 1})") from None

    def replace(self, outer: EventModel = None,
                inner: "Dict[str, EventModel]" = None,
                name: str = None) -> "HierarchicalEventModel":
        """Functional update — used by stream operations and inner
        update functions."""
        return HierarchicalEventModel(
            outer if outer is not None else self._outer,
            inner if inner is not None else self._inner,
            self._rule,
            name if name is not None else self.name)

    def __repr__(self) -> str:
        return (f"<HEM {self.name} outer={self._outer.name} "
                f"inner={list(self._inner)} rule={self._rule.name}>")


def is_hierarchical(model: EventModel) -> bool:
    """True if *model* carries an embedded stream hierarchy."""
    return isinstance(model, HierarchicalEventModel)


# ----------------------------------------------------------------------
# chain-sharing integration
# ----------------------------------------------------------------------
def _hem_fingerprint(model: HierarchicalEventModel):
    parts = [("rule",) + model.rule.fingerprint_key(),
             fingerprint(model.outer)]
    for label in model.labels:
        parts.append((label, fingerprint(model.inner(label))))
    out = ["hem"]
    for part in parts:
        if part is None or (len(part) == 2 and part[1] is None):
            return None
        out.append(part)
    return tuple(out)


def _hem_compile(model: HierarchicalEventModel):
    """Structural hook: share the outer and every inner stream while
    preserving the hierarchy and its construction rule."""
    outer = maybe_compile(model.outer)
    inner = {label: maybe_compile(model.inner(label))
             for label in model.labels}
    if outer is model.outer and all(inner[label] is model.inner(label)
                                    for label in model.labels):
        return model
    return model.replace(outer=outer, inner=inner)


register_fingerprint(HierarchicalEventModel, _hem_fingerprint)
register_structural_compile(HierarchicalEventModel, _hem_compile)
