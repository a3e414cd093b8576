"""Nested stream hierarchies: hierarchies of hierarchies.

The paper generalises "the concept of a stream hierarchy to embed
different types of streams in a higher level structure".  Its evaluation
uses one level (signals in frames); this module provides the natural
multi-level extension a gateway needs: CAN frames — themselves
hierarchical streams carrying signals — re-packed into backbone
super-frames (e.g. segmented onto FlexRay/Ethernet containers).

Mechanics:

* :func:`hsc_pack` already accepts any :class:`EventModel` as an input —
  including a :class:`HierarchicalEventModel`, whose *outer* stream then
  drives the OR-combination.  What a plain pack loses is access to the
  nested inner streams after operations are applied.
* :func:`shift_hierarchy` applies the Definition 9 jitter/spacing shift
  *recursively*: the nested hierarchy travelled inside the super-frame,
  so every level of it is delayed and serialised identically.
* :func:`unpack_deep` flattens a nested hierarchy into
  ``"frame/signal"`` path labels, giving receivers the per-leaf streams.

The inner update functions registered by :mod:`repro.core.update` call
:func:`shift_hierarchy`, so nesting composes with the existing operation
dispatch without any new registration.
"""

from __future__ import annotations

from typing import Dict

from .._errors import ModelError
from ..eventmodels.base import EventModel
from ..eventmodels.compile import maybe_compile
from .hem import HierarchicalEventModel, is_hierarchical

#: Separator in flattened path labels produced by :func:`unpack_deep`.
PATH_SEP = "/"


def shift_hierarchy(model: EventModel, jitter: float, spacing: float,
                    k: int, name_suffix: str = "'") -> EventModel:
    """Apply a Definition-9 style shift to a (possibly nested) stream.

    Flat model: returns an
    :class:`~repro.core.update.InnerJitterSpacingModel`.  Hierarchical
    model: shifts the outer stream and every inner stream (recursively),
    preserving the construction rule — the whole nested hierarchy
    experienced the same transport.
    """
    from .update import InnerJitterSpacingModel  # avoid import cycle

    if not is_hierarchical(model):
        return maybe_compile(
            InnerJitterSpacingModel(model, jitter, spacing, k,
                                    name=f"{model.name}{name_suffix}"))
    new_outer = shift_hierarchy(model.outer, jitter, spacing, k,
                                name_suffix)
    new_inner = {
        label: shift_hierarchy(model.inner(label), jitter, spacing, k,
                               name_suffix)
        for label in model.labels
    }
    return model.replace(outer=new_outer, inner=new_inner,
                         name=f"{model.name}{name_suffix}")


def depth(model: EventModel) -> int:
    """Nesting depth: 0 for flat streams, 1 for signals-in-frames, 2 for
    frames-in-super-frames, ..."""
    if not is_hierarchical(model):
        return 0
    return 1 + max(depth(inner) for inner in model.inner_models)


def unpack_deep(model: HierarchicalEventModel
                ) -> "Dict[str, EventModel]":
    """Flatten a nested hierarchy into leaf streams keyed by path.

    A signal ``S1`` inside frame ``F1`` inside super-frame ``B`` yields
    the key ``"F1/S1"`` when unpacking ``B`` (top-level labels are not
    prefixed with the super-frame's own name).  Intermediate hierarchies
    are descended into, not returned; use
    :func:`~repro.core.deconstruct.unpack` for the single-level view.
    """
    if not is_hierarchical(model):
        raise ModelError(f"expected a hierarchical model, got {model!r}")
    leaves: "Dict[str, EventModel]" = {}
    _collect(model, "", leaves)
    return leaves


def _collect(model: HierarchicalEventModel, prefix: str,
             out: "Dict[str, EventModel]") -> None:
    for label in model.labels:
        inner = model.inner(label)
        path = f"{prefix}{label}" if not prefix \
            else f"{prefix}{PATH_SEP}{label}"
        if is_hierarchical(inner):
            _collect(inner, path, out)
        else:
            out[path] = inner


def unpack_path(model: HierarchicalEventModel, path: str) -> EventModel:
    """Resolve one ``"frame/signal"`` path through a nested hierarchy."""
    current: EventModel = model
    for part in path.split(PATH_SEP):
        if not is_hierarchical(current):
            raise ModelError(
                f"path {path!r}: {part!r} descends into a flat stream")
        current = current.inner(part)
    return current
