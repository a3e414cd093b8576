"""Chain sharing: intern derived event-model chains by fingerprint.

Every global iteration of the compositional fixed point rebuilds the
derived-model graph — :class:`~repro.eventmodels.operations.TaskOutputModel`
(Θ_τ) outputs, pairwise OR-join folds, Definition 9 inner updates — and a
freshly built chain starts with empty memos.  Most of these chains are
rebuilt unchanged: only streams whose inputs moved differ from the
previous iteration, or from the previous design point of a sweep.

This module lets equal chains share one object:

* :func:`fingerprint` computes a canonical recursive key of a chain
  (operation parameters + input fingerprints).  Fingerprints are
  *semantically exact*: two chains with equal fingerprints have identical
  δ functions.  A model carries its key once computed, so the key of a
  new node over already-keyed inputs costs that one node.

* :func:`maybe_compile` interns a chain in the process-global
  :class:`CompilationCache`.  On a fingerprint hit it returns the chain
  first stored under that key, whose δ memos (Θ_τ and the OR-join keep
  theirs as prefix lists) are already filled; on a miss it stores and
  returns the model itself, marked as the shared representative, so
  interning it again returns it with no lookup.  Sharing changes which
  object answers a query, never the answer, so analysis results are
  bit-identical with sharing on or off.

Setting the module attribute :data:`enabled` to False makes
:func:`maybe_compile` return every model unchanged: the unshared
reference path that the ``compiled-lazy-identical`` contract and the
tests compare against.

Observability: the cache counts its own lookups,
:meth:`CompilationCache.stats` (hits, misses, entries), whether
telemetry is on or not; the convergence report footer, the trace CLI
and ``GET /metrics`` read those counts where they show them.  A lookup
writes no telemetry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Type

from .base import EventModel, NullEventModel
from .combinators import _IntersectionModel, _UnionModel
from .curves import CachedModel, CurveEventModel
from .operations import (
    DminShaper,
    TaskOutputModel,
    _AndJoin,
    _PairwiseOrJoin,
    _SuperpositionOrJoin,
)
from .standard import StandardEventModel

#: Share equal chains inside the analysis engine.  Tests and the soak
#: oracle set it to False to reach the unshared reference path.
enabled = True

#: Capacity of the global fingerprint cache (shared chains).
CACHE_SIZE = 4096


class CompilationCache:
    """LRU cache mapping structural fingerprints to shared chains.

    Keys are the hashable tuples produced by :func:`fingerprint`; equal
    keys imply semantically identical chains, so sharing one chain
    between them (and across global iterations) is exact.  The serve
    daemon's workers share the process-global cache, so every operation
    holds a lock: a ``get`` must never race the ``put`` that evicts its
    key.
    """

    def __init__(self, maxsize: int = 4096):
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, EventModel]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> Optional[EventModel]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, model: EventModel) -> None:
        with self._lock:
            self._entries[key] = model
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict:
        """Hit/miss counters and occupancy, for reports and benchmarks."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._entries), "maxsize": self.maxsize}

    def __len__(self) -> int:
        return len(self._entries)


#: Process-global cache; ``cache().clear()`` empties it.
_cache = CompilationCache(CACHE_SIZE)


def cache() -> CompilationCache:
    """The process-global fingerprint cache."""
    return _cache


# ----------------------------------------------------------------------
# structural fingerprints
# ----------------------------------------------------------------------
FingerprintFn = Callable[[EventModel], Optional[tuple]]

_FP_REGISTRY: "Dict[Type[EventModel], FingerprintFn]" = {}


def register_fingerprint(cls: "Type[EventModel]",
                         fn: FingerprintFn) -> None:
    """Register a fingerprint function for an event-model type.

    The function must return a hashable tuple that canonically encodes
    everything the model's δ functions depend on (operation parameters
    plus the fingerprints of input models, taken with
    :func:`fingerprint`), or None if the model cannot be fingerprinted —
    None poisons the whole chain, which then is never shared.

    :func:`fingerprint` calls *fn* once per object and carries the key
    on it (in ``_fp``), so the type must write every attribute the key
    reads in ``__init__`` only, never later.  A slotted type carries the
    key only if it declares the ``_fp`` slot (and, to be stored as a
    shared chain, ``_shared``); without them its key is recomputed at
    every call.
    """
    _FP_REGISTRY[cls] = fn


_UNKEYED = object()


def fingerprint(model: EventModel) -> Optional[tuple]:
    """Canonical structural key of a (derived) event model, or None.

    Computed once per object and carried on it afterwards: a chain's
    key reuses the carried keys of its inputs."""
    key = getattr(model, "_fp", _UNKEYED)
    if key is not _UNKEYED:
        return key
    for klass in type(model).__mro__:
        fn = _FP_REGISTRY.get(klass)
        if fn is not None:
            key = fn(model)
            break
    else:
        return None
    _carry(model, "_fp", key)
    return key


def _carry(model: EventModel, attr: str, value) -> None:
    """Write *attr* on *model*: through ``object.__setattr__``, because
    frozen dataclasses (the standard model) refuse a plain assignment;
    a slotted type without the slot simply carries nothing."""
    try:
        object.__setattr__(model, attr, value)
    except AttributeError:
        pass


def _all_or_none(tag: str, parts) -> Optional[tuple]:
    out = [tag]
    for part in parts:
        if part is None:
            return None
        out.append(part)
    return tuple(out)


register_fingerprint(NullEventModel, lambda m: ("null",))
register_fingerprint(
    StandardEventModel,
    lambda m: ("sem", m.period, m.jitter, m.d_min, m.sporadic))
register_fingerprint(
    CurveEventModel,
    lambda m: ("curve", tuple(m._dmin), tuple(m._dplus),
               m._n_period, m._t_period))
register_fingerprint(CachedModel, lambda m: fingerprint(m.wrapped))
register_fingerprint(
    TaskOutputModel,
    lambda m: _all_or_none("theta",
                           (m.r_min, m.r_max, fingerprint(m.input_model))))
register_fingerprint(
    _PairwiseOrJoin,
    lambda m: _all_or_none("or2", (fingerprint(m._a), fingerprint(m._b))))
register_fingerprint(
    _SuperpositionOrJoin,
    lambda m: _all_or_none("orsup",
                           (fingerprint(x) for x in m._models)))
register_fingerprint(
    _AndJoin,
    lambda m: _all_or_none("and", (fingerprint(x) for x in m._models)))
register_fingerprint(
    DminShaper,
    lambda m: _all_or_none("shaper",
                           (m.d, m._horizon, fingerprint(m._in))))
register_fingerprint(
    _IntersectionModel,
    lambda m: _all_or_none("isect",
                           (fingerprint(x) for x in m._models)))
register_fingerprint(
    _UnionModel,
    lambda m: _all_or_none("union",
                           (fingerprint(x) for x in m._models)))


# ----------------------------------------------------------------------
# structural (container) hooks — e.g. hierarchical models
# ----------------------------------------------------------------------
StructuralCompileFn = Callable[[EventModel], EventModel]

_STRUCTURAL: "Dict[Type[EventModel], StructuralCompileFn]" = {}


def register_structural_compile(cls: "Type[EventModel]",
                                fn: StructuralCompileFn) -> None:
    """Register a container-aware hook: *fn(model)* should share the
    model's constituent streams (via :func:`maybe_compile`) and return
    the rebuilt container.  Used by
    :class:`~repro.core.hem.HierarchicalEventModel` so hierarchies keep
    their structure while outer and inner streams are shared."""
    _STRUCTURAL[cls] = fn


#: Leaf types: closed-form or array-backed, nothing to share.
_LEAVES = (NullEventModel, StandardEventModel, CurveEventModel)


def maybe_compile(model: EventModel) -> EventModel:
    """The chain equal to *model* that every caller shares.

    Returns the chain first stored under *model*'s fingerprint, or
    stores, marks and returns *model* itself.  A marked model (the
    shared chain, or one the LRU has evicted since), leaf models, chains
    without a fingerprint and every model while :data:`enabled` is False
    come back unchanged; hierarchies go through their structural hook.
    """
    if not enabled or getattr(model, "_shared", False):
        return model
    for klass in type(model).__mro__:
        structural = _STRUCTURAL.get(klass)
        if structural is not None:
            return structural(model)
    if isinstance(model, _LEAVES):
        return model
    fp = fingerprint(model)
    if fp is None:
        return model
    shared = _cache.get(fp)
    if shared is None:
        _cache.put(fp, model)
        _carry(model, "_shared", True)
        return model
    return shared
