"""Curve compilation: flatten derived event-model chains into arrays.

Every global iteration of the compositional fixed point rebuilds the full
derived-model graph — :class:`~repro.eventmodels.operations.TaskOutputModel`
recursions stacked on pairwise OR-join folds stacked on
:class:`~repro.eventmodels.curves.CachedModel` wrappers — so a single
``eta_plus(dt)`` inside a busy window triggers an exponential+binary
search that cascades through O(depth) Python virtual calls, and all
memoisation is thrown away when the next iteration's resolver is built.

This module compiles such chains into **array-backed curves**:

* :func:`compile_model` snapshots any event model into a
  :class:`CompiledEventModel` — a :class:`CurveEventModel` subclass whose
  δ⁻/δ⁺ prefixes are plain lists.  While the source model is retained
  (the default), queries beyond the stored prefix are answered by the
  source: walks, η searches and block reads grow one prefix at a time
  in geometric blocks, and a single point query far past the prefix
  asks the source at that point only.  Every returned value is
  **exactly** the lazy model's value — analysis results are bit-identical
  with compilation on or off.  A *detached* compiled curve (``keep_source
  =False``) falls back to the conservative additive extension of
  :mod:`repro.eventmodels.curves` (or an exact detected-periodic
  extension, see :func:`compile_model`), so it still *bounds* the
  original: δ⁻ never overestimated, δ⁺ never underestimated.

* η⁺/η⁻ become a single :func:`bisect.bisect` over the prefix instead of
  the generic doubling + binary search through the virtual-call tower,
  and the block APIs (:meth:`EventModel.delta_min_block`) return array
  slices.

* A **structural fingerprint cache** carries compiled curves across
  global iterations: :func:`fingerprint` computes a canonical recursive
  key of a derived chain (operation parameters + input fingerprints), and
  :func:`maybe_compile` reuses the compiled curve whenever the key is
  unchanged — iteration k+1 only recompiles streams whose inputs actually
  moved.  Fingerprints are *semantically exact*: two chains with equal
  fingerprints have identical δ functions, so cache reuse never changes
  results.

Compilation is **on by default**; disable it for the whole process with
the environment variable ``REPRO_COMPILE=0`` or at runtime via
``repro.eventmodels.compile.configure(enabled=False)``.

Observability (when :mod:`repro.obs` is enabled): ``compile.compilations``,
``compile.cache.hits`` / ``compile.cache.misses``, ``compile.extensions``
counters and the ``compile.prefix_length`` histogram.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from math import isinf
from typing import Callable, Dict, Optional, Tuple, Type

from .. import obs as _obs
from .._errors import UnboundedStreamError
from .base import MAX_EVENTS, EventModel, NullEventModel
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


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "off", "no", "")


#: Master switch — compile derived chains inside the analysis engine.
enabled = _env_flag("REPRO_COMPILE", True)

#: Default prefix length sampled at compile time.  33 covers the engine's
#: convergence-check range (``CONVERGENCE_CHECK_N = 32``), which is
#: evaluated for every propagated model anyway, so the eager sampling is
#: effectively free; deeper queries grow the prefix on demand.
N_HINT = 33

#: Minimum derived-chain depth for :func:`maybe_compile` to bother:
#: depth 1 is a leaf model (standard/curve — already O(1) to evaluate),
#: depth 2 is one operation over a leaf.
MIN_DEPTH = 2

#: Capacity of the global fingerprint cache (compiled curves).
CACHE_SIZE = 4096


class CompilationCache:
    """LRU cache mapping structural fingerprints to compiled curves.

    Keys are the hashable tuples produced by :func:`fingerprint`; equal
    keys imply semantically identical chains, so sharing one compiled
    curve between them (and across global iterations) is exact.
    """

    def __init__(self, maxsize: int = 4096):
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, CompiledEventModel]" = \
            OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> "Optional[CompiledEventModel]":
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, model: "CompiledEventModel") -> None:
        self._entries[key] = model
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        """Hit/miss counters and occupancy, for reports and benchmarks."""
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._entries), "maxsize": self.maxsize}

    def __len__(self) -> int:
        return len(self._entries)


#: Process-global cache; cleared via :func:`configure`.
_cache = CompilationCache(CACHE_SIZE)


def cache() -> CompilationCache:
    """The process-global compilation cache."""
    return _cache


def configure(*, enabled: Optional[bool] = None,
              reset_cache: bool = False) -> None:
    """Adjust curve compilation for the whole process.

    ``configure(enabled=False)`` is the single switch that restores the
    fully lazy evaluation path (equivalently set ``REPRO_COMPILE=0``
    before the process starts); ``reset_cache=True`` empties the
    fingerprint cache for cold-start timing.
    """
    if enabled is not None:
        globals()["enabled"] = enabled
    if reset_cache:
        _cache.clear()


# ----------------------------------------------------------------------
# the compiled curve
# ----------------------------------------------------------------------
class CompiledEventModel(CurveEventModel):
    """Array-backed snapshot of an event model.

    Constructed by :func:`compile_model`; not validated like a
    user-supplied :class:`CurveEventModel` — the prefix is sampled
    verbatim from the source model, whose consistency is its own
    responsibility.

    With the source attached (the default), values beyond the stored
    prefix come from the source — *exact*, never approximated: a query
    within twice the prefix grows that side's array in a geometric
    block, one further out is a single source evaluation.  The δ⁻ and
    δ⁺ prefixes grow independently, so their lengths may differ.
    Detached, the inherited conservative extension of
    :class:`CurveEventModel` applies.
    """

    __slots__ = ("_source", "_fp")

    def __init__(self, delta_min_prefix, delta_plus_prefix,
                 source: "Optional[EventModel]" = None,
                 n_period: Optional[int] = None,
                 t_period: Optional[float] = None,
                 fp: Optional[tuple] = None,
                 name: str = "compiled"):
        # Deliberately bypass CurveEventModel.__init__: sampled prefixes
        # need no re-validation, and overload-shaped chains may violate
        # the δ⁻ <= δ⁺ cross-check that user input must satisfy.
        self._dmin = list(delta_min_prefix)
        self._dplus = list(delta_plus_prefix)
        self._n_period = n_period
        self._t_period = t_period
        self._source = source
        self._fp = fp
        self.name = name

    # ------------------------------------------------------------------
    @property
    def source(self) -> "Optional[EventModel]":
        """The lazy model this curve was compiled from (None if detached)."""
        return self._source

    @property
    def fingerprint_key(self) -> Optional[tuple]:
        """Structural fingerprint of the source chain at compile time."""
        return self._fp

    def detach(self) -> None:
        """Drop the source reference; beyond-prefix queries fall back to
        the conservative extension rule."""
        self._source = None

    # ------------------------------------------------------------------
    def _grow_to(self, n: int, plus: bool = False) -> list:
        """The δ⁻ prefix (δ⁺ with ``plus``), grown from the source so it
        covers δ(n).

        Grows geometrically (at least doubling) so repeated deep queries
        amortise to O(1) source evaluations per index.  The other side
        is left alone: a δ⁻ walk never pays for δ⁺ samples.  The grown
        prefix is a new list that replaces the old one instead of
        extending it: the fingerprint cache shares curves between
        threads, and a thread still reading the old list must never see
        it change under it.  Callers index the returned list.
        """
        prefix = self._dplus if plus else self._dmin
        src = self._source
        top = len(prefix) - 1
        if src is None or n <= top:
            return prefix
        target = max(n, 2 * top)
        if _obs.enabled:
            _obs.metrics().counter("compile.extensions").inc()
        # Block sampling lets chain nodes compute the whole prefix in one
        # DP sweep (O(n) per node) instead of per-point recursion; its
        # first entries equal the old prefix, sampled the same way.
        if plus:
            prefix = self._dplus = src.delta_plus_block(target)
        else:
            prefix = self._dmin = src.delta_min_block(target)
        return prefix

    # ------------------------------------------------------------------
    # Point queries within twice the prefix grow it, so walks over n stay
    # amortised O(1); a query further out (the utilisation check's
    # δ⁻(1000)) asks the source at that one point and leaves the prefix
    # as it is.  Every model's point value equals its block entry, so
    # both routes return the same float.
    def delta_min(self, n: int) -> float:
        self._check_n(n)
        if n < 2:
            return 0.0
        dmin = self._dmin
        if n < len(dmin):
            return dmin[n]
        src = self._source
        if src is None:
            return CurveEventModel.delta_min(self, n)
        if n > 2 * (len(dmin) - 1):
            return src.delta_min(n)
        return self._grow_to(n)[n]

    def delta_plus(self, n: int) -> float:
        self._check_n(n)
        if n < 2:
            return 0.0
        dplus = self._dplus
        if n < len(dplus):
            return dplus[n]
        src = self._source
        if src is None:
            return CurveEventModel.delta_plus(self, n)
        if n > 2 * (len(dplus) - 1):
            return src.delta_plus(n)
        return self._grow_to(n, plus=True)[n]

    # ------------------------------------------------------------------
    # bisect-based characteristic functions over the prefix
    # ------------------------------------------------------------------
    def eta_plus(self, dt: float) -> int:
        if dt <= 0:
            return 0
        dmin = self._dmin
        if dmin[-1] < dt:
            if self._source is None:
                # Detached: defer to the generic pseudo-inverse over the
                # extension rule.
                return EventModel.eta_plus(self, dt)
            while dmin[-1] < dt:
                top = len(dmin) - 1
                if top > MAX_EVENTS:
                    raise UnboundedStreamError(
                        f"eta_plus({dt!r}) exceeds {MAX_EVENTS} events "
                        f"for {self!r}; the stream has no effective rate "
                        f"limit")
                dmin = self._grow_to(2 * top)
        # Largest n with δ⁻(n) < dt; entries 0/1 are 0 < dt, so the
        # insertion point is >= 2 and the result >= 1 — identical to the
        # generic exponential+binary search, in one bisect.
        return bisect_left(dmin, dt) - 1

    def eta_min(self, dt: float) -> int:
        if dt < 0:
            return 0
        dplus = self._dplus
        if dplus[-1] <= dt:
            if self._source is None:
                return EventModel.eta_min(self, dt)
            while dplus[-1] <= dt:
                top = len(dplus) - 1
                if top > MAX_EVENTS:
                    raise UnboundedStreamError(
                        f"eta_min({dt!r}) exceeds {MAX_EVENTS} events "
                        f"for {self!r}")
                dplus = self._grow_to(2 * top, plus=True)
        # Smallest n >= 0 with δ⁺(n + 2) > dt.
        return bisect_right(dplus, dt) - 2

    # ------------------------------------------------------------------
    # block evaluation — array slices instead of per-n virtual calls
    # ------------------------------------------------------------------
    def delta_min_block(self, n_max: int) -> list:
        dmin = self._dmin
        if n_max >= len(dmin):
            if self._source is None:
                return dmin[:] + [
                    CurveEventModel.delta_min(self, n)
                    for n in range(len(dmin), n_max + 1)]
            dmin = self._grow_to(n_max)
        return dmin[:n_max + 1]

    def delta_plus_block(self, n_max: int) -> list:
        dplus = self._dplus
        if n_max >= len(dplus):
            if self._source is None:
                return dplus[:] + [
                    CurveEventModel.delta_plus(self, n)
                    for n in range(len(dplus), n_max + 1)]
            dplus = self._grow_to(n_max, plus=True)
        return dplus[:n_max + 1]

    def __repr__(self) -> str:
        state = "attached" if self._source is not None else "detached"
        return (f"<Compiled {self.name} N={len(self._dmin) - 1} "
                f"{state}>")


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
#: Events of verified linear tail required before the detected-periodic
#: extension is accepted, and the probe offsets checked against the
#: source beyond the prefix.
_PERIOD_TAIL = 8
_PERIOD_PROBES = (1, 2, 5, 13)


def _detect_tail_period(dmin, dplus, source) -> "Optional[float]":
    """Detect an exactly linear tail of both δ prefixes.

    Returns the per-event distance ``t`` such that
    ``δ(n + 1) = δ(n) + t`` holds (in exact float arithmetic) over the
    last ``_PERIOD_TAIL`` prefix entries *and* at probe points beyond the
    prefix, or None.  Heuristic — used only for detached curves, where it
    upgrades the conservative additive extension to the exact periodic
    one for eventually-linear chains (standard models and operation
    outputs over them).
    """
    top = len(dmin) - 1
    if top < _PERIOD_TAIL + 2 or isinf(dplus[top]) or isinf(dmin[top]):
        return None
    t = dmin[top] - dmin[top - 1]
    if t <= 0:
        return None
    for i in range(top - _PERIOD_TAIL + 1, top + 1):
        if dmin[i] - dmin[i - 1] != t or dplus[i] - dplus[i - 1] != t:
            return None
    for j in _PERIOD_PROBES:
        if source.delta_min(top + j) != dmin[top] + j * t:
            return None
        if source.delta_plus(top + j) != dplus[top] + j * t:
            return None
    return t


def compile_model(model: EventModel, n_hint: Optional[int] = None,
                  keep_source: bool = True,
                  detect_period: bool = True,
                  name: Optional[str] = None) -> CurveEventModel:
    """Snapshot *model* into an array-backed :class:`CompiledEventModel`.

    Parameters
    ----------
    model:
        Any (flat) event model; typically a derived chain.
    n_hint:
        Prefix length sampled eagerly (defaults to the module-level
        :data:`N_HINT`).  Queries beyond it grow the prefix from the
        source, so the hint is a performance knob, not a correctness one.
    keep_source:
        Retain the source model for exact beyond-prefix growth (default).
        With ``keep_source=False`` the curve is detached: beyond the
        prefix it applies the conservative additive extension — or, when
        ``detect_period`` found an exactly linear tail, the exact
        periodic extension.
    detect_period:
        Attempt tail-period detection before detaching (ignored while the
        source is kept, where growth is exact anyway).
    """
    top = n_hint if n_hint is not None else N_HINT
    top = max(top, 2)
    dmin = model.delta_min_block(top)
    dplus = model.delta_plus_block(top)
    n_period = t_period = None
    if not keep_source and detect_period:
        t = _detect_tail_period(dmin, dplus, model)
        if t is not None:
            n_period, t_period = 1, t
    if _obs.enabled:
        _obs.metrics().counter("compile.compilations").inc()
        _obs.metrics().histogram("compile.prefix_length").observe(top)
    return CompiledEventModel(
        dmin, dplus,
        source=model if keep_source else None,
        n_period=n_period, t_period=t_period,
        fp=fingerprint(model),
        name=name if name is not None else f"compiled({model.name})")


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
    plus the fingerprints of input models), or None if the model cannot
    be fingerprinted — None poisons the whole chain, disabling cache
    reuse but not compilation itself.
    """
    _FP_REGISTRY[cls] = fn


def fingerprint(model: EventModel) -> Optional[tuple]:
    """Canonical structural key of a (derived) event model, or None."""
    for klass in type(model).__mro__:
        fn = _FP_REGISTRY.get(klass)
        if fn is not None:
            return fn(model)
    return None


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
# A compiled curve stands for its source chain: its arrays grow over
# time, so the stable identity is the fingerprint taken at compile time.
register_fingerprint(CompiledEventModel, lambda m: m._fp)
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


def chain_depth(fp: Optional[tuple]) -> int:
    """Nesting depth of a fingerprint: 1 for a leaf model, +1 per
    stacked operation.  None (unfingerprintable) counts as unbounded so
    such chains always clear the compile threshold."""
    if fp is None:
        return MAX_EVENTS
    if not isinstance(fp, tuple):
        return 0
    return 1 + max((chain_depth(x) for x in fp
                    if isinstance(x, tuple)), default=0)


# ----------------------------------------------------------------------
# structural (container) compilation hooks — e.g. hierarchical models
# ----------------------------------------------------------------------
StructuralCompileFn = Callable[[EventModel, Optional[str]], EventModel]

_STRUCTURAL: "Dict[Type[EventModel], StructuralCompileFn]" = {}


def register_structural_compile(cls: "Type[EventModel]",
                                fn: StructuralCompileFn) -> None:
    """Register a container-aware compile hook: *fn(model, name)* should
    compile the model's constituent streams (via :func:`maybe_compile`)
    and return the rebuilt container.  Used by
    :class:`~repro.core.hem.HierarchicalEventModel` so hierarchies keep
    their structure while outer and inner streams become array-backed."""
    _STRUCTURAL[cls] = fn


#: Leaf types that are already O(1)/array-backed — never recompiled.
_NO_COMPILE = (NullEventModel, StandardEventModel, CurveEventModel)


def maybe_compile(model: EventModel,
                  name: Optional[str] = None) -> EventModel:
    """Compile *model* if compilation is enabled and worthwhile.

    Returns the model unchanged when compilation is disabled, when the
    model is already array-backed or closed-form, or when its chain depth
    is below :data:`MIN_DEPTH`.  Compiled results are shared through the
    process-global fingerprint cache, which is what carries curves across
    global fixed-point iterations.
    """
    if not enabled:
        return model
    structural = None
    for klass in type(model).__mro__:
        structural = _STRUCTURAL.get(klass)
        if structural is not None:
            return structural(model, name)
    if isinstance(model, _NO_COMPILE):
        return model
    fp = fingerprint(model)
    if fp is not None and chain_depth(fp) < MIN_DEPTH:
        return model
    if fp is not None:
        hit = _cache.get(fp)
        if hit is not None:
            if _obs.enabled:
                _obs.metrics().counter("compile.cache.hits").inc()
            return hit
        if _obs.enabled:
            _obs.metrics().counter("compile.cache.misses").inc()
    compiled = compile_model(model, name=name)
    if fp is not None:
        _cache.put(fp, compiled)
    return compiled


def compile_or_cache(model: EventModel,
                     name: Optional[str] = None) -> EventModel:
    """Compile *model*, or fall back to a memoising
    :class:`CachedModel` wrapper when compilation is disabled or skipped
    — the call-site idiom for derived models on the engine's hot path."""
    out = maybe_compile(model, name=name)
    if out is not model or isinstance(model, (CurveEventModel,
                                              NullEventModel,
                                              StandardEventModel,
                                              CachedModel)):
        return out
    return CachedModel(model, name=name)
