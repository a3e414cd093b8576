"""Tests for chain sharing (repro.eventmodels.compile).

``maybe_compile`` interns derived chains by structural fingerprint, so a
chain built in one global iteration (or one design point) answers the
queries of every equal chain built later, its memos already filled.
Sharing must never change an answer: a shared chain equals a fresh,
unshared one at every point, η⁺ from the Θ_τ/OR-join memo bisect equals
the generic search, and whole analyses are bit-identical with sharing
on or off.  Every operation type the engine shares is covered.
"""

from __future__ import annotations

import math
import random
import sys
import threading
import time
from collections import OrderedDict

import pytest

from repro import obs
from repro.core import (
    BusyWindowOutput,
    ShaperOperation,
    TransferProperty,
    apply_operation,
    hsc_or,
    hsc_pack,
)
from repro.core.constructors import PendingInnerModel
from repro.core.hem import HierarchicalEventModel
from repro.core.update import InnerJitterSpacingModel
from repro.eventmodels import (
    StandardEventModel,
    fingerprint,
    freeze,
    maybe_compile,
    or_join,
    periodic,
    periodic_with_burst,
    periodic_with_jitter,
)
from repro.eventmodels import compile as emc
from repro.eventmodels.base import EventModel
from repro.eventmodels.curves import CachedModel
from repro.eventmodels.operations import (
    DminShaper,
    TaskOutputModel,
    _PairwiseOrJoin,
    and_join,
)
from repro.examples_lib.rox08 import build_system as build_rox08
from repro.examples_lib.synth import synth_system
from repro.system.propagation import analyze_system

INF = math.inf


@pytest.fixture(autouse=True)
def _reset_sharing():
    """Each test starts with sharing on and a cold cache; the switch
    never leaks between tests."""
    emc.enabled = True
    emc.cache().clear()
    yield
    emc.enabled = True
    emc.cache().clear()


def make_chains():
    """One representative chain per shared operation type."""
    a = periodic_with_jitter(100.0, 30.0, "a")
    b = periodic(250.0, "b")
    c = periodic_with_burst(100.0, 250.0, 10.0, "c")
    frame = or_join([a, b, c], name="frame")
    return {
        "theta": TaskOutputModel(frame, 2.0, 9.0, name="theta"),
        "or": or_join([TaskOutputModel(a, 1.0, 4.0), b, c], name="or"),
        "and": and_join([TaskOutputModel(a, 1.0, 4.0), b], name="and"),
        "shaper": DminShaper(or_join([a, b]), 5.0, name="shaper"),
        "inner_update": InnerJitterSpacingModel(
            or_join([a, c]), jitter=7.0, spacing=2.0, k=3),
        "pending": PendingInnerModel(c, frame, name="pending"),
    }


# ----------------------------------------------------------------------
# a shared chain answers like a fresh one
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", list(make_chains()))
def test_compiled_exact_within_and_beyond_prefix(kind):
    """A shared chain whose memos an earlier user filled answers exactly
    like a fresh, unshared chain, within the filled range and beyond."""
    lazy = make_chains()[kind]
    first = maybe_compile(make_chains()[kind])
    first.delta_min_block(16)
    first.delta_plus_block(16)
    shared = maybe_compile(make_chains()[kind])
    assert shared is first
    for n in list(range(0, 17)) + [18, 31, 64, 130, 257]:
        assert shared.delta_min(n) == lazy.delta_min(n), (kind, n)
        assert shared.delta_plus(n) == lazy.delta_plus(n), (kind, n)


@pytest.mark.parametrize("kind", list(make_chains()))
def test_compiled_eta_matches_lazy(kind):
    """η of a shared chain equals the generic pseudo-inverse search of a
    fresh chain (the memo bisect of Θ_τ, the OR-join and the inner update
    included)."""
    lazy = make_chains()[kind]
    shared = maybe_compile(make_chains()[kind])
    shared.delta_min_block(8)
    for dt in (0.0, 1.0, 49.9, 50.0, 123.4, 1000.0, 12345.6):
        assert shared.eta_plus(dt) == EventModel.eta_plus(lazy, dt), \
            (kind, dt)
        assert shared.eta_min(dt) == EventModel.eta_min(lazy, dt), \
            (kind, dt)


def test_block_apis_match_pointwise():
    for kind, lazy in make_chains().items():
        ref_min = [lazy.delta_min(n) for n in range(40)]
        ref_plus = [lazy.delta_plus(n) for n in range(40)]
        fresh = make_chains()[kind]
        assert fresh.delta_min_block(39) == ref_min, kind
        assert fresh.delta_plus_block(39) == ref_plus, kind


@pytest.mark.parametrize("model", [
    periodic(100.0),
    periodic_with_jitter(100.0, 30.0),
    periodic_with_burst(100.0, 250.0, 10.0),
    StandardEventModel(100.0, 30.0, sporadic=True),
], ids=["periodic", "jitter", "burst", "sporadic"])
@pytest.mark.parametrize("n_max", [0, 1, 2, 1000])
def test_standard_blocks_match_pointwise(model, n_max):
    assert model.delta_min_block(n_max) == [
        model.delta_min(n) for n in range(n_max + 1)]
    assert model.delta_plus_block(n_max) == [
        model.delta_plus(n) for n in range(n_max + 1)]


def _random_sem_or_theta(rng):
    p = rng.uniform(2.0, 50.0)
    m = StandardEventModel(
        period=p, jitter=rng.uniform(0.0, 80.0),
        d_min=rng.choice([0.0, rng.uniform(0.0, 0.9 * p)]))
    if rng.random() < 0.5:
        m = TaskOutputModel(m, rng.uniform(0.0, 4.0), rng.uniform(4.0, 9.0))
    return m


def test_or_join_block_matches_contribution_vector_dp():
    """The merge-based block evaluation of the pairwise OR-join must be
    bit-identical to the per-n contribution-vector optimisation of
    eqs. (3)/(4) on randomized inputs."""
    rng = random.Random(42)
    for _ in range(50):
        join = _PairwiseOrJoin(_random_sem_or_theta(rng),
                               _random_sem_or_theta(rng))
        block_min = join.delta_min_block(48)
        block_plus = join.delta_plus_block(48)
        for n in range(49):
            assert block_min[n] == join.delta_min_eq3(n), n
            assert block_plus[n] == join.delta_plus_eq4(n), n
    # A cold point far out on a 6-way fold: the memo fill through the
    # merge agrees with eq. (3) evaluated at the top join.
    leaves = [_random_sem_or_theta(rng) for _ in range(6)]
    fold = or_join(leaves)
    reference = or_join(leaves)
    assert fold.delta_min(1000) == reference.delta_min_eq3(1000)
    assert fold.delta_plus(1000) == reference.delta_plus_eq4(1000)


# ----------------------------------------------------------------------
# the utilisation check's δ⁻(1000) on a shared chain
# ----------------------------------------------------------------------
def make_load_chains():
    """The chain shapes whose δ⁻(1000) the utilisation check reads."""
    sem = periodic_with_jitter(100.0, 30.0, "sig")
    frame = or_join([periodic_with_jitter(100.0, 30.0, "a"),
                     periodic(250.0, "b"),
                     periodic_with_burst(100.0, 250.0, 10.0, "c")],
                    name="frame")
    return {
        "ijs(sem)": InnerJitterSpacingModel(sem, jitter=7.0, spacing=2.0,
                                            k=3),
        "ijs(pending(sem,or2))": InnerJitterSpacingModel(
            PendingInnerModel(sem, frame), jitter=7.0, spacing=2.0, k=3),
        "theta(or2)": TaskOutputModel(frame, 2.0, 9.0),
        "or2": frame,
    }


@pytest.mark.parametrize("kind", list(make_load_chains()))
def test_load_on_compiled_chain_matches_lazy(kind):
    lazy = make_load_chains()[kind]
    shared = maybe_compile(make_load_chains()[kind])
    shared.delta_min_block(33)
    shared.delta_plus_block(33)
    assert shared.load() == lazy.load()
    assert shared.delta_min(1000) == lazy.delta_min(1000)


def test_shared_curve_growth_is_thread_safe():
    """The fingerprint cache shares chains (and their memos) between
    threads, such as the serve daemon's workers.  Six threads walking
    one shared Θ_τ-over-OR-join chain, jumping to far points and asking
    for η⁺ must all read the unshared values, and every memo must stay
    a prefix of them: a fill never mutates a list a reader may hold."""
    lazy = make_chains()["theta"]
    ref_min = lazy.delta_min_block(4096)
    ref_plus = lazy.delta_plus_block(4096)
    frame_ref = lazy.input_model
    ref_frame_min = frame_ref.delta_min_block(4096)
    ref_frame_plus = frame_ref.delta_plus_block(4096)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(5):
            emc.cache().clear()
            shared = maybe_compile(make_chains()["theta"])
            assert maybe_compile(make_chains()["theta"]) is shared
            frame = shared.input_model
            errors = []

            def work(seed):
                rng = random.Random(seed)
                try:
                    for n in range(2, 600):
                        k = n if rng.random() < 0.8 else rng.randrange(1300)
                        if shared.delta_min(k) != ref_min[k]:
                            errors.append(("delta_min", k))
                        if shared.delta_plus(k) != ref_plus[k]:
                            errors.append(("delta_plus", k))
                    for dt in (500.0, 5000.0, 50000.0):
                        if shared.eta_plus(dt) != lazy.eta_plus(dt):
                            errors.append(("eta_plus", dt))
                        if frame.eta_plus(dt) != frame_ref.eta_plus(dt):
                            errors.append(("frame.eta_plus", dt))
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(repr(exc))

            threads = [threading.Thread(target=work, args=(trial * 8 + i,))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == [], (trial, errors[:5])
            memo = shared._dmin_memo
            assert len(memo) < 4096
            assert memo == ref_min[:len(memo)]
            assert frame._dmin_memo == ref_frame_min[:len(frame._dmin_memo)]
            assert frame._dplus_memo == \
                ref_frame_plus[:len(frame._dplus_memo)]
    finally:
        sys.setswitchinterval(switch)


class _YieldingEntries(OrderedDict):
    """LRU storage that yields the GIL inside ``move_to_end``: the step
    between ``get``'s lookup and its reorder, where a concurrent
    ``put`` can evict the key."""

    def move_to_end(self, key, last=True):
        time.sleep(0)
        super().move_to_end(key, last)


def test_cache_get_put_race_is_safe():
    """``get`` and ``put`` are check-then-act on the LRU's ordered dict,
    which the serve workers share: a ``get`` whose key a concurrent
    ``put`` evicts must miss or hit, never raise ``KeyError``."""
    lru = emc.CompilationCache(2)
    lru._entries = _YieldingEntries()
    keys = [("k", i) for i in range(4)]
    errors = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(500):
            key = rng.choice(keys)
            try:
                if rng.random() < 0.5:
                    lru.get(key)
                else:
                    lru.put(key, key)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(repr(exc))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == [], errors[:5]
    assert len(lru) <= 2
    stats = lru.stats()
    assert stats["hits"] + stats["misses"] > 0


# ----------------------------------------------------------------------
# conservativeness of a detached snapshot
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", list(make_chains()))
def test_detached_extension_is_conservative(kind):
    """Beyond its prefix a detached snapshot of a chain (:func:`freeze`,
    as serialisation takes it) must never overestimate δ⁻ nor
    underestimate δ⁺ — for every operation type the engine shares."""
    lazy = make_chains()[kind]
    detached = freeze(make_chains()[kind], n_max=12)
    for n in range(0, 13):
        assert detached.delta_min(n) == lazy.delta_min(n), (kind, n)
        assert detached.delta_plus(n) == lazy.delta_plus(n), (kind, n)
    for n in range(13, 80):
        assert detached.delta_min(n) <= lazy.delta_min(n) + 1e-9, (kind, n)
        assert detached.delta_plus(n) >= lazy.delta_plus(n) - 1e-9, (kind, n)


# ----------------------------------------------------------------------
# fingerprints and the cross-iteration cache
# ----------------------------------------------------------------------
def test_fingerprint_is_stable_and_semantic():
    a1 = TaskOutputModel(periodic(100.0), 2.0, 9.0)
    a2 = TaskOutputModel(periodic(100.0), 2.0, 9.0)
    b = TaskOutputModel(periodic(100.0), 2.0, 9.5)  # different response
    assert fingerprint(a1) == fingerprint(a2)
    assert fingerprint(a1) != fingerprint(b)


class Mystery(EventModel):
    """A model with no registered fingerprint."""

    name = "mystery"

    def delta_min(self, n):
        return periodic(10.0).delta_min(n)

    def delta_plus(self, n):
        return periodic(10.0).delta_plus(n)


def test_fingerprint_none_poisons_chain():
    m = Mystery()
    assert fingerprint(m) is None
    assert fingerprint(TaskOutputModel(m, 1.0, 2.0)) is None


def test_unfingerprinted_chain_comes_back_unchanged():
    chain = TaskOutputModel(Mystery(), 1.0, 2.0)
    assert maybe_compile(chain) is chain
    assert maybe_compile(TaskOutputModel(Mystery(), 1.0, 2.0)) is not chain
    assert len(emc.cache()) == 0


def test_cache_shares_equal_chains():
    first = TaskOutputModel(periodic(100.0), 2.0, 9.0)
    m1 = maybe_compile(first)
    m2 = maybe_compile(TaskOutputModel(periodic(100.0), 2.0, 9.0))
    assert m1 is first  # a miss stores and returns the model itself
    assert m2 is first  # a hit returns the chain stored first
    stats = emc.cache().stats()
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_interning_costs_one_node(monkeypatch):
    """A chain carries its key: interning level 21 of a Θ_τ chain whose
    levels were interned as they were built calls the registered
    fingerprint functions once (a re-walk calls them 21 times), and
    interning the shared chain again is no lookup at all.  The frozen
    standard model at the bottom carries its key too."""
    calls = []

    def counting(fn):
        def wrapped(model):
            calls.append(type(model).__name__)
            return fn(model)
        return wrapped

    for cls, fn in list(emc._FP_REGISTRY.items()):
        monkeypatch.setitem(emc._FP_REGISTRY, cls, counting(fn))
    chain = periodic(100.0)  # level 1
    for level in range(2, 21):
        chain = maybe_compile(TaskOutputModel(chain, 1.0, float(level)))
    assert calls == (["TaskOutputModel", "StandardEventModel"]
                     + ["TaskOutputModel"] * 18)
    calls.clear()
    top = maybe_compile(TaskOutputModel(chain, 1.0, 21.0))
    assert calls == ["TaskOutputModel"]
    assert top is not chain and top.input_model is chain

    before = emc.cache().stats()
    assert maybe_compile(top) is top
    after = emc.cache().stats()
    assert (after["hits"], after["misses"]) \
        == (before["hits"], before["misses"])
    # an equal chain built anew still finds the shared one
    assert maybe_compile(TaskOutputModel(chain, 1.0, 21.0)) is top
    assert emc.cache().stats()["hits"] == before["hits"] + 1


def test_cache_lru_eviction(monkeypatch):
    monkeypatch.setattr(emc, "_cache", emc.CompilationCache(2))
    built = [TaskOutputModel(periodic(100.0 + i), 1.0, 2.0)
             for i in range(3)]
    assert [maybe_compile(m) for m in built] == built
    assert len(emc.cache()) == 2
    # the oldest chain was evicted: an equal chain is stored anew
    again = TaskOutputModel(periodic(100.0), 1.0, 2.0)
    assert maybe_compile(again) is again
    # the evicted chain is still marked: interning it returns it
    assert maybe_compile(built[0]) is built[0]


def test_leaf_models_never_compiled():
    p = periodic(10.0)
    assert maybe_compile(p) is p
    assert len(emc.cache()) == 0


def test_disabled_switch_returns_model_unchanged(monkeypatch):
    monkeypatch.setattr(emc, "enabled", False)
    chain = TaskOutputModel(periodic(100.0), 2.0, 9.0)
    assert maybe_compile(chain) is chain
    assert maybe_compile(TaskOutputModel(periodic(100.0), 2.0, 9.0)) \
        is not chain
    assert len(emc.cache()) == 0


def test_hierarchical_compile_preserves_structure():
    frame = hsc_pack(
        {"s1": (periodic_with_jitter(100.0, 30.0),
                TransferProperty.TRIGGERING),
         "s2": (periodic(400.0), TransferProperty.PENDING)},
        timer=periodic(200.0), name="F1")
    out = apply_operation(frame, BusyWindowOutput(2.0, 9.0))
    compiled = maybe_compile(out)
    assert isinstance(compiled, HierarchicalEventModel)
    assert compiled.labels == out.labels
    assert type(compiled.rule) is type(out.rule)
    for n in range(0, 40):
        assert compiled.delta_min(n) == out.delta_min(n)
        for label in out.labels:
            assert (compiled.inner(label).delta_min(n)
                    == out.inner(label).delta_min(n)), (label, n)


def test_hierarchical_compile_identity_when_nothing_to_do():
    frame = hsc_or({"x": periodic(100.0), "y": periodic(300.0)})
    # The outer or-join chain is stored on first sight and the inners
    # are leaf standard models, so sharing returns the hierarchy itself;
    # sharing the result again is an identity.
    once = maybe_compile(frame)
    assert once is frame
    again = maybe_compile(once)
    assert again is once


# ----------------------------------------------------------------------
# engine integration: results must be bit-identical on/off
# ----------------------------------------------------------------------
def _digest(result):
    return (result.iterations,
            {rn: (rr.utilization,
                  {tn: (tr.r_min, tr.r_max)
                   for tn, tr in rr.task_results.items()})
             for rn, rr in result.resource_results.items()})


@pytest.mark.parametrize("build", [
    lambda: build_rox08("flat"),
    lambda: build_rox08("hem"),
    lambda: synth_system(6, 2),
], ids=["rox08-flat", "rox08-hem", "synth-6x2"])
def test_analyze_system_bit_identical_compiled_vs_lazy(build):
    emc.enabled = False
    lazy = _digest(analyze_system(build()))
    emc.enabled = True
    emc.cache().clear()
    shared = _digest(analyze_system(build()))
    # a second analysis reads every chain from the warm cache
    warm = _digest(analyze_system(build()))
    assert lazy == shared == warm


def _fill_counting_subclasses(cls):
    for sub in cls.__subclasses__():
        if "_fill_min" in vars(sub):
            yield sub
        yield from _fill_counting_subclasses(sub)


@pytest.mark.parametrize("build", [
    lambda: build_rox08("flat"),
    lambda: build_rox08("hem"),
    lambda: synth_system(16, 2, base_period=800.0),
], ids=["rox08-flat", "rox08-hem", "synth-16x2"])
def test_sharing_fills_fewer_dmin_entries(monkeypatch, build):
    """Chain sharing saves work, counted rather than timed: one analysis
    from a cold cache fills fewer δ⁻ memo entries with sharing on than
    with every iteration building its chains afresh (641 → 255 entries
    for RoX08 flat, 876 → 222 for HEM, 3,724 → 578 for synth 16×2)."""
    from repro.eventmodels.operations import PrefixMemoModel
    filled = [0]

    def counting(fill):
        def wrapper(self, n_max):
            before = len(self._dmin_memo)
            memo = fill(self, n_max)
            filled[0] += len(memo) - before
            return memo
        return wrapper

    for sub in set(_fill_counting_subclasses(PrefixMemoModel)):
        monkeypatch.setattr(sub, "_fill_min", counting(vars(sub)["_fill_min"]))
    counts = {}
    for enabled in (False, True):
        emc.enabled = enabled
        emc.cache().clear()
        system = build()
        filled[0] = 0
        analyze_system(system)
        counts[enabled] = filled[0]
    assert 0 < counts[True] < counts[False], counts


def test_obs_counters_emitted():
    """The cache counts its own lookups; telemetry reads those counts
    (``obs.engine_stats``) and pushes no copy into the registry."""
    obs.configure(enabled=True, reset=True)
    try:
        emc.cache().clear()
        analyze_system(build_rox08("hem"))
        counters = obs.metrics().snapshot()["counters"]
        stats = emc.cache().stats()
        assert stats["misses"] > 0 and stats["hits"] > 0
        engine = obs.engine_stats()
        assert engine["compile.cache.misses"] == stats["misses"]
        assert engine["compile.cache.hits"] == stats["hits"]
        assert engine["compile.cache.entries"] == stats["entries"]
        assert not [name for name in counters
                    if name.startswith("compile.")]
    finally:
        obs.disable(reset=True)


# ----------------------------------------------------------------------
# __slots__ on the hot classes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("build", [
    lambda: TaskOutputModel(periodic(10.0), 1.0, 2.0),
    lambda: _PairwiseOrJoin(periodic(10.0), periodic(20.0)),
    lambda: CachedModel(periodic(10.0)),
    lambda: freeze(TaskOutputModel(periodic(10.0), 1.0, 2.0)),
], ids=["TaskOutputModel", "_PairwiseOrJoin", "CachedModel",
        "CurveEventModel"])
def test_hot_classes_have_no_instance_dict(build):
    assert not hasattr(build(), "__dict__")
