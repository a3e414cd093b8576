"""Tests for the curve-compilation pass (repro.eventmodels.compile).

Soundness is non-negotiable: a compiled curve must *bound* its source —
equal on the sampled prefix and, with the source attached, equal
everywhere; detached, the extension must stay conservative (δ⁻ never
overestimated, δ⁺ never underestimated).  Every operation type the
engine compiles is covered by a paired property test.
"""

from __future__ import annotations

import math
import random

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
    CompiledEventModel,
    StandardEventModel,
    compile_model,
    fingerprint,
    maybe_compile,
    or_join,
    periodic,
    periodic_with_burst,
    periodic_with_jitter,
)
from repro.eventmodels import compile as emc
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
def _reset_compile_config():
    """Each test starts from the default configuration and a cold cache;
    module-level knobs never leak between tests."""
    emc.configure(enabled=True, reset_cache=True)
    yield
    emc.configure(enabled=True, reset_cache=True)


def make_chains():
    """One representative lazy chain per compiled operation type."""
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
# exactness with the source attached
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", list(make_chains()))
def test_compiled_exact_within_and_beyond_prefix(kind):
    lazy = make_chains()[kind]
    compiled = compile_model(make_chains()[kind], n_hint=16)
    assert isinstance(compiled, CompiledEventModel)
    # within the prefix and far beyond it (forces repeated growth)
    for n in list(range(0, 17)) + [18, 31, 64, 130, 257]:
        assert compiled.delta_min(n) == lazy.delta_min(n), (kind, n)
        assert compiled.delta_plus(n) == lazy.delta_plus(n), (kind, n)


@pytest.mark.parametrize("kind", list(make_chains()))
def test_compiled_eta_matches_lazy(kind):
    lazy = make_chains()[kind]
    compiled = compile_model(make_chains()[kind], n_hint=8)
    for dt in (0.0, 1.0, 49.9, 50.0, 123.4, 1000.0, 12345.6):
        assert compiled.eta_plus(dt) == lazy.eta_plus(dt), (kind, dt)
        assert compiled.eta_min(dt) == lazy.eta_min(dt), (kind, dt)


def test_block_apis_match_pointwise():
    for kind, lazy in make_chains().items():
        ref_min = [lazy.delta_min(n) for n in range(40)]
        ref_plus = [lazy.delta_plus(n) for n in range(40)]
        fresh = make_chains()[kind]
        assert fresh.delta_min_block(39) == ref_min, kind
        assert fresh.delta_plus_block(39) == ref_plus, kind


def test_or_join_block_matches_contribution_vector_dp():
    """The merge-based block evaluation of the pairwise OR-join must be
    bit-identical to the per-n contribution-vector optimisation on
    randomized inputs."""
    rng = random.Random(42)
    for _ in range(50):
        def mk():
            p = rng.uniform(2.0, 50.0)
            m = StandardEventModel(
                period=p, jitter=rng.uniform(0.0, 80.0),
                d_min=rng.choice([0.0, rng.uniform(0.0, 0.9 * p)]))
            if rng.random() < 0.5:
                m = TaskOutputModel(m, rng.uniform(0.0, 4.0),
                                    rng.uniform(4.0, 9.0))
            return m

        join = _PairwiseOrJoin(mk(), mk())
        block_min = join.delta_min_block(48)
        block_plus = join.delta_plus_block(48)
        fresh = _PairwiseOrJoin(join._a, join._b)  # cold caches
        for n in range(49):
            assert block_min[n] == fresh.delta_min(n), n
            assert block_plus[n] == fresh.delta_plus(n), n


# ----------------------------------------------------------------------
# conservativeness when detached
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", list(make_chains()))
def test_detached_extension_is_conservative(kind):
    """Beyond the prefix a detached curve must never overestimate δ⁻ nor
    underestimate δ⁺ — for every compiled operation type."""
    lazy = make_chains()[kind]
    detached = compile_model(make_chains()[kind], n_hint=12,
                             keep_source=False)
    assert detached.source is None
    for n in range(0, 13):
        assert detached.delta_min(n) == lazy.delta_min(n), (kind, n)
        assert detached.delta_plus(n) == lazy.delta_plus(n), (kind, n)
    for n in range(13, 80):
        assert detached.delta_min(n) <= lazy.delta_min(n) + 1e-9, (kind, n)
        assert detached.delta_plus(n) >= lazy.delta_plus(n) - 1e-9, (kind, n)


def test_detach_drops_source_and_stays_conservative():
    lazy = make_chains()["theta"]
    compiled = compile_model(make_chains()["theta"], n_hint=10)
    compiled.detach()
    assert compiled.source is None
    for n in range(0, 60):
        assert compiled.delta_min(n) <= lazy.delta_min(n) + 1e-9
        assert compiled.delta_plus(n) >= lazy.delta_plus(n) - 1e-9


def test_detected_period_makes_detached_curve_exact():
    """A Θ_τ chain over a jittered periodic source has an exactly linear
    tail; period detection must reproduce the lazy values exactly."""
    lazy = TaskOutputModel(periodic_with_jitter(50.0, 20.0), 1.0, 6.0)
    detached = compile_model(
        TaskOutputModel(periodic_with_jitter(50.0, 20.0), 1.0, 6.0),
        n_hint=24, keep_source=False, detect_period=True)
    assert detached._n_period is not None
    for n in range(0, 200):
        assert detached.delta_min(n) == lazy.delta_min(n), n
        assert detached.delta_plus(n) == lazy.delta_plus(n), n


# ----------------------------------------------------------------------
# fingerprints and the cross-iteration cache
# ----------------------------------------------------------------------
def test_fingerprint_is_stable_and_semantic():
    a1 = TaskOutputModel(periodic(100.0), 2.0, 9.0)
    a2 = TaskOutputModel(periodic(100.0), 2.0, 9.0)
    b = TaskOutputModel(periodic(100.0), 2.0, 9.5)  # different response
    assert fingerprint(a1) == fingerprint(a2)
    assert fingerprint(a1) != fingerprint(b)


def test_fingerprint_none_poisons_chain():
    from repro.eventmodels.base import EventModel

    class Mystery(EventModel):
        name = "mystery"

        def delta_min(self, n):
            return periodic(10.0).delta_min(n)

        def delta_plus(self, n):
            return periodic(10.0).delta_plus(n)

    m = Mystery()
    assert fingerprint(m) is None
    assert fingerprint(TaskOutputModel(m, 1.0, 2.0)) is None


def test_cache_shares_equal_chains():
    emc.configure(reset_cache=True)
    m1 = maybe_compile(TaskOutputModel(periodic(100.0), 2.0, 9.0))
    m2 = maybe_compile(TaskOutputModel(periodic(100.0), 2.0, 9.0))
    assert isinstance(m1, CompiledEventModel)
    assert m2 is m1  # same object out of the fingerprint cache
    stats = emc.cache().stats()
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_cache_lru_eviction(monkeypatch):
    monkeypatch.setattr(emc, "_cache", emc.CompilationCache(2))
    ms = [maybe_compile(TaskOutputModel(periodic(100.0 + i), 1.0, 2.0))
          for i in range(3)]
    assert all(isinstance(m, CompiledEventModel) for m in ms)
    assert len(emc.cache()) == 2


def test_min_depth_threshold_skips_shallow_chains(monkeypatch):
    monkeypatch.setattr(emc, "MIN_DEPTH", 3)
    shallow = TaskOutputModel(periodic(100.0), 1.0, 2.0)  # depth 2
    assert maybe_compile(shallow) is shallow
    deep = TaskOutputModel(shallow, 1.0, 2.0)  # depth 3
    assert isinstance(maybe_compile(deep), CompiledEventModel)


def test_leaf_models_never_compiled():
    p = periodic(10.0)
    assert maybe_compile(p) is p


def test_disabled_switch_returns_model_unchanged():
    emc.configure(enabled=False)
    chain = TaskOutputModel(periodic(100.0), 2.0, 9.0)
    assert maybe_compile(chain) is chain


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
    # outer is a CachedModel or-join chain (compilable); inners are leaf
    # standard models.  Re-compiling the compiled result is an identity.
    once = maybe_compile(frame)
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
    emc.configure(enabled=False)
    lazy = _digest(analyze_system(build()))
    emc.configure(enabled=True, reset_cache=True)
    compiled = _digest(analyze_system(build()))
    assert lazy == compiled


def test_obs_counters_emitted():
    obs.configure(enabled=True, reset=True)
    try:
        emc.configure(reset_cache=True)
        analyze_system(build_rox08("hem"))
        counters = obs.metrics().snapshot()["counters"]
        assert counters.get("compile.compilations", 0) > 0
        assert counters.get("compile.cache.hits", 0) > 0
    finally:
        obs.disable(reset=True)


def test_env_flag_controls_default(monkeypatch):
    assert emc._env_flag("REPRO_TESTPROBE", True) is True
    monkeypatch.setenv("REPRO_TESTPROBE", "0")
    assert emc._env_flag("REPRO_TESTPROBE", True) is False
    monkeypatch.setenv("REPRO_TESTPROBE", "1")
    assert emc._env_flag("REPRO_TESTPROBE", False) is True


# ----------------------------------------------------------------------
# __slots__ on the hot classes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("build", [
    lambda: TaskOutputModel(periodic(10.0), 1.0, 2.0),
    lambda: _PairwiseOrJoin(periodic(10.0), periodic(20.0)),
    lambda: CachedModel(periodic(10.0)),
    lambda: compile_model(TaskOutputModel(periodic(10.0), 1.0, 2.0)),
], ids=["TaskOutputModel", "_PairwiseOrJoin", "CachedModel",
        "CompiledEventModel"])
def test_hot_classes_have_no_instance_dict(build):
    assert not hasattr(build(), "__dict__")
