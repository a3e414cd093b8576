"""Property-based tests for the extension features: offset joins,
nested hierarchies, backlog bounds, serialisation, FlexRay."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import SPPScheduler, TaskSpec, backlog_bound
from repro.core import (
    BusyWindowOutput,
    TransferProperty,
    apply_operation,
    hsc_pack,
    shift_hierarchy,
    unpack_deep,
)
from repro.eventmodels import (
    StandardEventModel,
    models_equal,
    offset_join,
    or_join,
    periodic,
    verify_dominates,
)
from repro.flexray import FlexRayConfig, FlexRayStaticScheduler
from repro.sim import (
    ResponseRecorder,
    Simulator,
    SppCpuSim,
    worst_case_arrivals,
)
from repro.system import model_from_dict, model_to_dict

periods = st.floats(min_value=10.0, max_value=1000.0, allow_nan=False)


@st.composite
def sem_models(draw):
    p = draw(periods)
    j = draw(st.floats(min_value=0.0, max_value=500.0, allow_nan=False))
    d = None
    if j >= p:
        d = draw(st.floats(min_value=0.0, max_value=p / 2))
        d = round(d, 3)
    return StandardEventModel(round(p, 3), round(j, 3), d)


class TestOffsetJoinProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=100.0, max_value=2000.0),
           st.lists(st.floats(min_value=0.0, max_value=1999.0),
                    min_size=1, max_size=5))
    def test_blind_join_covers_offset_join(self, period, offsets):
        # Forgetting the offsets (plain OR of same-period streams) must
        # be a conservative cover of the offset-exact model.
        aware = offset_join(period, offsets)
        blind = or_join([periodic(period)] * len(offsets))
        assert verify_dominates(blind, aware, n_max=24)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=100.0, max_value=2000.0),
           st.lists(st.floats(min_value=0.0, max_value=1999.0),
                    min_size=1, max_size=5))
    def test_rate_preserved(self, period, offsets):
        aware = offset_join(period, offsets)
        assert aware.load(500) == pytest.approx(
            len(offsets) / period, rel=0.05)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=100.0, max_value=2000.0),
           st.lists(st.floats(min_value=0.0, max_value=1999.0),
                    min_size=1, max_size=5))
    def test_structure(self, period, offsets):
        aware = offset_join(period, offsets)
        prev_min = prev_plus = 0.0
        for n in range(2, 20):
            dmin, dplus = aware.delta_min(n), aware.delta_plus(n)
            assert dmin >= prev_min - 1e-9
            assert dplus >= prev_plus - 1e-9
            assert dmin <= dplus + 1e-9
            prev_min, prev_plus = dmin, dplus


class TestNestingProperties:
    @settings(max_examples=25, deadline=None)
    @given(sem_models(), sem_models(),
           st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=0.0, max_value=20.0))
    def test_nested_shift_equals_leaf_shift(self, a, b, span, r_min):
        # Shifting a hierarchy and then reading a leaf equals shifting
        # the leaf directly (shift commutes with unpacking).
        inner_frame = hsc_pack(
            {"a": (a, TransferProperty.TRIGGERING)}, name="F")
        outer = hsc_pack(
            {"F": (inner_frame, TransferProperty.TRIGGERING),
             "b": (b, TransferProperty.TRIGGERING)}, name="B")
        k = outer.outer.simultaneity()
        shifted_tree = apply_operation(outer,
                                       BusyWindowOutput(r_min,
                                                        r_min + span))
        leaf_via_tree = unpack_deep(shifted_tree)["F/a"]
        leaf_direct = shift_hierarchy(a, span, r_min, k)
        assert models_equal(leaf_via_tree, leaf_direct, n_max=16)

    @settings(max_examples=25, deadline=None)
    @given(sem_models(), sem_models())
    def test_unpack_deep_leaf_count(self, a, b):
        inner_frame = hsc_pack(
            {"a": (a, TransferProperty.TRIGGERING),
             "b": (b, TransferProperty.PENDING)},
            timer=periodic(500.0), name="F")
        outer = hsc_pack(
            {"F": (inner_frame, TransferProperty.TRIGGERING)}, name="B")
        leaves = unpack_deep(outer)
        assert set(leaves) == {"F/a", "F/b"}


class TestBacklogProperties:
    @settings(max_examples=20, deadline=None)
    @given(sem_models(), st.floats(min_value=1.0, max_value=40.0))
    def test_backlog_covers_simulation(self, em, wcet):
        assume(wcet * em.load(500) < 0.9)
        spec = TaskSpec("t", wcet, wcet, em, priority=1)
        result = SPPScheduler().analyze([spec], "cpu")["t"]
        bound = backlog_bound(result, em)

        sim = Simulator()
        rec = ResponseRecorder()
        cpu = SppCpuSim(sim, rec)
        cpu.add_task("t", 1, wcet)
        observed = 0

        arrivals = worst_case_arrivals(em, 3000.0)
        for t in arrivals:
            sim.schedule(t, lambda: cpu.activate("t"))

        # sample backlog just after each arrival
        def probe():
            nonlocal observed
            observed = max(observed, cpu.backlog())

        for t in arrivals:
            sim.schedule(t + 1e-9, probe)
        sim.run_until(6000.0)
        assert observed <= bound


class TestSerializationProperties:
    @settings(max_examples=40, deadline=None)
    @given(sem_models())
    def test_standard_round_trip(self, m):
        clone = model_from_dict(model_to_dict(m))
        assert models_equal(m, clone, n_max=24)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(sem_models(), min_size=2, max_size=3))
    def test_join_round_trip_within_horizon(self, models):
        join = or_join(models)
        clone = model_from_dict(model_to_dict(join))
        for n in range(2, 32):
            assert clone.delta_min(n) == pytest.approx(
                join.delta_min(n), abs=1e-6)


class TestAdditiveExtensionProperties:
    """The additive extension used by :func:`freeze` must bound the
    direct evaluation: δ⁻ never overestimated, δ⁺ never underestimated —
    for jittered periodic and bursty sources alike."""

    @settings(max_examples=40, deadline=None)
    @given(sem_models(), st.integers(min_value=5, max_value=24),
           st.integers(min_value=1, max_value=60))
    def test_additive_extension_bounds_direct_evaluation(
            self, model, prefix_top, beyond):
        from repro.eventmodels.curves import _extend_additive

        dmin = [model.delta_min(n) for n in range(prefix_top + 1)]
        dplus = [model.delta_plus(n) for n in range(prefix_top + 1)]
        n = prefix_top + beyond
        ext_min = _extend_additive(dmin, n)
        ext_plus = _extend_additive(dplus, n)
        assert ext_min <= model.delta_min(n) + 1e-9 * max(1.0, ext_min)
        assert ext_plus >= model.delta_plus(n) - 1e-9 * max(1.0, ext_plus)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=20.0, max_value=500.0),
           st.floats(min_value=0.0, max_value=1500.0),
           st.floats(min_value=0.5, max_value=10.0),
           st.integers(min_value=6, max_value=20),
           st.integers(min_value=1, max_value=80))
    def test_burst_model_extension_conservative(self, p, j, d, top, beyond):
        from repro.eventmodels import periodic_with_burst
        from repro.eventmodels.curves import _extend_additive

        assume(j >= p)  # actual burst shape
        assume(d <= p / 2)
        model = periodic_with_burst(round(p, 3), round(j, 3), round(d, 3))
        dmin = [model.delta_min(n) for n in range(top + 1)]
        dplus = [model.delta_plus(n) for n in range(top + 1)]
        n = top + beyond
        assert _extend_additive(dmin, n) <= model.delta_min(n) + 1e-9
        ext_plus = _extend_additive(dplus, n)
        assert ext_plus >= model.delta_plus(n) - 1e-9 * max(1.0, ext_plus)


class TestFlexRayProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=500.0, max_value=5000.0),
           st.integers(2, 10),
           st.floats(min_value=1.2, max_value=10.0))
    def test_wcrt_formula(self, cycle, n_slots, period_factor):
        slot = cycle / (2 * n_slots)
        config = FlexRayConfig(cycle, slot, n_slots, bit_time=0.01)
        wire = slot / 2
        em = periodic(cycle * period_factor)
        result = FlexRayStaticScheduler(config).analyze(
            [TaskSpec("f", wire, wire, em, slot=0)])
        # Single-activation windows: closed form.
        assert result["f"].r_max == pytest.approx(
            cycle - slot + wire)
