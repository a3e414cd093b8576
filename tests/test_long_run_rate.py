"""``EventModel.long_run_rate``: the structural rate the load check reads.

Every model that knows its structure answers in one visit to its
inputs, and keeps the invariant δ⁻(n) <= (n - 1) / long_run_rate() for
every n >= 2 whenever its inputs keep it.  Standard and null models keep
it exactly, so on chains built from them the rate is never above the
estimate ``load(n)`` = (n - 1) / δ⁻(n) at any horizon, and ``load(n)``
converges to it as n grows.  A fallback node (curve, function,
superposition OR) only promises its estimate at n = 1000.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    EDFScheduler,
    RoundRobinScheduler,
    SPNPScheduler,
    SPPScheduler,
    TaskSpec,
)
from repro.analysis.resource_model import (
    HierarchicalSPPScheduler,
    PeriodicResource,
)
from repro.analysis.tdma import TDMAScheduler
from repro.core import TransferProperty, hsc_pack
from repro.core.constructors import OrRule, PendingInnerModel
from repro.core.hem import HierarchicalEventModel
from repro.core.update import InnerJitterSpacingModel
from repro.eventmodels import (
    CachedModel,
    NullEventModel,
    StandardEventModel,
    TaskOutputModel,
    freeze,
    or_join,
    or_join_superposition,
    periodic,
    periodic_with_jitter,
    sporadic,
)
from repro.eventmodels.base import EventModel
from repro.eventmodels.curves import FunctionEventModel
from repro.eventmodels.operations import (
    DminShaper,
    PrefixMemoModel,
    _AndJoin,
    _PairwiseOrJoin,
)
from repro.flexray import FlexRayConfig, FlexRayStaticScheduler

#: Horizons at which the rate must not exceed the estimate.
HORIZONS = (2, 3, 10, 100, 1000, 3000)

#: Relative slack for float rounding only: δ⁻ recursions accumulate
#: (n - 1) * r⁻ by repeated addition, so (n - 1) / δ⁻(n) may land an ulp
#: below 1 / r⁻ where the two are equal in exact arithmetic.
ROUNDING = 1e-11


# ----------------------------------------------------------------------
# random chains of the ten classes that answer structurally
# ----------------------------------------------------------------------
@st.composite
def standard_models(draw):
    period = draw(st.floats(1.0, 100.0))
    jitter = draw(st.floats(0.0, 20.0)) * period
    d_min = None
    if jitter >= period and draw(st.booleans()):
        d_min = draw(st.floats(0.0, 1.0)) * period
    return StandardEventModel(period, jitter, d_min,
                              sporadic=draw(st.booleans()))


def _unit(model):
    """A time unit for a chain's parameters: the mean event distance of
    *model* (1 for a stream that never fires)."""
    rate = model.long_run_rate()
    return 1.0 / rate if rate > 0 else 1.0


@st.composite
def chains(draw, depth):
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        if draw(st.integers(0, 9)) == 0:
            return NullEventModel()
        return draw(standard_models())
    kind = draw(st.sampled_from(
        ("or", "and", "hem", "cached", "theta", "ijs", "shaper",
         "pending")))
    inner = draw(chains(depth - 1))
    unit = _unit(inner)
    if kind == "or":
        return _PairwiseOrJoin(inner, draw(chains(depth - 1)))
    if kind == "and":
        return _AndJoin([inner, draw(chains(depth - 1))])
    if kind == "hem":
        return HierarchicalEventModel(
            inner, {"s": draw(chains(depth - 1))}, OrRule())
    if kind == "cached":
        return CachedModel(inner)
    if kind == "theta":
        r_min = draw(st.floats(0.0, 3.0)) * unit
        span = draw(st.floats(0.0, 20.0)) * unit
        return TaskOutputModel(inner, r_min, r_min + span)
    if kind == "ijs":
        return InnerJitterSpacingModel(
            inner, draw(st.floats(0.0, 20.0)) * unit,
            draw(st.floats(0.0, 3.0)) * unit, draw(st.integers(1, 4)))
    if kind == "shaper":
        return DminShaper(inner, draw(st.floats(0.0, 3.0)) * unit)
    return PendingInnerModel(draw(chains(depth - 1)), inner)


class TestInvariant:
    @settings(max_examples=300, deadline=None)
    @given(chains(3))
    def test_never_above_the_estimate_and_converges(self, model):
        rate = model.long_run_rate()
        for n in HORIZONS:
            assert rate <= model.load(n) * (1.0 + ROUNDING), n
        assert model.load(2 ** 14) <= 1.01 * rate


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------
class TestClosedForms:
    def test_standard_and_null(self):
        assert periodic_with_jitter(40.0, 90.0).long_run_rate() == 1 / 40.0
        assert sporadic(25.0).long_run_rate() == 1 / 25.0
        assert NullEventModel().long_run_rate() == 0.0

    def test_or_join_sums_the_inputs(self):
        periods = (10.0, 20.0, 40.0, 7.0)
        joined = or_join([periodic(10.0), periodic_with_jitter(20.0, 35.0),
                          sporadic(40.0), periodic(7.0)])
        assert joined.long_run_rate() == sum(1 / p for p in periods)

    def test_and_join_takes_the_minimum(self):
        joined = _AndJoin([periodic(10.0), periodic(30.0)])
        assert joined.long_run_rate() == 1 / 30.0

    def test_hem_reads_its_outer_stream(self):
        hem = hsc_pack({"a": (periodic(10.0), TransferProperty.TRIGGERING),
                        "b": (periodic(5.0), TransferProperty.PENDING)},
                       timer=periodic(50.0))
        assert hem.long_run_rate() == hem.outer.long_run_rate()
        assert hem.long_run_rate() == 1 / 10.0 + 1 / 50.0
        # the pending signal is carried no faster than the frames
        assert hem.inner("b").long_run_rate() == hem.long_run_rate()

    def test_theta_is_capped_by_the_minimum_response(self):
        src = periodic(10.0)
        assert TaskOutputModel(src, 1.0, 600.0).long_run_rate() == 0.1
        assert TaskOutputModel(src, 0.0, 600.0).long_run_rate() == 0.1
        # r⁻ above the input period: outputs are at least r⁻ apart
        assert TaskOutputModel(src, 16.0, 20.0).long_run_rate() == 1 / 16.0

    def test_spacing_operations(self):
        src = periodic_with_jitter(10.0, 50.0)
        assert DminShaper(src, 20.0).long_run_rate() == 1 / 20.0
        assert DminShaper(src, 0.0).long_run_rate() == 0.1
        ijs = InnerJitterSpacingModel(src, 5.0, 0.0, 3)
        assert ijs.long_run_rate() == 0.1

    def test_pending_without_a_frame_bound_reads_the_frames(self):
        frames = sporadic(30.0)  # δ⁺(2) = inf
        pending = PendingInnerModel(periodic(100.0), frames)
        assert pending.long_run_rate() == 1 / 30.0
        bounded = PendingInnerModel(periodic(100.0), periodic(30.0))
        assert bounded.long_run_rate() == 1 / 100.0

    def test_unknown_nodes_fall_back_to_the_estimate(self):
        base = or_join([periodic(10.0), periodic_with_jitter(30.0, 45.0)])
        for model in (freeze(base, 64),
                      or_join_superposition([periodic(10.0),
                                             periodic(30.0)]),
                      FunctionEventModel(lambda n: 9.0 * (n - 1),
                                         lambda n: 11.0 * (n - 1))):
            assert model.long_run_rate() == model.load()
        # ... and a known node over an unknown one uses that estimate
        frozen = freeze(base, 64)
        assert CachedModel(frozen).long_run_rate() == frozen.load()

    def test_fallback_leaf_is_outside_the_invariant(self):
        """A fallback leaf's rate bounds δ⁻ at n = 1000 only, so a rule
        node above it may read more than its own estimate: the
        guarantee covers chains whose leaves keep the invariant."""
        def dmin(n):  # slope 10 up to n = 500, then 5: not superadditive
            return 10.0 * (n - 1) if n <= 500 else 4990.0 + 5.0 * (n - 500)

        leaf = FunctionEventModel(dmin, lambda n: float("inf"))
        assert leaf.long_run_rate() == leaf.load() == 999 / 7490
        joined = _PairwiseOrJoin(leaf, leaf)
        assert joined.long_run_rate() == 2 * 999 / 7490
        assert joined.load() == pytest.approx(999 / 4990)
        assert joined.long_run_rate() > joined.load()


# ----------------------------------------------------------------------
# the load check reads the structural rate
# ----------------------------------------------------------------------
def _prefix_memo_nodes(model):
    """Every PrefixMemoModel reachable from *model*."""
    seen, stack, found = set(), [model], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, PrefixMemoModel):
            found.append(node)
        for attr in ("_in", "_a", "_b", "_inner", "_outer", "_signal"):
            child = getattr(node, attr, None)
            if isinstance(child, EventModel):
                stack.append(child)
        stack.extend(getattr(node, "_models", ()))
    return found


class TestLoadCheck:
    def _theta_or_chains(self):
        signals = [periodic(10.0), periodic_with_jitter(20.0, 15.0),
                   sporadic(50.0), periodic(100.0)]
        joined = or_join(signals)
        frame = hsc_pack(
            {f"s{i}": (TaskOutputModel(m, 0.5, 3.0),
                       TransferProperty.TRIGGERING)
             for i, m in enumerate(signals)},
            timer=periodic(25.0))
        return [TaskOutputModel(joined, 1.0, 4.0),
                TaskOutputModel(TaskOutputModel(joined, 0.5, 2.0), 1.0, 9.0),
                frame]

    def test_total_load_fills_no_memo(self):
        models = self._theta_or_chains()
        specs = [TaskSpec(f"t{i}", 0.1, 0.2, m)
                 for i, m in enumerate(models)]
        nodes = [n for m in models for n in _prefix_memo_nodes(m)]
        assert len(nodes) >= 10
        util = SPPScheduler.total_load(specs)
        assert util == sum(0.2 * m.long_run_rate() for m in models)
        assert [len(n._dmin_memo) for n in nodes] == [2] * len(nodes)

    def test_task_load_is_wcet_times_rate(self):
        spec = TaskSpec("t", 1.0, 2.0,
                        TaskOutputModel(periodic(10.0), 16.0, 20.0))
        assert spec.load() == 2.0 / 16.0


class _RateOnly(EventModel):
    """A stream whose estimate must not be read: every utilisation
    check has to reach ``long_run_rate``."""

    def __init__(self, period):
        self._sem = periodic(period)
        self.rate_calls = 0

    def delta_min(self, n):
        return self._sem.delta_min(n)

    def delta_plus(self, n):
        return self._sem.delta_plus(n)

    def load(self, accuracy=1000):
        raise AssertionError("utilisation check read load()")

    def long_run_rate(self):
        self.rate_calls += 1
        return self._sem.long_run_rate()


@pytest.mark.parametrize("scheduler", [
    SPPScheduler(), SPNPScheduler(), EDFScheduler(),
    RoundRobinScheduler(), TDMAScheduler(),
    HierarchicalSPPScheduler(PeriodicResource(10.0, 8.0)),
    FlexRayStaticScheduler(FlexRayConfig(50.0, 5.0, 10, bit_time=0.1)),
], ids=lambda s: s.policy)
def test_every_scheduler_checks_the_structural_rate(scheduler):
    models = [_RateOnly(100.0), _RateOnly(200.0)]
    specs = [TaskSpec(f"t{i}", 1.0, 2.0, m, priority=i, slot=i + 1,
                      deadline=100.0)
             for i, m in enumerate(models)]
    result = scheduler.analyze(specs, "r")
    assert result.utilization == pytest.approx(2.0 / 100.0 + 2.0 / 200.0)
    assert all(m.rate_calls > 0 for m in models)
