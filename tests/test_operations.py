"""Unit tests for stream operations: Θ_τ, OR/AND joins, shapers."""

import math

import pytest

from conftest import assert_delta_consistent
from repro._errors import ModelError, UnboundedStreamError
from repro.core.update import InnerJitterSpacingModel
from repro.eventmodels import (
    DminShaper,
    NullEventModel,
    StandardEventModel,
    TaskOutputModel,
    and_join,
    or_join,
    or_join_superposition,
    periodic,
    periodic_with_burst,
    periodic_with_jitter,
    sporadic,
)
from repro.eventmodels import base as _base
from repro.eventmodels import operations as _operations
from repro.eventmodels.base import EventModel
from repro.eventmodels.curves import FunctionEventModel
from repro.eventmodels.operations import _PairwiseOrJoin
from repro.timebase import INF


class TestTaskOutputModel:
    """Θ_τ: δ'⁻(n) = max(δ⁻(n) - (r⁺-r⁻), δ'⁻(n-1) + r⁻)."""

    def test_invalid_response_interval(self):
        with pytest.raises(ModelError):
            TaskOutputModel(periodic(100.0), 10.0, 5.0)
        with pytest.raises(ModelError):
            TaskOutputModel(periodic(100.0), -1.0, 5.0)

    def test_zero_span_identity_on_delta_min(self):
        # r- == r+ means pure delay: distances unchanged (recursion term
        # delta(n-1) + r- never dominates for a periodic stream with
        # P > r-).
        m = TaskOutputModel(periodic(100.0), 10.0, 10.0)
        for n in range(2, 10):
            assert m.delta_min(n) == periodic(100.0).delta_min(n)
            assert m.delta_plus(n) == periodic(100.0).delta_plus(n)

    def test_jitter_added(self):
        m = TaskOutputModel(periodic(100.0), 10.0, 40.0)
        # span 30: delta'-(2) = max(100 - 30, 0 + 10) = 70
        assert m.delta_min(2) == 70.0
        assert m.delta_plus(2) == 130.0

    def test_serialisation_floor(self):
        # Large span: consecutive outputs still at least r- apart.
        m = TaskOutputModel(periodic(10.0), 8.0, 200.0)
        assert m.delta_min(2) == 8.0
        assert m.delta_min(3) == 16.0  # recursion: 8 + 8

    def test_recursion_nondecreasing(self):
        m = TaskOutputModel(periodic_with_jitter(100.0, 50.0), 5.0, 90.0)
        assert_delta_consistent(m, n_max=40)

    def test_out_of_order_evaluation(self):
        # delta_min(10) first (fills memo), then delta_min(3).
        m = TaskOutputModel(periodic(100.0), 10.0, 40.0)
        big = m.delta_min(10)
        small = m.delta_min(3)
        fresh = TaskOutputModel(periodic(100.0), 10.0, 40.0)
        assert small == fresh.delta_min(3)
        assert big == fresh.delta_min(10)

    def test_response_span_property(self):
        assert TaskOutputModel(periodic(10.0), 2.0, 9.0).response_span \
            == 7.0

    def test_sporadic_input_keeps_inf(self):
        m = TaskOutputModel(sporadic(100.0), 5.0, 20.0)
        assert m.delta_plus(2) == INF


class TestOrJoinExactValues:
    """Hand-computed eq. (3)/(4) values."""

    def test_two_periodic_dmin(self):
        j = or_join([periodic(100.0), periodic(150.0)])
        # delta-(2): both can align -> 0
        assert j.delta_min(2) == 0.0
        # delta-(3): best packing: two events of the pair (0), plus one
        # more after min(100, 150) = 100?  Contribution (2,1): max(100,0)
        # =100; (1,2): max(0,150)=150; (3,0): 200; (0,3): 300 -> 100.
        assert j.delta_min(3) == 100.0
        assert j.delta_min(4) == 150.0  # (2,2): max(100,150)

    def test_two_periodic_dplus(self):
        j = or_join([periodic(100.0), periodic(150.0)])
        # delta+(2): n-2=0 -> min(delta1+(2), delta2+(2)) = 100
        assert j.delta_plus(2) == 100.0
        # delta+(3): splits (1,0): min(d1+(3), d2+(2)) = min(200,150)=150
        #            (0,1): min(d1+(2), d2+(3)) = min(100,300)=100 -> 150
        assert j.delta_plus(3) == 150.0

    def test_single_stream_passthrough(self):
        p = periodic(100.0)
        assert or_join([p]) is p

    def test_null_neutral(self):
        p = periodic(100.0)
        assert or_join([p, NullEventModel()]) is p

    def test_all_null(self):
        assert isinstance(or_join([NullEventModel()]), NullEventModel)

    def test_three_streams_associative(self):
        a, b, c = periodic(100.0), periodic(130.0), periodic(170.0)
        left = or_join([or_join([a, b]), c])
        right = or_join([a, or_join([b, c])])
        flat = or_join([a, b, c])
        for n in range(2, 16):
            assert left.delta_min(n) == pytest.approx(flat.delta_min(n))
            assert right.delta_min(n) == pytest.approx(flat.delta_min(n))
            assert left.delta_plus(n) == pytest.approx(flat.delta_plus(n))
            assert right.delta_plus(n) == pytest.approx(flat.delta_plus(n))

    def test_commutative(self):
        a, b = periodic_with_jitter(100.0, 30.0), periodic(170.0)
        ab, ba = or_join([a, b]), or_join([b, a])
        for n in range(2, 16):
            assert ab.delta_min(n) == pytest.approx(ba.delta_min(n))
            assert ab.delta_plus(n) == pytest.approx(ba.delta_plus(n))

    def test_sporadic_member_unbounds_partial_dplus(self):
        j = or_join([periodic(100.0), sporadic(400.0)])
        # Two consecutive join events still at most 100 apart (the
        # periodic stream keeps going).
        assert j.delta_plus(2) == 100.0
        # But allocating events to the sporadic stream cannot help the
        # max: (0 to sporadic) dominates, values stay finite.
        assert j.delta_plus(5) == 400.0

    def test_rate_superposition(self):
        j = or_join([periodic(100.0), periodic(200.0)])
        assert j.load(2000) == pytest.approx(0.01 + 0.005, rel=1e-2)

    def test_consistency(self):
        j = or_join([periodic_with_jitter(100.0, 40.0), periodic(170.0),
                     periodic(333.0)])
        assert_delta_consistent(j, n_max=30)


class TestOrJoinSuperpositionEquivalence:
    """The η-superposition OR-join must agree with the exact
    contribution-vector form (they are two evaluations of the same
    mathematical object)."""

    @pytest.mark.parametrize("models", [
        [periodic(100.0), periodic(150.0)],
        [periodic(100.0), periodic(130.0), periodic(170.0)],
        [periodic_with_jitter(100.0, 30.0), periodic(250.0)],
        [periodic_with_burst(100.0, 250.0, 10.0), periodic(400.0)],
    ])
    def test_delta_min_agree(self, models):
        exact = or_join(models)
        sup = or_join_superposition(models)
        for n in range(2, 20):
            assert sup.delta_min(n) == pytest.approx(
                exact.delta_min(n), abs=1e-6), n

    @pytest.mark.parametrize("models", [
        [periodic(100.0), periodic(150.0)],
        [periodic(100.0), periodic(130.0), periodic(170.0)],
        [periodic_with_jitter(100.0, 30.0), periodic(250.0)],
    ])
    def test_delta_plus_agree(self, models):
        exact = or_join(models)
        sup = or_join_superposition(models)
        for n in range(2, 20):
            assert sup.delta_plus(n) == pytest.approx(
                exact.delta_plus(n), abs=1e-6), n

    def test_eta_plus_is_sum(self):
        models = [periodic(100.0), periodic(150.0)]
        sup = or_join_superposition(models)
        for dt in (50.0, 100.5, 333.0, 1000.1):
            assert sup.eta_plus(dt) == sum(m.eta_plus(dt) for m in models)

    def test_randomized_bisection_stays_conservative(self):
        """The superposition join evaluates δ through tolerance-terminated
        bisection; against the exact pairwise join on randomized inputs
        its δ⁻ must never come out *larger* (nor its δ⁺ *smaller*) — the
        snap direction at the step must keep the bound safe."""
        import random

        rng = random.Random(1234)
        for _ in range(40):
            models = []
            for _ in range(rng.randint(2, 4)):
                p = rng.uniform(20.0, 400.0)
                models.append(StandardEventModel(
                    period=p, jitter=rng.uniform(0.0, 2.5 * p),
                    d_min=rng.choice([0.0, rng.uniform(0.0, 0.5 * p)])))
            exact = or_join(models)
            sup = or_join_superposition(models)
            for n in range(2, 24):
                d_exact = exact.delta_min(n)
                d_sup = sup.delta_min(n)
                assert d_sup <= d_exact, (n, d_sup, d_exact)
                assert d_sup == pytest.approx(d_exact, abs=1e-6,
                                              rel=1e-9), n
                p_exact = exact.delta_plus(n)
                p_sup = sup.delta_plus(n)
                assert p_sup >= p_exact, (n, p_sup, p_exact)
                if not math.isinf(p_exact):
                    assert p_sup == pytest.approx(p_exact, abs=1e-6,
                                                  rel=1e-9), n


class _Counting(EventModel):
    """Leaf wrapper counting the point and block queries reaching it."""

    def __init__(self, inner: EventModel):
        self.inner = inner
        self.name = inner.name
        self.points = 0
        self.blocks = 0

    def delta_min(self, n):
        self.points += 1
        return self.inner.delta_min(n)

    def delta_plus(self, n):
        self.points += 1
        return self.inner.delta_plus(n)

    def delta_min_block(self, n_max):
        self.blocks += 1
        return self.inner.delta_min_block(n_max)

    def delta_plus_block(self, n_max):
        self.blocks += 1
        return self.inner.delta_plus_block(n_max)


def _counting_leaves(k):
    return [_Counting(periodic_with_jitter(100.0 + 7.0 * i, 3.0 * i))
            for i in range(k)]


class TestRecursiveMemoFill:
    """Θ_τ and the pairwise OR-join answer a cold point by filling their
    memo through the block path: O(n) per node, not O(n) point queries
    of the inputs per point."""

    def test_cold_point_on_16_way_or_join_is_one_pass_per_level(
            self, monkeypatch):
        merges = []
        merge_min = _PairwiseOrJoin._fill_min

        def counted(self, n_max):
            merges.append(n_max)
            return merge_min(self, n_max)

        monkeypatch.setattr(_PairwiseOrJoin, "_fill_min", counted)
        leaves = _counting_leaves(16)
        join = or_join(leaves)
        value = join.delta_min(1000)
        assert merges == [1000] * 15  # one merge per fold level
        assert [(leaf.points, leaf.blocks) for leaf in leaves] == \
            [(0, 1)] * 16
        # the memo now covers the range: blocks come from it
        join.delta_min_block(500)
        assert len(merges) == 15
        assert all(leaf.blocks == 1 for leaf in leaves)
        reference = or_join([leaf.inner for leaf in leaves])
        assert value == reference.delta_min_eq3(1000)

    def test_point_walk_fills_geometrically(self):
        leaves = _counting_leaves(4)
        join = or_join(leaves)
        reference = or_join([leaf.inner for leaf in leaves])
        ref_min = reference.delta_min_block(1000)
        ref_plus = reference.delta_plus_block(1000)
        for n in range(0, 1001):
            assert join.delta_min(n) == ref_min[n]
            assert join.delta_plus(n) == ref_plus[n]
        # the memo doubles: 2, 4, ..., 1024 is ten passes per side
        assert all(leaf.points == 0 and leaf.blocks <= 20
                   for leaf in leaves)

    def test_theta_cold_point_is_one_block_pass(self):
        leaf = _Counting(periodic_with_jitter(100.0, 30.0))
        theta = TaskOutputModel(leaf, 2.0, 9.0)
        reference = TaskOutputModel(periodic_with_jitter(100.0, 30.0),
                                    2.0, 9.0)
        assert theta.delta_min(1000) == \
            reference.delta_min_block(1000)[1000]
        assert (leaf.points, leaf.blocks) == (0, 1)
        assert theta.delta_min_block(1000)[1000] == theta.delta_min(1000)
        assert leaf.blocks == 1


def _memo_chains():
    """A Θ_τ over a 3-way OR-join, that OR-join, and a Def. 9 inner
    update over it: the models that answer η⁺ by a bisect over their
    δ⁻ memo."""
    frame = or_join([periodic_with_jitter(100.0, 30.0),
                     periodic(250.0),
                     periodic_with_burst(100.0, 250.0, 10.0)])
    return {"theta": TaskOutputModel(frame, 2.0, 9.0), "or": frame,
            "ijs": InnerJitterSpacingModel(frame, jitter=7.0, spacing=2.0,
                                           k=3)}


class TestPrefixMemoEta:
    """η⁺ of Θ_τ and the pairwise OR-join is one bisect over the δ⁻
    memo; it must equal the generic exponential + binary search of
    :meth:`EventModel.eta_plus` everywhere."""

    @pytest.mark.parametrize("kind", ["theta", "or", "ijs"])
    def test_bisect_equals_generic_search(self, kind):
        reference = _memo_chains()[kind]
        steps = reference.delta_min_block(200)
        points = [-5.0, -1e-9, 0.0]
        for value in sorted(set(steps)):
            points += [value, math.nextafter(value, INF), value + 0.5]
        points += [steps[-1] * 3.0, steps[-1] * 40.0]  # past the memo
        model = _memo_chains()[kind]
        model.delta_min_block(16)  # a short memo, grown by η⁺ itself
        for dt in points:
            assert model.eta_plus(dt) == \
                EventModel.eta_plus(reference, dt), (kind, dt)

    @pytest.mark.parametrize("kind", ["theta", "or", "ijs"])
    def test_zero_distance_stream_is_unbounded(self, kind, monkeypatch):
        # a cap of 4096 events keeps the memo small; both searches
        # read the same cap
        monkeypatch.setattr(_base, "MAX_EVENTS", 4096)
        monkeypatch.setattr(_operations, "MAX_EVENTS", 4096)
        burst = FunctionEventModel(lambda n: 0.0, lambda n: INF,
                                   name="burst")
        model = {"theta": TaskOutputModel(burst, 0.0, 1.0),
                 "or": or_join([burst, periodic(10.0)]),
                 "ijs": InnerJitterSpacingModel(burst, 1.0, 0.0, 1)}[kind]
        with pytest.raises(UnboundedStreamError):
            EventModel.eta_plus(model, 1.0)
        with pytest.raises(UnboundedStreamError):
            model.eta_plus(1.0)

    def test_inner_update_far_point_stays_pointwise(self):
        """The utilisation check's δ⁻(1000) on an inner update is one
        query of its input, not a memo fill to 1000."""
        model = _memo_chains()["ijs"]
        reference = _memo_chains()["ijs"].delta_min_block(1000)
        assert model.delta_min(1000) == reference[1000]
        assert len(model._dmin_memo) == 2


class TestAndJoin:
    def test_slowest_dominates(self):
        j = and_join([periodic(100.0), periodic(150.0)])
        assert j.delta_min(2) == 150.0
        assert j.delta_plus(2) == 150.0

    def test_single_passthrough(self):
        p = periodic(100.0)
        assert and_join([p]) is p

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            and_join([])

    def test_eta_plus_is_min(self):
        a, b = periodic(100.0), periodic(150.0)
        j = and_join([a, b])
        for dt in (120.0, 500.0, 1000.0):
            assert j.eta_plus(dt) == min(a.eta_plus(dt), b.eta_plus(dt))

    def test_consistency(self):
        j = and_join([periodic_with_jitter(100.0, 20.0), periodic(100.0)])
        assert_delta_consistent(j)


class TestDminShaper:
    def test_negative_distance_rejected(self):
        with pytest.raises(ModelError):
            DminShaper(periodic(100.0), -1.0)

    def test_spacing_enforced(self):
        s = DminShaper(periodic_with_burst(100.0, 250.0, 0.0), 50.0)
        assert s.delta_min(2) == 50.0
        assert s.delta_min(3) == 100.0

    def test_already_spaced_stream_untouched(self):
        s = DminShaper(periodic(100.0), 50.0)
        for n in range(2, 10):
            assert s.delta_min(n) == periodic(100.0).delta_min(n)
        assert s.max_delay == 0.0

    def test_max_delay_burst(self):
        # Burst stream P=100, J=250, d=0 shaped to 50.  The shaping lag
        # (n-1)*50 - delta_min(n) peaks at n=3: 100 - 0 (and stays 100 at
        # n=4: 150 - 50) before the input's period outruns the shaper.
        burst = periodic_with_burst(100.0, 250.0, 0.0)
        s = DminShaper(burst, 50.0)
        assert s.max_delay == pytest.approx(100.0)

    def test_unstable_shaper_inf_delay(self):
        s = DminShaper(periodic(100.0), 150.0)
        assert s.max_delay == INF
        assert s.delta_plus(2) == INF

    def test_delta_plus_grows_by_delay(self):
        burst = periodic_with_burst(100.0, 250.0, 0.0)
        s = DminShaper(burst, 20.0)
        assert s.delta_plus(2) == burst.delta_plus(2) + s.max_delay

    def test_consistency(self):
        s = DminShaper(periodic_with_burst(100.0, 300.0, 5.0), 30.0)
        assert_delta_consistent(s, n_max=30)
