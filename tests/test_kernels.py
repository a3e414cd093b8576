"""Unit tests for the batched busy-window kernels.

Covers the η⁺ dispatch kinds of the numpy workload evaluation, the
lane/load gate that picks the batched path, the joint vector fixed point
(including the warm-start overshoot guard), and scalar-vs-batched
equality on small resources.  The batched path needs numpy; tests that
run it skip when numpy is not installed.
"""

import math

import pytest

from repro._errors import NotSchedulableError
from repro.analysis import SPPScheduler, TaskSpec
from repro.analysis import busy_window, kernels
from repro.eventmodels import (
    StandardEventModel,
    TaskOutputModel,
    freeze,
    or_join,
    periodic,
    periodic_with_jitter,
)
from repro.eventmodels.base import EventModel, NullEventModel


def spp_tasks(n=6, util=0.8):
    tasks = []
    share = util / n
    for i in range(n):
        period = 60.0 * (i + 2) + 3.0 * (i % 3)
        em = StandardEventModel(period=period, jitter=0.4 * period,
                                d_min=1.0 + 0.2 * i)
        tasks.append(TaskSpec(name=f"t{i}", event_model=em,
                              c_min=0.5 * share * period,
                              c_max=share * period, priority=i + 1))
    return tasks


def result_digest(rr):
    return {n: (t.r_min, t.r_max, tuple(t.busy_times), t.q_max)
            for n, t in rr.task_results.items()}


# ----------------------------------------------------------------------
# EtaTable
# ----------------------------------------------------------------------
class _CustomEta(EventModel):
    """Overrides eta_plus -> must dispatch per-lane (scalar kind)."""

    def delta_min(self, n):
        return max(0.0, (n - 1) * 7.0)

    def delta_plus(self, n):
        return max(0.0, (n - 1) * 9.0)

    def eta_plus(self, dt):
        if dt <= 0:
            return 0
        return int(math.ceil(dt / 7.0))


class TestEtaTable:
    XS = [0.0, 0.5, 1.0, 7.0, 49.999, 50.0, 123.4, 9999.0]

    def check_matches_model(self, model):
        """Each x evaluates to exactly η⁺(x), both as one window per
        lane (the fixed-point iteration) and as one argument per lane
        and column (the EDF deadline caps).  A column the plan does not
        select (the null model) is the caller's zero."""
        np = pytest.importorskip("numpy")
        plan = kernels._TermPlan([kernels.EtaTable(model)])
        cols, dead = plan.select([True])
        xs = np.asarray(self.XS)
        expect = [float(model.eta_plus(x)) for x in self.XS]
        for arg in (xs, xs[:, None]):
            out = np.empty((len(self.XS), 1))
            plan.counts_matrix(arg, out, cols)
            if dead:
                out[:, dead] = 0.0
            assert out[:, 0].tolist() == expect

    def test_null_kind(self):
        tab = kernels.EtaTable(NullEventModel())
        assert tab.kind == kernels._KIND_NULL
        self.check_matches_model(NullEventModel())

    def test_sem_kind(self):
        model = StandardEventModel(period=50.0, jitter=120.0, d_min=4.0)
        assert kernels.EtaTable(model).kind == kernels._KIND_SEM
        self.check_matches_model(model)

    def test_sem_without_dmin(self):
        self.check_matches_model(StandardEventModel(period=33.0,
                                                    jitter=10.0))

    def test_table_kind_compiled(self):
        model = freeze(periodic_with_jitter(40.0, 90.0), n_max=256)
        assert kernels.EtaTable(model).kind == kernels._KIND_TABLE
        self.check_matches_model(model)

    def test_table_kind_prefix_memo(self):
        """Θ_τ and the OR-join answer η⁺ by a bisect over their δ⁻ memo,
        which equals the generic search: they stay table-kind."""
        frame = or_join([periodic_with_jitter(40.0, 90.0), periodic(70.0)])
        for model in (frame, TaskOutputModel(frame, 1.0, 6.0)):
            assert kernels.EtaTable(model).kind == kernels._KIND_TABLE
            self.check_matches_model(model)

    def test_scalar_kind_custom_override(self):
        model = _CustomEta()
        assert kernels.EtaTable(model).kind == kernels._KIND_SCALAR
        self.check_matches_model(model)

    def test_table_grows_beyond_seed(self):
        np = pytest.importorskip("numpy")
        model = freeze(periodic(10.0), n_max=4096)
        tab = kernels.EtaTable(model)
        # Far beyond the initial _TABLE_SEED samples.
        big = 10.0 * (kernels._TABLE_SEED * 8) + 5.0
        assert tab.eta_many(np.asarray([big])).tolist() == \
            [float(model.eta_plus(big))]


# ----------------------------------------------------------------------
# the batching gate
# ----------------------------------------------------------------------
class TestSwitches:
    """The lane/load gate that switches a resource between its scalar
    loop and the batched kernels."""

    def test_stats_counters_present(self):
        assert set(kernels.stats()) == {"batches", "lanes", "iterations"}

    def test_batch_worthwhile_lane_gate(self):
        pytest.importorskip("numpy")
        assert not kernels.batch_worthwhile(kernels.MIN_BATCH_LANES - 1, 0.9)
        assert kernels.batch_worthwhile(kernels.MIN_BATCH_LANES, 0.9)

    def test_batch_worthwhile_load_gate(self):
        pytest.importorskip("numpy")
        assert not kernels.batch_worthwhile(100, 0.1)
        assert kernels.batch_worthwhile(100, kernels.MIN_BATCH_LOAD)

    def test_batch_worthwhile_disabled(self, monkeypatch):
        # Without numpy nothing batches, however large or loaded.
        monkeypatch.setattr(kernels, "_np", None)
        assert not kernels.batch_worthwhile(10 ** 6, 1.0)

    def test_min_batch_zero_forces_batching(self, force_batching):
        assert kernels.batch_worthwhile(1, 0.0)


# ----------------------------------------------------------------------
# solve_round
# ----------------------------------------------------------------------
def _affine_eval(slopes, offsets):
    def eval_fn(ws, idx):
        return [slopes[i] * w + offsets[i] for i, w in zip(idx, ws)]
    return eval_fn


class TestSolveRound:
    def test_converges_to_affine_fixed_points(self):
        slopes, offsets = [0.5, 0.25, 0.0], [10.0, 30.0, 7.0]
        expect = [o / (1.0 - s) for s, o in zip(slopes, offsets)]
        values, errors, steps = kernels.solve_round(
            offsets, [None] * 3, _affine_eval(slopes, offsets),
            ["a", "b", "c"], ["a", "b", "c"], "res")
        assert errors == [None, None, None]
        assert values == pytest.approx(expect)
        assert all(s >= 1 for s in steps)

    def test_warm_start_overshoot_restarts_cold(self):
        slopes, offsets = [0.5], [10.0]
        # Hint far above the fixed point (20): the first evaluation
        # decreases, so the lane must restart from the cold start and
        # still land exactly on 20.
        values, errors, _ = kernels.solve_round(
            offsets, [1000.0], _affine_eval(slopes, offsets),
            ["a"], ["a"], "res")
        assert errors == [None]
        assert values[0] == pytest.approx(20.0)

    def test_blowup_recorded_not_raised(self):
        values, errors, _ = kernels.solve_round(
            [1.0], [None], _affine_eval([2.0], [1.0]),
            ["a"], ["a"], "res", limit=1e6)
        assert values == [None]
        assert isinstance(errors[0], NotSchedulableError)

    def test_good_hint_converges_immediately(self):
        # The exact fixed point as hint: one evaluation confirms it.
        _, errors, steps = kernels.solve_round(
            [10.0], [20.0], _affine_eval([0.5], [10.0]),
            ["a"], ["a"], "res")
        assert errors == [None]
        assert steps[0] == 1


# ----------------------------------------------------------------------
# batched vs scalar equality
# ----------------------------------------------------------------------
class TestBatchedEqualsScalar:
    @pytest.fixture(autouse=True)
    def _needs_numpy(self):
        pytest.importorskip("numpy")

    @staticmethod
    def scalar_digest(tasks):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_np", None)
            return result_digest(SPPScheduler().analyze(tasks, "res"))

    def test_small_spp_resource_bit_identical(self, force_batching):
        scalar = self.scalar_digest(spp_tasks())
        assert result_digest(SPPScheduler().analyze(spp_tasks(), "res")) \
            == scalar

    def test_warm_start_off_bit_identical(self, monkeypatch,
                                          force_batching):
        tasks = spp_tasks(util=0.9)
        warm = self.scalar_digest(tasks)
        monkeypatch.setattr(busy_window, "WARM_START", False)
        assert self.scalar_digest(tasks) == warm
        assert result_digest(SPPScheduler().analyze(tasks, "res")) == warm

    def test_stats_count_batches(self, force_batching):
        before = kernels.stats()["batches"]
        SPPScheduler().analyze(spp_tasks(), "res")
        assert kernels.stats()["batches"] > before

    def test_gate_keeps_tiny_resources_scalar(self):
        before = kernels.stats()["batches"]
        SPPScheduler().analyze(spp_tasks(n=3), "res")
        assert kernels.stats()["batches"] == before

    def test_without_numpy_runs_scalar(self, monkeypatch):
        # 40 tasks at 0.95 load clear the gate, so only numpy's absence
        # keeps this resource on the scalar loop.
        tasks = spp_tasks(n=40, util=0.95)
        assert kernels.batch_worthwhile(len(tasks), 0.95)
        before = kernels.stats()["batches"]
        batched = result_digest(SPPScheduler().analyze(tasks, "res"))
        assert kernels.stats()["batches"] > before
        monkeypatch.setattr(kernels, "_np", None)
        before = kernels.stats()["batches"]
        assert result_digest(SPPScheduler().analyze(tasks, "res")) == batched
        assert kernels.stats()["batches"] == before
