"""Unit tests for the round-robin, TDMA, and EDF analyses."""

import pytest

from repro._errors import ModelError, NotSchedulableError
from repro.analysis import (
    EDFScheduler,
    RoundRobinScheduler,
    TaskSpec,
    TDMAScheduler,
    edf_demand_schedulable,
    synchronous_busy_period,
)
from repro.analysis import edf, kernels
from repro.analysis.tdma import tdma_supply, tdma_supply_inverse
from repro.eventmodels import periodic, periodic_with_jitter


class TestRoundRobin:
    def _tasks(self):
        return [
            TaskSpec("a", 2.0, 2.0, periodic(20.0), priority=0, slot=2.0),
            TaskSpec("b", 4.0, 4.0, periodic(20.0), priority=0, slot=2.0),
        ]

    def test_needs_slot(self):
        bad = [TaskSpec("a", 2.0, 2.0, periodic(20.0))]
        with pytest.raises(ModelError):
            RoundRobinScheduler().analyze(bad, "cpu")

    def test_interference_bounded_by_rounds(self):
        result = RoundRobinScheduler().analyze(self._tasks(), "cpu")
        # a needs 1 round: b can interfere at most one slot (2) and at
        # most its arrivals (4): min is 2 -> r = 4.
        assert result["a"].r_max == 4.0

    def test_interference_bounded_by_arrivals(self):
        tasks = [
            TaskSpec("a", 6.0, 6.0, periodic(30.0), priority=0, slot=2.0),
            TaskSpec("b", 1.0, 1.0, periodic(30.0), priority=0, slot=9.0),
        ]
        result = RoundRobinScheduler().analyze(tasks, "cpu")
        # a needs ceil(6/2)=3 rounds; b could take 27 by slots but only
        # has 1 unit of work per 30 -> interference 1, r = 7.
        assert result["a"].r_max == 7.0

    def test_symmetric_tasks(self):
        result = RoundRobinScheduler().analyze(self._tasks(), "cpu")
        # b needs 2 rounds; a interferes min(eta_a*2, 2*2) = 2 -> 6.
        assert result["b"].r_max == 6.0

    def test_overload_rejected(self):
        tasks = [
            TaskSpec("a", 15.0, 15.0, periodic(20.0), slot=1.0),
            TaskSpec("b", 10.0, 10.0, periodic(20.0), slot=1.0),
        ]
        with pytest.raises(NotSchedulableError):
            RoundRobinScheduler().analyze(tasks, "cpu")


class TestTdmaSupply:
    def test_supply_zero_before_first_slot(self):
        # slot 2 in cycle 10: worst case starts right after own slot.
        assert tdma_supply(0.0, 2.0, 10.0) == 0.0
        assert tdma_supply(8.0, 2.0, 10.0) == 0.0

    def test_supply_ramps_in_slot(self):
        assert tdma_supply(9.0, 2.0, 10.0) == 1.0
        assert tdma_supply(10.0, 2.0, 10.0) == 2.0

    def test_supply_flat_between_slots(self):
        assert tdma_supply(15.0, 2.0, 10.0) == 2.0

    def test_inverse_roundtrip(self):
        for demand in (0.5, 1.0, 2.0, 3.0, 7.5, 20.0):
            t = tdma_supply_inverse(demand, 2.0, 10.0)
            assert tdma_supply(t, 2.0, 10.0) == pytest.approx(demand)
            # minimality: epsilon earlier must not suffice
            assert tdma_supply(t - 1e-6, 2.0, 10.0) < demand

    def test_inverse_zero(self):
        assert tdma_supply_inverse(0.0, 2.0, 10.0) == 0.0


class TestTdmaAnalysis:
    def _tasks(self):
        return [
            TaskSpec("a", 1.0, 1.0, periodic(20.0), slot=2.0),
            TaskSpec("b", 3.0, 3.0, periodic(20.0), slot=3.0),
        ]

    def test_wcrt_includes_wait_for_slot(self):
        result = TDMAScheduler().analyze(self._tasks(), "cpu")
        # cycle 5; a: wait 3 (other slot), then 1 unit -> 4.
        assert result["a"].r_max == 4.0

    def test_full_slot_demand(self):
        result = TDMAScheduler().analyze(self._tasks(), "cpu")
        # b: wait 2, then 3 -> 5.
        assert result["b"].r_max == 5.0

    def test_share_overload_rejected(self):
        tasks = [TaskSpec("a", 5.0, 5.0, periodic(10.0), slot=1.0),
                 TaskSpec("b", 1.0, 1.0, periodic(10.0), slot=4.0)]
        with pytest.raises(NotSchedulableError):
            TDMAScheduler().analyze(tasks, "cpu")

    def test_needs_slot(self):
        with pytest.raises(ModelError):
            TDMAScheduler().analyze(
                [TaskSpec("a", 1.0, 1.0, periodic(10.0))], "cpu")

    def test_isolation_from_other_load(self):
        # TDMA isolates: doubling the other task's demand does not change
        # this task's WCRT (unlike RR/SPP).
        t1 = [TaskSpec("a", 1.0, 1.0, periodic(20.0), slot=2.0),
              TaskSpec("b", 1.0, 1.0, periodic(20.0), slot=3.0)]
        t2 = [TaskSpec("a", 1.0, 1.0, periodic(20.0), slot=2.0),
              TaskSpec("b", 3.0, 3.0, periodic(20.0), slot=3.0)]
        r1 = TDMAScheduler().analyze(t1, "cpu")["a"].r_max
        r2 = TDMAScheduler().analyze(t2, "cpu")["a"].r_max
        assert r1 == r2


class TestEdf:
    def _tasks(self):
        return [
            TaskSpec("a", 1.0, 1.0, periodic(4.0), deadline=4.0),
            TaskSpec("b", 2.0, 2.0, periodic(6.0), deadline=6.0),
            TaskSpec("c", 3.0, 3.0, periodic(12.0), deadline=12.0),
        ]

    def test_busy_period(self):
        # Utilisation ~0.83: synchronous busy period closes.
        length = synchronous_busy_period(self._tasks())
        assert length > 0
        # Workload at the result equals the result (fixed point).
        demand = sum(t.event_model.eta_plus(length) * t.c_max
                     for t in self._tasks())
        assert demand == pytest.approx(length)

    def test_demand_schedulable(self):
        assert edf_demand_schedulable(self._tasks())

    def test_demand_unschedulable_tight_deadlines(self):
        tasks = [
            TaskSpec("a", 3.0, 3.0, periodic(10.0), deadline=3.0),
            TaskSpec("b", 3.0, 3.0, periodic(10.0), deadline=3.0),
        ]
        assert not edf_demand_schedulable(tasks)

    def test_needs_deadline(self):
        with pytest.raises(ModelError):
            edf_demand_schedulable(
                [TaskSpec("a", 1.0, 1.0, periodic(4.0))])

    def test_response_bounds_cover_demand_test(self):
        # If WCRT <= deadline for all tasks, the demand test must agree.
        tasks = self._tasks()
        result = EDFScheduler().analyze(tasks, "cpu")
        if all(result[t.name].r_max <= t.deadline for t in tasks):
            assert edf_demand_schedulable(tasks)

    def test_response_at_least_wcet(self):
        result = EDFScheduler().analyze(self._tasks(), "cpu")
        assert result["c"].r_max >= 3.0

    def test_short_deadline_prioritised(self):
        # A task with a much shorter deadline suffers less interference.
        tasks = [
            TaskSpec("urgent", 1.0, 1.0, periodic(10.0), deadline=2.0),
            TaskSpec("lazy", 4.0, 4.0, periodic(10.0), deadline=10.0),
        ]
        result = EDFScheduler().analyze(tasks, "cpu")
        assert result["urgent"].r_max <= 2.0
        assert result["lazy"].r_max >= result["urgent"].r_max

    def test_overload_rejected(self):
        tasks = [
            TaskSpec("a", 6.0, 6.0, periodic(10.0), deadline=10.0),
            TaskSpec("b", 5.0, 5.0, periodic(10.0), deadline=10.0),
        ]
        with pytest.raises(NotSchedulableError):
            EDFScheduler().analyze(tasks, "cpu")

    @staticmethod
    def _budget_tasks():
        # Cut after 1 or 2 deadlines per interferer, the candidate sweep
        # misses an alignment and reports t2 at 38.0 instead of 39.0.
        return [
            TaskSpec(name, c, c, periodic_with_jitter(p, p), deadline=d)
            for name, c, p, d in (("t0", 4.0, 12.0, 12.0),
                                  ("t1", 10.0, 25.0, 12.0),
                                  ("t2", 5.0, 40.0, 20.0))]

    @pytest.mark.parametrize("path", ["scalar", "batched"])
    def test_candidate_budget_raises(self, monkeypatch, path):
        expected = EDFScheduler().analyze(self._budget_tasks(), "cpu")
        assert expected["t2"].r_max == 39.0
        if path == "batched":
            pytest.importorskip("numpy")
            monkeypatch.setattr(kernels, "MIN_BATCH_LANES", 0)
            monkeypatch.setattr(kernels, "MIN_BATCH_LOAD", 0.0)
        else:
            monkeypatch.setattr(kernels, "_np", None)
        # L = 174.  t2 (D 20) needs t0's deadlines up to 192, the 17th:
        # a budget of 17 sweeps every one inside the busy period.
        monkeypatch.setattr(edf, "MAX_ACTIVATIONS", 17)
        got = EDFScheduler().analyze(self._budget_tasks(), "cpu")
        assert all(got[t].r_max == expected[t].r_max
                   for t in ("t0", "t1", "t2"))
        for budget, task in ((16, "t2"), (2, "t0")):
            monkeypatch.setattr(edf, "MAX_ACTIVATIONS", budget)
            with pytest.raises(NotSchedulableError) as info:
                EDFScheduler().analyze(self._budget_tasks(), "cpu")
            assert (info.value.resource, info.value.task) == ("cpu", task)
            assert info.value.context["reason"] == "activation_budget"

    def test_demand_budget_raises(self, monkeypatch):
        # t0 has 15 deadlines inside the busy period (L = 174): a budget
        # of 15 tests them all and answers.
        expected = edf_demand_schedulable(self._budget_tasks())
        monkeypatch.setattr(edf, "MAX_ACTIVATIONS", 15)
        assert edf_demand_schedulable(self._budget_tasks()) is expected
        # Cut any earlier, the test used to answer for points it never
        # tested.
        for budget in (14, 1):
            monkeypatch.setattr(edf, "MAX_ACTIVATIONS", budget)
            with pytest.raises(NotSchedulableError) as info:
                edf_demand_schedulable(self._budget_tasks())
            assert info.value.task == "t0"
            assert info.value.context["reason"] == "activation_budget"
        with pytest.raises(NotSchedulableError) as info:
            edf_demand_schedulable(self._budget_tasks(), resource="cpu")
        assert info.value.resource == "cpu"
