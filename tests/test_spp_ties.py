"""Equal-priority SPP ties are conservative interference.

Regression pin for the interferer-set rule in
:mod:`repro.analysis.spp`: the set is ``{j != i : prio_j <= prio_i}``,
not strictly ``<``.  The tie-break between equal priorities is
implementation-defined on a real platform, so each tied task must
assume it loses every race; a strict ``<`` would certify response
times a tie-losing execution can exceed.
"""

from repro.analysis import SPPScheduler, TaskSpec
from repro.analysis import kernels
from repro.eventmodels import periodic


def tied_pair():
    return [
        TaskSpec(name="a", event_model=periodic(100.0), c_min=10.0,
                 c_max=10.0, priority=1),
        TaskSpec(name="b", event_model=periodic(100.0), c_min=15.0,
                 c_max=15.0, priority=1),
    ]


class TestEqualPriorityTies:
    def test_tied_tasks_interfere_both_ways(self):
        rr = SPPScheduler().analyze(tied_pair(), "cpu")
        # Each task's WCRT includes the other's full execution: with a
        # strict < rule these would be 10 and 15.
        assert rr.task_results["a"].r_max == 25.0
        assert rr.task_results["b"].r_max == 25.0

    def test_tie_is_not_self_interference(self):
        rr = SPPScheduler().analyze(
            [TaskSpec(name="solo", event_model=periodic(100.0),
                      c_min=10.0, c_max=10.0, priority=1)], "cpu")
        assert rr.task_results["solo"].r_max == 10.0

    def test_strict_priorities_unaffected(self):
        tasks = [
            TaskSpec(name="hi", event_model=periodic(100.0), c_min=10.0,
                     c_max=10.0, priority=1),
            TaskSpec(name="lo", event_model=periodic(100.0), c_min=15.0,
                     c_max=15.0, priority=2),
        ]
        rr = SPPScheduler().analyze(tasks, "cpu")
        assert rr.task_results["hi"].r_max == 10.0  # no tie, no victim
        assert rr.task_results["lo"].r_max == 25.0

    def test_interferer_details_count_ties(self):
        rr = SPPScheduler().analyze(tied_pair(), "cpu")
        assert rr.task_results["a"].details["interferers"] == 1.0
        assert rr.task_results["b"].details["interferers"] == 1.0

    def test_batched_path_applies_same_tie_rule(self, monkeypatch,
                                                force_batching):
        batched = SPPScheduler().analyze(tied_pair(), "cpu")
        monkeypatch.setattr(kernels, "_np", None)
        scalar = SPPScheduler().analyze(tied_pair(), "cpu")
        for name in ("a", "b"):
            assert batched.task_results[name].r_max == \
                scalar.task_results[name].r_max == 25.0
