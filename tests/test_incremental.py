"""Dirty-set incremental re-analysis: memo layer, propagation wiring,
batch/serve integration.

The memo layer's contract is *soundness by fingerprint equality*: a
reuse happens only when the structural fingerprint of an analysis input
(or a task's influence cone) matches the previous run exactly — so an
incremental run is bit-identical to a cold one, it just skips redundant
solver work.
"""

import pytest

from repro import System, analyze_system, periodic
from repro.analysis import SPPScheduler, TaskSpec, TDMAScheduler
from repro.analysis.memo import (
    AnalysisMemo,
    LocalAnalysisMemo,
    memo_for,
    memo_pool_stats,
    resource_fingerprint,
    scheduler_key,
    spec_fingerprint,
)
from repro.batch import Axis, DesignSpace
from repro.batch.jobs import Job, run_job
from repro.eventmodels import StandardEventModel
from repro.eventmodels.base import EventModel
from repro.system import system_to_dict


def make_specs(n=4, util=0.6, scale_last=1.0):
    specs = []
    share = util / n
    for i in range(n):
        period = 70.0 * (i + 2)
        cmax = share * period * (scale_last if i == n - 1 else 1.0)
        specs.append(TaskSpec(
            name=f"t{i}",
            event_model=StandardEventModel(period=period,
                                           jitter=0.3 * period),
            c_min=0.5 * cmax, c_max=cmax, priority=i + 1))
    return specs


def digest(rr):
    return {n: (t.r_min, t.r_max, tuple(t.busy_times), t.q_max)
            for n, t in rr.task_results.items()}


class _Unfingerprintable(EventModel):
    """No registry entry -> fingerprint None -> memoisation disabled."""

    def delta_min(self, n):
        return max(0.0, (n - 1) * 50.0)

    def delta_plus(self, n):
        return max(0.0, (n - 1) * 50.0)


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_spec_fingerprint_stable_and_discriminating(self):
        a, b = make_specs(2)
        assert spec_fingerprint(a) == spec_fingerprint(a)
        assert spec_fingerprint(a) != spec_fingerprint(b)

    def test_spec_fingerprint_sees_wcet_change(self):
        spec = make_specs(1)[0]
        bumped = TaskSpec(name=spec.name, event_model=spec.event_model,
                          c_min=spec.c_min, c_max=spec.c_max * 2.0,
                          priority=spec.priority)
        assert spec_fingerprint(spec) != spec_fingerprint(bumped)

    def test_unfingerprintable_model_poisons_key(self):
        spec = TaskSpec(name="x", event_model=_Unfingerprintable(),
                        c_min=1.0, c_max=2.0, priority=1)
        assert spec_fingerprint(spec) is None
        assert resource_fingerprint(SPPScheduler(), [spec]) is None

    def test_scheduler_key_discriminates_parameters(self):
        assert scheduler_key(SPPScheduler()) == \
            scheduler_key(SPPScheduler())
        assert scheduler_key(SPPScheduler(utilization_limit=0.7)) != \
            scheduler_key(SPPScheduler())

    def test_resource_fingerprint_is_order_sensitive(self):
        specs = make_specs(3)
        sched = SPPScheduler()
        assert resource_fingerprint(sched, specs) != \
            resource_fingerprint(sched, list(reversed(specs)))


# ----------------------------------------------------------------------
# LocalAnalysisMemo
# ----------------------------------------------------------------------
class TestLocalMemo:
    def test_identical_rerun_is_whole_resource_hit(self):
        memo = LocalAnalysisMemo()
        specs = make_specs()
        first, info1 = memo.analyze(SPPScheduler(), specs, "cpu")
        second, info2 = memo.analyze(SPPScheduler(), specs, "cpu")
        assert info1["resource_hit"] == 0
        assert info2["resource_hit"] == 1
        assert digest(second) == digest(first)
        assert memo.stats()["resource_hits"] == 1

    def test_single_task_edit_reuses_influence_cone(self):
        # SPP: only same-or-higher priorities influence a task, so
        # editing the lowest-priority task leaves every other task's
        # cone untouched.
        memo = LocalAnalysisMemo()
        memo.analyze(SPPScheduler(), make_specs(), "cpu")
        edited = make_specs(scale_last=1.5)
        result, info = memo.analyze(SPPScheduler(), edited, "cpu")
        assert info["resource_hit"] == 0
        assert info["reused_tasks"] == len(edited) - 1
        # Bit-identical to a cold analysis of the edited set.
        cold = SPPScheduler().analyze(edited, "cpu")
        assert digest(result) == digest(cold)

    def test_tdma_reuse_is_per_task(self):
        # TDMA influence is own spec + cycle length: editing one task's
        # WCET leaves the others reusable.
        def tdma_specs(scale=1.0):
            out = []
            for i, spec in enumerate(make_specs(util=0.3)):
                cmax = spec.c_max * (scale if i == 0 else 1.0)
                out.append(TaskSpec(name=spec.name,
                                    event_model=spec.event_model,
                                    c_min=0.5 * cmax, c_max=cmax,
                                    slot=5.0))
            return out

        memo = LocalAnalysisMemo()
        memo.analyze(TDMAScheduler(), tdma_specs(), "bus")
        result, info = memo.analyze(TDMAScheduler(), tdma_specs(1.4),
                                    "bus")
        assert info["reused_tasks"] == 3
        cold = TDMAScheduler().analyze(tdma_specs(1.4), "bus")
        assert digest(result) == digest(cold)

    def test_unfingerprintable_input_never_reuses(self):
        spec = TaskSpec(name="x", event_model=_Unfingerprintable(),
                        c_min=1.0, c_max=2.0, priority=1)
        memo = LocalAnalysisMemo()
        memo.analyze(SPPScheduler(), [spec], "cpu")
        _, info = memo.analyze(SPPScheduler(), [spec], "cpu")
        assert info["resource_hit"] == 0
        assert info["reused_tasks"] == 0

    def test_lru_eviction_bounds_entries(self):
        memo = LocalAnalysisMemo(max_entries=2)
        for scale in (1.0, 1.1, 1.2, 1.3):
            memo.analyze(SPPScheduler(), make_specs(scale_last=scale),
                         "cpu")
        assert memo.stats()["entries"] == 2


# ----------------------------------------------------------------------
# AnalysisMemo + analyze_system
# ----------------------------------------------------------------------
def two_stage(scale=1.0):
    s = System("inc")
    s.add_source("src0", periodic(100.0))
    s.add_source("src1", periodic(140.0))
    s.add_resource("front", SPPScheduler())
    s.add_task("f0", "front", (5.0, 10.0), ["src0"], priority=1)
    s.add_task("f1", "front", (5.0, 12.0), ["src1"], priority=2)
    s.add_resource("back", SPPScheduler())
    s.add_task("b0", "back", (4.0 * scale, 8.0 * scale), ["f0"],
               priority=1)
    s.add_task("b1", "back", (4.0, 9.0), ["f1"], priority=2)
    return s


def sys_digest(result):
    return (result.iterations,
            {rn: digest(rr)
             for rn, rr in sorted(result.resource_results.items())},
            tuple(sorted(result.path_latencies.items())))


class TestSystemMemo:
    def test_memoised_run_bit_identical_including_iterations(self):
        cold = sys_digest(analyze_system(two_stage()))
        memo = AnalysisMemo()
        warm1 = sys_digest(analyze_system(two_stage(), memo=memo))
        warm2 = sys_digest(analyze_system(two_stage(), memo=memo))
        assert warm1 == cold
        assert warm2 == cold
        assert memo.stats()["resource_hits"] > 0

    def test_single_axis_sweep_reuses_unchanged_resource(self):
        memo = AnalysisMemo()
        for scale in (1.0, 1.2, 1.4):
            warm = sys_digest(analyze_system(two_stage(scale),
                                             memo=memo))
            assert warm == sys_digest(analyze_system(two_stage(scale)))
        stats = memo.stats()
        assert stats["task_reuses"] > 0
        assert 0.0 < stats["reuse_rate"] <= 1.0

    def test_hot_resource_sweep_reuse_counts(self):
        """A 40-task SPP resource at 95% load feeding a 3-task leaf; the
        leaf WCETs move, the hot resource's inputs do not.  The work the
        memo saves, counted: 7 of 16 resource analyses hit and 284 of
        344 task results are reused."""
        def build(scale):
            s = System("hot-sweep")
            for i in range(40):
                period = 100.0 * (i + 3) + 7.0 * (i % 5)
                s.add_source(f"S{i}", StandardEventModel(
                    period=period, jitter=period * 0.5,
                    d_min=1.0 + 0.1 * i))
            s.add_resource("BIG", SPPScheduler())
            for i in range(40):
                cmax = 0.95 / 40 * (100.0 * (i + 3) + 7.0 * (i % 5))
                s.add_task(f"B{i}", "BIG", (cmax * 0.6, cmax), [f"S{i}"],
                           priority=i + 1)
            s.add_resource("LEAF", SPPScheduler())
            for i in range(3):
                cmax = 40.0 * scale
                s.add_task(f"L{i}", "LEAF", (cmax * 0.5, cmax), [f"B{i}"],
                           priority=i + 1)
            return s

        memo = AnalysisMemo()
        for scale in (1.0, 1.1, 1.2, 1.3):
            analyze_system(build(scale), memo=memo)
        stats = memo.stats()
        assert (stats["analyses"], stats["resource_hits"]) == (16, 7)
        assert (stats["task_reuses"], stats["tasks_total"]) == (284, 344)

    def test_busy_memo_is_skipped_not_awaited(self):
        memo = AnalysisMemo()
        assert memo.acquire()
        try:
            # Analysis still succeeds while the memo is held elsewhere.
            result = analyze_system(two_stage(), memo=memo)
            assert result.converged
        finally:
            memo.release()


# ----------------------------------------------------------------------
# memo pool, batch jobs, design spaces
# ----------------------------------------------------------------------
class TestPoolAndBatch:
    def test_memo_for_is_per_group_singleton(self):
        a = memo_for("test-incremental-group-a")
        assert memo_for("test-incremental-group-a") is a
        assert memo_for("test-incremental-group-b") is not a

    def test_memo_pool_stats_lists_groups(self):
        memo_for("test-incremental-group-stats")
        stats = memo_pool_stats()
        assert "test-incremental-group-stats" in stats
        assert "reuse_rate" in stats["test-incremental-group-stats"]

    def test_job_option_routes_through_named_memo(self):
        payload = {"system": system_to_dict(two_stage())}
        cold = run_job(Job("analyze", payload))
        assert cold.ok
        assert "incremental" not in cold.data
        warm = run_job(Job("analyze", payload,
                           options={"incremental": "test-inc-job"}))
        assert warm.ok
        assert warm.data["incremental"]["group"] == "test-inc-job"
        # Options never change what the job computes...
        assert warm.data["wcrt"] == cold.data["wcrt"]
        assert warm.data["iterations"] == cold.data["iterations"]
        # ...nor its content key (cache identity).
        assert Job("analyze", payload).key == \
            Job("analyze", payload,
                options={"incremental": "test-inc-job"}).key

    def test_second_incremental_job_reuses(self):
        payload = {"system": system_to_dict(two_stage())}
        options = {"incremental": "test-inc-job-reuse"}
        run_job(Job("analyze", payload, options=options))
        again = run_job(Job("analyze", payload, options=options))
        assert again.data["incremental"]["reused_tasks"] > 0
        assert again.data["incremental"]["reuse_rate"] > 0.0

    def test_design_space_incremental_flag_sets_job_option(self):
        def build(wcet_scale):
            return two_stage(wcet_scale)

        space = DesignSpace(
            "inc-space", [Axis("wcet_scale", values=(1.0, 1.2))],
            builder=build, incremental=True)
        jobs = space.jobs()
        assert all(job.options == {"incremental": "space:inc-space"}
                   for _, job in jobs)
        cold_space = DesignSpace(
            "inc-space", [Axis("wcet_scale", values=(1.0, 1.2))],
            builder=build)
        assert all(job.options == {} for _, job in cold_space.jobs())
        # Same content keys either way: one cache entry per point.
        assert [j.key for _, j in jobs] == \
            [j.key for _, j in cold_space.jobs()]
