"""Property-based bit-identity tests for the batched kernels and the
dirty-set incremental re-analysis.

The contract under test is exact equality, not approximation: for any
SPP or EDF task set, the scalar loops and the numpy kernels must
produce the same floats bit-for-bit — including busy-window sequences,
q_max, global iteration counts, degraded-mode health maps, and
fault-injected variants.  Likewise an incremental (memoised) sweep must
reproduce the from-scratch results exactly after single-axis edits.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Fault, FaultPlan, analyze_system, inject_faults
from repro._errors import NotSchedulableError
from repro.analysis import EDFScheduler, SPPScheduler, TaskSpec
from repro.analysis import busy_window, kernels
from repro.analysis.memo import AnalysisMemo
from repro.eventmodels import StandardEventModel, TaskOutputModel, or_join
from repro.eventmodels.base import EventModel
from repro.examples_lib.rox08 import build_system as build_rox08
from repro.system import System


# ----------------------------------------------------------------------
# digests & mode harness
# ----------------------------------------------------------------------
def resource_digest(rr):
    return {n: (t.r_min, t.r_max, tuple(t.busy_times), t.q_max)
            for n, t in rr.task_results.items()}


def system_digest(result):
    return (result.iterations,
            {rn: resource_digest(rr)
             for rn, rr in sorted(result.resource_results.items())},
            tuple(sorted(result.path_latencies.items())))


def run_modes(fn):
    """Run *fn* on the scalar loops, then with every SPP/EDF resource
    forced through the numpy kernels; both outcomes (value, or error
    with its resource, task, message and context) must match exactly.

    Forcing ignores the lane/load gate even on the deliberately tiny
    randomized systems; the gate is a pure speed heuristic, so that must
    not change any result.
    """
    pytest.importorskip("numpy")
    outcomes = {}
    for mode in ("scalar", "numpy"):
        with pytest.MonkeyPatch.context() as mp:
            if mode == "scalar":
                mp.setattr(kernels, "_np", None)
            else:
                mp.setattr(kernels, "MIN_BATCH_LANES", 0)
                mp.setattr(kernels, "MIN_BATCH_LOAD", 0.0)
            try:
                outcomes[mode] = ("ok", fn())
            except NotSchedulableError as exc:
                outcomes[mode] = ("notsched", exc.resource, exc.task,
                                  str(exc), exc.context)
    assert outcomes["numpy"] == outcomes["scalar"], \
        "numpy diverges from scalar"
    return outcomes["scalar"]


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def task_sets(draw, policy):
    n = draw(st.integers(min_value=2, max_value=6))
    util = draw(st.floats(min_value=0.2, max_value=0.85))
    share = util / n
    tasks = []
    for i in range(n):
        period = draw(st.floats(min_value=20.0, max_value=400.0))
        jitter = draw(st.floats(min_value=0.0, max_value=1.5)) * period
        # d_min is either absent or meaningfully large: a denormal-tiny
        # d_min makes η⁺ counts overflow in *any* backend (degenerate
        # model, not a kernel property).
        d_min = draw(st.one_of(
            st.none(), st.floats(min_value=0.5, max_value=5.0)))
        em = StandardEventModel(period=period, jitter=jitter,
                                d_min=d_min)
        # Table-kind streams too (η⁺ by a search over δ⁻): a Θ_τ output
        # of the source, or an OR-join of it with a second source.
        rate = 1.0 / period
        shape = draw(st.sampled_from(("standard", "output", "or_join")))
        if shape == "output":
            r_max = draw(st.floats(min_value=0.0, max_value=1.0)) * period
            em = TaskOutputModel(em, draw(st.floats(min_value=0.0,
                                                    max_value=1.0)) * r_max,
                                 r_max)
        elif shape == "or_join":
            other = draw(st.floats(min_value=20.0, max_value=400.0))
            em = or_join([em, StandardEventModel(period=other,
                                                 jitter=0.5 * other)])
            rate += 1.0 / other
        cmax = max(1e-3, share / rate)
        if policy == "spp":
            kw = {"priority": i + 1}
        else:
            kw = {"deadline": period * draw(st.floats(min_value=1.0,
                                                      max_value=3.0))}
        tasks.append(TaskSpec(name=f"t{i}", event_model=em,
                              c_min=0.5 * cmax, c_max=cmax, **kw))
    return tasks


SCHEDULERS = {
    "spp": SPPScheduler,
    "edf": EDFScheduler,
}


# ----------------------------------------------------------------------
# whole-resource bit-identity of the batched policies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", sorted(SCHEDULERS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_resource_bit_identity(policy, data):
    tasks = data.draw(task_sets(policy))
    scheduler = SCHEDULERS[policy]()
    run_modes(lambda: resource_digest(scheduler.analyze(tasks, "res")))


class _DropsAt60(EventModel):
    """δ⁻(n) = 7(n − 1), but η⁺ falls back to 1 from 60 on: an SPP
    workload over it stops being monotone (scalar-kind column)."""

    def delta_min(self, n):
        return max(0.0, (n - 1) * 7.0)

    def delta_plus(self, n):
        return max(0.0, (n - 1) * 7.0)

    def eta_plus(self, dt):
        if dt <= 0:
            return 0
        return 1 if dt >= 60.0 else int(math.ceil(dt / 7.0))


def non_monotone_spp():
    return SPPScheduler().analyze([
        TaskSpec("a", 2.0, 2.0, _DropsAt60(), priority=1),
        TaskSpec("b", 3.0, 3.0, StandardEventModel(period=10.0, jitter=20.0),
                 priority=2),
        TaskSpec("c", 4.0, 4.0, StandardEventModel(period=16.0, jitter=16.0),
                 priority=3)], "cpu")


def edf_budget_set():
    return EDFScheduler().analyze([
        TaskSpec(name, c, c, StandardEventModel(period=p, jitter=p),
                 deadline=d)
        for name, c, p, d in (("t0", 4.0, 12.0, 12.0),
                              ("t1", 10.0, 25.0, 12.0),
                              ("t2", 5.0, 40.0, 20.0))], "cpu")


@pytest.mark.parametrize("case, budget, message", [
    (non_monotone_spp, None,
     "cpu/c SPP q=5: workload function not monotone (46.0 < 60.0)"),
    (edf_budget_set, 2, "busy window did not close within 2 activations"),
], ids=["spp-non-monotone", "edf-activation-budget"])
def test_forced_error_bit_identity(monkeypatch, case, budget, message):
    """Both paths raise the same error, message and context included:
    the batched path formats its messages only for failing lanes."""
    if budget is not None:
        monkeypatch.setattr(busy_window, "MAX_ACTIVATIONS", budget)
        monkeypatch.setattr(kernels, "MAX_ACTIVATIONS", budget)
    outcome = run_modes(lambda: resource_digest(case()))
    assert outcome[0] == "notsched"
    assert outcome[3] == message


# ----------------------------------------------------------------------
# end-to-end bit-identity, including degraded & fault-injected systems
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", ["flat", "hem"])
def test_rox08_end_to_end_bit_identity(variant):
    run_modes(lambda: system_digest(analyze_system(build_rox08(variant))))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_fault_injected_bit_identity(seed):
    base = build_rox08("hem")
    plan = FaultPlan.sample(base, seed=seed)

    def run():
        system = inject_faults(base, plan)
        outcome = analyze_system(system, on_failure="degrade")
        return json.dumps(outcome.to_dict(), sort_keys=True)

    run_modes(run)


def test_degraded_overload_bit_identity():
    from repro.examples_lib.stress import build_overloaded

    def run():
        outcome = analyze_system(build_overloaded(), on_failure="degrade")
        return json.dumps(outcome.to_dict(), sort_keys=True)

    run_modes(run)


def test_can_error_burst_bit_identity():
    # A CAN error burst on the (always scalar) SPNP bus must leave the
    # batched CPU resources it feeds bit-identical.
    base = build_rox08("hem")
    plan = FaultPlan((Fault("can_error_burst", "CAN", 3),))

    def run():
        outcome = analyze_system(inject_faults(base, plan),
                                 on_failure="degrade")
        return json.dumps(outcome.to_dict(), sort_keys=True)

    run_modes(run)


# ----------------------------------------------------------------------
# incremental == from-scratch after single-axis edits
# ----------------------------------------------------------------------
def build_two_stage(scale: float) -> System:
    system = System("sweep")
    for i in range(4):
        period = 80.0 * (i + 2)
        system.add_source(f"S{i}", StandardEventModel(
            period=period, jitter=0.5 * period, d_min=1.0))
    system.add_resource("BIG", SPPScheduler())
    for i in range(4):
        period = 80.0 * (i + 2)
        system.add_task(f"B{i}", "BIG", (0.05 * period, 0.1 * period),
                        [f"S{i}"], priority=i + 1)
    system.add_resource("LEAF", SPPScheduler())
    for i in range(2):
        system.add_task(f"L{i}", "LEAF",
                        (5.0 * scale, 10.0 * scale), [f"B{i}"],
                        priority=i + 1)
    return system


@settings(max_examples=15, deadline=None)
@given(scales=st.lists(st.floats(min_value=0.2, max_value=3.0),
                       min_size=2, max_size=5))
def test_incremental_sweep_matches_from_scratch(scales):
    cold = [system_digest(analyze_system(build_two_stage(s)))
            for s in scales]
    memo = AnalysisMemo()
    warm = [system_digest(analyze_system(build_two_stage(s), memo=memo))
            for s in scales]
    assert warm == cold
    stats = memo.stats()
    assert stats["tasks_total"] > 0
    # Only the LEAF edits: the BIG resource must see heavy reuse.
    assert stats["task_reuses"] > 0


@settings(max_examples=10, deadline=None)
@given(scale=st.floats(min_value=0.2, max_value=3.0))
def test_incremental_identical_rerun_hits_resource_cache(scale):
    memo = AnalysisMemo()
    first = system_digest(analyze_system(build_two_stage(scale),
                                         memo=memo))
    hits_before = memo.stats()["resource_hits"]
    second = system_digest(analyze_system(build_two_stage(scale),
                                          memo=memo))
    assert second == first
    assert memo.stats()["resource_hits"] > hits_before
