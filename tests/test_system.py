"""Unit tests for the system graph and the global propagation engine."""

import pytest

from repro import obs
from repro._errors import ConvergenceError, ModelError, NotSchedulableError
from repro.analysis import SPNPScheduler, SPPScheduler
from repro.core import TransferProperty, is_hierarchical
from repro.eventmodels import periodic, periodic_with_jitter
from repro.examples_lib.rox08 import build_system as build_rox08
from repro.system import (
    JunctionKind,
    System,
    analyze_system,
    path_latency,
)
from repro.system.junctions import (
    check_and_join_rates,
    decompose_multi_input,
)
from repro.system.propagation import _StreamResolver

TRIG = TransferProperty.TRIGGERING
PEND = TransferProperty.PENDING


def simple_chain():
    """src -> t1 (cpuA) -> t2 (cpuB)."""
    s = System("chain")
    s.add_source("src", periodic(100.0))
    s.add_resource("cpuA", SPPScheduler())
    s.add_resource("cpuB", SPPScheduler())
    s.add_task("t1", "cpuA", (5.0, 10.0), ["src"], priority=1)
    s.add_task("t2", "cpuB", (8.0, 8.0), ["t1"], priority=1)
    return s


class TestGraphConstruction:
    def test_duplicate_source(self):
        s = System()
        s.add_source("x", periodic(10.0))
        with pytest.raises(ModelError):
            s.add_source("x", periodic(20.0))

    def test_duplicate_task_vs_source(self):
        s = System()
        s.add_source("x", periodic(10.0))
        s.add_resource("cpu", SPPScheduler())
        with pytest.raises(ModelError):
            s.add_task("x", "cpu", (1.0, 1.0), ["x"])

    def test_unknown_resource(self):
        s = System()
        s.add_source("x", periodic(10.0))
        with pytest.raises(ModelError):
            s.add_task("t", "nope", (1.0, 1.0), ["x"])

    def test_validate_unknown_input(self):
        s = System()
        s.add_resource("cpu", SPPScheduler())
        s.add_source("x", periodic(10.0))
        s.add_task("t", "cpu", (1.0, 1.0), ["ghost"])
        with pytest.raises(ModelError):
            s.validate()

    def test_validate_taskless_input(self):
        s = System()
        s.add_resource("cpu", SPPScheduler())
        s.tasks["broken"] = __import__(
            "repro.system.model", fromlist=["Task"]).Task(
                "broken", "cpu", 1.0, 1.0, [])
        with pytest.raises(ModelError):
            s.validate()

    def test_pack_junction_needs_properties(self):
        s = System()
        s.add_source("a", periodic(10.0))
        with pytest.raises(ModelError):
            s.add_junction("j", JunctionKind.PACK, ["a"])

    def test_unpack_single_input(self):
        s = System()
        s.add_source("a", periodic(10.0))
        s.add_source("b", periodic(10.0))
        with pytest.raises(ModelError):
            s.add_junction("u", JunctionKind.UNPACK, ["a", "b"])

    def test_timer_must_be_source(self):
        s = System()
        s.add_resource("cpu", SPPScheduler())
        s.add_source("a", periodic(10.0))
        s.add_task("t", "cpu", (1.0, 1.0), ["a"])
        s.add_junction("j", JunctionKind.PACK, ["a"],
                       properties={"a": TRIG}, timer="t")
        with pytest.raises(ModelError):
            s.validate()


class TestPropagation:
    def test_chain_converges(self):
        result = analyze_system(simple_chain())
        assert result.converged
        assert result.wcrt("t1") == 10.0
        assert result.wcrt("t2") == 8.0

    def test_response_jitter_propagates(self):
        # t1 has response span 5 -> t2 sees jitter but is alone on cpuB,
        # so its own WCRT is just its WCET.
        s = simple_chain()
        result = analyze_system(s)
        responses = {}
        for rr in result.resource_results.values():
            responses.update(rr.task_results)
        resolver = _StreamResolver(s, responses, {})
        t1_out = resolver.port("t1")
        assert t1_out.delta_plus(2) == pytest.approx(100.0 + 5.0)

    def test_shared_resource_interference(self):
        s = System()
        s.add_source("fast", periodic(50.0))
        s.add_source("slow", periodic(200.0))
        s.add_resource("cpu", SPPScheduler())
        s.add_task("hi", "cpu", (10.0, 10.0), ["fast"], priority=1)
        s.add_task("lo", "cpu", (20.0, 20.0), ["slow"], priority=2)
        result = analyze_system(s)
        # lo: 20 + interference of hi over the window: w=40 -> eta=1
        # ... w = 20 + 10*eta_fast(w): w0=30 -> eta(30)=1 -> 30;
        # eta(30)=1 stable -> 30.
        assert result.wcrt("lo") == 30.0

    def test_or_junction(self):
        s = System()
        s.add_source("a", periodic(100.0))
        s.add_source("b", periodic(150.0))
        s.add_resource("cpu", SPPScheduler())
        s.add_junction("j", JunctionKind.OR, ["a", "b"])
        s.add_task("t", "cpu", (5.0, 5.0), ["j"], priority=1)
        result = analyze_system(s)
        # Burst of 2 (both sources aligned): q=2 window -> 10.
        assert result.wcrt("t") == 10.0

    def test_multi_input_task_implicit_or(self):
        s = System()
        s.add_source("a", periodic(100.0))
        s.add_source("b", periodic(150.0))
        s.add_resource("cpu", SPPScheduler())
        s.add_task("t", "cpu", (5.0, 5.0), ["a", "b"], priority=1)
        result = analyze_system(s)
        assert result.wcrt("t") == 10.0

    def test_and_junction(self):
        s = System()
        s.add_source("a", periodic(100.0))
        s.add_source("b", periodic(100.0))
        s.add_resource("cpu", SPPScheduler())
        s.add_junction("j", JunctionKind.AND, ["a", "b"])
        s.add_task("t", "cpu", (5.0, 5.0), ["j"], priority=1)
        result = analyze_system(s)
        assert result.wcrt("t") == 5.0

    def test_pack_unpack_roundtrip(self):
        s = System()
        s.add_source("sig", periodic(100.0))
        s.add_source("tick", periodic(400.0))
        s.add_resource("bus", SPNPScheduler())
        s.add_resource("cpu", SPPScheduler())
        s.add_junction("pk", JunctionKind.PACK, ["sig"],
                       properties={"sig": TRIG}, timer="tick")
        s.add_task("frame", "bus", (8.0, 8.0), ["pk"], priority=1)
        s.add_junction("un", JunctionKind.UNPACK, ["frame"])
        s.add_task("consumer", "cpu", (10.0, 10.0), ["un.sig"],
                   priority=1)
        result = analyze_system(s)
        assert result.converged
        assert result.wcrt("consumer") == 10.0

    def test_unpack_flat_stream_rejected(self):
        s = System()
        s.add_source("sig", periodic(100.0))
        s.add_resource("cpu", SPPScheduler())
        s.add_junction("un", JunctionKind.UNPACK, ["sig"])
        s.add_task("t", "cpu", (1.0, 1.0), ["un.sig"], priority=1)
        with pytest.raises(ModelError):
            analyze_system(s)

    def test_cycle_without_seed_rejected(self):
        s = System()
        s.add_source("src", periodic(100.0))
        s.add_resource("cpu", SPPScheduler())
        s.add_task("a", "cpu", (1.0, 1.0), ["src", "b"], priority=1)
        s.add_task("b", "cpu", (1.0, 1.0), ["a"], priority=2)
        with pytest.raises(ModelError):
            analyze_system(s)

    def test_cycle_with_seed_converges(self):
        # A convergent feedback loop: zero-response-span tasks on
        # dedicated resources; the AND with the feedback stream is
        # dominated by the source after one iteration.
        s = System()
        s.add_source("src", periodic(100.0))
        s.add_resource("cpuA", SPPScheduler())
        s.add_resource("cpuB", SPPScheduler())
        s.add_task("a", "cpuA", (1.0, 1.0), ["src", "b"], priority=1,
                   activation="and")
        s.add_task("b", "cpuB", (1.0, 1.0), ["a"], priority=1)
        # Seed every task in the cycle: the cut point depends on the
        # resolver's traversal entry.
        result = analyze_system(
            s, initial_outputs={"a": periodic(100.0),
                                "b": periodic(100.0)})
        assert result.converged

    def test_divergent_feedback_detected(self):
        # AND-join jitter feedback on a shared resource accumulates
        # response jitter every iteration: a genuinely divergent model
        # that must be reported, not looped on forever.
        s = System()
        s.add_source("src", periodic(100.0))
        s.add_resource("cpu", SPPScheduler())
        s.add_task("a", "cpu", (1.0, 1.0), ["src", "b"], priority=1,
                   activation="and")
        s.add_task("b", "cpu", (1.0, 1.0), ["a"], priority=2)
        with pytest.raises(ConvergenceError):
            analyze_system(s, initial_outputs={
                "a": periodic(100.0), "b": periodic(100.0)},
                max_iterations=20)

    def test_iteration_limit(self):
        with pytest.raises(ConvergenceError):
            analyze_system(simple_chain(), max_iterations=0)


def feedback_pair(c_a, c_b):
    """A feedback loop across two SPP resources: ``a`` (cpuA) is
    activated by ``src`` or by ``b`` (cpuB), which ``a`` activates;
    ``x`` (cpuB, 30–50% of b's C⁺) and ``y`` (cpuA, fed by ``b``)
    interfere."""
    s = System("feedback")
    s.add_source("src", periodic(100.0))
    s.add_source("src2", periodic(170.0))
    s.add_resource("cpuA", SPPScheduler())
    s.add_resource("cpuB", SPPScheduler())
    s.add_task("a", "cpuA", c_a, ["src", "b"], priority=1)
    s.add_task("b", "cpuB", c_b, ["a"], priority=2)
    s.add_task("x", "cpuB", (0.3 * c_b[1], 0.5 * c_b[1]), ["src2"],
               priority=1)
    s.add_task("y", "cpuA", (3.0, 6.0), ["b"], priority=2)
    return s


def feedback_seeds():
    return {"a": periodic(100.0), "b": periodic(100.0)}


class TestIterationReuse:
    """The global loop does each piece of work once: one resolver
    carried through the run re-derives a port only when a response
    upstream of it moved, and a resource whose specs did not move keeps
    its result."""

    def test_cycle_gets_a_fresh_resolver(self):
        # The propagation pass cut the cycle with the previous seeds; a
        # fresh resolver reads this iteration's.  Carrying the
        # propagation pass's ports anyway names cpuB (1.2882).
        with pytest.raises(NotSchedulableError,
                           match=r"^cpuA: utilization 1\.2400 exceeds 1\.0"):
            analyze_system(feedback_pair((10.0, 20.0), (15.0, 30.0)),
                           initial_outputs=feedback_seeds())

    def test_degraded_run_gets_a_fresh_resolver(self):
        # Cyclic, and its quarantines add substitutes mid-phase, which
        # ports resolved before them do not see: every phase that
        # reads a cycle seed or adds a substitute is followed by a
        # resolver dropping every port.  Carrying its ports anyway
        # takes 11 iterations instead of 10.
        outcome = analyze_system(
            feedback_pair((2.5, 5.0), (2.5, 5.0)),
            initial_outputs=feedback_seeds(), on_failure="degrade")
        assert outcome.converged
        assert outcome.iterations == 10
        assert set(outcome.failed_resources()) == {"cpuA", "cpuB"}

    def test_rox08_hem_resolves_and_analyses_once(self):
        """RoX08 HEM: 8 junction resolutions, all in the first
        iteration (a resolver per iteration made 20, two made 30), and
        3 local analyses of 6 (the resources whose inputs did not move
        keep their result)."""
        obs.configure(enabled=True, reset=True)
        records = []
        bus = obs.get_bus()
        sink = bus.subscribe(records.append, interests={"iteration"})
        try:
            result = analyze_system(build_rox08("hem"))
            snap = obs.metrics().snapshot()
        finally:
            bus.unsubscribe(sink)
            obs.disable(reset=True)
        assert result.iterations == 3
        assert sum(v for k, v in snap["counters"].items()
                   if k.startswith("propagation.junction.")) == 8
        assert [sum(r["junctions"].values()) for r in records] == [8, 0, 0]
        local = snap["histograms"]["propagation.local_analysis_seconds"]
        assert local["count"] == 3
        kept = [r["kept_resources"] for r in records]
        assert len(kept) == 3
        assert sum(kept) == 2 * 3 - 3


class TestHierarchicalStreamInSystem:
    def test_hem_reaches_consumer(self):
        s = System()
        s.add_source("sig", periodic(100.0))
        s.add_source("pend", periodic(300.0))
        s.add_resource("bus", SPNPScheduler())
        s.add_junction("pk", JunctionKind.PACK, ["sig", "pend"],
                       properties={"sig": TRIG, "pend": PEND})
        s.add_task("frame", "bus", (8.0, 8.0), ["pk"], priority=1)
        result = analyze_system(s)
        responses = {}
        for rr in result.resource_results.values():
            responses.update(rr.task_results)
        resolver = _StreamResolver(s, responses, {})
        out = resolver.port("frame")
        assert is_hierarchical(out)
        assert set(out.labels) == {"sig", "pend"}


class TestPathLatency:
    def test_chain_latency(self):
        s = simple_chain()
        result = analyze_system(s)
        lat = path_latency(s, result, ["src", "t1", "t2"])
        assert lat.worst_case == 18.0
        assert lat.best_case == 13.0

    def test_pending_sampling_delay_added(self):
        s = System()
        s.add_source("p", periodic(500.0))
        s.add_source("tick", periodic(100.0))
        s.add_resource("bus", SPNPScheduler())
        s.add_junction("pk", JunctionKind.PACK, ["p"],
                       properties={"p": PEND}, timer="tick")
        s.add_task("frame", "bus", (8.0, 8.0), ["pk"], priority=1)
        result = analyze_system(s)
        lat = path_latency(s, result, ["p", "pk", "frame"])
        # pending wait bounded by the frame stream's delta_plus(2) = 100.
        assert lat.sampling_delay == pytest.approx(100.0)
        assert lat.worst_case == pytest.approx(100.0 + 8.0)

    def test_too_short_path(self):
        s = simple_chain()
        result = analyze_system(s)
        with pytest.raises(ModelError):
            path_latency(s, result, ["t1"])

    def test_source_must_lead(self):
        s = simple_chain()
        result = analyze_system(s)
        with pytest.raises(ModelError):
            path_latency(s, result, ["t1", "src"])


class TestJunctionHelpers:
    def test_and_rate_check_passes(self):
        check_and_join_rates([periodic(100.0), periodic(100.0)])

    def test_and_rate_check_fails(self):
        with pytest.raises(ModelError):
            check_and_join_rates([periodic(100.0), periodic(200.0)])

    def test_and_rate_check_reads_structural_rates(self):
        # Θ_τ keeps its input's rate, 0.1; the estimate
        # 999 / δ'⁻(1000) reads 0.106 because of the 599 of response
        # jitter, outside the 5% tolerance.
        from repro.eventmodels import StandardEventModel, TaskOutputModel
        check_and_join_rates([
            StandardEventModel(10, 0),
            TaskOutputModel(StandardEventModel(10, 0), 1, 600)])

    def test_decompose(self):
        (jname, kind, inputs), (tname, tinputs) = decompose_multi_input(
            "t", ["a", "b"])
        assert jname == "t__sc"
        assert inputs == ["a", "b"]
        assert tinputs == [jname]

    def test_decompose_single_rejected(self):
        with pytest.raises(ModelError):
            decompose_multi_input("t", ["a"])
