"""Tests for the explanation engine (repro.explain).

Covers: blame decompositions summing exactly to the reported WCRT for
all five busy-window policies, the event-model lineage DAG (Ω_pa pack
and Ψ unpack nodes for the hierarchical variant), explanations built
from a finished result independently of the ``obs`` switch and of
concurrent analyses, the Chrome trace exporter and the explain CLI.
"""

import json

import pytest

from repro import configure, obs
from repro.analysis import (
    EDFScheduler,
    RoundRobinScheduler,
    SPNPScheduler,
    SPPScheduler,
    TaskSpec,
    TDMAScheduler,
)
from repro.analysis.resource_model import (
    HierarchicalSPPScheduler,
    PeriodicResource,
)
from repro.eventmodels import periodic, periodic_with_jitter
from repro.examples_lib.rox08 import build_system
from repro.explain import (
    Blame,
    LineageGraph,
    LineageNode,
    explain_result,
    explain_system,
    render_blame,
    render_blame_table,
)
from repro.explain.blame import (
    KIND_BLOCKING,
    KIND_INTERFERENCE,
    KIND_OWN,
    KIND_SUPPLY,
    critical_activation,
)
from repro.explain.lineage import (
    KIND_PACK,
    KIND_SOURCE,
    KIND_THETA,
    KIND_UNPACK,
)
from repro.system.propagation import analyze_system
from repro.system.serialize import system_from_dict, system_to_dict
from repro.viz import lineage_to_dot, render_lineage


@pytest.fixture
def obs_on():
    configure(enabled=True, reset=True)
    yield obs
    configure(enabled=False, reset=True)


@pytest.fixture(autouse=True)
def obs_off_guard():
    yield
    configure(enabled=False)


def assert_exact(blame: Blame) -> None:
    """The decomposition must reproduce the reported bound exactly."""
    blame.check()
    assert blame.explained_wcrt() == pytest.approx(blame.wcrt)
    assert blame.total() == pytest.approx(blame.busy_time)


def blames(scheduler, tasks, resource="cpu"):
    """Analyse *tasks* and ask *scheduler* to decompose every bound."""
    result = scheduler.analyze(tasks, resource)
    return {t.name: scheduler.blame(t, tasks, resource, result[t.name])
            for t in tasks}


def scaled_rox08(factor: float):
    """RoX08 HEM with every period, jitter, distance and execution
    time multiplied by *factor*."""
    data = system_to_dict(build_system("hem"))
    for model in data["sources"].values():
        for key in ("period", "jitter", "d_min"):
            model[key] *= factor
    for task in data["tasks"].values():
        for key in ("c_min", "c_max", "blocking"):
            task[key] *= factor
    return system_from_dict(data)


class TestBlamePerPolicy:
    """Every scheduler's blame terms sum to its reported WCRT."""

    def test_spp(self):
        tasks = [
            TaskSpec("hi", 1.0, 1.0, periodic(4.0), priority=1),
            TaskSpec("mid", 2.0, 2.0, periodic_with_jitter(6.0, 3.0),
                     priority=2),
            TaskSpec("lo", 3.0, 3.0, periodic(12.0), priority=3),
        ]
        result = blames(SPPScheduler(), tasks)
        for name in ("hi", "mid", "lo"):
            blame = result[name]
            assert blame is not None and blame.policy == "spp"
            assert_exact(blame)
        lo = result["lo"]
        assert {t.name for t in lo.interference} == {"hi", "mid"}
        assert lo.own.kind == KIND_OWN
        assert lo.own.activations == lo.q
        assert lo.dominant() is not None

    def test_spp_blocking_term(self):
        tasks = [
            TaskSpec("hi", 1.0, 1.0, periodic(10.0), priority=1,
                     blocking=2.5),
            TaskSpec("lo", 3.0, 3.0, periodic(20.0), priority=2),
        ]
        blame = blames(SPPScheduler(), tasks)["hi"]
        assert blame.blocking is not None
        assert blame.blocking.kind == KIND_BLOCKING
        assert blame.blocking.contribution == 2.5
        assert_exact(blame)

    def test_spnp(self):
        frames = [
            TaskSpec("A", 1.0, 1.0, periodic(4.0), priority=1),
            TaskSpec("B", 2.0, 2.0, periodic(6.0), priority=2),
            TaskSpec("C", 3.0, 3.0, periodic(12.0), priority=3),
        ]
        result = blames(SPNPScheduler(), frames, "can")
        for name in ("A", "B", "C"):
            blame = result[name]
            assert blame is not None and blame.policy == "spnp"
            assert_exact(blame)
        # A is blocked by the longest lower-priority frame (C).
        a = result["A"]
        assert a.blocking is not None
        assert a.blocking.contribution == 3.0
        # The lowest priority frame has no blocking term.
        assert result["C"].blocking is None

    def test_edf(self):
        tasks = [
            TaskSpec("a", 1.0, 1.0, periodic(4.0), deadline=4.0),
            TaskSpec("b", 2.0, 2.0, periodic(6.0), deadline=6.0),
            TaskSpec("c", 3.0, 3.0, periodic(12.0), deadline=12.0),
        ]
        scheduler = EDFScheduler()
        analysed = scheduler.analyze(tasks, "cpu")
        result = blames(scheduler, tasks)
        for name in ("a", "b", "c"):
            blame = result[name]
            assert blame is not None and blame.policy == "edf"
            assert_exact(blame)
            # The critical offset is the one the analysis stored.
            assert blame.candidate["offset"] \
                == analysed[name].details["offset"]
            assert "abs_deadline" in blame.candidate

    def test_round_robin(self):
        tasks = [
            TaskSpec("a", 6.0, 6.0, periodic(30.0), slot=2.0),
            TaskSpec("b", 1.0, 1.0, periodic(30.0), slot=9.0),
        ]
        result = blames(RoundRobinScheduler(), tasks)
        for name in ("a", "b"):
            blame = result[name]
            assert blame is not None and blame.policy == "round_robin"
            assert_exact(blame)
        assert result["a"].candidate["rounds"] == 3

    def test_tdma(self):
        tasks = [
            TaskSpec("a", 1.0, 1.0, periodic(20.0), slot=2.0),
            TaskSpec("b", 3.0, 3.0, periodic(20.0), slot=3.0),
        ]
        result = blames(TDMAScheduler(), tasks)
        for name in ("a", "b"):
            blame = result[name]
            assert blame is not None and blame.policy == "tdma"
            assert_exact(blame)
        # Whatever is not own execution is waiting for the own slot.
        a = result["a"]
        if a.extras:
            assert a.extras[0].kind == KIND_SUPPLY
            assert a.extras[0].name == "tdma.cycle"

    def test_policy_without_decomposition_returns_none(self):
        scheduler = HierarchicalSPPScheduler(PeriodicResource(10.0, 5.0))
        tasks = [TaskSpec("a", 1.0, 1.0, periodic(40.0), priority=1)]
        assert blames(scheduler, tasks) == {"a": None}

    def test_critical_activation_picks_max_response(self):
        assert critical_activation([3.0, 5.0, 9.0],
                                   [0.0, 4.0, 8.0]) == 1
        assert critical_activation([3.0, 8.0, 9.0],
                                   [0.0, 4.0, 8.0]) == 2
        assert critical_activation([5.0], [0.0]) == 1


class TestRox08Blame:
    def test_blames_sum_on_full_system(self):
        system = build_system("hem")
        result = analyze_system(system)
        ex = explain_result(system, result)
        assert set(ex.blames) == {"F1", "F2", "T1", "T2", "T3"}
        for name, blame in ex.blames.items():
            assert_exact(blame)
            # The re-derived bound is the converged one.
            assert blame.wcrt == result.wcrt(name)

    def test_t3_interference_drop_is_attributed(self):
        """Table 3's headline WCRT reduction must be visible as removed
        interference terms, not just a smaller total."""
        hem = explain_system(build_system("hem"))
        flat = explain_system(build_system("flat"))
        t3_hem = hem.blame("T3")
        t3_flat = flat.blame("T3")
        assert t3_flat.wcrt > t3_hem.wcrt
        assert t3_flat.interference_total > t3_hem.interference_total
        # Same interferer set, fewer admitted activations under HEM.
        flat_acts = {t.name: t.activations for t in t3_flat.interference}
        hem_acts = {t.name: t.activations for t in t3_hem.interference}
        assert flat_acts["T1"] > hem_acts["T1"]
        assert flat_acts["T2"] > hem_acts["T2"]


class TestLineage:
    def test_hem_chain_has_pack_and_unpack(self):
        graph = explain_system(build_system("hem")).graph
        kinds = graph.kinds_on_chain("F1_rx.S3")
        assert KIND_UNPACK in kinds
        assert KIND_PACK in kinds
        assert KIND_THETA in kinds
        assert KIND_SOURCE in kinds
        node = graph.node("F1_rx.S3")
        assert node.attrs["label"] == "S3"
        assert "Ψ" in node.attrs["rule"]
        pack = graph.node("F1_pack")
        assert "Ω_pa" in pack.attrs["rule"]
        assert set(pack.attrs["inner_labels"]) == {"S1", "S2", "S3"}
        # The pack timer is part of the DAG.
        assert "F1_timer" in pack.inputs
        assert graph.node("F1_timer").kind == KIND_SOURCE

    def test_theta_records_inner_update(self):
        node = explain_system(build_system("hem")).graph.node("F1")
        assert node.kind == KIND_THETA
        assert "B_" in node.attrs["inner_update"]
        assert node.attrs["r_max"] > node.attrs["r_min"] >= 0.0

    def test_flat_chain_has_no_unpack(self):
        graph = explain_system(build_system("flat")).graph
        kinds = graph.kinds_on_chain("F1")
        assert KIND_UNPACK not in kinds
        assert KIND_PACK in kinds

    def test_renderers(self):
        graph = explain_system(build_system("hem")).graph
        tree = render_lineage(graph, "F1_rx.S3")
        assert "F1_rx.S3" in tree and "F1_pack" in tree
        assert "Ψ" in tree and "Ω_pa" in tree
        dot = lineage_to_dot(graph, roots=["F1_rx.S3"])
        assert dot.startswith("digraph")
        assert '"F1_pack" -> "F1"' in dot
        # restricted to T3's ancestry: F2 must not appear
        assert "F2" not in dot
        full = lineage_to_dot(graph)
        assert "F2_pack" in full

    def test_render_handles_unrecorded_and_shared_nodes(self):
        graph = LineageGraph(
            {"join": LineageNode("join", KIND_SOURCE, ("a", "a"))})
        text = render_lineage(graph, "join")
        assert "unrecorded" in text
        assert "(see above)" in text


class TestExplainEngine:
    def test_explain_system_bundles_everything(self):
        configure(enabled=False, reset=True)
        ex = explain_system(build_system("hem"))
        # explaining needs no telemetry
        assert obs.enabled is False
        assert ex.result.converged
        assert set(ex.blames) == {"F1", "F2", "T1", "T2", "T3"}
        assert ex.activation_port("T3") == "F1_rx.S3"
        assert ex.graph.kinds_on_chain("F1_rx.S3")
        assert ex.wcrt("T3") == ex.blame("T3").wcrt

    def test_explain_system_preserves_enabled_state(self, obs_on):
        explain_system(build_system("hem"))
        assert obs.enabled is True

    def test_explain_result_matches_explain_system(self):
        system = build_system("hem")
        ex = explain_result(system, analyze_system(system))
        assert ex.to_dict() == explain_system(system).to_dict()

    def test_switch_flipped_during_the_run_keeps_every_blame(
            self, monkeypatch):
        """A second explain restoring the switch mid-run (two serve
        workers) must not cost this explanation its blame records."""
        from repro.explain import engine

        real = engine.analyze_system

        def flipping(system, **kwargs):
            configure(enabled=False)
            return real(system, **kwargs)

        monkeypatch.setattr(engine, "analyze_system", flipping)
        ex = explain_system(build_system("hem"))
        assert set(ex.blames) == {"F1", "F2", "T1", "T2", "T3"}

    def test_concurrent_analysis_leaves_lineage_alone(self, monkeypatch):
        """An obs-on analysis of another system while this one is
        explained (a served miss) must not leak into its lineage."""
        from repro.explain import engine

        real = engine.analyze_system

        def interleaved(system, **kwargs):
            result = real(system, **kwargs)
            was_enabled = obs.enabled
            configure(enabled=True)
            try:
                real(scaled_rox08(1.13))
            finally:
                configure(enabled=was_enabled)
            return result

        monkeypatch.setattr(engine, "analyze_system", interleaved)
        ex = explain_system(build_system("hem"))
        assert ex.graph.node("F1").attrs["r_max"] == 180.0

    def test_render_blame_table_and_detail(self):
        ex = explain_system(build_system("hem"))
        table = ex.render_blame_table()
        for name in ("F1", "F2", "T1", "T2", "T3"):
            assert name in table
        assert "dominant interferer" in table
        detail = ex.render_blame("T3")
        assert "interference" in detail
        assert "r+" in detail
        assert render_blame(ex.blame("T3")) == detail
        assert render_blame_table(ex.blames) == table

    def test_to_dict_is_json_serialisable(self):
        ex = explain_system(build_system("hem"))
        payload = json.loads(json.dumps(ex.to_dict()))
        assert payload["system"] == "rox08-hem"
        assert payload["wcrt"]["T3"] == ex.blame("T3").wcrt
        terms = payload["blames"]["T3"]["terms"]
        assert sum(t["contribution"] for t in terms) == \
            pytest.approx(ex.blame("T3").busy_time)
        assert "F1_rx.S3" in payload["lineage"]

    def test_unknown_task_raises_keyerror(self):
        ex = explain_system(build_system("hem"))
        with pytest.raises(KeyError):
            ex.blame("nope")
        with pytest.raises(KeyError):
            ex.activation_port("nope")


class TestExplainCli:
    def test_rox08_smoke(self, capsys):
        from repro.explain.cli import explain_main

        assert explain_main(["rox08"]) == 0
        out = capsys.readouterr().out
        assert "flat baseline vs hierarchical" in out
        assert "T3" in out and "Ω_pa" in out
        assert obs.enabled is False

    def test_task_filter_and_artifacts(self, tmp_path, capsys):
        from repro.explain.cli import explain_main

        dot = tmp_path / "lineage.dot"
        chrome = tmp_path / "trace.json"
        code = explain_main(["rox08", "--task", "T3",
                             "--dot", str(dot),
                             "--chrome", str(chrome)])
        assert code == 0
        assert obs.enabled is False
        assert dot.read_text().startswith("digraph")
        payload = json.loads(chrome.read_text())
        assert isinstance(payload["traceEvents"], list)
        assert any(e["ph"] == "X" for e in payload["traceEvents"])
        # Only the explained run is traced, not the flat baseline.
        iterations = [e for e in payload["traceEvents"]
                      if e["ph"] == "X" and e["name"] == "global_iteration"]
        assert {e["args"]["system"] for e in iterations} == {"rox08-hem"}
        assert len(iterations) \
            == analyze_system(build_system("hem")).iterations

    def test_unknown_task_fails(self, capsys):
        from repro.explain.cli import explain_main

        assert explain_main(["rox08", "--task", "nope"]) == 2
        assert "no such task" in capsys.readouterr().err

    def test_body_gateway_smoke(self, capsys):
        from repro.explain.cli import explain_main

        assert explain_main(["body_gateway",
                             "--task", "show_climate"]) == 0
        out = capsys.readouterr().out
        assert "show_climate" in out
