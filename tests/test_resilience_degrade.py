"""Degraded analysis: health maps, widening, certificates, and the
strict-vs-degraded conservativeness contract."""

import math

import pytest

from repro import AnalysisOutcome, analyze_system
from repro._errors import (
    ConvergenceError,
    ModelError,
    NotSchedulableError,
    UnboundedStreamError,
)
from repro.analysis.memo import AnalysisMemo
from repro.examples_lib.rox08 import build_system
from repro.examples_lib.stress import (
    OSCILLATING_RESOURCE,
    OVERLOADED_HEALTHY_TASKS,
    OVERLOADED_RESOURCE,
    build_oscillating,
    build_overloaded,
)
from repro.examples_lib.synth import synth_system
from repro.resilience import (
    HEALTH_DIVERGED,
    HEALTH_OK,
    HEALTH_OVERLOADED,
    UnboundedEnvelope,
)
from repro.timebase import EPS

#: Healthy corpus systems on which degraded analysis must reproduce
#: strict analysis exactly.
HEALTHY_CORPUS = {
    "rox08-hem": lambda: build_system("hem"),
    "rox08-flat": lambda: build_system("flat"),
    "synth-16x2": lambda: synth_system(16, 2),
    "synth-24x3": lambda: synth_system(24, 3, base_period=1400.0),
}


def _bounds(result):
    """Iteration count, convergence flag and every task's bounds."""
    tasks = {name: (tr.r_min, tr.r_max)
             for rr in result.resource_results.values()
             for name, tr in rr.task_results.items()}
    return result.iterations, result.converged, tasks


class TestOnFailureArgument:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ModelError):
            analyze_system(build_system("hem"), on_failure="shrug")

    def test_raise_mode_unchanged(self):
        with pytest.raises(NotSchedulableError):
            analyze_system(build_overloaded())

    def test_degrade_returns_outcome_on_healthy_system(self):
        outcome = analyze_system(build_system("hem"),
                                 on_failure="degrade")
        assert isinstance(outcome, AnalysisOutcome)
        assert outcome.ok() and not outcome.degraded
        assert all(h == HEALTH_OK for h in outcome.health.values())
        assert not outcome.certificates


class TestOverloadDegradation:
    def test_overloaded_resource_quarantined(self):
        outcome = analyze_system(build_overloaded(),
                                 on_failure="degrade")
        assert outcome.converged
        assert outcome.health[OVERLOADED_RESOURCE] == HEALTH_OVERLOADED
        health = outcome.resources[OVERLOADED_RESOURCE]
        assert health.error_type == "NotSchedulableError"
        assert health.context.get("utilization", 0) > 1.0

    def test_healthy_neighbours_still_bounded(self):
        outcome = analyze_system(build_overloaded(),
                                 on_failure="degrade")
        for task in OVERLOADED_HEALTHY_TASKS:
            wcrt = outcome.wcrt(task)
            assert wcrt is not None and math.isfinite(wcrt)
        assert math.isinf(outcome.wcrt("T_hot"))

    def test_certificate_documents_widening(self):
        outcome = analyze_system(build_overloaded(),
                                 on_failure="degrade")
        cert = outcome.certificate_for("T_hot")
        assert cert is not None
        assert cert.reason == HEALTH_OVERLOADED
        assert cert.d2 == pytest.approx(110.0)  # == T_hot's c_min
        assert "superadditivity" in cert.argument

    def test_downstream_wcrt_uses_widened_model(self):
        # sporadic(110) is slower than the true 100-period input, so
        # T_down's degraded bound must be at least its lone-task bound.
        outcome = analyze_system(build_overloaded(),
                                 on_failure="degrade")
        assert outcome.wcrt("T_down") >= 20.0 - EPS

    def test_outcome_serialises(self):
        import json

        outcome = analyze_system(build_overloaded(),
                                 on_failure="degrade")
        payload = json.loads(json.dumps(outcome.to_dict()))
        assert payload["health"][OVERLOADED_RESOURCE] == \
            HEALTH_OVERLOADED
        assert payload["tasks"]["T_hot"]["r_max"] == "inf"
        assert payload["tasks"]["T_down"]["degraded"] is False


class TestDivergenceDegradation:
    def test_diverging_resource_frozen(self):
        outcome = analyze_system(build_oscillating(),
                                 on_failure="degrade")
        assert outcome.converged
        assert outcome.health[OSCILLATING_RESOURCE] == HEALTH_DIVERGED
        assert outcome.health["CPU2"] == HEALTH_OK
        assert outcome.verdicts  # the guard fired

    def test_frozen_certificates_carry_interval(self):
        outcome = analyze_system(build_oscillating(),
                                 on_failure="degrade")
        certs = [c for c in outcome.certificates
                 if c.reason == HEALTH_DIVERGED]
        assert certs
        for cert in certs:
            lo, hi = cert.frozen_interval
            assert 0 <= lo <= hi

    def test_healthy_resource_converges(self):
        outcome = analyze_system(build_oscillating(),
                                 on_failure="degrade")
        wcrt = outcome.wcrt("T_b")
        assert wcrt is not None and math.isfinite(wcrt)

    def test_control_case_converges_cleanly(self):
        outcome = analyze_system(build_oscillating(gain_c=30.0),
                                 on_failure="degrade")
        assert outcome.ok() and not outcome.verdicts


class TestConservativenessContract:
    """Degraded WCRTs dominate strict WCRTs where strict completes."""

    @pytest.mark.parametrize("memo", [False, True], ids=["cold", "memo"])
    @pytest.mark.parametrize("case", sorted(HEALTHY_CORPUS))
    def test_degraded_matches_strict_on_healthy_system(self, case, memo):
        # Both modes run the same loop: on a healthy system the degraded
        # outcome is bit-identical to a cold strict run, and so are runs
        # through an incremental memo (the second one reuses the first's
        # local analyses).
        build = HEALTHY_CORPUS[case]
        reference = _bounds(analyze_system(build()))
        shared = AnalysisMemo() if memo else None
        strict = analyze_system(build(), memo=shared)
        outcome = analyze_system(build(), on_failure="degrade",
                                 memo=shared)
        assert outcome.ok() and not outcome.degraded
        assert _bounds(strict) == reference
        assert _bounds(outcome.result) == reference
        assert outcome.iterations == reference[0]

    def test_degraded_dominates_partial_strict(self):
        # Strict analysis of the overloaded example dies, but its
        # healthy input stage can be analysed in isolation; degraded
        # bounds must dominate those local bounds too.
        from repro import SPPScheduler, System, periodic

        iso = System("input-stage")
        iso.add_source("S_in", periodic(100.0))
        iso.add_source("S_side", periodic(400.0))
        iso.add_resource("CPU_IN", SPPScheduler())
        iso.add_task("T_in", "CPU_IN", (8.0, 10.0), ["S_in"], priority=1)
        iso.add_task("T_side", "CPU_IN", (20.0, 25.0), ["S_side"],
                     priority=2)
        strict = analyze_system(iso)
        outcome = analyze_system(build_overloaded(),
                                 on_failure="degrade")
        for task in ("T_in", "T_side"):
            assert outcome.wcrt(task) >= strict.wcrt(task) - EPS


class TestUnboundedEnvelope:
    def test_zero_cmin_widening_is_unbounded(self):
        from repro.resilience import widen_overload
        from repro.system.model import Task

        task = Task("t", "cpu", 0.0, 5.0, ["s"])
        model, cert = widen_overload(task, HEALTH_OVERLOADED)
        assert isinstance(model, UnboundedEnvelope)
        assert cert.d2 is None

    def test_envelope_poisons_consumers(self):
        env = UnboundedEnvelope("t")
        assert env.delta_min(1000) == 0.0
        with pytest.raises(UnboundedStreamError):
            env.eta_plus(10.0)


class TestStructuralErrorsStillRaise:
    def test_validate_errors_not_swallowed(self):
        from repro import SPPScheduler, System, periodic

        system = System("broken")
        system.add_source("s", periodic(100.0))
        system.add_resource("cpu", SPPScheduler())
        system.add_task("t", "cpu", (1.0, 2.0), ["nope"], priority=1)
        with pytest.raises(ModelError):
            analyze_system(system, on_failure="degrade")


class TestObsSurface:
    def test_quarantine_counters_and_report_footer(self, span_records):
        from repro import obs
        from repro.viz import ConvergenceReport

        obs.configure(enabled=True, reset=True)
        try:
            analyze_system(build_overloaded(), on_failure="degrade")
            counters = obs.metrics().snapshot()["counters"]
            assert counters.get("resilience.quarantines") == 1
            assert counters.get("resilience.widenings") == 1
            report = ConvergenceReport.from_records(
                span_records, registry=obs.metrics())
            rendered = report.render()
            assert "resilience:" in rendered
            assert "resilience.quarantines=1" in rendered
        finally:
            obs.disable(reset=True)

    def test_degraded_iteration_spans_match_strict(self, span_records):
        # Degraded spans used to lack the model-stability attributes,
        # so the report showed "?" under "unstable" on every row.
        from repro import obs
        from repro.viz import ConvergenceReport

        def iterations():
            found = [r["attributes"] for r in span_records
                     if r["name"] == "global_iteration"]
            span_records.clear()
            return found

        obs.configure(enabled=True, reset=True)
        try:
            analyze_system(build_overloaded(), on_failure="degrade")
            report = ConvergenceReport.from_records(span_records)
            degraded = iterations()
            analyze_system(build_system("hem"))
            strict = iterations()
        finally:
            obs.disable(reset=True)
        assert degraded and strict
        assert {frozenset(a) for a in degraded + strict} \
            == {frozenset(strict[0])}
        assert {a["mode"] for a in strict} == {"strict"}
        assert {a["mode"] for a in degraded} == {"degraded"}
        rows = report.render().splitlines()[3:3 + len(degraded)]
        unstable = [row.split("|")[4].strip() for row in rows]
        assert all(cell.isdigit() for cell in unstable), unstable
        assert int(unstable[0]) > 0  # models moved in iteration 1

    def test_divergence_counter_in_degrade(self):
        from repro import obs

        obs.configure(enabled=True, reset=True)
        try:
            analyze_system(build_oscillating(), on_failure="degrade")
            counters = obs.metrics().snapshot()["counters"]
            assert counters.get("propagation.divergence_detected", 0) \
                >= 1
        finally:
            obs.disable(reset=True)


class TestConvergenceErrorPaths:
    """Satellite: the ConvergenceError surface, strict and degraded."""

    def test_strict_hits_iteration_limit_without_guard(self):
        with pytest.raises(ConvergenceError) as err:
            analyze_system(build_oscillating(), guard=False)
        assert err.value.iterations == 64
        assert err.value.context.get("system") == "stress-oscillating"

    def test_strict_guard_aborts_early_with_verdict(self):
        with pytest.raises(ConvergenceError) as err:
            analyze_system(build_oscillating())
        assert err.value.verdict == "monotone_growth"
        assert err.value.iterations < 64
        assert err.value.residuals  # trend evidence attached

    def test_degraded_converges_after_widening(self):
        outcome = analyze_system(build_oscillating(),
                                 on_failure="degrade")
        assert outcome.converged and outcome.degraded

    def test_degraded_bounds_dominate_control(self):
        # The converging control case lower-bounds the degraded run of
        # the diverging one for the healthy CPU2 task.
        control = analyze_system(build_oscillating(gain_c=30.0))
        outcome = analyze_system(build_oscillating(),
                                 on_failure="degrade")
        assert outcome.wcrt("T_b") >= control.wcrt("T_b") - EPS
