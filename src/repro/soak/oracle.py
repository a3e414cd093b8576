"""The differential oracle: gather evidence once, judge many contracts.

One soak sample is a seeded system draw.  The oracle runs it through
every engine path the contract matrix compares — strict analysis,
degrade mode, shared and unshared event-model chains, the incremental memo,
bounded simulations under worst-case and randomized arrivals, an
explanation of the strict result, and an optional fault-injection ladder
— and collects everything into one :class:`Evidence` object.  Contracts
(:mod:`repro.soak.contracts`) are pure predicates over that evidence,
so each expensive engine invocation happens exactly once per sample no
matter how many contracts read it.

The ``soak_sample`` job kind wraps :func:`evaluate_sample` for the
batch engine: payloads carry only ``(kind, seed, config, index)`` —
the system itself is regenerated deterministically, which keeps job
keys small, makes every sample id content-addressed (no duplicates on
resume), and lets a triage bundle reproduce the draw from coordinates
alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .._errors import AnalysisError, ModelError
from ..analysis.memo import AnalysisMemo
from ..batch.jobs import register_job_kind
from ..eventmodels import compile as _compile
from ..examples_lib.synth import GraphSpace, synth_system, synth_task_graph
from ..explain.engine import explain_result
from ..resilience.faultinject import (
    FaultPlan,
    check_monotone_conservativeness,
)
from ..sim.generators import random_jitter_arrivals, worst_case_arrivals
from ..sim.system_sim import simulate_system
from ..system.model import System
from ..system.propagation import analyze_system, output_models
from .contracts import all_contracts, get_contract

#: Sample kinds.
KIND_GRAPH = "graph"      # randomized task graph — simulatable
KIND_GATEWAY = "gateway"  # hem/flat gateway pair — analysis only

#: Default longest trace window the envelope check inspects.
DEFAULT_ENVELOPE_N_MAX = 64

#: Default simulation horizon in multiples of the longest source period.
DEFAULT_HORIZON_PERIODS = 4.0

#: Errors that mean "this sample cannot be analysed", not "the oracle
#: is broken" — recorded as evidence, never raised out of a sample.
_ANALYSIS_ERRORS = (AnalysisError, ModelError)


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic coordinates of one soak sample."""

    kind: str
    seed: int
    config: "Dict[str, object]" = field(default_factory=dict)

    def graph_space(self) -> GraphSpace:
        space = self.config.get("space")
        return GraphSpace.from_dict(space) if space else GraphSpace()


@dataclass
class Evidence:
    """Everything the oracle observed about one sample.

    ``None`` fields mean the corresponding engine path was not (or
    could not be) exercised; contracts turn that into ``skip``.
    """

    kind: str
    seed: int
    system: Optional[System] = None
    strict: Optional[object] = None
    strict_error: str = ""
    degrade: Optional[object] = None
    degrade_error: str = ""
    compiled: Optional[object] = None
    lazy: Optional[object] = None
    memo_result: Optional[object] = None
    sims: "Dict[str, object]" = field(default_factory=dict)
    output_models: "Optional[Dict[str, object]]" = None
    envelope_n_max: int = DEFAULT_ENVELOPE_N_MAX
    explanation: Optional[object] = None
    explain_error: str = ""
    hem_pair: "Optional[Tuple[object, object, List[str]]]" = None
    fault_findings: "Optional[List[dict]]" = None


def build_sample_system(spec: SampleSpec) -> System:
    """The (primary) system a spec describes, regenerated from seed."""
    if spec.kind == KIND_GRAPH:
        return synth_task_graph(spec.seed, spec.graph_space())
    if spec.kind == KIND_GATEWAY:
        hem, _flat = build_gateway_pair(spec)
        return hem
    raise ModelError(f"unknown sample kind {spec.kind!r}")


def gateway_params(spec: SampleSpec) -> "Dict[str, object]":
    """Seeded gateway dimensions (n_signals, n_frames, jitter, nesting)."""
    rng = random.Random(f"soak-gateway:{spec.seed}")
    n_signals = rng.randint(2, int(spec.config.get("max_signals", 6)))
    n_frames = rng.randint(1, min(3, n_signals))
    jitter_frac = round(rng.uniform(0.0, float(
        spec.config.get("gateway_jitter_frac", 0.3))), 3)
    nesting = rng.choice([0, 0, 0, 1, 1, 2])
    max_nesting = int(spec.config.get("max_nesting", 2))
    return {"n_signals": n_signals, "n_frames": n_frames,
            "jitter_frac": jitter_frac,
            "nesting": min(nesting, max_nesting), "seed": spec.seed}


def build_gateway_pair(spec: SampleSpec) -> "Tuple[System, System]":
    params = gateway_params(spec)
    common = dict(n_signals=params["n_signals"],
                  n_frames=params["n_frames"],
                  jitter_frac=params["jitter_frac"],
                  nesting=params["nesting"], seed=params["seed"])
    return (synth_system(variant="hem", **common),
            synth_system(variant="flat", **common))


# ----------------------------------------------------------------------
# evidence gathering
# ----------------------------------------------------------------------
def _try_analyze(system: System, **kwargs):
    """(result, error_text) — analysis failures become evidence."""
    try:
        return analyze_system(system, **kwargs), ""
    except _ANALYSIS_ERRORS as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _compiled_lazy_pair(system: System):
    """Analyse once with shared chains, once unshared (the reference
    path)."""
    prev = _compile.enabled
    try:
        _compile.enabled = True
        compiled, err = _try_analyze(system)
        if compiled is None:
            return None, None
        _compile.enabled = False
        lazy, err = _try_analyze(system)
        return compiled, lazy
    finally:
        _compile.enabled = prev


def _explain(system: System, ev: Evidence) -> None:
    """Explain the strict result (blame and lineage re-derived from its
    converged responses); failures become evidence."""
    try:
        ev.explanation = explain_result(system, ev.strict, check=False)
    except _ANALYSIS_ERRORS as exc:
        ev.explain_error = f"{type(exc).__name__}: {exc}"


def _simulate(system: System, spec: SampleSpec, ev: Evidence) -> None:
    horizon_periods = float(spec.config.get(
        "horizon_periods", DEFAULT_HORIZON_PERIODS))
    horizon = horizon_periods * max(
        src.model.period for src in system.sources.values())
    models = {name: src.model for name, src in system.sources.items()}

    arrivals = {name: worst_case_arrivals(model, horizon)
                for name, model in models.items()}
    ev.sims["worst"] = simulate_system(system, arrivals, horizon)

    rng = random.Random(f"soak-arrivals:{spec.seed}")
    arrivals = {
        name: random_jitter_arrivals(
            model, horizon,
            rng=random.Random(rng.getrandbits(32)))
        for name, model in models.items()}
    ev.sims["random"] = simulate_system(system, arrivals, horizon)


def gather_evidence(spec: SampleSpec) -> Evidence:
    """Exercise every engine path the contract matrix compares."""
    ev = Evidence(kind=spec.kind, seed=spec.seed,
                  envelope_n_max=int(spec.config.get(
                      "envelope_n_max", DEFAULT_ENVELOPE_N_MAX)))

    if spec.kind == KIND_GATEWAY:
        hem, flat = build_gateway_pair(spec)
        system = hem
        flat_result, _flat_err = _try_analyze(flat)
    elif spec.kind == KIND_GRAPH:
        system = synth_task_graph(spec.seed, spec.graph_space())
        flat_result = None
    else:
        raise ModelError(f"unknown sample kind {spec.kind!r}")
    ev.system = system

    ev.strict, ev.strict_error = _try_analyze(system)
    ev.degrade, ev.degrade_error = _try_analyze(
        system, on_failure="degrade")

    if ev.strict is not None:
        ev.compiled, ev.lazy = _compiled_lazy_pair(system)
        ev.memo_result, _memo_err = _try_analyze(
            system, memo=AnalysisMemo())
        _explain(system, ev)
        if spec.kind == KIND_GATEWAY and flat_result is not None:
            tasks = sorted(system.tasks)
            ev.hem_pair = (ev.strict, flat_result, tasks)
        if spec.kind == KIND_GRAPH:
            try:
                ev.output_models = output_models(system, ev.strict)
            except _ANALYSIS_ERRORS:
                ev.output_models = None
            _simulate(system, spec, ev)
            if spec.config.get("faults"):
                plan = FaultPlan.sample(
                    system, seed=spec.seed,
                    n_faults=int(spec.config.get("n_faults", 2)),
                    max_magnitude=float(
                        spec.config.get("fault_magnitude", 0.3)))
                ev.fault_findings = check_monotone_conservativeness(
                    system, [FaultPlan(), plan])
    return ev


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def evaluate_sample(spec: SampleSpec,
                    contract_ids: "Optional[List[str]]" = None
                    ) -> "Dict[str, object]":
    """Gather evidence for *spec* and evaluate the contract matrix.

    Returns a JSON-compatible dict: one outcome per contract plus the
    sample coordinates — the ``data`` of a ``soak_sample`` job.
    """
    contracts = (all_contracts() if contract_ids is None
                 else [get_contract(cid) for cid in contract_ids])
    ev = gather_evidence(spec)
    outcomes = [c.evaluate(ev) for c in contracts]
    violations = [o["contract"] for o in outcomes
                  if o["status"] == "violation"]
    data = {
        "kind": spec.kind,
        "seed": spec.seed,
        "outcomes": outcomes,
        "violations": violations,
        "tasks": len(ev.system.tasks) if ev.system is not None else 0,
        "analyzed": ev.strict is not None,
    }
    if ev.strict_error:
        data["strict_error"] = ev.strict_error
    return data


def evaluate_system(system: System, spec: SampleSpec,
                    contract_id: str) -> "Dict[str, str]":
    """Evaluate one contract against an explicit *system* (the shrink
    loop's predicate: same seed-derived stimuli, candidate topology)."""
    contract = get_contract(contract_id)
    ev = Evidence(kind=KIND_GRAPH, seed=spec.seed, system=system,
                  envelope_n_max=int(spec.config.get(
                      "envelope_n_max", DEFAULT_ENVELOPE_N_MAX)))
    ev.strict, ev.strict_error = _try_analyze(system)
    ev.degrade, ev.degrade_error = _try_analyze(
        system, on_failure="degrade")
    if ev.strict is not None:
        ev.compiled, ev.lazy = _compiled_lazy_pair(system)
        ev.memo_result, _err = _try_analyze(system, memo=AnalysisMemo())
        _explain(system, ev)
        try:
            ev.output_models = output_models(system, ev.strict)
        except _ANALYSIS_ERRORS:
            ev.output_models = None
        try:
            _simulate(system, spec, ev)
        except _ANALYSIS_ERRORS:
            ev.sims = {}
        if spec.config.get("faults"):
            plan = FaultPlan.sample(
                system, seed=spec.seed,
                n_faults=int(spec.config.get("n_faults", 2)),
                max_magnitude=float(
                    spec.config.get("fault_magnitude", 0.3)))
            ev.fault_findings = check_monotone_conservativeness(
                system, [FaultPlan(), plan])
    return contract.evaluate(ev)


@register_job_kind("soak_sample")
def _run_soak_sample(payload: "Dict[str, object]") -> "Dict[str, object]":
    """One burn-in sample: regenerate, gather evidence, judge contracts.

    Payload: ``kind``, ``seed``, ``index``, ``campaign`` (profile name
    + campaign seed, part of the identity so two campaigns never share
    sample ids), optional ``config`` (space/horizon/faults/contracts).
    """
    spec = SampleSpec(kind=str(payload["kind"]),
                      seed=int(payload["seed"]),
                      config=dict(payload.get("config", {})))
    wanted = payload.get("config", {}).get("contracts")
    data = evaluate_sample(spec, contract_ids=wanted)
    data["index"] = payload.get("index")
    return data
