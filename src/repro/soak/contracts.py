"""The soak contract matrix: first-class invariant objects.

A :class:`Contract` states one invariant the engine must uphold on
*every* sample a burn-in campaign draws — conservativeness of analytic
bounds against simulation, dominance of HEM over flat modeling, and
bit-identity of the engine's internal acceleration paths (shared
chains, incremental memo) against their reference paths.  Each contract
carries an id, a prose statement, a severity, a pointer into
``docs/contracts/``, and a check function over the
:class:`~repro.soak.oracle.Evidence` the oracle gathered for a sample.

Checks return one outcome dict per contract::

    {"contract": <id>, "status": "pass" | "violation" | "skip",
     "detail": <str>}

``skip`` means the sample does not exercise the contract (e.g. the
HEM-dominance contract on a task-graph sample); skips are counted in
the campaign's coverage table so a profile that silently never
exercises a contract is visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from .._errors import ModelError
from ..timebase import EPS

#: Severity vocabulary, most severe first.
SEVERITY_CRITICAL = "critical"  # the paper's claim itself is broken
SEVERITY_MAJOR = "major"        # an engine equivalence/soundness bug
SEVERITIES = (SEVERITY_CRITICAL, SEVERITY_MAJOR)

PASS = "pass"
VIOLATION = "violation"
SKIP = "skip"

#: Slack for float comparisons of response-time bounds.
BOUND_EPS = 1e-6


@dataclass(frozen=True)
class Contract:
    """One registered invariant.

    Attributes
    ----------
    id:
        Stable kebab-case identifier (the key in triage bundles, the
        metrics label, and the row anchor in the invariants index).
    statement:
        One-sentence prose statement of the invariant.
    severity:
        One of :data:`SEVERITIES`.
    doc:
        Repo-relative pointer into ``docs/contracts/``.
    check:
        ``Evidence -> (status, detail)`` predicate.
    """

    id: str
    statement: str
    severity: str
    doc: str
    check: Callable[["object"], Tuple[str, str]]

    def evaluate(self, evidence) -> Dict[str, str]:
        status, detail = self.check(evidence)
        if status not in (PASS, VIOLATION, SKIP):
            raise ModelError(
                f"contract {self.id}: check returned invalid status "
                f"{status!r}")
        return {"contract": self.id, "status": status, "detail": detail}


_REGISTRY: "Dict[str, Contract]" = {}


def register_contract(contract: Contract) -> Contract:
    """Register *contract* (ids must be unique)."""
    if contract.id in _REGISTRY:
        raise ModelError(f"duplicate contract id {contract.id!r}")
    if contract.severity not in SEVERITIES:
        raise ModelError(
            f"contract {contract.id}: unknown severity "
            f"{contract.severity!r}")
    _REGISTRY[contract.id] = contract
    return contract


def all_contracts() -> "List[Contract]":
    return [_REGISTRY[cid] for cid in sorted(_REGISTRY)]


def contract_ids() -> "List[str]":
    return sorted(_REGISTRY)


def get_contract(contract_id: str) -> Contract:
    contract = _REGISTRY.get(contract_id)
    if contract is None:
        raise ModelError(
            f"unknown contract {contract_id!r} "
            f"(known: {', '.join(contract_ids())})")
    return contract


# ----------------------------------------------------------------------
# the matrix
# ----------------------------------------------------------------------
def _check_wcrt_sim_conservative(ev) -> Tuple[str, str]:
    if ev.strict is None:
        return SKIP, "strict analysis unavailable"
    if not ev.sims:
        return SKIP, "sample not simulated"
    worst_gap = None
    for mode, run in ev.sims.items():
        for task in run.responses.tasks():
            bound = ev.strict.wcrt(task)
            if bound is None:
                continue
            observed = run.responses.worst_case(task)
            if observed > bound + BOUND_EPS:
                return VIOLATION, (
                    f"task {task}: simulated worst response "
                    f"{observed:.6g} exceeds analytic WCRT {bound:.6g} "
                    f"under {mode} arrivals")
            gap = bound - observed
            if worst_gap is None or gap < worst_gap:
                worst_gap = gap
    return PASS, (f"min analytic headroom {worst_gap:.6g}"
                  if worst_gap is not None else "no comparable task")


def _check_envelope_containment(ev) -> Tuple[str, str]:
    if ev.strict is None or ev.output_models is None:
        return SKIP, "strict analysis unavailable"
    if not ev.sims:
        return SKIP, "sample not simulated"
    checked = 0
    for mode, run in ev.sims.items():
        for task, bound in ev.output_models.items():
            stream = f"out.{task}"
            if run.trace.count(stream) < 2:
                continue
            checked += 1
            if not run.trace.check_conservative(
                    stream, bound, n_max=ev.envelope_n_max):
                return VIOLATION, (
                    f"stream {stream}: observed events packed tighter "
                    f"than the propagated δ⁻ bound under {mode} "
                    f"arrivals")
    if not checked:
        return SKIP, "no output stream produced two events"
    return PASS, f"{checked} stream/mode envelopes contained"


def _check_hem_dominates_flat(ev) -> Tuple[str, str]:
    if ev.hem_pair is None:
        return SKIP, "sample has no hem/flat gateway pair"
    hem, flat, tasks = ev.hem_pair
    for task in tasks:
        h, f = hem.wcrt(task), flat.wcrt(task)
        if h is None or f is None:
            continue
        if h > f + BOUND_EPS:
            return VIOLATION, (
                f"task {task}: HEM bound {h:.6g} exceeds flat bound "
                f"{f:.6g} — hierarchical modeling must never lose")
    return PASS, f"HEM bounds dominate on {len(tasks)} tasks"


def _results_identical(a, b) -> "Tuple[bool, str]":
    """Bit-identity of two SystemResults (responses and trajectory)."""
    if a.iterations != b.iterations:
        return False, (f"iteration counts differ: "
                       f"{a.iterations} != {b.iterations}")
    a_tasks = {name: tr for rr in a.resource_results.values()
               for name, tr in rr.task_results.items()}
    b_tasks = {name: tr for rr in b.resource_results.values()
               for name, tr in rr.task_results.items()}
    if set(a_tasks) != set(b_tasks):
        return False, "task sets differ"
    for name, ta in a_tasks.items():
        tb = b_tasks[name]
        if ta.r_max != tb.r_max or ta.r_min != tb.r_min:
            return False, (
                f"task {name}: ({ta.r_min!r}, {ta.r_max!r}) != "
                f"({tb.r_min!r}, {tb.r_max!r})")
    return True, f"{len(a_tasks)} tasks bit-identical"


def _check_compiled_lazy_identical(ev) -> Tuple[str, str]:
    if ev.compiled is None or ev.lazy is None:
        return SKIP, "compiled/lazy pair unavailable"
    same, detail = _results_identical(ev.compiled, ev.lazy)
    return (PASS if same else VIOLATION), detail


def _check_memo_cold_identical(ev) -> Tuple[str, str]:
    if ev.strict is None or ev.memo_result is None:
        return SKIP, "memoised run unavailable"
    same, detail = _results_identical(ev.strict, ev.memo_result)
    return (PASS if same else VIOLATION), detail


def _check_blame_sums_to_bound(ev) -> Tuple[str, str]:
    if ev.explain_error:
        return VIOLATION, (f"explaining the strict result failed: "
                           f"{ev.explain_error}")
    if ev.explanation is None:
        return SKIP, "no explanation of a strict result"
    blames = ev.explanation.blames
    failures: List[str] = []
    for name, blame in sorted(blames.items()):
        try:
            blame.check()
        except AssertionError as exc:
            failures.append(str(exc))
        r_max = ev.strict.wcrt(name)
        if abs(blame.wcrt - r_max) > EPS:
            failures.append(f"{name}: explained WCRT {blame.wcrt!r} != "
                            f"converged r+ {r_max!r}")
    if failures:
        return VIOLATION, "; ".join(failures[:3])
    if not blames:
        return SKIP, "no scheduler decomposed a bound"
    return PASS, (f"{len(blames)} decompositions sum to their converged "
                  f"bound")


def _check_degrade_certified_sound(ev) -> Tuple[str, str]:
    if ev.degrade is None:
        return SKIP, ("degraded analysis unavailable"
                      + (f": {ev.degrade_error}" if ev.degrade_error
                         else ""))
    outcome = ev.degrade
    if ev.strict is not None:
        # Strict succeeded: degrade mode must not invent degradation
        # and must reproduce the strict fixed point exactly.
        if outcome.degraded:
            failed = [name for name, rh in outcome.resources.items()
                      if not rh.ok]
            return VIOLATION, (
                f"strict analysis converged but degrade mode "
                f"quarantined {', '.join(sorted(failed))}")
        same, detail = _results_identical(ev.strict, outcome.result)
        if not same:
            return VIOLATION, f"degrade result diverges: {detail}"
        return PASS, "degrade mode reproduces the strict fixed point"
    # Strict failed: the degraded outcome must admit it and document
    # every conservative substitution with a certificate.
    if not outcome.degraded:
        return VIOLATION, (
            f"strict analysis failed ({ev.strict_error}) but the "
            f"degraded outcome claims full health")
    degraded_tasks = [
        name for rr in outcome.result.resource_results.values()
        for name, tr in rr.task_results.items() if tr.degraded]
    if not outcome.certificates and not degraded_tasks:
        return VIOLATION, (
            "degraded outcome carries neither certificates nor "
            "degraded task bounds")
    return PASS, (
        f"{len(outcome.certificates)} certificates, "
        f"{len(degraded_tasks)} degraded tasks documented")


def _check_fault_monotone(ev) -> Tuple[str, str]:
    if ev.fault_findings is None:
        return SKIP, "no fault ladder injected"
    if ev.fault_findings:
        first = ev.fault_findings[0]
        return VIOLATION, (
            f"task {first['task']}: WCRT shrank from "
            f"{first['wcrt_before']:.6g} to {first['wcrt_after']:.6g} "
            f"after adding faults {first['added_faults']}")
    return PASS, "WCRTs non-decreasing along the fault ladder"


#: The registered matrix, in severity-then-id order of docs/contracts.
register_contract(Contract(
    id="wcrt-sim-conservative",
    statement="For every task, the analytic WCRT upper-bounds the "
              "worst response observed in any simulation of the same "
              "system.",
    severity=SEVERITY_CRITICAL,
    doc="docs/contracts/wcrt-sim-conservative.md",
    check=_check_wcrt_sim_conservative))

register_contract(Contract(
    id="envelope-containment",
    statement="Observed output event traces stay inside the analytic "
              "δ⁻ envelope propagated for their port (η⁺/δ⁻ "
              "containment).",
    severity=SEVERITY_CRITICAL,
    doc="docs/contracts/envelope-containment.md",
    check=_check_envelope_containment))

register_contract(Contract(
    id="hem-dominates-flat",
    statement="On paired gateway systems, per-task WCRT bounds of the "
              "HEM variant never exceed those of the flat variant.",
    severity=SEVERITY_CRITICAL,
    doc="docs/contracts/hem-dominates-flat.md",
    check=_check_hem_dominates_flat))

register_contract(Contract(
    id="fault-monotone-conservative",
    statement="Adding faults to a system never decreases any cleanly "
              "analysed task's WCRT (monotone conservativeness under "
              "fault injection).",
    severity=SEVERITY_CRITICAL,
    doc="docs/contracts/fault-monotone-conservative.md",
    check=_check_fault_monotone))

register_contract(Contract(
    id="compiled-lazy-identical",
    statement="Analysis with event-model chains shared through the "
              "fingerprint cache is bit-identical (responses and "
              "iteration count) to the unshared reference path.",
    severity=SEVERITY_MAJOR,
    doc="docs/contracts/compiled-lazy-identical.md",
    check=_check_compiled_lazy_identical))

register_contract(Contract(
    id="memo-cold-identical",
    statement="Analysis through the incremental memo is bit-identical "
              "to a cold run of the same system.",
    severity=SEVERITY_MAJOR,
    doc="docs/contracts/memo-cold-identical.md",
    check=_check_memo_cold_identical))

register_contract(Contract(
    id="blame-sums-to-bound",
    statement="Every WCRT blame decomposition re-derived from the "
              "converged result sums exactly to its busy time and "
              "bound, and that bound is the converged r+.",
    severity=SEVERITY_MAJOR,
    doc="docs/contracts/blame-sums-to-bound.md",
    check=_check_blame_sums_to_bound))

register_contract(Contract(
    id="degrade-certified-sound",
    statement="Degrade mode reproduces the strict fixed point when "
              "strict analysis succeeds, and otherwise reports "
              "degradation with certificates or widened task bounds.",
    severity=SEVERITY_MAJOR,
    doc="docs/contracts/degrade-certified-sound.md",
    check=_check_degrade_certified_sound))
