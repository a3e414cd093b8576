"""Randomized burn-in campaigns over the batch engine.

A campaign is an open-ended, seeded stream of soak samples pushed
through :class:`~repro.batch.executor.BatchRunner` in chunks until a
time or sample budget runs out.  Each sample is a ``soak_sample`` job
(:mod:`repro.soak.oracle`) whose payload carries only deterministic
coordinates — ``(profile, campaign seed, index)`` fix the sample kind
and seed, the system is regenerated inside the job — so job keys are
content-addressed and stable across runs.  That single property gives
crash-resumability for free: ``--resume`` keeps the
:class:`~repro.batch.store.ResultStore`, re-derives the identical job
list, and the runner serves every finished index from the cache while
the campaign continues counting where the killed run stopped; no
sample id can ever be duplicated.

Per-sample stalls are bounded by the job's deadline, which the engine
checks at its loop heads on whatever thread runs the sample, plus a
:class:`~repro.resilience.retry.RetryPolicy`; a diverging fixed point
inside a sample is already bounded by the analysis' own iteration cap
and :class:`~repro.resilience.guards.DivergenceGuard` machinery
underneath ``analyze_system``.

Violating samples are auto-shrunk (:mod:`repro.soak.shrink`) and
dumped as self-contained triage bundles under
``<cache_dir>/bundles/``: serialised minimal system + sample
coordinates + contract id + the exact repro command.

Progress streams over the observability bus as ``soak`` events (plus
the runner's own ``sweep``/``job`` lifecycle), and the campaign's
counters — ``soak.samples``, ``soak.violations``, ``soak.shrinks``,
per-contract pass counts — live in the ordinary metrics registry, so
``repro top --follow`` and the serve daemon's ``/metrics`` endpoint
expose a running soak without extra wiring.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .. import obs as _obs
from .._errors import ModelError
from ..batch.executor import BatchRunner, make_backend
from ..batch.jobs import Job, JobResult
from ..batch.store import ResultStore
from ..obs.bus import BUS as _BUS
from ..obs.openmetrics import labeled
from ..resilience.retry import RetryPolicy
from ..system.serialize import system_to_dict
from .contracts import PASS, SKIP, VIOLATION
from .oracle import (
    KIND_GATEWAY,
    KIND_GRAPH,
    SampleSpec,
    build_sample_system,
)
from .shrink import shrink_system

#: Default cache root for soak campaigns.
DEFAULT_CACHE_ROOT = ".repro-soak"

#: Samples submitted to the runner per chunk (budget check cadence).
DEFAULT_CHUNK = 8

#: Per-sample wall-time budget (seconds): the job's deadline.
DEFAULT_SAMPLE_TIMEOUT = 60.0

#: Campaign profiles: named sample mixes over verified spaces.
#:
#: ``kinds`` is the cycle of sample kinds (index-deterministic);
#: ``config`` is passed through to :class:`~repro.soak.oracle.
#: SampleSpec` (graph space bounds, simulation horizon, fault ladder,
#: contract subset).
SOAK_PROFILES: "Dict[str, Dict[str, object]]" = {
    # Small, fast, converges for every seed: the CI gate profile.
    "smoke": {
        "kinds": [KIND_GRAPH, KIND_GRAPH, KIND_GRAPH, KIND_GATEWAY],
        "config": {"faults": 2},
        "chunk": DEFAULT_CHUNK,
        "timeout": DEFAULT_SAMPLE_TIMEOUT,
    },
    # Wider topologies, every scheduling policy, deeper HEM nesting.
    "nightly": {
        "kinds": [KIND_GRAPH, KIND_GRAPH, KIND_GRAPH, KIND_GATEWAY],
        "config": {
            "faults": 3,
            "horizon_periods": 6.0,
            "space": {
                "max_resources": 4,
                "max_sources": 5,
                "max_chain": 4,
                "policies": ["spp", "spnp", "edf",
                             "round_robin", "tdma"],
            },
            "max_signals": 8,
            "max_nesting": 2,
        },
        "chunk": DEFAULT_CHUNK,
        "timeout": 2 * DEFAULT_SAMPLE_TIMEOUT,
    },
    # Analysis-only gateway pairs: cheap HEM-vs-flat dominance mining.
    "gateway": {
        "kinds": [KIND_GATEWAY],
        "config": {"max_signals": 8, "max_nesting": 2},
        "chunk": 2 * DEFAULT_CHUNK,
        "timeout": DEFAULT_SAMPLE_TIMEOUT,
    },
}


def sample_job(profile: str, campaign_seed: int, index: int,
               config: "Dict[str, object]", kinds: "List[str]",
               timeout: float) -> Job:
    """The deterministic job for sample *index* of a campaign.

    The sample seed is drawn from a generator keyed by the full
    campaign coordinates, so two campaigns (or two profiles) never
    share a sample stream, yet every process rebuilding the job for
    ``(profile, seed, index)`` gets the identical key.
    """
    kind = kinds[index % len(kinds)]
    rng = random.Random(f"soak:{profile}:{campaign_seed}:{index}")
    payload = {
        "kind": kind,
        "seed": rng.getrandbits(31),
        "index": index,
        "campaign": {"profile": profile, "seed": campaign_seed},
        "config": dict(config),
    }
    return Job("soak_sample", payload,
               label=f"{profile}[{index}] {kind}", timeout=timeout)


# ----------------------------------------------------------------------
# triage bundles
# ----------------------------------------------------------------------
def bundle_dir(cache_dir: Path, contract: str, index: int) -> Path:
    return Path(cache_dir) / "bundles" / f"{contract}-i{index}"


def write_bundle(cache_dir: Path, contract: str, data: dict,
                 shrink_result=None) -> Path:
    """Persist one self-contained triage bundle and return its path."""
    spec = SampleSpec(kind=data["kind"], seed=data["seed"],
                      config=dict(data.get("config", {})))
    if shrink_result is not None:
        system_dict = shrink_result.system
        shrunk = {"original_tasks": shrink_result.original_tasks,
                  "shrunk_tasks": shrink_result.shrunk_tasks,
                  "evals": shrink_result.evals,
                  "removed": shrink_result.removed,
                  "outcome": shrink_result.outcome}
    else:
        system_dict = system_to_dict(build_sample_system(spec))
        shrunk = None
    directory = bundle_dir(cache_dir, contract, data.get("index", 0))
    directory.mkdir(parents=True, exist_ok=True)
    bundle = {
        "schema": "repro-soak-bundle/1",
        "contract": contract,
        "kind": spec.kind,
        "seed": spec.seed,
        "config": dict(spec.config),
        "index": data.get("index"),
        "campaign": data.get("campaign", {}),
        "detail": next((o["detail"] for o in data.get("outcomes", [])
                        if o["contract"] == contract), ""),
        "system": system_dict,
        "shrink": shrunk,
        "repro": f"python -m repro soak replay {directory}",
    }
    path = directory / "bundle.json"
    path.write_text(json.dumps(bundle, indent=2, sort_keys=True),
                    encoding="utf-8")
    return directory


def load_bundle(path) -> dict:
    """Read a bundle written by :func:`write_bundle`."""
    path = Path(path)
    if path.is_dir():
        path = path / "bundle.json"
    bundle = json.loads(path.read_text(encoding="utf-8"))
    if bundle.get("schema") != "repro-soak-bundle/1":
        raise ModelError(f"{path} is not a soak triage bundle")
    return bundle


def replay_bundle(path) -> "Dict[str, str]":
    """Re-evaluate a bundle's contract against its stored system."""
    from ..system.serialize import system_from_dict
    from .oracle import evaluate_system

    bundle = load_bundle(path)
    spec = SampleSpec(kind=KIND_GRAPH, seed=int(bundle["seed"]),
                      config=dict(bundle.get("config", {})))
    system = system_from_dict(bundle["system"])
    return evaluate_system(system, spec, bundle["contract"])


# ----------------------------------------------------------------------
# campaign state and loop
# ----------------------------------------------------------------------
@dataclass
class CampaignReport:
    """Aggregate outcome of one :func:`run_campaign` call."""

    profile: str
    seed: int
    cache_dir: str
    samples: int = 0
    cached: int = 0
    errors: int = 0
    violations: "List[dict]" = field(default_factory=list)
    bundles: "List[str]" = field(default_factory=list)
    contract_counts: "Dict[str, Dict[str, int]]" = field(
        default_factory=dict)
    wall: float = 0.0
    resumed_from: int = 0

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    @property
    def samples_per_sec(self) -> float:
        return self.samples / self.wall if self.wall > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "cache_dir": self.cache_dir,
            "samples": self.samples,
            "cached": self.cached,
            "errors": self.errors,
            "violations": self.violations,
            "violation_count": self.violation_count,
            "bundles": self.bundles,
            "contracts": self.contract_counts,
            "wall": self.wall,
            "samples_per_sec": self.samples_per_sec,
            "resumed_from": self.resumed_from,
        }


def _next_index(store: ResultStore) -> int:
    """One past the highest sample index the store has seen."""
    highest = -1
    for result in store.results():
        index = result.data.get("index")
        if isinstance(index, int) and index > highest:
            highest = index
    return highest + 1


def _count_outcomes(report: CampaignReport, data: dict) -> None:
    for outcome in data.get("outcomes", []):
        by_status = report.contract_counts.setdefault(
            outcome["contract"],
            {PASS: 0, VIOLATION: 0, SKIP: 0})
        by_status[outcome["status"]] = \
            by_status.get(outcome["status"], 0) + 1


def run_campaign(profile: str, *, minutes: Optional[float] = None,
                 samples: Optional[int] = None, seed: int = 0,
                 cache_dir: Optional[str] = None, resume: bool = False,
                 shrink: bool = True, workers: int = 0,
                 progress=None) -> CampaignReport:
    """Run one burn-in campaign until its budget is spent.

    Exactly one of ``minutes`` / ``samples`` bounds the run (both may
    be given; whichever trips first wins; with neither, one chunk runs
    — a single smoke round).  ``resume=False`` clears the cache;
    ``resume=True`` keeps it, serves finished indices from the store,
    and continues the index stream where the previous run stopped.
    """
    if profile not in SOAK_PROFILES:
        raise ModelError(
            f"unknown soak profile {profile!r} "
            f"(known: {', '.join(sorted(SOAK_PROFILES))})")
    spec = SOAK_PROFILES[profile]
    kinds = list(spec["kinds"])
    config = dict(spec["config"])
    chunk = int(spec.get("chunk", DEFAULT_CHUNK))
    timeout = float(spec.get("timeout", DEFAULT_SAMPLE_TIMEOUT))

    cache_dir = cache_dir or f"{DEFAULT_CACHE_ROOT}/{profile}-s{seed}"
    store = ResultStore(cache_dir)
    if not resume:
        store.clear()
    runner = BatchRunner(
        store=store, backend=make_backend(workers),
        retry=RetryPolicy(max_attempts=2))

    report = CampaignReport(profile=profile, seed=seed,
                            cache_dir=str(cache_dir))
    report.resumed_from = _next_index(store) if resume else 0

    deadline = (time.monotonic() + minutes * 60.0
                if minutes is not None else None)

    metrics = _obs.metrics() if _obs.enabled else None
    if _BUS.wants("soak"):
        _BUS.publish({"type": "soak", "phase": "start",
                      "profile": profile, "seed": seed,
                      "resumed_from": report.resumed_from,
                      "cache_dir": str(cache_dir)})

    # The index stream always restarts at 0: sample jobs are
    # content-addressed, so on resume every index the killed run
    # finished is served from the store in microseconds and the first
    # unfinished index executes — continuation without bookkeeping.
    index = 0
    t0 = time.perf_counter()
    try:
        while True:
            if samples is not None and index >= samples:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            if samples is None and deadline is None and index >= chunk:
                break  # no budget given: one smoke chunk
            take = (chunk if samples is None
                    else min(chunk, samples - index))
            jobs = [sample_job(profile, seed, index + i, config,
                               kinds, timeout)
                    for i in range(take)]
            chunk_report = runner.run(jobs)
            for job in jobs:
                result = chunk_report.result_for(job)
                if result is None:
                    continue
                _fold_result(report, result, job, metrics,
                             cache_dir=Path(cache_dir), shrink=shrink,
                             cached=job.key in chunk_report.cached)
                if progress is not None:
                    progress(report, result)
            index += take
    finally:
        report.wall = time.perf_counter() - t0
        store.close()
        if _BUS.wants("soak"):
            _BUS.publish({"type": "soak", "phase": "end",
                          "profile": profile, "seed": seed,
                          "samples": report.samples,
                          "violations": report.violation_count,
                          "wall": report.wall})
    return report


def _fold_result(report: CampaignReport, result: JobResult, job: Job,
                 metrics, *, cache_dir: Path, shrink: bool,
                 cached: bool) -> None:
    """Account one finished sample; shrink + bundle new violations."""
    if cached:
        report.cached += 1
    report.samples += 1
    if metrics is not None:
        metrics.counter("soak.samples").inc()
    if not result.ok:
        report.errors += 1
        if metrics is not None:
            metrics.counter("soak.errors").inc()
        return
    data = result.data
    _count_outcomes(report, data)
    if metrics is not None:
        for outcome in data.get("outcomes", []):
            if outcome["status"] == PASS:
                metrics.counter(labeled(
                    "soak.contract_pass",
                    contract=outcome["contract"])).inc()
    violated = data.get("violations", [])
    if _BUS.wants("soak"):
        _BUS.publish({"type": "soak", "phase": "sample",
                      "index": data.get("index"),
                      "kind": data.get("kind"),
                      "seed": data.get("seed"),
                      "cached": cached,
                      "violations": list(violated)})
    if not violated:
        return
    if metrics is not None:
        metrics.counter("soak.violations").inc(len(violated))
    spec = SampleSpec(kind=data["kind"], seed=data["seed"],
                      config=dict(data.get("config", job.payload.get(
                          "config", {}))))
    for contract in violated:
        detail = next((o["detail"] for o in data["outcomes"]
                       if o["contract"] == contract), "")
        record = {"contract": contract, "index": data.get("index"),
                  "kind": data["kind"], "seed": data["seed"],
                  "detail": detail}
        existing = bundle_dir(cache_dir, contract,
                              data.get("index", 0))
        if (existing / "bundle.json").exists():
            # A previous (killed or resumed-over) run already triaged
            # this violation; don't shrink the same sample twice.
            record["bundle"] = str(existing)
            report.bundles.append(str(existing))
            report.violations.append(record)
            continue
        shrink_result = None
        if shrink and data["kind"] == KIND_GRAPH:
            try:
                shrink_result = shrink_system(
                    build_sample_system(spec), spec, contract)
                record["shrunk_tasks"] = shrink_result.shrunk_tasks
                if metrics is not None:
                    metrics.counter("soak.shrinks").inc()
            except Exception as exc:  # triage must never sink the run
                record["shrink_error"] = f"{type(exc).__name__}: {exc}"
        try:
            bundle_data = dict(data)
            bundle_data["config"] = dict(spec.config)
            directory = write_bundle(cache_dir, contract, bundle_data,
                                     shrink_result)
            record["bundle"] = str(directory)
            report.bundles.append(str(directory))
        except Exception as exc:
            record["bundle_error"] = f"{type(exc).__name__}: {exc}"
        report.violations.append(record)
        if _BUS.wants("soak"):
            _BUS.publish({"type": "soak", "phase": "violation",
                          **{k: record.get(k) for k in
                             ("contract", "index", "kind", "seed",
                              "bundle")}})
