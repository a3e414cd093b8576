"""The engine's records: one emission per engine event, and the metrics
derived from them.

Each global iteration, successful local analysis, divergence-guard
verdict and quarantine calls ``repro.obs.emit`` once; the registry folds
the records through ``obs.metrics.RECORD_METRICS``.  The pinned values
are those the engine reported before its metrics were derived from
records (``busy_window.activations`` then counted converged fixed
points, which equals the Σ ``q_max`` of the computed task results on
every resource without EDF).
"""

from collections import Counter

import pytest

from repro import obs
from repro._errors import ConvergenceError, NotSchedulableError
from repro.analysis import kernels
from repro.analysis.memo import AnalysisMemo
from repro.eventmodels import compile as emc
from repro.examples_lib import stress
from repro.examples_lib.rox08 import build_system
from repro.examples_lib.synth import GraphSpace, synth_task_graph
from repro.system.propagation import analyze_system

RUNS = {
    "hem-strict": (lambda: build_system("hem"), "raise"),
    "hem-degraded": (lambda: build_system("hem"), "degrade"),
    "overloaded": (stress.build_overloaded, "degrade"),
    "oscillating": (stress.build_oscillating, "degrade"),
}

#: Per run: iterations, local-analysis samples, junction pack/unpack,
#: busy windows, activations, quarantines, widenings, guard verdicts
#: and failed resources (None: the gauge is never set).  A run resolves
#: each junction once while its upstream responses hold and no
#: substitute is added, so RoX08 HEM, which quarantines nothing,
#: resolves its 2 pack and 6 unpack junctions once, strict or degraded.
CONTRACT = {
    "hem-strict": (3, 3, 2, 6, 8, 10, 0, 0, 0, None),
    "hem-degraded": (3, 3, 2, 6, 8, 10, 0, 0, 0, 0),
    "overloaded": (2, 2, 0, 0, 3, 3, 1, 1, 0, 1),
    "oscillating": (15, 25, 0, 0, 38, 162, 1, 2, 1, 1),
}

#: The dense-local population of the repository benchmark.
DENSE_SPACE = GraphSpace(max_resources=3, max_sources=8, max_chain=3,
                         policies=("spp", "spnp", "edf"),
                         util_lo=0.5, util_hi=0.8)

SPP_SPNP_SPACE = GraphSpace(max_resources=3, max_sources=8, max_chain=3,
                            policies=("spp", "spnp"),
                            util_lo=0.5, util_hi=0.8)


@pytest.fixture
def telemetry():
    """Telemetry on from a cleared chain cache and a zeroed registry."""
    emc.cache().clear()
    obs.configure(enabled=True, reset=True)
    yield obs.metrics()
    obs.disable(reset=True)


@pytest.fixture
def emitted(monkeypatch):
    """Every ``(kind, record)`` that ``obs.emit`` sends, in order."""
    sent = []
    emit = obs.emit

    def collect(kind, record, span=None):
        sent.append((kind, dict(record)))
        emit(kind, record, span)

    monkeypatch.setattr(obs, "emit", collect)
    return sent


def kinds(sent):
    return Counter(kind for kind, _ in sent)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_metrics_contract(telemetry, run):
    build, mode = RUNS[run]
    analyze_system(build(), on_failure=mode)
    snap = telemetry.snapshot()
    counters, gauges = snap["counters"], snap["gauges"]
    (iterations, samples, pack, unpack, windows, activations,
     quarantines, widenings, verdicts, failed) = CONTRACT[run]
    assert counters["propagation.iterations"] == iterations
    assert gauges["propagation.iterations_to_convergence"] == iterations
    assert snap["histograms"]["propagation.local_analysis_seconds"][
        "count"] == samples
    assert counters.get("propagation.junction.pack", 0) == pack
    assert counters.get("propagation.junction.unpack", 0) == unpack
    assert counters["busy_window.windows"] == windows
    assert counters["busy_window.activations"] == activations
    assert counters.get("resilience.quarantines", 0) == quarantines
    assert counters.get("resilience.widenings", 0) == widenings
    assert counters.get("propagation.divergence_detected", 0) == verdicts
    assert gauges.get("resilience.failed_resources") == failed


@pytest.mark.parametrize("mode, hits", [("raise", 0), ("degrade", 0)])
def test_chain_cache_counts_itself(telemetry, mode, hits):
    """RoX08 HEM's chain-cache traffic, read from the cache.  A run
    re-derives a port only when its upstream responses moved (or a
    substitute was added, which RoX08 never needs), into a new chain,
    so from a cold cache it never hits, strict or degraded."""
    analyze_system(build_system("hem"), on_failure=mode)
    stats = emc.cache().stats()
    assert (stats["hits"], stats["misses"]) == (hits, 17)
    assert obs.engine_stats()["compile.cache.hits"] == hits


@pytest.mark.parametrize("evaluator", ["scalar", "numpy"])
def test_busy_windows_of_spp_spnp_graphs(telemetry, monkeypatch,
                                         evaluator):
    """10 SPP/SPNP graphs: 665 windows over 4,132 activations, whichever
    evaluator closes them."""
    if evaluator == "numpy":
        pytest.importorskip("numpy")
        monkeypatch.setattr(kernels, "MIN_BATCH_LANES", 0)
        monkeypatch.setattr(kernels, "MIN_BATCH_LOAD", 0.0)
    for seed in range(10):
        analyze_system(synth_task_graph(seed, SPP_SPNP_SPACE))
    counters = telemetry.snapshot()["counters"]
    assert counters["busy_window.windows"] == 665
    assert counters["busy_window.activations"] == 4132


def test_memo_hit_adds_no_windows(telemetry, emitted):
    """A whole-resource memo hit and a reused task add no busy window:
    a local analysis counts exactly the task results it computed."""
    memo = AnalysisMemo()
    system = build_system("hem")
    analyze_system(system, memo=memo)
    cold = telemetry.snapshot()["counters"]
    assert cold["busy_window.windows"] == 8
    assert cold["busy_window.activations"] == 10

    emitted.clear()
    analyze_system(system, memo=memo)
    records = [r for kind, r in emitted if kind == "local_analysis"]
    warm = telemetry.snapshot()["counters"]
    assert records and all(r["resource_hit"] == 1 for r in records)
    assert all(r["windows"] == r["activations"] == 0 for r in records)
    assert warm["busy_window.windows"] == cold["busy_window.windows"]
    assert warm["busy_window.activations"] \
        == cold["busy_window.activations"]

    # A slower lowest-priority task on CPU1: its higher-priority
    # neighbours are reused, so only the computed results count.
    emitted.clear()
    edited = build_system("hem")
    low = max((t for t in edited.tasks.values() if t.resource == "CPU1"),
              key=lambda t: t.priority)
    low.c_max *= 1.1
    analyze_system(edited, memo=memo)
    records = [r for kind, r in emitted if kind == "local_analysis"]
    partial = [r for r in records if r["reused_tasks"]]
    assert partial
    for record in records:
        assert record["windows"] == record["computed_tasks"]
        assert record["windows"] + record["reused_tasks"] \
            == record["tasks"]


def test_one_record_per_event(telemetry, emitted):
    analyze_system(build_system("hem"))
    assert kinds(emitted) == {"iteration": 3, "local_analysis": 3}
    emitted.clear()
    analyze_system(stress.build_oscillating(), on_failure="degrade")
    assert kinds(emitted) == {"iteration": 15, "local_analysis": 25,
                              "guard": 1, "quarantine": 1}
    assert len(emitted) == 42


def test_disabled_run_emits_nothing(emitted):
    obs.disable(reset=True)
    analyze_system(stress.build_oscillating(), on_failure="degrade")
    assert emitted == []


def test_records_reach_span_and_bus(telemetry):
    """An iteration record is its span's attributes and one bus event;
    a guard verdict and a quarantine are events on the iteration span."""
    events = []
    bus = obs.get_bus()
    sink = bus.subscribe(events.append)
    try:
        analyze_system(stress.build_oscillating(), on_failure="degrade")
    finally:
        bus.unsubscribe(sink)
    by_type = Counter(e["type"] for e in events)
    assert by_type["iteration"] == 15
    assert by_type["local_analysis"] == 25
    assert by_type["guard"] == by_type["quarantine"] == 1
    spans = [e for e in events if e["type"] == "span"
             and e["name"] == "global_iteration"]
    records = [e for e in events if e["type"] == "iteration"]
    for span, record in zip(spans, records):
        assert all(span["attributes"][k] == v for k, v in record.items()
                   if k not in ("type", "t"))
    points = [p["name"] for s in spans for p in s.get("events", ())]
    assert sorted(points) == ["guard", "quarantine"]


def test_dense_pass_stores_one_sample_per_analysis(telemetry):
    """The 40 dense-local graphs keep one histogram sample per local
    analysis the pass ran (319), where every busy window and fixed
    point used to keep one (58,222)."""
    names = []
    bus = obs.get_bus()
    sink = bus.subscribe(lambda span: names.append(span["name"]),
                         interests={"span"})
    try:
        for seed in range(40):
            try:
                analyze_system(synth_task_graph(seed, DENSE_SPACE))
            except (ConvergenceError, NotSchedulableError):
                pass
    finally:
        bus.unsubscribe(sink)
    analyses = names.count("local_analysis")
    stored = sum(len(samples) for samples
                 in telemetry.export_state()["histograms"].values())
    assert analyses == 319
    assert stored <= analyses
