"""The global loop carries one stream resolver through a run.

At each phase boundary the resolver keeps the ports whose upstream
responses are bit-equal to what they read, and drops the rest (every
port, after a phase that added a substitute or read a cycle seed).  A
substitute added mid-phase drops the carried ports the phase has
neither read nor derived on the way.  Two checks gate that, for strict and degraded runs alike:

* a differential: every input analysed as shipped and with the
  resolver forced to drop every port at every boundary (a fresh
  resolver per phase) gives bit-identical results or the same
  exception, and at every boundary each carried port has the
  fingerprint a fresh resolver gives it;
* a work count: one cold pass over the corpus makes a pinned number of
  resolutions, none of them in a run's last iteration, and so do one
  degraded RoX08 HEM and one oscillating analysis.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis import SPPScheduler
from repro.analysis.memo import AnalysisMemo
from repro.batch import DesignSpace, period_axis, wcet_axis
from repro.eventmodels import compile as emc
from repro.eventmodels.standard import periodic
from repro.examples_lib import body_gateway, stress
from repro.examples_lib.rox08 import build_system as build_rox08
from repro.examples_lib.synth import synth_system, synth_task_graph
from repro.resilience.faultinject import FaultPlan, inject_faults
from repro.system import System, system_from_dict, system_to_dict
from repro.system.propagation import _StreamResolver, analyze_system

from test_system import feedback_pair, feedback_seeds

sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                       / "benchmarks" / "e2e"))

from workloads import (  # noqa: E402
    DENSE_SPACE,
    SWEEP_PERIOD,
    SWEEP_WCET,
    build_sweep_system,
    scale_dict,
)

CORPUS = {
    "rox08-flat": lambda: build_rox08("flat"),
    "rox08-hem": lambda: build_rox08("hem"),
    "synth-16x2": lambda: synth_system(16, 2, base_period=800.0),
    "synth-24x3": lambda: synth_system(24, 3, base_period=1400.0),
    "synth-32x4": lambda: synth_system(32, 4, base_period=2000.0),
}


def outcome(run):
    """What a run computed, exactly: its iteration count, convergence,
    every task's bounds, q_max and busy times and, degraded, every
    resource's health and every certificate's substitute and frozen
    interval (as a repr, equal only when bit-equal); or its exception's
    type and message."""
    try:
        result = run()
    except Exception as exc:  # noqa: BLE001 - compared by the test
        return type(exc).__name__, str(exc)
    health = sorted((name, h.health)
                    for name, h in getattr(result, "resources", {}).items())
    certificates = [(c.port, c.substitute, c.frozen_interval)
                    for c in getattr(result, "certificates", ())]
    result = getattr(result, "result", result)
    tasks = sorted((name, tr.r_min, tr.r_max, tr.q_max, tuple(tr.busy_times))
                   for rr in result.resource_results.values()
                   for name, tr in rr.task_results.items())
    return repr((result.iterations, result.converged, tasks, health,
                 certificates))


def fresh_per_phase(patch):
    """A fresh resolver per phase: every boundary drops every port."""
    advance = _StreamResolver.advance

    def dropping(self, responses):
        self._cache.clear()
        self._carried.clear()
        advance(self, responses)

    patch.setattr(_StreamResolver, "advance", dropping)


def check_carried(patch, carried):
    """After every boundary, resolve each carried port with a fresh
    resolver (sharing off, so the chain cache is left alone) and
    compare fingerprints; *carried* counts the ports compared."""
    advance = _StreamResolver.advance

    def checked(self, responses):
        advance(self, responses)
        enabled, emc.enabled = emc.enabled, False
        try:
            fresh = _StreamResolver(self._system, responses, {},
                                    self._substitutes)
            for port, model in self._carried.items():
                expected = emc.fingerprint(fresh.port(port))
                assert expected is not None, port
                assert emc.fingerprint(model) == expected, port
                carried[0] += 1
        finally:
            emc.enabled = enabled

    patch.setattr(_StreamResolver, "advance", checked)


def differential(measure):
    """What *measure* returns as shipped equals what it returns with a
    fresh resolver per phase, and every carried port checks out;
    returns the number of carried ports checked."""
    shipped = measure()
    with pytest.MonkeyPatch.context() as patch:
        fresh_per_phase(patch)
        assert measure() == shipped
    carried = [0]
    with pytest.MonkeyPatch.context() as patch:
        check_carried(patch, carried)
        assert measure() == shipped
    return carried[0]


def analysed(build, **kwargs):
    return lambda: outcome(lambda: analyze_system(build(), **kwargs))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_differential(name):
    assert differential(analysed(CORPUS[name])) > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=499))
def test_dense_graph_differential(seed):
    differential(analysed(lambda: synth_task_graph(seed, DENSE_SPACE)))


@pytest.mark.parametrize("c_a, c_b, mode", [
    ((10.0, 20.0), (15.0, 30.0), "raise"),
    ((10.0, 20.0), (15.0, 30.0), "degrade"),
    ((2.5, 5.0), (2.5, 5.0), "raise"),
    ((2.5, 5.0), (2.5, 5.0), "degrade"),
    ((1.0, 2.0), (1.0, 3.0), "raise"),
    ((1.0, 2.0), (1.0, 3.0), "degrade"),
])
def test_feedback_differential(c_a, c_b, mode):
    # Cyclic: a phase that reads a cycle seed carries nothing.  The
    # last input's quarantine cuts the cycle when degraded, so the
    # phases after it read no seed and carry 7 ports.
    carried = differential(analysed(
        lambda: feedback_pair(c_a, c_b), initial_outputs=feedback_seeds(),
        on_failure=mode))
    assert carried == (7 if (c_a, mode) == ((1.0, 2.0), "degrade") else 0)


def test_sweep_differential():
    """The repository benchmark's sweep system, design point after
    design point through one memo per variant."""
    space = DesignSpace(
        "carry-differential",
        [wcet_axis(SWEEP_WCET, tasks=("L0", "L1", "L2")),
         period_axis(SWEEP_PERIOD, sources=("S37", "S38", "S39"))],
        base=system_to_dict(build_sweep_system()))
    points = space.sample(6, seed=3)

    def sweep():
        memo = AnalysisMemo()
        return [outcome(lambda: analyze_system(
            system_from_dict(space.system_dict_for(point)), memo=memo))
            for point in points]

    assert differential(sweep) > 0


def test_corpus_pass_resolution_count(monkeypatch):
    """One cold pass over the corpus makes 412 resolutions (956 with a
    fresh resolver per phase), and each run's last iteration, which only
    confirms the fixed point, makes none."""
    calls = [0]
    resolve = _StreamResolver._resolve

    def counting(self, port):
        calls[0] += 1
        return resolve(self, port)

    monkeypatch.setattr(_StreamResolver, "_resolve", counting)
    obs.configure(enabled=True, reset=True)
    bus = obs.get_bus()
    per_iteration = {}
    try:
        for name, build in CORPUS.items():
            emc.cache().clear()
            marks = [calls[0]]
            sink = bus.subscribe(lambda _event: marks.append(calls[0]),
                                 interests={"iteration"})
            try:
                analyze_system(build())
            finally:
                bus.unsubscribe(sink)
            per_iteration[name] = [b - a for a, b in zip(marks, marks[1:])]
    finally:
        obs.disable(reset=True)
    assert per_iteration == {
        "rox08-flat": [12, 2, 0],
        "rox08-hem": [18, 2, 0],
        "synth-16x2": [70, 13, 0],
        "synth-24x3": [105, 21, 0],
        "synth-32x4": [140, 29, 0],
    }
    assert calls[0] == 412


# ----------------------------------------------------------------------
# degraded runs carry the resolver too
# ----------------------------------------------------------------------
def cascade(read_below_first=False):
    """Resources analysed in the order cpu2, cpu4, cpu1, cpu3.  cpu1
    overloads in the first iteration; its widened output overloads cpu2
    in the second, after the first iteration carried the ports below
    cpu2.  cpu4 reads one of them (``S``, fed by cpu2's ``R``) later in
    that phase, so it must see ``R``'s substitute, as a fresh resolver
    does; serving the carried ``S`` costs one iteration more.

    With *read_below_first*, ``U`` on cpu0, analysed before cpu2, reads
    ``S2`` (fed by ``S``) first in that phase.  A fresh resolver then
    holds the ``S`` it derived on the way, before the substitute, and
    serves cpu4 that one; deriving ``S`` again from the substitute
    saves one iteration."""
    s = System("cascade")
    s.add_source("src", periodic(100.0))
    s.add_source("src2", periodic(100.0))
    resources = ["cpu2", "cpu4", "cpu1", "cpu3"]
    if read_below_first:
        resources.insert(0, "cpu0")
    for name in resources:
        s.add_resource(name, SPPScheduler())
    s.add_task("A", "cpu1", (5.0, 120.0), ["src"], priority=1)
    s.add_task("H", "cpu2", (4.5, 4.5), ["A"], priority=1)
    s.add_task("R", "cpu2", (10.0, 20.0), ["src2"], priority=2)
    s.add_task("S", "cpu3", (1.0, 2.0), ["R"], priority=1)
    s.add_task("T", "cpu4", (1.0, 15.0), ["S"], priority=1)
    if read_below_first:
        s.add_task("S2", "cpu3", (1.0, 2.0), ["S"], priority=2)
        s.add_task("U", "cpu0", (1.0, 2.0), ["S2"], priority=1)
    return s


def rox08_at_unit(factor):
    """RoX08 HEM in a time unit of its own, as a served miss sends it."""
    return lambda: system_from_dict(
        scale_dict(system_to_dict(build_rox08("hem")), factor))


DEGRADED = {
    "rox08-flat": lambda: build_rox08("flat"),
    "rox08-hem": lambda: build_rox08("hem"),
    "rox08-hem-scaled": rox08_at_unit(1.13),
    "overloaded": stress.build_overloaded,
    "oscillating": stress.build_oscillating,
    "body_gateway": body_gateway.build,
    "cascade": cascade,
    "cascade-read-below": lambda: cascade(read_below_first=True),
}


@pytest.mark.parametrize("name", sorted(DEGRADED))
def test_degraded_differential(name):
    assert differential(analysed(DEGRADED[name], on_failure="degrade")) > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=499))
def test_dense_graph_degraded_differential(seed):
    differential(analysed(lambda: synth_task_graph(seed, DENSE_SPACE),
                          on_failure="degrade"))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=499),
       st.floats(min_value=1.0, max_value=1.15, exclude_min=True))
def test_loaded_graph_degraded_differential(seed, load):
    """Dense graphs above 100% load, which quarantine.  (From 85% to
    100% a degraded analysis can take 25 s of busy windows; quarantines
    later in a run are the cascade's and the faulted systems'.)"""
    space = dataclasses.replace(DENSE_SPACE, util_lo=load, util_hi=load)
    differential(analysed(lambda: synth_task_graph(seed, space),
                          on_failure="degrade"))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=499))
def test_faulted_rox08_degraded_differential(seed):
    def build():
        system = build_rox08("hem")
        return inject_faults(system, FaultPlan.sample(
            system, seed, n_faults=4, max_magnitude=1.5))

    differential(analysed(build, on_failure="degrade"))


@pytest.mark.parametrize("name, count", [("rox08-hem", 20),
                                         ("oscillating", 41)])
def test_degraded_resolution_count(monkeypatch, name, count):
    """A degraded analysis resolves a port again only after a response
    upstream of it moved or a substitute was added: 20 resolutions for
    RoX08 HEM and 41 for the oscillating system (72 and 93 with a
    fresh resolver per phase)."""
    calls = [0]
    resolve = _StreamResolver._resolve

    def counting(self, port):
        calls[0] += 1
        return resolve(self, port)

    monkeypatch.setattr(_StreamResolver, "_resolve", counting)
    analyze_system(DEGRADED[name](), on_failure="degrade")
    assert calls[0] == count
