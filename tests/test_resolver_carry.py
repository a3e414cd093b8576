"""The global loop carries one stream resolver through a run.

At each phase boundary the resolver keeps the ports whose upstream
responses are bit-equal to what they read, and drops the rest (every
port, in a degraded run or after a phase that read a cycle seed).  Two
checks gate that:

* a differential: every input analysed as shipped and with the
  resolver forced to drop every port at every boundary (a fresh
  resolver per phase) gives bit-identical results or the same
  exception, and at every boundary each carried port has the
  fingerprint a fresh resolver gives it;
* a work count: one cold pass over the corpus makes a pinned number of
  resolutions, none of them in a run's last iteration.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.memo import AnalysisMemo
from repro.batch import DesignSpace, period_axis, wcet_axis
from repro.eventmodels import compile as emc
from repro.examples_lib.rox08 import build_system as build_rox08
from repro.examples_lib.synth import synth_system, synth_task_graph
from repro.system import system_from_dict, system_to_dict
from repro.system.propagation import _StreamResolver, analyze_system

from test_system import feedback_pair, feedback_seeds

sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                       / "benchmarks" / "e2e"))

from workloads import (  # noqa: E402
    DENSE_SPACE,
    SWEEP_PERIOD,
    SWEEP_WCET,
    build_sweep_system,
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
    resource's health (as a repr, equal only when bit-equal); or its
    exception's type and message."""
    try:
        result = run()
    except Exception as exc:  # noqa: BLE001 - compared by the test
        return type(exc).__name__, str(exc)
    health = sorted((name, h.health)
                    for name, h in getattr(result, "resources", {}).items())
    result = getattr(result, "result", result)
    tasks = sorted((name, tr.r_min, tr.r_max, tr.q_max, tuple(tr.busy_times))
                   for rr in result.resource_results.values()
                   for name, tr in rr.task_results.items())
    return repr((result.iterations, result.converged, tasks, health))


def fresh_per_phase(patch):
    """A fresh resolver per phase: every boundary drops every port."""
    advance = _StreamResolver.advance
    patch.setattr(_StreamResolver, "advance",
                  lambda self, responses, carry: advance(self, responses,
                                                         False))


def check_carried(patch, carried):
    """After every boundary, resolve each carried port with a fresh
    resolver (sharing off, so the chain cache is left alone) and
    compare fingerprints; *carried* counts the ports compared."""
    advance = _StreamResolver.advance

    def checked(self, responses, carry):
        advance(self, responses, carry)
        enabled, emc.enabled = emc.enabled, False
        try:
            fresh = _StreamResolver(self._system, responses, {},
                                    self._substitutes)
            for port, model in self._cache.items():
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
    # Cyclic: every phase reads a cycle seed, so nothing is carried.
    carried = differential(analysed(
        lambda: feedback_pair(c_a, c_b), initial_outputs=feedback_seeds(),
        on_failure=mode))
    assert carried == 0


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
