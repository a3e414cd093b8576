"""Self-time accounting of the layer ledger."""

from __future__ import annotations

import inspect
import threading

import pytest

import ledger as ledger_mod
from ledger import Ledger, counter_metrics, per_op


class ScriptedClock:
    """A clock that advances only when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_direct_children():
    clock = ScriptedClock()
    led = Ledger(clock)

    def inner():
        clock.advance(2.0)

    inner_w = led.wrap("inner", inner)

    def outer():
        clock.advance(1.0)
        inner_w()
        clock.advance(3.0)
        inner_w()

    outer_w = led.wrap("outer", outer)
    with led.root("root"):
        clock.advance(0.5)
        outer_w()

    snap = led.snapshot()
    assert snap["self_s"] == {"inner": 4.0, "outer": 4.0, "root": 0.5}
    assert snap["calls"] == {"inner": 2, "outer": 1, "root": 1}
    assert snap["closure"] == 0.0


def test_reentrant_calls_of_one_layer_are_not_double_counted():
    clock = ScriptedClock()
    led = Ledger(clock)

    def compile_(depth):
        clock.advance(1.0)
        if depth:
            compiled(depth - 1)
        clock.advance(1.0)

    compiled = led.wrap("compile", compile_)
    with led.root():
        compiled(3)

    snap = led.snapshot()
    # Four nested calls of two seconds of own work each.
    assert snap["self_s"]["compile"] == pytest.approx(8.0)
    assert snap["calls"]["compile"] == 4
    assert snap["self_s"]["harness"] == 0.0
    assert snap["closure"] == 0.0


def test_exceptions_still_close_the_frame():
    clock = ScriptedClock()
    led = Ledger(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("verdict")

    wrapped = led.wrap("boom", boom)
    with led.root():
        with pytest.raises(ValueError):
            wrapped()
        clock.advance(1.0)
    snap = led.snapshot()
    assert snap["self_s"] == {"boom": 1.0, "harness": 1.0}
    assert snap["closure"] == 0.0


def test_threads_keep_separate_stacks_and_merge_in_reports():
    led = Ledger()
    wrapped = led.wrap("work", lambda: sum(range(1000)))
    barrier = threading.Barrier(4)

    def run():
        barrier.wait()
        for _ in range(200):
            wrapped()

    threads = [threading.Thread(target=run) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    snap = led.snapshot()
    assert snap["calls"]["work"] == 800
    # Each call was top-level on its own thread: the layer is the root.
    assert snap["closure"] < 1e-9


def test_layer_can_depend_on_the_call():
    clock = ScriptedClock()
    led = Ledger(clock)

    class Sched:
        def __init__(self, policy):
            self.policy = policy

        def analyze(self):
            clock.advance(1.0)

    analyze = led.wrap(lambda args: "analysis." + args[0].policy,
                       Sched.analyze)
    analyze(Sched("spp"))
    analyze(Sched("edf"))
    analyze(Sched("edf"))
    assert led.snapshot()["self_s"] == {"analysis.spp": 1.0,
                                        "analysis.edf": 2.0}


def test_install_rebinds_every_repro_module_and_uninstall_restores():
    import repro
    from repro.eventmodels import base
    from repro.system import propagation

    original = base.models_equal
    led = Ledger()
    led.install(targets=(("system.convergence", "repro.eventmodels.base",
                          "models_equal"),), schedulers=False)
    try:
        assert propagation.models_equal is not original
        assert propagation.models_equal is base.models_equal
        assert repro.models_equal is base.models_equal
        p = repro.periodic(100.0)
        assert propagation.models_equal(p, p)
        assert led.snapshot()["calls"]["system.convergence"] == 1
    finally:
        led.uninstall()
    assert propagation.models_equal is original
    assert base.models_equal is original


def test_scheduler_wrappers_keep_the_reuse_signature():
    from repro.analysis.memo import _accepts_reuse
    from repro.analysis.spp import SPPScheduler

    before = _accepts_reuse(SPPScheduler())
    led = Ledger()
    led.install(targets=())
    try:
        assert "analysis.spp" in led.layers
        assert _accepts_reuse(SPPScheduler()) == before
        assert "reuse" in inspect.signature(SPPScheduler.analyze).parameters
    finally:
        led.uninstall()


def test_missing_target_warns_and_drops_its_metrics():
    led = Ledger()
    with pytest.warns(RuntimeWarning, match="not found"):
        led.install(targets=(
            ("gone.layer", "repro.system.propagation", "no_such_function"),
            ("gone.module", "repro.no_such_module", "f"),
            ("gone.method", "repro.batch.store", "ResultStore.no_such"),
        ), schedulers=False)
    led.uninstall()
    assert len(led.missing) == 3
    metrics = per_op(led.snapshot(), 1)
    assert not any(name.startswith("gone.") for name in metrics)


def test_per_op_reports_installed_layers_that_never_ran():
    snap = {"self_s": {"a": 0.004}, "calls": {"a": 2}, "closure": 0.0,
            "layers": ["a", "b"], "missing": []}
    assert per_op(snap, 2) == {"a.self_ms": 2.0, "a.calls": 1.0,
                               "b.self_ms": 0.0, "b.calls": 0.0,
                               "ledger.closure_pct": 0.0}


def test_counter_metrics_from_deltas():
    totals = {"compile.hits": 3, "compile.misses": 1, "kernels.batches": 4,
              "kernels.lanes": 40, "memo.analyses": 10,
              "memo.resource_hits": 5, "memo.task_reuses": 30,
              "memo.tasks_total": 40}
    assert counter_metrics(totals, 2) == {
        "eventmodels.compile.hit_rate": 0.75,
        "analysis.kernels.batches": 2.0, "analysis.kernels.lanes": 20.0,
        "analysis.memo.reuse_rate": 0.75,
        "analysis.memo.resource_hit_rate": 0.5}
    # An unreadable counter leaves its metrics out; zero lookups are 0.
    assert counter_metrics({"compile.hits": 0, "compile.misses": 0}, 1) == {
        "eventmodels.compile.hit_rate": 0.0}


def test_every_default_target_exists():
    led = Ledger()
    led.install()
    led.uninstall()
    assert led.missing == []
    assert set(layer for layer, _m, _a in ledger_mod.TARGETS) <= set(
        led.layers)
