"""Unit tests for system serialisation (round trips and golden shapes)."""

import json
import math

import pytest

from repro._errors import ModelError
from repro.analysis import (
    EDFScheduler,
    HierarchicalSPPScheduler,
    PeriodicResource,
    RoundRobinScheduler,
    SPNPScheduler,
    SPPScheduler,
    TDMAScheduler,
)
from repro.eventmodels import (
    TaskOutputModel,
    maybe_compile,
    models_equal,
    or_join,
    periodic,
    periodic_with_jitter,
    sporadic,
)
from repro.examples_lib.rox08 import build_system
from repro.system import (
    analyze_system,
    content_hash,
    model_from_dict,
    model_to_dict,
    scheduler_from_dict,
    scheduler_to_dict,
    system_from_dict,
    system_to_dict,
)
from repro.system.serialize import FREEZE_N


class TestModelRoundTrip:
    @pytest.mark.parametrize("model", [
        periodic(100.0),
        periodic_with_jitter(100.0, 35.0),
        sporadic(250.0, 10.0),
    ])
    def test_standard_exact(self, model):
        clone = model_from_dict(model_to_dict(model))
        assert models_equal(model, clone, n_max=32)

    def test_curve_via_freeze(self):
        join = or_join([periodic(100.0), periodic(150.0)])
        clone = model_from_dict(model_to_dict(join))
        # exact within the freeze horizon
        for n in range(2, 32):
            assert clone.delta_min(n) == pytest.approx(join.delta_min(n))

    def test_compiled_curve_encoding_ignores_query_history(self):
        """A shared chain's memo grows with the queries it answers; its
        encoding, and so its content hash, must not."""
        compiled = maybe_compile(
            TaskOutputModel(periodic_with_jitter(100.0, 30.0), 2.0, 9.0))
        before = model_to_dict(compiled)
        compiled.load()
        compiled.delta_min_block(80)  # grows the δ⁻ memo
        after = model_to_dict(compiled)
        assert content_hash(after) == content_hash(before)
        assert len(after["delta_min"]) == len(after["delta_plus"]) \
            == FREEZE_N + 1
        clone = model_from_dict(after)
        assert models_equal(clone, compiled, n_max=FREEZE_N)
        assert model_to_dict(clone) == after

    def test_json_compatible(self):
        payload = model_to_dict(periodic_with_jitter(10.0, 3.0))
        assert json.loads(json.dumps(payload)) == payload

    def test_unknown_type_rejected(self):
        with pytest.raises(ModelError):
            model_from_dict({"type": "quantum"})


class TestSchedulerRoundTrip:
    @pytest.mark.parametrize("scheduler", [
        SPPScheduler(0.9),
        SPNPScheduler(),
        RoundRobinScheduler(),
        TDMAScheduler(),
        EDFScheduler(),
        HierarchicalSPPScheduler(PeriodicResource(100.0, 30.0)),
    ])
    def test_round_trip_policy(self, scheduler):
        clone = scheduler_from_dict(scheduler_to_dict(scheduler))
        assert clone.policy == scheduler.policy

    def test_spp_limit_preserved(self):
        clone = scheduler_from_dict(scheduler_to_dict(SPPScheduler(0.7)))
        assert clone.utilization_limit == 0.7

    def test_server_parameters_preserved(self):
        original = HierarchicalSPPScheduler(PeriodicResource(80.0, 20.0))
        clone = scheduler_from_dict(scheduler_to_dict(original))
        assert clone.server.period == 80.0
        assert clone.server.budget == 20.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ModelError):
            scheduler_from_dict({"policy": "magic"})


class TestSystemRoundTrip:
    def test_paper_system_round_trip_same_results(self):
        original = build_system("hem")
        clone = system_from_dict(system_to_dict(original))
        r1 = analyze_system(original)
        r2 = analyze_system(clone)
        for task in ("T1", "T2", "T3", "F1", "F2"):
            assert r2.wcrt(task) == pytest.approx(r1.wcrt(task))

    def test_dict_is_json_serialisable(self):
        payload = system_to_dict(build_system("flat"))
        clone_payload = json.loads(json.dumps(payload))
        clone = system_from_dict(clone_payload)
        assert set(clone.tasks) == set(build_system("flat").tasks)

    def test_junction_metadata_preserved(self):
        original = build_system("hem")
        payload = system_to_dict(original)
        pack = payload["junctions"]["F1_pack"]
        assert pack["kind"] == "pack"
        assert pack["timer"] == "F1_timer"
        assert set(pack["properties"].values()) == \
            {"triggering", "pending"}

    def test_invalid_graph_rejected_on_load(self):
        payload = system_to_dict(build_system("hem"))
        payload["tasks"]["T1"]["inputs"] = ["ghost_node"]
        with pytest.raises(ModelError):
            system_from_dict(payload)

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d["tasks"]["T1"].pop("resource"),
         "task 'T1': missing key 'resource'"),
        (lambda d: d["junctions"]["F1_pack"].update(kind="bogus"),
         "junction 'F1_pack': "),
        (lambda d: d.update(tasks=list(d["tasks"].values())),
         "tasks: expected a mapping"),
        (lambda d: d["resources"].update(
            CPU1={"policy": "hspp", "server_period": 10.0}),
         "resource 'CPU1': missing key 'server_budget'"),
        (lambda d: d["sources"]["F1_timer"].update(period="100"),
         "source 'F1_timer': "),
        (lambda d: d["sources"].update(F1_timer={"type": "quantum"}),
         "source 'F1_timer': unknown event-model type"),
        (lambda d: d["tasks"]["T1"].update(inputs=[["S1"]]),
         "task 'T1': inputs: expected a port name"),
        (lambda d: d["junctions"]["F1_rx"].update(inputs=[["F1"]]),
         "junction 'F1_rx': inputs: expected a port name"),
        (lambda d: d["junctions"]["F1_pack"].update(timer=["F1_timer"]),
         "junction 'F1_pack': timer: expected a port name"),
        (lambda d: d["resources"]["CPU1"].update(utilization_limit="x"),
         "resource 'CPU1': utilization_limit: expected a number"),
        (lambda d: d["tasks"]["T1"].update(priority="x"),
         "task 'T1': priority: expected a number"),
        # NaN fails every comparison, so a range check alone lets it
        # through: T1's NaN priority returned T3 r⁺ 72.0 (not 120.0),
        # T3's 40.0, both silently optimistic, and T2's NaN c_min a NaN
        # r⁻.
        (lambda d: d["tasks"]["T1"].update(priority=math.nan),
         "task 'T1': priority: expected a finite number, got nan"),
        (lambda d: d["tasks"]["T3"].update(priority=math.nan),
         "task 'T3': priority: expected a finite number, got nan"),
        (lambda d: d["tasks"]["T2"].update(c_min=math.nan),
         "task 'T2': c_min: expected a finite number, got nan"),
        (lambda d: d["tasks"]["T2"].update(c_max=math.inf),
         "task 'T2': c_max: expected a finite number, got inf"),
        # An infinite blocking term escaped strict mode as an
        # UnboundedStreamError.
        (lambda d: d["tasks"]["T2"].update(blocking=math.inf),
         "task 'T2': blocking: expected a finite number, got inf"),
        (lambda d: d["tasks"]["T1"].update(deadline=math.nan),
         "task 'T1': deadline: expected a finite number, got nan"),
        (lambda d: d["tasks"]["T1"].update(slot=-math.inf),
         "task 'T1': slot: expected a finite number, got -inf"),
        (lambda d: d["sources"]["S1"].update(period=math.nan),
         "source 'S1': period must be a finite number, got nan"),
        (lambda d: d["sources"]["S1"].update(jitter=math.inf),
         "source 'S1': jitter must be a finite number, got inf"),
        (lambda d: d["sources"]["S1"].update(d_min=math.nan),
         "source 'S1': d_min must be a finite number, got nan"),
        # A truthy string loaded as a sporadic stream (δ⁺(2) = ∞); a list
        # loaded, then failed the analysis with an unhashable-type
        # TypeError.
        (lambda d: d["sources"]["S2"].update(sporadic="no"),
         "source 'S2': sporadic must be a bool, got 'no'"),
        (lambda d: d["sources"]["S2"].update(sporadic=[]),
         "source 'S2': sporadic must be a bool, got []"),
    ], ids=["task-without-resource", "bogus-junction-kind", "tasks-as-list",
            "hspp-without-budget", "string-period", "unknown-model-type",
            "list-task-input", "list-junction-input", "list-junction-timer",
            "string-utilization-limit", "string-priority", "nan-priority-T1",
            "nan-priority-T3", "nan-c-min", "inf-c-max", "inf-blocking",
            "nan-deadline", "inf-slot", "nan-period", "inf-jitter",
            "nan-d-min", "string-sporadic", "list-sporadic"])
    def test_malformed_input_names_the_node(self, mutate, message):
        payload = system_to_dict(build_system("hem"))
        mutate(payload)
        with pytest.raises(ModelError) as info:
            system_from_dict(payload)
        assert str(info.value).startswith(message)


class TestDeterminism:
    """Canonical serialisation: the contract behind batch cache keys."""

    #: Fixed wiring; only construction order varies between tests.
    _PERIODS = {"s1": 100.0, "s2": 250.0}
    _TASKS = {"t1": ("cpu", "s1", 1), "t2": ("cpu", "s2", 2),
              "t3": ("bus", "s1", 1)}

    def _system(self, order):
        from repro import SPPScheduler, System
        s = System("det")
        for name in order["sources"]:
            s.add_source(name, periodic(self._PERIODS[name]))
        for name in order["resources"]:
            s.add_resource(name, SPPScheduler())
        for name in order["tasks"]:
            resource, source, priority = self._TASKS[name]
            s.add_task(name, resource, (1.0, 2.0), [source],
                       priority=priority)
        return s

    def test_insertion_order_does_not_matter(self):
        from repro.system import canonical_json, system_hash
        a = self._system({"sources": ["s1", "s2"],
                          "resources": ["cpu", "bus"],
                          "tasks": ["t1", "t2", "t3"]})
        b = self._system({"sources": ["s2", "s1"],
                          "resources": ["bus", "cpu"],
                          "tasks": ["t3", "t1", "t2"]})
        assert system_to_dict(a) == system_to_dict(b)
        assert canonical_json(system_to_dict(a)) == \
            canonical_json(system_to_dict(b))
        assert system_hash(a) == system_hash(b)

    def test_round_trip_is_a_fixed_point(self):
        payload = system_to_dict(build_system("hem"))
        again = system_to_dict(system_from_dict(payload))
        assert again == payload
        assert json.dumps(again, sort_keys=True) == \
            json.dumps(payload, sort_keys=True)

    def test_node_maps_emitted_sorted(self):
        payload = system_to_dict(build_system("hem"))
        for section in ("sources", "resources", "tasks", "junctions"):
            names = list(payload[section])
            assert names == sorted(names), section

    def test_hash_stable_across_processes(self):
        """The digest must not depend on PYTHONHASHSEED (i.e. on which
        process computed it) — that is what makes it a cross-run cache
        key."""
        import os
        import subprocess
        import sys

        snippet = (
            "from repro import SPPScheduler, System, periodic\n"
            "from repro.system import system_hash\n"
            "s = System('x')\n"
            "s.add_source('stim', periodic(100.0))\n"
            "s.add_resource('cpu', SPPScheduler())\n"
            "s.add_task('a', 'cpu', (1.0, 2.0), ['stim'], priority=1)\n"
            "print(system_hash(s))\n"
        )
        digests = set()
        for seed in ("0", "42"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            src_dir = os.path.join(os.path.dirname(__file__), os.pardir,
                                   "src")
            env["PYTHONPATH"] = src_dir + os.pathsep + \
                env.get("PYTHONPATH", "")
            out = subprocess.run([sys.executable, "-c", snippet],
                                 capture_output=True, text=True,
                                 env=env, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1

    def test_hash_differs_on_content_change(self):
        from repro.system import system_hash
        a = self._system({"sources": ["s1"], "resources": ["cpu"],
                          "tasks": ["t1"]})
        b = self._system({"sources": ["s1"], "resources": ["cpu"],
                          "tasks": ["t1"]})
        b.tasks["t1"].c_max = 3.0
        assert system_hash(a) != system_hash(b)
