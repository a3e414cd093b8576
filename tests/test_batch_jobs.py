"""Unit tests for the batch job abstraction and built-in job kinds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import SPPScheduler, System, TaskSpec, periodic
from repro._errors import ModelError
from repro.analysis import max_wcet_scaling
from repro.batch import jobs as jobs_module
from repro.batch import (
    Job,
    JobResult,
    job_kinds,
    run_job,
    taskspec_from_dict,
    taskspec_to_dict,
)
from repro.system import system_to_dict


def small_system(name="small", wcet=10.0):
    s = System(name)
    s.add_source("stim", periodic(100.0))
    s.add_resource("cpu", SPPScheduler())
    s.add_task("a", "cpu", (wcet / 2, wcet), ["stim"], priority=1)
    s.add_task("b", "cpu", (5.0, 8.0), ["a"], priority=2)
    return s


class TestJobIdentity:
    def test_key_is_content_hash(self):
        payload = {"system": system_to_dict(small_system())}
        a = Job("analyze", payload)
        b = Job("analyze", json.loads(json.dumps(payload)))
        assert a.key == b.key
        assert len(a.key) == 64

    def test_key_ignores_label_and_timeout(self):
        payload = {"system": system_to_dict(small_system())}
        assert Job("analyze", payload).key == \
            Job("analyze", payload, label="x", timeout=9.0).key

    def test_key_depends_on_kind_and_payload(self):
        payload = {"system": system_to_dict(small_system())}
        other = {"system": system_to_dict(small_system(wcet=12.0))}
        assert Job("analyze", payload).key != Job("simulate", payload).key
        assert Job("analyze", payload).key != Job("analyze", other).key

    def test_key_independent_of_payload_dict_order(self):
        a = Job("analyze", {"system": {"x": 1}, "max_iterations": 9})
        b = Job("analyze", {"max_iterations": 9, "system": {"x": 1}})
        assert a.key == b.key

    def test_key_changes_with_result_version(self, monkeypatch):
        # Stored results are found by key: results of older code must
        # not answer for the current version.
        payload = {"system": system_to_dict(small_system())}
        current = Job("analyze", payload).key
        monkeypatch.setattr(jobs_module, "RESULT_VERSION",
                            jobs_module.RESULT_VERSION + 1)
        assert Job("analyze", payload).key != current

    def test_key_equal_across_processes(self):
        payload = {"system": system_to_dict(small_system())}
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import json, sys\n"
                "from repro.batch import Job\n"
                "print(Job('analyze', json.load(sys.stdin)).key)\n")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="7")
        out = subprocess.run([sys.executable, "-c", code],
                             input=json.dumps(payload), env=env,
                             capture_output=True, text=True, timeout=60,
                             check=True)
        assert out.stdout.strip() == Job("analyze", payload).key

    def test_empty_kind_rejected(self):
        with pytest.raises(ModelError):
            Job("", {})


class TestJobBudget:
    @pytest.mark.parametrize("timeout", [
        "abc", float("nan"), float("inf"), -1, -1.0, 0, 0.0, True, [1.0]])
    def test_bad_budget_rejected_at_construction(self, timeout):
        with pytest.raises(ModelError, match="timeout") as excinfo:
            Job("analyze", {"system": {}}, timeout=timeout)
        assert excinfo.value.context == {"field": "timeout"}

    @pytest.mark.parametrize("timeout", [None, 1e-9, 0.5, 3, 1e6])
    def test_valid_budget_accepted(self, timeout):
        assert Job("analyze", {"system": {}}, timeout=timeout).timeout \
            == timeout

    @pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
    def test_cli_rejects_bad_budget(self, value, tmp_path, capsys):
        from repro.batch.cli import batch_main

        with pytest.raises(SystemExit) as excinfo:
            batch_main(["quickstart", "--timeout", value,
                  "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "timeout" in capsys.readouterr().err


class TestJobResultRoundTrip:
    def test_dict_round_trip(self):
        result = JobResult("k", "analyze", "lbl", "ok",
                           data={"wcrt": {"a": 1.5}}, duration=0.25)
        clone = JobResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert clone == result


class TestBuiltinKinds:
    def test_registry_contains_builtins(self):
        kinds = job_kinds()
        for kind in ("analyze", "wcet_scaling", "task_slack", "simulate"):
            assert kind in kinds

    def test_analyze_matches_direct_engine(self):
        from repro import analyze_system
        system = small_system()
        direct = analyze_system(system)
        result = run_job(Job("analyze",
                             {"system": system_to_dict(system)}))
        assert result.ok
        assert result.data["converged"]
        assert result.data["iterations"] == direct.iterations
        for task in ("a", "b"):
            assert result.data["wcrt"][task] == \
                pytest.approx(direct.wcrt(task))
        assert result.data["worst_wcrt"] == \
            pytest.approx(max(direct.wcrt("a"), direct.wcrt("b")))

    def test_wcet_scaling_matches_direct_search(self):
        tasks = [TaskSpec("hi", 5.0, 5.0, periodic(50.0), priority=1),
                 TaskSpec("lo", 3.0, 3.0, periodic(20.0), priority=2)]
        deadlines = {"hi": 10.0, "lo": 20.0}
        direct = max_wcet_scaling(SPPScheduler(), tasks, deadlines)
        result = run_job(Job("wcet_scaling", {
            "scheduler": {"policy": "spp"},
            "tasks": [taskspec_to_dict(t) for t in tasks],
            "deadlines": deadlines,
        }))
        assert result.ok
        assert result.data["factor"] == pytest.approx(direct, rel=1e-6)

    def test_simulate_reports_sound_bounds(self):
        system = small_system()
        result = run_job(Job("simulate", {
            "system": system_to_dict(system), "horizon": 2000.0}))
        assert result.ok
        assert result.data["sound"]
        for task, observed in result.data["observed"].items():
            assert observed <= result.data["analytic"][task] + 1e-9

    def test_unknown_kind_fails_cleanly(self):
        result = run_job(Job("no_such_kind", {}))
        assert result.status == "failed"
        assert "unknown job kind" in result.error


class TestTaskSpecRoundTrip:
    def test_round_trip(self):
        spec = TaskSpec("t", 2.0, 4.0, periodic(100.0), priority=3,
                        slot=5.0, deadline=80.0, blocking=1.5)
        clone = taskspec_from_dict(
            json.loads(json.dumps(taskspec_to_dict(spec))))
        assert clone.name == spec.name
        assert clone.c_min == spec.c_min
        assert clone.c_max == spec.c_max
        assert clone.priority == spec.priority
        assert clone.slot == spec.slot
        assert clone.deadline == spec.deadline
        assert clone.blocking == spec.blocking
        assert clone.event_model.delta_min(5) == \
            spec.event_model.delta_min(5)
