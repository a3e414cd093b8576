"""The soak contract registry and oracle.

Covers the registry's shape (unique kebab-case ids, valid severities,
per-contract docs on disk, every id indexed in
``docs/contracts/INVARIANTS_INDEX.md``) and the oracle itself on pinned
sample coordinates — both the graph and the gateway kind must come back
clean on a healthy engine.
"""

import dataclasses
import pathlib
import re

from repro.analysis.results import ResourceResult, SystemResult
from repro.examples_lib.rox08 import build_system
from repro.soak import (SampleSpec, all_contracts, contract_ids,
                        evaluate_sample, evaluate_system, get_contract)
from repro.soak.contracts import (PASS, SEVERITIES, SKIP, VIOLATION)
from repro.soak.oracle import (KIND_GATEWAY, KIND_GRAPH, Evidence,
                               _explain, build_sample_system)
from repro.system.propagation import analyze_system

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestRegistry:
    def test_expected_contracts_registered(self):
        ids = contract_ids()
        assert len(ids) == len(set(ids))
        assert set(ids) == {
            "wcrt-sim-conservative", "envelope-containment",
            "hem-dominates-flat", "fault-monotone-conservative",
            "compiled-lazy-identical", "memo-cold-identical",
            "blame-sums-to-bound", "degrade-certified-sound"}

    def test_ids_are_kebab_case(self):
        for cid in contract_ids():
            assert re.fullmatch(r"[a-z0-9]+(-[a-z0-9]+)*", cid), cid

    def test_severities_valid(self):
        for contract in all_contracts():
            assert contract.severity in SEVERITIES, contract.id

    def test_statements_nonempty(self):
        for contract in all_contracts():
            assert contract.statement.strip()

    def test_get_contract_unknown_raises(self):
        import pytest

        from repro._errors import ModelError
        with pytest.raises(ModelError):
            get_contract("no-such-contract")

    def test_per_contract_docs_exist(self):
        for contract in all_contracts():
            path = REPO / contract.doc
            assert path.is_file(), (
                f"{contract.id}: doc {contract.doc} missing")
            text = path.read_text()
            assert contract.id in text

    def test_every_contract_in_invariants_index(self):
        """The doc-coverage gate: a newly registered contract must be
        added to docs/contracts/INVARIANTS_INDEX.md."""
        index = (REPO / "docs" / "contracts"
                 / "INVARIANTS_INDEX.md").read_text()
        for cid in contract_ids():
            assert f"`{cid}`" in index, (
                f"contract {cid} missing from INVARIANTS_INDEX.md")


class TestOracle:
    def test_graph_sample_all_contracts_clean(self):
        spec = SampleSpec(kind=KIND_GRAPH, seed=7,
                          config={"faults": 2})
        data = evaluate_sample(spec)
        assert data["violations"] == []
        statuses = {o["contract"]: o["status"]
                    for o in data["outcomes"]}
        assert set(statuses) == set(contract_ids())
        assert statuses["wcrt-sim-conservative"] == PASS
        assert statuses["envelope-containment"] == PASS
        assert statuses["fault-monotone-conservative"] == PASS
        # Gateway-only contract does not apply to a graph sample.
        assert statuses["hem-dominates-flat"] == SKIP

    def test_gateway_sample_all_contracts_clean(self):
        spec = SampleSpec(kind=KIND_GATEWAY, seed=3, config={})
        data = evaluate_sample(spec)
        assert data["violations"] == []
        statuses = {o["contract"]: o["status"]
                    for o in data["outcomes"]}
        assert statuses["hem-dominates-flat"] == PASS
        assert statuses["wcrt-sim-conservative"] == SKIP

    def test_evaluate_sample_deterministic(self):
        spec = SampleSpec(kind=KIND_GRAPH, seed=11, config={})
        assert evaluate_sample(spec) == evaluate_sample(spec)

    def test_contract_subset_selection(self):
        spec = SampleSpec(kind=KIND_GRAPH, seed=5, config={})
        data = evaluate_sample(
            spec, contract_ids=["compiled-lazy-identical"])
        assert [o["contract"] for o in data["outcomes"]] \
            == ["compiled-lazy-identical"]

    def test_evaluate_system_matches_sample(self):
        """The shrink predicate agrees with the campaign evaluation on
        the unmodified system."""
        spec = SampleSpec(kind=KIND_GRAPH, seed=9, config={})
        system = build_sample_system(spec)
        outcome = evaluate_system(system, spec,
                                  "wcrt-sim-conservative")
        assert outcome["status"] in (PASS, SKIP)
        assert outcome["status"] != VIOLATION


def _raise_r_max(result: SystemResult, task: str,
                 delta: float) -> SystemResult:
    """A copy of *result* whose r+ for *task* is *delta* higher."""
    resources = {}
    for name, rr in result.resource_results.items():
        tasks = dict(rr.task_results)
        if task in tasks:
            tasks[task] = dataclasses.replace(
                tasks[task], r_max=tasks[task].r_max + delta)
        resources[name] = ResourceResult(rr.resource, rr.utilization,
                                         tasks)
    return SystemResult(result.iterations, result.converged, resources)


class TestBlameContract:
    def test_raised_bound_is_a_violation_naming_the_task(self):
        """The explanation re-derives each bound from the converged
        streams; a result it does not reproduce is reported."""
        system = build_system("hem")
        strict = analyze_system(system)
        contract = get_contract("blame-sums-to-bound")
        for result, status in ((strict, PASS),
                               (_raise_r_max(strict, "T3", 1.0),
                                VIOLATION)):
            ev = Evidence(kind=KIND_GATEWAY, seed=0, system=system,
                          strict=result)
            _explain(system, ev)
            outcome = contract.evaluate(ev)
            assert outcome["status"] == status, outcome
        assert outcome["detail"].startswith("T3: ")
