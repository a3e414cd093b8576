"""Verdict logic of compare.py on synthetic runs."""

from __future__ import annotations

import pytest

import compare
from compare import verdict

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def shifted(values, delta):
    return [v + delta for v in values]


def test_clear_gain_on_ten_pairs():
    row = verdict(PARENT, shifted(PARENT, -5.0), "lower", 0.1)
    assert row["verdict"] == "gain"
    assert row["wins"] == 10


def test_gain_needs_ten_pairs():
    row = verdict(PARENT[:9], shifted(PARENT[:9], -5.0), "lower", 0.1)
    assert row["verdict"] == "ok"


def test_gain_needs_nine_wins_in_ten():
    change = shifted(PARENT, -5.0)
    change[0] = change[1] = 200.0
    assert verdict(PARENT, change, "lower", 0.1)["verdict"] != "gain"


def test_gain_needs_a_gap_wider_than_the_parent_spread():
    # Wins every pair, but by less than the parent's interquartile range.
    row = verdict(PARENT, shifted(PARENT, -0.01), "lower", 0.1)
    assert row["wins"] == 10
    assert row["verdict"] == "ok"


def test_direction_higher_is_better():
    assert verdict(PARENT, shifted(PARENT, 5.0), "higher",
                   0.1)["verdict"] == "gain"
    assert verdict(PARENT, shifted(PARENT, -20.0), "higher",
                   0.1)["verdict"] == "regression"


def test_regression_beyond_the_bound():
    row = verdict(PARENT, shifted(PARENT, 15.0), "lower", 0.1)
    assert row["verdict"] == "regression"
    assert row["worse"] == pytest.approx(0.15, abs=0.01)


def test_within_the_bound_is_ok():
    assert verdict(PARENT, shifted(PARENT, 5.0), "lower",
                   0.1)["verdict"] == "ok"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [100.0, 130.0, 70.0, 120.0, 80.0, 110.0, 90.0, 125.0, 75.0, 100.0]
    row = verdict(noisy, shifted(noisy, 2.0), "lower", 0.1)
    assert row["spread"] > 0.1
    assert row["verdict"] == "unresolved"


def test_wide_spread_but_every_change_run_better_is_not_unresolved():
    parent = [100.0, 140.0, 120.0, 110.0, 130.0]
    change = [10.0, 14.0, 12.0, 11.0, 13.0]
    assert verdict(parent, change, "lower", 0.1)["verdict"] == "ok"


def test_wide_spread_but_every_change_run_worse_is_a_regression():
    parent = [10.0, 14.0, 12.0, 11.0, 13.0]
    change = [100.0, 140.0, 120.0, 110.0, 130.0]
    assert verdict(parent, change, "lower", 0.1)["verdict"] == "regression"


def test_absolute_bound_of_error_rate():
    zeros = [0.0] * 10
    assert verdict(zeros, zeros, "lower", 0.0, absolute=True)[
        "verdict"] == "ok"
    failing = [0.0] * 4 + [0.01] * 6
    assert verdict(zeros, failing, "lower", 0.0, absolute=True)[
        "verdict"] == "unresolved"
    assert verdict(zeros, [0.01] * 10, "lower", 0.0, absolute=True)[
        "verdict"] == "regression"


def test_compare_builds_one_row_per_workload_and_metric():
    def doc(started, value):
        metrics = {"p50_ms": {"value": value, "unit": "ms"},
                   "latency_samples": {"value": 100, "unit": "count"}}
        return {"started_at": started, "results": [
            {"workload": w, "trace": False, "metrics": metrics}
            for w in ("corpus-cold", "serve-mix")] + [
            {"workload": "corpus-cold", "trace": True, "metrics": {}}]}

    parents = [doc(2 * i + (i % 2), 10.0) for i in range(3)]
    changes = [doc(2 * i + 1 - (i % 2), 10.5) for i in range(3)]
    rows = compare.compare(parents, changes)
    assert [(r["workload"], r["metric"]) for r in rows] == [
        ("corpus-cold", "p50_ms"), ("serve-mix", "p50_ms")]
    assert all(r["verdict"] == "ok" for r in rows)
    assert compare.alternation(parents, changes) is None
    assert compare.alternation(parents, parents) is not None
