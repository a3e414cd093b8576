"""The statistics the harness reports."""

from __future__ import annotations

import math

import pytest

import common


def test_input_percentile_takes_each_input_on_its_own():
    # Two inputs a hundredfold apart: a pooled 10th percentile would only
    # see the cheap one.
    samples = [("cheap", 1.0 + i) for i in range(10)]
    samples += [("dear", 100.0 + i) for i in range(10)]
    assert common.percentile([x for _, x in samples], 10) == 2.0
    assert common.input_percentile(samples, 10) == pytest.approx(
        (1.0 + 100.0) / 2)


def test_input_percentile_weighs_inputs_by_how_often_they_ran():
    samples = [("hit", 2.0)] * 40 + [("miss", 20.0)] * 10
    assert common.input_percentile(samples, 10) == pytest.approx(
        (40 * 2.0 + 10 * 20.0) / 50)


def test_input_percentile_ignores_a_slow_phase_of_under_nine_tenths():
    fast = [("a", 1.0)] * 5 + [("b", 3.0)] * 5
    slow = [("a", 1.6)] * 4 + [("b", 4.8)] * 4
    assert common.input_percentile(fast + slow, 10) == pytest.approx(2.0)
    assert common.median([x for _, x in fast + slow]) != 2.0


def test_a_failed_operation_sorts_last():
    samples = [("a", math.inf)] + [("a", 1.0)] * 9
    assert common.input_percentile(samples, 10) == 1.0
    assert common.percentile([x for _, x in samples], 100) == math.inf
