"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.eventmodels import (
    periodic,
    periodic_with_burst,
    periodic_with_jitter,
    sporadic,
)


@pytest.fixture
def p100():
    """Strictly periodic stream, P = 100."""
    return periodic(100.0, "p100")


@pytest.fixture
def p250():
    return periodic(250.0, "p250")


@pytest.fixture
def pj100_30():
    """Periodic with jitter: P = 100, J = 30."""
    return periodic_with_jitter(100.0, 30.0, "pj")


@pytest.fixture
def burst100():
    """Bursty stream: P = 100, J = 250, d_min = 10 (bursts of ~3)."""
    return periodic_with_burst(100.0, 250.0, 10.0, "burst")


@pytest.fixture
def spor500():
    """Sporadic stream with minimum inter-arrival 500."""
    return sporadic(500.0, name="spor")


@pytest.fixture
def force_batching(monkeypatch):
    """Send every SPP/EDF resource through the numpy kernels, however
    small or lightly loaded; skips when numpy is not installed."""
    pytest.importorskip("numpy")
    from repro.analysis import kernels

    monkeypatch.setattr(kernels, "MIN_BATCH_LANES", 0)
    monkeypatch.setattr(kernels, "MIN_BATCH_LOAD", 0.0)


def assert_delta_consistent(model, n_max: int = 32):
    """Structural invariants every δ pair must satisfy."""
    assert model.delta_min(0) == 0.0
    assert model.delta_min(1) == 0.0
    assert model.delta_plus(0) == 0.0
    assert model.delta_plus(1) == 0.0
    prev_min = 0.0
    prev_plus = 0.0
    for n in range(2, n_max + 1):
        dmin = model.delta_min(n)
        dplus = model.delta_plus(n)
        assert dmin >= prev_min - 1e-9, f"delta_min not monotone at n={n}"
        assert dplus >= prev_plus - 1e-9, f"delta_plus not monotone at n={n}"
        assert dmin <= dplus + 1e-9, f"delta_min > delta_plus at n={n}"
        prev_min, prev_plus = dmin, dplus
