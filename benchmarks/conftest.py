"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (or an
ablation around it) and *prints* the reproduced rows — run with

    pytest benchmarks/ --benchmark-only -s

to see them.  Shape assertions (who wins, orderings, conservatism) are
hard assertions: a benchmark run that produces the wrong shape fails.

Each benchmark test additionally runs with :mod:`repro.obs` enabled and
records a machine-readable entry (wall time, global iterations to
convergence, the chain cache's hit rate over the test, and the full
metrics snapshot) into a single ``BENCH_suite.json`` map in the
repository root, keyed by test name — override the directory with the
``BENCH_OUT_DIR`` environment variable.  The file is read-modify-written
per test, so a partial run (``pytest benchmarks/ -k table3``) updates
only the entries it exercised.  The repo benchmark (``benchmarks/e2e``)
writes ``BENCH_e2e.json``.  Chain sharing, the vectorized kernels, the
incremental memo and the batch and serve paths are checked by counts
and bit-identity in the tier-1 tests instead
(``tests/test_compile.py``, ``tests/test_kernels_properties.py``,
``tests/test_incremental.py``, ``tests/test_batch_executor.py``,
``tests/test_serve.py``).
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path

import pytest

from bench_history import envelope, unwrap
from repro import obs
from repro.eventmodels import compile as _compile

BENCH_OUT_DIR = Path(os.environ.get(
    "BENCH_OUT_DIR", Path(__file__).resolve().parent.parent))


def emit(title: str, body: str) -> None:
    """Print a reproduced artefact in a recognisable block."""
    bar = "=" * max(len(title), 24)
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


def _cache_hit_rate(before: dict) -> float:
    """The chain cache's hit rate since its *before* stats (since its
    last clear, when the test cleared it)."""
    after = _compile.cache().stats()
    hits, misses = after["hits"], after["misses"]
    if hits >= before["hits"] and misses >= before["misses"]:
        hits -= before["hits"]
        misses -= before["misses"]
    total = hits + misses
    return hits / total if total else 0.0


def _load_suite(path: Path) -> dict:
    """Current contents of the suite map (tolerates a missing or
    corrupt file — benchmarks must not fail on a bad artefact).
    Unwraps the provenance envelope; legacy flat maps pass through."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    suite, _ = unwrap(data)
    return suite if isinstance(suite, dict) else {}


@pytest.fixture(autouse=True)
def bench_metrics(request):
    """Instrument every benchmark test and record it in the suite map."""
    obs.configure(enabled=True, reset=True)
    chains = _compile.cache().stats()
    t0 = time.perf_counter()
    try:
        yield
    finally:
        wall = time.perf_counter() - t0
        obs.configure(enabled=False)
    snapshot = obs.metrics().snapshot()
    counters = snapshot["counters"]
    payload = {
        "test": request.node.nodeid,
        "wall_seconds": wall,
        "iterations_to_convergence":
            snapshot["gauges"].get("propagation.iterations_to_convergence"),
        "global_iterations": counters.get("propagation.iterations", 0),
        "cache_hit_rate": _cache_hit_rate(chains),
        "sim_events": counters.get("sim.events", 0),
        "metrics": snapshot,
    }
    BENCH_OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = BENCH_OUT_DIR / "BENCH_suite.json"
    suite = _load_suite(out)
    safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", request.node.name)
    suite[safe] = payload
    out.write_text(
        json.dumps(envelope(suite, "suite"), indent=2, sort_keys=True)
        + "\n", encoding="utf-8")
