"""Paths, the benchmark definition files and the statistics the harness
shares between its processes.

Nothing here imports ``repro``: the load-generating parent of the
in-process workloads never loads the program it measures.
"""

from __future__ import annotations

import json
import math
import resource
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".e2e"

WORKLOADS = ("corpus-cold", "dense-local", "sweep-incremental", "serve-mix")
IN_PROCESS = WORKLOADS[:3]

#: Line a child prints once its set-up (imports, inputs, warm-up) is done;
#: the parent stamps the set-up time when it reads it.
READY = "E2E-READY"
#: Prefix of the one line carrying a child's JSON report.
REPORT = "E2E-REPORT "


def load_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def benchmark_definition() -> dict:
    """``BENCHMARK.json`` at the repository root."""
    return load_json(ROOT / "BENCHMARK.json")


def spec() -> dict:
    """``spec.json``: what ``BENCHMARK.json`` has no key for (default seed,
    metrics outside its set, the layer map, expected digests)."""
    return load_json(HERE / "spec.json")


def require_program() -> None:
    """Exit with status 2 when the checkout has no ``src/repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)


def read_line(proc: subprocess.Popen, accept: Callable[[str], bool],
              timeout: float) -> str:
    """The first line of ``proc``'s standard output that ``accept``s; the
    child is killed and :class:`RuntimeError` raised when it exits or the
    timeout passes first."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if ready:
            line = proc.stdout.readline()
            if not line:
                break
            if accept(line):
                return line
        elif proc.poll() is not None:
            break
    if proc.poll() is None:
        proc.kill()
    proc.communicate()
    raise RuntimeError(f"child {proc.args[1]} exited ({proc.returncode}) or "
                       f"timed out before its line")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); ``inf`` entries (failed
    operations) sort last, so a failure counts as missing every limit."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set of the calling process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: One timed operation: the input it ran on and its latency in seconds.
Sample = Tuple[str, float]


def pooled(passes: Sequence[Tuple[List[Sample], float]]
           ) -> Tuple[List[Sample], float]:
    """All samples of a window's passes, and their total seconds."""
    return ([(key, x) for samples, _ in passes for key, x in samples],
            sum(seconds for _, seconds in passes))


def latencies(samples: Sequence[Sample]) -> List[float]:
    return [x for _, x in samples]


def input_percentile(samples: Sequence[Sample], q: float) -> float:
    """The ``q``-th percentile latency of each input, averaged over the
    samples (an input weighs as often as it ran).

    The host alternates between two speeds about 1.6x apart, in phases
    of seconds to minutes, and the share of a run spent in the slow one
    varies from run to run; a low percentile of each input stays at the
    fast speed while a median jumps with that share.  Taken per input, it
    still moves with the cost of every input, not just the cheapest.
    """
    by_input: Dict[str, List[float]] = {}
    for key, x in samples:
        by_input.setdefault(key, []).append(x)
    return sum(len(v) * percentile(v, q)
               for v in by_input.values()) / len(samples)
