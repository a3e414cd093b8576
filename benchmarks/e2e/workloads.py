"""Seeded inputs, operations and correctness checks of the in-process
workloads (``corpus-cold``, ``dense-local``, ``sweep-incremental``).

Every workload has a fixed structural population; the seed draws a time
unit (a factor in [0.8, 1.25] that scales every period, jitter, distance,
execution time, deadline and slot) and the order of operations.  The
analysis is invariant under a change of time unit, so every seed gives
the program numerically different inputs (no result or curve can be
reused across seeds) with the same amount of work — which is what lets
runs with different seeds be compared.  Seed 0 is the identity scale.

The checks run outside the timed windows:

* an unscaled reference pass must hash to the digest in ``spec.json``;
* every timed result, divided by the time unit, must equal the reference
  result to within ``REL_TOL`` (same verdict, same iteration count);
* repeated analyses of one input within a run must be bit-identical.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import math
import random
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro._errors import ConvergenceError, NotSchedulableError
from repro.analysis.spp import SPPScheduler
from repro.batch import (
    BatchRunner,
    DesignSpace,
    Job,
    ResultStore,
    SerialBackend,
    period_axis,
    run_job,
    wcet_axis,
)
from repro.eventmodels import compile as _compile
from repro.eventmodels.standard import StandardEventModel
from repro.examples_lib import rox08
from repro.examples_lib.synth import GraphSpace, synth_system, synth_task_graph
from repro.system import propagation
from repro.system.model import System
from repro.system.serialize import system_from_dict, system_to_dict

import ledger as _ledger

#: Analysis verdicts: results of an analysis, not failures of the program.
VERDICTS = (NotSchedulableError, ConvergenceError)

#: Relative tolerance of the scaled-versus-reference comparison.  The
#: observed error of a change of time unit is ~1e-15.
REL_TOL = 1e-9

Outcome = tuple
#: Receives one timed operation: its input and its latency in seconds.
Record = Callable[[str, float], None]


# ----------------------------------------------------------------------
# seeded time units
# ----------------------------------------------------------------------
def scale_factor(workload: str, seed: int, salt: int = 0) -> float:
    if seed == 0 and salt == 0:
        return 1.0
    rng = random.Random(f"e2e:{workload}:{seed}:{salt}")
    return rng.uniform(0.8, 1.25)


def scale_dict(system_dict: dict, factor: float) -> dict:
    """A copy of a serialised system with every time value scaled."""
    out = copy.deepcopy(system_dict)
    for name, model in out["sources"].items():
        if model.get("type") != "standard":
            raise ValueError(f"source {name}: cannot scale a "
                             f"{model.get('type')!r} model")
        for key in ("period", "jitter", "d_min"):
            model[key] *= factor
    for name, sched in out["resources"].items():
        if set(sched) - {"policy", "utilization_limit"}:
            raise ValueError(f"resource {name}: cannot scale {sched}")
    for task in out["tasks"].values():
        for key in ("c_min", "c_max", "blocking"):
            task[key] *= factor
        for key in ("deadline", "slot"):
            if task.get(key) is not None:
                task[key] *= factor
    return out


# ----------------------------------------------------------------------
# outcomes, digests, comparisons
# ----------------------------------------------------------------------
def analysis_outcome(result) -> Outcome:
    tasks = sorted((name, tr.r_min, tr.r_max)
                   for rr in result.resource_results.values()
                   for name, tr in rr.task_results.items())
    return ("ok", result.iterations, tuple(tasks))


def job_outcome(result) -> Outcome:
    if not result.ok:
        return (result.status, result.error)
    data = result.data
    return ("ok", data["iterations"], data["converged"],
            tuple(sorted(data["wcrt"].items())))


def digest(outcomes: List[Tuple[str, Outcome]]) -> str:
    text = json.dumps(outcomes, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _close(ref: float, got: float, factor: float) -> bool:
    if math.isinf(ref) or math.isinf(got):
        return ref == got
    return abs(got / factor - ref) <= REL_TOL * max(abs(ref), 1e-12)


def same_up_to_scale(ref: Outcome, got: Outcome, factor: float) -> bool:
    """Do two outcomes agree once ``got`` is divided by its time unit?
    Non-numeric fields must match exactly."""
    if len(ref) != len(got):
        return False
    for a, b in zip(ref, got):
        if isinstance(a, tuple) and isinstance(b, tuple):
            if not same_up_to_scale(a, b, factor):
                return False
        elif isinstance(a, float) and isinstance(b, float):
            if not _close(a, b, factor):
                return False
        elif a != b:
            return False
    return True


def counters() -> Dict[str, float]:
    """Program counters the per-layer metrics are derived from, each read
    behind a guard (a counter whose API is gone is left out)."""
    out: Dict[str, float] = {}
    stats = _ledger.optional(lambda: _compile.cache().stats())
    if stats is not None:
        out["compile.hits"] = stats["hits"]
        out["compile.misses"] = stats["misses"]

    def kernel_stats():
        from repro.analysis import kernels
        return kernels.stats()

    stats = _ledger.optional(kernel_stats)
    if stats is not None:
        out["kernels.batches"] = stats["batches"]
        out["kernels.lanes"] = stats["lanes"]

    def memo_stats():
        from repro.analysis.memo import memo_pool_stats
        return memo_pool_stats()

    pools = _ledger.optional(memo_stats)
    if pools is not None:
        for key in ("analyses", "resource_hits", "task_reuses",
                    "tasks_total"):
            out[f"memo.{key}"] = sum(p[key] for p in pools.values())
    return out


# ----------------------------------------------------------------------
# analyses of prebuilt systems
# ----------------------------------------------------------------------
class _SystemsWorkload:
    """One operation = ``analyze_system`` of one prebuilt system."""

    name = ""
    #: Clear the process-global curve cache before every operation.
    clears_curve_cache = False

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.factor = scale_factor(self.name, seed)
        self.base = [(name, system_to_dict(build()))
                     for name, build in self.population()]
        self.systems = [(name, system_from_dict(scale_dict(d, self.factor)))
                        for name, d in self.base]
        #: Operations per pass over the population (windows end on a
        #: pass boundary, so every input is measured equally often).
        self.pass_size = len(self.systems)
        rng = random.Random(f"e2e:{self.name}:{seed}:order")
        self._order = self._orders(rng)
        self.first: Dict[str, Outcome] = {}
        self.unstable: List[str] = []
        self.failures = 0

    def population(self) -> List[Tuple[str, Callable[[], System]]]:
        raise NotImplementedError

    def _orders(self, rng: random.Random):
        while True:
            order = list(self.systems)
            rng.shuffle(order)
            yield from order

    def _analyze(self, system: System) -> Outcome:
        if self.clears_curve_cache:
            _compile.cache().clear()
        try:
            # Through the module, so an installed ledger sees the call.
            return analysis_outcome(propagation.analyze_system(system))
        except VERDICTS as exc:
            return (type(exc).__name__,)

    def warm_up(self) -> None:
        for _name, system in self.systems:
            self._analyze(system)

    def run_unit(self, record: Record, root=nullcontext) -> None:
        name, system = next(self._order)
        t0 = time.perf_counter()
        try:
            with root():
                outcome = self._analyze(system)
        except Exception:
            record(name, math.inf)
            self._fail(name)
            return
        record(name, time.perf_counter() - t0)
        first = self.first.setdefault(name, outcome)
        if outcome != first and name not in self.unstable:
            self.unstable.append(name)

    def _fail(self, name: str) -> None:
        if not self.failures:
            print(f"e2e: {self.name}: analysis of {name} failed:",
                  file=sys.stderr)
            traceback.print_exc()
        self.failures += 1

    def reference(self) -> List[Tuple[str, Outcome]]:
        return [(name, self._analyze(system_from_dict(d)))
                for name, d in self.base]

    def check(self, expected: Optional[str]) -> List[str]:
        problems = [f"{name}: repeated analyses differ"
                    for name in self.unstable]
        ref = self.reference()
        got = digest(ref)
        if expected is not None and got != expected:
            problems.append(f"reference digest {got} != expected "
                            f"{expected}")
        for name, outcome in ref:
            timed = self.first.get(name)
            if timed is not None and not same_up_to_scale(
                    outcome, timed, self.factor):
                problems.append(f"{name}: result at time unit "
                                f"{self.factor:.6g} differs from the "
                                f"reference")
        problems.extend(self.shape_problems(dict(ref)))
        self.digest = got
        return problems

    def shape_problems(self, ref: Dict[str, Outcome]) -> List[str]:
        return []


class CorpusCold(_SystemsWorkload):
    """The corpus, each analysis after ``compile.cache().clear()``."""

    name = "corpus-cold"
    clears_curve_cache = True

    def population(self):
        return [
            ("rox08-flat", lambda: rox08.build_system("flat")),
            ("rox08-hem", lambda: rox08.build_system("hem")),
            ("synth-16x2", lambda: synth_system(16, 2, base_period=800.0)),
            ("synth-24x3", lambda: synth_system(24, 3, base_period=1400.0)),
            ("synth-32x4", lambda: synth_system(32, 4, base_period=2000.0)),
        ]

    def shape_problems(self, ref):
        """Table 3: HEM never loses to flat on any RoX08 CPU task."""
        flat = dict((t, r_max) for t, _lo, r_max in ref["rox08-flat"][2])
        hem = dict((t, r_max) for t, _lo, r_max in ref["rox08-hem"][2])
        return [f"rox08 {task}: HEM r_max {hem[task]} > flat {flat[task]}"
                for task in ("T1", "T2", "T3") if hem[task] > flat[task]]


#: High-utilisation random task graphs: busy windows span many
#: activations, so local analysis (and the batched kernels) dominate.
DENSE_SPACE = GraphSpace(max_resources=3, max_sources=8, max_chain=3,
                         policies=("spp", "spnp", "edf"),
                         util_lo=0.5, util_hi=0.8)
DENSE_SYSTEMS = 40


class DenseLocal(_SystemsWorkload):
    """40 high-utilisation task graphs, curve cache warm."""

    name = "dense-local"

    def population(self):
        return [(f"graph-{i}",
                 lambda i=i: synth_task_graph(i, DENSE_SPACE))
                for i in range(DENSE_SYSTEMS)]


# ----------------------------------------------------------------------
# incremental design-space sweep through the batch engine
# ----------------------------------------------------------------------
SWEEP_WCET = (1.0, 1.03, 1.06, 1.09, 1.12, 1.15, 1.18, 1.21)
SWEEP_PERIOD = (1.0, 1.05, 1.1, 1.15)
SWEEP_BIG = 40


def build_sweep_system() -> System:
    """A 40-task SPP resource at 95% utilisation (long busy windows)
    feeding a 3-task leaf resource: the sweep edits only the leaf WCETs
    and the periods of the three lowest-priority sources, so most local
    analyses are reusable from one point to the next."""
    system = System("e2e-sweep")
    share = 0.95 / SWEEP_BIG
    periods = [100.0 * (i + 3) + 7.0 * (i % 5) for i in range(SWEEP_BIG)]
    for i, period in enumerate(periods):
        system.add_source(f"S{i}", StandardEventModel(
            period=period, jitter=period * 0.5, d_min=1.0 + 0.1 * i))
    system.add_resource("BIG", SPPScheduler())
    for i, period in enumerate(periods):
        cmax = share * period
        system.add_task(f"B{i}", "BIG", (cmax * 0.6, cmax), [f"S{i}"],
                        priority=i + 1)
    system.add_resource("LEAF", SPPScheduler())
    for i in range(3):
        system.add_task(f"L{i}", "LEAF", (20.0, 40.0), [f"B{i}"],
                        priority=i + 1)
    return system


class SweepIncremental:
    """One operation = one design point of an 8x4 incremental sweep run
    by ``BatchRunner(SerialBackend)`` into a fresh ``ResultStore``.

    Every pass starts with an empty curve cache and store and scales the
    base by its own time unit, so no pass reuses another's results.  All
    passes share one space name: the named-memo pool keeps a memo per
    name for the life of the process, and a name per pass would make
    memory grow with the number of passes run.
    """

    name = "sweep-incremental"
    clears_curve_cache = True
    pass_size = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.base = system_to_dict(build_sweep_system())
        self.space_name = f"e2e-sweep-{seed}"
        self.passes = 0
        self.reference: List[Outcome] = []
        self.first_pass = None
        self.mismatched: List[int] = []
        self.failures = 0

    def _run_pass(self, factor: float, record: Optional[Record] = None,
                  root=nullcontext):
        """One pass; ``record`` receives the time between successive
        progress callbacks, starting when the runner starts, keyed by the
        point's place in the pass."""
        space = DesignSpace(
            self.space_name,
            [wcet_axis(SWEEP_WCET, tasks=("L0", "L1", "L2")),
             period_axis(SWEEP_PERIOD, sources=("S37", "S38", "S39"))],
            base=scale_dict(self.base, factor), incremental=True)
        store_dir = self.work / f"sweep-pass-{self.passes}"
        self.passes += 1
        _compile.cache().clear()
        runner = BatchRunner(store=ResultStore(store_dir),
                             backend=SerialBackend())
        last = [time.perf_counter()]
        points = itertools.count()

        def progress(result) -> None:
            now = time.perf_counter()
            key = f"point-{next(points)}"
            if result.ok:
                record(key, now - last[0])
            else:
                record(key, math.inf)
                self.failures += 1
            last[0] = now

        try:
            with root():
                return space.run(runner, progress=progress if record
                                 else None)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    def _outcomes(self, sweep) -> List[Outcome]:
        return [job_outcome(sweep.report.result_for(job))
                for job in sweep.jobs]

    def warm_up(self) -> None:
        """The unscaled pass; its outcomes are the reference."""
        self.reference = self._outcomes(self._run_pass(1.0))

    def run_unit(self, record: Record, root=nullcontext) -> None:
        factor = scale_factor(self.name, self.seed, salt=self.passes)
        sweep = self._run_pass(factor, record, root)
        outcomes = self._outcomes(sweep)
        if self.first_pass is None:
            self.first_pass = sweep
        if not all(same_up_to_scale(ref, got, factor)
                   for ref, got in zip(self.reference, outcomes)):
            self.mismatched.append(self.passes - 1)

    def check(self, expected: Optional[str]) -> List[str]:
        problems = []
        self.digest = digest([[str(i), o]
                              for i, o in enumerate(self.reference)])
        if expected is not None and self.digest != expected:
            problems.append(f"reference digest {self.digest} != expected "
                            f"{expected}")
        problems += [f"pass {k}: results differ from the reference"
                     for k in self.mismatched]
        if self.first_pass is not None:
            problems += self._memo_cold_problems(self.first_pass)
        return problems

    def _memo_cold_problems(self, sweep) -> List[str]:
        """The first timed pass equals a memo-less run of its points."""
        problems = []
        for job in sweep.jobs:
            got = sweep.report.result_for(job)
            ref = run_job(Job(job.kind, job.payload))
            data = {k: v for k, v in got.data.items() if k != "incremental"}
            if ref.status != got.status or ref.data != data:
                problems.append(f"point {job.label}: incremental result "
                                f"differs from the memo-less run")
        return problems


IN_PROCESS = {cls.name: cls for cls in (CorpusCold, DenseLocal,
                                        SweepIncremental)}


def rox08_dict() -> dict:
    return system_to_dict(rox08.build_system("hem"))


def distinct_factors(seed: int, salt: str, n: int) -> List[float]:
    """``n`` distinct time units in [0.8, 1.25] (one per serve miss)."""
    rng = random.Random(f"e2e:serve-mix:{seed}:{salt}")
    out: Dict[float, None] = {}
    while len(out) < n:
        out[rng.uniform(0.8, 1.25)] = None
    return list(out)
