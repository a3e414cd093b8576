"""``python -m repro batch`` — run a design-space sweep from the shell.

::

    python -m repro batch quickstart --workers 4
    python -m repro batch rox08 --resume
    python -m repro batch synth --sample 4 --seed 7
    python -m repro batch bench --workers 4 --cache-dir /tmp/bench

Targets are the predefined spaces in :mod:`repro.batch.spaces`.  The
result cache lives under ``--cache-dir`` (default
``.repro-batch/<target>``); without ``--resume`` the cache is cleared
first, with it previously completed points are served from the store
and only failed or missing points are re-executed.  Exit status is 0
when every point succeeded, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from .. import obs as _obs
from .._errors import ModelError
from ..obs.aggregate import LiveAggregator
from .executor import BatchRunner, make_backend
from .jobs import check_timeout
from .spaces import NAMED_SPACES
from .store import ResultStore

DEFAULT_CACHE_ROOT = ".repro-batch"

#: Seconds between summary lines on the non-TTY fallback path.
FALLBACK_INTERVAL = 2.0


class ProgressLine:
    """Single rewriting status line driven by a :class:`LiveAggregator`.

    On a TTY the line is redrawn in place (``\\r``) after every
    finished point, so a 4-worker sweep no longer interleaves one
    write per point; elsewhere (CI logs, pipes) it degrades to a
    summary line every couple of seconds.  ``quiet`` suppresses
    everything.
    """

    def __init__(self, aggregator: LiveAggregator, quiet: bool = False,
                 stream=None, interval: float = FALLBACK_INTERVAL,
                 clock=time.monotonic):
        self.aggregator = aggregator
        self.quiet = quiet
        self.stream = stream if stream is not None else sys.stdout
        self.interval = interval
        #: Monotonic clock for the non-TTY rate limiter (injectable so
        #: tests can drive it; never wall-clock — immune to NTP jumps).
        self.clock = clock
        self.is_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._last_emit: Optional[float] = None
        self._last_width = 0
        self._finished = False

    def update(self, _result=None) -> None:
        if self.quiet or self._finished:
            return
        line = self.aggregator.render_line()
        if self.is_tty:
            pad = " " * max(0, self._last_width - len(line))
            self.stream.write(f"\r{line}{pad}")
            self.stream.flush()
            self._last_width = len(line)
            return
        now = self.clock()
        if self._last_emit is None or now - self._last_emit >= self.interval:
            self._last_emit = now
            print(line, file=self.stream, flush=True)

    def finish(self) -> None:
        """Terminate the rewriting line (or emit the final summary).

        Always flushes one final line regardless of the rate limiter —
        the last update is the one that matters — and is idempotent so
        callers can invoke it from a ``finally`` block."""
        if self.quiet or self._finished:
            return
        self._finished = True
        line = self.aggregator.render_line()
        if self.is_tty:
            pad = " " * max(0, self._last_width - len(line))
            self.stream.write(f"\r{line}{pad}\n")
            self.stream.flush()
        else:
            print(line, file=self.stream, flush=True)


def batch_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro batch",
        description="Run a predefined design-space sweep through the "
                    "batch engine.")
    parser.add_argument(
        "target", choices=sorted(NAMED_SPACES),
        help="which predefined design space to sweep")
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker processes (0 = serial, the default)")
    parser.add_argument(
        "--resume", action="store_true",
        help="keep the existing cache: completed points are skipped, "
             "failed/missing points re-run")
    parser.add_argument(
        "--cache-dir", default=None,
        help=f"result cache directory (default: "
             f"{DEFAULT_CACHE_ROOT}/<target>)")
    parser.add_argument(
        "--sample", type=int, default=None, metavar="N",
        help="random-sample N points instead of the full grid")
    parser.add_argument(
        "--seed", type=int, default=0,
        help="sampling seed (with --sample)")
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-time budget")
    parser.add_argument(
        "--incremental", action="store_true",
        help="dirty-set incremental re-analysis: adjacent sweep points "
             "reuse local analyses of resources whose input event "
             "models are unchanged (bit-identical results)")
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-point progress lines")
    parser.add_argument(
        "--profile", action="store_true",
        help="attach the sampling profiler to the sweep and write a "
             "collapsed-stack flamegraph file into the cache dir")
    parser.add_argument(
        "--profile-hz", type=int, default=None, metavar="HZ",
        help="profiler sampling rate (default 100; implies --profile)")
    args = parser.parse_args(argv)
    try:
        check_timeout(args.timeout)
    except ModelError as exc:
        parser.error(str(exc))
    if args.profile_hz is not None:
        args.profile = True

    space = NAMED_SPACES[args.target]()
    if args.timeout is not None:
        space.timeout = args.timeout
    if args.incremental:
        space.incremental = True
    points = (space.sample(args.sample, seed=args.seed)
              if args.sample is not None else list(space.grid()))

    cache_dir = args.cache_dir or f"{DEFAULT_CACHE_ROOT}/{args.target}"
    store = ResultStore(cache_dir)
    if not args.resume:
        store.clear()

    runner = BatchRunner(store=store,
                         backend=make_backend(args.workers))

    aggregator = LiveAggregator(total=len(points))
    aggregator.label = space.name
    line = ProgressLine(aggregator, quiet=args.quiet)

    profiler = None
    if args.profile:
        from ..obs.profile import DEFAULT_HZ, SamplingProfiler

        profiler = SamplingProfiler(hz=args.profile_hz or DEFAULT_HZ)

    _obs.configure(enabled=True, reset=True)
    _obs.get_bus().subscribe(aggregator)
    try:
        if profiler is not None:
            profiler.start()
        sweep = space.run(runner, points=points, progress=line.update)
    finally:
        if profiler is not None:
            profiler.stop()
        line.finish()
        _obs.get_bus().unsubscribe(aggregator)
        _obs.configure(enabled=False)

    print(f"\n=== {space.name}: {len(points)} points, "
          f"{runner.backend.name} backend "
          f"({getattr(runner.backend, 'workers', 1)} worker(s)) ===")
    print(sweep.table())
    print(f"\n{sweep.report.summary()}")
    print(f"cache: {cache_dir}")
    if profiler is not None:
        from pathlib import Path

        collapsed_path = Path(cache_dir) / "profile.collapsed"
        collapsed_path.parent.mkdir(parents=True, exist_ok=True)
        text = profiler.collapsed()
        collapsed_path.write_text(text + ("\n" if text else ""),
                                  encoding="utf-8")
        print(f"\nprofile: {profiler.samples} samples @ "
              f"{profiler.hz} Hz -> {collapsed_path}")
        print(profiler.render_hot_table())
    if args.incremental:
        from ..analysis.memo import memo_pool_stats

        stats = memo_pool_stats().get(f"space:{space.name}")
        if stats and stats["tasks_total"]:
            # Pool backends keep their memos worker-side; this summary
            # covers in-process (serial) execution.
            print(f"incremental: {stats['task_reuses']}/"
                  f"{stats['tasks_total']} task analyses reused "
                  f"(rate {stats['reuse_rate']:.0%}, "
                  f"{stats['resource_hits']} whole-resource hits)")

    snapshot = _obs.metrics().snapshot()
    counters = snapshot["counters"]
    hist = snapshot["histograms"].get("batch.job_seconds")
    if hist and hist["count"]:
        print(f"job latency: mean {hist['mean']:.3f}s, "
              f"p90 {hist['p90']:.3f}s, max {hist['max']:.3f}s "
              f"over {hist['count']} executed")
    timeouts = counters.get("batch.jobs.timeout", 0)
    if timeouts:
        print(f"timeouts: {timeouts}")
    if sweep.report.failed:
        print(f"\nFAILED points ({len(sweep.report.failed)}):",
              file=sys.stderr)
        for key in sweep.report.failed:
            result = sweep.report.results[key]
            print(f"  {result.label or key}: {result.error}",
                  file=sys.stderr)
        return 1
    return 0
