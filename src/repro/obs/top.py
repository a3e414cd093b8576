"""``python -m repro top`` — live monitor for running sweeps.

Two modes::

    python -m repro top quickstart --workers 2        # run + watch
    python -m repro top quickstart --follow           # tail a sweep
                                                      # started elsewhere

In *run* mode the named design space (see :mod:`repro.batch.spaces`)
is swept through the ordinary batch engine while a
:class:`~repro.obs.aggregate.LiveAggregator` subscribed to the
telemetry bus folds job completions, worker obs deltas, convergence
residuals, and guard verdicts into an aggregate frame that is redrawn
every ``--interval`` seconds — ANSI full-screen on a TTY, plain
appended frames elsewhere.  Analysis results are byte-identical to an
unmonitored run: the monitor only *observes* the bus.

In *follow* mode nothing is executed here: the monitor tails the
``results.jsonl`` of the sweep's
:class:`~repro.batch.store.ResultStore` (append-only, flushed per
result) and folds each appended record into the same aggregate, so
you can watch a sweep owned by another process — or reconstruct the
final aggregate after it finished.  ``--once`` renders a single frame
and exits (useful for scripts and CI).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from .aggregate import LiveAggregator, effort_summary

#: Seconds between frames by default.
DEFAULT_INTERVAL = 0.5

ANSI_CLEAR = "\x1b[2J\x1b[H"


def fold_store_record(aggregator: LiveAggregator,
                      record: Dict[str, Any]) -> None:
    """Fold one ``results.jsonl`` line into *aggregator* as a ``job``
    event (follow mode sees only final records, so every line counts
    as an executed point)."""
    aggregator.handle({
        "type": "job",
        "key": record.get("key", ""),
        "kind": record.get("kind", ""),
        "label": record.get("label", ""),
        "status": record.get("status", "failed"),
        "cached": False,
        "duration": record.get("duration", 0.0),
        "attempts": record.get("attempts", 1),
        "error": record.get("error", ""),
        "obs": effort_summary(record.get("obs", {})),
    })


class StoreTail:
    """Incremental reader of an append-only ``results.jsonl``.

    Tolerates the file not existing yet (sweep still warming up) and a
    torn final line (record mid-append): both simply yield nothing
    until more bytes arrive.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._offset = 0

    def poll(self, aggregator: LiveAggregator) -> int:
        """Fold every newly appended complete record; returns count."""
        try:
            size = self.path.stat().st_size
        except OSError:
            return 0
        if size <= self._offset:
            return 0
        folded = 0
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            for raw in fh:
                if not raw.endswith(b"\n"):
                    break  # torn line: retry on the next poll
                self._offset += len(raw)
                try:
                    record = json.loads(raw.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    continue
                if isinstance(record, dict) and "key" in record:
                    fold_store_record(aggregator, record)
                    folded += 1
        return folded


class FrameRenderer:
    """Draw aggregator frames: ANSI redraw on a TTY, appended frames
    elsewhere."""

    def __init__(self, stream=None, ansi: Optional[bool] = None):
        self.stream = stream if stream is not None else sys.stdout
        if ansi is None:
            ansi = bool(getattr(self.stream, "isatty",
                                lambda: False)())
        self.ansi = ansi
        self.frames = 0

    def draw(self, aggregator: LiveAggregator) -> None:
        frame = aggregator.render()
        if self.ansi:
            self.stream.write(f"{ANSI_CLEAR}{frame}\n")
        else:
            if self.frames:
                self.stream.write("\n")
            self.stream.write(f"{frame}\n")
        self.stream.flush()
        self.frames += 1


def _run_mode(args, space, points) -> int:
    from .. import obs as _obs
    from ..batch.cli import DEFAULT_CACHE_ROOT
    from ..batch.executor import BatchRunner, make_backend
    from ..batch.store import ResultStore

    cache_dir = args.cache_dir or f"{DEFAULT_CACHE_ROOT}/{args.target}"
    store = ResultStore(cache_dir)
    if not args.resume:
        store.clear()
    runner = BatchRunner(store=store,
                         backend=make_backend(args.workers))

    aggregator = LiveAggregator(total=len(points))
    aggregator.label = space.name
    renderer = FrameRenderer(ansi=False if args.once else None)

    outcome: "Dict[str, Any]" = {}

    def sweep() -> None:
        try:
            outcome["sweep"] = space.run(runner, points=points)
        except BaseException as exc:  # surfaced after the join
            outcome["error"] = exc

    _obs.configure(enabled=True, reset=True)
    _obs.get_bus().subscribe(aggregator)
    worker = threading.Thread(target=sweep, name="repro-top-sweep",
                              daemon=True)
    try:
        worker.start()
        while worker.is_alive():
            worker.join(timeout=args.interval)
            if not args.once:
                renderer.draw(aggregator)
    except KeyboardInterrupt:
        pass
    finally:
        worker.join(timeout=5.0)
        _obs.get_bus().unsubscribe(aggregator)
        _obs.configure(enabled=False)
    renderer.draw(aggregator)  # final (or only) frame
    if "error" in outcome:
        raise outcome["error"]
    sweep_result = outcome.get("sweep")
    if sweep_result is None:
        return 130  # interrupted before the sweep finished
    return 0 if not sweep_result.report.failed else 1


def _follow_mode(args, total: Optional[int]) -> int:
    from ..batch.cli import DEFAULT_CACHE_ROOT
    from ..batch.store import RESULTS_NAME

    cache_dir = Path(args.cache_dir
                     or f"{DEFAULT_CACHE_ROOT}/{args.target}")
    tail = StoreTail(cache_dir / RESULTS_NAME)
    aggregator = LiveAggregator(total=total)
    aggregator.label = f"{args.target} (follow)"
    renderer = FrameRenderer(ansi=False if args.once else None)
    try:
        while True:
            tail.poll(aggregator)
            renderer.draw(aggregator)
            if args.once:
                return 0
            if total is not None and aggregator.done >= total:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        renderer.draw(aggregator)
        return 0


def top_main(argv: Optional[Sequence[str]] = None) -> int:
    from ..batch.spaces import NAMED_SPACES

    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description="Live monitor for design-space sweeps: run one "
                    "and watch it, or tail a running sweep's result "
                    "store.")
    parser.add_argument(
        "target",
        help="a predefined design space "
             f"({', '.join(sorted(NAMED_SPACES))}) to run or follow, "
             "or — with --follow — any cache directory name under "
             ".repro-batch/ (e.g. a soak campaign's --cache-dir)")
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker processes for run mode (0 = serial)")
    parser.add_argument(
        "--follow", action="store_true",
        help="do not execute anything; tail the sweep's result store")
    parser.add_argument(
        "--resume", action="store_true",
        help="run mode: keep the existing cache")
    parser.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: .repro-batch/<target>)")
    parser.add_argument(
        "--sample", type=int, default=None, metavar="N",
        help="random-sample N points instead of the full grid")
    parser.add_argument(
        "--seed", type=int, default=0,
        help="sampling seed (with --sample)")
    parser.add_argument(
        "--interval", type=float, default=DEFAULT_INTERVAL,
        metavar="SECONDS", help="seconds between frames")
    parser.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (scripts / CI)")
    args = parser.parse_args(argv)

    if args.target not in NAMED_SPACES:
        # Not a predefined space: treat the target as a result-store
        # location (soak campaigns, ad-hoc sweeps) — follow-only, with
        # an unknown total.  Absolute/relative paths are taken as the
        # cache dir itself when --cache-dir is not given.
        if not args.follow:
            parser.error(
                f"unknown design space {args.target!r}; run mode "
                f"needs one of: {', '.join(sorted(NAMED_SPACES))} "
                f"(use --follow to tail a result store)")
        if args.cache_dir is None and ("/" in args.target
                                       or Path(args.target).exists()):
            args.cache_dir = args.target
        return _follow_mode(args, total=None)

    space = NAMED_SPACES[args.target]()
    points = (space.sample(args.sample, seed=args.seed)
              if args.sample is not None else list(space.grid()))
    if args.follow:
        return _follow_mode(args, total=len(points))
    return _run_mode(args, space, points)
