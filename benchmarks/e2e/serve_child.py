"""Launcher of the ``serve-mix`` daemon.

Runs exactly what ``python -m repro serve <args>`` runs, in this process,
and prints one :data:`common.REPORT` line when the daemon has drained
(SIGTERM): the process's peak resident set and, with ``--ledger``, the
layer ledger.  Traced and untraced runs both start the daemon through
this launcher, so both have the same process topology.

    python benchmarks/e2e/serve_child.py [--ledger] [--obs-off] -- \\
        --port 0 --workers 2 --cache-dir DIR

``--obs-off`` keeps the daemon's telemetry switched off (the daemon
turns it on at start), which prices that telemetry.
"""

from __future__ import annotations

import argparse
import json
import runpy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ledger", action="store_true")
    parser.add_argument("--obs-off", action="store_true")
    args = parser.parse_args(argv[:split])
    serve_args = argv[split + 1:]

    ledger = None
    if args.ledger:
        from ledger import Ledger

        ledger = Ledger()
        ledger.install()
    if args.obs_off:
        from repro import obs

        configure = obs.configure
        obs.configure = lambda **kw: configure(**dict(kw, enabled=False))

    sys.argv = ["repro", "serve", *serve_args]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    report = {"exit": code, "peak_rss_mb": common.peak_rss_mb()}
    if ledger is not None:
        report["ledger"] = ledger.snapshot()
    print(common.REPORT + json.dumps(report), flush=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
