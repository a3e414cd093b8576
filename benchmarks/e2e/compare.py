"""Compare benchmark results of a parent commit and a change.

    python3 benchmarks/e2e/compare.py --parent p1.json ... \\
        --change c1.json ...

Each file is a result document written by ``run.py --out``; the i-th
parent file and the i-th change file form a pair (run them alternately,
parent first in every other pair).  For every (workload, end-to-end
metric) the table shows both sides' median and quartiles, the change in
the median, the pairs the change won, and a verdict:

* ``gain`` — at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither side), and the medians differ by more than the
  parent's interquartile range;
* ``regression`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` — the run-to-run spread (interquartile range over the
  median, either side) exceeds the bound, so neither "same" nor "worse"
  can be told apart from noise — unless every change run reads better
  (``ok``) or worse (``regression``) than every parent run;
* ``ok`` — none of the above.

Bounds come from ``BENCHMARK.json`` and, for the metrics it has no entry
for, from ``spec.json``.  The exit status is 1 when any row is a
regression.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: Pairs needed before a gain may be claimed, and the share it must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float, absolute: bool = False) -> Dict[str, object]:
    """The comparison of one (workload, metric) over paired runs.

    ``bound`` is a share of the parent median, or an absolute amount when
    ``absolute`` (``error_rate``).  ``better`` is ``"lower"`` or
    ``"higher"``.
    """
    n = min(len(parent), len(change))
    parent, change = list(parent[:n]), list(change[:n])
    sign = 1.0 if better == "higher" else -1.0

    def relative(amount: float, base: float) -> float:
        return amount if absolute else amount / (abs(base) or 1.0)

    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse = relative(-sign * (cm - pm), pm)
    spread = max(relative(p3 - p1, pm), relative(c3 - c1, cm))
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    all_worse = all(sign * (c - p) < 0 for p in parent for c in change)
    if (n >= MIN_PAIRS and wins >= WIN_SHARE * n
            and sign * (cm - pm) > p3 - p1):
        outcome = "gain"
    elif spread > bound and not (all_better or all_worse):
        outcome = "unresolved"
    elif worse > bound:
        outcome = "regression"
    else:
        outcome = "ok"
    return {"n": n, "parent": (p1, pm, p3), "change": (c1, cm, c3),
            "worse": worse, "spread": spread, "wins": wins,
            "verdict": outcome}


def metric_bounds() -> Dict[str, dict]:
    """Every end-to-end metric with its direction and bound."""
    out = {m["name"]: {"better": m["better"], "bound": m["bound"],
                       "absolute": False}
           for m in common.benchmark_definition()["end_to_end"]}
    for name, m in common.spec()["extra_end_to_end"].items():
        if m.get("bound_abs") is not None:
            out[name] = {"better": m["better"], "bound": m["bound_abs"],
                         "absolute": True}
        elif m.get("bound") is not None:
            out[name] = {"better": m["better"], "bound": m["bound"],
                         "absolute": False}
    return out


def load(paths: Sequence[str]) -> List[dict]:
    return [common.load_json(Path(p)) for p in paths]


def series(documents: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    """Untraced metric values per (workload, metric), in file order."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for doc in documents:
        for result in doc["results"]:
            if result["trace"]:
                continue
            for name, entry in result["metrics"].items():
                out.setdefault((result["workload"], name), []).append(
                    entry["value"])
    return out


def alternation(parents: List[dict], changes: List[dict]) -> Optional[str]:
    """A warning when the pairs did not alternate which side ran first."""
    firsts = ["parent" if p["started_at"] < c["started_at"] else "change"
              for p, c in zip(parents, changes)]
    if any(a == b for a, b in zip(firsts, firsts[1:])):
        return ("pairs did not alternate which side ran first: "
                + " ".join(firsts))
    return None


def compare(parents: List[dict], changes: List[dict]) -> List[dict]:
    bounds = metric_bounds()
    p_series, c_series = series(parents), series(changes)
    rows = []
    for key in sorted(set(p_series) & set(c_series)):
        workload, metric = key
        if metric not in bounds:
            continue
        spec = bounds[metric]
        row = verdict(p_series[key], c_series[key], spec["better"],
                      spec["bound"], spec["absolute"])
        row.update(workload=workload, metric=metric, bound=spec["bound"],
                   absolute=spec["absolute"])
        rows.append(row)
    return rows


def render(rows: List[dict]) -> str:
    head = (f"{'workload':18} {'metric':12} {'n':>3} "
            f"{'parent q1/med/q3':>28} {'change q1/med/q3':>28} "
            f"{'worse':>8} {'bound':>6} {'wins':>5}  verdict")
    lines = [head, "-" * len(head)]
    for r in rows:
        fmt = "/".join(f"{v:.4g}" for v in r["parent"])
        cfmt = "/".join(f"{v:.4g}" for v in r["change"])
        worse = (f"{r['worse']:+.4g}" if r["absolute"]
                 else f"{r['worse'] * 100:+.1f}%")
        bound = (f"{r['bound']:g}" if r["absolute"]
                 else f"{r['bound'] * 100:.0f}%")
        lines.append(f"{r['workload']:18} {r['metric']:12} {r['n']:>3} "
                     f"{fmt:>28} {cfmt:>28} {worse:>8} {bound:>6} "
                     f"{r['wins']:>2}/{r['n']:<2}  {r['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("--parent and --change need the same number of files")
    parents, changes = load(args.parent), load(args.change)
    warning = alternation(parents, changes)
    if warning:
        print(f"warning: {warning}")
    rows = compare(parents, changes)
    print(render(rows))
    if len(args.parent) < MIN_PAIRS:
        print(f"note: {len(args.parent)} pairs; a gain needs "
              f"{MIN_PAIRS}")
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
