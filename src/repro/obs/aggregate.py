"""Live sweep aggregation: fold bus events into rolling state.

The :class:`LiveAggregator` is a bus sink
(:meth:`~repro.obs.bus.EventBus.subscribe` it, or pass it to the batch
CLI / ``repro top`` which do so themselves) that folds the streaming
telemetry of a running sweep into one compact aggregate:

* point counts — done / ok / failed / timeout / poisoned / cached /
  executed / retried — maintained exactly as the final
  :class:`~repro.batch.executor.BatchReport` will report them (one
  ``job`` event per unique point, cached or executed);
* cache hit rate, throughput over a sliding completion window, and an
  ETA estimator for the remaining points;
* engine effort of executed points, from the ``JobResult.obs``
  channel (global iterations and span counts; see
  :func:`effort_summary`);
* per-system convergence residual trends from ``iteration`` events
  (serial/in-process runs — pool workers publish in their own
  processes, so their residuals arrive post-hoc via the job summary);
* divergence-guard verdicts and the most recent failures.

Everything is held under one lock and bounded (deques with caps), so
an aggregator attached to a million-point sweep stays O(1) in memory.
:meth:`snapshot` returns the state as one JSON-compatible dict — the
payload a future daemon's HTTP progress stream would serve —
:meth:`render_line` a one-line status string, and :meth:`render` the
multi-line frame ``python -m repro top`` draws.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

#: Completion-window size for the throughput estimate.
THROUGHPUT_WINDOW = 128

#: Residual-trend history kept per system.
RESIDUAL_WINDOW = 32

#: Distinct systems whose residual trends are retained (oldest evicted).
MAX_TRACKED_SYSTEMS = 16

#: Failures and guard verdicts retained for display.
MAX_FAILURES = 20


def effort_summary(obs: Mapping[str, Any]) -> Dict[str, int]:
    """The engine effort a ``JobResult.obs`` delta records, as the
    ``job`` event's ``obs`` summary the aggregator folds."""
    counters = obs.get("metrics", {}).get("counters", {})
    return {
        "iterations": counters.get("propagation.iterations", 0),
        "spans": obs.get("spans", 0),
    }


class LiveAggregator:
    """Fold sweep telemetry events into a rolling aggregate."""

    interests = frozenset(
        {"sweep", "job", "job_retry", "iteration", "guard", "soak"})

    def __init__(self, total: Optional[int] = None,
                 clock=time.perf_counter):
        self._lock = threading.Lock()
        self._clock = clock
        self.total = total
        self.label = ""
        self.workers = 1
        self.backend = ""
        # point counts (BatchReport semantics)
        self.done = 0
        self.ok = 0
        self.failed = 0
        self.timeout = 0
        self.poisoned = 0
        self.cached = 0
        self.executed = 0
        self.retried = 0
        # timing
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.wall: Optional[float] = None
        self.duration_sum = 0.0
        self.duration_max = 0.0
        self._recent: "Deque[float]" = deque(maxlen=THROUGHPUT_WINDOW)
        # engine effort (worker deltas + in-process iteration events)
        self.iterations = 0
        self.worker_spans = 0
        # residual trends per system, insertion-ordered with eviction
        self.residuals: "Dict[str, Deque[Tuple[int, float]]]" = {}
        self.guard_verdicts: "List[Dict[str, Any]]" = []
        self.failures: "List[Tuple[str, str]]" = []
        # soak campaign telemetry
        self.soak_profile = ""
        self.soak_samples = 0
        self.soak_violations = 0
        self.soak_contracts: "List[Dict[str, Any]]" = []

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    def handle(self, event: Dict[str, Any]) -> None:
        kind = event.get("type")
        with self._lock:
            if kind == "job":
                self._fold_job(event)
            elif kind == "iteration":
                self._fold_iteration(event)
            elif kind == "job_retry":
                self.retried += 1
            elif kind == "guard":
                self.guard_verdicts.append({
                    k: event.get(k)
                    for k in ("system", "verdict", "iteration", "detail")})
                del self.guard_verdicts[:-MAX_FAILURES]
            elif kind == "sweep":
                self._fold_sweep(event)
            elif kind == "soak":
                self._fold_soak(event)

    def _fold_soak(self, event: Dict[str, Any]) -> None:
        phase = event.get("phase")
        if phase == "start":
            self.soak_profile = str(event.get("profile", ""))
        elif phase == "sample":
            self.soak_samples += 1
            self.soak_violations += len(event.get("violations") or ())
        elif phase == "violation":
            self.soak_contracts.append({
                k: event.get(k)
                for k in ("contract", "index", "kind", "seed",
                          "bundle")})
            del self.soak_contracts[:-MAX_FAILURES]
        elif phase == "end":
            self.soak_samples = event.get("samples", self.soak_samples)
            self.soak_violations = event.get(
                "violations", self.soak_violations)

    def _fold_sweep(self, event: Dict[str, Any]) -> None:
        if event.get("phase") == "start":
            if event.get("total") is not None:
                self.total = event["total"]
            self.label = event.get("label", self.label)
            self.workers = event.get("workers", self.workers)
            self.backend = event.get("backend", self.backend)
            if self.started_at is None:
                self.started_at = event.get("t", self._clock())
        elif event.get("phase") == "end":
            self.finished_at = event.get("t", self._clock())
            self.wall = event.get("wall")

    def _fold_job(self, event: Dict[str, Any]) -> None:
        now = event.get("t", self._clock())
        if self.started_at is None:
            self.started_at = now
        self.done += 1
        status = event.get("status", "")
        if status == "ok":
            self.ok += 1
        else:
            self.failed += 1
            if status == "timeout":
                self.timeout += 1
            if status == "poisoned":
                self.poisoned += 1
            label = event.get("label") or str(event.get("key", ""))[:12]
            self.failures.append((label, event.get("error", "")))
            del self.failures[:-MAX_FAILURES]
        if event.get("cached"):
            self.cached += 1
        else:
            self.executed += 1
            duration = event.get("duration") or 0.0
            self.duration_sum += duration
            if duration > self.duration_max:
                self.duration_max = duration
            self._recent.append(now)
        summary = event.get("obs")
        if summary:
            self.iterations += summary.get("iterations", 0)
            self.worker_spans += summary.get("spans", 0)

    def _fold_iteration(self, event: Dict[str, Any]) -> None:
        system = str(event.get("system", "?"))
        trend = self.residuals.get(system)
        if trend is None:
            while len(self.residuals) >= MAX_TRACKED_SYSTEMS:
                self.residuals.pop(next(iter(self.residuals)))
            trend = self.residuals[system] = deque(maxlen=RESIDUAL_WINDOW)
        trend.append((event.get("iteration", 0),
                      event.get("residual_r_max", 0.0)))

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def cache_hit_rate(self) -> float:
        return self.cached / self.done if self.done else 0.0

    def elapsed(self) -> float:
        if self.started_at is None:
            return 0.0
        end = self.finished_at if self.finished_at is not None \
            else self._clock()
        return max(0.0, end - self.started_at)

    def throughput(self) -> float:
        """Executed points per second over the completion window."""
        with self._lock:
            recent = list(self._recent)
        if len(recent) >= 2 and recent[-1] > recent[0]:
            return (len(recent) - 1) / (recent[-1] - recent[0])
        elapsed = self.elapsed()
        return self.done / elapsed if elapsed > 0 else 0.0

    def eta_seconds(self) -> Optional[float]:
        """Estimated seconds until the sweep completes, if knowable."""
        if self.total is None or self.finished_at is not None:
            return None
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        rate = self.throughput()
        if rate <= 0:
            return None
        return remaining / rate

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    @staticmethod
    def telemetry_health() -> Dict[str, Any]:
        """Health of the telemetry plane itself: the exceptions the
        process-global bus swallowed, in total and per sink."""
        from .bus import BUS
        return {"sink_errors": BUS.sink_errors,
                "sink_error_counts": BUS.sink_error_counts()}

    def snapshot(self) -> Dict[str, Any]:
        """The whole aggregate as one JSON-compatible dict."""
        with self._lock:
            residuals = {
                system: list(trend)
                for system, trend in self.residuals.items()
            }
            state = {
                "label": self.label,
                "total": self.total,
                "done": self.done,
                "ok": self.ok,
                "failed": self.failed,
                "timeout": self.timeout,
                "poisoned": self.poisoned,
                "cached": self.cached,
                "executed": self.executed,
                "retried": self.retried,
                "cache_hit_rate": self.cache_hit_rate,
                "workers": self.workers,
                "backend": self.backend,
                "duration_sum": self.duration_sum,
                "duration_max": self.duration_max,
                "iterations": self.iterations,
                "worker_spans": self.worker_spans,
                "residuals": residuals,
                "guard_verdicts": list(self.guard_verdicts),
                "failures": list(self.failures),
                "soak": {
                    "profile": self.soak_profile,
                    "samples": self.soak_samples,
                    "violations": self.soak_violations,
                    "recent_violations": list(self.soak_contracts),
                },
                "finished": self.finished_at is not None,
                "wall": self.wall,
            }
        state["elapsed"] = self.elapsed()
        state["throughput"] = self.throughput()
        state["eta_seconds"] = self.eta_seconds()
        state["telemetry"] = self.telemetry_health()
        return state

    def render_line(self, width: int = 78) -> str:
        """One-line progress summary (the batch CLI status line)."""
        total = f"/{self.total}" if self.total is not None else ""
        parts = [f"{self.done}{total} pts"]
        if self.total:
            parts[0] += f" ({100.0 * self.done / self.total:.0f}%)"
        parts.append(f"ok {self.ok}")
        if self.failed:
            parts.append(f"fail {self.failed}")
        if self.cached:
            parts.append(f"cached {self.cached}")
        if self.retried:
            parts.append(f"retry {self.retried}")
        if self.soak_samples:
            parts.append(f"soak {self.soak_samples} smp"
                         f" {self.soak_violations} viol")
        rate = self.throughput()
        if rate > 0:
            parts.append(f"{rate:.1f} pt/s")
        eta = self.eta_seconds()
        if eta is not None and self.done < (self.total or 0):
            parts.append(f"eta {_fmt_seconds(eta)}")
        line = "  ".join(parts)
        return line[:width]

    def render(self, width: int = 78) -> str:
        """Multi-line frame for the live monitor."""
        snap = self.snapshot()
        lines = []
        title = snap["label"] or "sweep"
        state = "done" if snap["finished"] else "running"
        lines.append(f"=== {title} [{state}] "
                     f"{snap['done']}/{snap['total'] or '?'} points ===")
        lines.append(
            f"elapsed {_fmt_seconds(snap['elapsed'])}"
            + (f"  eta {_fmt_seconds(snap['eta_seconds'])}"
               if snap["eta_seconds"] is not None else "")
            + f"  {snap['throughput']:.2f} pt/s"
            + f"  backend {snap['backend'] or '-'}"
              f" x{snap['workers']}")
        failed_bits = ""
        if snap["failed"]:
            detail = []
            if snap["timeout"]:
                detail.append(f"{snap['timeout']} timeout")
            if snap["poisoned"]:
                detail.append(f"{snap['poisoned']} poisoned")
            failed_bits = f" ({', '.join(detail)})" if detail else ""
        lines.append(
            f"ok {snap['ok']}  failed {snap['failed']}{failed_bits}  "
            f"cached {snap['cached']} "
            f"({100.0 * snap['cache_hit_rate']:.0f}% hits)  "
            f"retries {snap['retried']}")
        if snap["executed"]:
            mean = snap["duration_sum"] / snap["executed"]
            lines.append(f"job wall: mean {mean:.3f}s  "
                         f"max {snap['duration_max']:.3f}s  "
                         f"({snap['executed']} executed)")
        if snap["iterations"] or snap["worker_spans"]:
            lines.append(
                f"engine: {snap['iterations']} global iterations  "
                f"worker spans {snap['worker_spans']}")
        for system, trend in list(snap["residuals"].items())[-4:]:
            if not trend:
                continue
            tail = ", ".join(f"{r:.3g}" for _, r in trend[-6:])
            lines.append(f"residuals[{system}]: {tail} "
                         f"(it {trend[-1][0]})")
        soak = snap.get("soak") or {}
        if soak.get("samples"):
            lines.append(
                f"soak[{soak.get('profile') or '-'}]: "
                f"{soak['samples']} samples  "
                f"{soak['violations']} violations")
            for record in soak.get("recent_violations", [])[-3:]:
                lines.append(
                    f"  VIOLATED {record.get('contract')} @ sample "
                    f"{record.get('index')} "
                    f"(seed {record.get('seed')})")
        for verdict in snap["guard_verdicts"][-3:]:
            lines.append(f"guard: {verdict.get('verdict')} on "
                         f"{verdict.get('system')} @ iteration "
                         f"{verdict.get('iteration')}")
        for label, error in snap["failures"][-5:]:
            text = f"FAILED {label}: {error}"
            lines.append(text[:width])
        telemetry = snap["telemetry"]
        if telemetry["sink_errors"]:
            per_sink = ", ".join(
                f"{name}={count}" for name, count in sorted(
                    telemetry["sink_error_counts"].items()))
            lines.append(f"telemetry: {telemetry['sink_errors']} sink "
                         f"errors ({per_sink})")
        return "\n".join(line[:width] for line in lines)


def _fmt_seconds(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"
