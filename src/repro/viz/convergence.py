"""Convergence diagnostics renderer for the global fixed-point loop.

Consumes the ``global_iteration`` span records emitted by
:func:`repro.system.propagation.analyze_system` when observability is
enabled (see :mod:`repro.obs`) and renders them as an ASCII table of
per-iteration residuals — which response time is still moving, how far,
and which propagated output models have not settled yet::

    import repro

    records = []
    bus = repro.obs.get_bus()
    collect = bus.subscribe(records.append, interests={"span"})
    repro.configure(enabled=True)
    repro.analyze_system(system)
    bus.unsubscribe(collect)
    print(ConvergenceReport.from_records(records).render())
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..obs import engine_stats
from .tables import render_table

#: Span name the propagation loop uses for one global iteration.
ITERATION_SPAN = "global_iteration"

#: Resilience and batch counters surfaced in the report footer when any
#: of them fired (see :mod:`repro.resilience` and :mod:`repro.batch`).
RESILIENCE_COUNTERS = (
    "resilience.quarantines",
    "resilience.widenings",
    "propagation.divergence_detected",
    "batch.retries",
    "batch.poisoned",
)


class ConvergenceReport:
    """Per-iteration convergence history of one (or more) analysis runs.

    Built from ``"span"`` records (:meth:`from_records`): the bus
    events a sink collected, or an exported JSONL trace read back.
    """

    def __init__(self, rows: List[Dict[str, Any]],
                 counters: Optional[Dict[str, float]] = None,
                 engine: Optional[Dict[str, float]] = None):
        #: One dict per global iteration, in iteration order.
        self.rows = rows
        #: Resilience/batch counter values captured at build time
        #: (counter name -> value; only nonzero ones are rendered).
        self.counters = dict(counters or {})
        #: The engine's own counts (:func:`repro.obs.engine_stats`).
        self.engine = dict(engine or {})

    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Sequence[Dict[str, Any]],
                     registry=None) -> "ConvergenceReport":
        """Build from span records (see :func:`repro.obs.read_jsonl`);
        pass a :class:`repro.obs.metrics.MetricsRegistry` as *registry*
        to also capture its resilience/batch counters and the engine's
        own counts (:func:`repro.obs.engine_stats`: chain cache, numpy
        kernels, memo reuse) into the report footer."""
        rows = []
        for record in records:
            if record.get("type") == "span" \
                    and record.get("name") == ITERATION_SPAN:
                rows.append({**record.get("attributes", {}),
                             "duration": record.get("duration")})
        counters = {}
        engine = {}
        if registry is not None:
            counter_values = registry.snapshot().get("counters", {})
            counters = {name: counter_values[name]
                        for name in RESILIENCE_COUNTERS
                        if counter_values.get(name)}
            engine = engine_stats()
        return cls(rows, counters, engine)

    # ------------------------------------------------------------------
    @property
    def iterations(self) -> int:
        return len(self.rows)

    @property
    def converged(self) -> Optional[bool]:
        if not self.rows:
            return None
        return bool(self.rows[-1].get("converged"))

    def render(self, max_ports: int = 4) -> str:
        """ASCII table: one line per global iteration.

        ``max_ports`` limits how many changed port names are spelled out
        per line (the rest are elided as ``+N``).
        """
        if not self.rows:
            return ("(no convergence data -- run analyze_system with "
                    "repro.configure(enabled=True))")
        table_rows = []
        for row in self.rows:
            changed = row.get("changed_ports") or []
            shown = ", ".join(changed[:max_ports])
            if len(changed) > max_ports:
                shown += f" +{len(changed) - max_ports}"
            duration = row.get("duration")
            table_rows.append((
                row.get("iteration", "?"),
                _fmt_residual(row.get("residual_r_max")),
                row.get("residual_argmax") or "-",
                row.get("unstable_models", "?"),
                shown or "-",
                f"{duration * 1e3:.1f}" if duration is not None else "-",
            ))
        table = render_table(
            ["iter", "max |dR+|", "worst task", "unstable", "moving ports",
             "ms"],
            table_rows)
        verdict = ("converged" if self.converged
                   else "NOT converged" if self.converged is not None
                   else "unknown")
        report = (f"Convergence of the global fixed-point iteration "
                  f"({self.iterations} iterations, {verdict}):\n{table}")
        active = {n: v for n, v in self.counters.items() if v}
        if active:
            pairs = ", ".join(f"{n}={v:g}" for n, v in sorted(
                active.items()))
            report += f"\nresilience: {pairs}"
        if self.engine:
            pairs = ", ".join(f"{n}={v:g}" for n, v in sorted(
                self.engine.items()))
            report += f"\nengine: {pairs}"
        return report


def _fmt_residual(value) -> str:
    if value is None:
        return "-"
    if value == 0:
        return "0"
    return f"{value:.6g}"


def render_convergence_report(records: Sequence[Dict[str, Any]]) -> str:
    """Render a convergence report from span records."""
    return ConvergenceReport.from_records(records).render()
