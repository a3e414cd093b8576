"""Convergence diagnostics renderer for the global fixed-point loop.

Consumes the ``global_iteration`` spans emitted by
:func:`repro.system.propagation.analyze_system` when observability is
enabled (see :mod:`repro.obs`) and renders them as an ASCII table of
per-iteration residuals — which response time is still moving, how far,
and which propagated output models have not settled yet::

    import repro
    repro.configure(enabled=True)
    repro.analyze_system(system)
    print(ConvergenceReport.from_tracer(repro.get_tracer()).render())
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

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

#: Engine-efficiency metrics (counter or gauge) surfaced on their own
#: footer line: how much work the vector kernels batched, how much the
#: incremental memo and the shared-chain cache reused.
ENGINE_METRICS = (
    "kernels.vector_lanes",
    "memo.reuse_rate",
    "compile.cache_hit_rate",
)


class ConvergenceReport:
    """Per-iteration convergence history of one (or more) analysis runs.

    Built from finished tracer spans (:meth:`from_tracer`) or from the
    dict records of an exported JSONL trace (:meth:`from_records`).
    """

    def __init__(self, rows: List[Dict[str, Any]],
                 counters: Optional[Dict[str, float]] = None,
                 engine: Optional[Dict[str, float]] = None):
        #: One dict per global iteration, in iteration order.
        self.rows = rows
        #: Resilience/batch counter values captured at build time
        #: (counter name -> value; only nonzero ones are rendered).
        self.counters = dict(counters or {})
        #: Engine-efficiency metric values (see :data:`ENGINE_METRICS`).
        self.engine = dict(engine or {})

    # ------------------------------------------------------------------
    @classmethod
    def from_tracer(cls, tracer, registry=None) -> "ConvergenceReport":
        """Build from a tracer; pass a
        :class:`repro.obs.metrics.MetricsRegistry` as *registry* to also
        capture the resilience/batch counters into the report footer."""
        rows = []
        for span in tracer.spans(ITERATION_SPAN):
            rows.append({**span.attributes, "duration": span.duration})
        counters = {}
        engine = {}
        if registry is not None:
            snapshot = registry.snapshot()
            counter_values = snapshot.get("counters", {})
            counters = {name: counter_values[name]
                        for name in RESILIENCE_COUNTERS
                        if counter_values.get(name)}
            gauge_values = snapshot.get("gauges", {})
            for name in ENGINE_METRICS:
                value = counter_values.get(name)
                if value is None:
                    value = gauge_values.get(name)
                if value is not None:
                    engine[name] = value
        return cls(rows, counters, engine)

    @classmethod
    def from_records(cls,
                     records: Sequence[Dict[str, Any]]
                     ) -> "ConvergenceReport":
        """Build from JSONL records (see :func:`repro.obs.read_jsonl`)."""
        rows = []
        for record in records:
            if record.get("type") == "span" \
                    and record.get("name") == ITERATION_SPAN:
                rows.append({**record.get("attributes", {}),
                             "duration": record.get("duration")})
        return cls(rows)

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


def render_convergence_report(source) -> str:
    """Render a convergence report from a tracer or JSONL record list."""
    if hasattr(source, "spans"):
        return ConvergenceReport.from_tracer(source).render()
    return ConvergenceReport.from_records(source).render()
