"""repro.explain — result-level observability for the analysis engine.

Where :mod:`repro.obs` answers "what did the engine *do*" (spans,
counters, convergence residuals), this package answers "where does the
*result* come from".  An explanation is a function of a finished
analysis, computed on demand:

* :mod:`repro.explain.blame` — WCRT blame attribution.  Every
  busy-window scheduler (:mod:`repro.analysis.spp`, ``spnp``, ``edf``,
  ``round_robin``, ``tdma``) decomposes a task's worst-case response
  time at the critical activation into own execution, blocking, and
  per-interferer activation×WCET contributions
  (:meth:`repro.analysis.interface.Scheduler.blame`, a structured
  :class:`Blame` record).
* :mod:`repro.explain.lineage` — event-model lineage: per port, how its
  activation model was derived (source → Θ_τ output → OR-join →
  ``Ω_pa`` pack → inner update ``B`` → ``Ψ`` unpack) as a queryable
  DAG; rendering lives in :mod:`repro.viz.lineage`.
* :mod:`repro.explain.engine` — :func:`explain_result` rebuilds both
  from a converged :class:`~repro.analysis.results.SystemResult` and
  bundles them into an :class:`Explanation`; :func:`explain_system`
  analyses a system and explains the result.
* :mod:`repro.explain.cli` — ``python -m repro explain``.

Nothing here reads the ``repro.obs.enabled`` switch, and an analysis
builds no explanation unless one is asked for.
"""

from __future__ import annotations

from .blame import Blame, BlameTerm
from .lineage import LineageGraph, LineageNode

__all__ = [
    "Blame",
    "BlameTerm",
    "LineageGraph",
    "LineageNode",
    # lazily resolved (see __getattr__):
    "Explanation",
    "explain_result",
    "explain_system",
    "render_blame",
    "render_blame_table",
]

#: Names served lazily from :mod:`repro.explain.engine`.  The engine
#: imports the system layer, which imports the analysis layer, which
#: imports :mod:`repro.explain.blame` — importing it eagerly here would
#: close that cycle at package-import time.
_ENGINE_EXPORTS = ("Explanation", "explain_result", "explain_system",
                   "render_blame", "render_blame_table")


def __getattr__(name: str):
    if name in _ENGINE_EXPORTS:
        from . import engine
        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
