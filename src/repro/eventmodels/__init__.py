"""Event-model algebra: characteristic functions, standard models, curves,
joins, shapers, and conversions.

This package implements the flat event-stream layer of compositional
performance analysis (paper section 3) on which the hierarchical event
models of :mod:`repro.core` are built.
"""

from .base import EventModel, NullEventModel, models_equal
from .standard import (
    StandardEventModel,
    periodic,
    periodic_with_burst,
    periodic_with_jitter,
    sporadic,
)
from .combinators import check_consistent, intersect_bounds, union_bounds
from .compile import (
    CompilationCache,
    fingerprint,
    maybe_compile,
    register_fingerprint,
)
from .curves import CachedModel, CurveEventModel, FunctionEventModel, freeze
from .operations import (
    DminShaper,
    TaskOutputModel,
    and_join,
    or_join,
    or_join_superposition,
)
from .offsets import offset_join
from .trace import (
    dump_trace_csv,
    load_trace_csv,
    model_from_trace,
    trace_within_bounds,
    violations,
)
from .convert import fit_standard, verify_dominates

__all__ = [
    "EventModel",
    "NullEventModel",
    "models_equal",
    "StandardEventModel",
    "periodic",
    "periodic_with_jitter",
    "periodic_with_burst",
    "sporadic",
    "CurveEventModel",
    "FunctionEventModel",
    "CachedModel",
    "CompilationCache",
    "maybe_compile",
    "fingerprint",
    "register_fingerprint",
    "freeze",
    "TaskOutputModel",
    "or_join",
    "or_join_superposition",
    "and_join",
    "offset_join",
    "intersect_bounds",
    "union_bounds",
    "check_consistent",
    "DminShaper",
    "model_from_trace",
    "trace_within_bounds",
    "violations",
    "load_trace_csv",
    "dump_trace_csv",
    "fit_standard",
    "verify_dominates",
]
