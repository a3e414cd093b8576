"""System serialisation: dump/load system graphs as plain dicts.

Enables config-driven analysis (JSON/TOML system descriptions checked
into a repo) and golden-file testing.  Schedulers and event models are
encoded by type tags; arbitrary curve models are sampled via
:func:`repro.eventmodels.freeze` before encoding, which keeps the format
closed under every model the engine can produce (at the documented
conservative-extension precision).

Round trip: ``system_from_dict(system_to_dict(s))`` reproduces an
equivalent system (same analysis results).

The emitted dict is **canonical**: node maps are sorted by name, so two
structurally identical systems built in different insertion orders
serialise identically, and the round trip is a fixed point
(``system_to_dict(system_from_dict(d)) == d``).  :func:`canonical_json`
and :func:`system_hash` build on this to give every system a
content-addressed identity — the cache key of the batch engine
(:mod:`repro.batch`), stable across processes and interpreter runs.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from numbers import Real
from typing import Any, Dict, Iterator

from .._errors import ModelError
from ..analysis.edf import EDFScheduler
from ..analysis.interface import Scheduler
from ..analysis.resource_model import (
    HierarchicalSPPScheduler,
    PeriodicResource,
)
from ..analysis.round_robin import RoundRobinScheduler
from ..analysis.spnp import CanErrorModel, SPNPScheduler
from ..analysis.spp import SPPScheduler
from ..analysis.tdma import TDMAScheduler
from ..core.constructors import TransferProperty
from ..eventmodels.base import EventModel
from ..eventmodels.compile import CompiledEventModel
from ..eventmodels.curves import CurveEventModel, freeze
from ..eventmodels.standard import StandardEventModel
from .model import JunctionKind, System

#: Sampling depth when an arbitrary event model must be frozen.
FREEZE_N = 64


# ----------------------------------------------------------------------
# event models
# ----------------------------------------------------------------------
def model_to_dict(model: EventModel) -> "Dict[str, Any]":
    if isinstance(model, StandardEventModel):
        return {
            "type": "standard",
            "period": model.period,
            "jitter": model.jitter,
            "d_min": model.d_min,
            "sporadic": model.sporadic,
            "name": model.name,
        }
    # A compiled curve's prefix is as long as its queries have grown it,
    # so it is sampled at the fixed depth like any other derived model:
    # one curve, one encoding, one content hash.
    if (not isinstance(model, CurveEventModel)
            or isinstance(model, CompiledEventModel)):
        model = freeze(model, n_max=FREEZE_N)
    return {
        "type": "curve",
        "delta_min": list(model._dmin),
        "delta_plus": list(model._dplus),
        "n_period": model._n_period,
        "t_period": model._t_period,
        "name": model.name,
    }


def model_from_dict(data: "Dict[str, Any]") -> EventModel:
    kind = data.get("type")
    if kind == "standard":
        return StandardEventModel(
            data["period"], data["jitter"], data["d_min"],
            sporadic=data.get("sporadic", False),
            name=data.get("name", "sem"))
    if kind == "curve":
        return CurveEventModel(
            data["delta_min"], data["delta_plus"],
            n_period=data.get("n_period"),
            t_period=data.get("t_period"),
            name=data.get("name", "curve"))
    raise ModelError(f"unknown event-model type {kind!r}")


# ----------------------------------------------------------------------
# schedulers
# ----------------------------------------------------------------------
def scheduler_to_dict(scheduler: Scheduler) -> "Dict[str, Any]":
    if isinstance(scheduler, HierarchicalSPPScheduler):
        return {"policy": "hspp",
                "server_period": scheduler.server.period,
                "server_budget": scheduler.server.budget}
    if isinstance(scheduler, SPPScheduler):
        return {"policy": "spp",
                "utilization_limit": scheduler.utilization_limit}
    if isinstance(scheduler, SPNPScheduler):
        data = {"policy": "spnp",
                "utilization_limit": scheduler.utilization_limit}
        # Optional key: only emitted when present, so hashes of systems
        # without an error model are unchanged.
        if scheduler.error_model is not None:
            em = scheduler.error_model
            data["error_model"] = {"burst_errors": em.burst_errors,
                                   "error_rate": em.error_rate,
                                   "recovery_time": em.recovery_time}
        return data
    if isinstance(scheduler, RoundRobinScheduler):
        return {"policy": "round_robin",
                "utilization_limit": scheduler.utilization_limit}
    if isinstance(scheduler, TDMAScheduler):
        return {"policy": "tdma"}
    if isinstance(scheduler, EDFScheduler):
        return {"policy": "edf",
                "utilization_limit": scheduler.utilization_limit}
    raise ModelError(
        f"scheduler {type(scheduler).__name__} has no serialisation")


def _number(value: Any, key: str, optional: bool = False):
    """*value* if it is a real number (or None when *optional*).

    Anything else would pass loading and fail only inside the analysis,
    as a ``TypeError`` naming no node.
    """
    # The JSON number types pass an exact type test first: the ABC test
    # below costs about 0.6 µs a call, which every task of every sweep
    # point would pay.
    if type(value) in (float, int) or (value is None and optional):
        return value
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ModelError(f"{key}: expected a number, got {value!r}")
    return value


def _port(value: Any, key: str) -> str:
    """*value* if it is a port name: a string."""
    if not isinstance(value, str):
        raise ModelError(f"{key}: expected a port name, got {value!r}")
    return value


def scheduler_from_dict(data: "Dict[str, Any]") -> Scheduler:
    policy = data.get("policy")

    def limit():
        return _number(data.get("utilization_limit", 1.0),
                       "utilization_limit")

    if policy == "spp":
        return SPPScheduler(limit())
    if policy == "spnp":
        error_model = None
        if data.get("error_model"):
            em = data["error_model"]
            error_model = CanErrorModel(
                burst_errors=em.get("burst_errors", 0),
                error_rate=em.get("error_rate", 0.0),
                recovery_time=em.get("recovery_time", 0.0))
        return SPNPScheduler(limit(), error_model=error_model)
    if policy == "round_robin":
        return RoundRobinScheduler(limit())
    if policy == "tdma":
        return TDMAScheduler()
    if policy == "edf":
        return EDFScheduler(limit())
    if policy == "hspp":
        return HierarchicalSPPScheduler(PeriodicResource(
            data["server_period"], data["server_budget"]))
    raise ModelError(f"unknown scheduler policy {policy!r}")


# ----------------------------------------------------------------------
# whole systems
# ----------------------------------------------------------------------
def system_to_dict(system: System) -> "Dict[str, Any]":
    """Serialise a system graph to a canonical JSON-compatible dict.

    Node maps are emitted sorted by name so the output is independent of
    construction order; list-valued fields (task/junction ``inputs``)
    keep their order because it is semantically meaningful.
    """
    return {
        "name": system.name,
        "sources": {
            name: model_to_dict(src.model)
            for name, src in sorted(system.sources.items())
        },
        "resources": {
            name: scheduler_to_dict(res.scheduler)
            for name, res in sorted(system.resources.items())
        },
        "tasks": {
            name: {
                "resource": t.resource,
                "c_min": t.c_min,
                "c_max": t.c_max,
                "inputs": list(t.inputs),
                "priority": t.priority,
                "slot": t.slot,
                "deadline": t.deadline,
                "activation": t.activation,
                "blocking": t.blocking,
            }
            for name, t in sorted(system.tasks.items())
        },
        "junctions": {
            name: {
                "kind": j.kind.value,
                "inputs": list(j.inputs),
                "properties": {k: v.value
                               for k, v in sorted(j.properties.items())},
                "timer": j.timer,
            }
            for name, j in sorted(system.junctions.items())
        },
    }


def _section(data: "Dict[str, Any]", key: str):
    """The ``(name, node)`` pairs of one node map of a system dict."""
    nodes = data.get(key, {})
    if not isinstance(nodes, dict):
        raise ModelError(
            f"{key}: expected a mapping of node name to node, got "
            f"{type(nodes).__name__}", context={"section": key})
    return nodes.items()


@contextmanager
def _node(kind: str, name: Any) -> Iterator[None]:
    """Re-raise any error met while rebuilding one node as a
    :class:`ModelError` naming that node.

    Malformed input (a missing key, a value of the wrong type, an
    unknown enum value) otherwise escapes as a bare ``KeyError`` or
    ``TypeError`` that names no node, and which the batch retry policy
    takes for a transient failure.
    """
    try:
        yield
    except ModelError as exc:
        if kind in exc.context:
            raise
        raise ModelError(f"{kind} {name!r}: {exc}",
                         context={**exc.context, kind: name}) from exc
    except KeyError as exc:
        raise ModelError(f"{kind} {name!r}: missing key {exc}",
                         context={kind: name}) from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ModelError(f"{kind} {name!r}: {exc}",
                         context={kind: name}) from exc


def system_from_dict(data: "Dict[str, Any]") -> System:
    """Rebuild a system graph from :func:`system_to_dict` output.

    Malformed input raises :class:`ModelError` naming the offending
    section or node.
    """
    if not isinstance(data, dict):
        raise ModelError(f"system: expected a mapping, got "
                         f"{type(data).__name__}")
    system = System(data.get("name", "system"))
    for name, model_data in _section(data, "sources"):
        with _node("source", name):
            system.add_source(name, model_from_dict(model_data))
    for name, sched_data in _section(data, "resources"):
        with _node("resource", name):
            system.add_resource(name, scheduler_from_dict(sched_data))
    for name, t in _section(data, "tasks"):
        with _node("task", name):
            system.add_task(
                name, t["resource"], (t["c_min"], t["c_max"]),
                [_port(p, "inputs") for p in t["inputs"]],
                priority=_number(t.get("priority", 0), "priority"),
                slot=_number(t.get("slot"), "slot", optional=True),
                deadline=_number(t.get("deadline"), "deadline",
                                 optional=True),
                activation=t.get("activation", "or"),
                blocking=_number(t.get("blocking", 0.0), "blocking"))
    for name, j in _section(data, "junctions"):
        with _node("junction", name):
            timer = j.get("timer")
            system.add_junction(
                name, JunctionKind(j["kind"]),
                [_port(p, "inputs") for p in j["inputs"]],
                properties={k: TransferProperty(v)
                            for k, v in j.get("properties", {}).items()},
                timer=None if timer is None else _port(timer, "timer"))
    system.validate()
    return system


# ----------------------------------------------------------------------
# canonical encoding and content hashing
# ----------------------------------------------------------------------
def canonical_json(data: Any) -> str:
    """Canonical JSON encoding of a JSON-compatible value.

    Keys are sorted at every nesting level and separators carry no
    whitespace, so the encoding depends only on the *content* of the
    value — not on dict insertion order, ``PYTHONHASHSEED``, or which
    process produced it.  Floats rely on :func:`repr`'s shortest-
    round-trip representation, which is identical across CPython builds.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def content_hash(data: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json` of *data*."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def system_hash(system: System) -> str:
    """Deterministic content hash of a system graph.

    Two systems hash equal iff their canonical serialisations agree;
    the digest is stable across processes and interpreter invocations,
    which is what makes it usable as a cross-run cache key.
    """
    return content_hash(system_to_dict(system))
