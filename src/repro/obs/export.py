"""Trace and metrics serialisation: JSONL reading, the Chrome
trace-event converter, JSON metric snapshots.

Span traces are written by the sinks in :mod:`repro.obs.sinks` while a
run is in flight.  The JSONL layout is one JSON object per line, each
with a ``"type"`` field (``"span"`` for span records; readers must skip
unknown types so the format can grow).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from .metrics import MetricsRegistry
# span_to_dict lives next to Span (the tracer publishes its records)
# and stays importable from here.
from .trace import _jsonable, span_to_dict


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace back into a list of dicts (blank lines and
    unknown record types are preserved as-is for forward compatibility)."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def records_to_chrome(records: Sequence[Dict[str, Any]],
                      t0: float = 0.0) -> Dict[str, Any]:
    """Convert span *records* (``span_to_dict`` shape, or ``"span"``
    events streamed off the bus) to the Chrome trace-event format.

    The returned object loads directly into Perfetto
    (https://ui.perfetto.dev) or ``chrome://tracing``: one ``"X"``
    (complete) event per span with microsecond timestamps relative to
    *t0*, one ``"i"`` (instant) event per span event, plus metadata
    naming the process and one row per traced lane.  Unfinished spans
    (``end`` missing) are skipped — the format has no open-ended
    complete events.

    Lanes are ``(worker, thread_id)`` pairs: records shipped back from
    pool workers carry a ``"worker"`` tag and get their own synthetic
    tids (named ``worker-<tag>`` in the metadata) even when — as under
    ``fork`` — their raw thread idents coincide with the parent's, so
    worker activity shows up as distinct Perfetto rows rather than
    collapsing onto the parent thread.
    """
    # Perfetto renders tids as small integers; map lanes to a compact,
    # deterministic numbering in first-seen (span-id) order.
    tid_map: Dict[Any, int] = {}
    events: List[Dict[str, Any]] = []
    for record in sorted(records, key=lambda r: r.get("span_id", 0)):
        if record.get("end") is None:
            continue
        lane = (record.get("worker"), record.get("thread_id"))
        tid = tid_map.setdefault(lane, len(tid_map) + 1)
        args = _jsonable(record.get("attributes", {}))
        args["span_id"] = record.get("span_id")
        if record.get("parent_id") is not None:
            args["parent_id"] = record["parent_id"]
        if record.get("request_id") is not None:
            args["request_id"] = record["request_id"]
        status = record.get("status", "ok")
        if status != "ok":
            args["status"] = status
            if record.get("error") is not None:
                args["error"] = record["error"]
        events.append({
            "name": record.get("name", "?"),
            "cat": "repro" if status == "ok" else "repro,error",
            "ph": "X",
            "ts": (record["start"] - t0) * 1e6,
            "dur": (record["end"] - record["start"]) * 1e6,
            "pid": 1,
            "tid": tid,
            "args": args,
        })
        for ev in record.get("events", ()):
            extra = {k: v for k, v in ev.items()
                     if k not in ("name", "time")}
            events.append({
                "name": ev["name"],
                "cat": "repro",
                "ph": "i",
                "ts": (ev["time"] - t0) * 1e6,
                "pid": 1,
                "tid": tid,
                "s": "t",
                "args": _jsonable(extra),
            })
    meta: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 1,
        "args": {"name": "repro analysis"},
    }]
    for (worker, ident), tid in tid_map.items():
        name = (f"thread-{ident}" if worker is None
                else f"worker-{worker} thread-{ident}")
        meta.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": name},
        })
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def metrics_to_json(registry: MetricsRegistry, path: str,
                    extra: Optional[Dict[str, Any]] = None) -> str:
    """Write a metrics snapshot (plus optional extra fields) to *path*."""
    payload = registry.snapshot()
    if extra:
        payload.update(_jsonable(extra))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path

