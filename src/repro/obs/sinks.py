"""Pluggable subscriber sinks for the :mod:`repro.obs.bus` event bus.

Three ready-made sinks:

* :class:`JsonlEventSink` — streams events to a file as JSONL, one
  JSON object per line, flushed per event so a running sweep can be
  tailed.  With ``span_only=True`` it is the span trace exporter: the
  file holds one ``"span"`` record per finished span (span events
  included), which :func:`repro.obs.export.read_jsonl` and
  :meth:`repro.viz.ConvergenceReport.from_records` read back.
* :class:`ChromeTraceSink` — accumulates ``"span"`` events and writes
  a Perfetto-loadable Chrome trace on :meth:`close`, through
  :func:`repro.obs.export.records_to_chrome`.
* :class:`~repro.obs.aggregate.LiveAggregator` (its own module) —
  folds sweep/job/iteration/guard events into rolling aggregate state
  for progress lines and the ``python -m repro top`` monitor.

A sink is anything callable (or with a ``handle(event)`` method); the
optional ``interests`` attribute restricts which event types it
receives.  Sinks must never raise for correctness — the bus swallows
and counts their exceptions — but well-behaved sinks still guard their
own I/O.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, IO, List, Optional, Union

from .export import records_to_chrome
from .trace import _jsonable


class Sink:
    """Base class for event sinks (subclassing is optional)."""

    #: Event types this sink wants; ``None`` means everything.
    interests: Optional[frozenset] = None

    def handle(self, event: Dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; idempotent."""


class JsonlEventSink(Sink):
    """Stream bus events to *target* (path or file object) as JSONL.

    Each event is written as one JSON line and flushed immediately, so
    ``tail -f`` (or the ``repro top --follow`` machinery) sees events
    while the run is still going.  Timestamps stay absolute
    ``perf_counter`` seconds unless *t0* is given, in which case
    ``start``/``end``/``t`` fields and each span event's ``time`` are
    rebased to it (pass the tracer's ``t0`` for origin-relative
    traces).  Events may arrive from several threads at once; each line
    is written whole.
    """

    def __init__(self, target: Union[str, IO[str]],
                 span_only: bool = False, t0: float = 0.0):
        if span_only:
            self.interests = frozenset({"span"})
        self._t0 = t0
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self._closed = False
        self._lock = threading.Lock()
        self.written = 0

    def handle(self, event: Dict[str, Any]) -> None:
        record = _jsonable(event)
        if self._t0:
            for key in ("start", "end", "t"):
                if isinstance(record.get(key), (int, float)):
                    record[key] = record[key] - self._t0
            for span_event in record.get("events", ()):
                span_event["time"] -= self._t0
        line = json.dumps(record) + "\n"
        with self._lock:
            if self._closed:
                return
            self._fh.write(line)
            self._fh.flush()
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._owns:
                self._fh.close()


class ChromeTraceSink(Sink):
    """Collect ``"span"`` events; write a Chrome/Perfetto trace on close.

    The payload is produced by
    :func:`repro.obs.export.records_to_chrome`, so span records shipped
    back from pool workers land on their own named lanes.
    """

    interests = frozenset({"span"})

    def __init__(self, path: str, t0: float = 0.0):
        self.path = path
        self._t0 = t0
        self._records: List[Dict[str, Any]] = []
        self._closed = False

    def handle(self, event: Dict[str, Any]) -> None:
        if not self._closed:
            self._records.append(dict(event))

    @property
    def count(self) -> int:
        return len(self._records)

    def payload(self) -> Dict[str, Any]:
        return records_to_chrome(self._records, t0=self._t0)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.payload(), fh)
            fh.write("\n")
