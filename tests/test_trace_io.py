"""Unit tests for trace I/O: CSV event traces and the span tracer's
thread-safety / JSONL round-trip guarantees."""

import io
import threading

import pytest

from repro._errors import ModelError
from repro.eventmodels import (
    dump_trace_csv,
    load_trace_csv,
    model_from_trace,
    periodic,
    trace_within_bounds,
)
from repro import obs
from repro.obs import JsonlEventSink, Tracer, read_jsonl
from repro.obs.context import job_scope


CSV_TEXT = """time,stream,extra
0.0,F1,x
100.0,F1,y
12.5,F2,z
50.0,F1,
"""


class TestLoadTraceCsv:
    def test_basic_parse(self):
        traces = load_trace_csv(io.StringIO(CSV_TEXT))
        assert traces["F1"] == [0.0, 50.0, 100.0]  # sorted
        assert traces["F2"] == [12.5]

    def test_extra_columns_ignored(self):
        traces = load_trace_csv(io.StringIO(CSV_TEXT))
        assert set(traces) == {"F1", "F2"}

    def test_missing_column_rejected(self):
        with pytest.raises(ModelError):
            load_trace_csv(io.StringIO("a,b\n1,2\n"))

    def test_bad_timestamp_rejected(self):
        bad = "time,stream\nnot-a-number,F1\n"
        with pytest.raises(ModelError) as err:
            load_trace_csv(io.StringIO(bad))
        assert "line 2" in str(err.value)

    def test_custom_columns(self):
        text = "t,frame\n5.0,A\n"
        traces = load_trace_csv(io.StringIO(text), time_column="t",
                                stream_column="frame")
        assert traces == {"A": [5.0]}

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.csv"
        dump_trace_csv({"F1": [0.0, 100.0], "F2": [55.5]}, path)
        traces = load_trace_csv(path)
        assert traces == {"F1": [0.0, 100.0], "F2": [55.5]}


class TestDumpTraceCsv:
    def test_rows_sorted_by_time(self):
        buffer = io.StringIO()
        dump_trace_csv({"B": [30.0], "A": [10.0, 50.0]}, buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "time,stream"
        assert [ln.split(",")[1] for ln in lines[1:]] == ["A", "B", "A"]

    def test_pipeline_to_model(self):
        # Export a simulated trace, re-import, build a model, check it
        # against the analytic bound — the full logging workflow.
        buffer = io.StringIO()
        events = [0.0, 100.0, 200.0, 300.0, 400.0]
        dump_trace_csv({"F1": events}, buffer)
        buffer.seek(0)
        traces = load_trace_csv(buffer)
        observed = model_from_trace(traces["F1"])
        assert observed.delta_min(2) == 100.0
        assert trace_within_bounds(traces["F1"], periodic(100.0))


class TestTracerThreadSafety:
    """The tracer keeps one span stack per thread: concurrent nested
    spans must neither interleave parents across threads nor lose
    spans, and the result must survive a JSONL round-trip."""

    THREADS = 8
    DEPTH = 5
    REPEATS = 20

    def _worker(self, tracer, barrier, errors, finished):
        try:
            barrier.wait()
            with job_scope() as job:
                self._nest(tracer)
            finished.append(job.spans)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def _nest(self, tracer):
        for _ in range(self.REPEATS):
            opened = []
            for level in range(self.DEPTH):
                span = tracer.start(f"level{level}",
                                    thread=threading.get_ident())
                # the parent must be this thread's previous span,
                # never another thread's
                expected = opened[-1].span_id if opened else None
                assert span.parent_id == expected
                opened.append(span)
            for span in reversed(opened):
                assert tracer.current() is span
                span.finish()
            assert tracer.current() is None

    def test_concurrent_nested_spans(self, span_records):
        tracer = Tracer()
        barrier = threading.Barrier(self.THREADS)
        errors = []
        finished = []
        threads = [threading.Thread(target=self._worker,
                                    args=(tracer, barrier, errors,
                                          finished))
                   for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

        spans = span_records
        assert len(spans) == self.THREADS * self.REPEATS * self.DEPTH
        # each thread's job scope counted its own spans, and only those
        assert finished == [self.REPEATS * self.DEPTH] * self.THREADS
        # span ids are unique despite concurrent allocation
        ids = [s["span_id"] for s in spans]
        assert len(set(ids)) == len(ids)
        # every span's recorded parent lives on the same thread
        by_id = {s["span_id"]: s for s in spans}
        for span in spans:
            if span["parent_id"] is not None:
                assert by_id[span["parent_id"]]["thread_id"] \
                    == span["thread_id"]
        # each thread contributed a full, correctly-shaped tree
        by_thread = {}
        for span in spans:
            by_thread.setdefault(span["thread_id"], []).append(span)
        assert len(by_thread) == self.THREADS
        for spans_of_thread in by_thread.values():
            assert len(spans_of_thread) == self.REPEATS * self.DEPTH
            roots = [s for s in spans_of_thread if s["parent_id"] is None]
            assert len(roots) == self.REPEATS

    def test_jsonl_round_trip_preserves_thread_identity(self, tmp_path):
        tracer = Tracer()
        path = tmp_path / "threads.jsonl"
        sink = obs.get_bus().subscribe(
            JsonlEventSink(str(path), span_only=True, t0=tracer.t0))
        barrier = threading.Barrier(self.THREADS)
        errors = []
        finished = []
        threads = [threading.Thread(target=self._worker,
                                    args=(tracer, barrier, errors,
                                          finished))
                   for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

        obs.get_bus().unsubscribe(sink)
        sink.close()
        records = read_jsonl(str(path))
        assert len(records) == self.THREADS * self.REPEATS * self.DEPTH
        by_id = {r["span_id"]: r for r in records}
        for record in records:
            assert record["thread_id"] == \
                record["attributes"]["thread"]
            if record["parent_id"] is not None:
                parent = by_id[record["parent_id"]]
                assert parent["thread_id"] == record["thread_id"]
                assert parent["start"] <= record["start"]
                assert parent["end"] >= record["end"]
