"""Regression: concurrent ResultStore writers never tear records.

The serve daemon shares one store across dispatcher threads, and a
daemon can run next to a ``python -m repro batch`` process over the
same cache dir.  Appends therefore hold an ``fcntl`` advisory lock
around the seek/write/fsync sequence.  These tests hammer the log from
two real processes (and from threads in-process) and assert that every
record survives intact — a torn or interleaved line would fail the
JSON parse or drop a key.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.batch.jobs import JobResult
from repro.batch.store import ResultStore

#: Per-writer record count; paired with the padded payload this gives
#: each process hundreds of syscall-sized appends to collide on.
RECORDS_PER_WRITER = 150

_WRITER_SCRIPT = """
import sys, time
from pathlib import Path
from repro.batch.jobs import JobResult
from repro.batch.store import ResultStore

cache_dir, tag, count, start_file = sys.argv[1:5]
store = ResultStore(cache_dir)
# Barrier: both writers spin until the parent drops the start file, so
# the appends genuinely overlap instead of running back-to-back.
deadline = time.monotonic() + 30
while not Path(start_file).exists():
    if time.monotonic() > deadline:
        raise SystemExit("start file never appeared")
    time.sleep(0.001)
pad = tag * 512
for i in range(int(count)):
    store.put(JobResult(key=f"{tag}-{i}", kind="concurrency_probe",
                        label=tag, status="ok",
                        data={"i": i, "tag": tag, "pad": pad}))
store.close()
"""


def _spawn_writer(cache_dir: Path, tag: str, start_file: Path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", _WRITER_SCRIPT, str(cache_dir), tag,
         str(RECORDS_PER_WRITER), str(start_file)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_two_processes_append_without_torn_records(tmp_path):
    cache_dir = tmp_path / "cache"
    start_file = tmp_path / "go"
    writers = [_spawn_writer(cache_dir, tag, start_file)
               for tag in ("aa", "bb")]
    time.sleep(0.2)  # let both processes reach the barrier
    start_file.touch()
    for proc in writers:
        _out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()

    # Every raw line is intact JSON with a key: nothing tore.
    lines = (cache_dir / "results.jsonl").read_bytes().splitlines()
    assert len(lines) == 2 * RECORDS_PER_WRITER
    seen = set()
    for line in lines:
        record = json.loads(line)  # raises on an interleaved write
        assert record["data"]["pad"] == record["data"]["tag"] * 512
        seen.add(record["key"])

    # And a fresh store (index is stale: both children checkpointed
    # concurrently) rescans to the complete key set.
    store = ResultStore(cache_dir)
    expected = {f"{tag}-{i}" for tag in ("aa", "bb")
                for i in range(RECORDS_PER_WRITER)}
    assert seen == expected
    assert set(store.keys()) == expected
    probe = store.get("aa-17")
    assert probe.ok and probe.data["i"] == 17


def test_threaded_writers_share_one_store(tmp_path):
    """In-process concurrency (the daemon's dispatcher threads)."""
    store = ResultStore(tmp_path / "cache")
    errors = []

    def writer(tag: str) -> None:
        try:
            for i in range(100):
                store.put(JobResult(key=f"{tag}-{i}", kind="probe",
                                    label=tag, status="ok",
                                    data={"i": i}))
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(t,))
               for t in ("t1", "t2", "t3")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not errors
    assert len(store) == 300
    rescan = ResultStore(tmp_path / "cache")
    assert len(rescan) == 300


def test_held_reads_beside_threaded_writers(tmp_path):
    """The daemon's loop reads ``held`` without the lock while
    dispatcher threads put: every read is None (not put yet) or the
    very result put, and after the writers finish every key is held."""
    store = ResultStore(tmp_path / "cache")
    keys = [f"{tag}-{i}" for tag in ("t1", "t2") for i in range(60)]
    put = {}
    errors = []
    done = threading.Event()

    def writer(tag: str) -> None:
        try:
            for i in range(60):
                result = JobResult(key=f"{tag}-{i}", kind="probe",
                                   label=tag, status="ok", data={"i": i})
                put[result.key] = result
                store.put(result)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    def reader() -> None:
        try:
            while not done.is_set():
                for key in keys:
                    held = store.held(key)
                    assert held is None or held is put[key], key
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=reader) for _ in range(3)]
        writers = [threading.Thread(target=writer, args=(t,))
                   for t in ("t1", "t2")]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join(30)
        done.set()
        for t in readers:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers + writers)
    assert not errors
    assert all(store.held(key) is put[key] for key in keys)


def test_interleaved_processes_index_correct_offsets(tmp_path):
    """A store whose log another process appended to mid-run still
    indexes its own records at the right offsets."""
    cache_dir = tmp_path / "cache"
    local = ResultStore(cache_dir)
    local.put(JobResult(key="local-0", kind="probe", label="",
                        status="ok", data={"who": "local"}))

    # A foreign process appends behind our back.
    foreign = ResultStore(cache_dir)
    foreign.put(JobResult(key="foreign-0", kind="probe", label="",
                          status="ok", data={"who": "foreign"}))
    foreign.close()

    # Our next append must land *after* the foreign record and index
    # the true offset — lock-held seek-to-end guarantees both.
    local.put(JobResult(key="local-1", kind="probe", label="",
                        status="ok", data={"who": "local"}))
    assert local.get("local-1").data["who"] == "local"

    rescan = ResultStore(cache_dir)
    assert set(rescan.keys()) == {"local-0", "foreign-0", "local-1"}
    for key in rescan.keys():
        assert rescan.get(key).ok
