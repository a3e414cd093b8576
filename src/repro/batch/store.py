"""Persistent result store: JSONL log + hash index under a cache dir.

Layout of a cache directory::

    <cache_dir>/
        results.jsonl   # one JobResult per line, append-only
        index.json      # {"size": <jsonl bytes>, "offsets": {key: off}}

``results.jsonl`` is the source of truth: every finished job is
appended (and flushed) immediately, so a sweep killed mid-flight loses
at most the job that was in progress.  ``index.json`` is a rebuildable
accelerator mapping each job key to the byte offset of its *latest*
line; when it matches the log size the store seeks instead of scanning.
A stale or missing index (crash before checkpoint, hand-edited log)
triggers a full rescan that tolerates a truncated final line.

Cross-run memoisation and checkpoint/resume both fall out of the same
mechanism: :meth:`ResultStore.get` returns whatever the log last said
about a key, and the runner skips keys whose stored status is ``ok``.

Concurrent writers are safe at two levels.  Within one process every
public method holds an internal lock, so the serve daemon's dispatcher
threads may share a single store.  Across processes each append takes
an ``fcntl`` advisory exclusive lock on the log for the duration of
the *seek-to-end → write → fsync* sequence, so two processes appending
simultaneously can never interleave torn records — and the offset each
writer indexes is the offset its line really landed at.  (On platforms
without ``fcntl`` the lock degrades to ``O_APPEND`` semantics, which
POSIX already makes atomic for the line sizes involved.)
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

try:  # pragma: no cover - platform gate
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    _fcntl = None

from .._errors import ModelError
from .jobs import STATUS_OK, JobResult


def _lock_append(fh) -> None:
    """Advisory exclusive lock over the whole log (blocking)."""
    if _fcntl is not None:
        _fcntl.lockf(fh, _fcntl.LOCK_EX)


def _unlock_append(fh) -> None:
    if _fcntl is not None:
        _fcntl.lockf(fh, _fcntl.LOCK_UN)

RESULTS_NAME = "results.jsonl"
INDEX_NAME = "index.json"

#: Rewrite the on-disk index every this many appended results.
CHECKPOINT_EVERY = 32


class ResultStore:
    """Append-only store of :class:`JobResult` records keyed by job key."""

    def __init__(self, cache_dir: Union[str, Path],
                 checkpoint_every: int = CHECKPOINT_EVERY):
        if checkpoint_every < 1:
            raise ModelError("checkpoint_every must be >= 1")
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._results_path = self.cache_dir / RESULTS_NAME
        self._index_path = self.cache_dir / INDEX_NAME
        self._checkpoint_every = checkpoint_every
        self._offsets: "Dict[str, int]" = {}
        self._cache: "Dict[str, JobResult]" = {}
        self._puts_since_checkpoint = 0
        self._lock = threading.RLock()
        #: Byte position up to which the log's records are reflected in
        #: ``_offsets``.  Another process may append past this point;
        #: :meth:`put` absorbs any such gap while holding the append
        #: lock, and the on-disk index records *this* size so a log
        #: grown behind our back invalidates the checkpoint.
        self._indexed_size = 0
        self._load()

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def _load(self) -> None:
        if not self._results_path.exists():
            return
        size = self._results_path.stat().st_size
        index = self._read_index()
        if index is not None and index.get("size") == size:
            self._offsets = {str(k): int(v)
                            for k, v in index.get("offsets", {}).items()}
            self._indexed_size = size
            return
        self._rescan()
        self._write_index()

    def _read_index(self) -> Optional[dict]:
        try:
            with open(self._index_path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    def _rescan(self) -> None:
        """Rebuild key→offset from the log; last write per key wins.

        A torn final line (process killed mid-append) is ignored — the
        job it described simply reruns.
        """
        self._offsets.clear()
        self._cache.clear()
        with open(self._results_path, "rb") as fh:
            offset = fh.tell()
            for raw in fh:
                try:
                    record = json.loads(raw.decode("utf-8"))
                    key = record["key"]
                except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                        TypeError):
                    offset = fh.tell()
                    continue
                self._offsets[key] = offset
                offset = fh.tell()
        self._indexed_size = offset

    def _absorb_foreign(self, fh, start: int, end: int) -> None:
        """Fold records another process appended in ``[start, end)``
        into the in-memory index.  Called with the append lock held, so
        every line in the gap is complete.

        Reads through the *locked* descriptor with ``os.pread`` on
        purpose: POSIX drops every advisory lock a process holds on a
        file as soon as the process closes *any* descriptor for it, so
        opening (and closing) a second read handle here would silently
        release the append lock mid-critical-section.
        """
        raw = os.pread(fh.fileno(), end - start, start)
        offset = start
        for line in raw.splitlines(keepends=True):
            if line.endswith(b"\n"):
                try:
                    record = json.loads(line.decode("utf-8"))
                    self._offsets[record["key"]] = offset
                except (json.JSONDecodeError, UnicodeDecodeError,
                        KeyError, TypeError):  # pragma: no cover
                    pass  # defensive: an unlocked writer tore a line
            offset += len(line)

    def _write_index(self) -> None:
        # The recorded size is the absorbed byte count, NOT the stat
        # size: if a foreign process appends after our last put, the
        # next open sees a mismatch and rescans instead of trusting an
        # index that is silently missing the foreign records.
        payload = {"size": self._indexed_size, "offsets": self._offsets}
        # Unique temp name per process: two stores checkpointing the
        # same cache dir concurrently must not steal each other's temp
        # file between write and rename.
        tmp = self._index_path.with_suffix(f".{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, self._index_path)
        self._puts_since_checkpoint = 0

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._offsets

    def __len__(self) -> int:
        return len(self._offsets)

    def keys(self) -> "List[str]":
        with self._lock:
            return list(self._offsets)

    def get(self, key: str) -> Optional[JobResult]:
        """Latest stored result for *key*, or ``None``."""
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                return cached
            offset = self._offsets.get(key)
            if offset is None:
                return None
            with open(self._results_path, "rb") as fh:
                fh.seek(offset)
                raw = fh.readline()
            result = JobResult.from_dict(json.loads(raw.decode("utf-8")))
            self._cache[key] = result
            return result

    def held(self, key: str) -> Optional[JobResult]:
        """The result for *key* if this store already holds it in
        memory (put or read since it opened), else ``None``.  Neither
        I/O nor the lock: an event loop may ask while a worker thread's
        :meth:`put` holds the lock across its fsync."""
        return self._cache.get(key)

    def completed_keys(self) -> "List[str]":
        """Keys whose stored status is ``ok`` (resume skips these)."""
        return [k for k in self.keys() if self.get(k).ok]

    def results(self) -> "Iterator[JobResult]":
        for key in self.keys():
            yield self.get(key)

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def put(self, result: JobResult) -> None:
        """Append *result* to the log (flushed) and update the index.

        The append holds the cross-process advisory lock from before
        the end-of-file seek until after the fsync: concurrent writers
        serialise whole lines (no torn/interleaved records), and the
        offset recorded in the index is the offset this record really
        occupies even when another process appended in between.
        """
        line = json.dumps(result.to_dict(), sort_keys=True) + "\n"
        with self._lock:
            # "a+b", not "ab": the absorb path preads foreign records
            # through this same (locked) descriptor.
            with open(self._results_path, "a+b") as fh:
                _lock_append(fh)
                try:
                    fh.seek(0, os.SEEK_END)
                    offset = fh.tell()
                    if offset > self._indexed_size:
                        self._absorb_foreign(fh, self._indexed_size,
                                             offset)
                    encoded = line.encode("utf-8")
                    fh.write(encoded)
                    fh.flush()
                    os.fsync(fh.fileno())
                finally:
                    _unlock_append(fh)
            self._indexed_size = offset + len(encoded)
            self._offsets[result.key] = offset
            self._cache[result.key] = result
            self._puts_since_checkpoint += 1
            if self._puts_since_checkpoint >= self._checkpoint_every:
                self._write_index()

    def clear(self) -> None:
        """Drop every stored result (a fresh, non-resumed run)."""
        with self._lock:
            self._offsets.clear()
            self._cache.clear()
            for path in (self._results_path, self._index_path):
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
            self._puts_since_checkpoint = 0
            self._indexed_size = 0

    def close(self) -> None:
        """Checkpoint the index if anything was put since the last
        checkpoint; the store stays usable afterwards."""
        with self._lock:
            if self._puts_since_checkpoint:
                self._write_index()

    # ------------------------------------------------------------------
    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ok = sum(1 for k in self._offsets if self.get(k).ok)
        return (f"<ResultStore {self.cache_dir} {len(self._offsets)} "
                f"results ({ok} ok)>")
