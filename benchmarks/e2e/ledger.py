"""Self-time ledger: time each layer of ``repro`` from outside.

The ledger wraps one public callable per layer and replaces the function
object everywhere a loaded ``repro.*`` module binds it (``models_equal``
as bound inside ``repro.system.propagation`` and as defined in
``repro.eventmodels.base`` alike); methods are replaced on their class.
Each wrapper pushes a frame on a thread-local stack, so a layer's self
time is its duration minus the durations of the wrapped calls it made
directly.  Re-entrant calls (``maybe_compile`` compiling the inner
streams of a hierarchy while compiling the hierarchy) nest like any
other call: the inner call's time leaves the outer call's self time.

Every wrapped call's duration is either part of its caller's frame or a
top-level ("root") duration, so the self times of all layers add up to
the root time; :meth:`Ledger.snapshot` reports how far the accounting is
from that identity (the closure).

Usage::

    ledger = Ledger()
    ledger.install()              # wraps every target that exists
    with ledger.root("harness"):
        analyze_system(system)
    ledger.uninstall()
    ledger.snapshot()             # self seconds and calls per layer
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute) for every wrapped callable.  ``Class.method``
#: attributes are replaced on the class.  Scheduler ``analyze`` methods are
#: found at install time, one layer per policy (``analysis.<policy>``).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("system.propagation", "repro.system.propagation", "analyze_system"),
    ("resilience.degrade", "repro.resilience.degrade", "degraded_analyze"),
    ("system.convergence", "repro.eventmodels.base", "models_equal"),
    ("eventmodels.compile", "repro.eventmodels.compile", "maybe_compile"),
    # Compiled curves sample their source on demand when a query runs
    # past the compiled prefix; that sampling is compilation work even
    # when a busy-window or convergence query triggers it.
    ("eventmodels.compile", "repro.eventmodels.compile",
     "CompiledEventModel._grow_to"),
    ("core.theta", "repro.core.update", "apply_operation"),
    ("core.junctions", "repro.core.constructors", "hsc_pack"),
    ("core.junctions", "repro.core.constructors", "hsc_or"),
    ("core.junctions", "repro.core.constructors", "hsc_and"),
    ("core.junctions", "repro.core.deconstruct", "unpack_signal"),
    ("system.serialize", "repro.system.serialize", "system_to_dict"),
    ("system.serialize", "repro.system.serialize", "system_from_dict"),
    ("system.serialize", "repro.system.serialize", "content_hash"),
    ("batch.store.put", "repro.batch.store", "ResultStore.put"),
    ("batch.store.get", "repro.batch.store", "ResultStore.get"),
    ("batch.runner", "repro.batch.executor", "BatchRunner.run"),
    ("serve.handler", "repro.serve.handlers", "build_job"),
    ("serve.handler", "repro.serve.handlers", "run_unary"),
)

#: Modules imported before wrapping.  A module first imported while the
#: wrappers are installed binds the wrappers and keeps them after
#: :meth:`Ledger.uninstall`; loading the modules that bind targets up
#: front keeps install and uninstall symmetric.
PRELOAD = ("repro", "repro.system.propagation", "repro.resilience.degrade",
           "repro.batch", "repro.serve.handlers")

Clock = Callable[[], float]


class _Thread:
    """One thread's frame stack and accumulators (``layer -> [self
    seconds, calls]``), merged only when a report is read."""

    __slots__ = ("stack", "acc", "root_s")

    def __init__(self):
        self.stack: List[list] = []
        self.acc: Dict[str, list] = {}
        self.root_s = 0.0


class Ledger:
    """Per-layer self time and call counts, collected by wrappers.

    ``clock`` is injectable so tests can script time.
    """

    def __init__(self, clock: Clock = time.perf_counter):
        self.clock = clock
        self.missing: List[str] = []
        #: Layers with at least one wrapper installed.
        self.layers: List[str] = []
        self._local = threading.local()
        self._threads: List[_Thread] = []
        self._threads_lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _thread(self) -> _Thread:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _Thread()
            with self._threads_lock:
                self._threads.append(state)
            return state

    def _close(self, layer: str, state: _Thread, frame: list) -> None:
        """Pop ``frame`` and charge its self time to ``layer``."""
        duration = self.clock() - frame[1]
        stack = state.stack
        stack.pop()
        acc = state.acc.get(layer)
        if acc is None:
            acc = state.acc[layer] = [0.0, 0]
        acc[0] += duration - frame[0]
        acc[1] += 1
        if stack:
            stack[-1][0] += duration
        else:
            state.root_s += duration

    def wrap(self, layer, fn: Callable) -> Callable:
        """A wrapper of ``fn`` charging its self time to ``layer`` — a
        name, or a function of the call's positional arguments."""
        clock, thread, close = self.clock, self._thread, self._close
        named = isinstance(layer, str)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = thread()
            frame = [0.0, clock()]          # [child seconds, start]
            state.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(layer if named else layer(args), state, frame)

        return wrapper

    @contextmanager
    def root(self, layer: str = "harness"):
        """Charge the enclosed block's unwrapped time to ``layer``."""
        state = self._thread()
        frame = [0.0, self.clock()]
        state.stack.append(frame)
        try:
            yield
        finally:
            self._close(layer, state, frame)

    # ------------------------------------------------------------------
    # reports
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Self seconds and calls per layer, the closure (``|sum of self
        times - root time| / root time``), the installed and the missing
        layers, as plain JSON-compatible data."""
        with self._threads_lock:
            states = list(self._threads)
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        root = 0.0
        for state in states:
            root += state.root_s
            for layer, (seconds, count) in list(state.acc.items()):
                self_s[layer] = self_s.get(layer, 0.0) + seconds
                calls[layer] = calls.get(layer, 0) + count
        total = sum(self_s.values())
        return {"self_s": self_s, "calls": calls,
                "closure": abs(total - root) / root if root > 0 else 0.0,
                "layers": list(self.layers), "missing": list(self.missing)}

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, targets=TARGETS, schedulers: bool = True) -> None:
        """Wrap every target that exists.  A missing target (a layer a
        later change deleted or renamed) is warned about, recorded in
        :attr:`missing` and skipped."""
        for name in PRELOAD:
            try:
                importlib.import_module(name)
            except ImportError as exc:
                self._miss(name, str(exc))
        for layer, module_name, attr in targets:
            self._install_one(layer, module_name, attr)
        if schedulers:
            for cls in _scheduler_classes():
                self._add_layer(_policy_layer((cls,)))
                self._replace(cls, "analyze", self.wrap(
                    _policy_layer, cls.__dict__["analyze"]))

    def uninstall(self) -> None:
        """Put every replaced object back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _miss(self, what: str, why: str) -> None:
        self.missing.append(what)
        warnings.warn(f"ledger: {what} not found ({why}); its metrics are "
                      f"dropped", RuntimeWarning, stacklevel=3)

    def _install_one(self, layer: str, module_name: str, attr: str) -> None:
        cls_name, _, name = attr.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name)
                original = owner.__dict__[name]
            else:
                original = getattr(owner, name)
        except (ImportError, AttributeError, KeyError) as exc:
            self._miss(f"{module_name}:{attr}",
                       f"{type(exc).__name__}: {exc}")
            return
        self._add_layer(layer)
        wrapper = self.wrap(layer, original)
        if cls_name:
            self._replace(owner, name, wrapper)
            return
        for module in _repro_modules():
            for bound, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, bound, wrapper)

    def _add_layer(self, layer: str) -> None:
        if layer not in self.layers:
            self.layers.append(layer)

    def _replace(self, owner, attr: str, wrapper: Callable) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)


def _policy_layer(args) -> str:
    return "analysis." + str(getattr(args[0], "policy", "unknown"))


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _scheduler_classes():
    """Every loaded concrete ``Scheduler`` subclass that defines its own
    ``analyze``."""
    try:
        from repro.analysis.interface import Scheduler
    except ImportError:
        return []
    found, todo = [], list(Scheduler.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        method = cls.__dict__.get("analyze")
        if method is not None and not getattr(
                method, "__isabstractmethod__", False):
            found.append(cls)
    return found


def per_op(snapshot: dict, ops: int) -> Dict[str, float]:
    """A :meth:`Ledger.snapshot` as per-operation metrics:
    ``<layer>.self_ms`` and ``<layer>.calls`` for every installed layer
    and every root, plus the closure."""
    out: Dict[str, float] = {}
    self_s, calls = snapshot["self_s"], snapshot["calls"]
    for layer in sorted(set(snapshot["layers"]) | set(self_s)):
        out[f"{layer}.self_ms"] = self_s.get(layer, 0.0) * 1e3 / ops
        out[f"{layer}.calls"] = calls.get(layer, 0) / ops
    out["ledger.closure_pct"] = snapshot["closure"] * 100.0
    return out


def counter_metrics(totals: Dict[str, float], ops: int) -> Dict[str, float]:
    """Per-layer metrics from deltas of the program's own counters
    (``compile.hits``/``misses``, ``kernels.batches``/``lanes``,
    ``memo.analyses``/``resource_hits``/``task_reuses``/``tasks_total``);
    a counter that could not be read leaves its metrics out."""
    out: Dict[str, float] = {}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    if "compile.hits" in totals:
        out["eventmodels.compile.hit_rate"] = ratio(
            totals["compile.hits"],
            totals["compile.hits"] + totals["compile.misses"])
    for key in ("batches", "lanes"):
        if f"kernels.{key}" in totals:
            out[f"analysis.kernels.{key}"] = totals[f"kernels.{key}"] / ops
    if "memo.tasks_total" in totals:
        out["analysis.memo.reuse_rate"] = ratio(totals["memo.task_reuses"],
                                                totals["memo.tasks_total"])
        out["analysis.memo.resource_hit_rate"] = ratio(
            totals["memo.resource_hits"], totals["memo.analyses"])
    return out


def optional(fn: Callable[[], dict]) -> Optional[dict]:
    """Read a program counter behind a guard: ``None`` (with a warning)
    when the counter's API is gone."""
    try:
        return fn()
    except Exception as exc:  # the counter API is the program's, not ours
        warnings.warn(f"ledger: counter unavailable ({type(exc).__name__}: "
                      f"{exc}); its metrics are dropped", RuntimeWarning,
                      stacklevel=2)
        return None
