"""Outside-in timing of the solver's layers.

Every measurement here wraps a *public* call into one layer of the
``repro`` package from the benchmark's own files; nothing in ``src/``
changes.  Wrappers are installed by patching class attributes (methods
are looked up through the class, so every instance sees them) and, for
module-level functions, every ``repro.*`` module attribute bound to the
same function object (``from x import f`` copies the binding).

Two levels:

* **probes** (always on): the end time of ``Host.initial_targets`` and
  of ``DeviceSimulator.__init__``.  They define ``setup_s`` and cost one
  clock read each per solve.
* **spans** (``--trace 1``): name, start, end, parent span, op id and
  process for every wrapped call.  The per-flip straight-search kernel
  primitives are too frequent to keep one record each; their calls and
  nanoseconds are folded into the enclosing span (``folded_ns``) and
  into per-name totals, so self times stay exact.

Worker processes are forked and inherit the wrappers.  A worker keeps
its records in memory and appends them to ``worker-<pid>.jsonl`` in the
run directory whenever ``run_device_rounds`` returns, which happens once
per job, before the worker exits.  ``time.perf_counter_ns`` reads
``CLOCK_MONOTONIC`` on Linux, so worker and main-process times share one axis.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

now = time.perf_counter_ns

# Span record layout (lists, so the open span can be updated in place).
NAME, T0, T1, SID, PARENT, OP, PID, FOLDED = range(8)

#: Span name -> layer, for the per-layer table.
LAYER_OF = {
    "service.submit": "service",
    "service.result": "service",
    "qubo.problem_digest": "service",
    "qubo.run_digest": "service",
    "fleet.start": "fleet",
    "fleet.arm_job": "fleet",
    "fleet.shutdown": "fleet",
    "fleet.weights_ref_for": "fleet",
    "solver.solve": "solver",
    "solver.solve_on_fleet": "solver",
    "host.initial_targets": "host",
    "host.make_targets": "host",
    "host.absorb_batch": "host",
    "exchange.poll": "exchange",
    "worker.fetch_targets": "exchange",
    "worker.publish": "exchange",
    "device.init": "engine",
    "device.round": "engine",
    "engine.straight_to": "engine",
    "engine.local_steps": "engine",
    "backend.compile": "kernels",
    "backend.prepare": "kernels",
    "backend.run_local_steps": "kernels",
    "backend.select_straight": "kernels",
    "backend.flip": "kernels",
    "backend.update_best": "kernels",
    "op": "client",
}
LAYERS = ("service", "fleet", "solver", "host", "exchange", "engine", "kernels")

_active: "Recorder | None" = None
_fork_hook_registered = False


def _after_fork_in_child() -> None:
    if _active is not None:
        _active.reset_in_child()


class Recorder:
    """In-memory spans, folded kernel totals and setup probes."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = Path(run_dir)
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.tracing = False
        self.current_op: int | None = None
        self.spans: list[list[Any]] = []
        self.probes: list[tuple[str, int, int]] = []  # (name, t, pid)
        self.folds: dict[str, list[int]] = {}  # name -> [calls, ns, extra]
        self._local = threading.local()
        self._client_stack: list[list[Any]] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- bookkeeping ----------------------------------------------------
    def _stack(self) -> list[list[Any]]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def reset_in_child(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.probes = []
        self.folds = {}
        self._local = threading.local()
        self._client_stack = []

    def open(self, name: str) -> list[Any]:
        stack = self._stack()
        if stack:
            parent = stack[-1][SID]
        elif self._client_stack and self.pid == self.main_pid:
            # A service dispatcher span: child of what the client waits in.
            parent = self._client_stack[-1][SID]
        else:
            parent = None
        span = [name, now(), 0, f"{self.pid}:{next(self._ids)}", parent,
                self.current_op, self.pid, 0]
        stack.append(span)
        return span

    def close(self, span: list[Any]) -> None:
        span[T1] = now()
        self._stack().pop()
        self.spans.append(span)

    def begin_op(self, op: int) -> list[Any]:
        """Root span of one benchmark op, on the client thread."""
        self.current_op = op
        span = self.open("op")
        self._client_stack = self._stack()
        return span

    def end_op(self, span: list[Any]) -> None:
        self.close(span)
        self._client_stack = []
        self.current_op = None

    def fold(self, name: str, dt: int, extra: int = 0) -> None:
        stack = self._stack()
        if stack:
            stack[-1][FOLDED] += dt
        tot = self.folds.get(name)
        if tot is None:
            tot = self.folds[name] = [0, 0, 0]
        tot[0] += 1
        tot[1] += dt
        tot[2] += extra

    def probe(self, name: str) -> None:
        self.probes.append((name, now(), self.pid))

    def flush_child(self) -> None:
        """Append a worker's records to the run directory and clear them."""
        if self.pid == self.main_pid:
            return
        path = self.run_dir / f"worker-{self.pid}.jsonl"
        with open(path, "a") as fh:
            fh.write(json.dumps({
                "spans": self.spans,
                "probes": self.probes,
                "folds": self.folds,
            }) + "\n")
        self.spans = []
        self.probes = []
        self.folds = {}

    def load_workers(self) -> tuple[list, list, dict]:
        """Every worker record flushed so far (and delete the files)."""
        spans: list = []
        probes: list = []
        folds: dict[str, list[int]] = {}
        for path in sorted(self.run_dir.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                spans.extend(rec["spans"])
                probes.extend(tuple(p) for p in rec["probes"])
                for name, tot in rec["folds"].items():
                    acc = folds.setdefault(name, [0, 0, 0])
                    for i in range(3):
                        acc[i] += tot[i]
            path.unlink()
        return spans, probes, folds

    def take(self) -> dict[str, Any]:
        """The pass's main-process and worker records; buffers are cleared."""
        wspans, wprobes, wfolds = self.load_workers()
        out = {
            "spans": self.spans + wspans,
            "probes": self.probes + wprobes,
            "folds_main": self.folds,
            "folds_worker": wfolds,
        }
        self.spans, self.probes, self.folds = [], [], {}
        return out

    # -- patching -------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, cls: type, attr: str, make: Callable) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def patch_function(self, fn: Callable, make: Callable) -> None:
        wrapped = make(fn)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def uninstall(self) -> None:
        global _active
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        if _active is self:
            _active = None

    # -- wrapper factories ------------------------------------------------
    def spanned(self, name: str, on_result: Callable | None = None) -> Callable:
        rec = self

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not rec.tracing:
                    return fn(*args, **kwargs)
                span = rec.open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec.close(span)
                if on_result is not None:
                    on_result(rec, out, args)
                return out

            return wrapper

        return make

    def folded(self, name: str, extra: Callable | None = None) -> Callable:
        rec = self

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not rec.tracing:
                    return fn(*args, **kwargs)
                t0 = now()
                out = fn(*args, **kwargs)
                rec.fold(name, now() - t0, extra(out, args) if extra else 0)
                return out

            return wrapper

        return make

    def probed(self, name: str) -> Callable:
        """A span when tracing, and always a probe at the call's end."""
        rec = self

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                span = rec.open(name) if rec.tracing else None
                try:
                    out = fn(*args, **kwargs)
                finally:
                    if span is not None:
                        rec.close(span)
                rec.probe(name)
                return out

            return wrapper

        return make

    def flushing(self) -> Callable:
        rec = self

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.flush_child()

            return wrapper

        return make


def _flip_bytes(out: Any, args: tuple) -> int:
    """Computed bytes a flip call moves (not measured traffic).

    Dense: each of the ``m`` flips reads a weight row and one ``X`` row
    and reads and writes one ``delta`` row.  Sparse: each of the
    ``updates`` delta writes reads one CSR value and index and reads and
    writes one delta entry.
    """
    _self, pw, X, delta, _energy, ids, _ks = args[:7]
    if pw.dense is not None:
        row = pw.dense.itemsize + X.itemsize + 2 * delta.itemsize
        return len(ids) * pw.n * row
    return int(out) * (pw.data.itemsize + pw.indices.itemsize + 2 * delta.itemsize)


def install(run_dir: Path) -> Recorder:
    """Patch every layer boundary; returns the (untraced) recorder."""
    global _active, _fork_hook_registered
    from repro.abs import fleet as fleet_mod
    from repro.abs.device import DeviceSimulator
    from repro.abs.exchange import ShmHostTransport, ShmWorkerEndpoint
    from repro.abs.host import Host
    from repro.abs.solver import AdaptiveBulkSearch
    from repro.backends.base import KernelBackend
    from repro.backends.bitplane import BitplaneBackend
    from repro.backends.numpy_backend import NumpyBackend
    from repro.gpusim.engine import BulkSearchEngine
    from repro.qubo import io as qio
    from repro.service.core import SolverService

    rec = Recorder(run_dir)
    if _active is not None:
        _active.uninstall()
    _active = rec
    if not _fork_hook_registered:
        os.register_at_fork(after_in_child=_after_fork_in_child)
        _fork_hook_registered = True

    # Probes (always on) — the two ends of set-up.
    rec.patch_method(Host, "initial_targets", rec.probed("host.initial_targets"))
    rec.patch_method(DeviceSimulator, "__init__", rec.probed("device.init"))
    rec.patch_function(fleet_mod.run_device_rounds, rec.flushing())

    def weights_hit(r: Recorder, out: Any, _args: tuple) -> None:
        r.fold("fleet.weights_hit", 0, int(bool(out[1])))

    def poll_empty(r: Recorder, out: Any, _args: tuple) -> None:
        r.fold("exchange.poll_empty", 0, int(out is None))

    spans = [
        (SolverService, "submit", "service.submit", None),
        (SolverService, "result", "service.result", None),
        (fleet_mod.WorkerFleet, "start", "fleet.start", None),
        (fleet_mod.WorkerFleet, "arm_job", "fleet.arm_job", None),
        (fleet_mod.WorkerFleet, "shutdown", "fleet.shutdown", None),
        (fleet_mod.WorkerFleet, "weights_ref_for", "fleet.weights_ref_for", weights_hit),
        (AdaptiveBulkSearch, "solve", "solver.solve", None),
        (AdaptiveBulkSearch, "solve_on_fleet", "solver.solve_on_fleet", None),
        (Host, "make_targets", "host.make_targets", None),
        (Host, "absorb_batch", "host.absorb_batch", None),
        (ShmHostTransport, "poll", "exchange.poll", poll_empty),
        (ShmWorkerEndpoint, "fetch_targets", "worker.fetch_targets", None),
        (ShmWorkerEndpoint, "publish", "worker.publish", None),
        (DeviceSimulator, "round", "device.round", None),
        (BulkSearchEngine, "straight_to", "engine.straight_to", None),
        (BulkSearchEngine, "local_steps", "engine.local_steps", None),
        (BitplaneBackend, "ensure_compiled", "backend.compile", None),
    ]
    for owner, attr, name, on_result in spans:
        rec.patch_method(owner, attr, rec.spanned(name, on_result))
    for cls in (KernelBackend, NumpyBackend, BitplaneBackend):
        for attr in ("prepare_dense", "prepare_sparse"):
            if attr in cls.__dict__:
                rec.patch_method(cls, attr, rec.spanned("backend.prepare"))
        if "run_local_steps" in cls.__dict__:
            rec.patch_method(cls, "run_local_steps",
                             rec.spanned("backend.run_local_steps"))
        for attr in ("select_straight", "update_best"):
            if attr in cls.__dict__:
                rec.patch_method(cls, attr, rec.folded(f"backend.{attr}"))
        if "flip" in cls.__dict__:
            rec.patch_method(cls, "flip", rec.folded("backend.flip", _flip_bytes))
    rec.patch_function(qio.problem_digest, rec.spanned("qubo.problem_digest"))
    rec.patch_function(qio.run_digest, rec.spanned("qubo.run_digest"))
    return rec
