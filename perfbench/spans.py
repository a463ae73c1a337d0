"""Span tracer for the traced benchmark run.

Every public function of a twirlkit module is wrapped in each module
namespace where a caller looks it up: ``twirl.sample_haar_batch`` is haar as
seen by twirl, ``twirl.estimate_y3`` (reached as ``cli.twirl.estimate_y3``) is
twirl as seen by the CLI.  A call opens a span only when it crosses a layer
boundary, i.e. when the innermost open span belongs to another layer, and
only while an op is running.  Spans are ``{name, start, end, parent, op_id}``
records kept in memory; counters measured at the boundary ride on the span.

Nothing under ``src/`` is changed: the wrappers are installed for the traced
phase and removed afterwards.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
import time
import tracemalloc
import types
from contextlib import contextmanager

LAYERS = ("cli", "states", "stateio", "haar", "twirl", "reconstruct", "weingarten", "criteria")


def _is_public_function(name: str, obj) -> bool:
    if name.startswith("_"):
        return False
    if not (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
        return False
    return getattr(obj, "__module__", "").startswith("twirlkit.")


def _boundary_counts(layer: str, name: str, args, kwargs) -> dict:
    """Work counts read off a call's arguments at the layer boundary."""
    if layer == "haar":
        count = args[1] if len(args) > 1 else kwargs.get("count", 1)
        return {"unitaries": count if name == "sample_haar_batch" else 1}
    if layer == "stateio" and name == "load_state":
        try:
            return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}
        except OSError:  # the program reports the unreadable file itself
            return {"bytes": 0}
    return {}


class Tracer:
    """Wraps twirlkit's public functions and records spans of running ops."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[tuple[int, str]] = []
        self._main_thread = threading.main_thread()
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                if _is_public_function(name, obj):
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, self._wrap(layer, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _caller(self, stack) -> tuple[int, str] | None:
        # a worker thread's first span is caused by the main thread's
        # innermost span (the pool is started from inside it)
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def _open(self, name: str, layer: str, parent: int | None, stack) -> dict:
        span = {"id": next(self._ids), "name": name, "layer": layer,
                "parent": parent, "op_id": self.op_id, "start": time.perf_counter()}
        stack.append((span["id"], layer))
        return span

    def _close(self, span: dict, stack) -> None:
        span["end"] = time.perf_counter()
        stack.pop()
        self.spans.append(span)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; wrapped calls record spans only inside it."""
        self.op_id = op_id
        stack = self._main_stack
        span = self._open("op", "op", None, stack)
        try:
            yield
        finally:
            self._close(span, stack)
            self.op_id = None

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            caller = tracer._caller(stack)
            if caller is not None and caller[1] == layer:
                return fn(*args, **kwargs)
            counts = _boundary_counts(layer, name, args, kwargs)
            span = tracer._open(f"{layer}.{name}", layer, caller and caller[0], stack)
            span.update(counts)
            if layer == "twirl" and name.startswith("estimate_y"):
                return tracer._run_estimate(span, stack, name, fn, args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span, stack)

        return wrapper

    def _run_estimate(self, span, stack, name, fn, args, kwargs):
        rho = args[0] if args else kwargs["rho"]
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        order = 3 if name == "estimate_y3" else 2
        t = rho.dims.total
        batch = min(cfg.batch_size, cfg.n_unitaries)
        n_comp = 10 if order == 3 else 2**rho.dims.n_parties
        span["chunks"] = -(-cfg.n_unitaries // cfg.batch_size)
        # computed from array shapes of the current algorithm: the float64
        # (B, t**order) product tensor plus the (t**order, n_comp) class matrix
        span["chunk_bytes"] = 8 * (batch * t**order + t**order * n_comp)
        tracemalloc.start()
        cpu0 = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            span["cpu_s"] = time.process_time() - cpu0
            span["peak_alloc_b"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self._close(span, stack)


# ---------------------------------------------------------------------------
# deriving per-layer metrics from spans
# ---------------------------------------------------------------------------

def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(s["start"], s["end"], children.get(s["id"], []))
        for s in spans
    }


def layer_metrics(spans: list[dict], n_ops: int) -> dict[str, float]:
    """Per-op layer metrics (sums divided by ``n_ops``; maxima for sizes)."""
    selfs = self_times(spans)
    m: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s["layer"] == layer]
        m[f"{layer}.self_s"] = math.fsum(selfs[s["id"]] for s in mine) / n_ops
        m[f"{layer}.calls"] = len(mine) / n_ops
    haar = [s for s in spans if s["layer"] == "haar"]
    m["haar.unitaries"] = sum(s["unitaries"] for s in haar) / n_ops
    est = [s for s in spans if "chunks" in s]
    m["twirl.chunks"] = sum(s["chunks"] for s in est) / n_ops
    m["twirl.chunk_bytes_computed"] = max((s["chunk_bytes"] for s in est), default=0)
    m["twirl.peak_alloc_mb"] = max((s["peak_alloc_b"] for s in est), default=0) / 2**20
    wall = math.fsum(s["end"] - s["start"] for s in est)
    m["twirl.cpu_per_wall"] = math.fsum(s["cpu_s"] for s in est) / wall if wall else 0.0
    loads = [s for s in spans if "bytes" in s]
    m["stateio.load_s"] = math.fsum(s["end"] - s["start"] for s in loads) / n_ops
    m["stateio.bytes_read"] = sum(s["bytes"] for s in loads) / n_ops
    return m
