"""Traced runs: wrap public functions from outside and keep spans in memory.

Nothing here edits the program.  :class:`Recorder` replaces public methods
and functions of ``repro`` with timing wrappers for the life of the process
(traced runs only), records one span per call — layer name, start, end,
parent span, thread, and the request it served — and writes the list out
once, at exit.  The load process then joins server spans with its own
client-side timings by request id and computes per-layer figures.

A span's *self time* is its duration minus that of its direct children;
a layer's *time* sums only its outermost spans, so recursion within one
layer (``sse`` calling ``solve``) is not counted twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# Span tuple fields.
SID, PARENT, LAYER, T0, T1, TID, REQ, NESTED = range(8)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    # ------------------------------------------------------------ recording

    def _frame(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack, loc.depth, loc.req = [], defaultdict(int), None
        return loc

    def set_request(self, req) -> None:
        self._frame().req = req

    def record(self, layer: str, t0: float, t1: float) -> None:
        """A span with explicit bounds (lock hold, request handling).

        It overlaps calls rather than nesting in them, so it has no parent
        and subtracts from no span's self time.
        """
        self.spans.append(
            (next(self._ids), 0, layer, t0, t1, threading.get_ident(),
             self._frame().req, False)
        )

    def wrap(self, layer: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            loc = rec._frame()
            sid = next(rec._ids)
            parent = loc.stack[-1] if loc.stack else 0
            nested = loc.depth[layer] > 0
            loc.stack.append(sid)
            loc.depth[layer] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                loc.stack.pop()
                loc.depth[layer] -= 1
                rec.spans.append(
                    (sid, parent, layer, t0, t1, threading.get_ident(),
                     loc.req, nested)
                )

        return traced

    def wrap_iter(self, layer: str, gen_fn):
        """Time each ``next()`` of the returned iterator, not the consumer."""
        rec = self

        @functools.wraps(gen_fn)
        def traced(*args, **kwargs):
            step = rec.wrap(layer, iter(gen_fn(*args, **kwargs)).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return traced

    # -------------------------------------------------------------- patching

    def patch_method(self, owner, attr: str, layer: str, kind: str = "call"):
        raw = owner.__dict__[attr]
        wrap = self.wrap_iter if kind == "iter" else self.wrap
        if isinstance(raw, classmethod):
            new = classmethod(wrap(layer, raw.__func__))
        else:
            new = wrap(layer, raw)
        setattr(owner, attr, new)

    def patch_function(self, fn, layer: str) -> None:
        """Rebind ``fn`` in every loaded module that imported it by name."""
        new = self.wrap(layer, fn)
        for module in list(sys.modules.values()):
            names = getattr(module, "__dict__", None)
            if not names:
                continue
            for name, value in list(names.items()):
                if value is fn:
                    setattr(module, name, new)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install_core(rec: Recorder) -> None:
    """Wrap the batch-path layers: storage, ml, core, incremental."""
    from repro.core import BasicBellwetherSearch, BellwetherCubeBuilder
    from repro.core.rowindex import RowIndex
    from repro.incremental import (
        IncrementalCubeMaintainer,
        SuffStatsCache,
        build_cube_tables,
    )
    from repro.ml import TrainingSetEstimator
    from repro.ml.suffstats import LinearSuffStats, RowProducts, StackedSuffStats
    from repro.storage import CubeTableStore, DiskStore, TrainingDataStore

    rec.patch_method(TrainingDataStore, "scan", "storage.scan", kind="iter")
    rec.patch_method(DiskStore, "read", "storage.read")
    rec.patch_method(DiskStore, "apply_delta", "storage.apply_delta")
    rec.patch_method(TrainingSetEstimator, "estimate", "ml.estimate")
    rec.patch_method(LinearSuffStats, "from_data", "ml.suffstats.from_data")
    rec.patch_method(StackedSuffStats, "rollup", "ml.suffstats.rollup")
    rec.patch_method(StackedSuffStats, "solve", "ml.suffstats.solve")
    rec.patch_method(StackedSuffStats, "sse", "ml.suffstats.solve")
    rec.patch_method(RowProducts, "__init__", "ml.rowproducts")
    rec.patch_method(RowProducts, "group", "ml.rowproducts")
    rec.patch_method(RowIndex, "rows_of", "core.rowindex.rows_of")
    for name in ("run", "evaluate_all", "refresh", "evaluate_from_tables"):
        rec.patch_method(BasicBellwetherSearch, name, f"core.basic.{name}")
    rec.patch_method(BellwetherCubeBuilder, "build", "core.cube.build")
    rec.patch_method(
        BellwetherCubeBuilder, "build_from_tables", "core.cube.build_from_tables"
    )
    rec.patch_method(
        IncrementalCubeMaintainer, "refresh", "incremental.maintainer.refresh"
    )
    rec.patch_method(
        IncrementalCubeMaintainer, "level_tables", "incremental.maintainer.level_tables"
    )
    rec.patch_method(SuffStatsCache, "save", "incremental.suffstats_cache.save")
    rec.patch_method(SuffStatsCache, "load", "incremental.suffstats_cache.load")
    rec.patch_method(
        SuffStatsCache, "load_versioned", "incremental.suffstats_cache.load"
    )
    rec.patch_method(CubeTableStore, "save", "storage.cubetables.save")
    rec.patch_method(CubeTableStore, "load", "storage.cubetables.load")
    rec.patch_function(build_cube_tables, "incremental.build_cube_tables")


def install_serve(rec: Recorder) -> None:
    """Core layers plus the HTTP handler, ServerState and the RW lock."""
    from http.server import BaseHTTPRequestHandler

    from repro.serve.locks import RWLock
    from repro.serve.state import ServerState

    install_core(rec)
    for name in (
        "bellwether", "predict", "regions_info", "cube_info", "model_info",
        "metricsz", "apply_delta",
    ):
        rec.patch_method(ServerState, name, f"serve.state.{name}")
    rec.patch_method(RWLock, "acquire_read", "serve.locks.read_wait")

    acquire_write = RWLock.acquire_write
    release_write = RWLock.release_write
    timed_acquire = rec.wrap("serve.locks.write_wait", acquire_write)

    def traced_acquire_write(self, *args, **kwargs):
        timed_acquire(self, *args, **kwargs)
        rec._frame().write_held_at = time.perf_counter()

    def traced_release_write(self):
        held_at = getattr(rec._frame(), "write_held_at", None)
        released = time.perf_counter()
        release_write(self)
        if held_at is not None:
            rec.record("serve.locks.write_hold", held_at, released)

    RWLock.acquire_write = traced_acquire_write
    RWLock.release_write = traced_release_write

    # The handler span starts once the request line has arrived (parse_request
    # runs right after it is read) so keep-alive idle time is excluded; the
    # client's X-Bench-Request header tags every span the request causes.
    parse_request = BaseHTTPRequestHandler.parse_request
    handle_one = BaseHTTPRequestHandler.handle_one_request

    def traced_parse_request(self):
        frame = rec._frame()
        frame.handler_t0 = time.perf_counter()
        ok = parse_request(self)
        if ok:
            frame.req = self.headers.get("X-Bench-Request")
        return ok

    def traced_handle_one_request(self):
        frame = rec._frame()
        frame.handler_t0 = None
        try:
            handle_one(self)
        finally:
            if frame.handler_t0 is not None:
                rec.record("serve.app.handler", frame.handler_t0, time.perf_counter())
            frame.req = None

    BaseHTTPRequestHandler.parse_request = traced_parse_request
    BaseHTTPRequestHandler.handle_one_request = traced_handle_one_request


# ---------------------------------------------------------------- analysis


class SpanIndex:
    """Spans loaded back for analysis: children, self time, layer totals."""

    def __init__(self, spans) -> None:
        self.spans = [tuple(s) for s in spans]
        self.children: dict[int, list[tuple]] = defaultdict(list)
        for s in self.spans:
            if s[PARENT]:
                self.children[s[PARENT]].append(s)

    @staticmethod
    def dur_ms(s) -> float:
        return (s[T1] - s[T0]) * 1000.0

    def self_ms(self, s) -> float:
        return self.dur_ms(s) - sum(self.dur_ms(c) for c in self.children[s[SID]])

    def has_descendant(self, s, layer: str) -> bool:
        todo = list(self.children[s[SID]])
        while todo:
            c = todo.pop()
            if c[LAYER] == layer:
                return True
            todo.extend(self.children[c[SID]])
        return False


def core_layer_metrics(index: SpanIndex, reqs, counters: dict) -> dict:
    """Storage, ml, incremental and cube layer metrics (serve and batch).

    ``reqs`` selects the spans of the measured operations by request id
    (None = every span in ``index``); ``counters`` are registry deltas over
    the same operations.
    """

    def spans(layer):
        return [
            s for s in index.spans
            if s[LAYER] == layer and (reqs is None or s[REQ] in reqs)
        ]

    def total(layer):
        return float(sum(index.dur_ms(s) for s in spans(layer) if not s[NESTED]))

    hits = counters.get("cube.tables.hits", 0)
    misses = counters.get("cube.tables.misses", 0)
    return {
        "storage.scan_ms": (total("storage.scan"), "ms"),
        "store.full_scans": (counters.get("store.full_scans", 0), "count"),
        "store.region_reads": (counters.get("store.region_reads", 0), "count"),
        "store.bytes_read": (counters.get("store.bytes_read", 0), "bytes"),
        "ml.estimate_ms": (total("ml.estimate"), "ms"),
        "ml.linear.fits": (counters.get("ml.linear.fits", 0), "count"),
        "ml.suffstats.from_data_ms": (total("ml.suffstats.from_data"), "ms"),
        "ml.suffstats.from_data.count": (len(spans("ml.suffstats.from_data")), "count"),
        "ml.suffstats.rollup_ms": (total("ml.suffstats.rollup"), "ms"),
        "ml.suffstats.rollup_calls": (len(spans("ml.suffstats.rollup")), "count"),
        "ml.suffstats.solve_ms": (total("ml.suffstats.solve"), "ms"),
        "ml.linear.batched_problems": (counters.get("ml.linear.batched_problems", 0), "count"),
        "ml.rowproducts_ms": (total("ml.rowproducts"), "ms"),
        "core.rowindex.rows_of_ms": (total("core.rowindex.rows_of"), "ms"),
        "incremental.build_cube_tables_ms": (total("incremental.build_cube_tables"), "ms"),
        "incr.cells_resolved": (counters.get("incr.cells_resolved", 0), "count"),
        "incremental.tables_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "incremental.suffstats_cache.save_ms": (total("incremental.suffstats_cache.save"), "ms"),
        "incremental.suffstats_cache.load_ms": (total("incremental.suffstats_cache.load"), "ms"),
        "storage.cubetables.save_ms": (total("storage.cubetables.save"), "ms"),
        "storage.cubetables.load_ms": (total("storage.cubetables.load"), "ms"),
        "cube.tables.bytes_written": (counters.get("cube.tables.bytes_written", 0), "bytes"),
        "cube.tables.bytes_read": (counters.get("cube.tables.bytes_read", 0), "bytes"),
        "core.cube.build_ms": (total("core.cube.build"), "ms"),
        "core.cube.build_from_tables_ms": (total("core.cube.build_from_tables"), "ms"),
    }
