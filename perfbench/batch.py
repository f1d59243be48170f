"""The ``batch_build`` workload: the cube pipeline in process, no server.

Set-up generates a seeded scalability store of 1,500,000 rows (2,500 items
x 600 regions) on npz with ``write_scalability``, ``SETUP_GENERATIONS``
times; ``setup_s`` is the median.  (At 1.5 M rather than 2.5 M rows a run
stays near 40 s, and the table-build versus cold-build gap already shows.)  Then ``ROUNDS`` rounds over the last
store, so that every operation kind is sampled across the whole run:

1. ``BellwetherCubeBuilder.build("optimized")``, cold;
2. ``build_cube_tables(skip_existing=False)`` into a fresh directory;
3. warm loads: ``build_cube_tables`` (a table hit) plus ``build_from_tables``;
4. one retract-then-reappend delta, then ``build_cube_tables`` plus
   ``build_from_tables`` (the refresh).

A final cold build closes the run, and an untimed table build from
scratch after it.  Every warm cube must equal the round's cold cube, and
every refreshed cube the next scratch ``build("optimized")``, under
``assert_same_cube`` EXACT; every refresh's tables must equal, bit for bit,
the next from-scratch ``build_cube_tables``.  A delta changes the data
(:func:`common.make_deltas`), so each refresh must have re-solved at least
every solvable cell whose statistics differ between the table builds
before and after it, and read at most the one region it touches.  One full
scan per cold or table build, none in warm loads or refreshes.

``WARM_PER_SECOND``: the repo records no ratio of warm loads to rebuilds,
so the count is set for the samples: 5 warm loads per round at 8 seconds
(0.6 per second) give 35 a run, enough for a steady median and for a tail
percentile with 10 samples beyond it, while warm loads take under a tenth
of the run time.
"""

from __future__ import annotations

import bisect
import shutil
import time
from collections import defaultdict
from pathlib import Path

from common import (
    PROBE_RUNS,
    SpeedProbe,
    cell_stats,
    changed_cells,
    make_deltas,
    median,
    scaled,
    self_peak_rss_mb,
    tables_digest,
    tail,
)
from run import GAP_LAYERS

N_ITEMS = 2_500
N_REGIONS = 600  # a 24 x 25 grid
MIN_SUBSET_SIZE = 50
SETUP_GENERATIONS = 7
ROUNDS = 7
WARM_PER_SECOND = 0.6


def _counters():
    from repro.obs.metrics import get_registry

    return get_registry().counter_values()


def _diff(after: dict, before: dict) -> dict:
    return {k: after.get(k, 0) - before.get(k, 0) for k in set(after) | set(before)}


def run(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from repro.datasets import write_scalability

    recorder = None
    if trace:
        from spans import Recorder, install_core

        recorder = Recorder()
        install_core(recorder)
    import repro.incremental as incremental
    from repro.core import BellwetherCubeBuilder
    from repro.exceptions import VerificationError
    from repro.verify import assert_same_cube

    # Every timed operation here is CPU work in this process, so every time
    # is its CPU time at reference host speed (common.SpeedProbe).
    probe = SpeedProbe()
    setup, setup_cpu, setup_scaled = [], [], []
    for k in range(SETUP_GENERATIONS):
        if k:
            shutil.rmtree(work / f"store{k - 1}")
        ds, elapsed, cpu, at_ref = probe.measure(
            lambda: write_scalability(
                work / f"store{k}", n_items=N_ITEMS, n_regions=N_REGIONS,
                seed=seed, backend="npz",
            ),
            runs=PROBE_RUNS,
        )
        setup.append(elapsed)
        setup_cpu.append(cpu)
        setup_scaled.append(at_ref)
    builder = BellwetherCubeBuilder(
        ds.task, ds.store, ds.hierarchies, min_subset_size=MIN_SUBSET_SIZE
    )
    # Fixed before timing: rows come from the version-0 blocks.
    deltas = make_deltas(ds.store, seed, ROUNDS)

    ops: list[dict] = []
    errors: list[str] = []

    def timed(kind: str, fn):
        probe_before = probe.time()
        before = _counters()
        cpu, t0 = time.process_time(), time.perf_counter()
        out = fn()
        t1, cpu = time.perf_counter(), time.process_time() - cpu
        counters = _diff(_counters(), before)
        ops.append({
            "kind": kind, "t0": t0, "t1": t1, "counters": counters, "cpu": cpu,
            "scaled": scaled(cpu, probe_before, probe.time()),
        })
        return out

    def same(label, oracle, candidate):
        try:
            assert_same_cube(oracle, candidate)
        except VerificationError as exc:
            errors.append(f"{label}: {str(exc)[:300]}")
            return False
        return True

    counters_start = _counters()
    n_warm = max(2, int(round(WARM_PER_SECOND * seconds)))
    wrong = 0
    refreshed = None

    def check_refresh(r, scratch):
        """Round ``r``'s refresh against the scratch table build after it.

        Only digests and per-cell arrays of the table sets are kept between
        the builds, so the checks add little to the peak RSS.
        """
        nonlocal wrong
        refresh_digest, __, before_cells, counters = refreshed
        problems = []
        if refresh_digest != tables_digest(scratch):
            problems.append("tables differ from the scratch build")
        changed = changed_cells(before_cells, cell_stats(scratch), builder.min_examples)
        if changed == 0:
            problems.append("changed no solvable cell")
        if counters.get("incr.cells_resolved", 0) < changed:
            problems.append(f"re-solved {counters.get('incr.cells_resolved', 0)} of {changed} changed cells")
        if counters.get("store.region_reads", 0) > 1:
            problems.append(f"{counters['store.region_reads']} region reads for one region")
        if problems:
            wrong += 1
            errors.append(f"refresh {r}: {'; '.join(problems)}")

    for r, delta in enumerate(deltas):
        cold = timed("cold", lambda: builder.build(method="optimized"))
        if refreshed is not None and not same("refreshed tables cube vs scratch build", cold, refreshed[1]):
            wrong += 1
        tables_dir = work / f"tables{r}"
        tables = timed(
            "table_build",
            lambda: incremental.build_cube_tables(builder, tables_dir, skip_existing=False),
        )
        if refreshed is not None:
            check_refresh(r - 1, tables)
        if r:
            shutil.rmtree(work / f"tables{r - 1}")

        def warm_load():
            return builder.build_from_tables(incremental.build_cube_tables(builder, tables_dir))

        for __ in range(n_warm):
            if not same("warm load vs cold build", cold, timed("read", warm_load)):
                wrong += 1

        def refresh():
            ds.store.apply_delta(delta)
            refreshed_tables = incremental.build_cube_tables(builder, tables_dir)
            return refreshed_tables, builder.build_from_tables(refreshed_tables)

        refreshed_tables, refreshed_cube = timed("refresh", refresh)
        refreshed = (
            tables_digest(refreshed_tables), refreshed_cube, cell_stats(tables), ops[-1]["counters"]
        )
        del refreshed_tables, tables
    final = timed("cold", lambda: builder.build(method="optimized"))
    if not same("final tables cube vs scratch build", final, refreshed[1]):
        wrong += 1
    # Before the untimed check build below, which is not the workload's.
    peak_rss_mb = self_peak_rss_mb()
    counters = _diff(_counters(), counters_start)
    check_refresh(
        ROUNDS - 1,
        incremental.build_cube_tables(builder, work / "tables_final", skip_existing=False),
    )
    expected_scans = {"cold": 1, "table_build": 1, "read": 0, "refresh": 0}
    for op in ops:
        scans = op["counters"].get("store.full_scans", 0)
        if scans != expected_scans[op["kind"]]:
            wrong += 1
            errors.append(f"{op['kind']}: {scans} full scans, expected {expected_scans[op['kind']]}")

    def e2e_times(setup_s, ms_of):
        reads = ms_of("read")
        q, p_tail = tail(reads)
        return q, {
            "setup_s": (median(setup_s), "s"),
            "read_p50_ms": (median(reads), "ms"),
            "read_p99_ms": (p_tail, "ms"),
            "read_rps": (len(reads) / (sum(reads) / 1000.0), "1/s"),
            "cold_p50_ms": (median(ms_of("cold")), "ms"),
            "refresh_p50_ms": (median(ms_of("refresh")), "ms"),
            "table_build_s": (median(ms_of("table_build")) / 1000.0, "s"),
        }

    def durations(kind):
        return [(op["t1"] - op["t0"]) * 1000.0 for op in ops if op["kind"] == kind]

    def of(key):
        return lambda kind: [op[key] * 1000.0 for op in ops if op["kind"] == kind]

    q, e2e = e2e_times(setup_scaled, of("scaled"))
    e2e["peak_rss_mb"] = (peak_rss_mb, "MB")
    extra = {f"{name}.wall": value for name, value in e2e_times(setup, durations)[1].items()}
    extra.update(
        (f"{name}.cpu", value) for name, value in e2e_times(setup_cpu, of("cpu"))[1].items()
    )
    extra["host.probe_ms"] = (probe.probe_ms(), "ms")
    reads = durations("read")
    # Speed probes count as operations: one run beside other threads' work fails.
    errors += probe.contention_errors("batch")
    wrong += len(probe.contended)
    attempted = len(ops) + len(probe.samples)
    extra["cold_build_s"] = (e2e["cold_p50_ms"][0] / 1000.0, "s")
    extra["warm_load_s"] = (e2e["read_p50_ms"][0] / 1000.0, "s")
    extra["error_rate"] = (wrong / attempted, "ratio")
    notes = {
        "read_p99_ms": f"p{q * 100:.1f} of {len(reads)} warm loads",
        "cold_p50_ms": f"{len(durations('cold'))} cold builds",
        "refresh_p50_ms": f"{len(durations('refresh'))} deltas",
        "setup_s": f"median of {len(setup)} generations of {ds.n_examples_total} rows",
    }
    layers = {}
    if recorder is not None:
        layers = _layer_metrics(recorder.spans, ops, counters)
    return {
        "e2e": e2e, "extra": extra, "layers": layers, "notes": notes,
        "attempted": attempted, "failed": wrong, "errors": errors,
    }


def _layer_metrics(raw_spans, ops, counters) -> dict:
    from spans import LAYER, T0, T1, SpanIndex, core_layer_metrics

    # Keep only spans inside measured operations (set-up is excluded) and
    # note which operation each belongs to; operations do not overlap.
    starts = [op["t0"] for op in ops]
    kept, owner = [], []
    for s in raw_spans:
        i = bisect.bisect_right(starts, s[T0]) - 1
        if i >= 0 and s[T1] <= ops[i]["t1"]:
            kept.append(s)
            owner.append(i)
    index = SpanIndex(kept)
    out = core_layer_metrics(index, None, counters)
    for kind in ("read", "cold", "refresh", "table_build"):
        kind_ops = [op for op in ops if op["kind"] == kind]
        for name in ("store.full_scans", "store.region_reads"):
            per = sum(op["counters"].get(name, 0) for op in kind_ops) / len(kind_ops)
            out[f"{name}.per_{kind}"] = (per, "count")

    self_ms = defaultdict(float)
    for s, i in zip(index.spans, owner):
        self_ms[(i, s[LAYER])] += index.self_ms(s)

    def split(kind):
        """Mean self time per layer, and mean duration, over ``kind`` ops."""
        idx = [i for i, op in enumerate(ops) if op["kind"] == kind]
        layers = defaultdict(float)
        for (i, layer), ms in self_ms.items():
            if i in idx:
                layers[layer] += ms / len(idx)
        total = sum((ops[i]["t1"] - ops[i]["t0"]) * 1000.0 for i in idx)
        return layers, total / len(idx)

    cold_layers, cold_ms = split("cold")
    table_layers, table_ms = split("table_build")
    gap = table_ms - cold_ms
    out["batch.gap_ms"] = (gap, "ms")
    attributed = 0.0
    for layer in GAP_LAYERS:
        d = table_layers[layer] - cold_layers[layer]
        attributed += d
        out[f"batch.gap.{layer}_ms"] = (d, "ms")
    out["batch.gap.other_ms"] = (gap - attributed, "ms")
    return out
