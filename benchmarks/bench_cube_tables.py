"""Materialized cube tables on the npz store: warm builds must be cheap.

The fig11 out-of-core configuration, shrunk to bench scale: the entire
training data is streamed to an npz store, the optimized cube is built cold
(one full fact scan), the per-level suffstats tables are materialized once,
and then the warm path — load tables + one batched solve per level — is
timed against the scratch build.  The warm path must read **zero** fact
rows and reproduce the scratch cube bit for bit; at the full 10M-row fig11f
scale the same path is journaled at >= 10x (see EXPERIMENTS.md), here a
conservative 3x gates regressions.
"""

import time

from repro.core import BellwetherCubeBuilder
from repro.datasets import write_scalability
from repro.experiments import render_grid
from repro.incremental import build_cube_tables
from repro.obs import get_registry

from .conftest import publish


def _counter(name: str) -> int:
    return int(get_registry().counter_values().get(name, 0))


def test_bench_cube_tables_warm_vs_scratch(benchmark, tmp_path):
    """Warm table build >= 3x faster than a scratch npz cube build."""
    ds = write_scalability(
        tmp_path / "store", n_items=400, n_regions=48, seed=0, backend="npz"
    )
    builder = BellwetherCubeBuilder(
        ds.task, ds.store, ds.hierarchies, min_subset_size=50
    )
    start = time.perf_counter()
    scratch = builder.build(method="optimized")
    scratch_s = time.perf_counter() - start
    start = time.perf_counter()
    build_cube_tables(builder, tmp_path / "tables")
    tables_s = time.perf_counter() - start

    # warm path: tables hit + batched replay
    scans_before = _counter("store.full_scans")
    reads_before = _counter("store.region_reads")
    start = time.perf_counter()
    tables = build_cube_tables(builder, tmp_path / "tables")
    warm_cube = builder.build_from_tables(tables)
    warm_s = time.perf_counter() - start
    assert _counter("store.full_scans") == scans_before
    assert _counter("store.region_reads") == reads_before

    # bit-for-bit: warm == scratch
    assert scratch.subsets == warm_cube.subsets
    for subset in scratch.subsets:
        a, b = scratch.entry(subset), warm_cube.entry(subset)
        assert a.region == b.region
        if a.error is not None:
            assert (a.error.rmse, a.error.sse, a.error.dof) == (
                b.error.rmse, b.error.sse, b.error.dof
            )

    speedup = scratch_s / warm_s
    publish(
        "cube_tables_warm",
        render_grid(
            "npz store — warm cube tables vs scratch build (seconds)",
            ("scratch_s", "tables_s", "warm_s", "speedup"),
            [(scratch_s, tables_s, warm_s, speedup)],
        ),
    )
    assert scratch_s > 3 * warm_s

    def _one_warm_build():
        builder.build_from_tables(build_cube_tables(builder, tmp_path / "tables"))

    benchmark.pedantic(_one_warm_build, rounds=1, iterations=1)
