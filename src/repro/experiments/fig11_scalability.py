"""Figure 11: efficiency and scalability of the construction algorithms.

(a) With every training-data request served from disk (no caching), the
single-scan cube, optimized cube and RF tree beat the naive cube/tree by a
growing margin as the entire training data grows.
(b) Single-scan vs optimized cube runtime grows linearly in the number of
examples, with the optimized cube ahead.
(c) RF tree runtime grows linearly in the number of examples (it scans once
per level, vs once total for the cubes — the paper's noted gap).
(d) Execution-layer ablation (this reproduction's addition): per-pair serial
solves vs one batched solve per lattice level in the optimized cube, and
serial vs multi-worker basic-search evaluation.  Timings are journalled to
``BENCH_figures.json`` so the repo accumulates a trajectory.

Sizes are scaled to laptop budgets (the paper ran up to 10 M examples on a
2006 Pentium IV); the *linearity in the swept axis* and the algorithm
ordering are the reproduced claims.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.core import BasicBellwetherSearch, BellwetherCubeBuilder, BellwetherTreeBuilder
from repro.datasets import make_scalability, write_scalability
from repro.exceptions import ConfigError
from repro.exec import ParallelConfig
from repro.incremental import build_cube_tables
from repro.obs.bench import BenchJournal
from repro.obs.catalog import STORE_FULL_SCANS
from repro.obs.metrics import get_registry
from repro.storage import DiskStore
from repro.verify import assert_same_cube

from .tables import render_series


@dataclass
class ScalingResult:
    xs: tuple            # examples in the entire training data
    x_name: str
    series: dict[str, list[float]]  # algorithm -> seconds
    title: str

    def render(self) -> str:
        return render_series(self.title, self.x_name, self.xs, self.series)


def _best_of(fn, repeats: int = 2) -> float:
    """Minimum wall time over repeats — robust to transient machine load."""
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _cube_seconds(ds, store, method: str, min_subset_size: int = 50) -> float:
    builder = BellwetherCubeBuilder(
        ds.task, store, ds.hierarchies, min_subset_size=min_subset_size
    )
    return _best_of(lambda: builder.build(method=method))


def _tree_seconds(ds, store, method: str, **kwargs) -> float:
    builder = BellwetherTreeBuilder(
        ds.task,
        store,
        split_attrs=ds.task.item_feature_attrs,
        min_items=kwargs.pop("min_items", 100),
        max_depth=kwargs.pop("max_depth", 3),
        max_numeric_splits=kwargs.pop("max_numeric_splits", 4),
    )
    return _best_of(lambda: builder.build(method=method))


def run_fig11a(
    region_counts: tuple[int, ...] = (6, 10, 14),
    n_items: int = 400,
    seed: int = 0,
    scratch_dir: str | Path = "/tmp/repro_fig11a",
) -> ScalingResult:
    """Disk-resident comparison: naive vs scan-oriented algorithms."""
    series: dict[str, list[float]] = {
        "naive cube": [], "single-scan cube": [], "optimized cube": [],
        "naive tree": [], "RF tree": [],
    }
    xs = []
    for k, n_regions in enumerate(region_counts):
        ds = make_scalability(
            n_items=n_items, n_regions=n_regions, seed=seed,
            hierarchy_leaves=3,
        )
        disk = DiskStore.from_memory(
            Path(scratch_dir) / f"sz{n_regions}", ds.store
        )
        xs.append(ds.n_examples_total)
        series["naive cube"].append(_cube_seconds(ds, disk, "naive", min_subset_size=40))
        series["single-scan cube"].append(
            _cube_seconds(ds, disk, "single_scan", min_subset_size=40)
        )
        series["optimized cube"].append(
            _cube_seconds(ds, disk, "optimized", min_subset_size=40)
        )
        series["naive tree"].append(_tree_seconds(ds, disk, "naive"))
        series["RF tree"].append(_tree_seconds(ds, disk, "rf"))
    return ScalingResult(
        tuple(xs), "examples",
        series,
        title="Figure 11(a) — disk-resident: naive vs scan-oriented (seconds)",
    )


def run_fig11b(
    region_counts: tuple[int, ...] = (16, 32, 48, 64),
    n_items: int = 1_500,
    seed: int = 0,
) -> ScalingResult:
    """Cube algorithms scale linearly in the entire training data."""
    series: dict[str, list[float]] = {"single-scan cube": [], "optimized cube": []}
    xs = []
    for n_regions in region_counts:
        ds = make_scalability(
            n_items=n_items, n_regions=n_regions, seed=seed, hierarchy_leaves=3
        )
        xs.append(ds.n_examples_total)
        series["single-scan cube"].append(
            _cube_seconds(ds, ds.store, "single_scan", min_subset_size=50)
        )
        series["optimized cube"].append(
            _cube_seconds(ds, ds.store, "optimized", min_subset_size=50)
        )
    return ScalingResult(
        tuple(xs), "examples", series,
        title="Figure 11(b) — cube scalability in examples (seconds)",
    )


def run_fig11c(
    region_counts: tuple[int, ...] = (16, 32, 48, 64),
    n_items: int = 1_500,
    seed: int = 0,
) -> ScalingResult:
    """The RF tree also scales linearly (one scan per level)."""
    series: dict[str, list[float]] = {"RF tree": []}
    xs = []
    for n_regions in region_counts:
        ds = make_scalability(
            n_items=n_items, n_regions=n_regions, seed=seed, hierarchy_leaves=3
        )
        xs.append(ds.n_examples_total)
        series["RF tree"].append(_tree_seconds(ds, ds.store, "rf"))
    return ScalingResult(
        tuple(xs), "examples", series,
        title="Figure 11(c) — RF tree scalability in examples (seconds)",
    )


def run_fig11d(
    region_counts: tuple[int, ...] = (16, 32, 48),
    n_items: int = 1_500,
    workers: int = 4,
    seed: int = 0,
    journal_path: str | Path | None = "BENCH_figures.json",
) -> ScalingResult:
    """Execution-layer ablation: serial vs batched solves vs worker fan-out.

    Compares the optimized cube with per-pair serial solves
    (``method="optimized_serial"``) against the batched kernel
    (one ``np.linalg.solve`` per lattice level), and the basic search's
    region evaluation serially vs fanned over ``workers``.  All variants
    produce bit-identical bellwethers; only wall-clock differs.  Each point
    is appended to ``journal_path`` (pass ``None`` to skip journalling).
    """
    journal = (
        BenchJournal(journal_path, context={"figure": "fig11d", "workers": workers})
        if journal_path is not None
        else None
    )
    par = ParallelConfig(workers=workers)
    series: dict[str, list[float]] = {
        "optimized cube (serial solves)": [],
        "optimized cube (batched solves)": [],
        "basic search (serial)": [],
        f"basic search ({workers} workers)": [],
    }
    xs = []
    for n_regions in region_counts:
        ds = make_scalability(
            n_items=n_items, n_regions=n_regions, seed=seed, hierarchy_leaves=3
        )
        xs.append(ds.n_examples_total)

        def _search_seconds(cfg: ParallelConfig) -> float:
            # fresh search each run: evaluate_all caches its profile
            return _best_of(
                lambda: BasicBellwetherSearch(ds.task, ds.store).evaluate_all(
                    parallel=cfg
                )
            )

        points = {
            "optimized cube (serial solves)": _cube_seconds(
                ds, ds.store, "optimized_serial", min_subset_size=50
            ),
            "optimized cube (batched solves)": _cube_seconds(
                ds, ds.store, "optimized", min_subset_size=50
            ),
            "basic search (serial)": _search_seconds(ParallelConfig(workers=1)),
            f"basic search ({workers} workers)": _search_seconds(par),
        }
        for label, seconds in points.items():
            series[label].append(seconds)
            if journal is not None:
                journal.record(
                    f"fig11d.{label}",
                    seconds,
                    examples=ds.n_examples_total,
                    n_regions=n_regions,
                    workers=workers,
                )
    return ScalingResult(
        tuple(xs), "examples", series,
        title="Figure 11(d) — execution layer: serial vs batched vs parallel (seconds)",
    )


def run_fig11f(
    n_items: int = 2_500,
    n_regions: int = 4_032,
    seed: int = 0,
    min_subset_size: int = 50,
    scratch_dir: str | Path = "/tmp/repro_fig11f",
    journal_path: str | Path | None = "BENCH_figures.json",
) -> ScalingResult:
    """Out-of-core npz store and materialized cube tables at 10M rows.

    The paper's largest Figure 11 runs hit 10M examples — far past what the
    in-memory generator can hold.  This figure streams the entire training
    data to disk with :func:`~repro.datasets.write_scalability` (peak memory is
    one region block), then times:

    * ``generate`` — streaming dataset creation;
    * ``cold optimized cube`` — ``build("optimized")``, one full fact scan;
    * ``table build`` — :func:`~repro.incremental.build_cube_tables` from
      scratch (scan + persist the per-level suffstats tables);
    * ``warm build`` — ``build_cube_tables(skip_existing=True)`` hitting the
      persisted tables plus ``build_from_tables``; asserted to read **zero**
      facts and to reproduce the cold cube bit-for-bit.

    Every point is journalled under ``fig11f.npz.<stage>`` (pass
    ``journal_path=None`` to skip).  The reproduced claim: the warm table
    path is an order of magnitude faster than any scratch build because it
    replays Theorem 1 aggregates instead of rescanning facts.
    """
    journal = (
        BenchJournal(journal_path, context={"figure": "fig11f", "seed": seed})
        if journal_path is not None
        else None
    )
    full_scans = get_registry().counter(STORE_FULL_SCANS)
    base = Path(scratch_dir) / "npz"
    start = time.perf_counter()
    ds = write_scalability(
        base / "store", n_items=n_items, n_regions=n_regions, seed=seed
    )
    t_generate = time.perf_counter() - start

    builder = BellwetherCubeBuilder(
        ds.task, ds.store, ds.hierarchies, min_subset_size=min_subset_size
    )
    start = time.perf_counter()
    cold = builder.build(method="optimized")
    t_cold = time.perf_counter() - start

    start = time.perf_counter()
    build_cube_tables(builder, base / "tables", skip_existing=False)
    t_tables = time.perf_counter() - start

    scans_before = full_scans.value
    start = time.perf_counter()
    tables = build_cube_tables(builder, base / "tables", skip_existing=True)
    warm = builder.build_from_tables(tables)
    t_warm = time.perf_counter() - start
    if full_scans.value != scans_before:
        raise ConfigError(
            "fig11f warm build scanned the fact store; the persisted "
            "cube tables should have served it"
        )
    assert_same_cube(cold, warm)

    stages = ("generate", "cold optimized cube", "table build", "warm build")
    points = dict(zip(stages, (t_generate, t_cold, t_tables, t_warm)))
    if journal is not None:
        for stage, seconds in points.items():
            journal.record(
                f"fig11f.npz.{_FIG11F_STAGE_KEYS[stage]}",
                seconds,
                examples=ds.n_examples_total,
                n_regions=n_regions,
                n_items=n_items,
                backend="npz",
            )
    return ScalingResult(
        ("npz",), "backend",
        {stage: [seconds] for stage, seconds in points.items()},
        title=(
            "Figure 11(f) — out-of-core npz store & materialized cube tables "
            f"({ds.n_examples_total:,} examples, seconds)"
        ),
    )


_FIG11F_STAGE_KEYS = {
    "generate": "generate",
    "cold optimized cube": "cold_build",
    "table build": "table_build",
    "warm build": "warm_build",
}
