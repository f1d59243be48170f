"""The served deployment, built identically by the launcher and the replay.

Mail-order dataset at the ``python -m repro.serve`` defaults (50 items,
8 months, dataset seed 0, K=5) on the npz backend, with the training-set
estimator so the materialized-tables warm path applies.  The deployment is
fixed; the benchmark seed drives the query mix, the never-seen subsets and
the delta stream.  Only public ``repro`` APIs are used.
"""

from __future__ import annotations

from pathlib import Path

N_ITEMS = 50
N_MONTHS = 8
DATASET_SEED = 0
MIN_SUBSET_SIZE = 5


def build_dataset():
    """(dataset, in-memory version-0 store, costs)."""
    from repro.core import build_store
    from repro.datasets import make_mailorder
    from repro.ml import TrainingSetEstimator

    ds = make_mailorder(
        n_items=N_ITEMS,
        n_months=N_MONTHS,
        seed=DATASET_SEED,
        error_estimator=TrainingSetEstimator(),
    )
    memory_store, costs, __ = build_store(ds.task)
    return ds, memory_store, costs


def spill(memory_store, root: Path):
    """The npz store under ``root``, a copy of the in-memory one."""
    from repro.storage import DiskStore

    return DiskStore.from_memory(root / "store", memory_store, backend="npz")


def make_state(ds, store, costs, root: Path):
    """The serving state over ``store``; builds its cube tables under ``root``."""
    from repro.serve.state import ServerState

    return ServerState(
        ds.task,
        store,
        ds.hierarchies,
        tables_dir=root / "tables",
        costs=costs,
        dataset_name="mailorder",
        min_subset_size=MIN_SUBSET_SIZE,
    )
