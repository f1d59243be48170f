"""Training-data storage: in-memory and disk-resident region blocks.

Stores are versioned: :meth:`TrainingDataStore.apply_delta` absorbs appended
or retracted training rows (see :mod:`repro.storage.delta`) and bumps a
monotone ``version`` that downstream caches — notably the incremental
suffstats cache of :mod:`repro.incremental` — key on.

The on-disk store is :class:`DiskStore`: one ``.npz`` per region plus a
JSON manifest (regions in scan order, row counts, version), opened with
``DiskStore(directory)``.  :func:`region_to_json` / :func:`region_from_json`
are the region codec every JSON file of this package uses.
:mod:`repro.storage.cubetables` persists per-level suffstats cube tables
next to it.
"""

from .block_store import (
    BlockWriter,
    DiskStore,
    FilteredStore,
    MemoryStore,
    RegionBlock,
    StorageError,
    TrainingDataStore,
    region_from_json,
    region_to_json,
)
from .cubetables import CubeTableStore, LevelTable, StaleCacheError
from .delta import AppliedDelta, BlockDelta, StoreDelta, apply_block_delta
from .stats import IOStats

__all__ = [
    "AppliedDelta",
    "BlockDelta",
    "BlockWriter",
    "CubeTableStore",
    "DiskStore",
    "FilteredStore",
    "IOStats",
    "LevelTable",
    "MemoryStore",
    "RegionBlock",
    "StaleCacheError",
    "StorageError",
    "StoreDelta",
    "TrainingDataStore",
    "apply_block_delta",
    "region_from_json",
    "region_to_json",
]
