"""Persistent suffstats cache, keyed by store version.

Lives next to a :class:`~repro.storage.DiskStore` (or any directory): one
JSON metadata file (store version, region list, stack geometry) plus one
``.npz`` holding every region's per-base-cell :class:`StackedSuffStats`
concatenated.  A reopened maintainer warm-starts from it without a full
scan — but only when the on-disk version matches the store's, and only when
the files decode cleanly; anything else raises :class:`StaleCacheError` /
:class:`~repro.storage.StorageError` so the caller rebuilds instead of
serving stale or garbled statistics.

Thread safety: the query service (:mod:`repro.serve`) saves and loads this
cache from concurrent request threads.  Both files are written atomically
(temp + ``os.replace``), an instance lock serializes save/load, and the
store version is embedded in the data file and cross-checked against the
metadata on load — a meta/data pair torn by a concurrent save (same
geometry, different versions, previously adopted *silently* and then
patched forward twice) now raises :class:`~repro.storage.StorageError`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.analysis.runtime import SUFFSTATS_CACHE_IO, TrackedLock
from repro.dimensions import Region
from repro.ml import StackedSuffStats
from repro.storage import StorageError, region_from_json, region_to_json
from repro.storage.block_store import _atomic_write

# StaleCacheError moved to repro.storage.cubetables (the materialized cube
# tables raise it too); re-exported here for compatibility.
from repro.storage import StaleCacheError

__all__ = ["StaleCacheError", "SuffStatsCache"]


class SuffStatsCache:
    """Saves/loads per-region base-cell suffstats stacks for one store."""

    _META = "suffstats_meta.json"
    _DATA = "suffstats_data.npz"

    def __init__(self, directory: str | Path):
        self._dir = Path(directory)
        self._io_lock = TrackedLock(SUFFSTATS_CACHE_IO, reentrant=True)

    @property
    def meta_path(self) -> Path:
        return self._dir / self._META

    @property
    def data_path(self) -> Path:
        return self._dir / self._DATA

    def save(
        self,
        version: int,
        stacks: dict[Region, StackedSuffStats],
        n_cells: int,
        p: int,
    ) -> None:
        """Write all stacks (each exactly ``n_cells`` problems) and metadata.

        Data first (atomically, with the version embedded), metadata last
        (atomically) — the metadata is the commit point, and the embedded
        version lets :meth:`load_versioned` detect a torn pair.
        """
        with self._io_lock:
            self._dir.mkdir(parents=True, exist_ok=True)
            regions = list(stacks)
            if regions:
                flat = StackedSuffStats.concatenate([stacks[r] for r in regions])
            else:
                flat = StackedSuffStats.zeros(0, p)
            # Derived-statistics persistence, not training-data I/O: cache
            # traffic is accounted through incr.cache_hits / incr.cache_misses,
            # never through the store scan counters the Lemmas are phrased in.
            tmp = self.data_path.with_name(self.data_path.name + ".tmp")
            with tmp.open("wb") as f:
                np.savez(  # lint: ignore[RPR001]
                    f,
                    ytwy=flat.ytwy, xtwx=flat.xtwx, xtwy=flat.xtwy,
                    n=flat.n, sum_w=flat.sum_w,
                    version=np.asarray([int(version)], dtype=np.int64),
                )
            os.replace(tmp, self.data_path)
            meta = {
                "version": int(version),
                "regions": [region_to_json(r) for r in regions],
                "n_cells": int(n_cells),
                "p": int(p),
            }
            _atomic_write(self.meta_path, json.dumps(meta).encode())

    def load(
        self,
        expected_version: int,
        n_cells: int,
        p: int,
    ) -> dict[Region, StackedSuffStats]:
        """The cached stacks, verified against the live store/builder geometry.

        Raises :class:`StaleCacheError` when the cache was written at a
        different store version (or a different lattice geometry), and
        :class:`StorageError` when the files are missing or unreadable.
        """
        version, stacks = self.load_versioned(n_cells, p)
        if version != expected_version:
            raise StaleCacheError(
                f"suffstats cache is at store version {version}, "
                f"store is at {expected_version}"
            )
        return stacks

    def load_versioned(
        self,
        n_cells: int,
        p: int,
    ) -> tuple[int, dict[Region, StackedSuffStats]]:
        """The cached stacks plus the store version they were written at.

        Geometry is still verified (:class:`StaleCacheError` on mismatch),
        but any version is accepted — the maintainer uses this to warm-start
        from an older snapshot and patch forward through the store's
        changelog instead of rescanning.
        """
        with self._io_lock:
            return self._load_versioned_locked(n_cells, p)

    def _load_versioned_locked(
        self,
        n_cells: int,
        p: int,
    ) -> tuple[int, dict[Region, StackedSuffStats]]:
        if not self.meta_path.exists():
            raise StorageError(f"no suffstats cache at {self._dir}")
        try:
            meta = json.loads(self.meta_path.read_bytes())
            version = int(meta["version"])
            regions = [region_from_json(values) for values in meta["regions"]]
        except StorageError:
            raise
        except Exception as exc:
            raise StorageError(
                f"corrupt suffstats-cache metadata {self.meta_path}: {exc!r}"
            ) from exc
        if meta.get("n_cells") != n_cells or meta.get("p") != p:
            raise StaleCacheError(
                "suffstats cache was built for another lattice geometry "
                f"(cells={meta.get('n_cells')}/p={meta.get('p')}, "
                f"expected {n_cells}/{p})"
            )
        try:
            # Counterpart of save() above: suffstats-cache reads are tracked
            # by the incr.* counters, not the store scan accounting.
            with np.load(self.data_path) as data:  # lint: ignore[RPR001]
                data_version = (
                    int(data["version"][0]) if "version" in data.files else None
                )
                flat = StackedSuffStats(
                    data["ytwy"], data["xtwx"], data["xtwy"],
                    data["n"], data["sum_w"],
                )
        except StorageError:
            raise
        except Exception as exc:
            raise StorageError(
                f"unreadable suffstats cache {self.data_path}: {exc!r}"
            ) from exc
        if data_version is not None and data_version != version:
            raise StorageError(
                f"torn suffstats cache at {self._dir}: metadata says store "
                f"version {version}, data file was written at {data_version}"
            )
        if len(flat) != len(regions) * n_cells or (
            len(flat) and flat.p != p
        ):
            raise StorageError(
                f"suffstats cache {self.data_path} has {len(flat)} problems, "
                f"expected {len(regions) * n_cells}"
            )
        return version, {
            region: flat.select(slice(i * n_cells, (i + 1) * n_cells))
            for i, region in enumerate(regions)
        }
