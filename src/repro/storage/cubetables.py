"""Materialized suffstats cube tables (Theorem 1, persisted).

A cube build's expensive part is deriving per-(region, subset) sufficient
statistics from raw facts.  Theorem 1 makes those statistics algebraic, so
they can be *materialized*: this module persists, per lattice level, the
rolled-up :class:`~repro.ml.StackedSuffStats` of every (region, significant
subset) problem — the exact arrays
:meth:`~repro.core.cube.BellwetherCubeBuilder._rollup_batched` computes —
keyed on the store version and the builder's lattice geometry.  A warm cube
build then loads the tables and runs one batched solve per level without
ever touching facts (``store.full_scans`` stays at zero), which is the
query-avoidance pattern the ROADMAP's cube-tables item calls for.

Staleness is loud, never silent: a table set written at another store
version or for another geometry raises :class:`StaleCacheError`; unreadable
files raise :class:`~repro.storage.StorageError`.  Byte traffic lands on the
``cube.tables.bytes_written`` / ``cube.tables.bytes_read`` counters —
derived-statistics I/O, deliberately separate from the ``store.*`` scan
accounting the Lemmas are phrased in.

Use :func:`repro.incremental.build_cube_tables` to build/refresh a table
set with ``--skip-existing`` semantics (it reuses the incremental
maintainer's dirty-cell patching to avoid full scans on version bumps).
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.dimensions import Region
from repro.ml import StackedSuffStats
from repro.obs.catalog import (
    CUBE_TABLES_BYTES_READ,
    CUBE_TABLES_BYTES_WRITTEN,
)
from repro.analysis.runtime import CUBE_TABLES_IO, TrackedLock
from repro.obs.metrics import get_registry

from .block_store import (
    StorageError,
    _atomic_write,
    region_from_json,
    region_to_json,
)

_BYTES_WRITTEN = get_registry().counter(CUBE_TABLES_BYTES_WRITTEN)
_BYTES_READ = get_registry().counter(CUBE_TABLES_BYTES_READ)

_FORMAT = "repro-cube-tables"
_LAYOUT_VERSION = 1


class StaleCacheError(StorageError):
    """Cached derived statistics were written against another store version
    (or another lattice geometry) — rebuild instead of serving stale bits."""


@dataclass(frozen=True)
class LevelTable:
    """One lattice level's materialized (region, subset) statistics.

    Attributes
    ----------
    level:
        The lattice level (per-hierarchy depth tuple).
    regions:
        Regions holding data, in store-scan order.
    keep_sidx:
        Indices of the level's significant subsets, in the builder's keep
        order (``K`` entries).
    stats:
        ``len(regions) * K`` problems, region-major: problem ``r * K + j``
        is (regions[r], significant subset j) — bit-identical to the
        optimized builder's rollup of the same store.
    """

    level: tuple[int, ...]
    regions: tuple[Region, ...]
    keep_sidx: np.ndarray
    stats: StackedSuffStats

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    @property
    def n_subsets(self) -> int:
        return len(self.keep_sidx)


def _canonical(signature: dict) -> str:
    return json.dumps(signature, sort_keys=True)


class CubeTableStore:
    """Saves/loads a cube's per-level suffstats tables in one directory.

    Layout: ``cube_tables_meta.json`` (format, store version, geometry
    signature, per-level region keys) + ``cube_tables.npz`` (the stacked
    component arrays, keyed ``L{i}_{component}``).  The metadata is written
    last and atomically — it is the commit point; a crash mid-save leaves
    the old table set or none, never a torn one.

    Thread safety: save/load serialize on an instance lock (the query
    service calls both from request threads), the data file is also written
    atomically, and the store version is embedded in it (``__version__``)
    and cross-checked against the metadata on load — a pair torn by a
    concurrent save raises :class:`~repro.storage.StorageError` instead of
    silently mixing versions.
    """

    _META = "cube_tables_meta.json"
    _DATA = "cube_tables.npz"

    def __init__(self, directory: str | Path):
        self._dir = Path(directory)
        self._io_lock = TrackedLock(CUBE_TABLES_IO, reentrant=True)

    @property
    def meta_path(self) -> Path:
        return self._dir / self._META

    @property
    def data_path(self) -> Path:
        return self._dir / self._DATA

    def save(
        self,
        tables: Sequence[LevelTable],
        signature: dict,
        version: int,
    ) -> None:
        """Persist the tables, keyed on geometry ``signature`` + ``version``."""
        with self._io_lock:
            self._save_locked(tables, signature, version)

    def _save_locked(
        self,
        tables: Sequence[LevelTable],
        signature: dict,
        version: int,
    ) -> None:
        self._dir.mkdir(parents=True, exist_ok=True)
        arrays: dict[str, np.ndarray] = {
            "__version__": np.asarray([int(version)], dtype=np.int64)
        }
        p = int(signature.get("p", 0))
        for i, t in enumerate(tables):
            if len(t.stats):
                p = t.stats.p
            arrays[f"L{i}_ytwy"] = t.stats.ytwy
            arrays[f"L{i}_xtwx"] = t.stats.xtwx
            arrays[f"L{i}_xtwy"] = t.stats.xtwy
            arrays[f"L{i}_n"] = t.stats.n
            arrays[f"L{i}_sum_w"] = t.stats.sum_w
        tmp = self.data_path.with_name(self.data_path.name + ".tmp")
        with tmp.open("wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp, self.data_path)
        meta_payload = json.dumps(
            {
                "format": _FORMAT,
                "layout_version": _LAYOUT_VERSION,
                "version": int(version),
                "p": p,
                "signature": signature,
                "levels": [
                    {
                        "level": list(t.level),
                        "regions": [region_to_json(r) for r in t.regions],
                        "keep_sidx": [int(s) for s in t.keep_sidx],
                    }
                    for t in tables
                ],
            }
        ).encode()
        _atomic_write(self.meta_path, meta_payload)
        _BYTES_WRITTEN.inc(self.data_path.stat().st_size + len(meta_payload))

    def load(
        self,
        signature: dict,
        expected_version: int,
    ) -> list[LevelTable]:
        """The persisted tables, verified against geometry and store version.

        Raises :class:`StaleCacheError` on a version or geometry mismatch
        and :class:`StorageError` when the files are missing or unreadable.
        """
        with self._io_lock:
            return self._load_locked(signature, expected_version)

    def _load_locked(
        self,
        signature: dict,
        expected_version: int,
    ) -> list[LevelTable]:
        if not self.meta_path.exists():
            raise StorageError(f"no cube tables at {self._dir}")
        try:
            meta = json.loads(self.meta_path.read_text())
            if meta.get("format") != _FORMAT:
                raise StorageError(
                    f"{self.meta_path} is not a {_FORMAT} file "
                    f"(format={meta.get('format')!r})"
                )
            layout = int(meta.get("layout_version", -1))
            if layout != _LAYOUT_VERSION:
                raise StorageError(
                    f"cube-table layout v{layout} unsupported "
                    f"(this build reads v{_LAYOUT_VERSION})"
                )
            version = int(meta["version"])
            p = int(meta["p"])
            levels = list(meta["levels"])
            saved_sig = meta["signature"]
        except StorageError:
            raise
        except Exception as exc:
            raise StorageError(
                f"corrupt cube-table metadata {self.meta_path}: {exc!r}"
            ) from exc
        if _canonical(saved_sig) != _canonical(signature):
            raise StaleCacheError(
                "cube tables were materialized for another lattice geometry; "
                "rebuild them for this builder"
            )
        if version != expected_version:
            raise StaleCacheError(
                f"cube tables are at store version {version}, "
                f"store is at {expected_version}"
            )
        try:
            with np.load(self.data_path) as data:
                if "__version__" in data.files:
                    data_version = int(data["__version__"][0])
                    if data_version != version:
                        raise StorageError(
                            f"torn cube tables at {self._dir}: metadata says "
                            f"store version {version}, data file was written "
                            f"at {data_version}"
                        )
                tables: list[LevelTable] = []
                for i, entry in enumerate(levels):
                    regions = tuple(
                        region_from_json(key) for key in entry["regions"]
                    )
                    keep_sidx = np.asarray(entry["keep_sidx"], dtype=np.int64)
                    n_problems = len(regions) * len(keep_sidx)
                    if f"L{i}_ytwy" in data.files:
                        stats = StackedSuffStats(
                            data[f"L{i}_ytwy"],
                            data[f"L{i}_xtwx"],
                            data[f"L{i}_xtwy"],
                            data[f"L{i}_n"],
                            data[f"L{i}_sum_w"],
                        )
                    else:
                        stats = StackedSuffStats.zeros(0, p)
                    if len(stats) != n_problems or (len(stats) and stats.p != p):
                        raise StorageError(
                            f"cube table level {i} has {len(stats)} problems "
                            f"(p={stats.p if len(stats) else '?'}); expected "
                            f"{n_problems} (p={p})"
                        )
                    tables.append(
                        LevelTable(
                            level=tuple(int(x) for x in entry["level"]),
                            regions=regions,
                            keep_sidx=keep_sidx,
                            stats=stats,
                        )
                    )
        except StorageError:
            raise
        except Exception as exc:
            raise StorageError(
                f"unreadable cube tables {self.data_path}: {exc!r}"
            ) from exc
        _BYTES_READ.inc(
            self.data_path.stat().st_size + self.meta_path.stat().st_size
        )
        return tables
