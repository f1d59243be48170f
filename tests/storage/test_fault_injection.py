"""Fault injection: broken files must fail loudly, never return wrong numbers.

Truncated, garbled, or missing ``.npz`` blocks and corrupt manifests raise
:class:`StorageError` (never a raw ``OSError``/``BadZipFile``); a suffstats
cache written against another store version raises
:class:`StaleCacheError`, and a maintainer facing either problem rebuilds
from a full scan instead of serving stale statistics.
"""

import json
import os
import pickle

import numpy as np
import pytest

from repro.dimensions import Region
from repro.incremental import StaleCacheError, SuffStatsCache
from repro.ml import LinearSuffStats, StackedSuffStats, add_intercept
from repro.storage import DiskStore, RegionBlock, StorageError


def _block(n: int, p: int = 2, seed: int = 0) -> RegionBlock:
    rng = np.random.default_rng(seed)
    return RegionBlock(
        np.arange(n), rng.normal(size=(n, p)), rng.normal(size=n)
    )


@pytest.fixture
def disk_store(tmp_path):
    blocks = {
        Region(("a",)): _block(8, seed=1),
        Region(("b",)): _block(6, seed=2),
    }
    return DiskStore.create(tmp_path / "store", blocks, ("f0", "f1"))


def _block_path(store: DiskStore, region: Region):
    return store._dir / store._files[region]


class TestBrokenBlocks:
    def test_truncated_block_raises_storage_error(self, disk_store):
        region = disk_store.regions()[0]
        path = _block_path(disk_store, region)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(StorageError, match="unreadable block"):
            disk_store.read(region)

    def test_garbage_block_raises_storage_error(self, disk_store):
        region = disk_store.regions()[1]
        _block_path(disk_store, region).write_bytes(b"not an npz at all")
        with pytest.raises(StorageError, match="unreadable block"):
            disk_store.read(region)

    def test_missing_block_raises_storage_error(self, disk_store):
        region = disk_store.regions()[0]
        _block_path(disk_store, region).unlink()
        with pytest.raises(StorageError, match="unreadable block"):
            disk_store.read(region)
        with pytest.raises(StorageError, match="unknown region"):
            disk_store.read(Region(("ghost",)))

    def test_scan_surfaces_broken_block(self, disk_store):
        region = disk_store.regions()[1]
        _block_path(disk_store, region).write_bytes(b"junk")
        with pytest.raises(StorageError):
            list(disk_store.scan())

    def test_block_missing_required_array(self, disk_store, tmp_path):
        region = disk_store.regions()[0]
        np.savez(_block_path(disk_store, region), item_ids=np.arange(3))
        with pytest.raises(StorageError, match="unreadable block"):
            disk_store.read(region)


class TestBrokenManifest:
    def test_corrupt_manifest_raises_storage_error(self, disk_store):
        (disk_store._dir / DiskStore._MANIFEST).write_bytes(b"\x80garbage")
        with pytest.raises(StorageError, match="corrupt manifest"):
            DiskStore(disk_store._dir)

    def test_missing_manifest_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError, match="no manifest"):
            DiskStore(tmp_path / "nowhere")

    def test_wrong_shape_manifest_raises_storage_error(self, disk_store):
        path = disk_store._dir / DiskStore._MANIFEST
        good = json.loads(path.read_text())
        for bad in (["not", "a", "dict"], {**good, "format": "something-else"}):
            path.write_text(json.dumps(bad))
            with pytest.raises(StorageError, match="corrupt manifest"):
                DiskStore(disk_store._dir)

    @pytest.mark.parametrize(
        "open_dir, names",
        [
            (DiskStore, ("manifest.pkl", "manifest.json")),
            (
                lambda d: SuffStatsCache(d).load(0, n_cells=3, p=3),
                ("suffstats_meta.pkl", "suffstats_meta.json"),
            ),
        ],
        ids=["disk_store", "suffstats_cache"],
    )
    def test_pickle_metadata_is_never_unpickled(self, tmp_path, open_dir, names):
        # A pickle that would create a marker file when loaded: under its
        # legacy name or the current one, opening must refuse it unread.
        marker = tmp_path / "unpickled"
        payload = pickle.dumps(_TouchOnLoad(str(marker)))
        for name in names:
            directory = tmp_path / name.replace(".", "_")
            directory.mkdir()
            (directory / name).write_bytes(payload)
            with pytest.raises(StorageError):
                open_dir(directory)
        assert not marker.exists()


class _TouchOnLoad:
    """Pickles to a call that creates ``path`` when unpickled."""

    def __init__(self, path: str):
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def _stacks(n_cells: int = 3, p: int = 3) -> dict[Region, StackedSuffStats]:
    rng = np.random.default_rng(0)
    x = add_intercept(rng.normal(size=(10, p - 1)))
    y = rng.normal(size=10)
    stats = [LinearSuffStats.from_data(x, y) for __ in range(n_cells)]
    return {Region(("a",)): StackedSuffStats.from_stats(stats)}


class TestSuffStatsCacheFaults:
    def test_stale_version_raises_stale_cache_error(self, tmp_path):
        cache = SuffStatsCache(tmp_path)
        cache.save(version=3, stacks=_stacks(), n_cells=3, p=3)
        with pytest.raises(StaleCacheError, match="store version 3"):
            cache.load(expected_version=7, n_cells=3, p=3)

    def test_stale_is_a_storage_error(self):
        assert issubclass(StaleCacheError, StorageError)

    def test_geometry_mismatch_raises_stale_cache_error(self, tmp_path):
        cache = SuffStatsCache(tmp_path)
        cache.save(version=1, stacks=_stacks(), n_cells=3, p=3)
        with pytest.raises(StaleCacheError, match="lattice geometry"):
            cache.load(expected_version=1, n_cells=5, p=3)

    def test_missing_cache_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError, match="no suffstats cache"):
            SuffStatsCache(tmp_path).load(expected_version=0, n_cells=3, p=3)

    def test_corrupt_meta_raises_storage_error(self, tmp_path):
        cache = SuffStatsCache(tmp_path)
        cache.save(version=1, stacks=_stacks(), n_cells=3, p=3)
        cache.meta_path.write_bytes(b"\x00broken")
        with pytest.raises(StorageError, match="corrupt suffstats-cache"):
            cache.load(expected_version=1, n_cells=3, p=3)

    def test_corrupt_data_raises_storage_error(self, tmp_path):
        cache = SuffStatsCache(tmp_path)
        cache.save(version=1, stacks=_stacks(), n_cells=3, p=3)
        cache.data_path.write_bytes(b"nope")
        with pytest.raises(StorageError, match="unreadable suffstats cache"):
            cache.load(expected_version=1, n_cells=3, p=3)

    def test_truncated_data_raises_storage_error(self, tmp_path):
        cache = SuffStatsCache(tmp_path)
        cache.save(version=1, stacks=_stacks(), n_cells=3, p=3)
        cache.data_path.write_bytes(cache.data_path.read_bytes()[:30])
        with pytest.raises(StorageError):
            cache.load(expected_version=1, n_cells=3, p=3)


class TestMaintainerRebuildsOnBrokenCache:
    """A maintainer facing a stale or corrupt cache rebuilds from a scan."""

    @pytest.fixture
    def setup(self, tmp_path):
        from repro.core import BellwetherCubeBuilder
        from repro.datasets import make_mailorder
        from repro.ml import TrainingSetEstimator

        ds = make_mailorder(
            n_items=60, n_months=6, seed=0,
            error_estimator=TrainingSetEstimator(),
        )
        from repro.core.training_data import build_store

        store, __, __ = build_store(ds.task)
        builder = BellwetherCubeBuilder(ds.task, store, ds.hierarchies)
        return ds, store, builder, tmp_path / "cache"

    def test_stale_cache_triggers_scan_rebuild(self, setup):
        from repro.core import BellwetherCubeBuilder
        from repro.obs import get_registry

        ds, store, builder, cache_dir = setup
        builder.incremental(cache_dir=cache_dir).refresh()
        # Invalidate: pretend the cache was written at another version.
        cache = SuffStatsCache(cache_dir)
        stacks = cache.load(store.version, len(builder._cells),
                            len(store.feature_names) + 1)
        cache.save(store.version + 5, stacks, len(builder._cells),
                   len(store.feature_names) + 1)
        registry = get_registry()
        before = registry.counter_values()
        fresh_builder = BellwetherCubeBuilder(ds.task, store, ds.hierarchies)
        result = fresh_builder.incremental(cache_dir=cache_dir).refresh()
        delta = registry.counter_values()
        assert delta.get("incr.cache_misses", 0) - before.get("incr.cache_misses", 0) == 1
        assert delta.get("store.full_scans", 0) - before.get("store.full_scans", 0) == 1
        scratch = fresh_builder.build("optimized")
        for subset in result.subsets:
            assert result.entry(subset).region == scratch.entry(subset).region

    def test_corrupt_cache_triggers_scan_rebuild(self, setup):
        from repro.core import BellwetherCubeBuilder
        from repro.obs import get_registry

        ds, store, builder, cache_dir = setup
        builder.incremental(cache_dir=cache_dir).refresh()
        SuffStatsCache(cache_dir).data_path.write_bytes(b"garbage")
        registry = get_registry()
        before = registry.counter_values()
        result = (
            BellwetherCubeBuilder(ds.task, store, ds.hierarchies)
            .incremental(cache_dir=cache_dir)
            .refresh()
        )
        delta = registry.counter_values()
        assert delta.get("incr.cache_misses", 0) - before.get("incr.cache_misses", 0) == 1
        assert delta.get("store.full_scans", 0) - before.get("store.full_scans", 0) == 1
        assert len(result.subsets) > 0
