"""Tests for training-data stores and I/O accounting."""

import numpy as np
import pytest

from repro.dimensions import Region
from repro.storage import (
    DiskStore,
    FilteredStore,
    IOStats,
    MemoryStore,
    RegionBlock,
    StorageError,
)


def _block(
    n: int, p: int = 2, seed: int = 0, weighted: bool = False
) -> RegionBlock:
    rng = np.random.default_rng(seed)
    return RegionBlock(
        item_ids=np.arange(1, n + 1),
        x=rng.normal(size=(n, p)),
        y=rng.normal(size=n),
        weights=rng.uniform(0.5, 2.0, size=n) if weighted else None,
    )


@pytest.fixture()
def regions():
    return [Region(("r0",)), Region(("r1",)), Region(("r2",))]


@pytest.fixture()
def memory_store(regions):
    blocks = {r: _block(5 + k, seed=k) for k, r in enumerate(regions)}
    return MemoryStore(blocks, feature_names=("f0", "f1"))


class TestRegionBlock:
    def test_shapes_validated(self):
        with pytest.raises(StorageError):
            RegionBlock(np.arange(3), np.zeros((2, 2)), np.zeros(3))

    def test_restrict_to(self):
        block = _block(5)
        sub = block.restrict_to(np.array([2, 4]))
        assert list(sub.item_ids) == [2, 4]
        assert sub.x.shape == (2, 2)

    def test_restrict_to_missing_ids(self):
        block = _block(3)
        sub = block.restrict_to(np.array([99]))
        assert sub.n_examples == 0

    def test_nbytes_positive(self):
        assert _block(3).nbytes > 0


class TestMemoryStore:
    def test_read_counts_io(self, memory_store, regions):
        memory_store.read(regions[0])
        memory_store.read(regions[1])
        assert memory_store.stats.region_reads == 2
        assert memory_store.stats.bytes_read > 0

    def test_scan_counts_one_full_scan(self, memory_store):
        list(memory_store.scan())
        list(memory_store.scan())
        assert memory_store.stats.full_scans == 2

    def test_unknown_region(self, memory_store):
        with pytest.raises(StorageError):
            memory_store.read(Region(("nope",)))

    def test_feature_count_validated(self, regions):
        with pytest.raises(StorageError):
            MemoryStore({regions[0]: _block(3, p=2)}, feature_names=("only-one",))

    def test_total_examples(self, memory_store):
        assert memory_store.n_examples_total == 5 + 6 + 7


class TestDiskStore:
    def test_roundtrip(self, memory_store, tmp_path):
        # One weighted block too: WLS weights must survive the round trip.
        weighted = MemoryStore(
            {
                **{r: memory_store._fetch(r) for r in memory_store.regions()},
                Region(("w",)): _block(4, seed=9, weighted=True),
            },
            memory_store.feature_names,
        )
        disk = DiskStore.from_memory(tmp_path / "store", weighted)
        reopened = DiskStore(tmp_path / "store")
        for store in (disk, reopened):
            # Same regions in the same scan order, row counts from the
            # manifest alone (no block read).
            assert store.regions() == weighted.regions()
            assert store.n_examples_total == weighted.n_examples_total
            assert store.stats.region_reads == 0
            for region in weighted.regions():
                a = weighted._fetch(region)
                b = store._fetch(region)
                assert np.array_equal(a.x, b.x)
                assert np.array_equal(a.y, b.y)
                assert np.array_equal(a.item_ids, b.item_ids)
                if a.weights is None:
                    assert b.weights is None
                else:
                    assert np.array_equal(a.weights, b.weights)

    def test_read_hits_disk_every_time(self, memory_store, tmp_path):
        disk = DiskStore.from_memory(tmp_path / "store", memory_store)
        region = disk.regions()[0]
        disk.read(region)
        disk.read(region)
        assert disk.stats.region_reads == 2

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError):
            DiskStore(tmp_path)
        # A writer aborted mid-build (here by a duplicate region) writes no
        # manifest, so its directory never opens as a complete store.
        with pytest.raises(StorageError, match="duplicate"):
            with DiskStore.writer(tmp_path / "w", ("f0", "f1")) as w:
                w.add(Region(("a",)), _block(3))
                w.add(Region(("a",)), _block(3))
        with pytest.raises(StorageError, match="no manifest"):
            DiskStore(tmp_path / "w")

    def test_feature_names_preserved(self, memory_store, tmp_path):
        disk = DiskStore.from_memory(tmp_path / "store", memory_store)
        assert disk.feature_names == memory_store.feature_names
        assert DiskStore(tmp_path / "store").feature_names == disk.feature_names
        with pytest.raises(StorageError, match="features"):
            with DiskStore.writer(tmp_path / "w", ("f0", "f1")) as w:
                w.add(Region(("a",)), _block(3, p=3))


class TestFilteredStore:
    def test_restricts_regions(self, memory_store, regions):
        view = FilteredStore(memory_store, regions[:2])
        assert set(view.regions()) == set(regions[:2])
        with pytest.raises(StorageError):
            view.read(regions[2])

    def test_unknown_region_rejected_at_construction(self, memory_store):
        with pytest.raises(StorageError):
            FilteredStore(memory_store, [Region(("ghost",))])

    def test_own_io_stats(self, memory_store, regions):
        view = FilteredStore(memory_store, regions[:2])
        view.read(regions[0])
        list(view.scan())
        assert view.stats.region_reads == 1
        assert view.stats.full_scans == 1
        assert memory_store.stats.region_reads == 0


class TestIOStats:
    def test_reset_and_snapshot(self):
        stats = IOStats()
        stats.record_region_read(100)
        stats.record_full_scan()
        snap = stats.snapshot()
        stats.reset()
        assert stats.region_reads == 0 and stats.full_scans == 0
        assert snap.region_reads == 1 and snap.bytes_read == 100
