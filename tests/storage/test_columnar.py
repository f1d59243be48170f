"""Life-cycle tests for the npz :class:`repro.storage.DiskStore`.

Covers exact round trips, the streaming writer, delta application,
opening a store directory, the one-value ``backend`` keyword of
``from_memory``, and the failure modes (corrupt or missing manifests,
damaged block files, torn manifest writes).
"""

import json

import numpy as np
import pytest

from repro.dimensions import Region
from repro.storage import (
    BlockDelta,
    DiskStore,
    MemoryStore,
    RegionBlock,
    StorageError,
    StoreDelta,
)


def _block(n: int, p: int = 3, seed: int = 0, weighted: bool = False) -> RegionBlock:
    rng = np.random.default_rng(seed)
    return RegionBlock(
        item_ids=np.arange(1, n + 1),
        x=rng.normal(size=(n, p)),
        y=rng.normal(size=n),
        weights=rng.uniform(0.5, 2.0, size=n) if weighted else None,
    )


@pytest.fixture()
def blocks():
    return {
        Region(("a",)): _block(7, seed=1),
        Region(("b",)): _block(5, seed=2, weighted=True),
        Region(("c",)): _block(3, seed=3),
    }


@pytest.fixture()
def store(blocks, tmp_path):
    return DiskStore.create(tmp_path / "s", blocks, ("f0", "f1", "f2"))


class TestRoundTrip:
    def test_bit_for_bit_vs_source_blocks(self, store, blocks):
        for region, src in blocks.items():
            got = store.read(region)
            assert np.array_equal(got.item_ids, src.item_ids)
            assert np.array_equal(got.x, src.x)
            assert np.array_equal(got.y, src.y)
            if src.weights is None:
                assert got.weights is None
            else:
                assert np.array_equal(got.weights, src.weights)

    def test_reopen_preserves_everything(self, store, blocks, tmp_path):
        reopened = DiskStore(tmp_path / "s")
        assert reopened.feature_names == store.feature_names
        assert reopened.version == 0
        assert reopened.regions() == list(blocks)
        for region, src in blocks.items():
            assert np.array_equal(reopened.read(region).x, src.x)

    def test_unknown_region(self, store):
        with pytest.raises(StorageError):
            store.read(Region(("ghost",)))

    def test_n_examples_total_without_block_reads(self, store):
        before = store.stats.region_reads
        assert store.n_examples_total == 7 + 5 + 3
        assert store.stats.region_reads == before


class TestWriter:
    def test_streaming_writer(self, blocks, tmp_path):
        with DiskStore.writer(tmp_path / "w", ("f0", "f1", "f2")) as w:
            for region, block in blocks.items():
                w.add(region, block)
        assert w.store.n_examples_total == 15
        assert w.store.regions() == list(blocks)

    def test_duplicate_region_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="duplicate"):
            with DiskStore.writer(tmp_path / "w", ("f0",)) as w:
                w.add(Region(("a",)), _block(3, p=1))
                w.add(Region(("a",)), _block(3, p=1))

    def test_feature_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            with DiskStore.writer(tmp_path / "w", ("f0", "f1")) as w:
                w.add(Region(("a",)), _block(3, p=3))

    def test_aborted_writer_leaves_no_manifest(self, tmp_path):
        try:
            with DiskStore.writer(tmp_path / "w", ("f0",)) as w:
                w.add(Region(("a",)), _block(3, p=1))
                raise RuntimeError("simulated crash")
        except RuntimeError:
            pass
        assert not (tmp_path / "w" / DiskStore._MANIFEST).exists()


class TestDeltas:
    def test_apply_delta_matches_memory_store(self, blocks, tmp_path):
        names = ("f0", "f1", "f2")
        disk = DiskStore.create(tmp_path / "d", blocks, names)
        mem = MemoryStore(dict(blocks), names)
        appended = RegionBlock(
            item_ids=np.arange(101, 105),
            x=np.random.default_rng(9).normal(size=(4, 3)),
            y=np.random.default_rng(9).normal(size=4),
        )
        delta = StoreDelta(
            blocks={
                # append + retract in an existing region
                Region(("a",)): BlockDelta(
                    append=appended, retract_ids=np.array([2, 4])
                ),
                # a brand-new region
                Region(("d",)): BlockDelta(append=_block(6, seed=10)),
            },
            drop_regions=(Region(("c",)),),
        )
        disk.apply_delta(delta)
        mem.apply_delta(delta)
        assert disk.version == mem.version == 1
        assert set(disk.regions()) == set(mem.regions())
        for region in mem.regions():
            a, b = disk.read(region), mem.read(region)
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)
            assert np.array_equal(a.item_ids, b.item_ids)

    def test_version_survives_reopen(self, blocks, tmp_path):
        disk = DiskStore.create(tmp_path / "d", blocks, ("f0", "f1", "f2"))
        disk.apply_delta(
            StoreDelta(blocks={Region(("z",)): BlockDelta(append=_block(2, seed=5))})
        )
        assert DiskStore(tmp_path / "d").version == 1

    def test_dropped_region_file_removed(self, blocks, tmp_path):
        disk = DiskStore.create(tmp_path / "d", blocks, ("f0", "f1", "f2"))
        n_files_before = len(list((tmp_path / "d").glob("region_*")))
        disk.apply_delta(StoreDelta(blocks={}, drop_regions=(Region(("b",)),)))
        assert len(list((tmp_path / "d").glob("region_*"))) == n_files_before - 1
        with pytest.raises(StorageError):
            disk.read(Region(("b",)))


class TestOpenStore:
    def test_sniffs_npz(self, blocks, tmp_path):
        DiskStore.create(tmp_path / "n", blocks, ("f0", "f1", "f2"))
        assert set(DiskStore(tmp_path / "n").regions()) == set(blocks)

    def test_neither_backend_raises(self, tmp_path):
        with pytest.raises(StorageError, match="no manifest"):
            DiskStore(tmp_path)


class TestBackendSwitch:
    def test_create_rejects_unknown_backend(self, blocks, tmp_path):
        mem = MemoryStore(dict(blocks), ("f0", "f1", "f2"))
        with pytest.raises(StorageError, match="unknown storage backend"):
            DiskStore.from_memory(tmp_path / "s", mem, backend="tape")
        assert not (tmp_path / "s").exists()

    def test_from_memory_backend_switch(self, blocks, tmp_path):
        mem = MemoryStore(dict(blocks), ("f0", "f1", "f2"))
        store = DiskStore.from_memory(tmp_path / "s", mem, backend="npz")
        assert isinstance(store, DiskStore)
        assert store.regions() == mem.regions()
        for region in mem.regions():
            assert np.array_equal(store.read(region).x, mem.read(region).x)


class TestFaults:
    def test_corrupt_manifest(self, store, tmp_path):
        (tmp_path / "s" / DiskStore._MANIFEST).write_text("{not json")
        with pytest.raises(StorageError):
            DiskStore(tmp_path / "s")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StorageError):
            DiskStore(tmp_path / "nowhere")

    def test_wrong_format_tag(self, store, tmp_path):
        path = tmp_path / "s" / DiskStore._MANIFEST
        meta = json.loads(path.read_text())
        meta["format"] = "something-else"
        path.write_text(json.dumps(meta))
        with pytest.raises(StorageError):
            DiskStore(tmp_path / "s")

    def test_missing_column_file(self, store, tmp_path):
        region = store.regions()[0]
        (tmp_path / "s" / store._files[region]).unlink()
        with pytest.raises(StorageError):
            store.read(region)

    def test_truncated_column_file(self, store, tmp_path):
        region = store.regions()[0]
        path = tmp_path / "s" / store._files[region]
        path.write_bytes(path.read_bytes()[:8])
        with pytest.raises(StorageError):
            store.read(region)


class TestAtomicManifests:
    """A torn manifest write must never corrupt the previous manifest."""

    def test_npz_manifest_survives_failed_replace(
        self, blocks, tmp_path, monkeypatch
    ):
        disk = DiskStore.create(tmp_path / "n", blocks, ("f0", "f1", "f2"))
        manifest = tmp_path / "n" / DiskStore._MANIFEST
        good = manifest.read_bytes()

        import repro.storage.block_store as block_store_mod

        def torn_replace(src, dst):
            raise OSError("simulated crash between write and rename")

        monkeypatch.setattr(block_store_mod.os, "replace", torn_replace)
        with pytest.raises(OSError):
            disk.apply_delta(
                StoreDelta(
                    blocks={Region(("new",)): BlockDelta(append=_block(2, seed=7))}
                )
            )
        monkeypatch.undo()
        assert manifest.read_bytes() == good
        reopened = DiskStore(tmp_path / "n")
        assert reopened.version == 0
        assert set(reopened.regions()) == set(blocks)
