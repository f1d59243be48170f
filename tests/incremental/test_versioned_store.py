"""Versioned stores: delta apply semantics, changelog, and history limits."""

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
    apply_block_delta,
)

A, B, C = Region(("a",)), Region(("b",)), Region(("c",))


def _block(ids, seed=0, p=2):
    ids = np.asarray(ids)
    rng = np.random.default_rng(seed)
    return RegionBlock(ids, rng.normal(size=(len(ids), p)), rng.normal(size=len(ids)))


@pytest.fixture
def store():
    return MemoryStore(
        {A: _block([0, 1, 2], seed=1), B: _block([3, 4], seed=2)},
        ("f0", "f1"),
    )


class TestApplyBlockDelta:
    def test_append_goes_at_the_end(self, store):
        old = _block([0, 1], seed=3)
        extra = _block([7, 8], seed=4)
        new, removed = apply_block_delta(old, BlockDelta(append=extra), 2)
        assert removed is None
        assert new.item_ids.tolist() == [0, 1, 7, 8]
        assert np.array_equal(new.x[:2], old.x)
        assert np.array_equal(new.x[2:], extra.x)

    def test_retract_preserves_surviving_order(self):
        old = _block([5, 3, 9, 3, 1], seed=5)
        new, removed = apply_block_delta(
            old, BlockDelta(retract_ids=np.array([3])), 2
        )
        assert new.item_ids.tolist() == [5, 9, 1]
        assert removed.item_ids.tolist() == [3, 3]
        keep = np.array([0, 2, 4])
        assert np.array_equal(new.x, old.x[keep])
        assert np.array_equal(new.y, old.y[keep])

    def test_retract_is_idempotent_for_missing_ids(self):
        old = _block([0, 1], seed=6)
        new, removed = apply_block_delta(
            old, BlockDelta(retract_ids=np.array([99])), 2
        )
        assert new.item_ids.tolist() == [0, 1]
        assert removed is None or removed.n_examples == 0

    def test_retract_then_append_in_one_delta(self):
        old = _block([0, 1, 2], seed=7)
        bd = BlockDelta(append=_block([9], seed=8), retract_ids=np.array([1]))
        new, removed = apply_block_delta(old, bd, 2)
        assert new.item_ids.tolist() == [0, 2, 9]
        assert removed.item_ids.tolist() == [1]

    def test_empty_delta_is_rejected(self):
        with pytest.raises(StorageError, match="empty BlockDelta"):
            BlockDelta()

    def test_append_to_unknown_region_is_the_whole_block(self):
        fresh = _block([4, 5], seed=9)
        new, removed = apply_block_delta(None, BlockDelta(append=fresh), 2)
        assert removed is None
        assert np.array_equal(new.x, fresh.x)

    def test_retract_from_unknown_region_is_an_error(self):
        with pytest.raises(StorageError):
            apply_block_delta(None, BlockDelta(retract_ids=np.array([1])), 2)


class TestStoreDelta:
    def test_region_cannot_be_both_changed_and_dropped(self):
        with pytest.raises(StorageError, match="both changed and dropped"):
            StoreDelta(
                {A: BlockDelta(append=_block([1]))}, drop_regions=(A,)
            )

    def test_touched_regions_and_n_appended(self):
        delta = StoreDelta(
            {A: BlockDelta(append=_block([1, 2])), C: BlockDelta(append=_block([3]))},
            drop_regions=(B,),
        )
        assert set(delta.touched_regions) == {A, B, C}
        assert delta.n_appended == 3


class TestMemoryStoreVersioning:
    def test_version_bumps_monotonically(self, store):
        assert store.version == 0
        v1 = store.apply_delta(StoreDelta({A: BlockDelta(append=_block([9]))}))
        v2 = store.apply_delta(StoreDelta({B: BlockDelta(retract_ids=np.array([3]))}))
        assert (v1, v2) == (1, 2)
        assert store.version == 2

    def test_changelog_records_removed_rows_and_new_regions(self, store):
        before_b = store.read(B)
        store.apply_delta(
            StoreDelta(
                {
                    B: BlockDelta(retract_ids=np.array([4])),
                    C: BlockDelta(append=_block([8, 9], seed=11)),
                }
            )
        )
        (applied,) = store.deltas_since(0)
        assert applied.version == 1
        assert applied.new_regions == (C,)
        removed = applied.removed[B]
        assert removed.item_ids.tolist() == [4]
        assert np.array_equal(removed.x, before_b.x[before_b.item_ids == 4])
        assert set(applied.touched_items(B).tolist()) == {4}
        assert set(applied.touched_items(C).tolist()) == {8, 9}

    def test_drop_region_records_the_whole_block(self, store):
        gone = store.read(A)
        store.apply_delta(StoreDelta({}, drop_regions=(A,)))
        assert A not in store.regions()
        (applied,) = store.deltas_since(0)
        assert np.array_equal(applied.removed[A].x, gone.x)

    def test_drop_unknown_region_is_an_error(self, store):
        with pytest.raises(StorageError, match="cannot drop unknown region"):
            store.apply_delta(StoreDelta({}, drop_regions=(C,)))
        assert store.version == 0

    def test_deltas_since_current_version_is_empty(self, store):
        store.apply_delta(StoreDelta({A: BlockDelta(append=_block([9]))}))
        assert store.deltas_since(store.version) == []

    def test_deltas_since_future_version_is_an_error(self, store):
        with pytest.raises(StorageError, match="ahead of the store"):
            store.deltas_since(5)

    def test_deltas_since_returns_suffix_in_order(self, store):
        for i in range(3):
            store.apply_delta(
                StoreDelta({A: BlockDelta(append=_block([10 + i], seed=20 + i))})
            )
        assert [d.version for d in store.deltas_since(1)] == [2, 3]


class TestDiskStoreVersioning:
    def test_delta_persists_across_reopen(self, tmp_path, monkeypatch):
        import repro.storage.block_store as block_store_mod

        store = DiskStore.create(
            tmp_path, {A: _block([0, 1], seed=1)}, ("f0", "f1")
        )
        delta = StoreDelta(
            {
                A: BlockDelta(append=_block([2], seed=2)),
                B: BlockDelta(append=_block([3, 4], seed=3)),
            }
        )
        # A crash between write and rename leaves the old manifest intact.
        manifest = tmp_path / DiskStore._MANIFEST
        good = manifest.read_bytes()

        def torn_replace(src, dst):
            raise OSError("simulated crash between write and rename")

        monkeypatch.setattr(block_store_mod.os, "replace", torn_replace)
        with pytest.raises(OSError):
            store.apply_delta(delta)
        monkeypatch.undo()
        assert manifest.read_bytes() == good
        store = DiskStore(tmp_path)
        assert (store.version, store.regions()) == (0, [A])

        store.apply_delta(delta)
        reopened = DiskStore(tmp_path)
        assert reopened.version == 1
        assert set(reopened.regions()) == {A, B}
        assert reopened.read(A).item_ids.tolist() == [0, 1, 2]
        assert reopened.read(B).item_ids.tolist() == [3, 4]

    def test_reopen_forgets_the_changelog(self, tmp_path):
        store = DiskStore.create(
            tmp_path, {A: _block([0, 1], seed=1)}, ("f0", "f1")
        )
        store.apply_delta(StoreDelta({A: BlockDelta(append=_block([2]))}))
        assert len(store.deltas_since(0)) == 1
        reopened = DiskStore(tmp_path)
        # History below the persisted floor is gone: stale consumers must
        # be told to rebuild, not handed an empty "nothing changed" answer.
        with pytest.raises(StorageError, match="rebuild from a full scan"):
            reopened.deltas_since(0)
        assert reopened.deltas_since(1) == []

    def test_drop_region_deletes_the_block_file(self, tmp_path):
        store = DiskStore.create(
            tmp_path,
            {A: _block([0], seed=1), B: _block([1], seed=2)},
            ("f0", "f1"),
        )
        path = store._dir / store._files[A]
        store.apply_delta(StoreDelta({}, drop_regions=(A,)))
        assert not path.exists()
        assert DiskStore(tmp_path).regions() == [B]

    def test_disk_matches_memory_after_same_deltas(self, tmp_path):
        blocks = {A: _block([0, 1, 2], seed=1), B: _block([3, 4], seed=2)}
        mem = MemoryStore(blocks, ("f0", "f1"))
        disk = DiskStore.create(tmp_path, blocks, ("f0", "f1"))
        deltas = [
            StoreDelta({A: BlockDelta(retract_ids=np.array([1]))}),
            StoreDelta({C: BlockDelta(append=_block([7, 8], seed=3))}),
            StoreDelta({}, drop_regions=(B,)),
        ]
        for delta in deltas:
            mem.apply_delta(delta)
            disk.apply_delta(delta)
        assert mem.version == disk.version == 3
        assert set(mem.regions()) == set(disk.regions())
        for region in mem.regions():
            m, d = mem.read(region), disk.read(region)
            assert np.array_equal(m.item_ids, d.item_ids)
            assert np.array_equal(m.x, d.x)
            assert np.array_equal(m.y, d.y)
