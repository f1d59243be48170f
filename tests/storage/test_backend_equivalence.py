"""The in-memory and npz stores are interchangeable, bit for bit.

The same training data held in a :class:`MemoryStore` and spilled to a
:class:`DiskStore` must round-trip to identical arrays in the same scan
order, and every algorithm downstream — the bellwether cube, the RF tree,
the basic search — must produce *exactly* the same answers (``EXACT``
tolerance, not approximate), because both stores feed the same floats to
the same deterministic kernels.
"""

import numpy as np
import pytest

from repro.core import (
    BasicBellwetherSearch,
    BellwetherCubeBuilder,
    BellwetherTreeBuilder,
)
from repro.core.training_data import build_store
from repro.datasets import make_mailorder
from repro.ml import TrainingSetEstimator
from repro.storage import DiskStore
from repro.verify import (
    EXACT,
    assert_same_cube,
    assert_same_store,
    assert_same_tree,
    diff_profiles,
)


@pytest.fixture(scope="module")
def dataset():
    return make_mailorder(
        n_items=60, n_months=6, seed=0, error_estimator=TrainingSetEstimator()
    )


@pytest.fixture(scope="module")
def stores(dataset, tmp_path_factory):
    base = tmp_path_factory.mktemp("stores")
    mem, __, __ = build_store(dataset.task)
    npz = DiskStore.from_memory(base / "npz", mem)
    return mem, npz, DiskStore(base / "npz")


class TestStoreEquivalence:
    def test_stores_identical(self, stores):
        mem, npz, reopened = stores
        assert_same_store(mem, npz, tol=EXACT)
        assert_same_store(mem, reopened, tol=EXACT)

    def test_scan_order_matches(self, stores):
        # Scan order decides bellwether tie-breaks, so the manifest must
        # restore it exactly on reopen.
        mem, npz, reopened = stores
        order = [r for r, __b in mem.scan()]
        assert [r for r, __b in npz.scan()] == order
        assert [r for r, __b in reopened.scan()] == order

    def test_raw_bytes_round_trip(self, stores):
        mem, npz, __ = stores
        for region in mem.regions():
            a, b = mem.read(region), npz.read(region)
            assert a.item_ids.tobytes() == b.item_ids.tobytes()
            assert a.x.tobytes() == b.x.tobytes()
            assert a.y.tobytes() == b.y.tobytes()


class TestAlgorithmEquivalence:
    """The fig7/fig9 pipelines give bit-identical answers on both stores."""

    def test_cube_exact(self, dataset, stores):
        mem, npz, __ = stores
        cube_mem = BellwetherCubeBuilder(
            dataset.task, mem, dataset.hierarchies
        ).build("optimized")
        cube_npz = BellwetherCubeBuilder(
            dataset.task, npz, dataset.hierarchies
        ).build("optimized")
        assert_same_cube(cube_mem, cube_npz, tol=EXACT)

    def test_tree_exact(self, dataset, stores):
        mem, npz, __ = stores

        def tree(store):
            return BellwetherTreeBuilder(
                dataset.task,
                store,
                split_attrs=dataset.task.item_feature_attrs,
                min_items=20,
                max_depth=2,
            ).build("rf")

        assert_same_tree(tree(mem).root, tree(npz).root)

    def test_basic_search_profile_exact(self, dataset, stores):
        mem, npz, __ = stores
        prof_mem = BasicBellwetherSearch(dataset.task, mem).evaluate_all()
        prof_npz = BasicBellwetherSearch(dataset.task, npz).evaluate_all()
        assert diff_profiles(prof_mem, prof_npz, tol=EXACT) == []
        assert np.array_equal(
            [r.rmse for r in prof_mem], [r.rmse for r in prof_npz]
        )
