"""Tests for the basic bellwether search and budget-sweep reporting."""

import numpy as np
import pytest

from repro.core import (
    BasicBellwetherSearch,
    RandomSamplingBaseline,
    budget_sweep,
    render_table,
)
from repro.dimensions import Interval


@pytest.fixture(scope="module")
def search(small_task, small_store):
    store, costs, coverage = small_store
    return BasicBellwetherSearch(small_task, store, costs=costs)


class TestEvaluateAll:
    def test_every_feasible_region_evaluated(self, search):
        results = search.evaluate_all()
        assert len(results) > 0
        for r in results:
            assert r.n_items >= search.min_examples
            assert np.isfinite(r.rmse)

    def test_cached_scan(self, search):
        before = search.store.stats.full_scans
        search.evaluate_all()
        search.evaluate_all()
        assert search.store.stats.full_scans == before or (
            search.store.stats.full_scans == before + 1
        )  # at most one scan for repeated calls

    def test_item_restriction_changes_errors(self, search, small_task):
        subset = list(np.asarray(small_task.item_ids)[:15])
        full = {r.region: r.rmse for r in search.evaluate_all()}
        sub = {r.region: r.rmse for r in search.evaluate_all(item_ids=subset)}
        common = set(full) & set(sub)
        assert common
        assert any(abs(full[r] - sub[r]) > 1e-12 for r in common)


class TestRun:
    def test_budget_respected(self, search):
        result = search.run(budget=3.0)
        for r in result.feasible:
            assert r.cost <= 3.0

    def test_bellwether_is_min_error(self, search):
        result = search.run(budget=10.0)
        assert result.found
        assert result.bellwether.rmse == min(r.rmse for r in result.feasible)

    def test_impossible_budget(self, search):
        result = search.run(budget=-1.0)
        assert not result.found
        assert result.feasible == ()

    def test_larger_budget_never_worse(self, search):
        """The feasible set grows with budget, so min error is monotone."""
        errors = [search.run(budget=b).bellwether.rmse for b in (2.0, 6.0, 26.0)]
        assert errors[0] >= errors[1] >= errors[2]

    def test_sweep_matches_individual_runs(self, search):
        swept = dict(search.sweep([2.0, 6.0]))
        assert swept[2.0].bellwether.region == search.run(budget=2.0).bellwether.region

    def test_unbounded_budget_prefers_whole_space(self, search, small_task):
        """With sum-profit as both feature and target, [1-4, All] is exact."""
        result = search.run()
        assert result.bellwether.region == small_task.space.region(4, "All")
        assert result.bellwether.rmse == pytest.approx(0.0, abs=1e-6)


class TestResultStatistics:
    def test_average_error_at_least_bellwether(self, search):
        result = search.run(budget=10.0)
        assert result.average_error() >= result.bellwether.rmse

    def test_indistinguishable_fraction_bounds(self, search):
        result = search.run(budget=10.0)
        frac = result.indistinguishable_fraction(0.95)
        assert 0.0 <= frac <= 1.0

    def test_wider_confidence_more_indistinguishable(self, search):
        result = search.run(budget=10.0)
        assert result.indistinguishable_fraction(0.99) >= (
            result.indistinguishable_fraction(0.5)
        )

    def test_empty_result_nan(self, search):
        result = search.run(budget=-1.0)
        assert np.isnan(result.indistinguishable_fraction())
        assert np.isnan(result.average_error())


class TestFitModel:
    def test_model_predicts(self, search, small_task):
        result = search.run(budget=10.0)
        model = search.fit_model(result.bellwether.region)
        block = search.store.read(result.bellwether.region)
        pred = model.predict(block.x)
        assert pred.shape == (block.n_examples,)


class TestBudgetSweepReport:
    def test_points_and_table(self, search, small_task, small_generator):
        smp = RandomSamplingBaseline(
            small_task,
            {(t, s): 1.0 for t in range(1, 5) for s in ("WI", "IL", "NY", "MD")},
            generator=small_generator,
            seed=0,
        )
        points = budget_sweep(
            search, [2.0, 8.0, 20.0], sampling=smp, sampling_trials=2
        )
        assert [p.budget for p in points] == [2.0, 8.0, 20.0]
        for p in points:
            assert p.bel_err <= p.avg_err or np.isnan(p.bel_err)
        text = render_table(points)
        assert "bel_err" in text and "indist@95%" in text
        assert len(text.splitlines()) == len(points) + 2

    def test_infeasible_budget_point(self, search):
        points = budget_sweep(search, [-1.0])
        assert points[0].n_feasible == 0
        assert np.isnan(points[0].bel_err)


class TestSamplingBaseline:
    def test_error_positive_and_finite(self, small_task, small_generator):
        smp = RandomSamplingBaseline(
            small_task,
            {(t, s): 1.0 for t in range(1, 5) for s in ("WI", "IL", "NY", "MD")},
            generator=small_generator,
            seed=3,
        )
        err = smp.sample_error(budget=6.0, n_trials=3)
        assert np.isfinite(err) and err > 0

    def test_zero_budget_gives_nan(self, small_task, small_generator):
        smp = RandomSamplingBaseline(
            small_task,
            {(t, s): 1.0 for t in range(1, 5) for s in ("WI", "IL", "NY", "MD")},
            generator=small_generator,
        )
        assert np.isnan(smp.sample_error(budget=0.0, n_trials=2))


class TestRefreshWithoutAllItemsProfile:
    """refresh() on a search that never cached the all-items profile."""

    @pytest.fixture()
    def dataset(self):
        from repro.datasets import make_mailorder

        return make_mailorder(n_items=60, n_months=6)

    def test_restricted_profiles_do_not_outlive_a_delta(self, dataset):
        from repro.core import build_store
        from repro.storage import BlockDelta, RegionBlock, StoreDelta

        store, __, __ = build_store(dataset.task)
        search = BasicBellwetherSearch(dataset.task, store)
        subset = [int(i) for i in dataset.task.item_ids[::2]]
        before = search.run(item_ids=subset)
        assert before.found
        # Move y in the subset's bellwether region.
        region = before.bellwether.region
        block = store.read(region)
        shifted = np.random.default_rng(0).normal(0.0, 10.0, block.n_examples)
        store.apply_delta(
            StoreDelta(
                {
                    region: BlockDelta(
                        append=RegionBlock(
                            block.item_ids, block.x, block.y + shifted,
                            block.weights,
                        ),
                        retract_ids=block.item_ids,
                    )
                }
            )
        )
        search.refresh()
        assert search.profile_version == store.version == 1
        after = search.run(item_ids=subset)
        fresh = BasicBellwetherSearch(dataset.task, store).run(item_ids=subset)
        assert [(r.region, r.rmse) for r in after.feasible] == [
            (r.region, r.rmse) for r in fresh.feasible
        ]
        assert after.feasible != before.feasible

    def test_regions_added_by_a_delta_are_costed(self, dataset):
        from repro.incremental import month_append_delta, month_split_store

        gen, regions, store = month_split_store(dataset.task, base_month=5)
        search = BasicBellwetherSearch(dataset.task, store)
        added = month_append_delta(gen, regions, 6)
        store.apply_delta(added)
        profile = search.refresh()
        assert set(added.blocks) & {r.region for r in profile}
        fresh = BasicBellwetherSearch(dataset.task, store).evaluate_all()
        assert [(r.region, r.cost, r.rmse) for r in profile] == [
            (r.region, r.cost, r.rmse) for r in fresh
        ]
