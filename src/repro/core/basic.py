"""Basic bellwether search (Section 4).

With the entire training data materialized (one block per feasible region —
see :mod:`repro.core.training_data`), the search itself is a single scan:
estimate the error of a model per region, keep the minimum-error region that
satisfies the criterion.

:class:`BasicBellwetherSearch` evaluates every region *once* and can then
answer any number of budget queries (:meth:`run`, :meth:`sweep`) from the
cached per-region profile — exactly how the Figure 7/9 budget sweeps are
produced.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.dimensions import Region
from repro.exec import ParallelConfig, ParallelExecutor
from repro.ml import (
    ErrorEstimate,
    LinearRegression,
    TrainingSetEstimator,
    default_model_factory,
)
from repro.obs.catalog import (
    INCR_CACHE_HITS,
    INCR_FULL_REBUILDS,
    INCR_REGIONS_REFRESHED,
    SEARCH_REGIONS_EVALUATED,
)
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.storage import StorageError, TrainingDataStore

from .exceptions import SearchError
from .task import BellwetherTask, Criterion

_TRACER = get_tracer()
_REGIONS_EVALUATED = get_registry().counter(SEARCH_REGIONS_EVALUATED)
# Shared with repro.incremental (get-or-create returns the same instrument).
_CACHE_HITS = get_registry().counter(INCR_CACHE_HITS)
_REGIONS_REFRESHED = get_registry().counter(INCR_REGIONS_REFRESHED)
_FULL_REBUILDS = get_registry().counter(INCR_FULL_REBUILDS)


@dataclass(frozen=True)
class RegionResult:
    """The evaluation of one candidate region."""

    region: Region
    cost: float
    coverage: float
    n_items: int
    error: ErrorEstimate

    @property
    def rmse(self) -> float:
        return self.error.rmse


@dataclass(frozen=True)
class BasicBellwetherResult:
    """Outcome of a basic bellwether search under one criterion."""

    bellwether: RegionResult | None
    feasible: tuple[RegionResult, ...]
    criterion: Criterion

    @property
    def found(self) -> bool:
        return self.bellwether is not None

    def indistinguishable_fraction(self, confidence: float = 0.95) -> float:
        """Fraction of feasible regions statistically tied with the winner.

        Figure 7(b)'s measure: the share of feasible regions whose error
        falls inside the P% confidence interval of the bellwether model's
        error.  Low fraction = the bellwether is nearly unique.
        """
        if self.bellwether is None or not self.feasible:
            return float("nan")
        interval = self.bellwether.error
        hits = sum(
            1 for r in self.feasible if interval.contains(r.rmse, confidence)
        )
        return hits / len(self.feasible)

    def average_error(self) -> float:
        """Mean error over feasible regions (Figure 7(a)'s "Avg Err")."""
        if not self.feasible:
            return float("nan")
        return float(np.mean([r.rmse for r in self.feasible]))


class BasicBellwetherSearch:
    """Scan-once, query-many basic bellwether search.

    Parameters
    ----------
    task:
        The problem definition (criterion's coverage bound is honoured; the
        budget can be overridden per query).
    store:
        Entire training data: one block per candidate (or feasible) region.
    costs, coverage:
        Optional precomputed per-region cost/coverage (else recomputed from
        the task / store contents).
    min_examples:
        Regions whose training set (after any item restriction) has fewer
        examples are skipped — a model can't be fit meaningfully.
    """

    def __init__(
        self,
        task: BellwetherTask,
        store: TrainingDataStore,
        costs: dict[Region, float] | None = None,
        coverage: dict[Region, float] | None = None,
        min_examples: int | None = None,
    ):
        self.task = task
        self.store = store
        # A model with fewer examples than design columns interpolates and
        # reports a deceptive near-zero training error; demand headroom.
        p = len(store.feature_names) + 1  # + intercept
        self.min_examples = min_examples if min_examples is not None else max(5, p + 3)
        self._costs = costs or {r: task.cost(r) for r in store.regions()}
        self._coverage = coverage
        # Keyed by frozenset(item_ids), or None for "all items" — None (not
        # frozenset()) so an explicit empty subset is a distinct cache entry.
        self._profile: dict[frozenset | None, list[RegionResult]] = {}
        # Store version the all-items profile was evaluated against; refresh()
        # asks the store what changed since then.
        self._profile_version: int = store.version

    # --------------------------------------------------------------- warmth

    @property
    def profile_version(self) -> int:
        """Store version the cached all-items profile was evaluated at."""
        return self._profile_version

    @property
    def costs(self) -> dict:
        """Per-region evaluation costs as currently known (a copy)."""
        return dict(self._costs)

    def has_profile(self, item_ids: Sequence | None = None) -> bool:
        """Is a profile cached for this item restriction (``None`` = all)?

        Lets callers (e.g. the query service) distinguish the warm path —
        :meth:`evaluate_all` returning a cached list without touching the
        store — from a cold evaluation, without triggering either.
        """
        key = frozenset(item_ids) if item_ids is not None else None
        return key in self._profile

    # -------------------------------------------------------------- evaluate

    def evaluate_all(
        self,
        item_ids: Sequence | None = None,
        parallel: ParallelConfig | None = None,
    ) -> list[RegionResult]:
        """One scan over the store: a RegionResult per region.

        ``item_ids`` restricts training to a subset S of items (used by
        trees/cubes); coverage is then measured against |S|.

        ``parallel`` (default: the process-wide :mod:`repro.exec` config)
        fans the per-region error estimation out over workers.  The scan
        itself stays in this process — ``store.full_scans`` counts exactly
        one — and worker fit counters merge back, so results and metrics
        are identical to a serial run.
        """
        executor = ParallelExecutor(parallel)
        key = frozenset(item_ids) if item_ids is not None else None
        if key in self._profile:
            return self._profile[key]
        restrict = np.asarray(list(item_ids)) if item_ids is not None else None
        n_total = len(restrict) if restrict is not None else self.task.n_items
        results: list[RegionResult] = []
        before = self.store.stats.snapshot()
        with _TRACER.span(
            "search.evaluate_all",
            restricted=restrict is not None,
        ) as sp:
            pending = []
            for region, block in self.store.scan():
                if restrict is not None:
                    block = block.restrict_to(restrict)
                if block.n_examples < self.min_examples:
                    continue
                pending.append((region, block))
            estimator = self.task.error_estimator
            errors = executor.map(
                lambda pair: estimator.estimate(
                    pair[1].x, pair[1].y, pair[1].weights
                ),
                pending,
            )
            for (region, block), error in zip(pending, errors):
                results.append(
                    RegionResult(
                        region=region,
                        cost=self._costs.setdefault(
                            region, self.task.cost(region)
                        ),
                        coverage=block.n_examples / n_total,
                        n_items=block.n_examples,
                        error=error,
                    )
                )
            sp.annotate(
                evaluated=len(results),
                full_scans=(self.store.stats - before).full_scans,
            )
        _REGIONS_EVALUATED.inc(len(results))
        self._profile[key] = results
        if key is None:
            self._profile_version = self.store.version
        return results

    def evaluate_from_tables(self, tables) -> list[RegionResult]:
        """The all-items profile from materialized cube tables — no scan.

        ``tables`` is what :func:`repro.incremental.build_cube_tables`
        returned for a cube builder over this store at its *current* version
        (the caller's contract); the root lattice level — the single
        all-items subset — holds exactly one rolled suffstats problem per
        region, so the whole profile is one batched solve with
        ``store.full_scans``/``store.region_reads`` untouched.  Errors equal
        :meth:`evaluate_all`'s training-set estimates up to float
        associativity (rolled per-cell sums versus whole-block products).

        Requires the algebraic (plain training-set) error estimator; any
        other estimator needs the raw rows and raises
        :class:`~repro.core.exceptions.SearchError`.
        """
        est = self.task.error_estimator
        if not (
            isinstance(est, TrainingSetEstimator)
            and est.model_factory is default_model_factory
        ):
            raise SearchError(
                "cube tables answer the algebraic training-set error only; "
                "this task's estimator needs raw rows — use evaluate_all()"
            )
        root = next(
            (
                t
                for t in tables
                if all(x == 0 for x in t.level) and t.n_subsets == 1
            ),
            None,
        )
        if root is None:
            raise SearchError(
                "no root-level (all-items) cube table; the builder's "
                "min_subset_size must admit the full item set"
            )
        results: list[RegionResult] = []
        with _TRACER.span("search.from_tables", regions=root.n_regions) as sp:
            cand = np.flatnonzero(root.stats.n >= self.min_examples)
            if len(cand):
                stats = root.stats.select(cand)
                sse = stats.sse()
                denom = stats.n - stats.p
                denom = np.where(denom <= 0, stats.n, denom)
                rmse = np.sqrt(sse / denom)
                dof = stats.dof
                for k, idx in enumerate(cand):
                    region = root.regions[int(idx)]
                    n = int(stats.n[k])
                    results.append(
                        RegionResult(
                            region=region,
                            cost=self._costs.setdefault(
                                region, self.task.cost(region)
                            ),
                            coverage=n / self.task.n_items,
                            n_items=n,
                            error=ErrorEstimate(
                                rmse=float(rmse[k]),
                                kind="training",
                                sse=float(sse[k]),
                                dof=int(dof[k]),
                            ),
                        )
                    )
            sp.annotate(evaluated=len(results))
        _REGIONS_EVALUATED.inc(len(results))
        self._profile[None] = results
        self._profile_version = self.store.version
        return results

    # -------------------------------------------------------------- refresh

    def refresh(
        self,
        parallel: ParallelConfig | None = None,
        tables=None,
    ) -> list[RegionResult]:
        """Bring the all-items profile up to the store's current version.

        Replays the store's changelog: only regions a delta touched are
        re-read and re-estimated (``store.read``, never a full scan);
        untouched regions keep their cached evaluations, which are identical
        to what a fresh scan would recompute because their blocks did not
        change.  A changelog gap (:class:`~repro.storage.StorageError`)
        falls back to a full re-evaluation, loudly counted.

        Restricted-item profiles are invalidated — their membership may
        shift under the delta — and lazily recomputed on next use.

        ``tables`` (materialized cube tables at the store's current version)
        short-circuits the cold path: a search with no cached profile loads
        the warm profile from them (:meth:`evaluate_from_tables`) instead of
        scanning.  A warm search ignores them — changelog replay over the
        touched regions is already scan-free.
        """
        if None not in self._profile:
            # Restricted profiles carry no version of their own; any of them
            # may predate a delta, so none survives a refresh.
            self._profile.clear()
            if tables is not None:
                return self.evaluate_from_tables(tables)
            return self.evaluate_all(parallel=parallel)
        try:
            deltas = self.store.deltas_since(self._profile_version)
        except StorageError:
            _FULL_REBUILDS.inc()
            self._profile.clear()
            return self.evaluate_all(parallel=parallel)
        if not deltas:
            _CACHE_HITS.inc()
            return self._profile[None]
        touched: set[Region] = set()
        dropped: set[Region] = set()
        for applied in deltas:
            for region in applied.delta.drop_regions:
                dropped.add(region)
                touched.discard(region)
            for region in applied.delta.blocks:
                dropped.discard(region)
                touched.add(region)
        by_region = {r.region: r for r in self._profile[None]}
        for region in dropped:
            by_region.pop(region, None)
        with _TRACER.span("search.refresh", touched=len(touched)) as sp:
            pending = []
            for region in touched:
                block = self.store.read(region)
                if block.n_examples < self.min_examples:
                    by_region.pop(region, None)
                    continue
                pending.append((region, block))
            executor = ParallelExecutor(parallel)
            estimator = self.task.error_estimator
            errors = executor.map(
                lambda pair: estimator.estimate(
                    pair[1].x, pair[1].y, pair[1].weights
                ),
                pending,
            )
            for (region, block), error in zip(pending, errors):
                by_region[region] = RegionResult(
                    region=region,
                    cost=self._costs.setdefault(region, self.task.cost(region)),
                    coverage=block.n_examples / self.task.n_items,
                    n_items=block.n_examples,
                    error=error,
                )
            sp.annotate(evaluated=len(pending))
        _REGIONS_EVALUATED.inc(len(pending))
        _REGIONS_REFRESHED.inc(len(touched))
        results = [
            by_region[r] for r in self.store.regions() if r in by_region
        ]
        self._profile = {None: results}
        self._profile_version = self.store.version
        return results

    # ------------------------------------------------------------------- run

    def run(
        self,
        budget: float | None = None,
        item_ids: Sequence | None = None,
    ) -> BasicBellwetherResult:
        """Find the bellwether region under the (possibly overridden) budget."""
        criterion = (
            self.task.criterion
            if budget is None
            else self.task.criterion.with_budget(budget)
        )
        with _TRACER.span("search.run", budget=budget):
            evaluated = self.evaluate_all(item_ids)
            feasible = tuple(
                r for r in evaluated if criterion.admits(r.cost, r.coverage)
            )
        best = (
            min(
                feasible,
                key=lambda r: criterion.objective(r.rmse, r.cost, r.coverage),
            )
            if feasible
            else None
        )
        return BasicBellwetherResult(best, feasible, criterion)

    def sweep(
        self,
        budgets: Sequence[float],
        item_ids: Sequence | None = None,
    ) -> list[tuple[float, BasicBellwetherResult]]:
        """run() for each budget, sharing the single evaluation scan."""
        return [(b, self.run(budget=b, item_ids=item_ids)) for b in budgets]

    # ----------------------------------------------------------------- model

    def fit_model(
        self,
        region: Region,
        item_ids: Sequence | None = None,
    ) -> LinearRegression:
        """The bellwether model h_r: fit on the region's training set."""
        block = self.store.read(region)
        if item_ids is not None:
            block = block.restrict_to(np.asarray(list(item_ids)))
        if block.n_examples < 1:
            raise SearchError(f"no training examples in region {region}")
        return LinearRegression().fit(block.x, block.y, block.weights)
