"""Process-wide serving state shared by every request thread.

One :class:`ServerState` owns the versioned store, the
:class:`~repro.core.BasicBellwetherSearch` profile, the materialized cube
tables (:mod:`repro.storage.cubetables`) and a small per-version model
cache, all behind a writer-preferring :class:`~repro.serve.locks.RWLock`:

* **Warm queries** take the read lock and answer from cached state only —
  no fact scans, no mutation, any number in parallel.
* **Cold queries** (first touch of an item subset, or the store moved)
  take the write lock, bring the state up to the store's current version
  through the adopt-and-patch path (:func:`build_cube_tables` +
  :meth:`BasicBellwetherSearch.refresh`), recompute what is missing, and
  then answer.  A live server therefore tracks an appending store without
  restarts, and every response is stamped with the ``store_version`` it
  was computed at.

The :mod:`repro.obs` registry is single-threaded by design, so all serve
instrument updates go through ``_INSTRUMENT_LOCK`` here
(:func:`record_request` is the hook the HTTP layer calls).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.analysis.runtime import (
    SERVE_INSTRUMENT,
    SERVE_STATE_RW,
    TrackedLock,
    assert_holds_read,
    assert_holds_write,
)
from repro.core import BasicBellwetherSearch, BellwetherCubeBuilder
from repro.exceptions import ConfigError
from repro.exec import ParallelConfig
from repro.incremental import build_cube_tables
from repro.ml import TrainingSetEstimator, default_model_factory
from repro.obs.catalog import (
    SERVE_CACHE_HITS,
    SERVE_CACHE_MISSES,
    SERVE_ERRORS,
    SERVE_LATENCY_BELLWETHER,
    SERVE_LATENCY_CUBE,
    SERVE_LATENCY_MODEL,
    SERVE_LATENCY_PREDICT,
    SERVE_LATENCY_REGIONS,
    SERVE_REQUESTS,
    SERVE_VERSION_ADOPTIONS,
    SERVE_ZERO_SCAN_QUERIES,
    STORE_FULL_SCANS,
)
from repro.obs.metrics import get_registry
from repro.storage import (
    StorageError,
    TrainingDataStore,
    region_from_json,
    region_to_json,
)

from .errors import (
    BadRequestError,
    InfeasibleQueryError,
    NotFoundError,
    ServiceUnavailableError,
)
from .locks import LockTimeoutError, RWLock

__all__ = ["ENDPOINTS", "ServerState", "record_request"]

#: Routable endpoints, advertised by /model and /healthz.
ENDPOINTS = (
    "GET /model",
    "GET /regions",
    "GET /cube",
    "POST /bellwether",
    "POST /predict",
    "GET /healthz",
    "GET /metricsz",
)

# The registry's increments are plain ``+=`` (single-threaded by design);
# the service is the one multi-threaded client, so it brings its own lock.
# TrackedLock reports to the opt-in runtime checker under the canonical
# name the static rules (RPR007/RPR008) use for the same lock.
_INSTRUMENT_LOCK = TrackedLock(SERVE_INSTRUMENT)
_REGISTRY = get_registry()
_REQUESTS = _REGISTRY.counter(SERVE_REQUESTS)
_ERRORS = _REGISTRY.counter(SERVE_ERRORS)
_CACHE_HITS = _REGISTRY.counter(SERVE_CACHE_HITS)
_CACHE_MISSES = _REGISTRY.counter(SERVE_CACHE_MISSES)
_VERSION_ADOPTIONS = _REGISTRY.counter(SERVE_VERSION_ADOPTIONS)
_ZERO_SCAN_QUERIES = _REGISTRY.counter(SERVE_ZERO_SCAN_QUERIES)
_FULL_SCANS = _REGISTRY.counter(STORE_FULL_SCANS)
_LATENCY = {
    "model": _REGISTRY.histogram(SERVE_LATENCY_MODEL),
    "regions": _REGISTRY.histogram(SERVE_LATENCY_REGIONS),
    "cube": _REGISTRY.histogram(SERVE_LATENCY_CUBE),
    "bellwether": _REGISTRY.histogram(SERVE_LATENCY_BELLWETHER),
    "predict": _REGISTRY.histogram(SERVE_LATENCY_PREDICT),
}


def record_request(endpoint: str, elapsed_s: float, error: bool) -> None:
    """Count one answered request and observe its latency (thread-safe)."""
    with _INSTRUMENT_LOCK:
        _REQUESTS.inc()
        if error:
            _ERRORS.inc()
        hist = _LATENCY.get(endpoint)
        if hist is not None:
            hist.observe(elapsed_s)


def _record_cache(hit: bool) -> None:
    with _INSTRUMENT_LOCK:
        (_CACHE_HITS if hit else _CACHE_MISSES).inc()


def _record_adoption() -> None:
    with _INSTRUMENT_LOCK:
        _VERSION_ADOPTIONS.inc()


def _record_zero_scan() -> None:
    with _INSTRUMENT_LOCK:
        _ZERO_SCAN_QUERIES.inc()


class ServerState:
    """The one shared, versioned serving state behind the RW lock.

    Parameters
    ----------
    task, store:
        The problem definition and its (possibly appending) training store.
    hierarchies:
        Item hierarchies enabling the /cube drill-down endpoints and the
        materialized-tables warm path; requires ``tables_dir``.
    tables_dir:
        Directory for the persisted cube tables + suffstats cache (the
        PR 3/7 adopt-and-patch state).  Mandatory with ``hierarchies``.
    costs:
        Optional precomputed per-region costs (else from ``task.cost``).
    parallel:
        Fan cold evaluations out over this :class:`ParallelConfig`.  Use a
        thread backend — forking from a multi-threaded server process is
        deadlock-prone.
    dataset_name:
        Advertised by /model and /healthz.
    min_subset_size, min_examples:
        Builder/search thresholds, as in the batch paths.
    health_timeout:
        Seconds ``/healthz`` waits for the read lock before answering 503
        (a wedged writer must degrade the health check, not hang it).
        ``None`` waits forever, as every other endpoint does.
    """

    def __init__(
        self,
        task,
        store: TrainingDataStore,
        hierarchies=None,
        *,
        tables_dir: str | Path | None = None,
        costs=None,
        parallel: ParallelConfig | None = None,
        dataset_name: str = "dataset",
        min_subset_size: int = 3,
        min_examples: int | None = None,
        health_timeout: float | None = 1.0,
    ):
        est = task.error_estimator
        algebraic = (
            isinstance(est, TrainingSetEstimator)
            and est.model_factory is default_model_factory
        )
        if hierarchies is not None and tables_dir is None:
            raise ConfigError(
                "serving with hierarchies requires tables_dir (the "
                "materialized cube tables back the /cube and warm paths)"
            )
        if tables_dir is not None and not algebraic:
            raise ConfigError(
                "materialized cube tables answer the algebraic training-set "
                "estimator only; this task's estimator needs raw rows — "
                "serve without tables_dir/hierarchies"
            )
        if parallel is not None and parallel.workers > 1 and (
            parallel.backend == "process"
        ):
            raise ConfigError(
                "a threaded server must not fork worker processes; use "
                "ParallelConfig(backend='thread') (or workers=1)"
            )
        self.task = task
        self.store = store
        self.dataset_name = dataset_name
        self.search = BasicBellwetherSearch(
            task, store, costs=costs, min_examples=min_examples
        )
        self.builder = (
            BellwetherCubeBuilder(
                task,
                store,
                hierarchies,
                min_subset_size=min_subset_size,
                min_examples=min_examples,
            )
            if hierarchies is not None
            else None
        )
        self._tables_dir = None if tables_dir is None else Path(tables_dir)
        self._tables = None
        self._tables_version: int | None = None
        self._cube = None
        self._cube_version: int | None = None
        # (region, item-id tuple | None, store version) -> (model, block, mean)
        self._models: dict = {}
        self._rw = RWLock(name=SERVE_STATE_RW)
        self._parallel = parallel
        self._known_items = {int(i) for i in task.item_ids}
        self._t0 = time.monotonic()
        self._health_timeout = health_timeout
        # Pre-warm: first table build + profile, before any thread exists.
        # The write lock is uncontended here; taking it anyway keeps the
        # runtime checker's "write lock held" contract uniform.
        with self._rw.write():
            self._refresh_locked()

    # ------------------------------------------------------------ versioning

    def _is_warm(self, key) -> bool:
        """Cached profile current for this item-subset key?  (lock held)"""
        return (
            self.search.profile_version == self.store.version
            and self.search.has_profile(key)
        )

    def _refresh_locked(self) -> None:
        """Bring tables + profile to the store's version.  (write lock held)

        Cube tables adopt the newest persisted snapshot and patch forward
        through the store changelog (:func:`build_cube_tables` reuses the
        incremental maintainer), then the search profile refreshes from
        them — region reads at most, never a fact scan once tables exist.
        """
        assert_holds_write(SERVE_STATE_RW)
        v = int(self.store.version)
        adopted = False
        if self.builder is not None and self._tables_dir is not None:
            if self._tables is None or self._tables_version != v:
                self._tables = build_cube_tables(self.builder, self._tables_dir)
                self._tables_version = v
                self._cube = None
                adopted = True
        if not self._is_warm(None):
            self.search.refresh(parallel=self._parallel, tables=self._tables)
            adopted = True
        if adopted:
            self._models.clear()
            _record_adoption()

    def apply_delta(self, delta) -> dict:
        """Apply a store delta and adopt it immediately (exclusive)."""
        with self._rw.write():
            self.store.apply_delta(delta)
            self._refresh_locked()
            version = int(self.store.version)
        return {"store_version": version}

    # ---------------------------------------------------------- validation

    def _canonical_items(self, items) -> list[int] | None:
        """Sorted unique python ints, validated against the item table."""
        if items is None:
            return None
        if not isinstance(items, (list, tuple)) or not items:
            raise BadRequestError("items must be a non-empty list of item ids")
        try:
            ids = sorted({int(i) for i in items})
        except (TypeError, ValueError) as exc:
            raise BadRequestError(f"items must be integers: {exc}") from exc
        unknown = [i for i in ids if i not in self._known_items]
        if unknown:
            raise BadRequestError(f"unknown item ids: {unknown[:8]}")
        return ids

    def _decode_region(self, values):
        try:
            return region_from_json(values)
        except StorageError as exc:
            raise BadRequestError(f"unintelligible region key: {exc}") from exc

    @staticmethod
    def _check_budget(budget):
        if budget is None:
            return None
        if isinstance(budget, bool) or not isinstance(budget, (int, float)):
            raise BadRequestError(f"budget must be a number, got {budget!r}")
        return float(budget)

    # ------------------------------------------------------------- payloads

    def _region_result_json(self, r) -> dict:
        return {
            "region": region_to_json(r.region),
            "region_str": str(r.region),
            "cost": float(r.cost),
            "coverage": float(r.coverage),
            "n_examples": int(r.n_items),
            "rmse": float(r.rmse),
            "sse": None if r.error.sse is None else float(r.error.sse),
            "dof": int(r.error.dof),
            "error_kind": r.error.kind,
        }

    # ---------------------------------------------------------------- /model

    def model_info(self) -> dict:
        with self._rw.read():
            lattice = None
            if self.builder is not None:
                lattice = {
                    "n_levels": self.builder.n_levels,
                    "n_significant_subsets": len(
                        self.builder.significant_subsets
                    ),
                    "min_subset_size": self.builder.min_subset_size,
                    "min_examples": self.builder.min_examples,
                    "geometry": self.builder.geometry_signature(),
                }
            return {
                "service": "repro.serve",
                "dataset": self.dataset_name,
                "backend": type(self.store).__name__,
                "store_version": int(self.store.version),
                "n_regions": len(self.store.regions()),
                "n_items": int(self.task.n_items),
                "item_ids": sorted(self._known_items),
                "n_examples_total": int(self.store.n_examples_total),
                "feature_names": list(self.store.feature_names),
                "lattice": lattice,
                "endpoints": list(ENDPOINTS),
            }

    # -------------------------------------------------------------- /healthz

    def healthz(self) -> dict:
        try:
            with self._rw.read(timeout=self._health_timeout):
                return {
                    "status": "ok",
                    "dataset": self.dataset_name,
                    "store_version": int(self.store.version),
                    "uptime_s": round(time.monotonic() - self._t0, 3),
                }
        except LockTimeoutError as exc:
            # A writer has wedged the state past the health deadline: the
            # process is alive but cannot answer — degrade to 503 rather
            # than hanging the probe (which reads as a dead process).
            raise ServiceUnavailableError(
                f"state write-locked for over {self._health_timeout:.3f}s"
            ) from exc

    # ------------------------------------------------------------- /metricsz

    def metricsz(self) -> dict:
        with self._rw.read():
            version = int(self.store.version)
        with _INSTRUMENT_LOCK:
            snapshot = _REGISTRY.as_dict()
        return {"store_version": version, "metrics": snapshot}

    # -------------------------------------------------------------- /regions

    def regions_info(self) -> dict:
        with self._rw.read():
            if self._is_warm(None):
                _record_cache(hit=True)
                return self._regions_locked()
        with self._rw.write():
            self._refresh_locked()
            _record_cache(hit=False)
            return self._regions_locked()

    def _regions_locked(self) -> dict:
        assert_holds_read(SERVE_STATE_RW)
        profile = self.search.evaluate_all()
        by_region = {r.region: r for r in profile}
        entries = []
        for index, region in enumerate(self.store.regions()):
            rr = by_region.get(region)
            entries.append(
                {
                    "index": index,
                    "key": region_to_json(region),
                    "region": str(region),
                    "cost": float(rr.cost if rr else self.task.cost(region)),
                    "evaluable": rr is not None,
                    "coverage": None if rr is None else float(rr.coverage),
                    "n_examples": None if rr is None else int(rr.n_items),
                    "rmse": None if rr is None else float(rr.rmse),
                }
            )
        return {
            "store_version": int(self.store.version),
            "n_regions": len(entries),
            "regions": entries,
        }

    # ----------------------------------------------------------------- /cube

    def cube_info(self, level: tuple[int, ...] | None = None) -> dict:
        if self.builder is None:
            raise NotFoundError(
                "this deployment serves no item hierarchies; /cube needs them"
            )
        with self._rw.read():
            if (
                self._cube is not None
                and self._cube_version == self.store.version
            ):
                _record_cache(hit=True)
                return self._cube_locked(level)
        with self._rw.write():
            self._refresh_locked()
            if self._cube is None or self._cube_version != self.store.version:
                self._cube = self.builder.build_from_tables(self._tables)
                self._cube_version = int(self.store.version)
            _record_cache(hit=False)
            return self._cube_locked(level)

    def _cube_locked(self, level: tuple[int, ...] | None) -> dict:
        assert_holds_read(SERVE_STATE_RW)
        cube = self._cube
        levels = sorted({s.level for s in cube.subsets})
        if level is None:
            counts = {
                lv: sum(1 for s in cube.subsets if s.level == lv)
                for lv in levels
            }
            return {
                "store_version": int(self.store.version),
                "n_subsets": len(cube),
                "levels": [
                    {"level": list(lv), "n_subsets": counts[lv]}
                    for lv in levels
                ],
            }
        if level not in levels:
            raise NotFoundError(
                f"no lattice level {list(level)}; have "
                f"{[list(lv) for lv in levels]}"
            )
        entries = []
        for e in cube.crosstab(level):
            entries.append(
                {
                    "nodes": [str(n) for n in e.subset.nodes],
                    "n_items": int(e.n_items),
                    "found": e.found,
                    "region": None if e.region is None else region_to_json(e.region),
                    "region_str": None if e.region is None else str(e.region),
                    "rmse": None if e.error is None else float(e.error.rmse),
                }
            )
        return {
            "store_version": int(self.store.version),
            "level": list(level),
            "n_subsets": len(entries),
            "subsets": entries,
        }

    # ------------------------------------------------------------ /bellwether

    def bellwether(self, budget=None, items=None) -> dict:
        """Best region for item subset ``items`` under ``budget``.

        Warm (profile current for this subset): read lock, zero scans.
        Cold: write lock, version adoption, then at most one scan for a
        never-seen restricted subset (the all-items profile never rescans
        once tables exist).
        """
        budget = self._check_budget(budget)
        ids = self._canonical_items(items)
        key = frozenset(ids) if ids is not None else None
        # Unlocked `.value` reads below are a CPython-atomic int load; a
        # racing scan from another request at worst skips one zero-scan
        # tally, it cannot corrupt the counter.
        scans_before = _FULL_SCANS.value  # lint: ignore[RPR007]
        payload = None
        with self._rw.read():
            if self._is_warm(key):
                _record_cache(hit=True)
                payload = self._bellwether_locked(budget, ids)
                if _FULL_SCANS.value == scans_before:  # lint: ignore[RPR007]
                    _record_zero_scan()
        if payload is None:
            with self._rw.write():
                self._refresh_locked()
                if key is not None and not self.search.has_profile(key):
                    self.search.evaluate_all(
                        item_ids=ids, parallel=self._parallel
                    )
                _record_cache(hit=False)
                payload = self._bellwether_locked(budget, ids)
                if _FULL_SCANS.value == scans_before:  # lint: ignore[RPR007]
                    _record_zero_scan()
        return payload

    def _bellwether_locked(self, budget, ids) -> dict:
        assert_holds_read(SERVE_STATE_RW)
        result = self.search.run(budget=budget, item_ids=ids)
        if result.bellwether is None:
            raise InfeasibleQueryError(
                f"no feasible region for budget={budget!r} over "
                f"{'all items' if ids is None else f'{len(ids)} items'}"
            )
        return {
            "store_version": int(self.store.version),
            "budget": budget,
            "items": ids,
            "found": True,
            "bellwether": self._region_result_json(result.bellwether),
            "n_feasible": len(result.feasible),
            "feasible": [
                self._region_result_json(r) for r in result.feasible
            ],
        }

    # --------------------------------------------------------------- /predict

    def predict(self, items, region=None, budget=None) -> dict:
        """Predicted per-item values and aggregate for ``items`` from a region.

        ``region`` (a /regions ``key``) defaults to the bellwether for
        ``items`` under ``budget``.  The model is ``h_r`` fit on the
        region's rows restricted to ``items`` (exactly
        :meth:`BasicBellwetherSearch.fit_model`); items without rows in the
        region fall back to the training-set mean.
        """
        budget = self._check_budget(budget)
        ids = self._canonical_items(items)
        if ids is None:
            raise BadRequestError("predict requires items")
        region_obj = None if region is None else self._decode_region(region)
        key = frozenset(ids)
        payload = None
        with self._rw.read():
            if self._is_warm(key if region_obj is None else None) or (
                region_obj is not None
            ):
                payload = self._predict_locked(
                    ids, region_obj, budget, allow_build=False
                )
                if payload is not None:
                    _record_cache(hit=True)
        if payload is None:
            with self._rw.write():
                self._refresh_locked()
                if region_obj is None and not self.search.has_profile(key):
                    self.search.evaluate_all(
                        item_ids=ids, parallel=self._parallel
                    )
                _record_cache(hit=False)
                payload = self._predict_locked(
                    ids, region_obj, budget, allow_build=True
                )
        return payload

    def _predict_locked(self, ids, region, budget, allow_build: bool) -> dict | None:
        assert_holds_read(SERVE_STATE_RW)
        if region is None:
            if not self.search.has_profile(frozenset(ids)):
                return None
            result = self.search.run(budget=budget, item_ids=ids)
            if result.bellwether is None:
                raise InfeasibleQueryError(
                    f"no feasible region for budget={budget!r} "
                    f"over {len(ids)} items"
                )
            region = result.bellwether.region
        elif region not in set(self.store.regions()):
            raise NotFoundError(f"unknown region {region}")
        cache_key = (region, tuple(ids), int(self.store.version))
        entry = self._models.get(cache_key)
        if entry is None:
            if not allow_build:
                return None
            model = self.search.fit_model(region, item_ids=ids)
            block = self.store.read(region)
            train = block.restrict_to(np.asarray(ids))
            train_mean = float(train.y.mean()) if train.n_examples else 0.0
            entry = (model, block, train_mean)
            self._models[cache_key] = entry
        model, block, train_mean = entry
        predictions = []
        total = 0.0
        for item in ids:
            hit = np.flatnonzero(block.item_ids == item)
            if hit.size:
                value = float(model.predict(block.x[hit[0]])[0])
                fallback = False
            else:
                value = train_mean
                fallback = True
            total += value
            predictions.append(
                {"item": int(item), "value": value, "fallback": fallback}
            )
        return {
            "store_version": int(self.store.version),
            "budget": budget,
            "items": ids,
            "region": region_to_json(region),
            "region_str": str(region),
            "coef": [float(c) for c in model.coef],
            "predictions": predictions,
            "aggregate": float(total),
        }
