"""Figure 13 (service): query-service latency and throughput under load.

The paper's system is interactive — an analyst asks "which region predicts
subset S under budget B" and expects an answer in seconds, not a batch
job.  This figure measures that regime end to end: a live
:mod:`repro.serve` process over an on-disk store, hit by N concurrent
seeded synthetic clients (:mod:`repro.serve.loadgen`).  The warm-up pass
pays every cold evaluation once; the measured pass then runs entirely on
the server's read-locked, zero-scan path, so p50/p99 latency and
throughput characterize the materialized-tables serving architecture, not
ad-hoc rescans.

Each (backend, client-count) point journals to ``BENCH_figures.json``
under the PR 6 sentinel, with the ``serve.requests`` /
``store.full_scans`` counter deltas attached — the deterministic query
plan makes both exact contracts, so a future change that silently
reintroduces fact scans into the warm path trips the sentinel's two-sided
ops band, not just the latency band.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import build_store
from repro.datasets import make_mailorder
from repro.exceptions import ConfigError
from repro.ml import TrainingSetEstimator
from repro.obs.bench import BenchJournal
from repro.obs.catalog import (
    SERVE_REQUESTS,
    SERVE_ZERO_SCAN_QUERIES,
    STORE_FULL_SCANS,
)
from repro.obs.metrics import get_registry
from repro.serve import ServerState, run_loadgen, serve_in_thread
from repro.storage import DiskStore

__all__ = ["Fig13Result", "run_fig13"]

_BACKENDS = ("memory", "npz")

#: Counter deltas attached to every journal record (deterministic under
#: the seeded plan, hence sentinel-gated as exact ops contracts).
_OP_METRICS = (SERVE_REQUESTS, STORE_FULL_SCANS, SERVE_ZERO_SCAN_QUERIES)


@dataclass
class Fig13Result:
    """One serving sweep: a row per storage backend."""

    clients: int
    requests_per_client: int
    rows: list[dict] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"fig13: {self.clients} concurrent clients x "
            f"{self.requests_per_client} requests, live repro.serve"
        ]
        for row in self.rows:
            lines.append(
                f"  {row['backend']:>8}: {row['rps']:7.0f} req/s  "
                f"p50={row['p50_ms']:7.2f}ms  p99={row['p99_ms']:7.2f}ms  "
                f"errors={row['n_errors']}  "
                f"full_scans={row['full_scans']}"
            )
        return "\n".join(lines)


def _counter_snapshot() -> dict[str, float]:
    values = get_registry().counter_values()
    return {name: values.get(name, 0.0) for name in _OP_METRICS}


def run_fig13(
    backends=("npz",),
    clients: int = 256,
    requests_per_client: int = 4,
    n_items: int = 50,
    n_months: int = 8,
    seed: int = 0,
    budgets: tuple[float, ...] = (20.0, 50.0, 90.0),
    min_subset_size: int = 5,
    journal_path: str | Path | None = "BENCH_figures.json",
) -> Fig13Result:
    """Serve the mail-order deployment and measure it under concurrent load.

    One live server per backend (fresh temp directory, materialized cube
    tables), ``clients`` synchronized client threads each walking a seeded
    ``requests_per_client``-query mix.  Results journal as
    ``fig13.<backend>.c<clients>`` (pass ``journal_path=None`` to skip).
    """
    for backend in backends:
        if backend not in _BACKENDS:
            raise ConfigError(
                f"unknown fig13 backend {backend!r}; use one of {_BACKENDS}"
            )
    journal = (
        BenchJournal(
            journal_path,
            context={"figure": "fig13", "seed": seed, "n_items": n_items},
        )
        if journal_path is not None
        else None
    )
    ds = make_mailorder(
        n_items=n_items,
        n_months=n_months,
        seed=seed,
        error_estimator=TrainingSetEstimator(),
    )
    result = Fig13Result(clients=clients, requests_per_client=requests_per_client)
    for backend in backends:
        memory_store, costs, __ = build_store(ds.task)
        with tempfile.TemporaryDirectory(prefix="repro-fig13-") as tmp:
            root = Path(tmp)
            store = (
                memory_store
                if backend == "memory"
                else DiskStore.from_memory(root / "store", memory_store)
            )
            state = ServerState(
                ds.task,
                store,
                ds.hierarchies,
                tables_dir=root / "tables",
                costs=costs,
                dataset_name="mailorder",
                min_subset_size=min_subset_size,
            )
            with serve_in_thread(state) as handle:
                before = _counter_snapshot()
                load = run_loadgen(
                    handle.host,
                    handle.port,
                    clients=clients,
                    requests_per_client=requests_per_client,
                    seed=seed,
                    budgets=budgets,
                )
                after = _counter_snapshot()
        deltas = {k: after[k] - before[k] for k in _OP_METRICS}
        # The delta brackets warm-up + measured pass.  Warm-up pays one scan
        # per cold subset profile; the measured pass answers from the
        # read-locked cached state, so the total stays a small constant of
        # the plan — hundreds of measured queries falling off the warm path
        # would blow the sentinel's two-sided ops band immediately.
        full_scans = int(deltas[STORE_FULL_SCANS])
        row = {
            "backend": backend,
            "n_requests": load.n_requests,
            "n_errors": load.n_errors,
            "n_infeasible": load.n_infeasible,
            "elapsed_s": load.elapsed_s,
            "p50_ms": load.p50_ms,
            "p99_ms": load.p99_ms,
            "rps": load.rps,
            "full_scans": full_scans,
        }
        result.rows.append(row)
        if journal is not None:
            journal.record(
                f"fig13.{backend}.c{clients}",
                elapsed_s=load.elapsed_s,
                metrics=deltas,
                backend=backend,
                clients=clients,
                requests_per_client=requests_per_client,
                n_requests=load.n_requests,
                n_errors=load.n_errors,
                n_infeasible=load.n_infeasible,
                p50_ms=round(load.p50_ms, 3),
                p99_ms=round(load.p99_ms, 3),
                rps=round(load.rps, 1),
            )
    return result
