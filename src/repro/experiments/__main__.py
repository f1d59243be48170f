"""Command-line runner for the paper's figures.

Usage::

    python -m repro.experiments fig7           # one figure
    python -m repro.experiments fig10a fig10b  # several
    python -m repro.experiments all            # everything
    python -m repro.experiments all --fast     # small sizes, quick sanity
    python -m repro.experiments fig7 --workers 4   # parallel region fan-out

Observability (see ``repro.obs``)::

    python -m repro.experiments fig7 --fast --trace
        # span tree + critical path + hot spans + metrics on stderr
    python -m repro.experiments fig7 --fast --profile
        # like --trace, plus per-span peak-RSS / GC / read-rate samples
    python -m repro.experiments all --fast --metrics-out runs.jsonl
        # one JSON line per figure: elapsed, metric deltas, span tree
        # (analyze later with `python -m repro.obs report runs.jsonl`)
    python -m repro.experiments all --fast --bench
        # one summary line per figure: elapsed, scan/read/fit counts

Each figure prints the same series the benches record under
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.exec import ParallelConfig, set_default_config
from repro.obs import observe

from . import (
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10a,
    run_fig10b,
    run_fig11a,
    run_fig11b,
    run_fig11c,
    run_fig11d,
    run_fig11e,
    run_fig11f,
    run_fig12a,
    run_fig12b,
    run_fig13,
)


def _fig7(fast: bool):
    kwargs = dict(n_items=60, budgets=(5.0, 25.0, 45.0, 65.0, 85.0)) if fast else {}
    return run_fig7(**kwargs).render()


def _fig8(fast: bool):
    kwargs = dict(n_items=60, budgets=(10.0, 30.0), n_folds=3) if fast else {}
    return run_fig8(**kwargs).render()


def _fig9(fast: bool):
    kwargs = (
        dict(n_items=60, budgets=(10.0, 40.0, 80.0),
             prediction_budgets=(20.0, 80.0), n_folds=3)
        if fast
        else dict(n_folds=3)
    )
    return run_fig9(**kwargs).render()


def _fig10a(fast: bool):
    kwargs = (
        dict(n_datasets=1, n_items=150, n_folds=3, noises=(0.05, 0.5, 2.0))
        if fast
        else dict(n_datasets=3, n_folds=3)
    )
    return run_fig10a(**kwargs).render()


def _fig10b(fast: bool):
    kwargs = (
        dict(n_datasets=1, n_items=150, n_folds=3, node_counts=(3, 15, 63))
        if fast
        else dict(n_datasets=3, n_folds=3)
    )
    return run_fig10b(**kwargs).render()


def _fig11a(fast: bool):
    kwargs = dict(region_counts=(4, 8), n_items=200) if fast else {}
    return run_fig11a(**kwargs).render()


def _fig11b(fast: bool):
    kwargs = dict(region_counts=(8, 16), n_items=400) if fast else {}
    return run_fig11b(**kwargs).render()


def _fig11c(fast: bool):
    kwargs = dict(region_counts=(8, 16), n_items=400) if fast else {}
    return run_fig11c(**kwargs).render()


def _fig11d(fast: bool):
    kwargs = dict(region_counts=(8, 16), n_items=400, workers=2) if fast else {}
    return run_fig11d(**kwargs).render()


def _fig11e(fast: bool, append_months: int | None = None):
    kwargs = dict(n_items=80, base_months=7, append_months=2) if fast else {}
    if append_months is not None:
        kwargs["append_months"] = append_months
    return run_fig11e(**kwargs).render()


def _fig11f(fast: bool):
    # Fast mode is a smoke test at toy scale; journalling it would mix
    # 3.6k-example timings into the 10M-example sentinel baselines.
    kwargs = dict(n_items=300, n_regions=12, journal_path=None) if fast else {}
    return run_fig11f(**kwargs).render()


def _fig12a(fast: bool):
    kwargs = dict(leaf_counts=(2, 4), n_items=300) if fast else {}
    return run_fig12a(**kwargs).render()


def _fig12b(fast: bool):
    kwargs = dict(feature_counts=(2, 6), n_items=300) if fast else {}
    return run_fig12b(**kwargs).render()


def _fig13(fast: bool):
    kwargs = (
        dict(
            clients=8,
            requests_per_client=3,
            n_items=24,
            n_months=4,
            journal_path=None,
        )
        if fast
        else {}
    )
    return run_fig13(**kwargs).render()


FIGURES = {
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10a": _fig10a,
    "fig10b": _fig10b,
    "fig11a": _fig11a,
    "fig11b": _fig11b,
    "fig11c": _fig11c,
    "fig11d": _fig11d,
    "fig11e": _fig11e,
    "fig11f": _fig11f,
    "fig12a": _fig12a,
    "fig12b": _fig12b,
    "fig13": _fig13,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument(
        "figures",
        nargs="+",
        choices=[*FIGURES, "all"],
        help="which figures to run",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="small problem sizes (sanity runs, not the recorded series)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record tracing spans; print the span tree, critical path, "
        "hot spans, and metrics to stderr",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="sample peak RSS / GC / store read rate per span "
        "(implies --trace)",
    )
    parser.add_argument(
        "--lockcheck",
        action="store_true",
        help="enable the runtime lock checker for each figure "
        "(raises on lock-order violations)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="append one JSON line per figure (elapsed, metrics, spans)",
    )
    parser.add_argument(
        "--bench",
        action="store_true",
        help="print a one-line summary per figure (elapsed, scans, fits)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan region work out over N worker processes (default 1 = serial; "
        "results are identical, only wall-clock changes)",
    )
    parser.add_argument(
        "--append-months",
        type=int,
        default=None,
        metavar="N",
        help="fig11e only: stream N new months of orders into the deployed "
        "store (default: the figure's standard 3, or 2 with --fast)",
    )
    args = parser.parse_args(argv)
    if args.workers != 1:
        set_default_config(ParallelConfig(workers=args.workers))
    tracing = args.trace or args.profile
    names = list(FIGURES) if "all" in args.figures else args.figures
    for name in names:
        start = time.perf_counter()
        with observe(
            name,
            trace=tracing,
            profile=args.profile,
            lockcheck=args.lockcheck,
        ) as report:
            if name == "fig11e":
                rendered = _fig11e(args.fast, args.append_months)
            else:
                rendered = FIGURES[name](args.fast)
        print(rendered)
        print(f"[{name} in {time.perf_counter() - start:.1f}s]\n")
        if tracing:
            print(report.render(), file=sys.stderr)
        if args.bench:
            print(report.summary_line(), file=sys.stderr)
        if args.metrics_out:
            report.append_to(args.metrics_out, include_spans=tracing)
    return 0


if __name__ == "__main__":
    sys.exit(main())
