"""Benchmark entry point: one workload, end-to-end or per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 8 --trace 0

``--trace 0`` runs the workload once, untraced, and reports the end-to-end
metrics.  ``--trace 1`` runs it untraced and then traced, and reports the
per-layer metrics plus ``obs.trace_overhead_pct.<metric>`` (traced minus
untraced, as a percentage of untraced) for every end-to-end metric.  Each
pass runs in its own process.  Every metric is printed by name with its
unit; the last line of standard output is the JSON result.  A wrong answer
fails the run: ``correct`` is false and the exit code is 1.

The program is imported from ``src/`` of the checkout; without it the run
exits with code 2 and prints no result.  Scratch files live under
``.perfbench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("serve_warm", "batch_build")

E2E = (
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("read_rps", "1/s"),
    ("cold_p50_ms", "ms"),
    ("refresh_p50_ms", "ms"),
    ("table_build_s", "s"),
    ("peak_rss_mb", "MB"),
)

_SERVE_LAYERS = (
    ("serve.app.wire_ms.p50", "ms"),
    ("serve.app.handler_ms.p50", "ms"),
    ("serve.app.response_bytes.mean", "bytes"),
    ("serve.threads.max", "count"),
    ("serve.locks.read_wait_ms.p99", "ms"),
    ("serve.locks.write_wait_ms.p50", "ms"),
    ("serve.locks.write_hold_ms.p99", "ms"),
    ("serve.locks.write_hold_ms.sum", "ms"),
    ("serve.state.self_ms.p50", "ms"),
    ("serve.state.apply_delta_ms.p50", "ms"),
    ("serve.rss_kb_per_cold_subset", "kB"),
    ("serve.zero_scan_ratio", "ratio"),
    ("core.basic.run_ms.p50", "ms"),
    ("core.basic.evaluate_all_ms.p50", "ms"),
    ("core.basic.evaluate_all.count", "count"),
    ("core.basic.refresh_ms.p50", "ms"),
)
_CORE_LAYERS = (
    ("storage.scan_ms", "ms"),
    ("store.full_scans", "count"),
    ("store.region_reads", "count"),
    ("store.bytes_read", "bytes"),
    ("ml.estimate_ms", "ms"),
    ("ml.linear.fits", "count"),
    ("ml.suffstats.from_data_ms", "ms"),
    ("ml.suffstats.from_data.count", "count"),
    ("ml.suffstats.rollup_ms", "ms"),
    ("ml.suffstats.rollup_calls", "count"),
    ("ml.suffstats.solve_ms", "ms"),
    ("ml.linear.batched_problems", "count"),
    ("ml.rowproducts_ms", "ms"),
    ("core.rowindex.rows_of_ms", "ms"),
    ("incremental.build_cube_tables_ms", "ms"),
    ("incr.cells_resolved", "count"),
    ("incremental.tables_hit_ratio", "ratio"),
    ("incremental.suffstats_cache.save_ms", "ms"),
    ("incremental.suffstats_cache.load_ms", "ms"),
    ("storage.cubetables.save_ms", "ms"),
    ("storage.cubetables.load_ms", "ms"),
    ("cube.tables.bytes_written", "bytes"),
    ("cube.tables.bytes_read", "bytes"),
    ("core.cube.build_ms", "ms"),
    ("core.cube.build_from_tables_ms", "ms"),
)
_OP_LAYERS = tuple(
    (f"{name}.per_{op}", "count")
    for name in ("store.full_scans", "store.region_reads")
    for op in ("read", "cold", "refresh", "table_build")
)
GAP_LAYERS = (
    "storage.scan", "storage.read", "core.rowindex.rows_of", "ml.rowproducts",
    "ml.suffstats.from_data", "ml.suffstats.rollup", "ml.suffstats.solve",
    "core.cube.build", "incremental.build_cube_tables",
    "incremental.maintainer.refresh", "incremental.maintainer.level_tables",
    "incremental.suffstats_cache.save", "storage.cubetables.save",
)
_GAP = (("batch.gap_ms", "ms"),) + tuple(
    (f"batch.gap.{layer}_ms", "ms") for layer in GAP_LAYERS + ("other",)
)
PER_LAYER = (
    _SERVE_LAYERS + _CORE_LAYERS + _OP_LAYERS + _GAP
    + tuple((f"obs.trace_overhead_pct.{name}", "%") for name, __ in E2E)
)

HERE = Path(__file__).resolve().parent
PASS_TIMEOUT_S = 170


def run_pass(args, trace: bool, work: Path, budget_s: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(int(trace)),
        "--work", str(work),
    ]
    env = {**os.environ, "PYTHONPATH": f"{Path('src').resolve()}:{HERE}"}
    # Its own session, so a pass that overruns is killed together with the
    # server processes it started.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True
    )
    try:
        out, __ = proc.communicate(timeout=budget_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} pass exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from a checkout root", file=sys.stderr)
        return 2
    started = time.monotonic()
    work = Path(".perfbench_work") / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plain = run_pass(args, False, work / "plain", PASS_TIMEOUT_S)
        traced = None
        if args.trace:
            left = PASS_TIMEOUT_S - (time.monotonic() - started)
            traced = run_pass(args, True, work / "traced", max(left, 1.0))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    results = [plain] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for message in r["errors"][:20]:
            print(f"perfbench: FAILED {message}", file=sys.stderr)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds}")
    for name, (value, unit) in plain["e2e"].items():
        note = plain["notes"].get(name, "")
        print(f"{name:<34} {value:>14.4f} {unit:<6} {note}")
    for name, (value, unit) in plain["extra"].items():
        print(f"{name:<34} {value:>14.4f} {unit:<6}")
    if traced is None:
        metrics = {
            name: {"value": plain["e2e"][name][0], "unit": unit} for name, unit in E2E
        }
    else:
        layers = dict(traced["layers"])
        for name, __ in E2E:
            base = plain["e2e"][name][0]
            pct = (traced["e2e"][name][0] - base) / base * 100.0 if base else 0.0
            layers[f"obs.trace_overhead_pct.{name}"] = (pct, "%")
        metrics = {}
        for name, unit in PER_LAYER:
            value = layers.get(name, (0.0, unit))[0]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<40} {value:>14.4f} {unit}")
    print(f"attempted={attempted} failed={failed}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
