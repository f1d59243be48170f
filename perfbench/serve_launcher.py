"""The benchmark's server process: build the deployment, serve, take deltas.

Run by the load process, never by hand::

    python3 perfbench/serve_launcher.py --seed 1 --root DIR --deltas 8 --trace 0

It builds the deployment (:mod:`deploy`), binds ``make_server`` on a free
local port, serves from a thread and prints one JSON ``ready`` line with
the set-up time, wall and CPU (this process, all threads), from before the
program is imported to the bound server, bracketed by ``PROBE_RUNS`` host
speed probes on each side (their median CPU times are in the line too).

Its stdin is the delta pipe: each ``{"op": "delta", "index": i}`` line
makes the main thread call
``ServerState.apply_delta`` with delta ``i`` of the fixed stream and answer
``{"store_version": v, "counters": {...}}``, the registry's
``COUNTERS`` moved by the call; ``{"op": "probe", "runs": n}`` runs the
host speed probe ``n`` times in this process and answers
``{"seconds": s, "cpu_before": b, "cpu_after": a, "contended": c}``: ``s``
the runs' median CPU time, ``b`` and ``a`` this process's CPU time
(``time.process_time``) just before and just after the runs, so that the
CPU the server spent between two probes is one's ``b`` minus the other's
``a``, and ``c`` ``SpeedProbe.contention_errors`` of the runs.
``{"op": "exit"}`` (or EOF) stops the server and, in traced runs, writes the
recorded spans to ``ROOT/spans.json`` before the process exits.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path


#: Registry counters reported per delta.
COUNTERS = ("store.full_scans", "store.region_reads", "incr.cells_resolved")


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--deltas", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path(args.root)

    from common import PROBE_RUNS, SpeedProbe

    probe = SpeedProbe()
    before = probe.median_time(PROBE_RUNS)
    start, cpu = time.perf_counter(), time.process_time()
    import deploy
    from repro.obs.metrics import get_registry
    from repro.serve.app import make_server

    recorder = None
    if args.trace:
        from spans import Recorder, install_serve

        recorder = Recorder()
        install_serve(recorder)

    ds, memory_store, costs = deploy.build_dataset()
    state = deploy.make_state(ds, deploy.spill(memory_store, root), costs, root)
    server = make_server(state, "127.0.0.1", 0)
    setup_s, setup_cpu_s = time.perf_counter() - start, time.process_time() - cpu
    after = probe.median_time(PROBE_RUNS)
    # Derived after the clock stops: the deltas are the benchmark's input.
    from common import make_deltas

    deltas = make_deltas(memory_store, args.seed, args.deltas)
    registry = get_registry()

    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _reply({
        "ready": True, "port": server.server_address[1],
        "setup_s": setup_s, "setup_cpu_s": setup_cpu_s,
        "probe_before_s": before, "probe_after_s": after, "probes": len(probe.samples),
        "contended": probe.contention_errors("launch"),
    })
    try:
        for line in sys.stdin:
            cmd = json.loads(line)
            if cmd["op"] == "delta":
                if recorder is not None:
                    recorder.set_request(cmd.get("req"))
                counters = registry.counter_values()
                result = state.apply_delta(deltas[cmd["index"]])
                moved = registry.counter_values()
                if recorder is not None:
                    recorder.set_request(None)
                result["counters"] = {k: moved.get(k, 0) - counters.get(k, 0) for k in COUNTERS}
                _reply(result)
            elif cmd["op"] == "probe":
                probe.contended.clear()
                cpu_before = time.process_time()
                seconds = probe.median_time(int(cmd["runs"]))
                _reply({
                    "seconds": seconds, "cpu_before": cpu_before,
                    "cpu_after": time.process_time(),
                    "contended": probe.contention_errors("server"),
                })
            elif cmd["op"] == "exit":
                break
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        if recorder is not None:
            recorder.dump(root / "spans.json")
        _reply({"exited": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
