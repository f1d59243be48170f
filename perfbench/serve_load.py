"""The load process for ``serve_warm``.

The server runs in its own process (:mod:`serve_launcher`); this process
holds three keep-alive ``http.client`` connections (two readers, one
writer) and the delta pipe, so it shares no interpreter with what it
measures.  Inputs — dataset, query mix, never-seen subsets, delta stream —
all derive from the seed.

Phases of one run:

1. set-up: launch the server ``SETUP_LAUNCHES`` times (each into a fresh
   directory) and keep the last; ``setup_s`` is the median set-up time the
   launcher measures, from before it imports the program to ready;
2. reference: build the same dataset in this process; version-0 answers
   come from an in-process ``BasicBellwetherSearch``;
3. warm-up: every distinct read query once;
4. window (``--seconds``): closed-loop warm reads on the two reader
   connections, nothing else;
5. write phase: the readers go on, over the reads that stay warm across a
   delta, while the writer connection walks ``WRITE_CYCLES`` fixed
   cycles, each a delta through the pipe, the first all-items answer at the
   new version and ``COLD_PER_CYCLE`` never-seen subsets;
6. a final pass over every read query, then the checks: every answer
   against an in-process search built from scratch on the same data at its
   version (bit for bit at version 0, see :class:`Reference` for later
   ones), later versions also byte for byte against the delta stream
   replayed through an in-process ``ServerState``, the server's last cube
   tables bit for bit against a scratch build, monotone versions per
   connection, the exact scan contracts, and per delta the counters of a
   refresh that did its work.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import multiprocessing
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

import deploy
from common import (
    PROBE_RUNS,
    SALT_COLD,
    SALT_MIX,
    SpeedProbe,
    cell_stats,
    changed_cells,
    make_deltas,
    median,
    tables_digest,
    percentile,
    proc_status,
    scaled,
    subset_pool,
    tail,
)

SETUP_LAUNCHES = 5
BUDGETS = (20.0, 50.0, 90.0)
COLD_BUDGET = 90.0
SUBSET_SIZE = deploy.N_ITEMS // 2
N_POOL_SUBSETS = 3
N_CUBE_LEVELS = 2
#: The write phase's fixed sequence: every cycle is one delta, the first
#: all-items answer after it and COLD_PER_CYCLE never-seen subsets.  The
#: writer runs it closed loop, so its counters repeat exactly.  The repo
#: has no traffic data to set the ratio of writes to never-seen subsets
#: from; 2 per delta gives cold_p50_ms twice the samples of refresh_p50_ms
#: (16 and 8), since a cold query takes about a third as long.
WRITE_CYCLES = 8
COLD_PER_CYCLE = 2
#: Read kinds that stay warm across a delta, which refreshes the all-items
#: profile before it returns.  In the write phase the readers keep to these:
#: a delta drops every cached subset profile (a subset read would scan) and
#: the cube (the first /cube read would rebuild it under the write lock), so
#: every writer operation waits on the readers only for the lock.
TABLE_ONLY = ("bellwether_all", "regions", "model")
#: Timed operations whose time is CPU work, reported as the CPU time of the
#: process that does the work at reference host speed (common.SpeedProbe),
#: with probes in that process.  Reads are not: at the seed most of their
#: time is a TCP timer.
CPU_BOUND = ("setup_s", "cold_p50_ms", "refresh_p50_ms", "table_build_s")
#: From-scratch table builds of the deployment, timed in this process while
#: the server is idle: half before the reference is built, half at the end.
TABLE_BUILDS = 4
#: Read-mix weights, the same numbers as the program's own synthetic load
#: generator (``_MIX`` in src/repro/serve/loadgen.py), copied rather than
#: imported so that a later change to that mix does not move this
#: benchmark.  The repo has no recorded traffic; these are the only weights
#: it states.
MIX = (
    ("bellwether_all", 0.45),
    ("bellwether_subset", 0.15),
    ("predict", 0.20),
    ("regions", 0.10),
    ("model", 0.05),
    ("cube", 0.05),
)
#: Relative tolerance of later-version answers against a scratch search
#: (see :class:`Reference`).
REFRESH_RTOL = 1e-9
#: Region reads a delta refresh may make for its one touched region: one
#: by the cube tables, one by the search's all-items profile.
REFRESH_REGION_READS = 2
HERE = Path(__file__).resolve().parent


# ------------------------------------------------------------------ process


class Launcher:
    """One server process and its delta pipe."""

    def __init__(self, root: Path, seed: int, n_deltas: int, trace: bool):
        self.root = root
        root.mkdir(parents=True)
        env_path = str(Path("src").resolve())
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "serve_launcher.py"),
                "--seed", str(seed), "--root", str(root),
                "--deltas", str(n_deltas), "--trace", str(int(trace)),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env={**_base_env(), "PYTHONPATH": f"{env_path}:{HERE}"},
        )
        try:
            ready = self._read()
        except RuntimeError:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = float(ready["setup_s"])
        self.setup_cpu_s = float(ready["setup_cpu_s"])
        self.setup_scaled_s = scaled(
            self.setup_cpu_s, float(ready["probe_before_s"]), float(ready["probe_after_s"])
        )
        self.contended = list(ready["contended"])
        self.probes = int(ready["probes"])
        self.port = int(ready["port"])
        self.pid = self.proc.pid

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server process exited")
        return json.loads(line)

    def delta(self, index: int, req: str) -> dict:
        self.proc.stdin.write(json.dumps({"op": "delta", "index": index, "req": req}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def probe(self, runs: int) -> dict:
        """Host speed in the server process: median seconds of ``runs``
        probe runs, and their contention errors."""
        self.proc.stdin.write(json.dumps({"op": "probe", "runs": runs}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def kill(self) -> None:
        """Stop a server that was only timed to ready."""
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def close(self) -> list:
        """Stop the server; the spans it recorded (traced runs) or []."""
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"op": "exit"}) + "\n")
                self.proc.stdin.flush()
                self._read()
        except (OSError, RuntimeError, ValueError):
            pass
        finally:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        spans = self.root / "spans.json"
        return json.loads(spans.read_text()) if spans.exists() else []


def _base_env() -> dict:
    import os

    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


# ------------------------------------------------------------------- client


def encode(query) -> tuple[str, str, bytes | None]:
    kind = query[0]
    if kind == "bellwether":
        body = {"budget": query[1]}
        if query[2] is not None:
            body["items"] = list(query[2])
        return "POST", "/bellwether", json.dumps(body).encode()
    if kind == "predict":
        body = {"items": list(query[2]), "budget": query[1]}
        return "POST", "/predict", json.dumps(body).encode()
    if kind == "cube":
        if query[1] is None:
            return "GET", "/cube", None
        return "GET", "/cube?level=" + ",".join(str(x) for x in query[1]), None
    return "GET", "/" + kind, None


class Conn:
    """One keep-alive connection; every request becomes a record."""

    def __init__(self, port: int, name: str, run: "ServeRun"):
        self.port = port
        self.name = name
        self.run = run
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.n = 0

    def request(self, query, phase: str, kind: str) -> dict:
        self.n += 1
        req = f"{self.name}{self.n}"
        method, path, body = encode(query)
        headers = {"X-Bench-Request": req}
        if body is not None:
            headers["Content-Type"] = "application/json"
        t0 = time.perf_counter()
        try:
            self.http.request(method, path, body=body, headers=headers)
            resp = self.http.getresponse()
            data = resp.read()
            status = resp.status
        except (OSError, http.client.HTTPException) as exc:
            t1 = time.perf_counter()
            self.http.close()
            self.http = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            data, status = repr(exc).encode(), None
        else:
            t1 = time.perf_counter()
        rec = {
            "req": req, "conn": self.name, "phase": phase, "kind": kind,
            "query": query, "t0": t0, "t1": t1, "status": status,
            "nbytes": len(data), "digest": self.run.keep_body(data),
        }
        self.run.records.append(rec)
        return rec

    def close(self) -> None:
        self.http.close()


# ---------------------------------------------------------------- reference


class Reference:
    """The answers at one store version, from an in-process search.

    It is built from scratch (one full scan of the in-memory store as it is
    now, exact tables, no delta replay), so it shares no refresh path with
    the server.  Version-0 answers must equal it bit for bit.  Later ones
    are held to ``REFRESH_RTOL``: the server's refresh re-estimates a
    touched region's all-items error from its rows, while a scratch search
    solves it from the tables, and the two round differently in the last
    bits (a relative 3e-15 at the seed).  A delta moves a touched region's
    error by far more than that, and the replay check still holds later
    versions to the byte.
    """

    def __init__(self, dataset, version: int = 0):
        from repro.core import BasicBellwetherSearch, BellwetherCubeBuilder

        self.ds, self.memory_store, self.costs = dataset
        self.version = version
        self.rtol = 0.0 if version == 0 else REFRESH_RTOL
        store = self.memory_store
        builder = BellwetherCubeBuilder(
            self.ds.task, store, self.ds.hierarchies,
            min_subset_size=deploy.MIN_SUBSET_SIZE,
        )
        self.min_examples = builder.min_examples
        maintainer = builder.incremental(mode="exact")
        maintainer.refresh()
        self.tables = tables = maintainer.level_tables()
        self.search = BasicBellwetherSearch(self.ds.task, store, costs=self.costs)
        self.search.evaluate_from_tables(tables)
        self.builder = builder
        self.item_ids = sorted(int(i) for i in self.ds.task.item_ids)

    @functools.cached_property
    def cube(self):
        """Built only for versions with a ``/cube`` answer to check."""
        return self.builder.build_from_tables(self.tables)

    @property
    def levels(self) -> list:
        return sorted({s.level for s in self.cube.subsets})

    def feasible(self, budget, items) -> bool:
        return self.search.run(budget=budget, item_ids=items).bellwether is not None

    def same(self, got, want) -> bool:
        """Equal numbers (or lists of them, or None) within ``rtol``."""
        if isinstance(want, (list, tuple)):
            return len(got) == len(want) and all(self.same(g, w) for g, w in zip(got, want))
        if got is None or want is None:
            return got is want
        return got == want or abs(got - want) <= self.rtol * abs(want)

    def check(self, query, payload: dict) -> list[str]:
        """Mismatches between an answer at this version and the search."""
        out = []
        if payload.get("store_version") != self.version:
            out.append(f"store_version {payload.get('store_version')} != {self.version}")
        kind = query[0]
        if kind == "bellwether":
            expected = self.search.run(budget=query[1], item_ids=query[2])
            win = payload["bellwether"]
            ref = expected.bellwether
            if win["region_str"] != str(ref.region):
                out.append(f"region {win['region_str']} != {ref.region}")
            if not self.same(win["rmse"], float(ref.rmse)):
                out.append(f"rmse {win['rmse']!r} != {float(ref.rmse)!r}")
            if [e["region_str"] for e in payload["feasible"]] != [
                str(r.region) for r in expected.feasible
            ]:
                out.append("feasible list differs")
        elif kind == "predict":
            items = list(query[2])
            expected = self.search.run(budget=query[1], item_ids=items)
            region = expected.bellwether.region
            if payload["region_str"] != str(region):
                out.append(f"predict region {payload['region_str']} != {region}")
            model = self.search.fit_model(region, item_ids=items)
            if not self.same(payload["coef"], [float(c) for c in model.coef]):
                out.append("predict coef differs")
            block = self.memory_store.read(region)
            train = block.restrict_to(np.asarray(items))
            mean = float(train.y.mean()) if train.n_examples else 0.0
            total = 0.0
            values = []
            for item in items:
                hit = np.flatnonzero(block.item_ids == item)
                value = float(model.predict(block.x[hit[0]])[0]) if hit.size else mean
                total += value
                values.append(value)
            if not self.same([p["value"] for p in payload["predictions"]], values):
                out.append("predict values differ")
            if not self.same(payload["aggregate"], total):
                out.append("predict aggregate differs")
        elif kind == "regions":
            by_region = {str(r.region): r for r in self.search.evaluate_all()}
            for entry in payload["regions"]:
                ref = by_region.get(entry["region"])
                rmse = None if ref is None else float(ref.rmse)
                if not self.same(entry["rmse"], rmse):
                    out.append(f"/regions rmse of {entry['region']} differs")
                    break
            if payload["n_regions"] != len(self.memory_store.regions()):
                out.append("/regions count differs")
        elif kind == "cube":
            level = query[1]
            if level is None:
                if payload["n_subsets"] != len(self.cube):
                    out.append("/cube subset count differs")
            else:
                got = [(e["region_str"], e["rmse"]) for e in payload["subsets"]]
                want = [
                    (
                        None if e.region is None else str(e.region),
                        None if e.error is None else float(e.error.rmse),
                    )
                    for e in self.cube.crosstab(tuple(level))
                ]
                if got != want:
                    out.append(f"/cube level {list(level)} differs")
        elif kind == "model":
            if payload["n_regions"] != len(self.memory_store.regions()):
                out.append("/model region count differs")
        return out


def replay_expected(seed: int, root: Path, deltas_applied: int, wanted) -> dict:
    """Expected (status, body) per (query, version >= 1), replayed in process.

    The same delta stream goes through an in-process ``ServerState`` built
    exactly as the launcher builds it, so later-version answers must match
    the server byte for byte.
    """
    from repro.exceptions import ReproError
    from repro.serve.errors import error_payload

    ds, memory_store, costs = deploy.build_dataset()
    store = deploy.spill(memory_store, root)
    state = deploy.make_state(ds, store, costs, root)
    deltas = make_deltas(memory_store, seed, deltas_applied)
    by_version = defaultdict(list)
    for query, version in wanted:
        by_version[version].append(query)
    expected = {}
    for version in range(1, deltas_applied + 1):
        state.apply_delta(deltas[version - 1])
        for query in by_version.get(version, ()):
            try:
                payload = _call(state, query)
                status = 200
            except ReproError as exc:
                status, payload = error_payload(exc)
            expected[(query, version)] = (status, json.dumps(payload).encode())
    return expected


def _call(state, query):
    kind = query[0]
    if kind == "bellwether":
        items = None if query[2] is None else list(query[2])
        return state.bellwether(budget=query[1], items=items)
    if kind == "predict":
        return state.predict(items=list(query[2]), budget=query[1])
    if kind == "cube":
        return state.cube_info(None if query[1] is None else tuple(query[1]))
    if kind == "regions":
        return state.regions_info()
    return state.model_info()


# ---------------------------------------------------------------------- run


class ServeRun:
    def __init__(self, seed: int, seconds: float, trace: bool, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.records: list[dict] = []
        self.bodies: dict[str, bytes] = {}
        self.errors: list[str] = []
        self.samples: list[tuple[float, dict]] = []
        self.n_cold = WRITE_CYCLES * COLD_PER_CYCLE
        self.probe = SpeedProbe()
        self.server_probe_s: list[float] = []
        # Readers send only while ``go`` is set; each holds its ``busy`` lock
        # over a request, so the writer can pause them for a server probe.
        self.go = threading.Event()
        self.go.set()
        self.busy = [threading.Lock(), threading.Lock()]
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.cpu: dict[str, list[float]] = defaultdict(list)
        self.refresh_ms: list[float] = []
        self.delta_versions: list[int] = []
        self.delta_counters: list[dict] = []
        self.contended: list[str] = []
        self.launch_probes = 0
        self.server_probe_runs = 0
        self.counters: dict[str, dict] = {}

    def keep_body(self, data: bytes) -> str:
        digest = hashlib.blake2b(data, digest_size=16).hexdigest()
        self.bodies.setdefault(digest, data)
        return digest

    # ------------------------------------------------------------- inputs

    def make_inputs(self, ref: Reference) -> None:
        rng = np.random.default_rng([self.seed, SALT_MIX])
        # Candidate pool subsets are drawn until N_POOL_SUBSETS answer at
        # some budget; only feasible (query) pairs enter the read mix, and
        # retract-then-reappend deltas keep every region's rows, so
        # feasibility holds at every version.
        self.pool_subsets = []
        self.subset_queries = []
        self.predict_queries = []
        for subset in subset_pool(rng, ref.item_ids, 4 * N_POOL_SUBSETS, SUBSET_SIZE):
            ok = [b for b in BUDGETS if ref.feasible(b, subset)]
            if not ok:
                continue
            self.pool_subsets.append(subset)
            self.subset_queries += [("bellwether", b, tuple(subset)) for b in ok]
            self.predict_queries.append(("predict", max(ok), tuple(subset)))
            if len(self.pool_subsets) == N_POOL_SUBSETS:
                break
        self.all_queries = [
            ("bellwether", b, None) for b in BUDGETS if ref.feasible(b, None)
        ]
        picks = rng.choice(len(ref.levels), size=min(N_CUBE_LEVELS, len(ref.levels)), replace=False)
        self.cube_queries = [("cube", None)] + [
            ("cube", tuple(int(x) for x in ref.levels[int(i)])) for i in sorted(picks)
        ]
        self.distinct = (
            [("model",), ("regions",)] + self.cube_queries + self.all_queries
            + self.subset_queries + self.predict_queries
        )
        seen = {tuple(s) for s in self.pool_subsets}
        cold_rng = np.random.default_rng([self.seed, SALT_COLD])
        self.cold_subsets = [
            tuple(s)
            for s in subset_pool(cold_rng, ref.item_ids, self.n_cold + N_POOL_SUBSETS, SUBSET_SIZE)
            if tuple(s) not in seen
        ][: self.n_cold]

    def mix_stream(self, conn_index: int, kinds):
        """Seeded endless stream of read queries of the given mix kinds."""
        rng = np.random.default_rng([self.seed, SALT_MIX, conn_index])
        groups = {
            "bellwether_all": self.all_queries,
            "bellwether_subset": self.subset_queries,
            "predict": self.predict_queries,
            "regions": [("regions",)],
            "model": [("model",)],
            "cube": self.cube_queries,
        }
        mix = [(k, w) for k, w in MIX if k in kinds and groups[k]]
        kinds = [k for k, __ in mix]
        weights = np.asarray([w for __, w in mix])
        weights = weights / weights.sum()
        while True:
            group = groups[kinds[int(rng.choice(len(kinds), p=weights))]]
            yield group[int(rng.integers(len(group)))]

    # --------------------------------------------------------------- phases

    def sample_proc(self, pid: int, stop: threading.Event) -> None:
        while not stop.is_set():
            self.samples.append((time.perf_counter(), proc_status(pid)))
            stop.wait(0.02)

    def metricsz(self, conn: Conn, label: str) -> None:
        rec = conn.request(("metricsz",), "control", "control")
        self.counters[label] = json.loads(self.bodies[rec["digest"]])["metrics"]

    def reader(self, conn: Conn, busy, stream, phase: str, stop) -> None:
        """Closed-loop reads from ``stream`` until ``stop()`` is true."""
        while not stop():
            self.go.wait()
            with busy:
                if self.go.is_set():
                    conn.request(next(stream), phase, "read")

    def server_probe(self, launcher: Launcher) -> dict:
        """A speed probe in the server process, with the readers paused:
        the launcher's reply (median of ``PROBE_RUNS`` runs)."""
        self.go.clear()
        try:
            for busy in self.busy:
                with busy:
                    pass
            reply = launcher.probe(PROBE_RUNS)
        finally:
            self.go.set()
        seconds = float(reply["seconds"])
        self.contended += reply["contended"]
        self.server_probe_s.append(seconds)
        self.server_probe_runs += PROBE_RUNS
        return reply

    def server_cpu(self, name: str, before: dict, after: dict) -> None:
        """The server's CPU time between two probes, as ``name`` (ms)."""
        cpu = after["cpu_before"] - before["cpu_after"]
        self.cpu[name].append(cpu * 1000.0)
        self.scaled[name].append(scaled(cpu, before["seconds"], after["seconds"]) * 1000.0)

    def writer(self, conn: Conn, launcher: Launcher) -> None:
        """The write phase's fixed sequence, closed loop.

        Every operation is bracketed by server probes (shared between
        neighbours), taken with the readers paused; the operations
        themselves run beside the readers.  Its time is the server's CPU
        time between the probes: the operation's, and what the readers'
        requests cost the server while it ran (they wait on the write lock
        for most of it).
        """
        before = self.server_probe(launcher)
        for i in range(WRITE_CYCLES):
            t0 = time.perf_counter()
            reply = launcher.delta(i, req=f"d{i}")
            self.delta_versions.append(int(reply["store_version"]))
            self.delta_counters.append(reply["counters"])
            rec = conn.request(("bellwether", COLD_BUDGET, None), "write", "refresh")
            self.refresh_ms.append((rec["t1"] - t0) * 1000.0)
            after = self.server_probe(launcher)
            self.server_cpu("refresh_p50_ms", before, after)
            before = after
            for subset in self.cold_subsets[i * COLD_PER_CYCLE:(i + 1) * COLD_PER_CYCLE]:
                conn.request(("bellwether", COLD_BUDGET, subset), "write", "cold")
                after = self.server_probe(launcher)
                self.server_cpu("cold_p50_ms", before, after)
                before = after

    def read_phase(self, name: str, readers, kinds, deadline=None, writer=None) -> None:
        """Reads on ``readers`` until ``deadline``, or while ``writer()`` runs."""
        done = threading.Event()
        stop = done.is_set if deadline is None else (lambda: time.perf_counter() >= deadline)
        threads = [
            threading.Thread(
                target=self.reader,
                args=(conn, self.busy[i], self.mix_stream(i, kinds), name, stop),
            )
            for i, conn in enumerate(readers)
        ]
        for t in threads:
            t.start()
        try:
            if writer is not None:
                writer()
        finally:
            done.set()
            for t in threads:
                t.join()

    def execute(self) -> dict:
        launches = []
        for k in range(SETUP_LAUNCHES):
            launcher = Launcher(self.work / f"server{k}", self.seed, WRITE_CYCLES, self.trace)
            launches.append(launcher.setup_s)
            self.cpu["setup_s"].append(launcher.setup_cpu_s)
            self.scaled["setup_s"].append(launcher.setup_scaled_s)
            self.contended += launcher.contended
            self.launch_probes += launcher.probes
            if k < SETUP_LAUNCHES - 1:
                launcher.kill()
                shutil.rmtree(launcher.root, ignore_errors=True)
        self.setup = launches
        stop = threading.Event()
        sampler = threading.Thread(target=self.sample_proc, args=(launcher.pid, stop))
        conns = []
        self.table_builds = []
        try:
            dataset = deploy.build_dataset()
            self.time_table_builds(dataset, TABLE_BUILDS // 2)
            ref = Reference(dataset)
            self.make_inputs(ref)
            conns = [Conn(launcher.port, name, self) for name in "abw"]
            a, b, w = conns
            for query in self.distinct:
                a.request(query, "warmup", "read")
            for conn in (b, w):
                conn.request(("model",), "warmup", "read")
            self.metricsz(a, "start")
            sampler.start()
            self.window_start = time.perf_counter()
            self.read_phase(
                "window", (a, b), [k for k, __ in MIX], deadline=self.window_start + self.seconds
            )
            self.metricsz(a, "window")
            self.rss_window = proc_status(launcher.pid).get("VmRSS", 0)
            self.read_phase("write", (a, b), TABLE_ONLY, writer=lambda: self.writer(w, launcher))
            self.metricsz(a, "write")
            self.rss_write = proc_status(launcher.pid).get("VmRSS", 0)
            stop.set()
            for query in self.distinct:
                a.request(query, "final", "read")
            self.final_status = proc_status(launcher.pid)
        finally:
            stop.set()
            if sampler.is_alive():
                sampler.join()
            for conn in conns:
                conn.close()
            self.server_spans = launcher.close()
            self.server_root = launcher.root
        self.time_table_builds(dataset, TABLE_BUILDS - TABLE_BUILDS // 2)
        self.contended += self.probe.contention_errors("load")
        self.check(ref)
        return self.metrics()

    def time_table_builds(self, dataset, n: int) -> None:
        """``n`` from-scratch ``build_cube_tables`` of the deployment."""
        import repro.incremental as incremental
        from repro.core import BellwetherCubeBuilder

        ds, memory_store, __ = dataset
        root = self.work / f"table_builds{len(self.table_builds)}"
        store = deploy.spill(memory_store, root)
        builder = BellwetherCubeBuilder(
            ds.task, store, ds.hierarchies, min_subset_size=deploy.MIN_SUBSET_SIZE
        )
        for k in range(n):
            __, elapsed, cpu, at_ref = self.probe.measure(
                lambda: incremental.build_cube_tables(
                    builder, root / f"tables{k}", skip_existing=False
                ),
                runs=PROBE_RUNS,
            )
            self.table_builds.append(elapsed)
            self.cpu["table_build_s"].append(cpu)
            self.scaled["table_build_s"].append(at_ref)

    # --------------------------------------------------------------- checks

    def check(self, ref: Reference) -> None:
        answers: dict[tuple, str] = {}
        last_version: dict[str, int] = {}
        self.wrong = 0
        self.failures = 0
        versions = {}
        for rec in self.records:
            if rec["kind"] == "control":
                continue
            status = rec["status"]
            if status not in (200, 409):
                self.failures += 1
                self.errors.append(f"{rec['req']} {rec['query']}: status {status}")
                rec["version"] = None
                continue
            body = json.loads(self.bodies[rec["digest"]])
            version = body.get("store_version")
            if version is None:
                # A 409 carries no version; it answers at the connection's
                # current one (feasibility never changes under the stream).
                version = last_version.get(rec["conn"], 0)
            rec["version"] = version
            if version < last_version.get(rec["conn"], 0):
                self.wrong += 1
                self.errors.append(f"{rec['req']}: store_version went back to {version}")
            last_version[rec["conn"]] = version
            key = (rec["query"], version)
            first = answers.setdefault(key, rec["digest"])
            if first != rec["digest"]:
                self.wrong += 1
                self.errors.append(f"{rec['req']}: answer to {key} changed between requests")
            versions[key] = status
        applied = len(self.delta_versions)
        if self.delta_versions != list(range(1, applied + 1)):
            self.wrong += 1
            self.errors.append(f"delta versions {self.delta_versions}")
        later = [key for key in answers if key[1] >= 1]
        # The replay runs in a process of its own, beside the references.
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            replay = pool.submit(replay_expected, self.seed, self.work / "replay", applied, later)
            # Derived from the version-0 store, as the launcher derives them.
            deltas = make_deltas(ref.memory_store, self.seed, applied)
            by_version = defaultdict(list)
            for key in answers:
                by_version[key[1]].append(key)
            problems = defaultdict(list)
            for version in range(applied + 1):
                if version:
                    prev = ref
                    ref.memory_store.apply_delta(deltas[version - 1])
                    ref = Reference((ref.ds, ref.memory_store, ref.costs), version)
                    self.check_refresh(version, prev, ref)
                for key in by_version.get(version, ()):
                    query = key[0]
                    if versions[key] == 409:
                        if ref.feasible(query[1], query[2]):
                            problems[key].append("409 but feasible")
                    else:
                        problems[key] += ref.check(query, json.loads(self.bodies[answers[key]]))
            expected = replay.result()
        self.check_tables(ref)
        for key in later:
            status, want = expected.get(key, (None, b""))
            if status != versions[key] or want != self.bodies[answers[key]]:
                problems[key].append("differs from replay")
        bad_keys = {key for key, found in problems.items() if found}
        for key in bad_keys:
            self.errors.append(f"{key[0]} @v{key[1]}: {'; '.join(problems[key][:3])}")
        self.check_visible(answers, by_version)
        self.wrong += sum(
            1 for rec in self.records
            if rec.get("version") is not None and (rec["query"], rec["version"]) in bad_keys
        )
        self.check_scans()

    def check_refresh(self, version: int, prev: Reference, ref: Reference) -> None:
        """The counters of delta ``version``'s refresh in the server.

        The delta changes the data, so the refresh must re-solve at least
        every solvable cell whose statistics moved (counted between scratch
        builds before and after it), read the one region it touches no more
        than ``REFRESH_REGION_READS`` times, and scan nothing.  The seed
        re-solves every level on a delta, so the count of re-solved cells is
        a lower bound, not a pin: a refresh that skipped the delta would
        re-solve none.
        """
        counters = self.delta_counters[version - 1]
        changed = changed_cells(cell_stats(prev.tables), cell_stats(ref.tables), ref.min_examples)
        problems = []
        if changed == 0:
            problems.append("changed no solvable cell")
        if counters["incr.cells_resolved"] < changed:
            problems.append(f"re-solved {counters['incr.cells_resolved']} of {changed} changed cells")
        if counters["store.region_reads"] > REFRESH_REGION_READS:
            problems.append(f"{counters['store.region_reads']} region reads for one region")
        if counters["store.full_scans"] != 0:
            problems.append(f"{counters['store.full_scans']} full scans")
        if problems:
            self.wrong += 1
            self.errors.append(f"delta {version}: {'; '.join(problems)}")

    def check_tables(self, ref: Reference) -> None:
        """The cube tables the server persisted at its last version must
        equal, bit for bit, the scratch build at that version: a refresh
        whose tables went stale would show here even where no answer read
        shows it."""
        from repro.storage import CubeTableStore, StorageError

        try:
            served = CubeTableStore(self.server_root / "tables").load(
                ref.builder.geometry_signature(), ref.version
            )
        except StorageError as exc:
            self.wrong += 1
            self.errors.append(f"server tables at v{ref.version}: {exc}")
            return
        if tables_digest(served) != tables_digest(ref.tables):
            self.wrong += 1
            self.errors.append(f"server tables at v{ref.version} differ from a scratch build")

    def check_visible(self, answers: dict, by_version: dict) -> None:
        """Every delta moves some region's error, so ``/regions`` at every
        later version must differ from version 0 beyond its version."""

        def errors_of(key):
            return [e["rmse"] for e in json.loads(self.bodies[answers[key]])["regions"]]

        base = errors_of((("regions",), 0))
        for version, keys in by_version.items():
            for key in keys:
                if version and key[0] == ("regions",) and errors_of(key) == base:
                    self.wrong += 1
                    self.errors.append(f"/regions @v{version}: no region's error moved")

    def check_scans(self) -> None:
        """Exact scan contracts: none in the window, one per writer cold query.

        A query is the first to ask for its subset at its store version iff
        it needs a fact scan; in the write phase those must be exactly the
        writer's never-seen subsets.
        """
        seen = set()
        firsts = defaultdict(int)
        for rec in sorted(self.records, key=lambda r: r["t0"]):
            q = rec["query"]
            if rec.get("version") is None or q[0] not in ("bellwether", "predict") or q[2] is None:
                continue
            key = (frozenset(q[2]), rec["version"])
            if key not in seen:
                seen.add(key)
                firsts[rec["phase"]] += 1
        expected = {"window": 0, "write": len(self.measured_records("cold"))}
        before = self.counters["start"]
        for phase in ("window", "write"):
            after = self.counters[phase]
            scans = after.get("store.full_scans", 0) - before.get("store.full_scans", 0)
            if scans != expected[phase] or firsts[phase] != expected[phase]:
                self.wrong += 1
                self.errors.append(
                    f"{phase}: {scans} full scans and {firsts[phase]} first-seen subsets,"
                    f" expected {expected[phase]}"
                )
            before = after

    # -------------------------------------------------------------- metrics

    def measured_records(self, kind: str) -> list[dict]:
        return [r for r in self.records if r["kind"] == kind and r["phase"] in ("window", "write")]

    def metrics(self) -> dict:
        reads = [r for r in self.records if r["kind"] == "read" and r["phase"] == "window"]
        read_ms = [(r["t1"] - r["t0"]) * 1000.0 for r in reads]
        elapsed = max(r["t1"] for r in reads) - self.window_start
        cold_ms = [(r["t1"] - r["t0"]) * 1000.0 for r in self.measured_records("cold")]
        q, p_tail = tail(read_ms)
        hwm = self.final_status.get("VmHWM", 0)
        ops = [r for r in self.records if r["kind"] != "control"]
        measured = {
            "setup_s": (median(self.setup), "s"),
            "read_p50_ms": (median(read_ms), "ms"),
            "read_p99_ms": (p_tail, "ms"),
            "read_rps": (len(reads) / elapsed, "1/s"),
            "cold_p50_ms": (median(cold_ms), "ms"),
            "refresh_p50_ms": (median(self.refresh_ms), "ms"),
            "table_build_s": (median(self.table_builds), "s"),
            "peak_rss_mb": (hwm / 1024.0, "MB"),
        }
        e2e = dict(measured)
        extra = {}
        for name in CPU_BOUND:
            e2e[name] = (median(self.scaled[name]), measured[name][1])
            extra[f"{name}.wall"] = measured[name]
            extra[f"{name}.cpu"] = (median(self.cpu[name]), measured[name][1])
        extra["host.server_probe_ms"] = (median(self.server_probe_s) * 1000.0, "ms")
        extra["host.load_probe_ms"] = (self.probe.probe_ms(), "ms")
        # Speed probes count as operations: one run beside other threads' work fails.
        probes = self.launch_probes + self.server_probe_runs + len(self.probe.samples)
        attempted = len(ops) + len(self.delta_versions) + probes
        self.errors += self.contended
        failed = self.failures + self.wrong + len(self.contended)
        notes = {
            "read_p99_ms": f"p{q * 100:.1f} of {len(read_ms)} reads",
            "cold_p50_ms": f"{len(cold_ms)} never-seen subsets",
            "refresh_p50_ms": f"{len(self.refresh_ms)} deltas",
            "setup_s": f"median of {len(self.setup)} launches",
            "table_build_s": f"median of {len(self.table_builds)} builds",
        }
        extra["error_rate"] = (failed / attempted, "ratio")
        layers = self.layer_metrics(reads) if self.trace else {}
        return {
            "e2e": e2e, "extra": extra, "layers": layers, "notes": notes,
            "attempted": attempted, "failed": failed, "errors": self.errors,
        }

    def layer_metrics(self, reads: list[dict]) -> dict:
        from spans import LAYER, NESTED, REQ, SpanIndex, core_layer_metrics

        index = SpanIndex(self.server_spans)
        deltas = {f"d{i}" for i in range(len(self.delta_versions))}
        write = {r["req"] for r in self.records if r["phase"] == "write"} | deltas
        measured = {r["req"] for r in self.records if r["phase"] == "window"} | write
        read_reqs = {r["req"]: r for r in reads}
        by_req = defaultdict(list)
        for s in index.spans:
            if s[REQ] is not None:
                by_req[s[REQ]].append(s)
        wire, handler, self_ms = [], [], []
        for req, rec in read_reqs.items():
            spans = by_req.get(req, [])
            handle = [s for s in spans if s[LAYER] == "serve.app.handler"]
            state = [s for s in spans if s[LAYER].startswith("serve.state.") and not s[NESTED]]
            if not handle:
                continue
            rtt = (rec["t1"] - rec["t0"]) * 1000.0
            h = index.dur_ms(handle[0])
            wire.append(rtt - h)
            handler.append(h - sum(index.dur_ms(s) for s in state))
            for s in state:
                if s[LAYER] in ("serve.state.bellwether", "serve.state.predict"):
                    self_ms.append(index.self_ms(s))

        def of(layer, reqs=measured):
            return [s for s in index.spans if s[LAYER] == layer and s[REQ] in reqs]

        def ms(spans):
            return [index.dur_ms(s) for s in spans]

        evals = [s for s in of("core.basic.evaluate_all") if index.has_descendant(s, "storage.scan")]
        counters = self.counter_delta("start", "write")
        window_counters = self.counter_delta("start", "window")
        bellwethers = sum(
            1 for r in self.records
            if r["phase"] == "window" and r["query"][0] == "bellwether"
        )
        cold = max(1, len(self.measured_records("cold")))
        hold = ms(of("serve.locks.write_hold", write))
        out = {
            "serve.app.wire_ms.p50": (median(wire), "ms"),
            "serve.app.handler_ms.p50": (median(handler), "ms"),
            "serve.app.response_bytes.mean": (
                float(np.mean([r["nbytes"] for r in reads])) if reads else 0.0, "bytes"
            ),
            "serve.threads.max": (
                max((st.get("Threads", 0) for __, st in self.samples), default=0), "count"
            ),
            "serve.locks.read_wait_ms.p99": (percentile(ms(of("serve.locks.read_wait", write)), 0.99), "ms"),
            "serve.locks.write_wait_ms.p50": (median(ms(of("serve.locks.write_wait", write))), "ms"),
            "serve.locks.write_hold_ms.p99": (percentile(hold, 0.99), "ms"),
            "serve.locks.write_hold_ms.sum": (float(sum(hold)), "ms"),
            "serve.state.self_ms.p50": (median(self_ms), "ms"),
            "serve.state.apply_delta_ms.p50": (median(ms(of("serve.state.apply_delta"))), "ms"),
            "serve.rss_kb_per_cold_subset": ((self.rss_write - self.rss_window) / self.n_cold, "kB"),
            "serve.zero_scan_ratio": (
                window_counters.get("serve.zero_scan_queries", 0) / bellwethers if bellwethers else 0.0,
                "ratio",
            ),
            "core.basic.run_ms.p50": (median(ms(of("core.basic.run", set(read_reqs)))), "ms"),
            "core.basic.evaluate_all_ms.p50": (median(ms(evals)), "ms"),
            "core.basic.evaluate_all.count": (len(evals), "count"),
            "core.basic.refresh_ms.p50": (median(ms(of("core.basic.refresh"))), "ms"),
        }
        out.update(core_layer_metrics(index, measured, counters))
        # Scans and region reads per operation, attributed by request id.
        kinds = {"read": set(read_reqs), "cold": set(), "refresh": set(deltas)}
        for r in self.records:
            if r["phase"] in ("window", "write") and r["kind"] in ("cold", "refresh"):
                kinds[r["kind"]].add(r["req"])
        n_ops = {"read": len(read_reqs), "cold": cold, "refresh": max(1, len(deltas))}
        for kind, reqs in kinds.items():
            scans = sum(1 for s in of("core.basic.evaluate_all", reqs) if index.has_descendant(s, "storage.scan"))
            out[f"store.full_scans.per_{kind}"] = (scans / n_ops[kind], "count")
            out[f"store.region_reads.per_{kind}"] = (len(of("storage.read", reqs)) / n_ops[kind], "count")
        return out

    def counter_delta(self, a: str, b: str) -> dict:
        before, after = self.counters[a], self.counters[b]
        return {k: after.get(k, 0) - before.get(k, 0) for k in set(after) | set(before)}


def run(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    return ServeRun(seed, seconds, trace, work).execute()
