"""Shared helpers: statistics, /proc readings, deterministic inputs.

Everything here is plain stdlib + numpy and imports nothing from the
program under test, so the launcher and the load process agree on inputs
without sharing any code the program itself might change.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import threading
import time
from pathlib import Path

import numpy as np

#: Seeds are mixed with these salts so that each input stream (query mix,
#: never-seen subsets, delta stream) is independent.
SALT_MIX = 11
SALT_COLD = 13
SALT_DELTA = 17
#: A delta moves each re-appended target by this share of its region's
#: target standard deviation (seeded normal noise).
DELTA_NOISE = 0.05
#: Kernel runs per speed probe where one probe brackets a long operation
#: (a launch, a store generation, a table build, a server write); the
#: median of the runs is used.
PROBE_RUNS = 5


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return float(ordered[rank])


def tail(values, beyond: int = 10) -> tuple[float, float]:
    """(q, value) at the highest percentile with ``beyond`` samples past it.

    With n samples that is ``q = 1 - beyond/n``, capped at p99; with fewer
    than ``beyond + 1`` samples there is no such percentile and the maximum
    is reported at ``q = 1``.
    """
    n = len(values)
    if n <= beyond:
        return 1.0, float(max(values)) if values else 0.0
    q = min(0.99, 1.0 - beyond / n)
    return q, percentile(values, q)


class SpeedProbe:
    """Host speed next to each timed operation, from a fixed kernel.

    On a shared virtual machine two things move the time of the same work.
    The hypervisor takes the CPU away (steal time): from one ten-minute
    period to another up to a third of a busy thread's wall time goes to
    it.  And the CPU itself runs the work slower or faster (a cold build's
    CPU time varied by 15% within a minute).  So CPU-bound work is timed in
    CPU time — of every thread of the process doing it, which steal time
    does not reach — and reported at a reference host speed: scaled by the
    kernel's nominal CPU time over its CPU time measured right before and
    right after the operation, in the same process (:func:`scaled`).  The
    kernel mixes interpreter work (integer arithmetic, dict updates) with
    small NumPy products, scatter-adds and sorts, as the program does, and
    runs none of the program's code, so a slower program still reads slower.

    The scaling is only sound if nothing of the program runs during the
    kernel: work the program left running in another thread (a background
    save, say) would compete with the probe and escape the operation's
    CPU time.  So each run also sums the CPU time that the process's other
    Python threads used meanwhile; a run in which they used more than
    ``OTHER_CPU_LIMIT_S`` is kept in :attr:`contended`, and the caller
    counts it as a failed operation.  (NumPy's native BLAS workers are not
    Python threads and are not counted.)
    """

    NOMINAL_S = 0.010
    OTHER_CPU_LIMIT_S = 0.001
    _N = 2000

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(64, 64))
        self._x = rng.normal(size=(20_000, 6))
        self._idx = rng.integers(0, self._N, size=20_000)
        self.samples: list[float] = []
        #: (CPU seconds, other threads' CPU seconds) of contended runs.
        self.contended: list[tuple[float, float]] = []

    def _kernel(self) -> None:
        total, counts = 0, {}
        for i in range(40_000):
            total += i * i
            counts[i % 251] = counts.get(i % 251, 0) + 1
        for __ in range(20):
            self._a @ self._a
        acc = np.zeros((self._N, 6))
        np.add.at(acc, self._idx, self._x)
        np.sort(self._x[:, 0])

    def time(self) -> float:
        """One kernel run: the calling thread's CPU seconds."""
        before = _other_thread_cpu()
        start = time.thread_time()
        self._kernel()
        elapsed = time.thread_time() - start
        after = _other_thread_cpu()
        other = sum(cpu - before.get(ident, 0.0) for ident, cpu in after.items())
        if other > self.OTHER_CPU_LIMIT_S:
            self.contended.append((elapsed, other))
        self.samples.append(elapsed)
        return elapsed

    def median_time(self, runs: int) -> float:
        """The median of ``runs`` kernel runs, in CPU seconds."""
        return median(self.time() for __ in range(runs))

    def measure(self, fn, runs: int = 1):
        """(fn(), wall seconds, CPU seconds, CPU seconds at reference speed).

        The CPU time is the whole process's, all threads.  ``runs`` kernel
        runs on each side; the median of each is used.
        """
        before = self.median_time(runs)
        cpu, start = time.process_time(), time.perf_counter()
        out = fn()
        elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu
        return out, elapsed, cpu, scaled(cpu, before, self.median_time(runs))

    def probe_ms(self) -> float:
        return median(self.samples) * 1000.0

    def contention_errors(self, where: str) -> list[str]:
        return [
            f"{where}: speed probe of {cpu * 1000:.1f} ms CPU ran beside"
            f" {other * 1000:.1f} ms of other threads' CPU"
            for cpu, other in self.contended
        ]


def _other_thread_cpu() -> dict[int, float]:
    """CPU seconds used so far by each Python thread but the calling one."""
    me = threading.get_ident()
    out = {}
    for thread in threading.enumerate():
        if thread.ident is None or thread.ident == me:
            continue
        try:
            out[thread.ident] = time.clock_gettime(time.pthread_getcpuclockid(thread.ident))
        except OSError:  # ended meanwhile
            pass
    return out


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, from the probe times around it."""
    return seconds * SpeedProbe.NOMINAL_S * 2.0 / (before + after)


def proc_status(pid: int) -> dict[str, int]:
    """VmRSS / VmHWM (kB) and Threads from ``/proc/<pid>/status``."""
    out: dict[str, int] = {}
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return out
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        if key in ("VmRSS", "VmHWM", "Threads"):
            out[key] = int(rest.split()[0])
    return out


def self_peak_rss_mb() -> float:
    return proc_status(os.getpid()).get("VmHWM", 0) / 1024.0


def subset_pool(rng, item_ids: list[int], n: int, size: int) -> list[list[int]]:
    """``n`` distinct sorted item subsets of ``size`` drawn from ``rng``."""
    seen: set[tuple[int, ...]] = set()
    pool: list[list[int]] = []
    while len(pool) < n:
        pick = rng.choice(len(item_ids), size=size, replace=False)
        key = tuple(sorted(int(item_ids[i]) for i in pick))
        if key not in seen:
            seen.add(key)
            pool.append(list(key))
    return pool


def make_deltas(store, seed: int, n: int) -> list:
    """The fixed stream of ``n`` retract-then-reappend deltas for ``seed``.

    Each retracts 3 items of one region and appends their rows again, taken
    from ``store`` as it is now, with every target ``y`` moved by seeded
    noise of ``DELTA_NOISE`` times the region's target spread.  So each
    delta changes the data (a refresh that skips it answers differently
    from a scratch build) but not which rows exist, and so never which
    regions are feasible.  Two processes holding identical stores derive
    identical deltas.
    """
    from repro.storage import BlockDelta, RegionBlock, StoreDelta

    regions = store.regions()
    rng = np.random.default_rng([seed, SALT_DELTA])
    deltas = []
    for __ in range(n):
        region = regions[int(rng.integers(len(regions)))]
        block = store.read(region)
        present = np.unique(block.item_ids)
        items = np.sort(rng.choice(present, size=min(3, len(present)), replace=False))
        rows = block.restrict_to(items)
        scale = DELTA_NOISE * (float(np.std(block.y)) or 1.0)
        moved = RegionBlock(
            rows.item_ids, rows.x, rows.y + scale * rng.standard_normal(len(rows.y)), rows.weights
        )
        deltas.append(StoreDelta({region: BlockDelta(append=moved, retract_ids=items)}))
    return deltas


def cell_stats(tables: list) -> list[tuple]:
    """Per level, copies of the per-cell arrays a delta's ``y`` moves."""
    return [(t.stats.ytwy.copy(), t.stats.xtwy.copy(), t.stats.n.copy()) for t in tables]


def changed_cells(before: list, after: list, min_examples: int) -> int:
    """Solvable (region, subset) cells whose statistics differ between two
    :func:`cell_stats` of table sets of the same geometry.

    A cell is solvable with at least ``min_examples`` rows; these are the
    cells a delta refresh must re-solve, at the least.
    """
    total = 0
    for (ytwy_a, xtwy_a, n_a), (ytwy_b, xtwy_b, n_b) in zip(before, after):
        moved = (ytwy_a != ytwy_b) | (xtwy_a != xtwy_b).any(axis=1) | (n_a != n_b)
        total += int(np.count_nonzero(moved & (n_b >= min_examples)))
    return total


def tables_digest(tables: list) -> str:
    """A digest of a table set: levels, regions, subsets, every statistic.

    Equal digests mean bit-for-bit equal tables, without keeping both.
    """
    h = hashlib.blake2b(digest_size=16)
    for t in tables:
        h.update(repr((t.level, [str(r) for r in t.regions])).encode())
        h.update(np.ascontiguousarray(t.keep_sidx).tobytes())
        for field in ("ytwy", "xtwx", "xtwy", "n", "sum_w"):
            h.update(np.ascontiguousarray(getattr(t.stats, field)).tobytes())
    return h.hexdigest()
