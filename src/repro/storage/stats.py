"""I/O accounting for training-data stores.

The paper's efficiency claims are phrased in scans of the "entire training
data" (the union of all feasible regions' training sets): the naive tree
re-reads it per (node, split), the RF tree once per level, the cube
algorithms once in total.  :class:`IOStats` makes those counts observable so
the Lemma 1 / Lemma 2 scan bounds are tested, not assumed.

Every recording also increments the process-wide metrics registry
(``store.region_reads`` / ``store.full_scans`` / ``store.bytes_read``), so
the same counts show up in ``--metrics-out`` exports without touching any
store instance.  To measure a window over a *shared* store, take a
:meth:`snapshot` before the work and subtract it after (``after - before``)
instead of calling :meth:`reset`, which would race with other users.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.catalog import (
    STORE_BYTES_READ,
    STORE_FULL_SCANS,
    STORE_REGION_READS,
)
from repro.obs.metrics import get_registry

_REGION_READS = get_registry().counter(STORE_REGION_READS)
_FULL_SCANS = get_registry().counter(STORE_FULL_SCANS)
_BYTES_READ = get_registry().counter(STORE_BYTES_READ)


@dataclass
class IOStats:
    """Counters accumulated by a training-data store."""

    region_reads: int = 0
    full_scans: int = 0
    bytes_read: int = 0

    def record_region_read(self, n_bytes: int) -> None:
        self.region_reads += 1
        self.bytes_read += n_bytes
        _REGION_READS.inc()
        _BYTES_READ.inc(n_bytes)

    def record_full_scan(self) -> None:
        self.full_scans += 1
        _FULL_SCANS.inc()

    def reset(self) -> None:
        self.region_reads = 0
        self.full_scans = 0
        self.bytes_read = 0

    def snapshot(self) -> "IOStats":
        return IOStats(self.region_reads, self.full_scans, self.bytes_read)

    def diff(self, other: "IOStats") -> "IOStats":
        """Counts accrued since ``other`` (an earlier :meth:`snapshot`)."""
        return IOStats(
            self.region_reads - other.region_reads,
            self.full_scans - other.full_scans,
            self.bytes_read - other.bytes_read,
        )

    __sub__ = diff

    def as_dict(self) -> dict[str, int]:
        return {
            "region_reads": self.region_reads,
            "full_scans": self.full_scans,
            "bytes_read": self.bytes_read,
        }

    def __repr__(self) -> str:
        return (
            f"IOStats(region_reads={self.region_reads}, "
            f"full_scans={self.full_scans}, bytes_read={self.bytes_read})"
        )
