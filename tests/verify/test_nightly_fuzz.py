"""Nightly-scale fuzz: the full oracle registry over random workloads.

The tier-1 run replays the pinned corpus; this is the in-tree face of
the conformance-nightly job (``python -m repro.verify --rounds 50``) at
a pytest-friendly round count.  Marked ``slow``: run with ``-m slow``.
"""

import pytest

from repro.verify import registry
from repro.verify.runner import run_rounds

ROUNDS = 6


@pytest.mark.slow
def test_fuzz_rounds_all_oracles_green(tmp_path):
    # Shrunk artifacts for any failure land in tmp_path (inspect on red),
    # never in the committed corpus.
    failures = run_rounds(
        seed=20260808, rounds=ROUNDS, out=tmp_path, report=lambda *__: None
    )
    assert failures == 0, (
        f"{failures} failing (class, workload) pair(s); shrunk artifacts "
        f"in {tmp_path}"
    )
    # The registry the fuzz iterated is exactly the known oracle set: an
    # oracle class dropped (or added) without updating this list fails here.
    assert set(registry()) == {
        "cube-methods",
        "cube-refresh",
        "exec-workers",
        "search-refresh",
        "serve-endpoints",
        "store-delta",
        "tree-methods",
    }
