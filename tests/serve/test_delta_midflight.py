"""Delta-mid-flight consistency: every response is version-stamped and
equals the serial answer at exactly that version — never a mix of two.

Eight clients hammer a subset /bellwether while the main thread lands
month-append deltas on the live server.  The reference answers are
computed beforehand by replaying the identical delta stream on a second
store and running the in-process search at each version.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core import BasicBellwetherSearch
from repro.incremental import month_append_delta, month_split_store
from repro.serve import (
    ServeClient,
    ServeHTTPError,
    ServerState,
    serve_in_thread,
)

from .conftest import N_MONTHS, SUBSET

BASE_MONTH = 3
BUDGET = 60.0
N_CLIENTS = 8


def _answer(task, store):
    result = BasicBellwetherSearch(task, store).run(
        budget=BUDGET, item_ids=SUBSET
    )
    if result.bellwether is None:
        return None
    return (
        str(result.bellwether.region),
        float(result.bellwether.rmse),
        len(result.feasible),
    )


def _reference_by_version(dataset):
    refs = {}
    gen, regions, store = month_split_store(dataset.task, BASE_MONTH)
    refs[int(store.version)] = _answer(dataset.task, store)
    for month in range(BASE_MONTH + 1, N_MONTHS + 1):
        store.apply_delta(month_append_delta(gen, regions, month))
        refs[int(store.version)] = _answer(dataset.task, store)
    return refs


def test_responses_never_mix_store_versions(dataset, tmp_path, lockcheck):
    refs = _reference_by_version(dataset)

    gen, regions, store = month_split_store(dataset.task, BASE_MONTH)
    state = ServerState(
        dataset.task,
        store,
        dataset.hierarchies,
        tables_dir=tmp_path / "tables",
        min_subset_size=3,
    )
    stop = threading.Event()
    seen: list[dict] = []
    seen_lock = threading.Lock()

    def churn(handle):
        last = -1
        with ServeClient(handle.host, handle.port) as client:
            while not stop.is_set():
                try:
                    got = client.bellwether(budget=BUDGET, items=SUBSET)
                except ServeHTTPError as exc:
                    assert exc.status == 409
                    continue
                # One client's version stamps never go backwards.
                assert got["store_version"] >= last
                last = got["store_version"]
                with seen_lock:
                    seen.append(got)

    with serve_in_thread(state) as handle:
        with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
            futures = [
                pool.submit(churn, handle) for __ in range(N_CLIENTS)
            ]
            for month in range(BASE_MONTH + 1, N_MONTHS + 1):
                time.sleep(0.15)
                state.apply_delta(month_append_delta(gen, regions, month))
            time.sleep(0.15)
            stop.set()
            for future in futures:
                future.result(timeout=60)
        # One last serial query: the server must have adopted the final
        # version (live tracking without restarts).
        with ServeClient(handle.host, handle.port) as client:
            final = client.bellwether(budget=BUDGET, items=SUBSET)

    assert final["store_version"] == max(refs)
    assert seen, "churn clients recorded no responses"
    versions = {got["store_version"] for got in seen}
    assert versions <= set(refs)
    for got in seen + [final]:
        want = refs[got["store_version"]]
        assert want is not None
        assert (
            got["bellwether"]["region_str"],
            got["bellwether"]["rmse"],
            got["n_feasible"],
        ) == want, f"at store version {got['store_version']}"
