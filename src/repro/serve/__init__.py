"""Bellwether-as-a-service: a concurrent HTTP/JSON query server.

The interactive counterpart of the batch CLI: a stdlib-only
``ThreadingHTTPServer`` answering "which region predicts item subset S
under budget B" (``POST /bellwether``) and "what aggregate does region r
predict for S" (``POST /predict``) in milliseconds, plus model/region/cube
browse endpoints — all request threads sharing one versioned
:class:`ServerState` behind an RW lock, answering warm queries with zero
fact scans from the PR 7 materialized cube tables, and adopting store
deltas live through the PR 3 patch-forward path.

Quickstart::

    python -m repro.serve --port 8000 --backend npz
    curl -s localhost:8000/model
    curl -s -X POST localhost:8000/bellwether -d '{"budget": 50}'
    curl -s -X POST localhost:8000/predict \
        -d '{"items": [1, 2, 3], "budget": 50}'

Load harness: :mod:`repro.serve.loadgen` /
``python -m repro.serve.loadgen --port 8000`` (fig13 journals it).
"""

from .app import BellwetherHTTPServer, ServerHandle, make_server, serve_in_thread
from .client import ServeClient, ServeHTTPError
from .errors import (
    BadRequestError,
    InfeasibleQueryError,
    MethodNotAllowedError,
    NotFoundError,
    ServeError,
)
from .loadgen import LoadgenResult, run_loadgen
from .locks import RWLock
from .state import ENDPOINTS, ServerState

__all__ = [
    "BadRequestError",
    "BellwetherHTTPServer",
    "ENDPOINTS",
    "InfeasibleQueryError",
    "LoadgenResult",
    "MethodNotAllowedError",
    "NotFoundError",
    "RWLock",
    "ServeClient",
    "ServeError",
    "ServeHTTPError",
    "ServerHandle",
    "ServerState",
    "make_server",
    "run_loadgen",
    "serve_in_thread",
]
