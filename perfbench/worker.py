"""One pass of one workload, in a fresh process; prints its result as JSON.

``run.py`` starts this once untraced and, with ``--trace 1``, once more
traced, so the two passes share no interpreter state, memory high-water
mark or installed wrappers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    work = Path(args.work)
    work.mkdir(parents=True)
    if args.workload == "batch_build":
        import batch

        result = batch.run(args.seed, args.seconds, bool(args.trace), work)
    else:
        import serve_load

        result = serve_load.run(args.seed, args.seconds, bool(args.trace), work)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
