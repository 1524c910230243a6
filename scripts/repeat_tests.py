"""Run pytest node IDs many times in a row; fail on the first failing run.

pytest de-duplicates repeated node IDs on one command line, so a
concurrency test cannot be looped by listing it N times. This script calls
``pytest.main`` once per repetition instead (one process, imports paid
once) and stops at the first run that does not pass.

    PYTHONPATH=src python scripts/repeat_tests.py --times 200 NODE_ID [NODE_ID ...]

CI uses it as the gate for the two race tests (see ``.github/workflows/ci.yml``):
each must pass 200 times in a row.
"""

from __future__ import annotations

import argparse
import sys
import time

import pytest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("node_ids", nargs="+", help="pytest node IDs to repeat")
    parser.add_argument("--times", type=int, default=200,
                        help="consecutive passing runs required per node ID")
    args = parser.parse_args(argv)
    for node_id in args.node_ids:
        start = time.perf_counter()
        for run in range(1, args.times + 1):
            code = pytest.main(["-q", "-p", "no:cacheprovider", node_id])
            if code != pytest.ExitCode.OK:
                print(f"FAILED on run {run}/{args.times}: {node_id}")
                return int(code)
        print(
            f"{node_id}: {args.times}/{args.times} runs passed "
            f"({time.perf_counter() - start:.1f}s)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
