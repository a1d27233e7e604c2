"""Closed-loop benchmark of the qfit CLI.

Run from the root of a qfit checkout:

    python3 perfbench/run.py --workload run-wide --seed 1 --seconds 20 --trace 0

Workloads, metrics and their bounds are listed in BENCHMARK.json at the
root; README.md next to this file says why each exists.  Outside a qfit
checkout this exits with status 2 and prints no result.
"""

import os
import sys
from pathlib import Path

# BLAS and OpenMP pools are pinned to one thread: the load is one process per
# workload and no worker threads, within the machine's cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "qfit" / "cli.py").is_file():
        print("perfbench: src/qfit not found; run from the root of a qfit checkout",
              file=sys.stderr)
        return 2
    # Set before numpy loads: BLAS reads its thread count once, at load.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import harness

    return harness.main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
