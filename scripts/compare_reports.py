"""Compare the reports of two qfit source trees field by field.

    git archive <commit> --prefix=old/ | tar -x -C <dir>
    python3 scripts/compare_reports.py <dir>/old/src

Replays the first operations of each benchmark workload
(``perfbench/workloads.py``, seed ``SEED``) with its input files, once
against this repository's ``src`` and once against the given one.  The
``run`` and ``learn`` operations of ``run-wide``, ``run-long-clock`` and
``learn-planted`` run in all four window/variant settings, one of which
is the workload's own; ``sweep-small``'s generate/oracle/run triples
already cover both.  Each side runs in its own interpreter that calls
``qfit.cli.main`` in-process, with BLAS pinned to ``--threads`` threads.
Then every report pair is compared: strings, booleans, integers (counts,
supports, shots) must be identical and floats must agree to ``TOL``,
relative to the value where it exceeds 1.  Prints the worst float
differences and exits 1 on any disagreement.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
HERE_SRC = REPO / "src"
TOL = 1e-12
SEED = 1
# Operations replayed per workload: every input problem of run-wide,
# run-long-clock and learn-planted once, and twelve sweep-small triples.
OPS = {"run-wide": 4, "run-long-clock": 4, "learn-planted": 16, "sweep-small": 36}
SETTINGS = tuple(itertools.product(("uniform", "sine"), ("three-stage", "fused")))

sys.path.insert(0, str(REPO / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def invocations(work: Path):
    """Yield ``(argv, written, name)``: run ``argv``, then keep file ``written`` as ``name``."""
    for name, count in OPS.items():
        workload = WORKLOADS[name]
        inputs = workload.make_inputs(SEED, work / name)
        for j, op in enumerate(inputs):
            yield op.argv(), op.out, f"{name}-input{j}"
        for i in range(count):
            op = workload.op(inputs, SEED, i, work / name)
            if name == "sweep-small":
                yield op.argv(), op.out, f"{name}-{i:02d}-{op.command}"
                continue
            for window, variant in SETTINGS:
                # The last value of a repeated option wins.
                argv = [*op.argv(), "--window", window, "--variant", variant]
                yield argv, op.out, f"{name}-{i:02d}-{window}-{variant}"


def emit(work: Path) -> None:
    """Write every report into ``work/reports`` with the ``qfit`` on ``sys.path``."""
    import qfit.cli

    reports = work / "reports"
    for name in OPS:
        (work / name).mkdir(parents=True)
    reports.mkdir()
    for argv, written, name in invocations(work):
        code = qfit.cli.main.main(args=argv, prog_name="qfit", standalone_mode=False)
        if code not in (None, 0):
            raise SystemExit(f"qfit {' '.join(argv)} exited {code}")
        shutil.copyfile(written, reports / f"{name}.json")


def run_side(src: Path, work: Path, threads: int) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    subprocess.run([sys.executable, __file__, "--emit", str(work)], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def compare(a, b, path: str, worst: list, faults: list) -> None:
    """Walk two JSON values; floats go to ``worst``, mismatches to ``faults``."""
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool) or not all(
            isinstance(x, (int, float)) for x in (a, b)
        ):
            faults.append(f"{path}: {a!r} != {b!r}")
            return
        if a != a or b != b:  # NaN must stay NaN
            if not (a != a and b != b):
                faults.append(f"{path}: {a!r} != {b!r}")
            return
        diff = abs(a - b)
        worst.append((diff / max(1.0, abs(a)), diff, path))
        if diff > TOL * max(1.0, abs(a)):
            faults.append(f"{path}: {a!r} vs {b!r} differ by {diff:.3g}")
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            faults.append(f"{path}: keys differ: {sorted(a.keys() ^ b.keys())}")
            return
        for key in a:
            compare(a[key], b[key], f"{path}.{key}", worst, faults)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            faults.append(f"{path}: lengths {len(a)} != {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            compare(x, y, f"{path}[{i}]", worst, faults)
    elif type(a) is not type(b) or a != b:
        faults.append(f"{path}: {a!r} != {b!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", nargs="?", type=Path,
                        help="the other tree's src directory")
    parser.add_argument("--threads", type=int, default=1, help="BLAS threads per side")
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit is not None:
        emit(args.emit)
        return 0
    if args.other_src is None:
        parser.error("give the other tree's src directory")

    with tempfile.TemporaryDirectory() as tmp:
        # Reports echo their problem's path, so both sides write to one
        # directory, renamed after each run.
        work, here, other = Path(tmp, "work"), Path(tmp, "here"), Path(tmp, "other")
        for src, dest in ((args.other_src.resolve(), other), (HERE_SRC, here)):
            work.mkdir()
            run_side(src, work, args.threads)
            work.rename(dest)
        other, here = other / "reports", here / "reports"
        names = sorted(p.name for p in other.glob("*.json"))
        if names != sorted(p.name for p in here.glob("*.json")):
            print("the two trees wrote different report files")
            return 1
        worst, faults, identical = [], [], 0
        for name in names:
            a_bytes, b_bytes = (other / name).read_bytes(), (here / name).read_bytes()
            identical += a_bytes == b_bytes
            compare(json.loads(a_bytes), json.loads(b_bytes), name, worst, faults)

    print(f"{len(names)} reports, {identical} byte-identical, "
          f"{len(worst)} floats compared, BLAS threads {args.threads}")
    for rel, diff, path in sorted(worst, reverse=True)[:8]:
        print(f"  {diff:.3g} (relative {rel:.3g})  {path}")
    for fault in faults[:20]:
        print("MISMATCH", fault)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
