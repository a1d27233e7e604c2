"""Rounding error of the postselection probabilities of long-clock passes.

    PYTHONPATH=<tree>/src python3 scripts/flag_probability_error.py [--threads N]

Replays the ``run-long-clock`` invocations of ``compare_reports.py``
against the ``qfit`` on ``PYTHONPATH``, with ``qfit.sim.uncompute_clock``
and ``qfit.algorithms.apply_hermitian_via_pe`` wrapped from outside.
Each pass calls ``uncompute_clock`` once, and the flag-1 slice of its
output is the branch the pass keeps.  For each pass it prints the flag
probability and clock-zero probability of the pass info it returns, each
with its relative error against an exactly rounded reference:
``math.fsum`` of the squared real and imaginary parts of that branch,
and of the branch's clock-0 row divided by the former.  Pass ``i`` of an
invocation is ``successProbabilities[i]`` of its report.  Exits 1 when
it sees no pass, so a tree whose passes it cannot follow fails.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from pathlib import Path


def _fsum_sq(values) -> float:
    flat = values.ravel()
    return math.fsum(flat.real**2) + math.fsum(flat.imag**2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--threads", type=int, default=1, help="BLAS threads")
    args = parser.parse_args()
    # Before numpy is first imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.threads)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import compare_reports
    import qfit.algorithms
    import qfit.cli
    import qfit.sim

    rows: list[tuple[str, int, float, float, float, float]] = []
    current: dict = {}
    uncompute, apply_pass = qfit.sim.uncompute_clock, qfit.algorithms.apply_hermitian_via_pe

    def uncompute_clock(*args):
        out = uncompute(*args)
        current["branch"] = out.amplitudes[:, :, 1]
        return out

    def apply_hermitian_via_pe(*args, **kwargs):
        vector, info = apply_pass(*args, **kwargs)
        branch = current.pop("branch", None)
        if branch is not None:
            ref_flag = _fsum_sq(branch)
            rows.append((current["name"], current["pass"], info.flag_probability, ref_flag,
                         info.clock_zero_probability, _fsum_sq(branch[0]) / ref_flag))
        current["pass"] += 1
        return vector, info

    qfit.sim.uncompute_clock = uncompute_clock
    qfit.algorithms.apply_hermitian_via_pe = apply_hermitian_via_pe
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in compare_reports.OPS:
            (work / name).mkdir()
        for argv, _, name in compare_reports.invocations(work):
            if not name.startswith("run-long-clock"):
                continue
            current.update({"name": name, "pass": 0})
            code = qfit.cli.main.main(args=argv, prog_name="qfit", standalone_mode=False)
            if code not in (None, 0):
                raise SystemExit(f"qfit {' '.join(argv)} exited {code}")

    worst_flag = worst_clock = 0.0
    print("invocation pass flagProbability rel_error clockZeroProbability rel_error")
    for name, i, flag, ref_flag, clock, ref_clock in rows:
        flag_err = abs(flag - ref_flag) / ref_flag
        clock_err = abs(clock - ref_clock) / ref_clock
        worst_flag, worst_clock = max(worst_flag, flag_err), max(worst_clock, clock_err)
        print(f"{name} {i} {flag!r} {flag_err:.3g} {clock!r} {clock_err:.3g}")
    print(f"{len(rows)} passes, worst relative error: flagProbability {worst_flag:.3g}, "
          f"clockZeroProbability {worst_clock:.3g}, BLAS threads {args.threads}")
    return 0 if rows else 1


if __name__ == "__main__":
    sys.exit(main())
