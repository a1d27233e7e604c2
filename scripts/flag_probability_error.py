"""Rounding error of the postselection probabilities of long-clock passes.

    PYTHONPATH=<tree>/src python3 scripts/flag_probability_error.py [--threads N]

Replays the ``run-long-clock`` invocations of ``compare_reports.py``
against the ``qfit`` on ``PYTHONPATH``, with
``qfit.algorithms.apply_hermitian_via_pe`` wrapped from outside to record
each pass's input vector psi, eigensystem, config and returned info.  For
each pass it prints the flag probability and clock-zero probability of
the pass info, each with its relative error against the exactly rounded
reference ``pass_reference`` builds from the pass's inputs alone.  So the
check does not depend on how a pass computes its result.  Pass ``i`` of
an invocation is ``successProbabilities[i]`` of its report.  Exits 1 when
it sees no pass, so a tree whose passes it cannot follow fails.

``pass_reference`` and ``recording`` are also imported by the tier-1
tests; numpy and qfit are imported inside them, so that ``main`` can set
the BLAS thread count before numpy is first imported.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from pathlib import Path


def pass_reference(psi, eig, config):
    """The output vector, flag and clock-zero probabilities of a pass, from its inputs.

    Every stage of a pass is diagonal in H's eigenbasis and the clock
    starts at |0>, so the pass acts on each eigenvalue E alone:

    - A(E) = ifft_ortho(window * exp(-i E tau t0 / T)) over the clock, each
      angle E tau t0 / T formed and reduced modulo 2 pi in long double;
    - P = |A|^2, r the rotation weights and beta = V^dag psi;
    - the output is V (beta * P r), normalized;
    - the flag probability is sum_j |beta_j|^2 (P r^2)_j;
    - the clock-zero probability is |beta * P r|^2 over the flag probability.

    The sums are ``math.fsum`` of the rounded terms, so both probabilities
    are exactly rounded.  Returns ``(vector, flag, clock_zero)``.
    """
    import numpy as np

    from qfit.sim import clock_window, rotation_weights

    t = config.clock_size
    two_pi = 2 * np.arccos(np.longdouble(-1))
    step = np.asarray(eig.eigenvalues, dtype=np.longdouble)[:, None] * (config.t0 / t)
    theta = step * np.arange(t)
    theta -= two_pi * np.round(theta / two_pi)
    rows = clock_window(t, config.window) * np.exp(-1j * theta.astype(float))
    amplitudes = np.fft.ifft(rows, axis=1, norm="ortho")
    table = amplitudes.real**2 + amplitudes.imag**2
    weights = rotation_weights(config)
    beta = eig.eigenvectors.conj().T @ np.asarray(psi, dtype=complex)
    beta_sq = beta.real**2 + beta.imag**2
    gain = np.array([math.fsum((row * weights).tolist()) for row in table])
    flag = math.fsum((beta_sq[:, None] * table * weights**2).ravel().tolist())
    clock_zero = math.fsum((beta_sq * gain**2).tolist()) / flag
    vector = eig.eigenvectors @ (beta * gain)
    return vector / np.linalg.norm(vector), flag, clock_zero


def recording(apply_pass, passes: list):
    """``apply_pass`` wrapped to append ``(psi, eig, config, vector, info)`` per pass.

    psi is the clock-0, flag-0 row of the input state, or the input itself
    where the pass takes a vector.
    """

    def apply_hermitian_via_pe(source, eig, config):
        amplitudes = getattr(source, "amplitudes", None)
        psi = (source if amplitudes is None else amplitudes[0, :, 0]).copy()
        vector, info = apply_pass(source, eig, config)
        passes.append((psi, eig, config, vector, info))
        return vector, info

    return apply_hermitian_via_pe


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

    passes: list = []
    names: list[tuple[str, int]] = []
    qfit.algorithms.apply_hermitian_via_pe = recording(qfit.algorithms.apply_hermitian_via_pe,
                                                       passes)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in compare_reports.OPS:
            (work / name).mkdir()
        for argv, _, name in compare_reports.invocations(work):
            if not name.startswith("run-long-clock"):
                continue
            first = len(passes)
            code = qfit.cli.main.main(args=argv, prog_name="qfit", standalone_mode=False)
            if code not in (None, 0):
                raise SystemExit(f"qfit {' '.join(argv)} exited {code}")
            names += [(name, i) for i in range(len(passes) - first)]

    worst_flag = worst_clock = 0.0
    print("invocation pass flagProbability rel_error clockZeroProbability rel_error")
    for (name, i), (psi, eig, config, _, info) in zip(names, passes):
        _, ref_flag, ref_clock = pass_reference(psi, eig, config)
        flag, clock = info.flag_probability, info.clock_zero_probability
        flag_err = abs(flag - ref_flag) / ref_flag
        clock_err = abs(clock - ref_clock) / ref_clock
        worst_flag, worst_clock = max(worst_flag, flag_err), max(worst_clock, clock_err)
        print(f"{name} {i} {flag!r} {flag_err:.3g} {clock!r} {clock_err:.3g}")
    print(f"{len(passes)} passes, worst relative error: flagProbability {worst_flag:.3g}, "
          f"clockZeroProbability {worst_clock:.3g}, BLAS threads {args.threads}")
    return 0 if passes else 1


if __name__ == "__main__":
    sys.exit(main())
