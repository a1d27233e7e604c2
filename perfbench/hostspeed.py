"""Fixed probes that track the host's speed during a run.

On a shared host the speed of one vCPU drifts, in phases from under a
second to minutes (a fixed kernel reads up to 2x slower from one phase
to the next), so a wall time alone says as much about the neighbours as
about qfit.  A probe is fixed code that never calls qfit, shaped like
the work a workload does:

- ``contraction``: the naive einsum contraction of
  ``sim.conditional_evolution``, at D = 64;
- ``clock``: the same contraction at D = 8 and a clock-axis FFT, as in
  ``sim.qft_clock``, over 2^14 clock values: 4 MB of amplitudes, so
  bound by memory as a long clock is;
- ``interpreter``: argument parsing and JSON round trips, as in the CLI
  layer and in set-up's interpreter launch and imports;
- ``io``: overwriting a small JSON file and reading it back, as a report
  write and a problem read do.

``harness.py`` runs a few units of a workload's probe after every
operation, so that the probe samples the host at the same moments as
the operations, and scales each operation's wall time by ``nominal unit
time / measured unit time``: the time the operation would have taken
with the host at the speed where a unit takes its nominal time.  A
faster qfit lowers the scaled time exactly as it lowers the wall time,
since the probe does not change; a slower host phase raises the probe
and the operation alike and cancels.  Which probe suits which workload
was measured, not assumed (see README.md, "Bounds and steadiness").
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np


def _contraction(work: Path):
    rng = np.random.default_rng(0)
    amplitudes = rng.standard_normal((16, 64, 2)) + 1j * rng.standard_normal((16, 64, 2))
    vecs = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))

    def unit() -> None:
        in_eigen = np.einsum("tdf,dj->tjf", amplitudes, vecs.conj())
        np.einsum("tjf,dj->tdf", in_eigen, vecs)

    return unit


def _clock(work: Path):
    rng = np.random.default_rng(0)
    state = rng.standard_normal((1 << 14, 8, 2)) + 1j * rng.standard_normal((1 << 14, 8, 2))
    vecs = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))

    def unit() -> None:
        in_eigen = np.einsum("tdf,dj->tjf", state, vecs.conj())
        np.einsum("tjf,dj->tdf", in_eigen, vecs)
        np.fft.ifft(np.fft.fft(state, axis=0), axis=0)

    return unit


def _doc() -> dict:
    return {f"k{i}": [j * 0.5 for j in range(20)] for i in range(50)}


def _interpreter(work: Path):
    doc = _doc()

    def unit() -> None:
        for _ in range(4):
            parser = argparse.ArgumentParser()
            for k in range(10):
                parser.add_argument(f"--a{k}", type=int, default=k)
            parser.parse_args(["--a1", "3", "--a5", "7"])
        json.loads(json.dumps(doc))

    return unit


def _io(work: Path):
    doc, path = _doc(), work / "probe.json"

    def unit() -> None:
        path.write_text(json.dumps(doc))
        path.read_bytes()

    return unit


# Each makes the inputs of one kernel, from a fixed seed, and returns its unit.
KERNELS = {"contraction": _contraction, "clock": _clock, "interpreter": _interpreter,
           "io": _io}

# Median time of one unit of each kernel on the machine the benchmark was built
# on (2 vCPUs of a shared Intel Xeon host, numpy 2.4.6, OpenBLAS pinned to 1
# thread).  They only set the scale: scaled times read as seconds at that
# machine's speed.
NOMINAL_S = {"contraction": 0.0021, "clock": 0.055, "interpreter": 0.0021, "io": 0.0015}


class HostProbe:
    """A probe made of some of the kernels; a unit runs each of them once."""

    def __init__(self, kernels: tuple[str, ...], work: Path):
        self.kernels = [KERNELS[name](work) for name in kernels]
        self.nominal_s = self.nominal(kernels)
        self.run(0.01)

    @staticmethod
    def nominal(kernels: tuple[str, ...]) -> float:
        """Nominal time of one unit of a probe made of these kernels."""
        return sum(NOMINAL_S[name] for name in kernels)

    def run(self, seconds: float) -> tuple[int, float]:
        """Run whole units for about ``seconds``, at least one: (units, elapsed)."""
        start = time.perf_counter()
        units = 0
        while True:
            for kernel in self.kernels:
                kernel()
            units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return units, elapsed
