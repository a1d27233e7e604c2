"""The benchmark's workloads: inputs made from a seed, and the operation cycle.

Every workload is a closed loop with one client: operation ``i`` starts
only after operation ``i - 1`` has finished.  An operation is one
``qfit`` CLI invocation.  Its arguments depend only on the workload seed
and ``i``, so a rerun with the same seed repeats every operation.
Why each workload exists, and which layer it puts on top, is in
``README.md`` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Reports go to a few paths that operations reuse in turn, as a user who
# re-runs a command overwrites its report.  Creating a new file for each
# operation would time the host's file system: creating a file took
# 0.4-0.7 ms on the machine the benchmark was built on, drifting from run
# to run, against 0.15 ms to overwrite one and about 1.5 ms for a whole
# `qfit oracle` on a small problem.
OUT_SLOTS = 8


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``qfit <args> --out <out>``.

    ``problem`` is the problem file the operation reads (``generate``
    writes it); ``expect`` holds what the oracle needs beyond the files.
    """

    command: str
    args: tuple[str, ...]
    out: Path
    problem: Path
    expect: dict = field(default_factory=dict)

    def argv(self, out: Path | None = None) -> list[str]:
        return [self.command, *self.args, "--out", str(out or self.out)]


@dataclass(frozen=True)
class Workload:
    """A workload and the oracle tolerances fixed for it.

    ``make_inputs(seed, input_dir)`` returns the list of ``generate``
    operations that write its input files (part of set-up time), and
    ``op(inputs, seed, i, out_dir)`` builds operation ``i``.
    ``fidelity_floor`` and ``overlap_tol`` bound ``lambdaFidelity`` and
    ``|exactOverlapSq - ||P_F y||^2|``; both were fixed from the seed
    commit's worst case over many seeds, with a wide margin.
    ``oracle_fail_allowed`` is the share of operations that may miss a
    statistical check (support recovery, tomography) without the run
    being incorrect.  ``probe`` names the ``hostspeed`` kernels shaped
    like the workload's operations, which scale its timings.
    """

    name: str
    make_inputs: Callable[[int, Path], list[Op]]
    op: Callable[[list[Op], int, int, Path], Op]
    fidelity_floor: float
    overlap_tol: float
    probe: tuple[str, ...]
    warmup_ops: int = 1
    rerun_ops: int = 2
    oracle_fail_allowed: float = 0.0


def generate_op(kind: str, n: int, m: int, seed: int, out: Path,
                condition_target: float | None = None,
                planted: tuple[int, ...] | None = None) -> Op:
    args = ["--kind", kind, "--n", str(n), "--m", str(m), "--seed", str(seed)]
    if condition_target is not None:
        args += ["--condition-target", repr(condition_target)]
    if planted is not None:
        args += ["--planted", ",".join(str(j) for j in planted), "--mass", "0.95"]
    expect = {"kind": kind, "n": n, "m": m, "condition_target": condition_target,
              "planted": planted}
    return Op("generate", tuple(args), out, out, expect)


def _op_seed(seed: int, i: int) -> int:
    """Master seed of operation i: distinct per operation, fixed by the workload seed."""
    return seed * 1_000_000 + i


def out_path(out_dir: Path, i: int) -> Path:
    return out_dir / f"op{i % OUT_SLOTS}.json"


def _passes(variant: str) -> int:
    # Parameter preparation (3 passes three-stage, 1 fused) plus the projection pass.
    return 4 if variant == "three-stage" else 2


def _run_op(problem: Op, seed: int, i: int, out_dir: Path, clock: int, window: str,
            variant: str, shots: int, extra: tuple[str, ...] = ()) -> Op:
    args = ("--problem", str(problem.out), "-T", str(clock), "--window", window,
            "--variant", variant, "--shots", str(shots), *extra,
            "--seed", str(_op_seed(seed, i)))
    return Op("run", args, out_path(out_dir, i), problem.out,
              {"passes": _passes(variant), "shots": shots})


# --- run-wide: D = 64, T = 1024 ------------------------------------------------


def _random_inputs(n: int, m: int, count: int):
    def make_inputs(seed: int, input_dir: Path) -> list[Op]:
        rng = np.random.default_rng([seed, n, m])
        return [
            generate_op("random", n, m, int(rng.integers(2**31)),
                        input_dir / f"problem{j}.json", condition_target=4.0)
            for j in range(count)
        ]

    return make_inputs


def _run_wide_op(inputs, seed, i, out_dir):
    return _run_op(inputs[i % len(inputs)], seed, i, out_dir, 1024, "uniform",
                   "three-stage", 10000)


def _run_long_clock_op(inputs, seed, i, out_dir):
    return _run_op(inputs[i % len(inputs)], seed, i, out_dir, 65536, "sine",
                   "fused", 10000, ("--epsilon", "0.0005"))


# --- learn-planted: the shape of acceptance test C7 -------------------------------

LEARN_N, LEARN_M = 24, 16
LEARN_TOM_EPSILON = 0.05


def _learn_inputs(seed: int, input_dir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, LEARN_N, LEARN_M])
    inputs = []
    for j in range(16):
        m_prime = 2 if j % 2 == 0 else 4
        support = tuple(sorted(int(k) for k in rng.choice(LEARN_M, m_prime, replace=False)))
        inputs.append(generate_op("random", LEARN_N, LEARN_M, int(rng.integers(2**31)),
                                  input_dir / f"problem{j}.json", planted=support))
    return inputs


def _learn_op(inputs, seed, i, out_dir):
    problem = inputs[i % len(inputs)]
    support = problem.expect["planted"]
    args = ("--problem", str(problem.out), "-T", "256", "--window", "sine",
            "--shots", "200", "--tom-epsilon", repr(LEARN_TOM_EPSILON),
            "--m-prime", str(len(support)), "--seed", str(_op_seed(seed, i)))
    expect = {"passes": _passes("three-stage"), "shots": 200, "support": support,
              "tom_epsilon": LEARN_TOM_EPSILON}
    return Op("learn", args, out_path(out_dir, i), problem.out, expect)


# --- sweep-small: generate -> oracle -> run over small problems ---------------------

# (kind, n, m, T, variant, window).  Every kind, T from 16 to 256 and D = n + m
# from 6 to 24 appear, with both variants and both windows.  Polynomial bases
# keep m = 2: at m >= 3 their condition number (> 17) leaves small clocks
# without a usable fit.
SWEEP_CONFIGS = (
    ("poly", 4, 2, 16, "three-stage", "uniform"),
    ("fourier", 8, 4, 32, "fused", "sine"),
    ("random", 12, 6, 64, "three-stage", "sine"),
    ("poly", 10, 2, 128, "fused", "uniform"),
    ("fourier", 16, 8, 256, "three-stage", "uniform"),
    ("random", 6, 3, 16, "fused", "sine"),
    ("poly", 16, 2, 64, "three-stage", "sine"),
    ("fourier", 4, 2, 128, "fused", "uniform"),
    ("random", 16, 8, 256, "fused", "uniform"),
    ("poly", 7, 2, 32, "fused", "sine"),
    ("fourier", 12, 6, 16, "three-stage", "sine"),
    ("random", 8, 4, 256, "three-stage", "uniform"),
)


def _no_inputs(seed: int, input_dir: Path) -> list[Op]:
    return []


def _sweep_op(inputs, seed, i, out_dir):
    triple, stage = divmod(i, 3)
    kind, n, m, clock, variant, window = SWEEP_CONFIGS[triple % len(SWEEP_CONFIGS)]
    problem = generate_op(kind, n, m, _op_seed(seed, triple),
                          out_dir / f"problem{triple % OUT_SLOTS}.json",
                          condition_target=3.0 if kind == "random" else None)
    if stage == 0:
        return problem
    if stage == 1:
        return Op("oracle", ("--problem", str(problem.out)), out_path(out_dir, i), problem.out)
    return _run_op(problem, seed, i, out_dir, clock, window, variant, 1000)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="run-wide",
            make_inputs=_random_inputs(40, 24, 4),
            op=_run_wide_op,
            # Seed commit, 32 operations over 8 seeds: infidelity <= 2.4e-6,
            # overlap error <= 3.7e-6.
            fidelity_floor=1 - 1e-4,
            overlap_tol=1e-4,
            probe=("contraction",),
        ),
        Workload(
            name="run-long-clock",
            make_inputs=_random_inputs(6, 2, 4),
            op=_run_long_clock_op,
            # Seed commit, 32 operations over 8 seeds: infidelity <= 6.4e-10,
            # overlap error <= 2.7e-10.
            fidelity_floor=1 - 1e-8,
            overlap_tol=1e-8,
            probe=("clock",),
        ),
        Workload(
            name="learn-planted",
            make_inputs=_learn_inputs,
            op=_learn_op,
            # Seed commit, 200 operations over 25 seeds: reduced-fit infidelity
            # <= 0.077, overlap error <= 0.123, no support missed, tomography
            # fidelity >= 0.977.
            fidelity_floor=0.75,
            overlap_tol=0.4,
            probe=("contraction",),
            rerun_ops=4,
            oracle_fail_allowed=0.05,
        ),
        Workload(
            name="sweep-small",
            make_inputs=_no_inputs,
            op=_sweep_op,
            # Seed commit, 240 runs over 20 seeds: infidelity <= 0.067 and
            # overlap error <= 0.075, both at T=16 with the sine window.
            fidelity_floor=0.8,
            overlap_tol=0.25,
            probe=("interpreter", "io"),
            warmup_ops=3,
            rerun_ops=6,
        ),
    )
}
