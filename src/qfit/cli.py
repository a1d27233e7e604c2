"""Command-line front end.

Subcommands: generate | run | learn | oracle | cost.  All artifacts are
versioned JSON; a report embeds the exact configuration and master seed
that produced it, so rerunning with the same flags reproduces it byte
for byte.  The master seed comes from --seed, falling back to the
QFIT_SEED environment variable, then to 0.

Failures exit nonzero after printing a machine-readable error object
{"error": ..., "message": ...} to stderr.  One boundary, on the command
group, does that for every QfitError, OSError and MemoryError a command
raises.

Memory: on glibc, the first command in a process sets its malloc policy
so that the state-sized arrays a phase-estimation pass frees stay in the
heap for the next stage instead of going back to the kernel and faulting
in anew.  The heap then keeps up to 64 MiB free.  The setting is
process-wide, so it stays in force after ``main`` returns when ``main``
runs in-process, and later commands there do not set it again.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from typing import NoReturn

import click

from .algorithms import (
    DEFAULT_SUPPORT_ALPHA,
    DEFAULT_TOMOGRAPHY_EPSILON,
    RunSettings,
    VARIANT_FUSED,
    VARIANT_THREE_STAGE,
    estimate_fit_quality,
    fit_report_to_json,
    learn_report_to_json,
    learn_sparse_fit,
)
from .cost import ALGORITHM_ALIASES, CostQuery, cost_model, cost_report_to_json
from .exceptions import ConfigError, GenerationError, QfitError
from .problems import (
    ProblemSpec,
    artifact_text,
    classical_fit,
    denormalized_solution,
    generate_problem,
    load_problem,
    problem_to_json,
    save_problem,
    write_text_atomic,
)
from .seeding import STREAM_SWAP, derive_seed
from .sim import DEFAULT_AMPLITUDE_CAP, WINDOW_SINE, WINDOW_UNIFORM, SwapTestPlan
from .linalg import vector_to_json

MASTER_SEED_ENV = "QFIT_SEED"


def _fail(exc: Exception) -> NoReturn:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(2)


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        click.echo(text, nl=False)
    else:
        write_text_atomic(out, text)


def _write_json(obj: dict, out: str | None) -> None:
    _write_text(artifact_text(obj), out)


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        env = os.environ.get(MASTER_SEED_ENV)
        seed = int(env) if env else 0
    if seed < 0:
        raise ConfigError(f"master seed must be nonnegative, got {seed}")
    return seed


def _parse_auto(value: str, name: str) -> float | None:
    if value == "auto":
        return None
    try:
        return float(value)
    except ValueError as exc:
        raise click.BadParameter(f"{name} must be a number or 'auto'") from exc


@functools.cache
def _keep_freed_memory() -> None:
    """Keep freed arrays in the heap, where the next allocation reuses them.

    Blocks below 32 MiB come from the heap instead of a fresh mmap, and the
    heap keeps up to the largest simulator state (64 MiB) free at its top
    instead of trimming it, so a pass's freed arrays cause no new page
    faults.  One arena serves every thread, so the worker threads of a
    split pass (``sim._by_rows``) reuse that heap instead of growing arenas
    of their own.  This is process-wide: it stays in force for the rest of the
    process, also when ``main`` runs in-process, so it runs once per process.
    Where the C library has no ``mallopt`` (macOS, Windows) this does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # no mallopt; Windows refuses CDLL(None)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: the largest glibc takes on 64-bit
    mallopt(-2, DEFAULT_AMPLITUDE_CAP * 16)  # M_TOP_PAD: the largest state's bytes
    mallopt(-8, 1)  # M_ARENA_MAX


class _ErrorBoundary(click.Group):
    """Command group that reports qfit, file and memory errors as one object.

    QfitError, OSError and MemoryError are caught; MemoryError covers a
    size numpy can index but the host cannot hold.  Anything else is a bug
    and keeps its traceback.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (QfitError, OSError, MemoryError) as exc:
            _fail(exc)


def _parse_support(planted: str | None) -> tuple[int, ...] | None:
    if not planted:
        return None
    try:
        return tuple(int(tok) for tok in planted.split(","))
    except ValueError as exc:
        raise GenerationError(
            f"--planted must be comma-separated integers, got {planted!r}"
        ) from exc


@click.group(cls=_ErrorBoundary)
def main():
    """Least-squares fitting on a dense state-vector simulator."""
    _keep_freed_memory()


@main.command()
@click.option("--kind", type=click.Choice(["identity", "poly", "fourier", "random"]),
              default=ProblemSpec.kind, show_default=True)
@click.option("--n", type=int, required=True, help="Number of data points.")
@click.option("--m", type=int, required=True, help="Number of fit functions.")
@click.option("--seed", type=int, default=None, help="Master seed (default: QFIT_SEED or 0).")
@click.option("--planted", default=None,
              help="Comma-separated support indices for a planted solution.")
@click.option("--mass", type=float, default=0.95, show_default=True,
              help="Squared-norm fraction planted on the support.")
@click.option("--noise", type=float, default=ProblemSpec.noise, show_default=True,
              help="Additive complex-Gaussian noise amplitude on y.")
@click.option("--condition-target", type=float, default=None,
              help="Target condition number (random kind) or feasibility cap.")
@click.option("--out", required=True, help="Output problem file ('-' for stdout).")
def generate(kind, n, m, seed, planted, mass, noise, condition_target, out):
    """Generate a reproducible synthetic fit problem."""
    support = _parse_support(planted)
    spec = ProblemSpec(
        n=n,
        m=m,
        kind=kind,
        planted_support=support,
        planted_mass=mass if support else None,
        condition_target=condition_target,
        noise=noise,
    )
    problem = generate_problem(spec, _resolve_seed(seed))
    if out == "-":
        _write_json(problem_to_json(problem), None)
    else:
        save_problem(problem, out)


@main.command()
@click.option("--problem", "problem_path", required=True, help="Problem file to solve.")
@click.option("--out", default=None, help="Output file (default stdout).")
def oracle(problem_path, out):
    """Classical Moore-Penrose reference solution."""
    problem = load_problem(problem_path)
    sol = classical_fit(problem)
    orig = denormalized_solution(problem, sol)
    _write_json(
        {
            "schemaVersion": 1,
            "kind": "fit-solution",
            "lambda": vector_to_json(sol.lambda_),
            "residualEnergy": sol.residual_energy,
            "fittedVector": vector_to_json(sol.fitted),
            "original": {
                "lambda": vector_to_json(orig.lambda_),
                "residualEnergy": orig.residual_energy,
            },
        },
        out,
    )


_COMMON_RUN_OPTIONS = [
    click.option("--problem", "problem_path", required=True, help="Problem file."),
    click.option("-T", "--clock-size", "t", type=int, default=RunSettings.clock_size,
                 show_default=True, help="Clock register size, a power of two >= 2."),
    click.option("--t0", default="auto", show_default=True,
                 help="Total evolution time, or 'auto'."),
    click.option("--c", default="auto", show_default=True,
                 help="Rotation constant C, or 'auto' for the mode default."),
    click.option("--variant", type=click.Choice([VARIANT_THREE_STAGE, VARIANT_FUSED]),
                 default=RunSettings.variant, show_default=True),
    click.option("--window", type=click.Choice([WINDOW_UNIFORM, WINDOW_SINE]),
                 default=RunSettings.window, show_default=True),
    click.option("--shots", type=int, default=10000, show_default=True),
    click.option("--delta", type=float, default=SwapTestPlan.delta, show_default=True,
                 help="Swap-test accuracy target."),
    click.option("--epsilon", type=float, default=RunSettings.epsilon, show_default=True,
                 help="Phase-estimation accuracy target (drives auto t0)."),
    click.option("--seed", type=int, default=None,
                 help="Master seed (default: QFIT_SEED or 0)."),
    click.option("--out", default=None, help="Output file (default stdout)."),
]


def _with_options(options):
    def wrap(func):
        for option in reversed(options):
            func = option(func)
        return func

    return wrap


def _run_inputs(problem_path, t, t0, c, variant, window, shots, delta, epsilon, seed):
    """The problem, master seed, settings, swap-test plan and config echo of a run."""
    problem = load_problem(problem_path)
    master = _resolve_seed(seed)
    settings = RunSettings(
        clock_size=t,
        t0=_parse_auto(t0, "--t0"),
        rotation_scale=_parse_auto(c, "--c"),
        variant=variant,
        window=window,
        epsilon=epsilon,
    )
    plan = SwapTestPlan(shots=shots, delta=delta, seed=derive_seed(master, STREAM_SWAP))
    config = {"problem": problem_path, "T": t, "t0": t0, "C": c, "variant": variant,
              "window": window, "shots": shots, "delta": delta, "epsilon": epsilon,
              "seed": master}
    return problem, master, settings, plan, config


@main.command()
@_with_options(_COMMON_RUN_OPTIONS)
def run(out, **options):
    """Prepare the fit state and estimate fit quality by swap test."""
    problem, master, settings, plan, config = _run_inputs(**options)
    report = estimate_fit_quality(problem, settings, plan)
    _write_json({**fit_report_to_json(report), "config": config, "masterSeed": master}, out)


@main.command()
@_with_options(_COMMON_RUN_OPTIONS)
@click.option("--m-prime", type=int, required=True,
              help="Maximum number of fit functions kept.")
@click.option("--alpha", type=float, default=DEFAULT_SUPPORT_ALPHA, show_default=True,
              help="Support-sampling shot multiplier.")
@click.option("--tom-epsilon", type=float, default=DEFAULT_TOMOGRAPHY_EPSILON, show_default=True,
              help="Tomography reconstruction accuracy target.")
def learn(out, m_prime, alpha, tom_epsilon, **options):
    """Learn a sparse parameter vector by support sampling and tomography."""
    problem, master, settings, plan, config = _run_inputs(**options)
    report = learn_sparse_fit(
        problem,
        m_prime,
        settings,
        plan,
        master,
        alpha=alpha,
        tomography_epsilon=tom_epsilon,
    )
    config.update({"mPrime": m_prime, "alpha": alpha, "tomEpsilon": tom_epsilon})
    _write_json({**learn_report_to_json(report), "config": config, "masterSeed": master}, out)


def _cost_csv(report_obj: dict) -> str:
    query = report_obj["query"]
    reps = report_obj["repetitions"]
    header = ["n", "s", "kappa", "epsilon", "delta", "mPrime", "algorithm",
              "amplitudeAmplification", "queries", "perMultiply", "perInvert",
              "chainPlain", "chainAmplified"]
    row = [query["n"], query["s"], query["kappa"], query["epsilon"], query["delta"],
           query["mPrime"], query["algorithm"], query["amplitudeAmplification"],
           report_obj["queries"], reps["perMultiply"], reps["perInvert"],
           reps["chainPlain"], reps["chainAmplified"]]
    return ",".join(header) + "\n" + ",".join(str(v) for v in row) + "\n"


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--kappa", type=float, required=True)
@click.option("--eps", type=float, required=True)
@click.option("--delta", type=float, default=CostQuery.delta, show_default=True)
@click.option("--m-prime", type=int, default=CostQuery.m_prime, show_default=True)
@click.option("--alg", type=click.Choice(sorted(ALGORITHM_ALIASES)), default="eq3",
              show_default=True, help="Cost formula variant.")
@click.option("--amplified/--no-amplified", default=CostQuery.amplitude_amplification,
              show_default=True, help="Assume amplitude amplification where it helps.")
@click.option("--csv", "as_csv", is_flag=True, default=False,
              help="Emit a CSV header and row instead of JSON (sweep-friendly).")
@click.option("--out", default=None, help="Output file (default stdout).")
def cost(n, s, kappa, eps, delta, m_prime, alg, amplified, as_csv, out):
    """Evaluate the analytic query-cost model."""
    query = CostQuery(
        n=n,
        s=s,
        kappa=kappa,
        epsilon=eps,
        delta=delta,
        m_prime=m_prime,
        algorithm=alg,
        amplitude_amplification=amplified,
    )
    obj = cost_report_to_json(cost_model(query))
    if as_csv:
        _write_text(_cost_csv(obj), out)
    else:
        _write_json(obj, out)


if __name__ == "__main__":
    main()
