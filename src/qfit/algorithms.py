"""The fitting pipelines: parameter preparation, quality estimation, learning.

Parameter preparation composes eigenvalue-arithmetic passes over the
Hermitian embedding H of the design matrix.  Two equivalent pipelines
are provided and cross-checked:

* three-stage: a multiply pass (apply H, which plants F^dag y in the
  parameter sector) followed by two invert passes (apply H^-2, the
  inverse Gram operator on both sectors).
* fused: a single pseudo-inverse pass, using that H^-2 * H equals the
  pseudo-inverse of H on its nonzero eigenspace.

Either way the parameter sector of the output is proportional to the
least-squares solution F^+ y, which is checked against the classical
reference on every run.

Quality estimation applies one more multiply pass, turning the parameter
state into the normalized projection of y onto the column space of F,
and swap-tests it against the data state.  The reported ``eBound`` is
2 * (1 - sqrt(o)), with o the swap-test estimate of the squared overlap:
a point estimate, not a bound that holds with probability 1 - delta.  The
exact normalized residual 1 - overlap^2 is attached for reference.

Learning samples the parameter state to find the heaviest support and
refits on that support alone: its fit report is ``estimate_fit_quality``
of the reduced problem, and tomography reconstructs the reduced parameter
state from that report's preparation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tomography
from .cost import ALG_LEARN, ALG_QUALITY, CostQuery, CostReport, cost_model
from .exceptions import ConfigError, DimensionError, InvariantError, PostselectionError
from .linalg import (
    EigDecomposition,
    EmbeddedOperator,
    condition_estimate,
    eig_hermitian,
    embed,
    nonzero_extent,
    sparsity_profile,
    vector_to_json,
)
from .problems import FitProblem, FitSolution, classical_fit, restrict_columns
from .seeding import STREAM_SUPPORT, STREAM_TOMOGRAPHY, derive_seed
from .sim import (
    MODE_INVERT,
    MODE_MULTIPLY,
    WINDOW_UNIFORM,
    PhaseEstimationConfig,
    PhaseEstimationPass,
    RegisterLayout,
    SwapTestPlan,
    SwapTestResult,
    apply_hermitian_via_pe,
    check_clock_size,
    data_state_vector,
    default_rotation_scale,
    exact_overlap_sq,
    extract_system_vector,  # noqa: F401  looked up by perfbench's PATCH_TABLE (ROADMAP item 1)
    measure_computational,
    state_from_system_vector,
    swap_test,
)

REPORT_SCHEMA_VERSION = 1

VARIANT_THREE_STAGE = "three-stage"
VARIANT_FUSED = "fused"

_VARIANT_MODES = {
    VARIANT_THREE_STAGE: (MODE_MULTIPLY, MODE_INVERT, MODE_INVERT),
    VARIANT_FUSED: (MODE_INVERT,),
}

# Support-selection shot rule: ceil(alpha * m' * ln(m' + 1)).
DEFAULT_SUPPORT_ALPHA = 20.0

# Accuracy target of the tomography of the reduced parameter state.
DEFAULT_TOMOGRAPHY_EPSILON = 0.05


@dataclass(frozen=True)
class RunSettings:
    """User-facing pipeline knobs; None means resolve automatically."""

    clock_size: int = 1024
    t0: float | None = None
    rotation_scale: float | None = None
    variant: str = VARIANT_THREE_STAGE
    window: str = WINDOW_UNIFORM
    epsilon: float = 0.01

    def __post_init__(self):
        check_clock_size(self.clock_size)
        if self.variant not in _VARIANT_MODES:
            raise ConfigError(f"unknown pipeline variant {self.variant!r}")
        if not 0 < self.epsilon <= 1:
            raise ConfigError("epsilon must lie in (0, 1]")


@dataclass(frozen=True)
class PipelineSpec:
    stages: tuple[PhaseEstimationConfig, ...]


@dataclass(frozen=True)
class PreparationResult:
    """The unit system vector the last preparation pass returned, plus diagnostics.

    ``eig`` and ``spec`` are the eigensystem and stage configs its passes ran on.
    """

    system_vector: np.ndarray
    passes: tuple[PhaseEstimationPass, ...]
    fidelity_vs_oracle: float
    solution: FitSolution
    eig: EigDecomposition
    spec: PipelineSpec


def auto_t0(sigma_max: float, kappa: float, epsilon: float, clock_size: int) -> float:
    """Resolve t0 ~ 2*pi*kappa/eps, snapped so sigma_max sits exactly on a bin.

    The bin index is clamped to the anti-aliasing limit T/2 - 1, so very
    small epsilon degrades gracefully to the finest legal resolution.  At
    T = 2 that limit is bin 0, so no positive t0 exists.
    """
    if clock_size < 4:
        raise ConfigError(
            f"automatic t0 needs a clock size T >= 4, got T = {clock_size}; "
            "use T >= 4 or set --t0 explicitly"
        )
    bins_raw = min(sigma_max * kappa / epsilon, clock_size)
    bins = min(max(round(bins_raw), 1), clock_size // 2 - 1)
    return 2.0 * np.pi * bins / sigma_max


def make_pipeline_spec(eig: EigDecomposition, settings: RunSettings) -> PipelineSpec:
    """Instantiate per-stage configs for a spectrum and user settings."""
    extent = nonzero_extent(eig.eigenvalues)
    if extent is None:
        raise ConfigError("operator has no nonzero eigenvalues")
    sigma_min, sigma_max = extent
    t0 = settings.t0
    if t0 is None:
        kappa = sigma_max / sigma_min
        t0 = auto_t0(sigma_max, kappa, settings.epsilon, settings.clock_size)
    stages = []
    for mode in _VARIANT_MODES[settings.variant]:
        scale = settings.rotation_scale
        if scale is None:
            scale = default_rotation_scale(mode, eig.eigenvalues)
        stages.append(
            PhaseEstimationConfig(
                clock_size=settings.clock_size,
                t0=t0,
                rotation_scale=scale,
                mode=mode,
                window=settings.window,
            )
        )
    return PipelineSpec(stages=tuple(stages))


def _embedded_lambda_direction(problem: FitProblem, lam: np.ndarray) -> np.ndarray:
    vec = np.zeros(problem.m + problem.n, dtype=complex)
    vec[: problem.m] = lam
    norm = np.linalg.norm(vec)
    if norm <= 0:
        raise PostselectionError(
            "exact fit parameters are zero; the parameter state is unreachable"
        )
    return vec / norm


def _run_pass(vector: np.ndarray, eig: EigDecomposition, config: PhaseEstimationConfig):
    """One pass on ``vector``, handed over as a temporary state the pass frees."""
    layout = RegisterLayout(clock_size=config.clock_size, system_dim=vector.size)
    return apply_hermitian_via_pe(state_from_system_vector(vector, layout), eig, config)


def prepare_fit_parameters(
    problem: FitProblem,
    spec: PipelineSpec,
    op: EmbeddedOperator | None = None,
    eig: EigDecomposition | None = None,
) -> PreparationResult:
    """Run the parameter-preparation pipeline on a normalized problem.

    The passes need only ``eig``, the eigensystem of the design matrix's
    embedding ``op``; when ``eig`` is not given it is computed, from ``op``
    if that is given.
    """
    if eig is None:
        eig = eig_hermitian(embed(problem.design_matrix) if op is None else op)
    out_vec = data_state_vector(problem)
    passes: list[PhaseEstimationPass] = []
    for config in spec.stages:
        out_vec, info = _run_pass(out_vec, eig, config)
        passes.append(info)
    solution = classical_fit(problem)
    target = _embedded_lambda_direction(problem, solution.lambda_)
    fidelity = float(abs(np.vdot(target, out_vec)) ** 2)
    return PreparationResult(
        system_vector=out_vec,
        passes=tuple(passes),
        fidelity_vs_oracle=fidelity,
        solution=solution,
        eig=eig,
        spec=spec,
    )


# --- fit quality ----------------------------------------------------------------


@dataclass(frozen=True)
class FitReport:
    """Everything a quality-estimation run measured and assumed.

    ``preparation`` is the preparation the projection pass started from,
    None when the fit is degenerate.
    """

    overlap_sq_estimate: float
    std_error: float
    e_bound: float
    exact_overlap_sq: float
    exact_normalized_residual: float
    lambda_fidelity: float
    swap: SwapTestResult
    passes: tuple[PhaseEstimationPass, ...]
    degenerate_fit: bool
    plan: SwapTestPlan
    cost: CostReport
    settings: RunSettings
    preparation: PreparationResult | None


def _prepare(
    problem: FitProblem, settings: RunSettings, delta: float, algorithm: str, m_prime: int
) -> tuple[PreparationResult | None, CostReport]:
    """Price, embed and eigensolve ``problem``, then run its preparation passes.

    Returns ``(prep, cost)``.  When y is orthogonal to the column space of F
    (|F^dag y| < 1e-12) the fitted state is unreachable, since its
    postselection succeeds with probability exactly zero: no pass runs and
    ``prep`` is None.  The cost model is priced first, so settings it cannot
    price fail before any pass.
    """
    cost = cost_model(
        CostQuery(
            n=max(problem.n, 2),
            s=sparsity_profile(problem.design_matrix),
            kappa=max(condition_estimate(problem.design_matrix).kappa, 1.0),
            epsilon=settings.epsilon,
            delta=delta,
            m_prime=m_prime,
            algorithm=algorithm,
        )
    )
    eig = eig_hermitian(embed(problem.design_matrix))
    if np.linalg.norm(problem.design_matrix.conj().T @ problem.y) < 1e-12:
        return None, cost
    spec = make_pipeline_spec(eig, settings)
    return prepare_fit_parameters(problem, spec, eig=eig), cost


def estimate_fit_quality(
    problem: FitProblem, settings: RunSettings, plan: SwapTestPlan
) -> FitReport:
    """Prepare the fitted state, project it, swap-test it against the data, report.

    If y is orthogonal to the column space of F the report samples the
    swap test at its known p1 = 1/2 and flags the degeneracy.
    """
    prep, cost = _prepare(problem, settings, plan.delta, ALG_QUALITY, 1)
    y_vec = data_state_vector(problem)
    if prep is None:
        fitted_vec = np.zeros_like(y_vec)
        fitted_vec[0] = 1.0  # orthogonal placeholder; overlap with y is 0
        passes: tuple[PhaseEstimationPass, ...] = ()
        lambda_fidelity = float("nan")
    else:
        project_config = replace(
            prep.spec.stages[0],
            mode=MODE_MULTIPLY,
            rotation_scale=default_rotation_scale(MODE_MULTIPLY, prep.eig.eigenvalues),
        )
        fitted_vec, project_info = _run_pass(prep.system_vector, prep.eig, project_config)
        passes = prep.passes + (project_info,)
        lambda_fidelity = prep.fidelity_vs_oracle

    overlap_exact = exact_overlap_sq(y_vec, fitted_vec)
    swap = swap_test(fitted_vec, y_vec, plan)
    overlap_abs = math.sqrt(max(swap.overlap_sq_estimate, 0.0))
    e_bound = 2.0 * (1.0 - overlap_abs)
    exact_residual = 1.0 - overlap_exact
    # Bound identity 2*(1-ov) - (1-ov^2) = (1-ov)^2 >= 0, checked on the
    # exact values every run; only a NaN overlap can fail it.
    ov = math.sqrt(max(overlap_exact, 0.0))
    if not 2.0 * (1.0 - ov) >= (1.0 - ov**2) - 1e-12:
        raise InvariantError(
            f"residual bound identity fails at exact overlap {overlap_exact!r}"
        )

    return FitReport(
        overlap_sq_estimate=swap.overlap_sq_estimate,
        std_error=swap.std_error,
        e_bound=e_bound,
        exact_overlap_sq=overlap_exact,
        exact_normalized_residual=exact_residual,
        lambda_fidelity=lambda_fidelity,
        swap=swap,
        passes=passes,
        degenerate_fit=prep is None,
        plan=plan,
        cost=cost,
        settings=settings,
        preparation=prep,
    )


# --- sparse learning --------------------------------------------------------------


@dataclass(frozen=True)
class LearnReport:
    recovered_support: tuple[int, ...]
    support_counts: tuple[int, ...]
    support_shots: int
    reconstruction: tomography.ReconstructedState
    setting_records: tuple[tomography.SettingRecord, ...]
    budget: tomography.TomographyBudget
    preparations_consumed: int
    fit_report: FitReport
    exact_full_residual: float
    exact_reduced_residual: float
    truncation_degraded: bool
    seed: int
    cost: CostReport


def support_shot_count(m_prime: int, alpha: float = DEFAULT_SUPPORT_ALPHA) -> int:
    if not (math.isfinite(alpha) and alpha > 0):
        raise ConfigError(f"alpha must be finite and positive, got {alpha}")
    shots = alpha * m_prime * math.log(m_prime + 1)
    if shots > np.iinfo(np.int64).max:
        raise ConfigError(f"alpha = {alpha:g} asks for more support shots than int64 counts")
    return int(math.ceil(shots))


def select_support(counts: np.ndarray, m_prime: int) -> tuple[int, ...]:
    """Indices of the m' largest counts; ties go to the smaller index."""
    order = np.lexsort((np.arange(len(counts)), -np.asarray(counts)))
    return tuple(sorted(int(i) for i in order[:m_prime]))


def _unreachable(support: tuple[int, ...]) -> PostselectionError:
    return PostselectionError(
        f"y is orthogonal to the fit functions of support {support} "
        "(F^dag y = 0); their fitted state is unreachable"
    )


def learn_sparse_fit(
    problem: FitProblem,
    m_prime: int,
    settings: RunSettings,
    plan: SwapTestPlan,
    seed: int,
    budget: tomography.TomographyBudget | None = None,
    alpha: float = DEFAULT_SUPPORT_ALPHA,
    tomography_epsilon: float = DEFAULT_TOMOGRAPHY_EPSILON,
) -> LearnReport:
    """Find the m' most relevant fit functions, refit, and reconstruct.

    The fit report is ``estimate_fit_quality`` of the reduced problem, and
    tomography reads the reduced state from that report's preparation.
    The full and the reduced problem are each priced before their own
    passes, so settings the cost model cannot price fail before that work.
    Either is refused, with no pass of its own run, when y is orthogonal to
    its fit functions.  A tomography epsilon above 1 / tomography.REFERENCE_FACTOR,
    which no reference amplitude can meet, is refused before the first pass.
    """
    if not 1 <= m_prime <= problem.m:
        raise DimensionError(f"m' must lie in 1..{problem.m}, got {m_prime}")
    shots = support_shot_count(m_prime, alpha)
    if budget is None:
        budget = tomography.plan_budget(m_prime, tomography_epsilon)
    if budget.epsilon * tomography.REFERENCE_FACTOR > 1:
        raise ConfigError(
            f"tomography epsilon {budget.epsilon:g} exceeds {1 / tomography.REFERENCE_FACTOR:g}: "
            f"the reference amplitude, at most 1, must reach {tomography.REFERENCE_FACTOR:g}*eps"
        )
    prep, cost = _prepare(problem, settings, plan.delta, ALG_LEARN, m_prime)
    if prep is None:
        raise _unreachable(tuple(range(problem.m)))

    histogram = measure_computational(
        prep.system_vector, shots, derive_seed(seed, STREAM_SUPPORT)
    )
    param_counts = histogram[: problem.m]
    support = select_support(param_counts, m_prime)

    reduced = restrict_columns(problem, support)  # raises if F'^dag F' singular
    fit_report = estimate_fit_quality(reduced, settings, plan)
    red_prep = fit_report.preparation
    if red_prep is None:
        raise _unreachable(support)

    param_vec = red_prep.system_vector[:m_prime]
    param_norm = np.linalg.norm(param_vec)
    if param_norm < 1e-9:
        raise PostselectionError("reduced parameter sector carries no weight")
    param_vec = param_vec / param_norm

    lam_red = red_prep.solution.lambda_
    oracle_dir = lam_red / np.linalg.norm(lam_red)
    # The simulator is deterministic, so every repeated preparation yields
    # the same amplitudes.
    reconstruction, records = tomography.reconstruct_pure_state(
        lambda: param_vec, budget, derive_seed(seed, STREAM_TOMOGRAPHY), oracle=oracle_dir
    )

    full_residual = prep.solution.residual_energy
    reduced_residual = red_prep.solution.residual_energy
    return LearnReport(
        recovered_support=support,
        support_counts=tuple(int(c) for c in param_counts),
        support_shots=shots,
        reconstruction=reconstruction,
        setting_records=tuple(records),
        budget=budget,
        preparations_consumed=sum(r.repetitions for r in records),
        fit_report=fit_report,
        exact_full_residual=full_residual,
        exact_reduced_residual=reduced_residual,
        truncation_degraded=bool(reduced_residual > full_residual + 1e-9),
        seed=seed,
        cost=cost,
    )


# --- report serialization ----------------------------------------------------------


def _passes_to_json(passes) -> list[dict]:
    return [
        {
            "flagProbability": p.flag_probability,
            "clockZeroProbability": p.clock_zero_probability,
            "oracleDistance": None if math.isnan(p.oracle_distance) else p.oracle_distance,
        }
        for p in passes
    ]


def _settings_to_json(settings: RunSettings) -> dict:
    return {
        "clockSize": settings.clock_size,
        "t0": settings.t0,
        "rotationScale": settings.rotation_scale,
        "variant": settings.variant,
        "window": settings.window,
        "epsilon": settings.epsilon,
    }


def fit_report_to_json(report: FitReport) -> dict:
    from .cost import cost_report_to_json

    return {
        "schemaVersion": REPORT_SCHEMA_VERSION,
        "kind": "fit-report",
        "overlapSqEstimate": report.overlap_sq_estimate,
        "stdError": report.std_error,
        "eBound": report.e_bound,
        "exactOverlapSq": report.exact_overlap_sq,
        "exactNormalizedResidual": report.exact_normalized_residual,
        "lambdaFidelity": None
        if math.isnan(report.lambda_fidelity)
        else report.lambda_fidelity,
        "degenerateFit": report.degenerate_fit,
        "swap": {
            "onesObserved": report.swap.ones_observed,
            "shots": report.swap.shots,
            "pOneEstimate": report.swap.p_one_estimate,
        },
        "successProbabilities": _passes_to_json(report.passes),
        "totalShots": report.plan.shots,
        "seeds": {"swap": report.plan.seed},
        "delta": report.plan.delta,
        "settings": _settings_to_json(report.settings),
        "costModel": cost_report_to_json(report.cost),
    }


def learn_report_to_json(report: LearnReport) -> dict:
    from .cost import cost_report_to_json

    rec = report.reconstruction
    return {
        "schemaVersion": REPORT_SCHEMA_VERSION,
        "kind": "learn-report",
        "recoveredSupport": list(report.recovered_support),
        "supportCounts": list(report.support_counts),
        "supportShots": report.support_shots,
        "reconstructedAmplitudes": vector_to_json(rec.amplitudes),
        "reconstructionFidelity": rec.fidelity_vs_oracle,
        "budget": {
            "settings": report.budget.settings,
            "shotsPerSetting": report.budget.shots_per_setting,
            "epsilon": report.budget.epsilon,
            "totalShots": report.budget.total_shots,
        },
        "preparationsConsumed": report.preparations_consumed,
        "settingRecords": [
            {
                "kind": r.kind,
                "index": r.index,
                "phase": r.phase,
                "repetitions": r.repetitions,
                "shots": r.shots,
                "counts": list(r.counts),
            }
            for r in report.setting_records
        ],
        "fitReport": fit_report_to_json(report.fit_report),
        "exactFullResidual": report.exact_full_residual,
        "exactReducedResidual": report.exact_reduced_residual,
        "truncationDegraded": report.truncation_degraded,
        "seeds": {"master": report.seed},
        "costModel": cost_report_to_json(report.cost),
    }
