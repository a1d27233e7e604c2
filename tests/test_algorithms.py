"""End-to-end pipelines: parameter preparation, quality reports, learning."""

from dataclasses import replace

import numpy as np
import pytest

import qfit.algorithms
from qfit import tomography
from qfit.algorithms import (
    RunSettings,
    VARIANT_FUSED,
    VARIANT_THREE_STAGE,
    auto_t0,
    estimate_fit_quality,
    fit_report_to_json,
    learn_report_to_json,
    learn_sparse_fit,
    make_pipeline_spec,
    prepare_fit_parameters,
    select_support,
    support_shot_count,
)
from qfit.exceptions import (
    ConfigError,
    DimensionError,
    InvariantError,
    PostselectionError,
    SingularMatrixError,
)
from qfit.linalg import SINGULAR_TOL, EigDecomposition, eig_hermitian, embed
from qfit.problems import (
    BASIS_CUSTOM,
    DataSet,
    FitBasis,
    FitProblem,
    ProblemSpec,
    generate_problem,
    normalize_problem,
    restrict_columns,
)
from qfit.sim import (
    MODE_INVERT,
    MODE_MULTIPLY,
    PhaseEstimationConfig,
    SwapTestPlan,
    WINDOW_SINE,
    default_rotation_scale,
    validate_config,
)

from conftest import commensurate_problem

COMMENSURATE = RunSettings(clock_size=8, t0=4 * np.pi)


def spec_for(problem, settings):
    return make_pipeline_spec(eig_hermitian(embed(problem.design_matrix)), settings)


@pytest.fixture
def pass_calls(monkeypatch):
    """The phase-estimation passes the pipelines run, one entry each."""
    calls = []
    apply_pass = qfit.algorithms.apply_hermitian_via_pe

    def counted(*args, **kwargs):
        calls.append(1)
        return apply_pass(*args, **kwargs)

    monkeypatch.setattr(qfit.algorithms, "apply_hermitian_via_pe", counted)
    return calls


class TestPipelineSpec:
    def test_variant_stage_modes(self, worked_instance):
        eig = eig_hermitian(embed(worked_instance.design_matrix))
        three = make_pipeline_spec(eig, COMMENSURATE)
        assert [s.mode for s in three.stages] == [MODE_MULTIPLY, MODE_INVERT, MODE_INVERT]
        fused = make_pipeline_spec(eig, RunSettings(clock_size=8, t0=4 * np.pi, variant=VARIANT_FUSED))
        assert [s.mode for s in fused.stages] == [MODE_INVERT]

    def test_default_rotation_scales(self, rng):
        prob, t0 = commensurate_problem(rng, 5, 3)
        sigma = np.linalg.svd(prob.design_matrix, compute_uv=False)
        spec = spec_for(prob, RunSettings(clock_size=64, t0=t0))
        assert spec.stages[0].rotation_scale == pytest.approx(1.0 / sigma[0])
        assert spec.stages[1].rotation_scale == pytest.approx(sigma[-1])

    def test_auto_t0_snaps_to_bin(self):
        t0 = auto_t0(sigma_max=1.0, kappa=2.0, epsilon=0.1, clock_size=128)
        bins = 1.0 * t0 / (2 * np.pi)
        assert bins == pytest.approx(round(bins))
        assert bins == 20

    def test_auto_t0_respects_aliasing(self):
        t0 = auto_t0(sigma_max=1.0, kappa=100.0, epsilon=1e-4, clock_size=128)
        assert 1.0 * t0 / (2 * np.pi) < 64

    def test_bad_variant(self):
        with pytest.raises(ConfigError):
            RunSettings(variant="pentuple")

    @pytest.mark.parametrize("clock_size", [3, 1, 0, -4, 96])
    def test_clock_size_is_refused_with_the_settings(self, clock_size):
        with pytest.raises(ConfigError, match="must be a power of two >= 2"):
            RunSettings(clock_size=clock_size, t0=1.0)


class TestZeroEigenvalueRule:
    """validate_config, default_rotation_scale and make_pipeline_spec read
    sigma_min and sigma_max off one rule: |E| <= SINGULAR_TOL is zero."""

    SETTINGS = RunSettings(clock_size=64, epsilon=0.1)

    @staticmethod
    def _eig(values):
        values = np.sort(np.asarray(values, dtype=float))
        return EigDecomposition(eigenvalues=values, eigenvectors=np.eye(values.size))

    @pytest.mark.parametrize(
        "values, sigma_min, sigma_max",
        [
            ([-1, -2e-12, -1e-13, 0, 1e-13, 2e-12, 1], 2e-12, 1.0),
            ([-1, -SINGULAR_TOL, 1e-13, 1], 1.0, 1.0),
            ([-2e-12, -1e-13, 1e-13, 2e-12], 2e-12, 2e-12),
            ([-1, -2 * SINGULAR_TOL, -1e-13, 0.5], 2 * SINGULAR_TOL, 1.0),
        ],
    )
    def test_all_three_agree(self, values, sigma_min, sigma_max):
        eig = self._eig(values)
        assert default_rotation_scale(MODE_MULTIPLY, eig.eigenvalues) == 1.0 / sigma_max
        assert default_rotation_scale(MODE_INVERT, eig.eigenvalues) == sigma_min
        spec = make_pipeline_spec(eig, self.SETTINGS)
        assert spec.stages[0].rotation_scale == 1.0 / sigma_max
        assert spec.stages[1].rotation_scale == sigma_min
        assert spec.stages[0].t0 == auto_t0(sigma_max, sigma_max / sigma_min, 0.1, 64)
        for stage in spec.stages:
            validate_config(stage, eig.eigenvalues)  # the spec's own bounds hold
            bound = stage.rotation_scale
            over = replace(stage, rotation_scale=bound * 1.01 + 1e-8)
            with pytest.raises(ConfigError):
                validate_config(over, eig.eigenvalues)

    @pytest.mark.parametrize(
        "values", [[-1e-13, 0, 1e-13], [-SINGULAR_TOL, SINGULAR_TOL], [0.0, 0.0]]
    )
    def test_spectrum_below_threshold(self, values):
        eig = self._eig(values)
        with pytest.raises(ConfigError):
            make_pipeline_spec(eig, self.SETTINGS)
        for mode in (MODE_MULTIPLY, MODE_INVERT):
            with pytest.raises(ConfigError):
                default_rotation_scale(mode, eig.eigenvalues)
        config = PhaseEstimationConfig(
            clock_size=64, t0=1.0, rotation_scale=1.0, mode=MODE_INVERT
        )
        assert validate_config(config, eig.eigenvalues) is None


class TestPrepareFitParameters:
    def test_identity_fit(self):
        prob = normalize_problem(np.eye(2), [1.0, 0.0])
        prep = prepare_fit_parameters(prob, spec_for(prob, COMMENSURATE))
        assert prep.fidelity_vs_oracle >= 1 - 1e-8
        np.testing.assert_allclose(np.abs(prep.system_vector), [1, 0, 0, 0], atol=1e-8)

    def test_worked_instance_exact(self, worked_instance):
        prep = prepare_fit_parameters(worked_instance, spec_for(worked_instance, COMMENSURATE))
        assert prep.fidelity_vs_oracle >= 1 - 1e-8
        for info in prep.passes:
            assert 1 - info.clock_zero_probability <= 1e-10

    def test_square_invertible_at_default_clock(self):
        prob = normalize_problem([[1.0, 0.0], [1.0, 1.0]], np.array([1.0, 1.0]) / np.sqrt(2))
        prep = prepare_fit_parameters(
            prob, spec_for(prob, RunSettings(clock_size=1024, window=WINDOW_SINE))
        )
        assert prep.fidelity_vs_oracle >= 0.99
        np.testing.assert_allclose(
            np.abs(prep.system_vector[:2]), [1.0, 0.0], atol=0.05
        )

    def test_variant_equivalence_commensurate(self, rng):
        for _ in range(5):
            prob, t0 = commensurate_problem(rng, 5, 3)
            base = dict(clock_size=64, t0=t0)
            a = prepare_fit_parameters(
                prob, spec_for(prob, RunSettings(variant=VARIANT_THREE_STAGE, **base))
            )
            b = prepare_fit_parameters(
                prob, spec_for(prob, RunSettings(variant=VARIANT_FUSED, **base))
            )
            fid = abs(np.vdot(a.system_vector, b.system_vector)) ** 2
            assert fid >= 1 - 1e-8

    def test_infidelity_decreases_over_octaves(self, rng):
        prob = generate_problem(
            ProblemSpec(n=6, m=3, kind="random", condition_target=3.0), seed=5
        )
        op = embed(prob.design_matrix)
        eig = eig_hermitian(op)
        start = make_pipeline_spec(eig, RunSettings(clock_size=128, window=WINDOW_SINE, epsilon=0.5))
        t0_start = start.stages[0].t0
        infids = []
        for octave in range(3):
            settings = RunSettings(
                clock_size=128 * 2**octave, t0=t0_start * 2**octave, window=WINDOW_SINE
            )
            prep = prepare_fit_parameters(prob, make_pipeline_spec(eig, settings), op=op, eig=eig)
            infids.append(1 - prep.fidelity_vs_oracle)
        assert infids[1] <= 2 * infids[0]
        assert infids[2] <= 2 * infids[1]
        assert infids[2] < infids[0]


class TestEstimateFitQuality:
    def test_perfect_fit(self):
        prob = normalize_problem(np.eye(2), [1.0, 0.0])
        report = estimate_fit_quality(prob, COMMENSURATE, SwapTestPlan(shots=2000, seed=3))
        assert report.exact_overlap_sq == pytest.approx(1.0, abs=1e-10)
        assert report.swap.ones_observed == 0
        assert report.e_bound == pytest.approx(0.0, abs=1e-9)

    def test_worked_instance_chain(self, worked_instance):
        report = estimate_fit_quality(
            worked_instance, COMMENSURATE, SwapTestPlan(shots=10000, seed=4)
        )
        assert report.exact_overlap_sq == pytest.approx(0.5, abs=1e-8)
        assert report.exact_normalized_residual == pytest.approx(0.5, abs=1e-8)
        assert report.overlap_sq_estimate == pytest.approx(0.5, abs=0.03)
        # the bound scales like sqrt(2) times the overlap deviation
        assert report.e_bound == pytest.approx(2 * (1 - 1 / np.sqrt(2)), abs=0.05)
        assert report.e_bound >= report.exact_normalized_residual
        assert report.lambda_fidelity >= 1 - 1e-8

    def test_orthogonal_data_is_degenerate(self):
        prob = normalize_problem([[1.0], [0.0]], [0.0, 1.0])
        report = estimate_fit_quality(prob, COMMENSURATE, SwapTestPlan(shots=20000, seed=5))
        assert report.degenerate_fit
        assert report.exact_overlap_sq == pytest.approx(0.0)
        assert report.swap.p_one_estimate == pytest.approx(0.5, abs=0.02)

    def test_exact_overlap_is_column_projection(self, rng):
        for _ in range(3):
            prob, t0 = commensurate_problem(rng, 5, 2)
            f = prob.design_matrix
            proj = f @ np.linalg.solve(f.conj().T @ f, f.conj().T)
            expected = float(np.vdot(prob.y, proj @ prob.y).real)
            report = estimate_fit_quality(
                prob,
                RunSettings(clock_size=64, t0=t0),
                SwapTestPlan(shots=100, seed=6),
            )
            assert report.exact_overlap_sq == pytest.approx(expected, abs=1e-8)

    def test_bound_holds_within_sampling_tolerance(self, rng):
        # near-perfect fits leave no margin, so the sampled bound may dip
        # below the exact residual only within a few standard errors
        for seed in range(20):
            prob = generate_problem(
                ProblemSpec(n=10, m=5, kind="random", planted_support=(0, 2),
                            planted_mass=0.9, noise=0.1),
                seed=seed,
            )
            report = estimate_fit_quality(
                prob,
                RunSettings(clock_size=256, window=WINDOW_SINE),
                SwapTestPlan(shots=5000, seed=seed),
            )
            slack = 3 * max(report.std_error, 1e-4)
            assert report.e_bound >= report.exact_normalized_residual - slack

    def test_report_json_shape(self, worked_instance):
        report = estimate_fit_quality(worked_instance, COMMENSURATE, SwapTestPlan(shots=100, seed=7))
        obj = fit_report_to_json(report)
        assert obj["kind"] == "fit-report"
        assert obj["schemaVersion"] == 1
        assert len(obj["successProbabilities"]) == 4  # 3 stages + projection pass
        assert obj["costModel"]["queries"] > 0

    def test_bound_identity_failure_is_a_qfit_error(self, worked_instance, monkeypatch):
        monkeypatch.setattr(qfit.algorithms, "exact_overlap_sq", lambda a, b: float("nan"))
        with pytest.raises(InvariantError):
            estimate_fit_quality(worked_instance, COMMENSURATE, SwapTestPlan(shots=10, seed=0))


class TestLearnSparseFit:
    def planted(self, seed, m=8, support=(2, 5), mass=0.98):
        return generate_problem(
            ProblemSpec(n=16, m=m, kind="random", planted_support=support, planted_mass=mass),
            seed=seed,
        )

    def settings(self):
        return RunSettings(clock_size=256, window=WINDOW_SINE)

    def test_recovers_planted_support(self):
        prob = self.planted(seed=21)
        report = learn_sparse_fit(
            prob, 2, self.settings(), SwapTestPlan(shots=2000, seed=1), seed=21
        )
        assert report.recovered_support == (2, 5)
        assert report.reconstruction.fidelity_vs_oracle >= 0.75

    def test_full_support_matches_original(self):
        prob = generate_problem(ProblemSpec(n=8, m=4, kind="random"), seed=3)
        report = learn_sparse_fit(
            prob, 4, self.settings(), SwapTestPlan(shots=2000, seed=2), seed=3
        )
        assert report.recovered_support == (0, 1, 2, 3)
        assert report.exact_reduced_residual == pytest.approx(
            report.exact_full_residual, abs=1e-10
        )
        assert not report.truncation_degraded
        assert report.reconstruction.fidelity_vs_oracle >= 0.99

    def test_truncation_degrades_uniform_lambda(self):
        # all four columns carry equal weight, so keeping two must hurt
        prob = generate_problem(
            ProblemSpec(n=8, m=4, kind="random", planted_support=(0, 1, 2, 3), planted_mass=1.0),
            seed=9,
        )
        report = learn_sparse_fit(
            prob, 2, self.settings(), SwapTestPlan(shots=2000, seed=3), seed=9
        )
        assert report.truncation_degraded
        assert report.exact_reduced_residual > report.exact_full_residual

    def test_small_residual_rise_is_degradation(self):
        # 0.1 % of lambda's squared norm off the support: the reduced fit's
        # residual rises by about 7e-4.
        prob = self.planted(seed=21, mass=0.999)
        report = learn_sparse_fit(
            prob, 2, self.settings(), SwapTestPlan(shots=2000, seed=1), seed=21
        )
        assert report.recovered_support == (2, 5)
        assert 1e-6 < report.exact_reduced_residual - report.exact_full_residual < 1e-2
        assert report.truncation_degraded

    def test_m_prime_bounds(self):
        prob = generate_problem(ProblemSpec(n=4, m=2, kind="random"), seed=0)
        with pytest.raises(DimensionError):
            learn_sparse_fit(prob, 3, self.settings(), SwapTestPlan(shots=10, seed=0), seed=0)

    def test_support_shot_rule(self):
        assert support_shot_count(2) == int(np.ceil(40 * np.log(3)))
        assert support_shot_count(4, alpha=10) == int(np.ceil(40 * np.log(5)))

    def test_select_support_tie_break(self):
        assert select_support(np.array([3, 5, 5, 1]), 2) == (1, 2)
        assert select_support(np.array([2, 2, 2, 2]), 2) == (0, 1)

    def test_report_json_shape(self):
        prob = self.planted(seed=33)
        report = learn_sparse_fit(
            prob, 2, self.settings(), SwapTestPlan(shots=500, seed=4), seed=33
        )
        obj = learn_report_to_json(report)
        assert obj["kind"] == "learn-report"
        assert obj["recoveredSupport"] == [2, 5]
        assert obj["budget"]["totalShots"] == report.budget.total_shots
        assert obj["fitReport"]["kind"] == "fit-report"
        assert len(obj["settingRecords"]) >= 3

    def test_each_pass_eigensolve_and_oracle_solve_runs_once(self, monkeypatch):
        calls = {"apply_hermitian_via_pe": 0, "eig_hermitian": 0, "classical_fit": 0,
                 "estimate_fit_quality": 0}
        for name in calls:
            original = getattr(qfit.algorithms, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(qfit.algorithms, name, counted)
        prepared = 0
        reconstruct = tomography.reconstruct_pure_state

        def reconstruct_counting(preparer, *args, **kwargs):
            def counted_preparer():
                nonlocal prepared
                prepared += 1
                return preparer()

            return reconstruct(counted_preparer, *args, **kwargs)

        monkeypatch.setattr(tomography, "reconstruct_pure_state", reconstruct_counting)
        report = learn_sparse_fit(
            self.planted(seed=21), 2, self.settings(), SwapTestPlan(shots=500, seed=5), seed=21
        )
        # 3 passes on the full problem, 3 on the reduced one, 1 projection; the
        # fit report is the one quality estimate of the reduced problem.
        assert calls == {"apply_hermitian_via_pe": 7, "eig_hermitian": 2, "classical_fit": 2,
                         "estimate_fit_quality": 1}
        assert report.preparations_consumed == prepared == report.budget.settings

    def test_fit_report_is_the_reduced_problems_quality_report(self):
        prob = self.planted(seed=33)
        plan = SwapTestPlan(shots=500, seed=6)
        for variant in (VARIANT_THREE_STAGE, VARIANT_FUSED):
            settings = RunSettings(clock_size=256, window=WINDOW_SINE, variant=variant)
            report = learn_sparse_fit(prob, 2, settings, plan, seed=33)
            reduced = restrict_columns(prob, report.recovered_support)
            expected = estimate_fit_quality(reduced, settings, plan)
            assert fit_report_to_json(report.fit_report) == fit_report_to_json(expected)

    @pytest.mark.parametrize("eps", [0.2, 0.5])
    def test_hopeless_tomography_epsilon_is_refused_before_any_pass(self, pass_calls, eps):
        # The reference amplitude is at most 1, so it never reaches 10 * eps.
        with pytest.raises(ConfigError, match=r"exceeds 0\.1"):
            learn_sparse_fit(self.planted(seed=21), 2, self.settings(),
                             SwapTestPlan(shots=500, seed=5), seed=21, tomography_epsilon=eps)
        assert pass_calls == []

    @pytest.mark.parametrize("f, y, passes", [
        # lambda = (2, 1), but y is orthogonal to column 0 (up to 1e-14), so the
        # reduced problem on support (0,) has no reachable fitted state: learning
        # stops after the 3 full-problem passes, before any reduced pass.
        pytest.param([[1.0, -2.0], [0.0, 1.0], [0.0, 0.0]], [1e-14, 1.0, 0.0], 3,
                     id="support-1e-14"),
        pytest.param([[1.0, -2.0], [0.0, 1.0], [0.0, 0.0]], [0.0, 1.0, 0.0], 3,
                     id="support-0"),
        # y is orthogonal to the only column: refused before the first pass.
        pytest.param([[1.0], [0.0]], [0.0, 1.0], 0, id="full"),
    ])
    def test_orthogonal_support_is_refused(self, pass_calls, f, y, passes):
        plan = SwapTestPlan(shots=100, seed=1)
        with pytest.raises(PostselectionError, match=r"support \(0,\)"):
            learn_sparse_fit(normalize_problem(f, y), 1, RunSettings(clock_size=256), plan,
                             seed=0)
        assert len(pass_calls) == passes

    def test_reduced_parameter_sector_without_weight_is_refused(self, monkeypatch):
        # A reduced preparation whose parameter sector is exactly zero has no
        # direction to reconstruct: refused before tomography divides by its norm.
        # The projection pass runs first, so the zeroed vector is renormalized
        # onto its data sector to stay a unit state.
        prepare = qfit.algorithms._prepare
        problems = []

        def zero_reduced_parameters(problem, settings, delta, algorithm, m_prime):
            prep, cost = prepare(problem, settings, delta, algorithm, m_prime)
            problems.append(problem)
            if len(problems) == 2:
                vector = prep.system_vector.copy()
                vector[: problem.m] = 0
                prep = replace(prep, system_vector=vector / np.linalg.norm(vector))
            return prep, cost

        monkeypatch.setattr(qfit.algorithms, "_prepare", zero_reduced_parameters)
        full = self.planted(seed=21)
        with pytest.raises(PostselectionError, match="reduced parameter sector carries no weight"):
            learn_sparse_fit(full, 2, self.settings(), SwapTestPlan(shots=500, seed=5), seed=21)
        assert problems[0] is full and len(problems) == 2
        assert np.array_equal(problems[1].design_matrix,
                              restrict_columns(full, (2, 5)).design_matrix)


class TestWideProblem:
    """More fit functions than data points: refused before the eigensolve."""

    # Normalized as a problem file stores it: sigma_max = 1, |y| = 1.
    WIDE = FitProblem(
        data_set=DataSet(x=np.arange(2.0), y=np.array([1.0, 0.0])),
        basis=FitBasis(kind=BASIS_CUSTOM, m=3),
        design_matrix=np.eye(2, 3, dtype=complex),
        y=np.array([1.0, 0.0], dtype=complex),
        scale_f=1.0,
        scale_y=1.0,
    )

    def test_run_runs_no_pass(self, pass_calls):
        with pytest.raises(SingularMatrixError, match="more columns than rows"):
            estimate_fit_quality(self.WIDE, RunSettings(clock_size=64),
                                 SwapTestPlan(shots=100, seed=1))
        assert pass_calls == []

    def test_learn_runs_no_pass(self, pass_calls):
        with pytest.raises(SingularMatrixError, match="more columns than rows"):
            learn_sparse_fit(self.WIDE, 2, RunSettings(clock_size=64),
                             SwapTestPlan(shots=100, seed=1), seed=0)
        assert pass_calls == []
