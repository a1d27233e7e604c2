"""Budget planning and linear-inversion state reconstruction."""

import numpy as np
import pytest

from qfit.exceptions import ConfigError, TomographyError
from qfit.tomography import (
    canonicalize_phase,
    plan_budget,
    reconstruct_pure_state,
)

from conftest import random_complex_vector


def constant_preparer(vector):
    v = np.asarray(vector, dtype=complex)
    return lambda: v


class TestPlanBudget:
    @pytest.mark.parametrize(
        "m_prime,eps,settings,shots",
        [(1, 0.1, 1, 100), (2, 0.1, 8, 200), (4, 0.05, 36, 1600)],
    )
    def test_reference_values(self, m_prime, eps, settings, shots):
        budget = plan_budget(m_prime, eps)
        assert budget.settings == settings
        assert budget.shots_per_setting == shots
        assert budget.total_shots == settings * shots

    def test_halving_epsilon_quadruples_shots(self):
        base = plan_budget(4, 0.2)
        finer = plan_budget(4, 0.1)
        assert finer.shots_per_setting == 4 * base.shots_per_setting
        assert finer.settings == base.settings

    def test_validation(self):
        with pytest.raises(ConfigError):
            plan_budget(0, 0.1)
        with pytest.raises(ConfigError):
            plan_budget(2, 1.5)


class TestCanonicalize:
    def test_first_component_real_positive(self):
        v = canonicalize_phase([1j, 1.0])
        assert v[0].real > 0 and abs(v[0].imag) < 1e-12

    def test_idempotent(self, rng):
        v = random_complex_vector(rng, 5)
        once = canonicalize_phase(v)
        twice = canonicalize_phase(once)
        np.testing.assert_allclose(once, twice, atol=1e-14)

    def test_skips_negligible_leading_entry(self):
        v = canonicalize_phase([1e-15, 1j])
        assert v[1].real == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(TomographyError):
            canonicalize_phase([0.0, 0.0])


class TestReconstruction:
    def test_basis_state(self):
        budget = plan_budget(4, 0.05)
        state, records = reconstruct_pure_state(
            constant_preparer([1.0, 0.0, 0.0, 0.0]), budget, seed=0,
            oracle=[1.0, 0.0, 0.0, 0.0],
        )
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=0.05)
        assert state.fidelity_vs_oracle >= 0.999
        assert records[0].kind == "probability"

    def test_equal_superposition_with_phase(self):
        target = np.array([1.0, 1.0j]) / np.sqrt(2)
        budget = plan_budget(2, 0.05)
        fidelities = []
        for seed in range(20):
            state, _ = reconstruct_pure_state(
                constant_preparer(target), budget, seed=seed, oracle=target
            )
            fidelities.append(state.fidelity_vs_oracle)
        assert np.median(fidelities) >= 0.999
        assert min(fidelities) >= 0.995

    def test_random_states_meet_budget_accuracy(self, rng):
        eps = 0.05
        budget = plan_budget(4, eps)
        hits = 0
        seeds = 40
        for seed in range(seeds):
            target = random_complex_vector(np.random.default_rng(1000 + seed), 4)
            state, _ = reconstruct_pure_state(
                constant_preparer(target), budget, seed=seed, oracle=target
            )
            if state.fidelity_vs_oracle >= 1 - 5 * eps:
                hits += 1
        assert hits >= 0.95 * seeds

    def test_error_decreases_as_epsilon_halves(self):
        rng = np.random.default_rng(77)
        target = random_complex_vector(rng, 4)
        medians = []
        for eps in (0.05, 0.025, 0.0125):
            budget = plan_budget(4, eps)
            infids = []
            for seed in range(30):
                state, _ = reconstruct_pure_state(
                    constant_preparer(target), budget, seed=seed, oracle=target
                )
                infids.append(1 - state.fidelity_vs_oracle)
            medians.append(np.median(infids))
        assert medians[1] <= 2 * medians[0]
        assert medians[2] <= 2 * medians[1]
        assert medians[2] < medians[0]

    def test_weak_reference_rejected(self):
        # a uniform 16-dim state has max amplitude 0.25 < 10 * 0.05
        target = np.ones(16) / 4.0
        budget = plan_budget(16, 0.05)
        with pytest.raises(TomographyError):
            reconstruct_pure_state(constant_preparer(target), budget, seed=0, oracle=target)

    def test_output_is_canonical_unit_norm(self, rng):
        target = random_complex_vector(rng, 3)
        state, _ = reconstruct_pure_state(
            constant_preparer(target), plan_budget(3, 0.05), seed=5, oracle=target
        )
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            state.amplitudes, canonicalize_phase(state.amplitudes), atol=1e-12
        )

    def test_records_account_for_budget(self):
        budget = plan_budget(3, 0.05)
        _, records = reconstruct_pure_state(
            constant_preparer([0.8, 0.6, 0.0]), budget, seed=1, oracle=[0.8, 0.6, 0.0]
        )
        assert sum(r.repetitions for r in records) == budget.settings
        assert sum(r.shots for r in records) == budget.total_shots

    def test_preparer_called_once_per_repetition(self):
        budget = plan_budget(2, 0.05)
        calls = 0

        def preparer():
            nonlocal calls
            calls += 1
            return np.array([1.0, 1.0]) / np.sqrt(2)

        reconstruct_pure_state(preparer, budget, seed=2, oracle=np.array([1.0, 1.0]))
        assert calls == budget.settings
