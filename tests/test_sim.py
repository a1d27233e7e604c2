"""Simulator primitives: clock windows, evolution, QFT, rotation, sampling."""

import numpy as np
import pytest

from qfit.exceptions import ConfigError, DimensionError, PostselectionError
from qfit.linalg import eig_hermitian, embed
from qfit.problems import normalize_problem
from qfit.sim import (
    MODE_INVERT,
    MODE_MULTIPLY,
    WINDOW_SINE,
    WINDOW_UNIFORM,
    PhaseEstimationConfig,
    RegisterLayout,
    SwapTestPlan,
    apply_hermitian_via_pe,
    clock_window,
    conditional_evolution,
    controlled_rotation,
    data_state_vector,
    decode_eigenvalue,
    exact_overlap_sq,
    measure_computational,
    phase_distance,
    postselect_clock_zero,
    postselect_flag,
    prepare_data_state,
    qft_clock,
    reflect_clock_window,
    rotation_weights,
    state_from_system_vector,
    swap_test,
    uncompute_clock,
    validate_config,
)

from conftest import commensurate_problem, random_complex_vector

PAULI_X = embed([[1.0]])  # [[0, 1], [1, 0]]


def _force_amp(layout, amp):
    from qfit.sim import QuantumState

    return QuantumState(layout=layout, amplitudes=amp)


def _in_eigenbasis(eig, vector, layout):
    """Clock-and-flag-fresh state of ``vector``'s coordinates in ``eig``'s eigenbasis.

    The evolution and the uncomputation take the system register in H's
    eigenbasis, as ``apply_hermitian_via_pe`` holds it inside a pass.
    """
    return state_from_system_vector(eig.eigenvectors.conj().T @ vector, layout)


def _clock_zero_weight(state):
    """Probability weight of the clock |0> branch (1 - leakage)."""
    branch = state.amplitudes[0]
    return float(np.vdot(branch, branch).real) / state.norm_sq()


def config(T=8, t0=4 * np.pi, C=1.0, mode=MODE_MULTIPLY, window=WINDOW_UNIFORM):
    return PhaseEstimationConfig(
        clock_size=T, t0=t0, rotation_scale=C, mode=mode, window=window
    )


class TestLayoutAndPreparation:
    def test_data_state_placement_first_index(self):
        prob = normalize_problem([[1.0], [0.5]], [1.0, 0.0])  # M=1, N=2
        state = prepare_data_state(prob, RegisterLayout(clock_size=4, system_dim=3))
        np.testing.assert_allclose(state.amplitudes[0, :, 0], [0, 1, 0])

    def test_data_state_placement_second_index(self):
        prob = normalize_problem([[1.0], [0.5]], [0.0, 1.0])
        state = prepare_data_state(prob, RegisterLayout(clock_size=4, system_dim=3))
        np.testing.assert_allclose(state.amplitudes[0, :, 0], [0, 0, 1])

    def test_data_state_two_parameter_sectors(self):
        prob = normalize_problem(np.eye(2), np.array([1.0, 1.0]) / np.sqrt(2))
        state = prepare_data_state(prob, RegisterLayout(clock_size=2, system_dim=4))
        np.testing.assert_allclose(
            state.amplitudes[0, :, 0], [0, 0, 1 / np.sqrt(2), 1 / np.sqrt(2)]
        )

    def test_prepared_states_are_clock_contiguous(self):
        prob = normalize_problem([[1.0], [0.5]], [1.0, 0.0])
        layout = RegisterLayout(clock_size=4, system_dim=3)
        for state in (prepare_data_state(prob, layout),
                      state_from_system_vector([0.0, 1.0, 0.0], layout)):
            assert state.amplitudes.shape == (4, 3, 2)
            assert state.amplitudes.T.flags.c_contiguous

    def test_layout_validation(self):
        with pytest.raises(ConfigError):
            RegisterLayout(clock_size=3, system_dim=2)
        with pytest.raises(ConfigError):
            RegisterLayout(clock_size=1, system_dim=2)
        with pytest.raises(DimensionError):
            RegisterLayout(clock_size=1 << 21, system_dim=64)


class TestClockWindows:
    def test_sine_t2(self):
        np.testing.assert_allclose(
            clock_window(2, WINDOW_SINE), [np.sin(np.pi / 4), np.sin(3 * np.pi / 4)]
        )
        np.testing.assert_allclose(clock_window(2, WINDOW_SINE), [0.70711, 0.70711], atol=5e-6)

    def test_sine_t4(self):
        tau = np.arange(4)
        expected = np.sqrt(0.5) * np.sin(np.pi * (tau + 0.5) / 4)
        np.testing.assert_allclose(clock_window(4, WINDOW_SINE), expected)

    @pytest.mark.parametrize("t", [2, 4, 8, 64, 1024])
    def test_sine_normalized(self, t):
        assert np.sum(clock_window(t, WINDOW_SINE) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_sine_rejects_t1(self):
        with pytest.raises(ConfigError):
            clock_window(1, WINDOW_SINE)

    def test_uniform_normalized(self):
        assert np.sum(clock_window(8, WINDOW_UNIFORM) ** 2) == pytest.approx(1.0)

    @pytest.mark.parametrize("window", [WINDOW_SINE, WINDOW_UNIFORM])
    def test_reflection_prepares_and_inverts(self, rng, window):
        layout = RegisterLayout(clock_size=8, system_dim=3)
        state = state_from_system_vector(random_complex_vector(rng, 3), layout)
        w = clock_window(8, window)
        prepared = reflect_clock_window(state, w)
        # clock now carries the window on every populated system component
        np.testing.assert_allclose(
            prepared.amplitudes[:, :, 0], np.outer(w, state.amplitudes[0, :, 0]), atol=1e-12
        )
        assert prepared.norm_sq() == pytest.approx(1.0, abs=1e-12)
        restored = reflect_clock_window(prepared, w)
        np.testing.assert_allclose(restored.amplitudes, state.amplitudes, atol=1e-12)


class TestConditionalEvolution:
    def test_zero_time_is_identity(self, rng):
        layout = RegisterLayout(clock_size=4, system_dim=2)
        state = _force_amp(layout, _random_amp(rng, layout))
        out = conditional_evolution(state, eig_hermitian(PAULI_X), config(T=4, t0=0.0))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_zero_hamiltonian_is_identity(self, rng):
        layout = RegisterLayout(clock_size=4, system_dim=4)
        state = _force_amp(layout, _random_amp(rng, layout))
        eig = eig_hermitian(embed(np.zeros((2, 2))))
        out = conditional_evolution(state, eig, config(T=4, t0=7.7))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_eigenvector_accumulates_clock_phase(self):
        layout = RegisterLayout(clock_size=8, system_dim=2)
        eigvec = np.array([1.0, 1.0]) / np.sqrt(2)  # eigenvalue +1 of PAULI_X
        eig = eig_hermitian(PAULI_X)
        state = _in_eigenbasis(eig, eigvec, layout)
        spread = reflect_clock_window(state, clock_window(8, WINDOW_UNIFORM))
        cfg = config()
        out = conditional_evolution(spread, eig, cfg)
        tau = np.arange(8)
        expected = np.exp(-1j * tau * cfg.t0 / 8) / np.sqrt(8)
        np.testing.assert_allclose(
            out.amplitudes[:, :, 0] @ eig.eigenvectors.T, np.outer(expected, eigvec),
            atol=1e-12,
        )

    def test_unitary(self, rng):
        layout = RegisterLayout(clock_size=8, system_dim=3)
        state = _force_amp(layout, _random_amp(rng, layout))
        eig = eig_hermitian(embed([[1.0], [0.3]]))
        out = conditional_evolution(state, eig, config(t0=3.21))
        assert out.norm_sq() == pytest.approx(state.norm_sq(), abs=1e-10)

    def test_inverse_undoes(self, rng):
        layout = RegisterLayout(clock_size=8, system_dim=3)
        state = _force_amp(layout, _random_amp(rng, layout))
        eig = eig_hermitian(embed([[1.0], [0.3]]))
        cfg = config(t0=3.21)
        back = conditional_evolution(
            conditional_evolution(state, eig, cfg), eig, cfg, inverse=True
        )
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)


class TestQftClock:
    def test_uniform_to_delta(self):
        layout = RegisterLayout(clock_size=4, system_dim=1)
        state = state_from_system_vector([1.0], layout)
        state = reflect_clock_window(state, clock_window(4, WINDOW_UNIFORM))
        out = qft_clock(state, "forward")
        probs = np.abs(out.amplitudes[:, 0, 0]) ** 2
        np.testing.assert_allclose(probs, [1, 0, 0, 0], atol=1e-12)

    def test_delta_to_uniform(self):
        layout = RegisterLayout(clock_size=4, system_dim=1)
        state = state_from_system_vector([1.0], layout)  # delta at tau=0
        out = qft_clock(state, "forward")
        np.testing.assert_allclose(np.abs(out.amplitudes[:, 0, 0]), 0.5, atol=1e-12)

    def test_roundtrip(self, rng):
        layout = RegisterLayout(clock_size=16, system_dim=2)
        state = _force_amp(layout, _random_amp(rng, layout))
        back = qft_clock(qft_clock(state, "forward"), "inverse")
        assert np.linalg.norm(back.amplitudes - state.amplitudes) <= 1e-12

    def test_bad_direction(self):
        layout = RegisterLayout(clock_size=4, system_dim=1)
        with pytest.raises(ConfigError):
            qft_clock(state_from_system_vector([1.0], layout), "sideways")


class TestDecodeEigenvalue:
    def test_positive_bin(self):
        assert decode_eigenvalue(2, 8, 4 * np.pi) == pytest.approx(1.0)

    def test_wrapped_negative_bin(self):
        assert decode_eigenvalue(6, 8, 4 * np.pi) == pytest.approx(-1.0)

    def test_zero_bin(self):
        assert decode_eigenvalue(0, 1024, 17.3) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            decode_eigenvalue(8, 8, 1.0)
        with pytest.raises(ConfigError):
            decode_eigenvalue(0, 8, 0.0)


class TestControlledRotation:
    def test_multiply_weight(self):
        # bin k=2 decodes to 1.0 under (T=8, t0=4*pi)
        layout = RegisterLayout(clock_size=8, system_dim=1)
        amp = np.zeros((8, 1, 2), dtype=complex)
        amp[2, 0, 0] = 1.0
        out = controlled_rotation(_force_amp(layout, amp), config(C=0.5))
        assert out.amplitudes[2, 0, 0] == pytest.approx(np.sqrt(0.75))
        assert out.amplitudes[2, 0, 1] == pytest.approx(0.5)

    def test_invert_weight(self):
        # bin k=1 decodes to 0.5; C/E = 0.25/0.5 = 0.5
        layout = RegisterLayout(clock_size=8, system_dim=1)
        amp = np.zeros((8, 1, 2), dtype=complex)
        amp[1, 0, 0] = 1.0
        out = controlled_rotation(
            _force_amp(layout, amp), config(C=0.25, mode=MODE_INVERT)
        )
        assert out.amplitudes[1, 0, 1] == pytest.approx(0.5)

    def test_invert_zero_bin_projected_out(self):
        weights = rotation_weights(config(C=0.25, mode=MODE_INVERT))
        assert weights[0] == 0.0

    def test_unitary(self, rng):
        layout = RegisterLayout(clock_size=8, system_dim=2)
        state = _force_amp(layout, _random_amp(rng, layout))
        out = controlled_rotation(state, config(C=0.3, mode=MODE_INVERT))
        assert out.norm_sq() == pytest.approx(state.norm_sq(), abs=1e-10)


class TestPostselection:
    def test_certain_branch(self):
        layout = RegisterLayout(clock_size=2, system_dim=1)
        amp = np.zeros((2, 1, 2), dtype=complex)
        amp[0, 0, 1] = 1.0
        state, prob = postselect_flag(_force_amp(layout, amp))
        assert prob == pytest.approx(1.0)
        np.testing.assert_allclose(state.amplitudes, amp)

    def test_quarter_branch(self, rng):
        layout = RegisterLayout(clock_size=2, system_dim=2)
        sys = random_complex_vector(rng, 2)
        amp = np.zeros((2, 2, 2), dtype=complex)
        amp[0, :, 0] = np.sqrt(0.75) * sys
        amp[0, :, 1] = 0.5 * sys
        state, prob = postselect_flag(_force_amp(layout, amp))
        assert prob == pytest.approx(0.25)
        assert state.norm_sq() == pytest.approx(1.0)

    def test_empty_branch(self):
        layout = RegisterLayout(clock_size=2, system_dim=1)
        amp = np.zeros((2, 1, 2), dtype=complex)
        amp[0, 0, 0] = 1.0
        with pytest.raises(PostselectionError):
            postselect_flag(_force_amp(layout, amp))

    def test_nan_branch_rejected(self):
        layout = RegisterLayout(clock_size=2, system_dim=1)
        amp = np.zeros((2, 1, 2), dtype=complex)
        amp[0, 0, :] = np.nan
        with pytest.raises(PostselectionError):
            postselect_flag(_force_amp(layout, amp))
        with pytest.raises(PostselectionError):
            postselect_clock_zero(_force_amp(layout, amp))

    def test_clock_zero(self, rng):
        layout = RegisterLayout(clock_size=4, system_dim=2)
        state = _force_amp(layout, _random_amp(rng, layout))
        out, prob = postselect_clock_zero(state)
        assert prob == pytest.approx(_clock_zero_weight(state))
        assert out.norm_sq() == pytest.approx(1.0)


class TestUncompute:
    def test_zero_time_roundtrip(self, rng):
        # prep -> QFT -> inverse QFT -> unprep restores the clock when t0 = 0
        layout = RegisterLayout(clock_size=8, system_dim=2)
        state = state_from_system_vector(random_complex_vector(rng, 2), layout)
        cfg = config(t0=0.0, window=WINDOW_SINE)
        eig = eig_hermitian(PAULI_X)
        s = reflect_clock_window(state, clock_window(8, WINDOW_SINE))
        s = conditional_evolution(s, eig, cfg)
        s = qft_clock(s, "forward")
        s = uncompute_clock(s, eig, cfg)
        np.testing.assert_allclose(s.amplitudes, state.amplitudes, atol=1e-12)

    def test_commensurate_disentangles(self, rng):
        prob, t0 = commensurate_problem(rng, 4, 2)
        op = embed(prob.design_matrix)
        eig = eig_hermitian(op)
        layout = RegisterLayout(clock_size=64, system_dim=op.dim)
        state = _in_eigenbasis(eig, data_state_vector(prob), layout)
        cfg = config(T=64, t0=t0, C=0.5, mode=MODE_MULTIPLY)
        s = reflect_clock_window(state, clock_window(64, WINDOW_UNIFORM))
        s = conditional_evolution(s, eig, cfg)
        s = qft_clock(s, "forward")
        s = controlled_rotation(s, cfg)
        s = uncompute_clock(s, eig, cfg)
        assert 1.0 - _clock_zero_weight(s) <= 1e-10

    def test_generic_residual_shrinks_with_clock(self, rng):
        # clock leakage shrinks as T and t0 double together
        f = np.array([[0.9], [0.31]])
        prob = normalize_problem(f, random_complex_vector(rng, 2))
        op = embed(prob.design_matrix)
        eig = eig_hermitian(op)
        residuals = []
        for octave, T in enumerate((64, 128, 256)):
            layout = RegisterLayout(clock_size=T, system_dim=op.dim)
            cfg = config(T=T, t0=8.0 * 2**octave, C=0.5, window=WINDOW_SINE)
            s = _in_eigenbasis(eig, data_state_vector(prob), layout)
            s = reflect_clock_window(s, clock_window(T, WINDOW_SINE))
            s = conditional_evolution(s, eig, cfg)
            s = qft_clock(s, "forward")
            s = controlled_rotation(s, cfg)
            s = uncompute_clock(s, eig, cfg)
            s, _ = postselect_flag(s)
            residuals.append(1.0 - _clock_zero_weight(s))
        assert residuals[1] <= 2 * residuals[0]
        assert residuals[2] <= 2 * residuals[1]
        assert residuals[2] < residuals[0]


class TestConfigValidation:
    def test_aliasing_rejected(self):
        cfg = config(T=8, t0=100.0)
        with pytest.raises(ConfigError):
            validate_config(cfg, [1.0, -1.0])

    def test_multiply_scale_bound(self):
        cfg = config(C=1.5, mode=MODE_MULTIPLY)
        with pytest.raises(ConfigError):
            validate_config(cfg, [1.0, -1.0])

    def test_invert_scale_bound(self):
        cfg = config(C=0.9, mode=MODE_INVERT)
        with pytest.raises(ConfigError):
            validate_config(cfg, [0.5, 1.0, -1.0])

    def test_valid_passes(self):
        validate_config(config(C=1.0), [1.0, -1.0, 0.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_t0_and_scale_rejected(self, value):
        with pytest.raises(ConfigError, match="t0 must be finite"):
            config(t0=value)
        with pytest.raises(ConfigError, match="C must be finite"):
            config(C=value)


class TestFullPass:
    def test_multiply_on_data_state(self):
        # H = [[0,1],[1,0]], psi = (0,1): H psi = (1,0); success prob C^2
        prob = normalize_problem([[1.0]], [1.0])
        layout = RegisterLayout(clock_size=8, system_dim=2)
        state = prepare_data_state(prob, layout)
        out, info = apply_hermitian_via_pe(state, eig_hermitian(PAULI_X), config(C=0.5))
        np.testing.assert_allclose(np.abs(out), [1.0, 0.0], atol=1e-10)
        assert info.flag_probability == pytest.approx(0.25, abs=1e-10)
        assert info.clock_zero_probability == pytest.approx(1.0, abs=1e-12)
        assert info.oracle_distance <= 1e-10

    def test_invert_reverses_multiply(self):
        layout = RegisterLayout(clock_size=8, system_dim=2)
        state = state_from_system_vector([1.0, 0.0], layout)
        out, info = apply_hermitian_via_pe(
            state, eig_hermitian(PAULI_X), config(C=1.0, mode=MODE_INVERT)
        )
        np.testing.assert_allclose(np.abs(out), [0.0, 1.0], atol=1e-10)
        assert info.flag_probability == pytest.approx(1.0, abs=1e-10)

    def test_eigenvector_passthrough(self, rng):
        prob, t0 = commensurate_problem(rng, 3, 2)
        op = embed(prob.design_matrix)
        eig = eig_hermitian(op)
        idx = int(np.argmax(eig.eigenvalues))
        energy = eig.eigenvalues[idx]
        layout = RegisterLayout(clock_size=64, system_dim=op.dim)
        state = state_from_system_vector(eig.eigenvectors[:, idx], layout)
        cfg = config(T=64, t0=t0, C=0.7)
        out, info = apply_hermitian_via_pe(state, eig, cfg)
        assert exact_overlap_sq(out, eig.eigenvectors[:, idx]) == pytest.approx(1.0, abs=1e-10)
        assert info.flag_probability == pytest.approx((0.7 * energy) ** 2, abs=1e-10)

    def test_kernel_input_has_no_flag_branch_to_invert(self):
        # A kernel vector of H lands wholly on bin 0, whose invert-mode
        # weight is 0, so the pass's flag-1 branch is exactly zero.
        op = embed(np.array([[1.0], [0.0]]))
        layout = RegisterLayout(clock_size=16, system_dim=3)
        state = state_from_system_vector([0.0, 0.0, 1.0], layout)
        with pytest.raises(PostselectionError, match="flag=1"):
            apply_hermitian_via_pe(
                state, eig_hermitian(op), config(T=16, C=1.0, mode=MODE_INVERT)
            )

    def test_oracle_equivalence_commensurate(self, rng):
        for _ in range(5):
            prob, t0 = commensurate_problem(rng, 4, 3)
            op = embed(prob.design_matrix)
            eig = eig_hermitian(op)
            layout = RegisterLayout(clock_size=64, system_dim=op.dim)
            state = prepare_data_state(prob, layout)
            for mode in (MODE_MULTIPLY, MODE_INVERT):
                cfg = config(T=64, t0=t0, C=0.2, mode=mode)
                out, info = apply_hermitian_via_pe(state, eig, cfg)
                assert info.oracle_distance <= 1e-8

    def test_eigenstate_clock_delta(self, rng):
        # commensurate eigenvector concentrates the clock in one bin
        prob, t0 = commensurate_problem(rng, 3, 2)
        op = embed(prob.design_matrix)
        eig = eig_hermitian(op)
        idx = int(np.argmax(eig.eigenvalues))
        layout = RegisterLayout(clock_size=64, system_dim=op.dim)
        cfg = config(T=64, t0=t0)
        s = _in_eigenbasis(eig, eig.eigenvectors[:, idx], layout)
        s = reflect_clock_window(s, clock_window(64, WINDOW_UNIFORM))
        s = conditional_evolution(s, eig, cfg)
        s = qft_clock(s, "forward")
        probs = (np.abs(s.amplitudes[:, :, 0]) ** 2).sum(axis=1)
        k_star = int(np.argmax(probs))
        assert probs[k_star] == pytest.approx(1.0, abs=1e-10)
        assert decode_eigenvalue(k_star, 64, t0) == pytest.approx(
            eig.eigenvalues[idx], abs=1e-9
        )

    def test_modal_bin_within_resolution(self, rng):
        # generic t0: the modal bin decodes within 2*pi/t0 of the eigenvalue
        op = embed([[0.83]])
        eig = eig_hermitian(op)
        layout = RegisterLayout(clock_size=64, system_dim=2)
        t0 = 23.7
        cfg = config(T=64, t0=t0, window=WINDOW_SINE)
        s = _in_eigenbasis(eig, eig.eigenvectors[:, 1], layout)
        s = reflect_clock_window(s, clock_window(64, WINDOW_SINE))
        s = conditional_evolution(s, eig, cfg)
        s = qft_clock(s, "forward")
        probs = (np.abs(s.amplitudes[:, :, 0]) ** 2).sum(axis=1)
        k_star = int(np.argmax(probs))
        assert abs(decode_eigenvalue(k_star, 64, t0) - eig.eigenvalues[1]) <= 2 * np.pi / t0

    def test_postselection_bands(self, rng):
        # inputs supported on nonzero eigenspace, commensurate bins
        for _ in range(5):
            prob, t0 = commensurate_problem(rng, 4, 3)
            op = embed(prob.design_matrix)
            eig = eig_hermitian(op)
            sigma = np.linalg.svd(prob.design_matrix, compute_uv=False)
            nonzero = np.abs(eig.eigenvalues) > 1e-12
            basis = eig.eigenvectors[:, nonzero]
            coeff = random_complex_vector(rng, basis.shape[1])
            psi = basis @ coeff
            layout = RegisterLayout(clock_size=64, system_dim=op.dim)
            state = state_from_system_vector(psi, layout)
            c = 0.5 * sigma[-1]
            for mode, lo, hi in (
                (MODE_MULTIPLY, (c * sigma[-1]) ** 2, (c * sigma[0]) ** 2),
                (MODE_INVERT, (c / sigma[0]) ** 2, (c / sigma[-1]) ** 2),
            ):
                cfg = config(T=64, t0=t0, C=c, mode=mode)
                _, info = apply_hermitian_via_pe(state, eig, cfg)
                assert lo - 1e-8 <= info.flag_probability <= hi + 1e-8

    def test_unitarity_through_pipeline(self, rng):
        prob, t0 = commensurate_problem(rng, 3, 2)
        op = embed(prob.design_matrix)
        eig = eig_hermitian(op)
        layout = RegisterLayout(clock_size=64, system_dim=op.dim)
        cfg = config(T=64, t0=t0, C=0.4, window=WINDOW_SINE)
        s = _in_eigenbasis(eig, data_state_vector(prob), layout)
        for step in (
            lambda st: reflect_clock_window(st, clock_window(64, WINDOW_SINE)),
            lambda st: conditional_evolution(st, eig, cfg),
            lambda st: qft_clock(st, "forward"),
            lambda st: controlled_rotation(st, cfg),
            lambda st: uncompute_clock(st, eig, cfg),
        ):
            s = step(s)
            assert s.norm_sq() == pytest.approx(1.0, abs=1e-10)


class TestSwapTest:
    def test_identical_states(self, rng):
        a = random_complex_vector(rng, 4)
        result = swap_test(a, a, SwapTestPlan(shots=500, seed=1))
        assert result.ones_observed == 0
        assert result.overlap_sq_estimate == pytest.approx(1.0)

    def test_orthogonal_states(self):
        result = swap_test([1, 0], [0, 1], SwapTestPlan(shots=20000, seed=2))
        assert result.p_one_estimate == pytest.approx(0.5, abs=0.02)
        assert 0.0 <= result.overlap_sq_estimate <= 1.0  # clamped

    def test_half_overlap_probability(self):
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 1.0]) / np.sqrt(2)  # |<a|b>|^2 = 0.5
        result = swap_test(a, b, SwapTestPlan(shots=40000, seed=3))
        assert result.p_one_estimate == pytest.approx(0.25, abs=0.02)
        assert result.overlap_sq_estimate == pytest.approx(0.5, abs=0.04)

    def test_zero_shots_rejected(self):
        with pytest.raises(ConfigError):
            SwapTestPlan(shots=0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            swap_test([1, 0], [1, 0, 0], SwapTestPlan(shots=1))

    def test_estimator_statistics(self, rng):
        # unbiased at mid-range overlap, std error ~ 1/sqrt(shots)
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 1.0]) / np.sqrt(2)
        estimates = [
            swap_test(a, b, SwapTestPlan(shots=10000, seed=int(s))).overlap_sq_estimate
            for s in rng.integers(0, 2**31, size=200)
        ]
        assert np.mean(estimates) == pytest.approx(0.5, abs=0.005)
        assert np.std(estimates) == pytest.approx(2 * np.sqrt(0.25 * 0.75 / 10000), rel=0.2)

    def test_seeded_reproducibility(self):
        a, b = [1, 0], np.array([1, 1]) / np.sqrt(2)
        r1 = swap_test(a, b, SwapTestPlan(shots=1000, seed=11))
        r2 = swap_test(a, b, SwapTestPlan(shots=1000, seed=11))
        assert r1 == r2


class TestMeasureComputational:
    def test_basis_state(self):
        counts = measure_computational([0.0, 1.0, 0.0], shots=50, seed=0)
        np.testing.assert_array_equal(counts, [0, 50, 0])

    def test_uniform_within_5_sigma(self):
        shots = 10000
        counts = measure_computational(np.ones(2) / np.sqrt(2), shots=shots, seed=1)
        sigma = np.sqrt(shots * 0.25)
        assert abs(counts[0] - shots / 2) <= 5 * sigma

    def test_seeded(self):
        v = np.array([0.6, 0.8])
        a = measure_computational(v, shots=100, seed=5)
        b = measure_computational(v, shots=100, seed=5)
        np.testing.assert_array_equal(a, b)


def _random_amp(rng, layout):
    amp = rng.normal(size=(layout.clock_size, layout.system_dim, 2)) + 1j * rng.normal(
        size=(layout.clock_size, layout.system_dim, 2)
    )
    return amp / np.linalg.norm(amp)


def test_phase_distance_invariant_to_global_phase(rng):
    v = random_complex_vector(rng, 5)
    assert phase_distance(v, np.exp(0.7j) * v) <= 1e-12

