"""The BLAS-path primitives of ``qfit.sim`` against plain references.

The references are the plain formulas the primitives are defined by:
unoptimized einsums for the basis changes, and sums over clock and flag
at once for the reductions.  The primitives reorder the same arithmetic,
so they must agree to rounding.  These are hypothesis property tests;
the module is skipped where hypothesis is not installed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qfit.exceptions import DimensionError  # noqa: E402
from qfit.linalg import apply_matrix_function, eig_hermitian, embed  # noqa: E402
from qfit.sim import (  # noqa: E402
    MODE_INVERT,
    MODE_MULTIPLY,
    WINDOW_SINE,
    WINDOW_UNIFORM,
    PhaseEstimationConfig,
    QuantumState,
    RegisterLayout,
    apply_hermitian_via_pe,
    clock_window,
    conditional_evolution,
    controlled_rotation,
    default_rotation_scale,
    extract_system_vector,
    measure_computational,
    phase_distance,
    postselect_clock_zero,
    postselect_flag,
    qft_clock,
    reflect_clock_window,
    state_from_system_vector,
    validate_config,
)

from conftest import random_complex_matrix, random_complex_vector  # noqa: E402

CLOCKS = st.sampled_from([2**k for k in range(1, 9)])
TOL = 1e-12


def _ref_conditional_evolution(state, eig, cfg, inverse=False):
    t = state.layout.clock_size
    sign = 1.0 if inverse else -1.0
    phases = np.exp(1j * sign * np.outer(np.arange(t), eig.eigenvalues) * (cfg.t0 / t))
    in_eigen = np.einsum("tdf,dj->tjf", state.amplitudes, eig.eigenvectors.conj())
    in_eigen *= phases[:, :, None]
    new = np.einsum("tjf,dj->tdf", in_eigen, eig.eigenvectors)
    return QuantumState(layout=state.layout, amplitudes=new)


def _ref_extract_system_vector(state):
    collapsed = state.amplitudes.sum(axis=(0, 2))
    norm = np.linalg.norm(collapsed)
    if abs(norm - 1.0) > 1e-6:
        raise DimensionError("state is entangled with clock or flag")
    return collapsed / norm


def _ref_pass(state, op, cfg, eig):
    """``apply_hermitian_via_pe`` composed with the reference primitives."""
    validate_config(cfg, eig.eigenvalues)
    psi_in = _ref_extract_system_vector(state)
    window = clock_window(cfg.clock_size, cfg.window)
    s = reflect_clock_window(state, window)
    s = _ref_conditional_evolution(s, eig, cfg)
    s = qft_clock(s, "forward")
    s = controlled_rotation(s, cfg)
    s = qft_clock(s, "inverse")
    s = _ref_conditional_evolution(s, eig, cfg, inverse=True)
    s = reflect_clock_window(s, window)
    s, flag_prob = postselect_flag(s)
    s, clock_prob = postselect_clock_zero(s)
    out = s.amplitudes[0, :, 1]
    f = (lambda e: e) if cfg.mode == MODE_MULTIPLY else (lambda e: 1.0 / e)
    exact = apply_matrix_function(eig, f, psi_in)
    return out, flag_prob, clock_prob, phase_distance(out, exact / np.linalg.norm(exact))


def _full_state(rng, t, d):
    """Random complex amplitudes on every clock, system and flag index."""
    amp = rng.normal(size=(t, d, 2)) + 1j * rng.normal(size=(t, d, 2))
    return QuantumState(layout=RegisterLayout(clock_size=t, system_dim=d), amplitudes=amp)


def _random_eig(rng, d):
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return eig_hermitian((h + h.conj().T) / 2)


@settings(max_examples=60, deadline=None)
@given(
    t=CLOCKS,
    d=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    t0=st.floats(0.0, 50.0),
    inverse=st.booleans(),
)
def test_conditional_evolution_matches_reference(t, d, seed, t0, inverse):
    rng = np.random.default_rng(seed)
    state = _full_state(rng, t, d)
    eig = _random_eig(rng, d)
    cfg = PhaseEstimationConfig(clock_size=t, t0=t0, rotation_scale=1.0,
                                mode=MODE_MULTIPLY, window=WINDOW_UNIFORM)
    got = conditional_evolution(state, eig, cfg, inverse=inverse).amplitudes
    ref = _ref_conditional_evolution(state, eig, cfg, inverse=inverse).amplitudes
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= TOL


@settings(max_examples=60, deadline=None)
@given(
    t=CLOCKS,
    d=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    shots=st.integers(1, 5000),
)
def test_reductions_match_reference(t, d, seed, shots):
    rng = np.random.default_rng(seed)
    # One populated branch: the clock-first sum adds the same nonzero terms.
    amp = np.zeros((t, d, 2), dtype=complex)
    amp[rng.integers(t), :, rng.integers(2)] = random_complex_vector(rng, d)
    single = QuantumState(layout=RegisterLayout(clock_size=t, system_dim=d), amplitudes=amp)
    np.testing.assert_array_equal(
        extract_system_vector(single), _ref_extract_system_vector(single)
    )
    # Every branch populated: the marginal agrees to rounding, the draw exactly.
    full = _full_state(rng, t, d)
    for state in (single, full):
        marginal = (np.abs(state.amplitudes) ** 2).sum(axis=(0, 2))
        np.testing.assert_array_equal(
            measure_computational(state, shots, seed),
            np.random.default_rng(seed).multinomial(shots, marginal / marginal.sum()),
        )
    with pytest.raises(DimensionError):
        extract_system_vector(full)


@settings(max_examples=40, deadline=None)
@given(
    t=CLOCKS,
    n=st.integers(1, 10),
    m=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    t0_share=st.floats(0.05, 0.99),
    window=st.sampled_from([WINDOW_UNIFORM, WINDOW_SINE]),
    mode=st.sampled_from([MODE_MULTIPLY, MODE_INVERT]),
)
def test_full_pass_matches_reference_composition(t, n, m, seed, t0_share, window, mode):
    rng = np.random.default_rng(seed)
    op = embed(random_complex_matrix(rng, max(n, m), min(n, m), kappa_max=10.0))
    eig = eig_hermitian(op)
    e_max = float(np.max(np.abs(eig.eigenvalues)))
    # t0 below the aliasing limit sigma_max * t0 / (2*pi) < T/2.
    t0 = t0_share * np.pi * t / e_max
    cfg = PhaseEstimationConfig(clock_size=t, t0=t0,
                                rotation_scale=default_rotation_scale(mode, eig.eigenvalues),
                                mode=mode, window=window)
    layout = RegisterLayout(clock_size=t, system_dim=op.dim)
    state = state_from_system_vector(random_complex_vector(rng, op.dim), layout)
    out, info = apply_hermitian_via_pe(state, op, cfg, eig=eig)
    ref_out, ref_flag, ref_clock, ref_distance = _ref_pass(state, op, cfg, eig)
    assert phase_distance(extract_system_vector(out), ref_out) <= TOL
    assert abs(info.flag_probability - ref_flag) <= TOL
    assert abs(info.clock_zero_probability - ref_clock) <= TOL
    assert abs(info.oracle_distance - ref_distance) <= TOL
