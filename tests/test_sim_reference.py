"""The primitives of ``qfit.sim`` against plain references.

The references are the plain formulas the primitives are defined by, on
the (clock, system, flag) axes as written: unoptimized einsums and a
direct ``exp`` phase table for the basis changes, a ``tensordot`` window
overlap, a clock-axis FFT, the rotation and postselection on whole
(T, D) flag slices, and sums over clock and flag at once for the
reductions.  The primitives work on the clock-contiguous transpose and
reorder the same arithmetic, so they must agree to rounding, for input
in either memory order.  The evolution takes its state in H's
eigenbasis, as inside a pass, so it is checked wrapped in the pass's
V^dag ... V; the pass itself is checked against a whole-pass reference
in the system basis, also where eigenspaces are degenerate and their
basis is arbitrary, and against the power-table reference that
``scripts/flag_probability_error.py`` builds from the pass's inputs
alone, with sigma_max on a clock bin, next to one or at a drawn share of
the aliasing limit.  A long-clock pass's probabilities must lie close to
that reference's exactly rounded sums.  On states with one flag slice
exactly zero the reflection, the evolution and the QFT must return that
slice exactly zero and each live slice bit for bit as when the other
slice holds amplitudes, and the rotation must equal its formula bit for
bit.  A state that names its live flags must give every stage the output
bytes of the same state that does not, and every slice outside an
output's live flags must be exactly zero; no stage of a run may scan for
live slices.  A state built with ``live_flags`` None must carry, once
constructed, the flags the scan finds, and no primitive may scan it
again.  The window reflection of a clock-|0> state must equal the
window state a pass writes directly.  A pass must return a unit vector
and leave its input state as it was; at a long clock the reflection and
the evolution must each allocate about one state, a pass must hold no
full-size array it has finished with, and a run no state between its
passes.
The memoized pass constants must give every phase table, read through
the evolution, and every window bit for bit as a build without the
memo, in any order of queries, stay read-only, and be built once per
distinct operator of a run.  Most are
hypothesis property tests; the module is skipped where hypothesis is not
installed.
"""

import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import qfit.algorithms  # noqa: E402
import qfit.sim  # noqa: E402
from qfit.algorithms import (  # noqa: E402
    VARIANT_FUSED,
    VARIANT_THREE_STAGE,
    RunSettings,
    estimate_fit_quality,
    learn_sparse_fit,
)
from qfit.exceptions import DimensionError  # noqa: E402
from qfit.linalg import (  # noqa: E402
    EigDecomposition,
    apply_matrix_function,
    eig_hermitian,
    embed,
)
from qfit.problems import ProblemSpec, generate_problem  # noqa: E402
from qfit.sim import (  # noqa: E402
    MODE_INVERT,
    MODE_MULTIPLY,
    WINDOW_SINE,
    WINDOW_UNIFORM,
    PhaseEstimationConfig,
    QuantumState,
    RegisterLayout,
    SwapTestPlan,
    _pass_constants,
    _rotated_flag_one,
    _windowed_state,
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
    rotation_weights,
    state_from_system_vector,
    uncompute_clock,
    validate_config,
)

from conftest import _haar, random_complex_matrix, random_complex_vector  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from flag_probability_error import pass_reference, recording  # noqa: E402

CLOCKS = st.sampled_from([2**k for k in range(1, 9)])
ORDERS = st.sampled_from(["C", "F"])
TOL = 1e-12
# Relative distance of a reported flag probability from an exactly rounded sum.
FSUM_TOL = 5e-13


def _direct_phases(eigenvalues, cfg, inverse):
    """The (T, D) phase table from one float64 ``exp`` per entry."""
    t = cfg.clock_size
    sign = 1.0 if inverse else -1.0
    return np.exp(1j * sign * np.outer(np.arange(t), eigenvalues) * (cfg.t0 / t))


def _ref_reflect_clock_window(state, window):
    v = window.astype(complex)
    v[0] -= 1.0
    vnorm_sq = float(np.vdot(v, v).real)
    amp = state.amplitudes
    overlap = np.tensordot(v.conj(), amp, axes=([0], [0]))
    new = amp - (2.0 / vnorm_sq) * v[:, None, None] * overlap[None, :, :]
    return QuantumState(layout=state.layout, amplitudes=new)


def _ref_conditional_evolution(state, eig, cfg, inverse=False, phases=None):
    if phases is None:
        phases = _direct_phases(eig.eigenvalues, cfg, inverse)
    in_eigen = np.einsum("tdf,dj->tjf", state.amplitudes, eig.eigenvectors.conj())
    in_eigen *= phases[:, :, None]
    new = np.einsum("tjf,dj->tdf", in_eigen, eig.eigenvectors)
    return QuantumState(layout=state.layout, amplitudes=new)


def _change_basis(state, matrix, order="C"):
    """``state`` with ``matrix`` applied to its system register."""
    amp = np.einsum("dj,tjf->tdf", matrix, state.amplitudes)
    return QuantumState(layout=state.layout, amplitudes=np.asarray(amp, order=order))


def _evolve_in_system_basis(state, eig, cfg, inverse=False, order="C"):
    """``conditional_evolution`` wrapped in the V^dag ... V of the pass.

    Returns the system-basis result and the library's eigenbasis one.
    """
    vecs = eig.eigenvectors
    out = conditional_evolution(_change_basis(state, vecs.conj().T, order), eig, cfg,
                                inverse=inverse)
    return _change_basis(out, vecs), out


def _ref_qft_clock(state, direction):
    transform = np.fft.ifft if direction == "forward" else np.fft.fft
    new = transform(state.amplitudes, axis=0, norm="ortho")
    return QuantumState(layout=state.layout, amplitudes=new)


def _ref_controlled_rotation(state, cfg):
    w = rotation_weights(cfg)[:, None]
    c = np.sqrt(1.0 - w**2)
    amp = state.amplitudes
    new = np.empty_like(amp)
    new[:, :, 0] = c * amp[:, :, 0] - w * amp[:, :, 1]
    new[:, :, 1] = w * amp[:, :, 0] + c * amp[:, :, 1]
    return QuantumState(layout=state.layout, amplitudes=new)


def _ref_postselect_flag(state):
    branch = state.amplitudes[:, :, 1]
    prob = float(np.vdot(branch, branch).real)
    new = np.zeros_like(state.amplitudes)
    new[:, :, 1] = branch / np.sqrt(prob)
    return QuantumState(layout=state.layout, amplitudes=new), prob


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
    s = _ref_reflect_clock_window(state, window)
    s = _ref_conditional_evolution(s, eig, cfg)
    s = _ref_qft_clock(s, "forward")
    s = _ref_controlled_rotation(s, cfg)
    s = _ref_qft_clock(s, "inverse")
    s = _ref_conditional_evolution(s, eig, cfg, inverse=True)
    s = _ref_reflect_clock_window(s, window)
    s, flag_prob = _ref_postselect_flag(s)
    row = s.amplitudes[0, :, 1]
    clock_prob = float(np.vdot(row, row).real)
    out = row / np.sqrt(clock_prob)
    f = (lambda e: e) if cfg.mode == MODE_MULTIPLY else (lambda e: 1.0 / e)
    exact = apply_matrix_function(eig, f, psi_in)
    return out, flag_prob, clock_prob, phase_distance(out, exact / np.linalg.norm(exact))


def _full_state(rng, t, d, order="C"):
    """Random complex amplitudes on every clock, system and flag index."""
    amp = rng.normal(size=(t, d, 2)) + 1j * rng.normal(size=(t, d, 2))
    return QuantumState(layout=RegisterLayout(clock_size=t, system_dim=d),
                        amplitudes=np.asarray(amp, order=order))


def _fsum_prob(state):
    """Flag-1 probability as ``math.fsum`` of the squared real and imaginary parts."""
    branch = state.amplitudes[:, :, 1].ravel()
    return math.fsum(branch.real**2) + math.fsum(branch.imag**2)


def _clock_contiguous(state):
    return state.amplitudes.T.flags.c_contiguous


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
    order=ORDERS,
)
def test_conditional_evolution_matches_reference(t, d, seed, t0, inverse, order):
    rng = np.random.default_rng(seed)
    state = _full_state(rng, t, d, order)
    eig = _random_eig(rng, d)
    cfg = PhaseEstimationConfig(clock_size=t, t0=t0, rotation_scale=1.0,
                                mode=MODE_MULTIPLY, window=WINDOW_UNIFORM)
    out, in_eigen = _evolve_in_system_basis(state, eig, cfg, inverse=inverse, order=order)
    ref = _ref_conditional_evolution(state, eig, cfg, inverse=inverse).amplitudes
    assert out.amplitudes.shape == ref.shape
    assert np.max(np.abs(out.amplitudes - ref)) <= TOL
    assert _clock_contiguous(in_eigen)


@settings(max_examples=60, deadline=None)
@given(
    t=CLOCKS,
    d=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    window=st.sampled_from([WINDOW_UNIFORM, WINDOW_SINE]),
    order=ORDERS,
)
def test_reflection_and_qft_match_reference(t, d, seed, window, order):
    rng = np.random.default_rng(seed)
    state = _full_state(rng, t, d, order)
    out = reflect_clock_window(state, clock_window(t, window))
    ref = _ref_reflect_clock_window(state, clock_window(t, window)).amplitudes
    assert np.max(np.abs(out.amplitudes - ref)) <= TOL
    assert _clock_contiguous(out)
    for direction in ("forward", "inverse"):
        out = qft_clock(state, direction)
        ref = _ref_qft_clock(state, direction).amplitudes
        assert np.max(np.abs(out.amplitudes - ref)) <= TOL
        assert _clock_contiguous(out)


@settings(max_examples=60, deadline=None)
@given(
    t=CLOCKS,
    d=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    t0=st.floats(0.1, 50.0),
    scale=st.floats(0.01, 1.0),
    mode=st.sampled_from([MODE_MULTIPLY, MODE_INVERT]),
    order=ORDERS,
)
def test_rotation_and_flag_postselection_match_reference(t, d, seed, t0, scale, mode,
                                                         order):
    rng = np.random.default_rng(seed)
    state = _full_state(rng, t, d, order)
    cfg = PhaseEstimationConfig(clock_size=t, t0=t0, rotation_scale=scale, mode=mode)
    out = controlled_rotation(state, cfg)
    ref = _ref_controlled_rotation(state, cfg).amplitudes
    assert np.max(np.abs(out.amplitudes - ref)) <= TOL
    assert _clock_contiguous(out)

    selected, prob = postselect_flag(state)
    ref_selected, ref_prob = _ref_postselect_flag(state)
    assert abs(prob - ref_prob) <= TOL * ref_prob
    assert np.max(np.abs(selected.amplitudes - ref_selected.amplitudes)) <= TOL
    # Summed over the clock-contiguous flag-1 slice, close to an exactly
    # rounded sum, and the same number for either input layout.
    assert _clock_contiguous(selected)
    assert abs(prob - _fsum_prob(state)) <= FSUM_TOL * prob
    other = "F" if order == "C" else "C"
    relaid = QuantumState(layout=state.layout,
                          amplitudes=np.asarray(state.amplitudes, order=other))
    other_selected, other_prob = postselect_flag(relaid)
    assert other_prob == prob
    np.testing.assert_array_equal(other_selected.amplitudes, selected.amplitudes)


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
    vector = extract_system_vector(single)
    probs = np.abs(vector) ** 2
    np.testing.assert_array_equal(
        measure_computational(vector, shots, seed),
        np.random.default_rng(seed).multinomial(shots, probs / probs.sum()),
    )
    # 0.505 * psi on clock rows 0 and 1: its clock sum has norm 1.01.
    spread = np.zeros((t, d, 2), dtype=complex)
    spread[:2, :, 0] = 0.505 * vector
    for entangled in (_full_state(rng, t, d),
                      QuantumState(layout=single.layout, amplitudes=spread)):
        with pytest.raises(DimensionError):
            extract_system_vector(entangled)


# How t0 places sigma_max: at a drawn share of the aliasing limit T/2, on
# the nearest bin below it, as automatic t0 does, or next to that bin.
T0_KINDS = st.sampled_from(["share", "on-bin", "next-to-bin"])


def _drawn_t0(kind, share, t, e_max):
    """t0 with sigma_max * t0 / (2*pi) below the aliasing limit T/2."""
    if kind == "share":
        return share * np.pi * t / e_max
    bins = min(max(round(share * t / 2), 1), t // 2 - 1)
    assume(bins >= 1)  # T = 2 has no bin below the limit
    t0 = 2.0 * np.pi * bins / e_max
    return t0 if kind == "on-bin" else t0 * (1 + 1e-9)


def _assert_matches_table_reference(out, info, psi, eig, cfg):
    """A pass's output and probabilities against those of its power table."""
    ref_out, ref_flag, ref_clock = pass_reference(psi, eig, cfg)
    assert np.linalg.norm(out - ref_out) <= TOL
    assert abs(info.flag_probability - ref_flag) <= TOL
    assert abs(info.clock_zero_probability - ref_clock) <= TOL


@settings(max_examples=40, deadline=None)
@given(
    t=CLOCKS,
    n=st.integers(1, 10),
    m=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    t0_share=st.floats(0.05, 0.99),
    t0_kind=T0_KINDS,
    window=st.sampled_from([WINDOW_UNIFORM, WINDOW_SINE]),
    mode=st.sampled_from([MODE_MULTIPLY, MODE_INVERT]),
)
def test_full_pass_matches_reference_composition(t, n, m, seed, t0_share, t0_kind, window,
                                                 mode):
    rng = np.random.default_rng(seed)
    op = embed(random_complex_matrix(rng, max(n, m), min(n, m), kappa_max=10.0))
    eig = eig_hermitian(op)
    e_max = float(np.max(np.abs(eig.eigenvalues)))
    cfg = PhaseEstimationConfig(clock_size=t, t0=_drawn_t0(t0_kind, t0_share, t, e_max),
                                rotation_scale=default_rotation_scale(mode, eig.eigenvalues),
                                mode=mode, window=window)
    layout = RegisterLayout(clock_size=t, system_dim=op.dim)
    psi = random_complex_vector(rng, op.dim)
    state = state_from_system_vector(psi, layout)
    held = state.amplitudes.tobytes()
    out, info = apply_hermitian_via_pe(state, eig, cfg)
    assert state.amplitudes.tobytes() == held
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-14
    ref_out, ref_flag, ref_clock, ref_distance = _ref_pass(state, op, cfg, eig)
    assert phase_distance(out, ref_out) <= TOL
    assert abs(info.flag_probability - ref_flag) <= TOL
    assert abs(info.clock_zero_probability - ref_clock) <= TOL
    assert abs(info.oracle_distance - ref_distance) <= TOL
    _assert_matches_table_reference(out, info, psi, eig, cfg)


def _mixed_within_eigenspaces(rng, eig):
    """``eig`` with the basis of each eigenspace turned by a random unitary."""
    vecs = eig.eigenvectors.copy()
    edges = np.flatnonzero(np.diff(eig.eigenvalues) > 1e-9) + 1
    for group in np.split(np.arange(eig.eigenvalues.size), edges):
        vecs[:, group] = vecs[:, group] @ _haar(rng, group.size)
    return EigDecomposition(eigenvalues=eig.eigenvalues, eigenvectors=vecs)


@settings(max_examples=40, deadline=None)
@given(
    t=CLOCKS,
    n=st.integers(2, 10),
    m=st.integers(2, 10),
    levels=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    t0_share=st.floats(0.05, 0.99),
    t0_kind=T0_KINDS,
    window=st.sampled_from([WINDOW_UNIFORM, WINDOW_SINE]),
    mode=st.sampled_from([MODE_MULTIPLY, MODE_INVERT]),
)
def test_eigenbasis_pass_matches_reference_on_repeated_singular_values(
        t, n, m, levels, seed, t0_share, t0_kind, window, mode):
    # Repeated singular values of F give eigenspaces of H of dimension
    # two or more, where the eigenbasis is arbitrary; so is the kernel.
    rng = np.random.default_rng(seed)
    rows, cols = max(n, m), min(n, m)
    values = 10.0 ** rng.uniform(-1.0, 0.0, size=min(levels, cols - 1))
    sigma = np.sort(values[np.arange(cols) % values.size])[::-1]
    f = (_haar(rng, rows)[:, :cols] * sigma) @ _haar(rng, cols).conj().T
    op = embed(f)
    eig = eig_hermitian(op)
    e_max = float(np.max(np.abs(eig.eigenvalues)))
    cfg = PhaseEstimationConfig(clock_size=t, t0=_drawn_t0(t0_kind, t0_share, t, e_max),
                                rotation_scale=default_rotation_scale(mode, eig.eigenvalues),
                                mode=mode, window=window)
    layout = RegisterLayout(clock_size=t, system_dim=op.dim)
    psi = random_complex_vector(rng, op.dim)
    state = state_from_system_vector(psi, layout)
    ref_out, ref_flag, ref_clock, ref_distance = _ref_pass(state, op, cfg, eig)
    for basis in (eig, _mixed_within_eigenspaces(rng, eig)):
        out, info = apply_hermitian_via_pe(state, basis, cfg)
        assert phase_distance(out, ref_out) <= TOL
        assert abs(info.flag_probability - ref_flag) <= TOL
        assert abs(info.clock_zero_probability - ref_clock) <= TOL
        assert abs(info.oracle_distance - ref_distance) <= TOL
        _assert_matches_table_reference(out, info, psi, basis, cfg)


@settings(max_examples=60, deadline=None)
@given(
    t=CLOCKS,
    d=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    window=st.sampled_from([WINDOW_UNIFORM, WINDOW_SINE]),
    order=ORDERS,
)
def test_window_reflection_of_clock_zero_is_the_window(t, d, seed, window, order):
    # A pass writes its first state as window (x) v on flag 0 instead of
    # reflecting clock |0>; the two must agree.
    v = random_complex_vector(np.random.default_rng(seed), d)
    layout = RegisterLayout(clock_size=t, system_dim=d)
    amp = np.zeros((t, d, 2), dtype=complex, order=order)
    amp[0, :, 0] = v
    vec = clock_window(t, window)
    expected = np.outer(vec, v)
    out = reflect_clock_window(QuantumState(layout=layout, amplitudes=amp), vec).amplitudes
    assert np.max(np.abs(out[:, :, 0] - expected)) <= TOL
    assert not out[:, :, 1].any()
    written = _windowed_state(v, vec, layout)
    np.testing.assert_array_equal(written.amplitudes[:, :, 0], expected)
    assert not written.amplitudes[:, :, 1].any()
    assert _clock_contiguous(written)


# --- zero flag slices ------------------------------------------------------------

FLAG_SETS = st.sampled_from([(0,), (1,), (0, 1)])


def _flag_state(rng, t, d, live, order, hole):
    """Random amplitudes on the flags in ``live``, exact zeros on the other.

    With ``hole`` every flag is zero at clock 0, so a live slice looks
    like a zero one there.
    """
    amp = np.zeros((t, d, 2), dtype=complex)
    for f in live:
        amp[:, :, f] = rng.normal(size=(t, d)) + 1j * rng.normal(size=(t, d))
    if hole:
        amp[0] = 0
    return QuantumState(layout=RegisterLayout(clock_size=t, system_dim=d),
                        amplitudes=np.asarray(amp, order=order))


def _with_other_slice(rng, state, f):
    """``state`` with the slice of the flag other than ``f`` made fresh random."""
    amp = state.amplitudes.copy(order="K")
    t, d = amp.shape[:2]
    amp[:, :, 1 - f] = rng.normal(size=(t, d)) + 1j * rng.normal(size=(t, d))
    return QuantumState(layout=state.layout, amplitudes=amp)


@settings(max_examples=60, deadline=None)
@given(
    t=CLOCKS,
    d=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    t0=st.floats(0.0, 50.0),
    window=st.sampled_from([WINDOW_UNIFORM, WINDOW_SINE]),
    live=FLAG_SETS,
    hole=st.booleans(),
    order=ORDERS,
)
def test_flag_blind_stages_skip_zero_slices(t, d, seed, t0, window, live, hole, order):
    rng = np.random.default_rng(seed)
    state = _flag_state(rng, t, d, live, order, hole)
    eig = _random_eig(rng, d)
    cfg = PhaseEstimationConfig(clock_size=t, t0=t0, rotation_scale=1.0,
                                mode=MODE_MULTIPLY, window=window)
    vec = clock_window(t, window)
    stages = [
        (lambda s: reflect_clock_window(s, vec), lambda s: _ref_reflect_clock_window(s, vec)),
        (lambda s: _evolve_in_system_basis(s, eig, cfg, order=order)[0],
         lambda s: _ref_conditional_evolution(s, eig, cfg)),
        (lambda s: _evolve_in_system_basis(s, eig, cfg, inverse=True, order=order)[0],
         lambda s: _ref_conditional_evolution(s, eig, cfg, inverse=True)),
        (lambda s: qft_clock(s, "forward"), lambda s: _ref_qft_clock(s, "forward")),
        (lambda s: qft_clock(s, "inverse"), lambda s: _ref_qft_clock(s, "inverse")),
    ]
    for stage, ref_stage in stages:
        out = stage(state).amplitudes
        ref = ref_stage(state).amplitudes
        for f in range(2):
            if f not in live:
                assert not out[:, :, f].any()
                continue
            assert np.max(np.abs(out[:, :, f] - ref[:, :, f])) <= TOL
            # Whatever the other slice holds, zero or not, this one is
            # computed by the same arithmetic.
            other = stage(_with_other_slice(rng, state, f)).amplitudes
            np.testing.assert_array_equal(other[:, :, f], out[:, :, f])


@settings(max_examples=60, deadline=None)
@given(
    t=CLOCKS,
    d=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    t0=st.floats(0.1, 50.0),
    scale=st.floats(0.01, 1.0),
    mode=st.sampled_from([MODE_MULTIPLY, MODE_INVERT]),
    live=FLAG_SETS,
    hole=st.booleans(),
    order=ORDERS,
)
def test_rotation_drops_only_the_terms_of_zero_slices(t, d, seed, t0, scale, mode, live,
                                                     hole, order):
    rng = np.random.default_rng(seed)
    state = _flag_state(rng, t, d, live, order, hole)
    cfg = PhaseEstimationConfig(clock_size=t, t0=t0, rotation_scale=scale, mode=mode)
    np.testing.assert_array_equal(controlled_rotation(state, cfg).amplitudes,
                                  _ref_controlled_rotation(state, cfg).amplitudes)


def _known(state, live):
    """``state`` naming ``live`` as its live flags."""
    return QuantumState(layout=state.layout, amplitudes=state.amplitudes, live_flags=live)


def _assert_dead_slices_zero(state):
    assert state.live_flags is not None
    for f in range(2):
        if f not in state.live_flags:
            assert not state.amplitudes[:, :, f].any()


@settings(max_examples=60, deadline=None)
@given(
    t=CLOCKS,
    d=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    t0=st.floats(0.1, 50.0),
    scale=st.floats(0.01, 1.0),
    mode=st.sampled_from([MODE_MULTIPLY, MODE_INVERT]),
    window=st.sampled_from([WINDOW_UNIFORM, WINDOW_SINE]),
    live=FLAG_SETS,
    hole=st.booleans(),
    order=ORDERS,
)
def test_known_live_flags_change_no_output_byte(t, d, seed, t0, scale, mode, window, live,
                                                hole, order):
    # A state that names its live flags is not scanned; its outputs must
    # be byte for byte those of the same state with live_flags None, and
    # every slice an output leaves out of its live_flags exactly zero.
    rng = np.random.default_rng(seed)
    state = _flag_state(rng, t, d, live, order, hole)
    eig = _random_eig(rng, d)
    cfg = PhaseEstimationConfig(clock_size=t, t0=t0, rotation_scale=scale, mode=mode,
                                window=window)
    vec = clock_window(t, window)
    stages = [
        lambda s: reflect_clock_window(s, vec),
        lambda s: conditional_evolution(s, eig, cfg),
        lambda s: conditional_evolution(s, eig, cfg, inverse=True),
        lambda s: qft_clock(s, "forward"),
        lambda s: qft_clock(s, "inverse"),
        lambda s: controlled_rotation(s, cfg),
        lambda s: _rotated_flag_one(s, cfg),
        lambda s: uncompute_clock(s, eig, cfg),
    ]
    if 1 in live:
        stages.append(lambda s: postselect_flag(s)[0])
    if not hole:
        stages.append(lambda s: postselect_clock_zero(s)[0])
    for stage in stages:
        out = stage(_known(state, live))
        unknown = stage(state)
        assert out.amplitudes.tobytes(order="A") == unknown.amplitudes.tobytes(order="A")
        assert out.amplitudes.strides == unknown.amplitudes.strides
        _assert_dead_slices_zero(out)

    written = _windowed_state(random_complex_vector(rng, d), vec, state.layout)
    assert written.live_flags == (0,)
    _assert_dead_slices_zero(written)

    # A clock-|0> state with one live flag: the system vector from that
    # slice alone is the whole-state sum, signed zeros included, also for
    # a system row of -0.0 on every clock step.
    amp = np.zeros((t, d, 2), dtype=complex, order=order)
    flag = live[0]
    amp[0, :, flag] = random_complex_vector(rng, d)
    if d > 1:
        amp[:, 0, flag] = complex(-0.0, -0.0)
        amp[0, :, flag] /= np.linalg.norm(amp[0, :, flag])
    single = QuantumState(layout=state.layout, amplitudes=amp)
    vector = extract_system_vector(single)
    assert extract_system_vector(_known(single, (flag,))).tobytes() == vector.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    t=CLOCKS,
    d=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    live=FLAG_SETS,
    hole=st.booleans(),
    order=ORDERS,
)
def test_state_built_elsewhere_knows_its_live_flags(t, d, seed, live, hole, order):
    # A state built with live_flags None is scanned once, at construction,
    # and carries the flags the scan finds, also where clock 0 is zero.
    state = _flag_state(np.random.default_rng(seed), t, d, live, order, hole)
    assert state.live_flags == tuple(qfit.sim._live_flags(state.amplitudes.T)) == live
    zero = QuantumState(layout=state.layout,
                        amplitudes=np.zeros((t, d, 2), dtype=complex, order=order))
    assert zero.live_flags == ()


@pytest.mark.parametrize("order", ["C", "F"])
def test_primitives_read_the_flags_found_at_construction(order, monkeypatch):
    # Once built, a state built elsewhere is never scanned again: every
    # primitive runs on it with the scan made to fail.
    rng = np.random.default_rng(7)
    t, d = 16, 3
    state = _flag_state(rng, t, d, (0, 1), order, hole=False)
    amp = np.zeros((t, d, 2), dtype=complex, order=order)
    amp[0, :, 1] = random_complex_vector(rng, d)
    definite = QuantumState(layout=state.layout, amplitudes=amp)
    assert definite.live_flags == (1,)
    eig = _random_eig(rng, d)
    cfg = PhaseEstimationConfig(clock_size=t, t0=2.0, rotation_scale=0.5, mode=MODE_MULTIPLY,
                                window=WINDOW_SINE)
    vec = clock_window(t, WINDOW_SINE)

    def scan(amp_t):
        raise AssertionError("a primitive scanned for live flag slices")

    monkeypatch.setattr(qfit.sim, "_live_flags", scan)
    stages = [
        lambda s: reflect_clock_window(s, vec),
        lambda s: conditional_evolution(s, eig, cfg),
        lambda s: conditional_evolution(s, eig, cfg, inverse=True),
        lambda s: qft_clock(s, "forward"),
        lambda s: qft_clock(s, "inverse"),
        lambda s: controlled_rotation(s, cfg),
        lambda s: postselect_flag(s)[0],
        lambda s: postselect_clock_zero(s)[0],
        lambda s: uncompute_clock(s, eig, cfg),
    ]
    for stage in stages:
        _assert_dead_slices_zero(stage(state))
    np.testing.assert_allclose(extract_system_vector(definite), amp[0, :, 1],
                               rtol=1e-15, atol=0)


def test_passes_scan_no_flag_slice(monkeypatch):
    # Every state of a pass is built by qfit.sim and names its live flags,
    # so no stage may fall back to scanning for them.
    def scan(amp_t):
        raise AssertionError("a stage scanned for live flag slices")

    monkeypatch.setattr(qfit.sim, "_live_flags", scan)
    problem = generate_problem(
        ProblemSpec(n=12, m=6, kind="random", planted_support=(1, 4), planted_mass=0.95),
        seed=21,
    )
    plan = SwapTestPlan(shots=100, seed=0)
    for variant in (VARIANT_FUSED, VARIANT_THREE_STAGE):
        run_settings = RunSettings(clock_size=256, window=WINDOW_SINE, variant=variant)
        estimate_fit_quality(problem, run_settings, plan)
    learn_sparse_fit(problem, 2, RunSettings(clock_size=256), plan, seed=0)


# --- the phase table -------------------------------------------------------------

LONG_CLOCK, LONG_DIM = 65536, 8


def _long_clock_config(eigenvalues):
    """T = 65536 with the largest argument just below the aliasing limit pi*T."""
    t0 = 0.99 * np.pi * LONG_CLOCK / float(np.max(np.abs(eigenvalues)))
    return PhaseEstimationConfig(clock_size=LONG_CLOCK, t0=t0, rotation_scale=1.0,
                                 mode=MODE_MULTIPLY)


def _evolution_table(eigenvalues, cfg, inverse):
    """The (D, T) phase table: ``conditional_evolution`` of 1 in every flag-0 amplitude.

    With identity eigenvectors the eigenbasis is the system basis, so each
    output row is that eigenvalue's row of phases.
    """
    d, t = len(eigenvalues), cfg.clock_size
    amp = np.zeros((t, d, 2), dtype=complex, order="F")
    amp[:, :, 0] = 1.0
    state = QuantumState(layout=RegisterLayout(clock_size=t, system_dim=d), amplitudes=amp,
                         live_flags=(0,))
    eig = EigDecomposition(eigenvalues=np.asarray(eigenvalues),
                           eigenvectors=np.eye(d, dtype=complex))
    return conditional_evolution(state, eig, cfg, inverse=inverse).amplitudes.T[0]


@settings(max_examples=60, deadline=None)
@given(
    t=st.sampled_from([2**k for k in range(1, 17)]),
    d=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    t0=st.floats(0.0, 1e5),
)
def test_inverse_table_is_the_exact_conjugate(t, d, seed, t0):
    eigenvalues = np.random.default_rng(seed).uniform(-1.0, 1.0, size=d)
    cfg = PhaseEstimationConfig(clock_size=t, t0=t0, rotation_scale=1.0, mode=MODE_MULTIPLY)
    forward = _evolution_table(eigenvalues, cfg, inverse=False)
    assert forward.shape == (d, t)
    np.testing.assert_array_equal(_evolution_table(eigenvalues, cfg, inverse=True),
                                  forward.conj())


def _unmemoized_table(eigenvalues, cfg, inverse):
    """The phase table as ``conditional_evolution`` forms it, without the memo."""
    t = cfg.clock_size
    b = 1 << ((t.bit_length() - 1) // 2)
    step = np.asarray(eigenvalues, dtype=np.longdouble)[:, None] * (cfg.t0 / t)
    two_pi = 2 * np.arccos(np.longdouble(-1))

    def phases(theta):
        theta = theta - two_pi * np.round(theta / two_pi)
        return np.exp(1j * theta.astype(float))

    high, low = phases(step * (b * np.arange(t // b))), phases(step * np.arange(b))
    if not inverse:
        high, low = high.conj(), low.conj()
    return (high[:, :, None] * low[:, None, :]).reshape(len(step), t)


QUERY = st.tuples(
    st.integers(0, 2),  # spectrum
    st.sampled_from([2**k for k in range(1, 13)]),
    st.integers(0, 1),  # t0
    st.booleans(),  # inverse
    st.sampled_from([WINDOW_UNIFORM, WINDOW_SINE]),
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), queries=st.lists(QUERY, min_size=1, max_size=12))
def test_memoized_tables_and_windows_match_unmemoized_builds(seed, queries):
    rng = np.random.default_rng(seed)
    spectra = [rng.uniform(-3.0, 3.0, size=d) for d in rng.integers(1, 17, size=3)]
    t0s = rng.uniform(0.0, 50.0, size=2)
    for spectrum, t, t0, inverse, window in queries:
        cfg = PhaseEstimationConfig(clock_size=t, t0=float(t0s[t0]), rotation_scale=1.0,
                                    mode=MODE_MULTIPLY, window=window)
        eigenvalues = spectra[spectrum]
        np.testing.assert_array_equal(_evolution_table(eigenvalues, cfg, inverse),
                                      _unmemoized_table(eigenvalues, cfg, inverse))
        np.testing.assert_array_equal(_pass_constants(eigenvalues, cfg)[2],
                                      clock_window(t, window))


def test_memoized_constants_are_read_only():
    cfg = PhaseEstimationConfig(clock_size=64, t0=1.0, rotation_scale=1.0,
                                mode=MODE_MULTIPLY, window=WINDOW_SINE)
    for array in _pass_constants(np.array([-1.0, 0.5]), cfg):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def _builds(run):
    """How often ``run()`` builds the pass constants, from an empty memo."""
    build = qfit.sim._build_pass_constants
    build.cache_clear()
    run()
    return build.cache_info().misses


def test_constants_are_built_once_per_operator_of_a_run():
    problem = generate_problem(
        ProblemSpec(n=12, m=6, kind="random", planted_support=(1, 4), planted_mass=0.95),
        seed=21,
    )
    run_settings = RunSettings(clock_size=256, window=WINDOW_SINE)
    plan = SwapTestPlan(shots=100, seed=0)
    assert _builds(lambda: estimate_fit_quality(problem, run_settings, plan)) == 1
    assert _builds(lambda: learn_sparse_fit(problem, 2, run_settings, plan, seed=0)) == 2


def test_inverse_evolution_undoes_forward_at_long_clock():
    rng = np.random.default_rng(5)
    eig = _random_eig(rng, LONG_DIM)
    cfg = _long_clock_config(eig.eigenvalues)
    state = _full_state(rng, LONG_CLOCK, LONG_DIM, "F")
    there = conditional_evolution(state, eig, cfg)
    back = conditional_evolution(there, eig, cfg, inverse=True)
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= TOL
    # The same phases through the plain einsums give the same state.
    phases = _evolution_table(eig.eigenvalues, cfg, inverse=False).T
    ref = _ref_conditional_evolution(state, eig, cfg, phases=phases).amplitudes
    out = _evolve_in_system_basis(state, eig, cfg, order="F")[0]
    assert np.max(np.abs(out.amplitudes - ref)) <= TOL


def _long_clock_run(variant):
    """The benchmark's fourth run-long-clock input problem and its settings."""
    problem = generate_problem(ProblemSpec(n=6, m=2, condition_target=4.0), seed=1112017889)
    return problem, RunSettings(clock_size=LONG_CLOCK, window=WINDOW_SINE,
                                variant=variant, epsilon=5e-4)


def test_flag_probability_is_close_to_an_exactly_rounded_sum(monkeypatch):
    # The projection pass of a long-clock run on the problem of the
    # benchmark's fourth run-long-clock input: the clock is almost back at
    # |0>, and one sequential sum over the strided flag-1 elements of a
    # C-ordered (T, D, 2) array ends 2e-12 relative off here.  The exactly
    # rounded reference is built from the pass's inputs alone.
    problem, run_settings = _long_clock_run(VARIANT_FUSED)
    passes = []
    monkeypatch.setattr(qfit.algorithms, "apply_hermitian_via_pe",
                        recording(apply_hermitian_via_pe, passes))
    estimate_fit_quality(problem, run_settings, SwapTestPlan(shots=1))
    assert len(passes) == 2
    psi, eig, cfg, _, info = passes[-1]
    _, ref_flag, ref_clock = pass_reference(psi, eig, cfg)
    assert abs(info.flag_probability - ref_flag) <= FSUM_TOL * ref_flag
    assert abs(info.clock_zero_probability - ref_clock) <= FSUM_TOL * ref_clock


def _max_error(table, exact):
    re, im = exact
    return float(np.max(np.hypot((table.real - re).astype(float),
                                 (table.imag - im).astype(float))))


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("seed", range(5))
def test_table_error_is_no_larger_than_direct_exp(seed):
    eigenvalues = np.sort(np.random.default_rng(seed).uniform(-1.0, 1.0, size=LONG_DIM))
    cfg = _long_clock_config(eigenvalues)
    tau = np.arange(LONG_CLOCK, dtype=np.longdouble)
    step = np.asarray(eigenvalues, dtype=np.longdouble) * np.longdouble(cfg.t0) / LONG_CLOCK
    theta = step[:, None] * tau
    cos, sin = np.cos(theta), np.sin(theta)
    for inverse in (False, True):
        exact = (cos, sin if inverse else -sin)
        table_error = _max_error(_evolution_table(eigenvalues, cfg, inverse), exact)
        direct_error = _max_error(_direct_phases(eigenvalues, cfg, inverse).T, exact)
        assert table_error <= direct_error
        # Long-double arguments: far below one float64 rounding of pi*T.
        assert table_error <= 1e-13


def test_reflection_allocates_one_state():
    rng = np.random.default_rng(9)
    state = _full_state(rng, LONG_CLOCK, LONG_DIM, "F")
    window = clock_window(LONG_CLOCK, WINDOW_SINE)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = reflect_clock_window(state, window)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert _clock_contiguous(out)
    assert peak < 1.25 * state.amplitudes.nbytes


def test_evolution_allocates_one_state():
    # Each row block writes its phase rows into its output rows: no D x T
    # table beside the output.
    rng = np.random.default_rng(9)
    state = _full_state(rng, LONG_CLOCK, LONG_DIM, "F")
    eig = _random_eig(rng, LONG_DIM)
    cfg = _long_clock_config(eig.eigenvalues)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = conditional_evolution(state, eig, cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert _clock_contiguous(out)
    assert peak < 1.25 * state.amplitudes.nbytes


def test_pass_keeps_no_dead_full_size_array():
    # A T = 65536, D = 8 pass holds at most two states at once, a stage's
    # input and its output: the stage calls nest, so each intermediate
    # state dies when the stage reading it returns, and uncompute_clock
    # drops the kept branch after its inverse QFT.  So the pass peaks at
    # about 2.2 states.  An array the pass has finished with but still
    # references adds a whole state to that.  CPython 3.10 holds a call's
    # arguments until the call returns, so there the kept branch lives
    # through the whole uncompute and the pass peaks at about 3.2 states.
    rng = np.random.default_rng(13)
    op = embed(random_complex_matrix(rng, 6, 2, kappa_max=4.0))
    eig = eig_hermitian(op)
    cfg = PhaseEstimationConfig(
        clock_size=LONG_CLOCK,
        t0=0.5 * np.pi * LONG_CLOCK / float(np.max(np.abs(eig.eigenvalues))),
        rotation_scale=default_rotation_scale(MODE_MULTIPLY, eig.eigenvalues),
        mode=MODE_MULTIPLY, window=WINDOW_SINE)
    layout = RegisterLayout(clock_size=LONG_CLOCK, system_dim=LONG_DIM)
    state = state_from_system_vector(random_complex_vector(rng, LONG_DIM), layout)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        apply_hermitian_via_pe(state, eig, cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    bound = 2.4 if sys.version_info >= (3, 11) else 3.4
    assert peak < bound * state.amplitudes.nbytes, peak / state.amplitudes.nbytes


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 holds a call's arguments until the call returns")
def test_passes_hand_on_vectors_and_hold_no_dead_state():
    # A long-clock run holds only system vectors between its passes, and
    # each pass frees the input state built for it before its stages
    # allocate, so the run peaks where one pass does: at a stage holding
    # its input and its output, about 2.2 states.  Any state a caller or a
    # stage keeps alive through a later stage adds a whole one.
    state_bytes = LONG_CLOCK * LONG_DIM * 2 * np.dtype(complex).itemsize
    for variant in (VARIANT_FUSED, VARIANT_THREE_STAGE):
        problem, run_settings = _long_clock_run(variant)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            estimate_fit_quality(problem, run_settings, SwapTestPlan(shots=1))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2.4 * state_bytes, (variant, peak / state_bytes)
