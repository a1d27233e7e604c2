"""Dense state-vector simulator for the eigenvalue-arithmetic pipeline.

Registers and layout
--------------------
A simulator state spans three registers, stored as a complex array of
shape (T, D, 2):

* clock: T basis states (T a power of two >= 2), axis 0.  Before the
  Fourier transform the index is the time step tau; after it, the
  frequency bin k.
* system: D = M + N basis states, axis 1.  Indices 0..M-1 are the
  parameter sector, M..M+N-1 the data sector (matching ``linalg.embed``).
* flag: a single qubit, axis 2, used by the eigenvalue-controlled
  rotation.

Conventions
-----------
* Conditional evolution applies exp(-i * H * tau * t0 / T) on the clock
  branch tau, exactly, as one phase per eigenvalue of H (see
  "Eigenbasis").
* The forward clock Fourier transform uses the kernel
  exp(+2*pi*i*k*tau/T)/sqrt(T).
* Frequency bins decode to signed eigenvalue estimates: bins k >= T/2
  wrap to k - T, so the Hermitian embedding's negative eigenvalues
  decode unambiguously provided sigma_max * t0 / (2*pi) < T/2 (the
  anti-aliasing bound enforced on every config).
* Clock windows: "uniform" (amplitude 1/sqrt(T) everywhere) makes phase
  estimation exact whenever every populated eigenvalue satisfies
  E * t0 / (2*pi) integral; "sine" (amplitude
  sqrt(2/T)*sin(pi*(tau+1/2)/T)) trades that exactness for much faster
  tail decay on incommensurate spectra.  Window preparation and its
  adjoint are one self-inverse reflection exchanging clock state |0> and
  the window vector, so both directions are exactly unitary.  A pass
  writes the image of clock |0>, the window itself, directly.

Eigenbasis
----------
Between passes only the system register carries information, in the
basis above, so a pass returns the unit system vector.  It takes a state
only for perfbench's pass hook and releases it once it has read psi and
the layout: from CPython 3.11, which moves a call's arguments into the
callee, a temporary input state dies before the pass allocates.  Inside
a pass the system register is held in H's eigenbasis: every stage but
the two evolutions acts only on the clock and the flag, so the whole
pass commutes with the change of basis.  The pass maps psi into the
eigenbasis once (V^dag psi, one D x D product), runs every stage on
those coordinates and maps the surviving clock-0, flag-1 row back once
(V times that row).  There the evolutions are diagonal phase products;
``conditional_evolution`` and ``uncompute_clock`` take their state's
system register in that basis.

Memory order
------------
States are allocated clock-contiguous (``order="F"``): ``amplitudes.T``
is a C-contiguous (flag, system, clock) array.  Every stage of a pass
acts along the clock axis, so each primitive works on ``amplitudes.T``
and returns ``result.T``, which is clock-contiguous again: the window
reflection, the evolution's phase product, the QFT, the flag rotation
and the flag postselection stream whole clock rows.  The primitives
accept either layout.

One helper, ``_written_state``, writes every state whose clock rows a
stage writes whole: it allocates the output, zeroes its dead flag slices
(see "Flag slices"), splits the live ones into row blocks (see
"Threads") and wraps the result.  It allocates the output before the
clock-length arrays the stage builds for its write (the rotation
weights, the reflection's conjugated window): built first, such arrays
can take heap room a freed state left and push the output above it,
which added 1 MB to the peak resident memory of four T = 65536 runs.

Flag slices
-----------
Only the flag rotation acts on the flag, and every other stage
transforms the two flag slices ``amplitudes.T[0]`` and
``amplitudes.T[1]`` independently.  So a slice that is exactly zero
stays exactly zero: the reflection, the evolution and the QFT compute
only the slices that hold a nonzero amplitude and write exact zeros into
the other, and the rotation drops the terms of a zero flag-1 input.
Skipping a zero slice changes no bit of the live one.

Every state names its live slices in ``QuantumState.live_flags``, so no
stage scans a slice to learn that it is zero.  Every state built here
sets it: the input state and the window state hold flag 0, the rotated
flag-1 output and the flag postselection flag 1, the rotation both; the
other stages pass on their input's.  A state built elsewhere with
``live_flags`` None is scanned once, when it is constructed
(``_live_flags``).  ``extract_system_vector`` adds up the clock sums of
the live slices only.

A pass builds only the branch it keeps.  It starts flag-|0>, so it
writes its first state as window (x) V^dag psi on flag 0, and its
forward half runs on flag 0 alone.  It keeps only the flag-1 branch, and
projecting onto it commutes with the uncomputation, which does not touch
the flag; so of the rotation it writes only the flag-1 output, w_k times
the flag-0 slice, and its backward half runs on flag 1 alone.  It then
reads the flag probability from the flag-1 slice and the clock-zero
probability from that slice's clock-0 row, where they lie.

Pass constants
--------------
Every pass of one run shares H's spectrum, T, t0 and the window, so the
constants built from them are built once per run: the long-double-reduced
phase factors of ``_phase_table`` and the clock window.  One memo entry
holds them, keyed on the spectrum's exact bytes, T, t0 and the window
name, and returns them read-only.  It keeps only the factors, never a
D x T table, so no full-clock array outlives the call that forms it; and
a single entry keyed on the spectrum is hit only by passes over the same
operator.

Threads
-------
Every stage acts on each system row of a flag slice on its own, so
``_written_state`` has ``_by_rows`` split the D rows of each live slice
into one block per CPU.  A block computes exactly what the unsplit call
computes for its rows, and the phase table, the window overlaps and
every sum stay on the calling thread, so no bit depends on the CPU
count.  Blocks hold at least 2**17 amplitudes: on a 2-CPU host two threads took
an 8 x 65536 inverse QFT from 9.8 to 5.1 ms, but a pass at D = 64,
T = 1024 was no faster split (5.8-6.0 ms against 5.9-6.4 ms).

Every operation is pure: states are treated as immutable and new arrays
are returned.  Only postselection is non-unitary; it reports the exact
branch probability instead of sampling.  Physical sampling happens only
where statistics are the point: the swap test and computational-basis
measurement.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DimensionError, PostselectionError
from .linalg import (
    EigDecomposition,
    apply_matrix_function,
    as_complex_vector,
    nonzero_extent,
)
from .problems import FitProblem

DEFAULT_AMPLITUDE_CAP = 1 << 22

WINDOW_UNIFORM = "uniform"
WINDOW_SINE = "sine"

MODE_MULTIPLY = "multiply"
MODE_INVERT = "invert"

# Slack for validating rotation-scale bounds against the spectrum.
_C_BOUND_SLACK = 1e-9

# 2*pi to long-double precision, for reducing phase-table arguments.
_TWO_PI = 2 * np.arccos(np.longdouble(-1))

_MIN_BLOCK = 1 << 17  # fewest amplitudes (2 MiB) per row block; see "Threads"


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _live_flags(amp_t: np.ndarray) -> list[int]:
    """Flags whose slice of a (flag, system, clock) array holds a nonzero amplitude."""
    return [f for f in range(amp_t.shape[0]) if amp_t[f].any()]


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity (macOS, Windows)
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=1)
def _row_pool(pid: int):
    """Threads of ``_by_rows``, one pool per process: a forked child has none of ours."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(thread_name_prefix="qfit-rows")


def _by_rows(fn, rows: int, cols: int) -> None:
    """Call ``fn(block)`` on row blocks covering a (rows, cols) slice, one per CPU.

    Blocks hold at least ``_MIN_BLOCK`` amplitudes; with one block, only
    ``fn(slice(None))`` runs.  The caller runs the first block and the pool
    the rest; all finish, and the first exception in block order is raised.
    """
    most = rows // -(-_MIN_BLOCK // cols)  # blocks that hold _MIN_BLOCK; no CPU count below 2
    if most < 2 or (blocks := min(_cpu_count(), most)) < 2:
        fn(slice(None))
        return
    edges = [rows * i // blocks for i in range(blocks + 1)]
    pool = _row_pool(os.getpid())
    futures = [pool.submit(fn, slice(a, b)) for a, b in zip(edges[1:-1], edges[2:])]
    try:
        fn(slice(0, edges[1]))
    finally:
        for future in futures:
            future.exception()  # waits, also when the first block raised
    for future in futures:
        future.result()


def _written_state(layout: RegisterLayout, live: tuple[int, ...], write,
                   operands=tuple) -> QuantumState:
    """A new state on ``layout`` whose live flag slices ``write`` fills.

    Allocates the clock-contiguous output, zeroes the flag slices not in
    ``live``, builds ``operands()``, and runs ``write(f, rows, out,
    *operands)`` on the row blocks of each live slice ``out[f]``
    (``_by_rows``).  Clock-length arrays a stage builds only for its write
    belong in ``operands``, which are allocated after the output (see
    "Memory order").
    """
    out = np.empty((2, layout.system_dim, layout.clock_size), dtype=complex)
    for f in range(2):
        if f not in live:
            out[f] = 0
    extra = operands()
    for f in live:
        _by_rows(lambda r: write(f, r, out, *extra), layout.system_dim, layout.clock_size)
    return QuantumState(layout=layout, amplitudes=out.T, live_flags=live)


def _branch_probability(branch: np.ndarray, name: str) -> float:
    """|branch|^2 of a postselected branch; ``PostselectionError`` if it is 0 or NaN."""
    prob = float(np.vdot(branch, branch).real)
    if not prob > 1e-300:  # also catches NaN
        raise PostselectionError(f"{name} branch has zero probability")
    return prob


@dataclass(frozen=True)
class RegisterLayout:
    clock_size: int
    system_dim: int

    def __post_init__(self):
        if not _is_power_of_two(self.clock_size) or self.clock_size < 2:
            raise ConfigError(f"clock size {self.clock_size} must be a power of two >= 2")
        if self.system_dim < 1:
            raise DimensionError("system dimension must be >= 1")
        if self.total_amplitudes > DEFAULT_AMPLITUDE_CAP:
            raise DimensionError(
                f"state of {self.total_amplitudes} amplitudes exceeds cap "
                f"{DEFAULT_AMPLITUDE_CAP}"
            )

    @property
    def total_amplitudes(self) -> int:
        return self.clock_size * self.system_dim * 2


@dataclass(frozen=True)
class QuantumState:
    """A full-register state.

    ``live_flags`` lists the flags whose slice ``amplitudes.T[f]`` may hold
    a nonzero amplitude; every other slice is exactly zero.  A state built
    with ``live_flags=None`` is scanned for them once, here
    (``_live_flags``), so after construction every state knows its live
    flags (see "Flag slices").
    """

    layout: RegisterLayout
    # Shape (T, D, 2), clock axis contiguous.  Do not mutate.
    amplitudes: np.ndarray
    live_flags: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.live_flags is None:
            object.__setattr__(self, "live_flags", tuple(_live_flags(self.amplitudes.T)))

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


@dataclass(frozen=True)
class PhaseEstimationConfig:
    """Knobs of one eigenvalue-arithmetic pass.

    ``rotation_scale`` is the constant C of the flag rotation; in
    multiply mode the flag-1 weight per bin is C * E_k, in invert mode
    C / E_k (zero on the k = 0 bin, matching pseudo-inverse semantics).
    """

    clock_size: int
    t0: float
    rotation_scale: float
    mode: str
    window: str = WINDOW_UNIFORM

    def __post_init__(self):
        if not _is_power_of_two(self.clock_size) or self.clock_size < 2:
            raise ConfigError(f"clock size {self.clock_size} must be a power of two >= 2")
        if not math.isfinite(self.t0):
            raise ConfigError(f"t0 must be finite, got {self.t0}")
        if self.t0 < 0:
            raise ConfigError("t0 must be nonnegative")
        if not math.isfinite(self.rotation_scale):
            raise ConfigError(f"rotation scale C must be finite, got {self.rotation_scale}")
        if self.rotation_scale <= 0:
            raise ConfigError("rotation scale C must be positive")
        if self.mode not in (MODE_MULTIPLY, MODE_INVERT):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.window not in (WINDOW_UNIFORM, WINDOW_SINE):
            raise ConfigError(f"unknown window {self.window!r}")


@dataclass(frozen=True)
class PhaseEstimationPass:
    """Exact diagnostics of one pass.

    ``flag_probability`` is the exact postselection probability of the
    flag reading 1; ``clock_zero_probability`` the probability, given
    that, of the clock having returned to |0>; their shortfall from 1 is
    the phase-estimation leakage.  ``oracle_distance`` is the Euclidean
    distance (minimized over global phase) between the produced system
    state and the exact spectral result.
    """

    flag_probability: float
    clock_zero_probability: float
    oracle_distance: float


def validate_config(config: PhaseEstimationConfig, eigenvalues) -> None:
    """Check anti-aliasing and rotation-scale bounds against a spectrum."""
    if config.t0 <= 0:
        raise ConfigError("a full pass needs t0 > 0")
    extent = nonzero_extent(eigenvalues)
    if extent is None:
        return
    e_min, e_max = extent
    if e_max * config.t0 / (2 * np.pi) >= config.clock_size / 2:
        raise ConfigError(
            f"aliasing: sigma_max*t0/(2*pi) = {e_max * config.t0 / (2 * np.pi):.3f} "
            f"must stay below T/2 = {config.clock_size / 2}"
        )
    if config.mode == MODE_MULTIPLY and config.rotation_scale > 1 / e_max + _C_BOUND_SLACK:
        raise ConfigError(
            f"multiply-mode C = {config.rotation_scale:.3g} exceeds 1/sigma_max "
            f"= {1 / e_max:.3g}; the rotated state would not be normalizable"
        )
    if config.mode == MODE_INVERT and config.rotation_scale > e_min + _C_BOUND_SLACK:
        raise ConfigError(
            f"invert-mode C = {config.rotation_scale:.3g} exceeds sigma_min "
            f"= {e_min:.3g}; the rotated state would not be normalizable"
        )


def default_rotation_scale(mode: str, eigenvalues) -> float:
    """Largest C the normalization constraint allows for the spectrum."""
    extent = nonzero_extent(eigenvalues)
    if extent is None:
        raise ConfigError("operator has no nonzero eigenvalues")
    if mode == MODE_MULTIPLY:
        return 1.0 / extent[1]
    if mode == MODE_INVERT:
        return extent[0]
    raise ConfigError(f"unknown mode {mode!r}")


# --- state preparation --------------------------------------------------------


def state_from_system_vector(vector, layout: RegisterLayout) -> QuantumState:
    """Full-register state holding ``vector`` in the system, clock and flag at |0>."""
    v = as_complex_vector(vector)
    if v.size != layout.system_dim:
        raise DimensionError("system vector length does not match layout")
    amp = np.zeros((layout.clock_size, v.size, 2), dtype=complex, order="F")
    amp[0, :, 0] = v
    return QuantumState(layout=layout, amplitudes=amp, live_flags=(0,))


def data_state_vector(problem: FitProblem) -> np.ndarray:
    """System-register vector (0, y): the data state without clock/flag."""
    v = np.zeros(problem.m + problem.n, dtype=complex)
    v[problem.m :] = problem.y
    return v


def prepare_data_state(problem: FitProblem, layout: RegisterLayout) -> QuantumState:
    """Full-register state holding y in the data sector, clock and flag at |0>."""
    return state_from_system_vector(data_state_vector(problem), layout)


def clock_window(clock_size: int, window: str) -> np.ndarray:
    """Unit clock vector of a window.

    "uniform" is 1/sqrt(T) on every tau; "sine" is the tapered
    sqrt(2/T) * sin(pi*(tau+1/2)/T).  Both need T >= 2 (the sine window
    does not normalize at T = 1).
    """
    if clock_size < 2:
        raise ConfigError("clock window needs T >= 2")
    if window == WINDOW_SINE:
        tau = np.arange(clock_size)
        return np.sqrt(2.0 / clock_size) * np.sin(np.pi * (tau + 0.5) / clock_size)
    if window == WINDOW_UNIFORM:
        return np.full(clock_size, 1.0 / np.sqrt(clock_size))
    raise ConfigError(f"unknown window {window!r}")


def reflect_clock_window(state: QuantumState, window: np.ndarray) -> QuantumState:
    """Self-inverse reflection exchanging clock |0> and the window vector.

    Used for both window preparation (clock at |0>) and its adjoint during
    uncomputation; being a Householder reflection it is exactly unitary.
    """
    t = state.layout.clock_size
    if window.shape != (t,):
        raise DimensionError("window length does not match clock size")
    v = window.astype(complex)
    v[0] -= 1.0
    vnorm_sq = float(np.vdot(v, v).real)
    amp_t = state.amplitudes.T
    if vnorm_sq < 1e-30:  # window is |0> itself
        return _written_state(state.layout, state.live_flags,
                              lambda f, r, out: np.copyto(out[f, r], amp_t[f, r]))
    scaled = (-2.0 / vnorm_sq) * v

    def write(f, r, out, overlaps):
        # The rank-one term, then the input added in place.
        np.add(np.multiply(overlaps[f][r, None], scaled, out=out[f, r]), amp_t[f, r],
               out=out[f, r])

    # Each live slice's overlap with v, shape (D,), after the output is allocated.
    return _written_state(state.layout, state.live_flags, write,
                          lambda: ({f: amp_t[f] @ v.conj() for f in state.live_flags},))


# --- pipeline primitives -------------------------------------------------------


def conditional_evolution(
    state: QuantumState,
    eig: EigDecomposition,
    config: PhaseEstimationConfig,
    inverse: bool = False,
) -> QuantumState:
    """Apply exp(-i*H*tau*t0/T) on each clock branch tau (exact, spectral).

    The state's system register is written in ``eig``'s eigenbasis, where
    the evolution is diagonal: each live flag slice is multiplied by the
    phase table, one phase per eigenvalue and clock step.
    """
    if eig.eigenvectors.shape[0] != state.layout.system_dim:
        raise DimensionError("operator dimension does not match system register")
    amp_t = state.amplitudes.T
    table = _phase_table(eig.eigenvalues, config, inverse)
    return _written_state(state.layout, state.live_flags,
                          lambda f, r, out: np.multiply(amp_t[f, r], table[r], out=out[f, r]))


def _phase_table(eigenvalues, config: PhaseEstimationConfig, inverse: bool) -> np.ndarray:
    """exp(-i*E_j*tau*t0/T) as a (D, T) table, exp(+i*...) if ``inverse``.

    Splits tau = b*h + l with b = 2**floor(log2(T)/2), so the table is the
    outer product of D*(T/b + b) complex exponentials instead of D*T.
    Those factors come from ``_pass_constants``, built once per spectrum,
    T and t0; only the D x T product is formed on every call.  The
    forward table is built from conjugated factors, so it is exactly the
    conjugate of the inverse one.
    """
    high, low, _ = _pass_constants(eigenvalues, config)
    if not inverse:
        high, low = high.conj(), low.conj()
    return (high[:, :, None] * low[:, None, :]).reshape(len(high), config.clock_size)


def _pass_constants(
    eigenvalues, config: PhaseEstimationConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The phase factors ``high``, ``low`` and the clock window of a pass.

    Read-only arrays, shared by every pass over the same spectrum, T, t0
    and window (see "Pass constants").
    """
    spectrum = np.asarray(eigenvalues)
    return _build_pass_constants(
        spectrum.dtype.str, spectrum.tobytes(), config.clock_size, config.t0, config.window
    )


@functools.lru_cache(maxsize=1)
def _build_pass_constants(
    dtype: str, spectrum: bytes, clock_size: int, t0: float, window: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build what ``_pass_constants`` returns; one memo entry.

    ``high[j, h]`` is exp(+i*E_j*b*h*t0/T) and ``low[j, l]`` is
    exp(+i*E_j*l*t0/T).  The arguments reach pi*T rad, where one float64
    rounding is already 1.5e-11 rad at T = 65536.  So they are formed and
    reduced modulo 2*pi in long double (wider than float64 on x86-64
    Linux) before the float64 ``exp``.
    """
    t = clock_size
    b = 1 << ((t.bit_length() - 1) // 2)
    energies = np.frombuffer(spectrum, dtype=dtype).astype(np.longdouble)
    step = energies[:, None] * (t0 / t)
    constants = (
        _unit_phases(step * (b * np.arange(t // b))),
        _unit_phases(step * np.arange(b)),
        clock_window(t, window),
    )
    for array in constants:
        array.flags.writeable = False
    return constants


def _unit_phases(theta: np.ndarray) -> np.ndarray:
    """exp(i*theta) of long-double angles, reduced to [-pi, pi] first."""
    theta = theta - _TWO_PI * np.round(theta / _TWO_PI)
    return np.exp(1j * theta.astype(float))


def qft_clock(state: QuantumState, direction: str = "forward") -> QuantumState:
    """Unitary DFT on the clock register, kernel exp(2*pi*i*k*tau/T)/sqrt(T)."""
    if direction == "forward":
        transform = np.fft.ifft
    elif direction == "inverse":
        transform = np.fft.fft
    else:
        raise ConfigError(f"unknown QFT direction {direction!r}")
    amp_t = state.amplitudes.T
    return _written_state(state.layout, state.live_flags, lambda f, r, out: np.copyto(
        out[f, r], transform(amp_t[f, r], norm="ortho")))


def decode_eigenvalue(k, clock_size: int, t0: float):
    """Signed eigenvalue estimate 2*pi*k_signed/t0 for frequency bin k.

    Bins at or above T/2 represent negative frequencies (k - T), which is
    what the +/- paired spectrum of the Hermitian embedding needs.
    """
    if t0 <= 0:
        raise ConfigError("decoding needs t0 > 0")
    k_arr = np.asarray(k)
    if np.any(k_arr < 0) or np.any(k_arr >= clock_size):
        raise ConfigError(f"bin index out of range 0..{clock_size - 1}")
    signed = np.where(k_arr < clock_size // 2, k_arr, k_arr - clock_size)
    result = 2.0 * np.pi * signed / t0
    return float(result) if np.isscalar(k) else result


def rotation_weights(config: PhaseEstimationConfig) -> np.ndarray:
    """Flag-1 amplitude factor per frequency bin.

    Invert mode assigns weight 0 to the k = 0 bin (pseudo-inverse) and
    clips magnitudes to 1 on leakage bins whose decoded estimate falls
    below C; populated bins of a valid config are never clipped.
    """
    k = np.arange(config.clock_size)
    energies = decode_eigenvalue(k, config.clock_size, config.t0)
    if config.mode == MODE_MULTIPLY:
        weights = config.rotation_scale * energies
    else:
        with np.errstate(divide="ignore"):
            weights = config.rotation_scale / energies
        weights[0] = 0.0
    return np.clip(weights, -1.0, 1.0)


def controlled_rotation(state: QuantumState, config: PhaseEstimationConfig) -> QuantumState:
    """Rotate the flag qubit by the per-bin eigenvalue weight.

    Maps |0> -> c|0> + w|1> and |1> -> -w|0> + c|1> with c = sqrt(1-w^2),
    so the operation is unitary regardless of the incoming flag state.
    The result always holds a fresh array that no other state shares, and
    both its flags may be live.
    """
    amp_t = state.amplitudes.T
    flag_one = 1 in state.live_flags

    def write(f, r, out, w, c):
        # c*a0 - w*a1 on flag 0 and w*a0 + c*a1 on flag 1; the a1 terms
        # only when flag 1 is live.
        np.multiply((c, w)[f], amp_t[0, r], out=out[f, r])
        if flag_one and f == 0:
            np.subtract(out[0, r], w * amp_t[1, r], out=out[0, r])
        elif flag_one:
            np.add(out[1, r], c * amp_t[1, r], out=out[1, r])

    def weights():
        w = rotation_weights(config)
        return w, np.sqrt(1.0 - w**2)

    return _written_state(state.layout, (0, 1), write, weights)


def uncompute_clock(
    state: QuantumState, eig: EigDecomposition, config: PhaseEstimationConfig
) -> QuantumState:
    """Reverse the phase-estimation front end.

    Inverse QFT, inverse conditional evolution, then the window
    reflection, on a state whose system register is in ``eig``'s
    eigenbasis.  When every populated eigenvalue sits exactly on a bin
    (E*t0/(2*pi) integral, uniform window) the clock returns exactly to
    |0>; otherwise the weight left outside |0> measures the leakage.
    """
    s = qft_clock(state, "inverse")
    s = conditional_evolution(s, eig, config, inverse=True)
    return reflect_clock_window(s, _pass_constants(eig.eigenvalues, config)[2])


def postselect_flag(state: QuantumState) -> tuple[QuantumState, float]:
    """Project onto flag = 1 and renormalize; exact probability.

    The probability is summed over the clock-contiguous flag-1 slice and
    the result is clock-contiguous.
    """
    branch = np.ascontiguousarray(state.amplitudes.T[1])
    prob = _branch_probability(branch, "flag=1")
    norm = np.sqrt(prob)
    return _written_state(state.layout, (1,), lambda f, r, out: np.divide(
        branch[r], norm, out=out[f, r])), prob


def postselect_clock_zero(state: QuantumState) -> tuple[QuantumState, float]:
    """Project the clock onto |0> and renormalize; exact probability."""
    branch = state.amplitudes[0]
    prob = _branch_probability(branch, "clock |0>")
    new_amp = np.zeros_like(state.amplitudes)
    new_amp[0] = branch / np.sqrt(prob)
    return QuantumState(layout=state.layout, amplitudes=new_amp,
                        live_flags=state.live_flags), prob


def extract_system_vector(state: QuantumState) -> np.ndarray:
    """System-register vector of a state whose clock and flag are definite."""
    # Valid once only one branch is populated.  Each live slice's clock sum
    # reduces along whole rows; starting from +0.0 turns each -0.0 into
    # +0.0, as adding a zero slice's sum does.
    collapsed = 0.0
    for f in state.live_flags:
        collapsed = collapsed + state.amplitudes.T[f].sum(axis=1)
    norm = np.linalg.norm(collapsed)
    if abs(norm - 1.0) > 1e-6:
        raise DimensionError(
            "state is entangled with clock or flag; postselect before extracting"
        )
    return collapsed / norm


# --- full pass -----------------------------------------------------------------


def _mode_function(mode: str):
    if mode == MODE_MULTIPLY:
        return lambda e: e
    return lambda e: 1.0 / e


def phase_distance(a, b) -> float:
    """Euclidean distance between unit vectors, minimized over global phase.

    Computed from the aligned difference vector rather than as
    sqrt(2 - 2*overlap), which would lose half the significant digits to
    cancellation precisely when the states agree.
    """
    av = as_complex_vector(a)
    bv = as_complex_vector(b)
    overlap = np.vdot(bv, av)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(av - phase * bv))


def _windowed_state(
    coords: np.ndarray, window: np.ndarray, layout: RegisterLayout
) -> QuantumState:
    """window (x) ``coords`` on flag 0, exact zeros on flag 1.

    What ``reflect_clock_window`` makes of ``coords`` at clock |0>, flag
    |0>, written directly: the reflection maps clock |0> to the window.
    """
    if window.shape != (layout.clock_size,):
        raise DimensionError("window length does not match clock size")
    return _written_state(layout, (0,), lambda f, r, out: np.multiply(
        coords[r, None], window, out=out[f, r]))


def _rotated_flag_one(state: QuantumState, config: PhaseEstimationConfig) -> QuantumState:
    """The flag-1 output w_k * a0 of the rotation on a flag-0 state, flag 0 zero.

    Of ``controlled_rotation``'s output the pass keeps only this branch.
    """
    flag_zero = state.amplitudes.T[0]
    return _written_state(
        state.layout, (1,),
        lambda f, r, out, weights: np.multiply(weights, flag_zero[r], out=out[f, r]),
        lambda: (rotation_weights(config),))


def apply_hermitian_via_pe(
    state: QuantumState, eig: EigDecomposition, config: PhaseEstimationConfig
) -> tuple[np.ndarray, PhaseEstimationPass]:
    """One full eigenvalue-arithmetic pass of H, given as its eigensystem ``eig``.

    The pass reads psi and the layout from its clock-and-flag-fresh input
    state and releases it.  psi goes into H's eigenbasis, then: window
    preparation, conditional evolution, clock QFT, flag rotation,
    uncomputation, and postselection of flag = 1 followed by clock = |0>.
    Only the kept branch is built: the window state is written directly, the
    rotation's flag-1 output alone, and both postselections read the flag-1
    slice in place.  The surviving system row comes back out of the
    eigenbasis as the returned unit vector, approximating
    f(H)|psi>/||f(H)|psi>|| (f set by the mode), with exact pass diagnostics.
    """
    validate_config(config, eig.eigenvalues)
    psi_in, layout = extract_system_vector(state), state.layout
    del state
    vecs = eig.eigenvectors

    # Each stage rebinds ``s``: a full-size array still referenced after
    # the stage that consumes it would add a whole state to the peak.
    window = _pass_constants(eig.eigenvalues, config)[2]
    s = _windowed_state(vecs.conj().T @ psi_in, window, layout)
    s = conditional_evolution(s, eig, config)
    s = qft_clock(s, "forward")
    s = _rotated_flag_one(s, config)
    s = uncompute_clock(s, eig, config)

    branch = s.amplitudes.T[1]  # clock-contiguous (D, T)
    flag_prob = _branch_probability(branch, "flag=1")
    row = branch[:, 0] / np.sqrt(flag_prob)
    clock_prob = _branch_probability(row, "clock |0>")

    out_vec = vecs @ (row / np.sqrt(clock_prob))
    exact = apply_matrix_function(eig, _mode_function(config.mode), psi_in)
    exact_norm = np.linalg.norm(exact)
    if exact_norm > 0:
        distance = phase_distance(out_vec, exact / exact_norm)
    else:  # input entirely in the kernel; any output direction is leakage
        distance = float("nan")

    info = PhaseEstimationPass(
        flag_probability=flag_prob,
        clock_zero_probability=clock_prob,
        oracle_distance=distance,
    )
    return out_vec / np.linalg.norm(out_vec), info


# --- sampling-based measurements ------------------------------------------------


@dataclass(frozen=True)
class SwapTestPlan:
    shots: int
    delta: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.shots <= np.iinfo(np.int64).max:
            raise ConfigError(f"swap test shots must lie in 1..2**63-1, got {self.shots}")


@dataclass(frozen=True)
class SwapTestResult:
    ones_observed: int
    shots: int
    p_one_estimate: float
    overlap_sq_estimate: float
    std_error: float


def exact_overlap_sq(state_a, state_b) -> float:
    a = as_complex_vector(state_a)
    b = as_complex_vector(state_b)
    return float(abs(np.vdot(a, b)) ** 2)


def swap_test(state_a, state_b, plan: SwapTestPlan) -> SwapTestResult:
    """Sampled swap test between two normalized system vectors.

    The outcome-1 probability is (1 - |<a|b>|^2)/2; shots are Bernoulli
    draws from the exact probability, so the estimator statistics are
    genuine while the underlying overlap is computed from amplitudes.
    """
    a = as_complex_vector(state_a)
    b = as_complex_vector(state_b)
    if a.size != b.size:
        raise DimensionError("swap test requires equal system dimensions")
    overlap_sq = exact_overlap_sq(a, b)
    p_one = min(max((1.0 - overlap_sq) / 2.0, 0.0), 0.5)
    rng = np.random.default_rng(plan.seed)
    ones = int(rng.binomial(plan.shots, p_one))
    p_hat = ones / plan.shots
    estimate = min(max(1.0 - 2.0 * p_hat, 0.0), 1.0)
    std_error = 2.0 * float(np.sqrt(p_hat * (1.0 - p_hat) / plan.shots))
    return SwapTestResult(
        ones_observed=ones,
        shots=plan.shots,
        p_one_estimate=p_hat,
        overlap_sq_estimate=estimate,
        std_error=std_error,
    )


def measure_computational(vector, shots: int, seed: int) -> np.ndarray:
    """Histogram of computational-basis outcomes of a system vector.

    Returns integer counts per basis index, drawn from |v|^2 and
    reproducible under the seed.
    """
    if shots < 1:
        raise ConfigError("need at least one shot")
    probs = np.abs(as_complex_vector(vector)) ** 2
    total = probs.sum()
    if total <= 0:
        raise DimensionError("state has zero norm")
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs / total)

