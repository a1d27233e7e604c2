"""Pure-state reconstruction by linear-inversion interferometry.

The reconstruction measures a repeatedly preparable state in a small set
of bases: the computational basis fixes the magnitudes, and for every
index j two interference settings against a reference index r (relative
phase 0 and pi/2, i.e. projectors onto (e_r +/- e_j)/sqrt(2) and
(e_r -/+ i e_j)/sqrt(2)) fix Re and Im of conj(a_r) * a_j.  Solving for
the amplitudes is then direct inversion; at the dimensions used here
(m' <= 16) this is exact up to sampling noise.

The measurement budget is planned as

    settings          = ceil(m' * (log2(m') + 1)^2)
    shots per setting = ceil(m' / eps^2)

and fully spent: the planned settings are distributed round-robin over
the distinct measurement configurations and pooled, so accuracy reflects
the planned sample count.  Each setting repetition calls the state
preparer once, matching the one-copy-per-measurement execution model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import ConfigError, TomographyError
from .linalg import as_complex_vector
from .seeding import spawn_rng

AMPLITUDE_TOL = 1e-12

# The reference amplitude must be at least this many times eps.  An
# amplitude is at most 1, so eps above 1 / REFERENCE_FACTOR always fails.
REFERENCE_FACTOR = 10.0


@dataclass(frozen=True)
class TomographyBudget:
    settings: int
    shots_per_setting: int
    epsilon: float

    def __post_init__(self):
        if self.settings < 1 or self.shots_per_setting < 1:
            raise ConfigError("budget must include at least one setting and one shot")

    @property
    def total_shots(self) -> int:
        return self.settings * self.shots_per_setting


@dataclass(frozen=True)
class ReconstructedState:
    """Unit-norm amplitude estimate with the global phase canonicalized."""

    amplitudes: np.ndarray
    fidelity_vs_oracle: float


@dataclass(frozen=True)
class SettingRecord:
    """Raw counts of one pooled measurement configuration, kept for audit."""

    kind: str  # "probability" | "interference"
    index: int | None
    phase: float | None
    repetitions: int
    shots: int
    counts: tuple[int, ...]


def plan_budget(m_prime: int, epsilon: float) -> TomographyBudget:
    """Measurement budget for reconstructing an m'-dimensional pure state."""
    if m_prime < 1:
        raise ConfigError("m' must be at least 1")
    if not 0 < epsilon < 1:
        raise ConfigError("epsilon must lie in (0, 1)")
    settings = int(np.ceil(m_prime * (np.log2(m_prime) + 1) ** 2))
    # Pooled counts are int64, so the whole budget must fit in one.
    if epsilon**2 == 0 or settings * (m_prime / epsilon**2) > np.iinfo(np.int64).max:
        raise ConfigError(f"epsilon = {epsilon:g} asks for more shots than int64 counts")
    shots = int(np.ceil(m_prime / epsilon**2))
    return TomographyBudget(settings=settings, shots_per_setting=shots, epsilon=epsilon)


def canonicalize_phase(vector) -> np.ndarray:
    """Unit-normalize and make the first non-negligible amplitude real positive."""
    v = as_complex_vector(vector)
    norm = np.linalg.norm(v)
    if norm <= 0:
        raise TomographyError("cannot canonicalize the zero vector")
    v = v / norm
    for z in v:
        if abs(z) > AMPLITUDE_TOL:
            return v * (abs(z) / z)
    return v


def _sample_probs(probs: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    probs = np.clip(probs.real, 0.0, None)
    return rng.multinomial(shots, probs / probs.sum())


def _interference_probs(a: np.ndarray, ref: int, j: int, phase: float) -> np.ndarray:
    """Outcome distribution over (plus, minus, elsewhere) for one setting."""
    rot = np.exp(-1j * phase)
    plus = abs(a[ref] + rot * a[j]) ** 2 / 2.0
    minus = abs(a[ref] - rot * a[j]) ** 2 / 2.0
    rest = max(1.0 - plus - minus, 0.0)
    return np.array([plus, minus, rest])


def reconstruct_pure_state(
    state_preparer: Callable[[], np.ndarray],
    budget: TomographyBudget,
    seed: int,
    oracle: np.ndarray,
) -> tuple[ReconstructedState, list[SettingRecord]]:
    """Reconstruct the state produced by ``state_preparer``.

    The state's dimension is that of the exact state ``oracle``.  The
    preparer is called exactly once per setting repetition (a fresh copy
    per measurement round) and never otherwise, so it is called
    max(budget.settings, 2 * dim - 1) times.  Returns the estimate, with
    its fidelity to ``oracle``, and the per-setting raw counts.  Raises
    TomographyError if the reference component (the largest-probability
    index) has an amplitude below REFERENCE_FACTOR * eps, too weak for a
    conditioned phase readout.
    """
    rng = spawn_rng(seed, 0)
    oracle = as_complex_vector(oracle)
    dim = oracle.size

    # One probability configuration, then two phases (0, pi/2) for each of
    # the dim - 1 components other than the reference, which is chosen only
    # after the probability setting runs.  The planned settings are spread
    # round-robin over the configurations.
    n_configs = 2 * dim - 1
    settings = max(budget.settings, n_configs)
    reps = settings // n_configs + (np.arange(n_configs) < settings % n_configs)

    def pooled_counts(rep: int, outcome_probs, outcomes: int) -> np.ndarray:
        """Counts pooled over ``rep`` rounds, each on a freshly prepared copy."""
        counts = np.zeros(outcomes, dtype=int)
        for _ in range(rep):
            amps = as_complex_vector(state_preparer())
            counts += _sample_probs(outcome_probs(amps), budget.shots_per_setting, rng)
        return counts

    # Probability setting: pooled computational-basis counts.
    prob_counts = pooled_counts(reps[0], lambda amps: np.abs(amps) ** 2, dim)
    p_hat = prob_counts / prob_counts.sum()
    ref = int(np.argmax(p_hat))
    ref_amp = float(np.sqrt(p_hat[ref]))
    if ref_amp < REFERENCE_FACTOR * budget.epsilon:
        raise TomographyError(
            f"reference amplitude {ref_amp:.3f} below {REFERENCE_FACTOR:g}*eps = "
            f"{REFERENCE_FACTOR * budget.epsilon:.3f}; phase readout is ill-conditioned"
        )
    records = [
        SettingRecord(
            kind="probability",
            index=None,
            phase=None,
            repetitions=int(reps[0]),
            shots=int(reps[0]) * budget.shots_per_setting,
            counts=tuple(int(c) for c in prob_counts),
        )
    ]

    others = [j for j in range(dim) if j != ref]
    cross = np.zeros(dim, dtype=complex)  # estimates of conj(a_ref) * a_j
    cross[ref] = p_hat[ref]
    for slot, j in enumerate(others):
        parts = []
        for part, phase in enumerate((0.0, np.pi / 2)):
            rep = int(reps[1 + 2 * slot + part])
            counts = pooled_counts(
                rep, lambda amps: _interference_probs(amps, ref, j, phase), 3
            )
            total = counts.sum()
            parts.append((counts[0] - counts[1]) / (2.0 * total))
            records.append(
                SettingRecord(
                    kind="interference",
                    index=j,
                    phase=phase,
                    repetitions=rep,
                    shots=int(total),
                    counts=tuple(int(c) for c in counts),
                )
            )
        cross[j] = parts[0] + 1j * parts[1]

    estimate = cross / ref_amp
    estimate[ref] = ref_amp
    result = canonicalize_phase(estimate)

    fidelity = float(abs(np.vdot(canonicalize_phase(oracle), result)) ** 2)
    return ReconstructedState(amplitudes=result, fidelity_vs_oracle=fidelity), records
