"""Relations every correct fit-quality pipeline keeps (arXiv:1204.5242).

Each test runs ``estimate_fit_quality`` on a problem and on a transformed
copy of it, both built by ``normalize_problem``, and requires every
number the two reports share to agree to ``TOL``.  H = [[0, F^dag],
[F, 0]] is the operator every pass acts on, and the transforms are:

* a row unitary, F -> QF and y -> Qy: H's spectrum, every pass and the
  fit quality stay as they were;
* a column unitary, F -> FW: lambda maps to W^dag lambda, and so does
  the prepared parameter state, so their fidelity and the rest stay;
* a global phase on y, and a permutation of the rows: nothing changes;
* zero rows, F -> [F; 0] and y -> [y; 0]: the kernel of F^dag grows,
  but y has no weight on it, so every probability stays.

They hold for any implementation of the passes, so they check what the
per-primitive tests cannot: an error that moves a pass probability but
keeps the end result close to the oracle's, in the kernel rule or an
eigenvector's phase convention, say.
"""

from dataclasses import dataclass

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qfit.algorithms import (  # noqa: E402
    VARIANT_FUSED,
    VARIANT_THREE_STAGE,
    RunSettings,
    estimate_fit_quality,
)
from qfit.problems import normalize_problem  # noqa: E402
from qfit.sim import WINDOW_SINE, WINDOW_UNIFORM, SwapTestPlan  # noqa: E402

from conftest import _haar, random_complex_matrix, random_complex_vector  # noqa: E402

# The worst change over all five relations measured 7.3e-14 (relative, a
# pass probability); 1e-12 leaves a 14x margin.
TOL = 1e-12
PLAN = SwapTestPlan(shots=10000, delta=0.1, seed=7)


@dataclass(frozen=True)
class Case:
    n: int
    m: int
    settings: RunSettings
    padded_rows: int
    examples: int


CASES = {
    "short-clock": Case(12, 6, RunSettings(clock_size=256, window=WINDOW_SINE,
                                           variant=VARIANT_THREE_STAGE), 46, 12),
    "wide": Case(30, 20, RunSettings(clock_size=1024, window=WINDOW_UNIFORM,
                                     variant=VARIANT_THREE_STAGE), 14, 12),
    # One run takes about 0.15 s here, so few examples; padding stops at
    # D = 16, which keeps the state at 2**21 amplitudes.
    "long-clock": Case(6, 2, RunSettings(clock_size=65536, window=WINDOW_SINE,
                                         variant=VARIANT_FUSED, epsilon=5e-4), 8, 3),
}


def row_unitary(rng, f, y, case):
    q = _haar(rng, case.n)
    return q @ f, q @ y


def column_unitary(rng, f, y, case):
    return f @ _haar(rng, case.m), y


def global_phase(rng, f, y, case):
    return f, np.exp(1j * rng.uniform(0, 2 * np.pi)) * y


def row_permutation(rng, f, y, case):
    order = rng.permutation(case.n)
    return f[order], y[order]


def zero_rows(rng, f, y, case):
    return (np.vstack([f, np.zeros((case.padded_rows, case.m))]),
            np.concatenate([y, np.zeros(case.padded_rows)]))


RELATIONS = (row_unitary, column_unitary, global_phase, row_permutation, zero_rows)


def _numbers(report) -> dict:
    """Every number the reports of a problem and of its transform share."""
    numbers = {
        "kappa": report.cost.query.kappa,
        "exactOverlapSq": report.exact_overlap_sq,
        "exactNormalizedResidual": report.exact_normalized_residual,
        "lambdaFidelity": report.lambda_fidelity,
        "overlapSqEstimate": report.overlap_sq_estimate,
        "stdError": report.std_error,
        "eBound": report.e_bound,
    }
    for i, info in enumerate(report.passes):
        numbers[f"pass{i}.flagProbability"] = info.flag_probability
        numbers[f"pass{i}.clockZeroProbability"] = info.clock_zero_probability
        numbers[f"pass{i}.oracleDistance"] = info.oracle_distance
    return numbers


@pytest.mark.parametrize("relation", RELATIONS, ids=lambda r: r.__name__)
@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_report_keeps_relation(case, relation):
    @settings(max_examples=case.examples, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1))
    def check(seed):
        rng = np.random.default_rng(seed)
        f = random_complex_matrix(rng, case.n, case.m, kappa_max=4.0)
        y = random_complex_vector(rng, case.n)
        base = _numbers(estimate_fit_quality(normalize_problem(f, y), case.settings, PLAN))
        moved = _numbers(estimate_fit_quality(
            normalize_problem(*relation(rng, f, y, case)), case.settings, PLAN))
        assert moved.keys() == base.keys()
        for name, value in base.items():
            assert abs(moved[name] - value) <= TOL * max(1.0, abs(value)), name

    check()
