"""Analytic query-cost and repetition model.

These are asymptotic scaling formulas evaluated with unit constants and
base-2 logarithms, not gate counts.  They price the oracle-query model
that a hardware run of the pipeline would use; the simulator itself
computes evolutions exactly, so costs are reported rather than incurred.

Formula variants (CLI names in parentheses):

* prepare          (eq3):  log2(N) * s^3 * kappa^6 / eps
* prepare-alt      (eq4):  log2(N) * s   * kappa^6 / eps^2
* quality          (alg2): log2(N) * s^3 * kappa^4 / (eps * delta^2)
* learn            (alg3): log2(N) * s^3 * (kappa^4/(eps*delta^2)
                                            + mprime^2*kappa^6/eps^3)

Repetition counts cover the postselection retries of the three-pass
parameter-preparation chain (one multiply pass, two invert passes).
Amplitude amplification lowers a multiply pass from kappa^2 to kappa
retries but cannot help the invert passes, whose input state would
itself need to be re-prepared for each reflection; both totals are
reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import ConfigError

COST_SCHEMA_VERSION = 1

ALG_PREPARE = "prepare"
ALG_PREPARE_ALT = "prepare-alt"
ALG_QUALITY = "quality"
ALG_LEARN = "learn"

# Compact aliases accepted on the CLI and in stored queries.
ALGORITHM_ALIASES = {
    "eq3": ALG_PREPARE,
    "eq4": ALG_PREPARE_ALT,
    "alg2": ALG_QUALITY,
    "alg3": ALG_LEARN,
    ALG_PREPARE: ALG_PREPARE,
    ALG_PREPARE_ALT: ALG_PREPARE_ALT,
    ALG_QUALITY: ALG_QUALITY,
    ALG_LEARN: ALG_LEARN,
}


@dataclass(frozen=True)
class CostQuery:
    n: int
    s: int
    kappa: float
    epsilon: float
    delta: float = 0.1
    m_prime: int = 1
    algorithm: str = ALG_PREPARE
    amplitude_amplification: bool = True

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("N must be at least 2")
        if self.s < 1:
            raise ConfigError("sparseness s must be at least 1")
        if not (math.isfinite(self.kappa) and self.kappa >= 1):
            raise ConfigError("kappa must be finite and at least 1")
        if not 0 < self.epsilon <= 1:
            raise ConfigError("epsilon must lie in (0, 1]")
        if not 0 < self.delta <= 1:
            raise ConfigError("delta must lie in (0, 1]")
        if self.m_prime < 1:
            raise ConfigError("m' must be at least 1")
        if ALGORITHM_ALIASES.get(self.algorithm) is None:
            raise ConfigError(f"unknown cost formula {self.algorithm!r}")


@dataclass(frozen=True)
class CostReport:
    query: CostQuery
    algorithm: str
    queries: float
    repetitions_per_multiply: float
    repetitions_per_invert: float
    chain_repetitions_plain: float
    chain_repetitions_amplified: float

    @property
    def chain_repetitions(self) -> float:
        if self.query.amplitude_amplification:
            return self.chain_repetitions_amplified
        return self.chain_repetitions_plain


def query_count(query: CostQuery) -> float:
    logn = math.log2(query.n)
    s, k = float(query.s), query.kappa
    eps, delta = query.epsilon, query.delta
    algorithm = ALGORITHM_ALIASES[query.algorithm]
    if algorithm == ALG_PREPARE:
        return logn * s**3 * k**6 / eps
    if algorithm == ALG_PREPARE_ALT:
        return logn * s * k**6 / eps**2
    if algorithm == ALG_QUALITY:
        return logn * s**3 * k**4 / (eps * delta**2)
    return logn * s**3 * (k**4 / (eps * delta**2) + query.m_prime**2 * k**6 / eps**3)


def cost_model(query: CostQuery) -> CostReport:
    k = query.kappa
    try:
        counts = (
            query_count(query),
            k if query.amplitude_amplification else k**2,
            k**2,
            k**6,
            k**5,
        )
        finite = all(math.isfinite(c) for c in counts)
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise ConfigError(
            f"cost model counts overflow at kappa={k:g}, epsilon={query.epsilon:g}, "
            f"delta={query.delta:g}"
        )
    queries, per_multiply, per_invert, chain_plain, chain_amplified = counts
    return CostReport(
        query=query,
        algorithm=ALGORITHM_ALIASES[query.algorithm],
        queries=queries,
        repetitions_per_multiply=per_multiply,
        repetitions_per_invert=per_invert,
        chain_repetitions_plain=chain_plain,
        chain_repetitions_amplified=chain_amplified,
    )


def cost_report_to_json(report: CostReport) -> dict:
    q = report.query
    return {
        "schemaVersion": COST_SCHEMA_VERSION,
        "query": {
            "n": q.n,
            "s": q.s,
            "kappa": q.kappa,
            "epsilon": q.epsilon,
            "delta": q.delta,
            "mPrime": q.m_prime,
            "algorithm": report.algorithm,
            "amplitudeAmplification": q.amplitude_amplification,
        },
        "queries": report.queries,
        "repetitions": {
            "perMultiply": report.repetitions_per_multiply,
            "perInvert": report.repetitions_per_invert,
            "chainPlain": report.chain_repetitions_plain,
            "chainAmplified": report.chain_repetitions_amplified,
            "chainEffective": report.chain_repetitions,
        },
    }
