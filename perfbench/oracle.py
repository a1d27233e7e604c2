"""Checks of qfit's output files against numpy alone.

Nothing here imports qfit.  The least-squares reference is recomputed
from the problem file with ``numpy.linalg.lstsq``; problem files are
checked against the basis definitions and the normalization documented
in ``qfit.problems``.  Each check returns a list of failure messages,
empty when the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

# Checks of classical quantities (lstsq, residuals, normalization) are
# exact up to rounding; this tolerance is far above it.
EXACT_TOL = 1e-8


def vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def matrix(obj: dict) -> np.ndarray:
    return vector(obj["entries"]).reshape(obj["rows"], obj["cols"])


def projection_sq(f: np.ndarray, y: np.ndarray) -> float:
    """||P_F y||^2: squared norm of the projection of y onto the column space of F."""
    lam = np.linalg.lstsq(f, y, rcond=None)[0]
    fitted = f @ lam
    return float(np.vdot(fitted, fitted).real)


def _close(name: str, got, want, tol: float) -> list[str]:
    if got is None or not np.all(np.abs(np.asarray(got) - np.asarray(want)) <= tol):
        return [f"{name}: got {got!r}, expected {want!r} within {tol:g}"]
    return []


def check_problem(problem: dict, expect: dict) -> list[str]:
    """A generated problem file: shape, normalization and its basis."""
    f = matrix(problem["designMatrix"])
    y = vector(problem["yVector"])
    x = vector(problem["dataSet"]["x"])
    y_raw = vector(problem["dataSet"]["y"])
    scale_f, scale_y = problem["normScale"]
    fails = []
    if f.shape != (expect["n"], expect["m"]):
        return [f"design matrix shape {f.shape}, expected {(expect['n'], expect['m'])}"]
    sigma = np.linalg.svd(f, compute_uv=False)
    fails += _close("sigma_max", sigma[0], 1.0, EXACT_TOL)
    fails += _close("|y|", np.linalg.norm(y), 1.0, EXACT_TOL)
    fails += _close("y", y, y_raw * scale_y, EXACT_TOL)
    j = np.arange(expect["m"])
    if expect["kind"] == "poly":
        fails += _close("poly basis", f / scale_f, x[:, None] ** j, EXACT_TOL)
    elif expect["kind"] == "fourier":
        fails += _close("fourier basis", f / scale_f, np.exp(2j * np.pi * np.outer(x, j)),
                        EXACT_TOL)
    elif expect["condition_target"] is not None:
        fails += _close("condition number", sigma[0] / sigma[-1], expect["condition_target"],
                        EXACT_TOL * expect["condition_target"])
    return fails


def check_oracle(report: dict, problem: dict) -> list[str]:
    """``qfit oracle``: the Moore-Penrose solution, in normalized and original units."""
    f = matrix(problem["designMatrix"])
    y = vector(problem["yVector"])
    scale_f, scale_y = problem["normScale"]
    lam = np.linalg.lstsq(f, y, rcond=None)[0]
    residual = f @ lam - y
    energy = float(np.vdot(residual, residual).real)
    fails = _close("lambda", vector(report["lambda"]), lam, EXACT_TOL * max(1.0, np.abs(lam).max()))
    fails += _close("residualEnergy", report["residualEnergy"], energy, EXACT_TOL)
    fails += _close("fittedVector", vector(report["fittedVector"]), f @ lam, EXACT_TOL)
    orig = lam * scale_f / scale_y
    fails += _close("original.lambda", vector(report["original"]["lambda"]), orig,
                    EXACT_TOL * max(1.0, np.abs(orig).max()))
    return fails


def check_fit(report: dict, f: np.ndarray, y: np.ndarray, expect: dict,
              fidelity_floor: float, overlap_tol: float) -> list[str]:
    """A fit report for the problem (f, y): overlap, fidelity and every pass."""
    if "error" in report:
        return [f"error report: {report}"]
    fails = _close("exactOverlapSq", report["exactOverlapSq"], projection_sq(f, y), overlap_tol)
    fidelity = report["lambdaFidelity"]
    if fidelity is None or not fidelity >= fidelity_floor:
        fails.append(f"lambdaFidelity {fidelity!r} below {fidelity_floor}")
    passes = report["successProbabilities"]
    if len(passes) != expect["passes"]:
        fails.append(f"{len(passes)} passes, expected {expect['passes']}")
    for k, p in enumerate(passes):
        distance = p["oracleDistance"]
        if not isinstance(distance, float) or not math.isfinite(distance):
            fails.append(f"pass {k}: oracleDistance {distance!r} is not finite")
    if report["swap"]["shots"] != expect["shots"]:
        fails.append(f"swap shots {report['swap']['shots']}, expected {expect['shots']}")
    return fails


def check_learn(report: dict, problem: dict, expect: dict, fidelity_floor: float,
                overlap_tol: float) -> list[str]:
    """A learn report: support, tomography, residuals and the reduced fit."""
    if "error" in report:
        return [f"error report: {report}"]
    f = matrix(problem["designMatrix"])
    y = vector(problem["yVector"])
    support = list(expect["support"])
    recovered = report["recoveredSupport"]
    # The reduced problem is the one qfit refit: on the recovered support.
    f_reduced = f[:, recovered]
    fails = []
    if recovered != support:
        fails.append(f"recovered support {recovered}, planted {support}")
    floor = 1 - 5 * expect["tom_epsilon"]
    if not report["reconstructionFidelity"] >= floor:
        fails.append(f"reconstructionFidelity {report['reconstructionFidelity']} below {floor}")
    fails += _close("exactFullResidual", report["exactFullResidual"],
                    1 - projection_sq(f, y), EXACT_TOL)
    fails += _close("exactReducedResidual", report["exactReducedResidual"],
                    1 - projection_sq(f_reduced, y), EXACT_TOL)
    fails += check_fit(report["fitReport"], f_reduced, y, expect, fidelity_floor, overlap_tol)
    return fails


def fit_infidelity(report: dict) -> float | None:
    """1 - lambdaFidelity of a fit report, or of a learn report's reduced fit."""
    fit = report.get("fitReport", report)
    fidelity = fit.get("lambdaFidelity")
    return None if fidelity is None else 1.0 - fidelity
