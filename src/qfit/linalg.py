"""Complex dense linear algebra for the fitting pipeline.

Conventions used throughout the package:

* The rectangular design matrix F is N x M (rows = data points, columns =
  fit functions).
* ``embed`` lifts F to the Hermitian operator H on C^(M+N) with the
  parameter sector first::

      H = [[0,   F^dag],
           [F,   0   ]]

  so H applied to a vector (0, y) yields (F^dag y, 0): the parameter
  sector receives F^dag y and the data sector is cleared.  One layout
  serves both "apply F" and "apply F^dag"; no basis reordering anywhere.
* Eigenvalues of H come in +/- sigma_i pairs (sigma_i the singular values
  of F) plus |N - M| zeros.
* Matrix norms are spectral norms; vector norms are 2-norms.

Eigenvector phases are canonicalized (largest-magnitude component made
real positive) so repeated runs produce identical decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import DimensionError, SchemaError, SingularMatrixError

# Largest embedded operator the dense eigensolver path is meant for.
DEFAULT_DIM_CAP = 64

# Most complex entries a design matrix may hold (256 MiB): room for N = 2^16
# data points with M = 16 fit functions, and for n x n problems up to n = 4096.
MAX_MATRIX_ENTRIES = 2**24

# Singular values below this are treated as exact zeros.
SINGULAR_TOL = 1e-12


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce to a 2-D complex array and reject non-finite entries."""
    mat = np.atleast_2d(np.asarray(entries, dtype=complex))
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
        raise DimensionError(f"expected a 2-D matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise DimensionError("matrix entries must be finite")
    return mat


def as_complex_vector(entries) -> np.ndarray:
    vec = np.asarray(entries, dtype=complex).reshape(-1)
    if vec.size < 1:
        raise DimensionError("expected a non-empty vector")
    if not np.all(np.isfinite(vec)):
        raise DimensionError("vector entries must be finite")
    return vec


@dataclass(frozen=True)
class EmbeddedOperator:
    """Hermitian embedding of a rectangular matrix.

    ``matrix`` is (m + n) x (m + n); indices 0..m-1 form the parameter
    sector, indices m..m+n-1 the data sector.  The diagonal blocks are
    zero by construction.
    """

    m: int
    n: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.m + self.n


@dataclass(frozen=True)
class EigDecomposition:
    """Real spectrum and orthonormal eigenbasis of a Hermitian operator.

    ``eigenvalues`` are ascending; ``eigenvectors`` holds the matching
    eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class ConditionEstimate:
    kappa: float
    sigma_max: float
    sigma_min: float


def embed(f_matrix) -> EmbeddedOperator:
    """Embed the N x M matrix F into the Hermitian block operator above."""
    f = as_complex_matrix(f_matrix)
    n, m = f.shape
    if m + n > DEFAULT_DIM_CAP:
        raise DimensionError(
            f"embedded dimension {m + n} exceeds the simulator cap {DEFAULT_DIM_CAP}"
        )
    h = np.zeros((m + n, m + n), dtype=complex)
    h[:m, m:] = f.conj().T
    h[m:, :m] = f
    return EmbeddedOperator(m=m, n=n, matrix=h)


def condition_estimate(f_matrix) -> ConditionEstimate:
    """Largest/smallest singular values of F and their ratio.

    This is the one full-column-rank rule: F with more columns than rows,
    or with a singular value below SINGULAR_TOL, raises SingularMatrixError.
    """
    f = as_complex_matrix(f_matrix)
    if f.shape[1] > f.shape[0]:
        raise SingularMatrixError(f"F of shape {f.shape} has more columns than rows; "
                                  "the fit parameters are not unique")
    sigma = np.linalg.svd(f, compute_uv=False)
    smax = float(sigma[0])
    smin = float(sigma[-1])
    if smin < SINGULAR_TOL:
        raise SingularMatrixError(
            f"smallest singular value {smin:.3e} is below {SINGULAR_TOL:.1e}; "
            "problem is ill-posed"
        )
    return ConditionEstimate(kappa=smax / smin, sigma_max=smax, sigma_min=smin)


def sparsity_profile(f_matrix) -> int:
    """Sparsity s: the most entries above 1e-12 in any row or column."""
    mask = np.abs(as_complex_matrix(f_matrix)) > 1e-12
    return int(max(mask.sum(axis=1).max(), mask.sum(axis=0).max()))


def pseudoinverse(f_matrix) -> np.ndarray:
    """Moore-Penrose pseudoinverse (F^dag F)^-1 F^dag of a full-column-rank F.

    The rank is checked by ``condition_estimate``.
    """
    f = as_complex_matrix(f_matrix)
    condition_estimate(f)
    gram = f.conj().T @ f
    return np.linalg.solve(gram, f.conj().T)


def _canonical_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    The first of tied largest entries is the pivot; a column whose pivot
    is zero is returned unchanged.
    """
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    magnitudes = np.abs(pivots)
    live = magnitudes > 0
    phases = np.divide(magnitudes, pivots, out=np.ones_like(pivots), where=live)
    return np.multiply(vectors, phases, out=vectors.copy(), where=live)


def eig_hermitian(op: EmbeddedOperator | np.ndarray) -> EigDecomposition:
    """Full spectral decomposition with a deterministic phase convention."""
    h = op.matrix if isinstance(op, EmbeddedOperator) else as_complex_matrix(op)
    if not np.allclose(h, h.conj().T, atol=1e-12):
        raise DimensionError("operator is not Hermitian")
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numerical pathology
        raise SingularMatrixError(f"eigensolver failed to converge: {exc}") from exc
    return EigDecomposition(eigenvalues=values, eigenvectors=_canonical_phases(vectors))


def nonzero_extent(eigenvalues) -> tuple[float, float] | None:
    """Smallest and largest |E| over the nonzero eigenvalues, or None.

    An eigenvalue counts as zero when |E| <= SINGULAR_TOL, the same rule
    ``apply_matrix_function`` uses for its kernel.
    """
    magnitudes = np.abs(np.asarray(eigenvalues, dtype=float))
    magnitudes = magnitudes[magnitudes > SINGULAR_TOL]
    if magnitudes.size == 0:
        return None
    return float(magnitudes.min()), float(magnitudes.max())


def apply_matrix_function(
    eig: EigDecomposition, func: Callable[[np.ndarray], np.ndarray], vector
) -> np.ndarray:
    """Apply f(H) to a vector through H's spectral decomposition ``eig``.

    Eigenvalues with |E| <= SINGULAR_TOL are snapped to exactly zero
    before evaluating ``func``; any non-finite value of ``func`` (such as
    1/0 for eigenvalue inversion) is then replaced by zero.  This gives
    1/E pseudo-inverse semantics on the kernel while leaving functions
    that are finite at zero untouched.
    """
    v = as_complex_vector(vector)
    energies = np.where(np.abs(eig.eigenvalues) <= SINGULAR_TOL, 0.0, eig.eigenvalues)
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.asarray(func(energies), dtype=complex)
    weights = np.where(np.isfinite(weights), weights, 0.0)
    beta = eig.eigenvectors.conj().T @ v
    return eig.eigenvectors @ (weights * beta)


def spectral_norm(matrix) -> float:
    return float(np.linalg.norm(np.atleast_2d(np.asarray(matrix, dtype=complex)), 2))


# --- JSON exchange format ---------------------------------------------------
#
# Dense:  {"rows": R, "cols": C, "entries": [[re, im], ...]} row-major.
# Sparse: {"rows": R, "cols": C, "triplets": [[i, j, re, im], ...]} 0-based.


def matrix_to_json(matrix) -> dict:
    mat = as_complex_matrix(matrix)
    return {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "entries": _pairs(mat.reshape(-1)),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """The matrix of a JSON matrix object; SchemaError where it breaks the format.

    Counts and indices must be JSON integers: ``type(v) is int`` refuses
    floats, strings and bools (a bool is an int in Python).
    """
    if not isinstance(obj, dict):
        raise SchemaError("matrix object must be a JSON object")
    rows, cols = obj.get("rows"), obj.get("cols")
    if type(rows) is not int or type(cols) is not int:
        raise SchemaError(f"matrix object needs integer rows/cols, got {rows!r}, {cols!r}")
    if rows < 1 or cols < 1:
        raise SchemaError("matrix dimensions must be positive")
    if rows * cols > MAX_MATRIX_ENTRIES:
        raise SchemaError(
            f"a {rows} x {cols} matrix exceeds the limit of {MAX_MATRIX_ENTRIES} entries"
        )
    if "entries" in obj:
        entries = _complex_from_pairs(obj["entries"], "matrix entries")
        if entries.size != rows * cols:
            raise SchemaError(f"expected {rows * cols} entries, got {entries.size}")
        return as_complex_matrix(entries.reshape(rows, cols))
    if "triplets" in obj:
        try:
            mat = np.zeros((rows, cols), dtype=complex)
            for triplet in obj["triplets"]:
                if not isinstance(triplet, list) or len(triplet) != 4:
                    raise SchemaError(f"triplet {triplet!r} is not [i, j, re, im]")
                i, j, re, im = triplet
                if not (type(i) is int and type(j) is int and 0 <= i < rows and 0 <= j < cols):
                    raise SchemaError(f"triplet index ({i!r}, {j!r}) is not an integer pair "
                                      "in range")
                mat[i, j] = complex(re, im)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"malformed matrix triplets: {exc}") from exc
        return as_complex_matrix(mat)
    raise SchemaError("matrix object needs 'entries' or 'triplets'")


def vector_to_json(vector) -> list:
    return _pairs(as_complex_vector(vector))


def vector_from_json(obj) -> np.ndarray:
    return as_complex_vector(_complex_from_pairs(obj, "vector"))


def _pairs(flat: np.ndarray) -> list:
    """``[[re, im], ...]`` of a 1-D complex array, as Python floats."""
    return np.ascontiguousarray(flat).view(np.float64).reshape(-1, 2).tolist()


def _complex_from_pairs(pairs, name: str) -> np.ndarray:
    """The 1-D complex array of a list of [re, im] pairs.

    Raises SchemaError, naming ``name``, unless every item unpacks into two
    real numbers.  ``complex(re, im)`` keeps the sign of a zero imaginary
    part, which ``re + 1j * im`` would not.
    """
    try:
        return np.array([complex(re, im) for re, im in pairs])
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{name} must be a list of [re, im] pairs") from exc
