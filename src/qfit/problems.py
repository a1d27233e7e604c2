"""Least-squares fit instances: bases, design matrices, normalization.

A fit problem is the overdetermined system F lambda ~ y with F_ij the
j-th basis function evaluated at the i-th abscissa.  Instances are kept
in normalized form: F is rescaled so its largest singular value is 1
(hence ||F^dag F|| = 1, the top of the allowed conditioning band) and y
is rescaled to unit norm.  Both scale factors are recorded so solutions
in the original units stay recoverable:

    lambda_orig = (c_F / c_y) * lambda_norm
    E_orig      = E_norm / c_y^2

``classical_fit`` is the Moore-Penrose reference solver; every
simulator-side result in this package is checked against it.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import stat
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import linalg
from .exceptions import DimensionError, GenerationError, SchemaError

PROBLEM_SCHEMA_VERSION = 1

BASIS_POLYNOMIAL = "polynomial"
BASIS_FOURIER = "fourier"
BASIS_CUSTOM = "custom"


@dataclass(frozen=True)
class FitBasis:
    """Family of fit functions.

    * ``polynomial``: f_j(x) = x**j for j = 0..m-1.
    * ``fourier``:    f_j(x) = exp(2*pi*i*j*x) for j = 0..m-1.
    * ``custom``:     m columns given only as a design matrix; nothing to
      evaluate, so the problem's stored ``design_matrix`` is the whole record.
    """

    kind: str
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise DimensionError("a basis needs at least one fit function")
        if self.kind not in (BASIS_POLYNOMIAL, BASIS_FOURIER, BASIS_CUSTOM):
            raise DimensionError(f"unknown basis kind {self.kind!r}")


@dataclass(frozen=True)
class DataSet:
    """Abscissas and ordinates of the points being fitted."""

    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class FitProblem:
    """A normalized fit instance plus the bookkeeping to undo the scaling."""

    data_set: DataSet
    basis: FitBasis
    design_matrix: np.ndarray  # normalized: sigma_max = 1
    y: np.ndarray  # normalized: unit norm
    scale_f: float  # c_F, applied to the raw design matrix
    scale_y: float  # c_y, applied to the raw y
    seed: int | None = None

    @property
    def n(self) -> int:
        return self.design_matrix.shape[0]

    @property
    def m(self) -> int:
        return self.design_matrix.shape[1]


@dataclass(frozen=True)
class FitSolution:
    lambda_: np.ndarray
    residual_energy: float
    fitted: np.ndarray


def build_design_matrix(x, basis: FitBasis) -> np.ndarray:
    """Evaluate the basis at the abscissas: entry (i, j) = f_j(x_i)."""
    if basis.kind == BASIS_CUSTOM:
        raise DimensionError("a custom basis has no functions to evaluate")
    xs = linalg.as_complex_vector(x)
    j = np.arange(basis.m)
    with np.errstate(over="ignore", invalid="ignore"):
        if basis.kind == BASIS_POLYNOMIAL:
            f = xs[:, None] ** j[None, :]
        else:  # fourier
            f = np.exp(2j * np.pi * np.outer(xs, j))
    if not np.all(np.isfinite(f)):
        raise DimensionError("basis evaluation produced non-finite entries")
    return f


def normalize_problem(
    f_matrix,
    y,
    basis: FitBasis | None = None,
    data_set: DataSet | None = None,
    seed: int | None = None,
) -> FitProblem:
    """Rescale (F, y) into the canonical form described in the module docstring."""
    f = linalg.as_complex_matrix(f_matrix)
    yv = linalg.as_complex_vector(y)
    if f.shape[0] != yv.size:
        raise DimensionError(
            f"F has {f.shape[0]} rows but y has {yv.size} entries"
        )
    with np.errstate(over="ignore"):
        y_norm = float(np.linalg.norm(yv))
    if not 0 < y_norm < math.inf:
        raise DimensionError(f"y must be nonzero with a finite norm, got norm {y_norm}")
    cond = linalg.condition_estimate(f)  # raises on singular F
    scale_f = 1.0 / cond.sigma_max
    scale_y = 1.0 / y_norm
    if basis is None:
        basis = FitBasis(kind=BASIS_CUSTOM, m=f.shape[1])
    if data_set is None:
        data_set = DataSet(x=np.arange(f.shape[0], dtype=complex), y=yv)
    return FitProblem(
        data_set=data_set,
        basis=basis,
        design_matrix=f * scale_f,
        y=yv * scale_y,
        scale_f=scale_f,
        scale_y=scale_y,
        seed=seed,
    )


def classical_fit(problem: FitProblem) -> FitSolution:
    """Reference least-squares solution of the normalized problem."""
    pinv = linalg.pseudoinverse(problem.design_matrix)
    lam = pinv @ problem.y
    fitted = problem.design_matrix @ lam
    residual = fitted - problem.y
    return FitSolution(
        lambda_=lam,
        residual_energy=float(np.vdot(residual, residual).real),
        fitted=fitted,
    )


def denormalized_solution(problem: FitProblem, solution: FitSolution) -> FitSolution:
    """Map a solution of the normalized problem back to the original units."""
    factor = problem.scale_f / problem.scale_y
    return FitSolution(
        lambda_=solution.lambda_ * factor,
        residual_energy=solution.residual_energy / problem.scale_y**2,
        fitted=solution.fitted / problem.scale_y,
    )


# --- synthetic problem generation -------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """Recipe for a reproducible synthetic instance.

    ``kind`` is one of identity | poly | fourier | random.  If
    ``planted_support`` is given, y = F lambda* + noise where lambda*
    carries ``planted_mass`` of its squared norm on the support, with
    per-entry magnitudes bounded away from zero so the support is
    detectable by sampling.  Otherwise y is complex-Gaussian noise, and a
    ``noise`` above 0 is refused.
    """

    n: int
    m: int
    kind: str = "random"
    planted_support: tuple[int, ...] | None = None
    planted_mass: float | None = None
    condition_target: float | None = None
    noise: float = 0.0


def _haar_columns(dim: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """The first ``cols`` columns of a Haar-random dim x dim unitary.

    The whole dim x dim Gaussian matrix is drawn, so the generator's stream
    does not depend on ``cols``; only its first ``cols`` columns are
    QR-factored, since they alone fix those columns of Q.
    """
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z[:, :cols])
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _bounded_mass_vector(size: int, total: float, rng: np.random.Generator) -> np.ndarray:
    """Random complex vector with squared norm ``total`` and per-entry
    squared magnitudes within a factor 3 of each other."""
    weights = rng.uniform(0.5, 1.5, size=size)
    weights *= total / weights.sum()
    phases = np.exp(2j * np.pi * rng.uniform(size=size))
    return np.sqrt(weights) * phases


def _planted_lambda(spec: ProblemSpec, rng: np.random.Generator) -> np.ndarray:
    support = tuple(spec.planted_support)
    if any(not 0 <= j < spec.m for j in support):
        raise GenerationError(f"planted support {support} out of range for m={spec.m}")
    if len(set(support)) != len(support):
        raise GenerationError("planted support indices must be distinct")
    mass = spec.planted_mass if spec.planted_mass is not None else 1.0
    if not 0 < mass <= 1:
        raise GenerationError("planted mass must lie in (0, 1]")
    lam = np.zeros(spec.m, dtype=complex)
    lam[list(support)] = _bounded_mass_vector(len(support), mass, rng)
    rest = [j for j in range(spec.m) if j not in support]
    if rest and mass < 1:
        lam[rest] = _bounded_mass_vector(len(rest), 1.0 - mass, rng)
    return lam


def generate_problem(spec: ProblemSpec, seed: int) -> FitProblem:
    """Build a reproducible fit problem from a spec and a seed."""
    if spec.m < 1 or spec.n < spec.m:
        raise GenerationError(f"need n >= m >= 1, got n={spec.n}, m={spec.m}")
    entries = spec.n * (spec.n if spec.kind in ("random", "identity") else spec.m)
    if entries > linalg.MAX_MATRIX_ENTRIES:
        raise GenerationError(
            f"a {spec.kind} problem with n={spec.n}, m={spec.m} draws a matrix of "
            f"{entries} entries, more than the limit of {linalg.MAX_MATRIX_ENTRIES}"
        )
    if not (math.isfinite(spec.noise) and spec.noise >= 0):
        raise GenerationError(f"noise must be finite and >= 0, got {spec.noise}")
    if spec.noise > 0 and spec.planted_support is None:
        raise GenerationError("noise needs a planted support: without one y is pure noise")
    if spec.condition_target is not None and not math.isfinite(spec.condition_target):
        raise GenerationError(f"condition target must be finite, got {spec.condition_target}")
    rng = np.random.default_rng(seed)

    if spec.kind == "identity":
        if spec.n != spec.m:
            raise GenerationError("identity problems require n == m")
        f_raw = np.eye(spec.n, dtype=complex)
        xs = np.arange(spec.n, dtype=complex)
        basis = FitBasis(kind=BASIS_CUSTOM, m=spec.m)
    elif spec.kind == "poly":
        xs = (np.arange(spec.n) / max(spec.n - 1, 1)).astype(complex)
        basis = FitBasis(kind=BASIS_POLYNOMIAL, m=spec.m)
        f_raw = build_design_matrix(xs, basis)
    elif spec.kind == "fourier":
        xs = ((np.arange(spec.n) + 0.5) / spec.n).astype(complex)
        basis = FitBasis(kind=BASIS_FOURIER, m=spec.m)
        f_raw = build_design_matrix(xs, basis)
    elif spec.kind == "random":
        kappa = spec.condition_target if spec.condition_target is not None else 10.0
        if kappa < 1:
            raise GenerationError("condition target must be >= 1")
        sigma = np.logspace(0.0, -np.log10(kappa), spec.m)
        u = _haar_columns(spec.n, spec.m, rng)
        v = _haar_columns(spec.m, spec.m, rng)
        f_raw = (u * sigma) @ v.conj().T
        xs = np.arange(spec.n, dtype=complex)
        basis = FitBasis(kind=BASIS_CUSTOM, m=spec.m)
    else:
        raise GenerationError(f"unknown problem kind {spec.kind!r}")

    if spec.kind != "random" and spec.condition_target is not None:
        kappa = linalg.condition_estimate(f_raw).kappa
        if kappa > spec.condition_target:
            raise GenerationError(
                f"{spec.kind} basis on this grid has condition {kappa:.3g} "
                f"> target {spec.condition_target:.3g}"
            )

    if spec.planted_support is not None:
        lam = _planted_lambda(spec, rng)
        y_raw = f_raw @ lam
        if spec.noise > 0:
            y_raw = y_raw + spec.noise * (
                rng.normal(size=spec.n) + 1j * rng.normal(size=spec.n)
            ) / np.sqrt(2 * spec.n)
    else:
        y_raw = (rng.normal(size=spec.n) + 1j * rng.normal(size=spec.n)) / np.sqrt(2)

    return normalize_problem(
        f_raw, y_raw, basis=basis, data_set=DataSet(x=xs, y=y_raw), seed=seed
    )


# --- problem files -----------------------------------------------------------
#
# {"schemaVersion": 1, "dataSet": {"x": [[re, im], ...], "y": [[re, im], ...]},
#  "basis": {"kind": ..., "m": ...}, "designMatrix": {...normalized...},
#  "yVector": [...normalized...], "normScale": [cF, cY], "seed": ...}


def problem_to_json(problem: FitProblem) -> dict:
    basis_obj: dict = {"kind": problem.basis.kind, "m": problem.basis.m}
    return {
        "schemaVersion": PROBLEM_SCHEMA_VERSION,
        "dataSet": {
            "x": linalg.vector_to_json(problem.data_set.x),
            "y": linalg.vector_to_json(problem.data_set.y),
        },
        "basis": basis_obj,
        "designMatrix": linalg.matrix_to_json(problem.design_matrix),
        "yVector": linalg.vector_to_json(problem.y),
        "normScale": [problem.scale_f, problem.scale_y],
        "seed": problem.seed,
    }


def problem_from_json(obj: dict) -> FitProblem:
    try:
        version = obj["schemaVersion"]
        data_set = DataSet(
            x=linalg.vector_from_json(obj["dataSet"]["x"]),
            y=linalg.vector_from_json(obj["dataSet"]["y"]),
        )
        basis_obj = obj["basis"]
        f = linalg.matrix_from_json(obj["designMatrix"])
        y = linalg.vector_from_json(obj["yVector"])
        scales = obj["normScale"]
        if not all(type(s) in (int, float) for s in scales):  # JSON true is no number
            raise SchemaError(f"problem file normScale entries must be numbers, got {scales!r}")
        scale_f, scale_y = (float(s) for s in scales)
        seed = obj.get("seed")
        if not isinstance(basis_obj, dict):
            raise SchemaError("problem file basis must be a JSON object")
        kind = basis_obj.get("kind", BASIS_CUSTOM)
        m = f.shape[1] if kind == BASIS_CUSTOM else basis_obj["m"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed problem file: {exc}") from exc
    if version != PROBLEM_SCHEMA_VERSION:
        raise SchemaError(f"unsupported problem schema version {version}")
    for name, values in (("yVector", y), ("dataSet.x", data_set.x), ("dataSet.y", data_set.y)):
        if values.size != f.shape[0]:
            raise SchemaError(
                f"problem file {name} has {values.size} entries but designMatrix "
                f"has {f.shape[0]} rows"
            )
    if kind not in (BASIS_POLYNOMIAL, BASIS_FOURIER, BASIS_CUSTOM):
        raise SchemaError(f"problem file basis kind {kind!r} is unknown")
    if type(m) is not int:  # 2.5, "2" and true are refused, not converted
        raise SchemaError(f"problem file basis m must be an integer, got {m!r}")
    if m != f.shape[1]:
        raise SchemaError(
            f"problem file basis has m = {m} but designMatrix has {f.shape[1]} columns"
        )
    if not all(np.isfinite(c) and c > 0 for c in (scale_f, scale_y)):
        raise SchemaError("problem file normScale entries must be finite and positive")
    if seed is not None and (type(seed) is not int or seed < 0):
        raise SchemaError(f"problem file seed must be an integer >= 0 or null, got {seed!r}")
    problem = FitProblem(
        data_set=data_set,
        basis=FitBasis(kind=kind, m=m),
        design_matrix=f,
        y=y,
        scale_f=scale_f,
        scale_y=scale_y,
        seed=seed,
    )
    if abs(np.linalg.norm(problem.y) - 1.0) > 1e-8:
        raise SchemaError("problem file y vector is not normalized")
    return problem


# --- artifact text -----------------------------------------------------------
#
# With an indent, json.dumps encodes in pure Python, a call per value.  Its
# output is rendered here instead, byte for byte, and the [re, im] pair lists
# that make up most of a problem file go through one %r template at C speed.

_INDENT = "  "


def artifact_text(obj: dict) -> str:
    """The one text form of every JSON artifact qfit writes.

    It is ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` byte for byte,
    and raises the same TypeError wherever that does.
    """
    chunks: list[str] = []
    _render(obj, "\n", chunks)
    chunks.append("\n")
    return "".join(chunks)


def _render(value, newline: str, out: list[str]) -> None:
    """Append ``value``'s JSON text to ``out``; ``newline`` ends its line."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + _INDENT
        pairs = _pair_list_text(value, inner)
        if pairs is not None:
            out += ("[", inner, pairs, newline, "]")
            return
        separator = "[" + inner
        for item in value:
            out.append(separator)
            separator = "," + inner
            _render(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + _INDENT
        separator = "{" + inner
        for key, item in sorted(value.items()):
            out.append(separator)
            separator = "," + inner
            out.append(encode_basestring_ascii(_key_text(key)))
            out.append(": ")
            _render(item, inner, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _pair_list_text(items, newline: str) -> str | None:
    """The JSON items of a list of finite float [re, im] pairs, joined by
    ``"," + newline``; None for any other list, which takes the general path.

    Only exact floats qualify: ``%r`` of a float subclass such as
    ``np.float64`` is not ``float.__repr__``.
    """
    if not ({list, tuple}.issuperset(map(type, items)) and {2}.issuperset(map(len, items))):
        return None
    flat = tuple(itertools.chain.from_iterable(items))
    # A sum is finite only if every term is, so NaN and infinities fall through.
    if not ({float}.issuperset(map(type, flat)) and math.isfinite(sum(flat))):
        return None
    entry = newline + _INDENT
    pair = f"[{entry}%r,{entry}%r{newline}]"
    return ("," + newline).join([pair] * len(items)) % flat


def _replaceable_name(path) -> str | None:
    """The name of the file ``path`` reaches, if renaming a new file over
    that name replaces what ``path`` reaches; None otherwise.

    That takes an existing regular file with one name, which this process
    may write, in a directory it may write, reached through no symbolic
    link that lies under /proc, as the links behind ``/dev/stdout`` and
    ``/dev/fd/N`` do: such a link names an open file, not a directory entry.
    """
    if not os.path.isfile(path):
        return None
    for _ in range(40):  # the most links a path lookup follows
        if not os.path.islink(path):
            break
        directory = os.path.dirname(path) or os.curdir
        if os.path.realpath(directory).startswith("/proc/"):
            return None
        path = os.path.join(directory, os.readlink(path))
    else:
        return None
    directory = os.path.dirname(path) or os.curdir
    if os.stat(path).st_nlink > 1 or not (os.access(path, os.W_OK)
                                          and os.access(directory, os.W_OK)):
        return None
    return path


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to the file ``path``, as one step where a rename can.

    An existing regular file, reached directly or through symbolic links, is
    replaced whole: the text goes to a temporary file beside it, which is
    renamed over it once fully written, so a write that fails leaves the old
    file as it was and removes the temporary file.  The temporary file is
    created anew under a random name, never through a file or link already
    there, and takes the old file's permission bits before any text is
    written.  Every other target is written in place: a new file, a device
    or a pipe has no old contents to keep, and a rename could not keep the
    rest (see ``_replaceable_name``).
    """
    real = _replaceable_name(path)
    if real is None:
        with open(path, "w") as fh:
            fh.write(text)
        return
    head, tail = os.path.split(real)
    mode = stat.S_IMODE(os.stat(real).st_mode)
    temporary = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
    fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with open(fd, "w") as fh:
            os.fchmod(fd, mode)  # before any text is written
            fh.write(text)
        os.replace(temporary, real)
    except BaseException:
        os.unlink(temporary)
        raise


def save_problem(problem: FitProblem, path) -> None:
    write_text_atomic(path, artifact_text(problem_to_json(problem)))


def load_problem(path) -> FitProblem:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"problem file {path} is not UTF-8 text: {exc}") from exc
    return problem_from_json(obj)


def restrict_columns(problem: FitProblem, support) -> FitProblem:
    """New problem keeping only the given design-matrix columns."""
    support = sorted(int(j) for j in support)
    if not support or any(not 0 <= j < problem.m for j in support):
        raise DimensionError(f"support {support} invalid for m={problem.m}")
    f_raw = problem.design_matrix[:, support] / problem.scale_f
    y_raw = problem.y / problem.scale_y
    return normalize_problem(f_raw, y_raw, data_set=problem.data_set, seed=problem.seed)
