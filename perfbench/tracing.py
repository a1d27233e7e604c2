"""Per-layer spans for qfit, recorded from outside the package.

``patched(recorder)`` replaces qfit's public functions with timing
wrappers for the duration of a ``with`` block.  Each function is wrapped
in the namespace where its caller looks it up: ``qfit.cli`` and
``qfit.algorithms`` bind most of their callees by name at import, so
wrapping only the defining module would miss those calls.  Spans stay in
memory; ``harness.py`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# Module whose globals hold the name -> layer the function belongs to.
# A function bound in several namespaces is wrapped in each, under one span
# name, so every call passes through exactly one wrapper.
PATCH_TABLE = {
    "qfit.cli": {
        "generate_problem": "problems",
        "save_problem": "problems",
        "load_problem": "problems",
        "classical_fit": "problems",
        "denormalized_solution": "problems",
        "estimate_fit_quality": "algorithms",
        "learn_sparse_fit": "algorithms",
        "fit_report_to_json": "algorithms",
        "learn_report_to_json": "algorithms",
        "cost_model": "cost",
    },
    "qfit.algorithms": {
        "embed": "linalg",
        "eig_hermitian": "linalg",
        "condition_estimate": "linalg",
        "sparsity_profile": "linalg",
        "classical_fit": "problems",
        "restrict_columns": "problems",
        "make_pipeline_spec": "algorithms",
        "prepare_fit_parameters": "algorithms",
        "estimate_fit_quality": "algorithms",
        "fit_report_to_json": "algorithms",
        "apply_hermitian_via_pe": "sim",
        "extract_system_vector": "sim",
        "swap_test": "sim",
        "measure_computational": "sim",
        "cost_model": "cost",
    },
    "qfit.sim": {
        "reflect_clock_window": "sim",
        "conditional_evolution": "sim",
        "qft_clock": "sim",
        "controlled_rotation": "sim",
        "uncompute_clock": "sim",
        "postselect_flag": "sim",
        "postselect_clock_zero": "sim",
        "extract_system_vector": "sim",
        "apply_matrix_function": "linalg",
    },
    # qfit.problems calls these as ``linalg.<name>``.
    "qfit.linalg": {
        "condition_estimate": "linalg",
        "pseudoinverse": "linalg",
    },
    "qfit.problems": {
        "normalize_problem": "problems",
    },
    # qfit.algorithms calls these as ``tomography.<name>``.
    "qfit.tomography": {
        "plan_budget": "tomography",
        "reconstruct_pure_state": "tomography",
    },
    # The report serializers import this at call time.
    "qfit.cost": {
        "cost_report_to_json": "cost",
    },
}

ROOT_SPAN = "cli.op"


class Recorder:
    """Spans, counters and distinct-input sets of one traced run.

    A span is ``[name, start, end, parent index or -1, op id]``; spans of
    one operation share its op id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self.op = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                args = hook(self, args)
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced


# --- counts taken at the layer boundaries ---------------------------------------


def _count_cmacs(rec: Recorder, args):
    # Two einsums, each T * D^2 complex multiply-adds per flag value.
    t, d, flags = args[0].amplitudes.shape
    rec.counters["sim.conditional_evolution.cmacs_computed"] += 2 * t * d * d * flags
    return args


def _count_state_bytes(rec: Recorder, args):
    t, d, flags = args[0].amplitudes.shape
    rec.counters["sim.pass.state_bytes_computed"] += 16 * t * d * flags
    return args


def _note_operator(rec: Recorder, args):
    op = args[0]
    matrix = getattr(op, "matrix", op)
    rec.distinct["linalg.eig_hermitian"].add((rec.op, hash(matrix.tobytes())))
    return args


def _note_problem(rec: Recorder, args):
    problem = args[0]
    key = hash(problem.design_matrix.tobytes() + problem.y.tobytes())
    rec.distinct["problems.classical_fit"].add((rec.op, key))
    return args


def _count_preparations(rec: Recorder, args):
    preparer = args[0]

    def counted():
        rec.counters["tomography.preparations"] += 1
        return preparer()

    return (counted, *args[1:])


HOOKS = {
    "sim.conditional_evolution": _count_cmacs,
    "sim.apply_hermitian_via_pe": _count_state_bytes,
    "linalg.eig_hermitian": _note_operator,
    "problems.classical_fit": _note_problem,
    "tomography.reconstruct_pure_state": _count_preparations,
}


@contextmanager
def patched(recorder: Recorder):
    """Wrap every function in PATCH_TABLE; restore the originals on exit."""
    saved = []
    try:
        for module_name, names in PATCH_TABLE.items():
            module = importlib.import_module(module_name)
            for attr, layer in names.items():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                name = f"{layer}.{attr}"
                setattr(module, attr, recorder.wrap(name, original, HOOKS.get(name)))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --- per-layer metrics -----------------------------------------------------------

# (span name, statistics reported per operation).  Layers that only one
# workload exercises report their share of the traced operation time
# rather than seconds: elsewhere they read 0, and a time that reads the
# same on every run is refused as unmeasured.
SPAN_METRICS = (
    ("sim.conditional_evolution", ("calls", "s", "self_s")),
    ("sim.uncompute_clock", ("s", "self_s")),
    ("sim.qft_clock", ("s",)),
    ("sim.reflect_clock_window", ("s",)),
    ("sim.controlled_rotation", ("s",)),
    ("sim.postselect_flag", ("s",)),
    ("sim.postselect_clock_zero", ("s",)),
    ("sim.extract_system_vector", ("s",)),
    ("sim.apply_hermitian_via_pe", ("calls", "s", "self_s")),
    ("sim.swap_test", ("s",)),
    ("sim.measure_computational", ("share",)),
    ("linalg.eig_hermitian", ("calls", "s", "useful_ratio")),
    ("linalg.embed", ("calls",)),
    ("linalg.condition_estimate", ("calls",)),
    ("problems.classical_fit", ("calls", "s", "useful_ratio")),
    ("problems.load_problem", ("s",)),
    ("problems.save_problem", ("share",)),
    ("problems.generate_problem", ("share",)),
    ("algorithms.prepare_fit_parameters", ("calls", "self_s")),
    ("algorithms.estimate_fit_quality", ("calls", "self_s")),
    ("algorithms.learn_sparse_fit", ("calls", "self_share")),
    ("algorithms.fit_report_to_json", ("s",)),
    ("algorithms.learn_report_to_json", ("share",)),
    ("tomography.reconstruct_pure_state", ("share",)),
    ("cost.cost_model", ("calls", "s")),
    (ROOT_SPAN, ("self_s",)),
)

STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "share": "frac", "self_share": "frac",
              "useful_ratio": "ratio"}

COUNTER_METRICS = (
    ("sim.conditional_evolution.cmacs_computed", "cmac"),
    ("sim.pass.state_bytes_computed", "B"),
    ("tomography.preparations", "count"),
)

# Measured by harness.py rather than from spans.
RUN_METRICS = (
    ("import.qfit_cli_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.self_coverage_frac", "frac"),
)

PER_LAYER = (
    tuple((f"{span}.{stat}", STAT_UNITS[stat]) for span, stats in SPAN_METRICS for stat in stats)
    + COUNTER_METRICS
    + RUN_METRICS
)


def span_totals(spans) -> dict[str, list]:
    """Span name -> [calls, total seconds, self seconds].

    Self time is a span's duration minus that of its direct children;
    spans of one thread nest, so the children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, parent, op) in enumerate(spans):
        entry = totals[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child[i]
    return totals


def layer_metrics(recorder: Recorder, n_ops: int) -> dict[str, float]:
    """Every span and counter metric of PER_LAYER, per traced operation.

    A share is the layer's time over the traced operations' total time.
    """
    totals = span_totals(recorder.spans)
    op_seconds = totals[ROOT_SPAN][1]
    out = {}
    for span, stats in SPAN_METRICS:
        calls, seconds, self_seconds = totals.get(span, (0, 0.0, 0.0))
        values = {
            "calls": calls / n_ops,
            "s": seconds / n_ops,
            "self_s": self_seconds / n_ops,
            "share": seconds / op_seconds,
            "self_share": self_seconds / op_seconds,
            "useful_ratio": len(recorder.distinct[span]) / calls if calls else 0.0,
        }
        for stat in stats:
            out[f"{span}.{stat}"] = values[stat]
    for name, _unit in COUNTER_METRICS:
        out[name] = recorder.counters[name] / n_ops
    return out
