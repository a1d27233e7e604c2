"""Self-checks of the benchmark: oracle, failure accounting and tracing.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]

import qfit.algorithms  # noqa: E402
import qfit.cli  # noqa: E402

import harness  # noqa: E402
import hostspeed  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Op, generate_op  # noqa: E402


@pytest.fixture
def work(request) -> Path:
    """A scratch directory inside the checkout, under the benchmark's work dir."""
    path = ROOT / harness.WORK_DIR / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cli(argv) -> None:
    error = harness.run_cli(qfit.cli.main, argv)
    assert error is None, error


@pytest.fixture
def small_run(work):
    """A Fourier problem, which phase estimation solves exactly, and a run report on it."""
    problem = generate_op("fourier", 8, 4, 11, work / "problem.json")
    cli(problem.argv())
    op = Op("run", ("--problem", str(problem.out), "-T", "64", "--window", "uniform",
                    "--shots", "1000", "--seed", "5"),
            work / "report.json", problem.out, {"passes": 4, "shots": 1000})
    cli(op.argv())
    return problem, op


def check_run(report: dict, problem: Op) -> list[str]:
    p = json.loads(problem.out.read_text())
    return oracle.check_fit(report, oracle.matrix(p["designMatrix"]),
                            oracle.vector(p["yVector"]), {"passes": 4, "shots": 1000},
                            fidelity_floor=0.99, overlap_tol=1e-3)


def _shift_overlap(report):
    report["exactOverlapSq"] += 0.01


def _lower_fidelity(report):
    report["lambdaFidelity"] -= 0.1


def _drop_distance(report):
    report["successProbabilities"][1]["oracleDistance"] = None


@pytest.mark.parametrize("mutate", [_shift_overlap, _lower_fidelity, _drop_distance])
def test_oracle_rejects_a_changed_fit_report(small_run, mutate):
    problem, op = small_run
    report = json.loads(op.out.read_text())
    assert check_run(report, problem) == []
    mutate(report)
    assert check_run(report, problem) != []


def test_oracle_rejects_a_changed_oracle_report_and_problem(small_run, work):
    problem, _ = small_run
    cli(["oracle", "--problem", str(problem.out), "--out", str(work / "oracle.json")])
    p = json.loads(problem.out.read_text())
    report = json.loads((work / "oracle.json").read_text())
    assert oracle.check_oracle(report, p) == []
    assert oracle.check_problem(p, problem.expect) == []
    report["lambda"][0][0] += 1e-6
    assert oracle.check_oracle(report, p) != []
    p["yVector"][0][1] += 1e-6
    assert oracle.check_problem(p, problem.expect) != []


def test_oracle_rejects_a_changed_learn_report(work):
    support = (3, 9)
    problem = generate_op("random", 24, 16, 7, work / "planted.json", planted=support)
    cli(problem.argv())
    expect = {"passes": 4, "shots": 200, "support": support, "tom_epsilon": 0.05}
    out = work / "learn.json"
    cli(["learn", "--problem", str(problem.out), "-T", "256", "--window", "sine",
         "--shots", "200", "--m-prime", "2", "--seed", "1", "--out", str(out)])
    p = json.loads(problem.out.read_text())
    report = json.loads(out.read_text())
    assert oracle.check_learn(report, p, expect, 0.75, 0.3) == []
    report["recoveredSupport"] = [3, 10]
    assert oracle.check_learn(report, p, expect, 0.75, 0.3) != []


def test_failures_are_counted_not_raised(work, monkeypatch):
    bad = work / "bad.json"
    bad.write_text("{bad")
    error = harness.run_cli(qfit.cli.main, ["run", "--problem", str(bad)])
    assert error is not None and "JSONDecodeError" in error

    problem = generate_op("random", 6, 3, 1, work / "problem.json", condition_target=3.0)
    cli(problem.argv())
    monkeypatch.setenv("QFIT_SEED", "abc")
    error = harness.run_cli(qfit.cli.main, ["run", "--problem", str(problem.out), "-T", "64",
                                            "--out", str(work / "r.json")])
    assert error is not None and "ValueError" in error

    assert harness.run_cli(qfit.cli.main, ["run"]) is not None  # usage error
    missing = harness.run_cli(qfit.cli.main, ["oracle", "--problem", str(work / "nope.json")])
    assert missing == "exit code 2"  # qfit's own error JSON path


def test_traced_and_untraced_reports_are_byte_identical(small_run):
    problem, op = small_run
    untraced = op.out.read_bytes()
    original = qfit.algorithms.apply_hermitian_via_pe
    recorder = tracing.Recorder()
    recorder.op = 0
    out = harness.traced_path(op.out)
    with tracing.patched(recorder):
        index = recorder.begin(tracing.ROOT_SPAN)
        cli(op.argv(out))
        recorder.end(index)
    assert out.read_bytes() == untraced
    assert qfit.algorithms.apply_hermitian_via_pe is original

    totals = tracing.span_totals(recorder.spans)
    # Four passes, each evolving forward and then back in its uncompute.
    assert totals["sim.apply_hermitian_via_pe"][0] == 4
    assert totals["sim.conditional_evolution"][0] == 8
    assert totals["sim.uncompute_clock"][0] == 4
    assert totals["problems.load_problem"][0] == 1
    root = totals[tracing.ROOT_SPAN][1]
    assert sum(t[2] for t in totals.values()) == pytest.approx(root, rel=1e-9)
    metrics = tracing.layer_metrics(recorder, 1)
    assert metrics["sim.conditional_evolution.cmacs_computed"] == 8 * 2 * 64 * 12 * 12 * 2
    assert metrics["linalg.eig_hermitian.useful_ratio"] == 1.0


def test_patch_table_names_are_bound_where_looked_up():
    for module_name, names in tracing.PATCH_TABLE.items():
        module = importlib.import_module(module_name)
        for attr in names:
            assert callable(getattr(module, attr)), (module_name, attr)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(100)]
    assert harness.tail(values) == (90.0, 89.0)
    assert harness.tail(values[:5]) == (20.0, 0.0)


def test_loop_scales_each_operation_by_the_probe(work, monkeypatch):
    bench = harness.Bench(ROOT, WORKLOADS["sweep-small"], 3, qfit.cli.main)
    bench.out_dir = work
    bench.probe = hostspeed.HostProbe(("interpreter",), work)
    # A host at half the reference speed: every scaled time is half the wall time.
    unit = 2 * bench.probe.nominal_s
    monkeypatch.setattr(bench.probe, "run", lambda seconds: (3, 3 * unit))
    records, _ = bench.loop(0.3)
    assert len(records) >= bench.workload.rerun_ops
    assert len(bench.probe_s) >= 1
    for record in records:
        assert record["error"] is None
        assert record["scaled_s"] == pytest.approx(record["s"] / 2, rel=1e-12)


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == [PERFBENCH.name]


def test_inputs_depend_only_on_the_seed(work):
    for workload in WORKLOADS.values():
        a = workload.make_inputs(3, work)
        b = workload.make_inputs(3, work)
        assert [op.argv() for op in a] == [op.argv() for op in b]
        ops = [workload.op(a, 3, i, work).argv() for i in range(6)]
        assert ops == [workload.op(b, 3, i, work).argv() for i in range(6)]
        assert ops != [workload.op(a, 4, i, work).argv() for i in range(6)]


def test_run_refuses_a_directory_without_qfit(work):
    shutil.copy(ROOT / "BENCHMARK.json", work)
    shutil.copytree(PERFBENCH, work / PERFBENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "run-wide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=work, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
