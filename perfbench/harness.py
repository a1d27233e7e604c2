"""Closed-loop benchmark of the qfit CLI; ``run.py`` is its entry point.

One client in one process drives ``qfit.cli.main`` in-process, so
argument parsing, problem-file reads, simulation, report JSON and file
writes are all inside each timed operation.  Inputs are made from
``--seed``.  After every operation a fixed probe (``hostspeed.py``)
runs for a share of its time, and the loop's timing metrics are scaled
by it to the speed of a reference host, so that the host's drifting
speed cancels.  Every output is checked by ``oracle.py`` (numpy only)
as soon as it is written, and after the loop the first operations are
re-executed to check that their reports are byte-identical.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
operation once untraced and once with every qfit layer wrapped from
outside (``tracing.py``), checks that both reports are byte-identical,
and reports per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
list every metric by name with its unit, the failure counts and the run
metadata.  Spans and the full result are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import click
import numpy as np
import qfit.cli

from oracle import check_fit, check_learn, check_oracle, check_problem, fit_infidelity
from oracle import matrix, vector
from hostspeed import HostProbe
from tracing import PER_LAYER, ROOT_SPAN, Recorder, layer_metrics, patched
from workloads import WORKLOADS

WORK_DIR = ".perfbench"
SETUP_REPS = 9
# After each operation the probe runs for this share of its time, and the
# probe's speed over blocks of at least BLOCK_S seconds scales the block.
PROBE_SHARE = 0.15
BLOCK_S = 0.5
# Probe time before the first block.
FIRST_PROBE_S = 0.03
# Imports qfit.cli in a fresh interpreter, then runs the interpreter probe
# there, in the process whose speed set-up time depends on.  Prints the import
# time, the probe's unit time and the time the probe took, in seconds.
IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
import qfit.cli
imported = time.perf_counter()
from pathlib import Path
from hostspeed import HostProbe
units, elapsed = HostProbe(("interpreter",), Path(sys.argv[1])).run(0.03)
print(imported - start, elapsed / units, time.perf_counter() - imported)
"""
# Infidelities below double-precision rounding read as this floor.
INFIDELITY_FLOOR = 1e-16

END_TO_END = (
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("oracle_pass_frac", "frac"),
    ("rerun_match_frac", "frac"),
    ("fit_fidelity_digits", "digits"),
)


def run_cli(main: click.Group, argv: list[str]) -> str | None:
    """Run one qfit invocation in-process; None on success, else why it failed.

    A failing operation is counted, never fatal: the loop must keep
    running whatever one invocation raises.
    """
    try:
        code = main.main(args=argv, prog_name="qfit", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    except click.exceptions.ClickException as exc:
        return f"{type(exc).__name__}: {exc.format_message()}"
    except click.exceptions.Abort:
        return "Abort"
    except Exception:
        return traceback.format_exc()
    return None if code in (None, 0) else f"exit code {code}"


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with 10 samples beyond it.

    The percentile is by nearest rank.  With 11 samples or fewer that is
    the minimum.
    """
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def import_probe(root: Path, work: Path) -> tuple[float, float, float]:
    """Launch a fresh interpreter that imports qfit.cli and runs the probe.

    Returns its import time, the probe's unit time and the probe's own time.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(Path(__file__).resolve().parent)]))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(work)], cwd=root, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    imported, unit, probe = (float(x) for x in done.stdout.split())
    return imported, unit, probe


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (root / ".git" / name).is_file():
        return (root / ".git" / name).read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata(root: Path, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qfit").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(root),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREADS" in k},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Bench:
    """One workload run: set-up, warm-up, the closed loop and the checks."""

    def __init__(self, root: Path, workload, seed: int, main: click.Group):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.main = main
        self.work = root / WORK_DIR / workload.name
        self.out_dir = self.work / "out"
        self.inputs = []
        self.probe = None
        self.probe_s = []
        # Report bytes of the operations the rerun check repeats.
        self.first_reports = {}

    def setup(self) -> tuple[list[float], list[float], list[float]]:
        """Time a fresh import plus writing the input files, SETUP_REPS times.

        Returns the set-up wall times, the same scaled by the interpreter
        probe run in the fresh interpreter (the launch and import that
        dominate set-up run there, not in this process), and the import
        times.  The probe's own time is not counted in set-up.
        """
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "inputs").mkdir(parents=True)
        self.out_dir.mkdir()
        self.probe = HostProbe(self.workload.probe, self.work)
        nominal_s = HostProbe.nominal(("interpreter",))
        setup_s, scaled_s, import_s = [], [], []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            imported, unit, probe = import_probe(self.root, self.work)
            import_s.append(imported)
            self.inputs = self.workload.make_inputs(self.seed, self.work / "inputs")
            for op in self.inputs:
                error = run_cli(self.main, op.argv())
                if error is not None:
                    raise RuntimeError(f"set-up failed: qfit {' '.join(op.argv())}: {error}")
            setup_s.append(time.perf_counter() - start - probe)
            scaled_s.append(setup_s[-1] * nominal_s / unit)
        for i in range(self.workload.warmup_ops):
            run_cli(self.main, self.op(i).argv())
        return setup_s, scaled_s, import_s

    def op(self, i: int):
        return self.workload.op(self.inputs, self.seed, i, self.out_dir)

    def execute(self, argv: list[str], recorder=None) -> tuple[float, str | None]:
        """Run one operation, traced when a recorder is given: (seconds, error)."""
        if recorder is None:
            start = time.perf_counter()
            error = run_cli(self.main, argv)
            return time.perf_counter() - start, error
        with patched(recorder):
            start = time.perf_counter()
            index = recorder.begin(ROOT_SPAN)
            try:
                error = run_cli(self.main, argv)
            finally:
                recorder.end(index)
            return time.perf_counter() - start, error

    def loop(self, seconds: float, recorder=None) -> tuple[list[dict], float]:
        """The closed loop: operation i + 1 starts when operation i has ended.

        After each operation the probe runs for PROBE_SHARE of its wall
        time, carried over as a debt when that is less than one probe
        unit.  Operations are grouped in blocks of at least BLOCK_S
        seconds; every operation's wall time ``s`` is also kept scaled,
        as ``scaled_s``, by the mean probe unit time over its block and
        the block before.  Each operation's report is checked as soon as it is written,
        outside the operation's time, because reports go to a few
        reused paths (see ``workloads.OUT_SLOTS``).  With a recorder,
        each operation also runs traced, writing its report next to the
        untraced one; which runs first alternates.
        """
        records = []
        start = time.perf_counter()
        before = unit_s(self.probe.run(FIRST_PROBE_S))
        owed = 0.0
        i = 0

        def more() -> bool:
            return i < self.workload.rerun_ops or time.perf_counter() - start < seconds

        while more():
            block = []
            units, probe_s = 0, 0.0
            block_start = time.perf_counter()
            while more() and (not block or time.perf_counter() - block_start < BLOCK_S):
                op = self.op(i)
                record = {"i": i, "op": op}
                runs = [("", op.argv(), None)]
                if recorder is not None:
                    recorder.op = i
                    runs.append(("traced_", op.argv(traced_path(op.out)), recorder))
                    if i % 2:
                        runs.reverse()
                for prefix, argv, rec in runs:
                    record[prefix + "s"], record[prefix + "error"] = self.execute(argv, rec)
                owed += PROBE_SHARE * record["s"]
                if owed > 0:
                    ran, elapsed = self.probe.run(owed)
                    units, probe_s, owed = units + ran, probe_s + elapsed, owed - elapsed
                self.check(record, traced=recorder is not None)
                block.append(record)
                i += 1
            if units == 0:
                units, probe_s = self.probe.run(0)
            after = probe_s / units
            self.probe_s.append(after)
            factor = scale(self.probe.nominal_s, before, after)
            before = after
            for record in block:
                record["scaled_s"] = record["s"] * factor
            records += block
        return records, time.perf_counter() - start

    def check(self, record: dict, traced: bool) -> None:
        """Oracle-check one operation's report; note failures in the record."""
        op = record["op"]
        record["oracle"] = []
        if record["error"] is not None:
            record["oracle"] = ["operation failed"]
            return
        w = self.workload
        try:
            data = op.out.read_bytes()
            if record["i"] < w.rerun_ops:
                self.first_reports[record["i"]] = data
            if traced:
                record["traced_match"] = (record["traced_error"] is None
                                          and traced_path(op.out).read_bytes() == data)
            report = json.loads(data)
            if op.command == "generate":
                fails = check_problem(report, op.expect)
            elif op.command == "oracle":
                fails = check_oracle(report, json.loads(op.problem.read_text()))
            elif op.command == "run":
                p = json.loads(op.problem.read_text())
                fails = check_fit(report, matrix(p["designMatrix"]), vector(p["yVector"]),
                                  op.expect, w.fidelity_floor, w.overlap_tol)
            else:
                fails = check_learn(report, json.loads(op.problem.read_text()), op.expect,
                                    w.fidelity_floor, w.overlap_tol)
            if op.command in ("run", "learn"):
                record["infidelity"] = fit_infidelity(report)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            fails = [f"unreadable report: {type(exc).__name__}: {exc}"]
        record["oracle"] = fails

    def rerun(self, records: list[dict]) -> list[str]:
        """Re-execute the first operations in order, with the same arguments; compare bytes.

        In order, because a ``sweep-small`` operation reads the problem
        file that the ``generate`` before it wrote.
        """
        mismatches = []
        for record in records[: self.workload.rerun_ops]:
            op = record["op"]
            before = self.first_reports.get(record["i"])
            error = run_cli(self.main, op.argv())
            if error is not None or before is None or op.out.read_bytes() != before:
                mismatches.append(f"op {record['i']} ({op.command}): rerun differs "
                                  f"({error or 'bytes'})")
        return mismatches


def unit_s(run: tuple[int, float]) -> float:
    """Seconds per probe unit of a ``HostProbe.run``."""
    units, elapsed = run
    return elapsed / units


def scale(nominal_s: float, before: float, after: float) -> float:
    """Scale for a span between two probe unit times: nominal over their mean."""
    return nominal_s / ((before + after) / 2)


def traced_path(out: Path) -> Path:
    return out.with_name(out.stem + ".traced.json")


def end_to_end(records, wall, peak_rss_mb, setup, reruns, rerun_mismatches, probe_s,
               probe_nominal_s) -> tuple[dict, dict]:
    """End-to-end metrics, and the raw counts, wall times and percentiles behind them.

    The timing metrics are scaled by the probes; their wall-time
    counterparts are in the details.
    """
    setup_s, scaled_setup_s = setup
    n = len(records)
    times = [r["scaled_s"] for r in records]
    wall_times = [r["s"] for r in records]
    errors = sum(r["error"] is not None for r in records)
    oracle_fails = sum(bool(r["oracle"]) for r in records)
    infidelities = [r["infidelity"] for r in records if r.get("infidelity") is not None]
    worst = max(max(infidelities, default=INFIDELITY_FLOOR), INFIDELITY_FLOOR)
    pct, tail_s = tail(times)
    metrics = {
        "latency_p50_s": statistics.median(times),
        "latency_tail_s": tail_s,
        "ops_per_s": (n - errors) / sum(times),
        "setup_s": statistics.median(scaled_setup_s),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1 - errors / n,
        "oracle_pass_frac": 1 - oracle_fails / n,
        "rerun_match_frac": 1 - rerun_mismatches / reruns,
        "fit_fidelity_digits": -math.log10(worst),
    }
    details = {
        "ops": n,
        "loop_s": wall,
        "latency_tail_percentile": pct,
        "latency_p50_wall_s": statistics.median(wall_times),
        "latency_tail_wall_s": tail(wall_times)[1],
        "ops_per_wall_s": (n - errors) / wall,
        "setup_wall_s": statistics.median(setup_s),
        "probe_s": statistics.median(probe_s),
        "probe_nominal_s": probe_nominal_s,
        "probes": len(probe_s),
        "error_frac": errors / n,
        "oracle_fail_frac": oracle_fails / n,
        "rerun_mismatch_frac": rerun_mismatches / reruns,
        "reruns": reruns,
        "fit_infidelity_max": max(infidelities, default=None),
        "setup_wall_s_samples": setup_s,
        "latency_s_samples": times,
        "latency_wall_s_samples": wall_times,
        "probe_s_samples": probe_s,
    }
    return metrics, details


def per_layer(recorder, records, import_s) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, plus the run-level trace metrics."""
    n = len(records)
    traced = [r["traced_s"] for r in records]
    untraced = [r["s"] for r in records]
    root_total = sum(end - start for name, start, end, parent, op in recorder.spans
                     if name == ROOT_SPAN)
    metrics = layer_metrics(recorder, n)
    metrics["import.qfit_cli_s"] = statistics.median(import_s)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    # Self times of all spans of an operation sum to its root span; this is
    # the share of the measured traced time that they account for.
    metrics["trace.self_coverage_frac"] = root_total / sum(traced)
    mismatched = [r["i"] for r in records if not r.get("traced_match")]
    details = {"traced_ops": n, "traced_report_mismatches": mismatched,
               "spans": len(recorder.spans)}
    return metrics, details


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str], root: Path) -> int:
    args = parse_args(argv, WORKLOADS)
    bench = Bench(root, WORKLOADS[args.workload], args.seed, qfit.cli.main)
    setup_s, scaled_setup_s, import_s = bench.setup()
    recorder = Recorder() if args.trace else None
    records, wall = bench.loop(args.seconds, recorder)
    # Read when the loop ends: its checks hold one report and problem at a time.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    oracle_messages = [f"op {r['i']} ({r['op'].command}): {msg}"
                       for r in records if r["error"] is None for msg in r["oracle"]]
    rerun_messages = bench.rerun(records)
    reruns = min(len(records), bench.workload.rerun_ops)
    metrics, details = end_to_end(records, wall, peak_rss_mb, (setup_s, scaled_setup_s),
                                  reruns, len(rerun_messages), bench.probe_s,
                                  bench.probe.nominal_s)
    names = END_TO_END
    correct = (details["error_frac"] == 0 and not rerun_messages
               and details["oracle_fail_frac"] <= bench.workload.oracle_fail_allowed)
    if recorder is not None:
        metrics, trace_details = per_layer(recorder, records, import_s)
        details.update(trace_details)
        correct = (correct and not trace_details["traced_report_mismatches"]
                   and all(r["traced_error"] is None for r in records))
        names = PER_LAYER
        (bench.work / "spans.json").write_text(json.dumps(recorder.spans))

    units = dict(names)
    meta = metadata(root, args)
    failed = sum(r["error"] is not None or bool(r["oracle"]) for r in records)
    result = {
        "correct": bool(correct),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    failures = ([f"op {r['i']}: {r['error']}" for r in records if r["error"] is not None]
                + oracle_messages + rerun_messages)
    (bench.work / "result.json").write_text(json.dumps(
        {"meta": meta, "result": result, "details": details, "failures": failures},
        indent=2, default=str))

    for message in failures[:20]:
        print(f"perfbench: {message}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(records)} operations in {wall:.2f} s, correct={result['correct']}")
    for name, unit in names:
        print(f"  {name:<44} {metrics[name]:.6g} {unit}")
    for key, value in details.items():
        if not key.endswith("_samples"):
            print(f"  {key:<44} {value}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0
