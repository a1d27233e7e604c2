"""Run the benchmark on two commits in alternating pairs and summarize.

    python3 scripts/bench_pairs.py PARENT CHANGE --seed S --pairs N --out BENCH_k.json

Extracts each commit with ``git archive`` into a temporary directory and
runs ``python3 perfbench/run.py --workload W --seed SEED --seconds X
--trace 0`` there, one run at a time, for every workload ``W`` of
``BENCHMARK.json`` with its ``run_seconds`` as ``X``.  Pair ``i`` of each
workload uses seed ``S + i``; the parent runs first in even pairs and the
change first in odd ones.  For every end-to-end metric of
``BENCHMARK.json`` the output holds each side's median and quartiles over
its runs, every run's value, the relative change of the medians, the
pairs the change won and lost (ties count for neither) and
``within_bound``: whether the change's median is worse than the parent's
by no more than the metric's bound.  The ``wall`` block holds, per
workload and side, each paired run's unscaled median latency and its
probe's median unit time (``latency_p50_wall_s`` and ``probe_s`` from the
``details`` of its ``.perfbench/<workload>/result.json``), so a scaled
gain can be checked against wall time.  After the pairs, each side runs
every workload once more with ``--trace 1`` at seed ``S + N``; the
top-level ``traced`` block holds those runs' per-layer values per
operation as they read, zeros included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(commit: str, dest: Path) -> dict:
    """Write ``commit``'s tree into ``dest``; its commit and ``src`` tree ids."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=REPO, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return {"commit": git("rev-parse", commit), "src_tree": git("rev-parse", f"{commit}:src")}


WALL_KEYS = ("latency_p50_wall_s", "probe_s")


def wall_times(root: Path, workload: str) -> dict:
    """The unscaled timings in the details of ``workload``'s last run in ``root``."""
    result = json.loads((root / ".perfbench" / workload / "result.json").read_text())
    return {key: result["details"][key] for key in WALL_KEYS}


def run_once(root: Path, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict]:
    """One benchmark run in ``root``: its result object and its meta line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv[1:])} in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    return json.loads(lines[-1]), meta


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(spec: dict, parent: list[float], change: list[float]) -> dict:
    """One metric over the pairs, as in the committed ``BENCH_*.json`` files."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    rel = (c["median"] - p["median"]) / p["median"]
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "change_minus_parent_rel": rel,
        "pairs_won": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
        "pairs_lost": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "within_bound": bool(sign * rel <= spec["bound"]),
        "parent_values": parent,
        "change_values": change,
    }


def measure(benchmark: dict, roots: dict, commits: dict, seeds: list[int]) -> dict:
    """Run every pair of every workload; the summary in ``BENCH_*.json`` layout."""
    seconds = benchmark["run_seconds"]
    summary: dict = {
        "what": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                "--trace 0: parent commit against change, each side run from a git "
                "archive of its commit; timings are host-speed scaled as perfbench "
                "reports them",
        **commits,
        "seeds": seeds,
        "order": f"pair i uses seed {seeds[0]}+i; the parent runs first in even pairs, "
                 "the change first in odd pairs",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cores": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
        "workloads": {},
        "wall": {"what": "per workload and side, each paired run's latency_p50_wall_s "
                         "and probe_s (s, unscaled), in pair order"},
    }
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs: dict = {"parent": [], "change": []}
        wall = {side: {key: [] for key in WALL_KEYS} for side in runs}
        for i, seed in enumerate(seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                result, meta = run_once(roots[side], workload, seed, seconds, 0)
                summary[side]["source_sha256"] = meta["source_sha256"]
                runs[side].append(result)
                for key, value in wall_times(roots[side], workload).items():
                    wall[side][key].append(value)
                print(f"{workload} pair {i} seed {seed} {side}: latency_p50_s "
                      f"{result['metrics']['latency_p50_s']['value']:.6g}, "
                      f"correct={result['correct']}", file=sys.stderr, flush=True)
        summary["workloads"][workload] = {
            "correct_runs": {side: sum(r["correct"] for r in runs[side]) for side in runs},
            "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in runs},
            "attempted_ops": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
            "metrics": {
                spec["name"]: summarize(
                    spec, *([r["metrics"][spec["name"]]["value"] for r in runs[side]]
                            for side in ("parent", "change")))
                for spec in benchmark["end_to_end"]
            },
        }
        summary["wall"][workload] = wall
    return summary


def measure_traced(benchmark: dict, roots: dict, seed: int) -> dict:
    """One ``--trace 1`` run per workload and side: the ``traced`` block."""
    seconds = benchmark["run_seconds"]
    block: dict = {"what": f"one --trace 1 run per workload and side, seed {seed}, "
                           f"--seconds {seconds:g}; per-operation values"}
    for workload in (w["name"] for w in benchmark["workloads"]):
        block[workload] = {}
        for side in ("parent", "change"):
            result, _ = run_once(roots[side], workload, seed, seconds, 1)
            block[workload][side] = {
                "correct": result["correct"],
                **{name: metric["value"] for name, metric in result["metrics"].items()},
            }
            print(f"{workload} traced seed {seed} {side}: correct={result['correct']}",
                  file=sys.stderr, flush=True)
    return block


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="commit measured as the parent")
    parser.add_argument("change", help="commit measured as the change")
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.pairs < 1 or args.seed < 0:
        parser.error("--pairs must be >= 1 and --seed >= 0")

    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    seeds = list(range(args.seed, args.seed + args.pairs))
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: extract(getattr(args, side), roots[side]) for side in roots}
        summary = measure(benchmark, roots, commits, seeds)
        summary["traced"] = measure_traced(benchmark, roots, args.seed + args.pairs)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
