"""Record the benchmark of a change against its parent commit as one JSON file.

    python3 tools/bench_record.py --out BENCH_12.json --seed 41 --tier1

The change is the working tree when it differs from ``HEAD`` (its tracked
files, snapshotted with ``git stash create``), and its parent is ``HEAD``;
on a clean tree the change is ``HEAD`` and its parent ``HEAD~1``.  Both
sides are exported with ``git archive`` into temporary directories, so
they run from equivalent trees and no worktree stays registered in the
repository.

For every workload that ``BENCHMARK.json`` lists, the script runs
``python3 bench/run.py --workload W --seed S --seconds T --trace 0``, with
T the ``run_seconds`` of ``BENCHMARK.json``, in 10 alternating pairs, the
fewest that can show a change better in nine of ten: the parent first in
even pairs and the change first in odd ones.  Pair i uses seed
``--seed + i`` on both sides.  Each side runs the benchmark code of its own
tree.  After the pairs, each side runs
``python3 bench/run.py --workload W --seed S --seconds T --trace 1`` once,
with S the ``--seed``, parent first, for the per-layer metrics.

The output file holds the environment (cores, the CPUs this process may
run on, which set how many workers the package forks, Python, numpy,
whether numba is importable), both sides' commit, the hash of their
``src`` tree and the line count of its ``src/mrc_wpt/*.py`` (as ``wc -l``
counts them), the median time of ``import mrc_wpt`` over 15 fresh processes per side
(alternating between the sides, bytecode writing off, numpy imported
first; import is most of the ``setup_s`` of the ``cli`` and ``protocol``
workloads), the measured code (once the change is committed, ``git rev-parse HEAD:src``
gives the recorded hash), and per workload and end-to-end metric the runs,
median and quartiles of each side and the number of pairs the change won,
plus each side's failed operations per run and each side's per-layer
metrics from its traced run, and each side's CPU seconds per run: user plus
system time of the benchmark process and every process it forked and waited
for, read from ``RUSAGE_CHILDREN`` around the run, so work moved to worker
processes stays counted.  With ``--tier1`` it also runs
the Tier-1 suite once on the working tree and records its wall time and
summary line; the full pytest output goes to ``.bench_out/tier1.log``.

On a shared host the machine's speed can drift by tens of percent within
minutes, so only the paired comparison says anything; the raw times are
kept for reference.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
PAIRS = 10
IMPORTS = 15
_TIME_IMPORT = (
    "import time, numpy; t = time.perf_counter(); import mrc_wpt; "
    "print(time.perf_counter() - t)"
)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export_tree(rev: str, dest: Path) -> None:
    """Write the files of commit ``rev`` under ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def src_lines(tree: Path) -> int:
    """Lines of the package modules in ``tree``, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "mrc_wpt").glob("*.py"))


def bench_env() -> dict[str, str]:
    """The environment without PYTHONPATH: each tree imports its own ``src``."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def import_ms(trees: dict[str, Path]) -> dict[str, float]:
    """Per side, the median milliseconds of ``import mrc_wpt`` in a fresh
    process that writes no bytecode and has imported numpy first."""
    times: dict[str, list[float]] = {side: [] for side in trees}
    for _ in range(IMPORTS):
        for side, tree in trees.items():
            env = bench_env() | {"PYTHONPATH": str(tree / "src")}
            done = subprocess.run([sys.executable, "-B", "-c", _TIME_IMPORT], cwd=tree,
                                  env=env, check=True, capture_output=True, text=True)
            times[side].append(1e3 * float(done.stdout))
    return {side: round(statistics.median(ms), 2) for side, ms in times.items()}


def cpu_s_of_children() -> float:
    """User plus system seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The result line of one benchmark run in ``tree``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    before = cpu_s_of_children()
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=bench_env())
    cpu_s = cpu_s_of_children() - before
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n{done.stderr}")
    return json.loads(lines[-1]) | {"cpu_s": cpu_s}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(spec: dict, runs: dict[str, list[dict]]) -> dict:
    """Per-metric medians and quartiles of both sides, and pairs won."""
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
        a, b = spread(parent), spread(change)
        metrics[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent": a,
            "change": b,
            "change_won_pairs": wins,
            "median_change": (b["median"] - a["median"]) / a["median"] if a["median"] else None,
        }
    return {
        "metrics": metrics,
        "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
        "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
        "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
        "cpu_s": {side: spread([r["cpu_s"] for r in rs]) for side, rs in runs.items()},
    }


def run_tier1(log: Path) -> dict:
    env = bench_env()
    env["PYTHONPATH"] = "src"
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=ROOT, capture_output=True,
                          text=True, env=env)
    wall = time.perf_counter() - t0
    log.write_text(done.stdout + done.stderr)
    lines = done.stdout.strip().splitlines()
    return {
        "command": "PYTHONPATH=src python " + " ".join(TIER1),
        "wall_s": round(wall, 1),
        "exit_code": done.returncode,
        "summary": lines[-1] if lines else "",
    }


def sides() -> dict[str, str]:
    """Git revisions of the parent and the change (see the module docstring)."""
    snapshot = git("stash", "create")
    if snapshot:
        return {"parent": "HEAD", "change": snapshot}
    return {"parent": "HEAD~1", "change": "HEAD"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="file name at the repository root")
    parser.add_argument("--seed", type=int, default=11, help="seed of the first pair")
    parser.add_argument("--tier1", action="store_true", help="also time the Tier-1 suite")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    revs = sides()
    record = {
        "environment": {
            "cores": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
        },
        **{
            side: {
                "commit": git("rev-parse", rev),
                "src_tree": git("rev-parse", f"{rev}:src"),
                "uncommitted": rev not in ("HEAD", "HEAD~1"),
            }
            for side, rev in revs.items()
        },
        "settings": {
            "pairs": PAIRS,
            "seeds": [args.seed, args.seed + PAIRS - 1],
            "seconds": seconds,
            "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds} --trace 0",
            "per_layer_command": (f"python3 bench/run.py --workload W --seed {args.seed} "
                                  f"--seconds {seconds} --trace 1"),
            "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        },
        "workloads": {},
        "tier1": None,
    }
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, tree in trees.items():
            tree.mkdir()
            export_tree(revs[side], tree)
            record[side]["src_lines"] = src_lines(tree)
        for side, ms in import_ms(trees).items():
            record[side]["import_ms"] = ms
        for workload in (w["name"] for w in spec["workloads"]):
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_bench(trees[side], workload, args.seed + i, seconds)
                    runs[side].append(result)
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {i + 1}/{PAIRS} {side}: wall_s {wall:.3f}, "
                          f"cpu_s {result['cpu_s']:.3f}", file=sys.stderr, flush=True)
            record["workloads"][workload] = summarize(spec, runs)
            traced = {side: run_bench(trees[side], workload, args.seed, seconds, trace=1)
                      for side in ("parent", "change")}
            record["workloads"][workload]["per_layer"] = {
                side: {"correct": r["correct"],
                       "metrics": {name: m["value"] for name, m in r["metrics"].items()}}
                for side, r in traced.items()
            }
    if args.tier1:
        log = ROOT / ".bench_out" / "tier1.log"
        log.parent.mkdir(exist_ok=True)
        record["tier1"] = run_tier1(log)
    (ROOT / args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
