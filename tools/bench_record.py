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
with S the ``--seed``, for the per-layer metrics: the parent first for the
even workloads in ``BENCHMARK.json`` order and the change first for the odd
ones, so that no side always runs first.

The output file holds the environment (cores, the CPUs this process may
run on, which set how many workers the package forks, Python, numpy,
whether numba is importable), both sides' commit, the hash of their
``src`` tree, the line counts of its ``src/mrc_wpt/*.py`` in total and per
module (``src_code_lines`` and ``src_module_code_lines`` count the lines
that hold code: a token other than a comment, a newline or an indent, on
a line of no module, class or function docstring; ``src_lines`` and
``src_module_lines`` count all lines, as ``wc -l`` does), the median time
of ``import mrc_wpt`` over 15 fresh processes per side
(alternating between the sides, bytecode writing off, numpy imported
first; import is most of the ``setup_s`` of the ``cli`` and ``protocol``
workloads) and, in the same processes, the median time of the first
one-step call of the step engine at N = 3 (fig3) and N = 8 (the N = 8
draw of ``random_scenario(default_rng(3), 8)``) as ``engine_first_call_ms``,
so that set-up moved into first use, such as compiling the engine, shows
too, the measured code (once the change is committed, ``git rev-parse HEAD:src``
gives the recorded hash), and per workload and end-to-end metric the runs,
median and quartiles of each side and the number of pairs the change won,
plus each side's failed operations per run and each side's per-layer
metrics from its traced run, and which side's traced run went first.
Per workload and side it also holds the median and quartiles, over the
untraced runs, of each first-round operation's time
(``raw.first_round_op_s`` of the run's ``.bench_out/result-<workload>-
seed<S>-trace0.json``, at most the first 20 operations), named for
``cli`` by its operations and numbered for the other workloads; so a
single operation, such as ``cli``'s verify, has a figure from every run
and not just from the one traced run.
Each run is started with ``subprocess.Popen`` and reaped with
``os.wait4``, whose resource usage covers the benchmark
process and every process it forked and waited for, so work and memory
moved to worker processes stay counted: per run, ``cpu_s`` is their user
plus system time and ``tree_peak_rss_mb`` the largest peak resident set
of any of them (``ru_maxrss``, KiB on Linux, in the 10^6-byte megabytes of
the benchmark's own ``peak_rss_mb``, which reads ``RUSAGE_SELF`` and does
not see its workers).  With ``--tier1`` it also runs
the Tier-1 suite twice in each side's exported tree, in the order parent,
change, change, parent, so that a drift of the host's speed falls on both
sides alike, and records per side both runs, each with its wall time, exit
code, summary line and, under ``slowest``, its five slowest test phases as
pytest's ``--durations=5`` reports them (node id, phase and seconds), and
the time of the C5 fixture (the setup of the first C5 test, which runs
every protocol trial of the acceptance comparison) as ``c5_fixture_s``; the
full pytest output goes to ``.bench_out/tier1-<side>-<run>.log``.

On a shared host the machine's speed can drift by tens of percent within
minutes, so only the paired comparison says anything; the raw times are
kept for reference.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
SLOWEST = 5
TIER1_ORDER = ("parent", "change", "change", "parent")
# The node whose setup phase is the C5 fixture of the acceptance tests.
C5_NODE = "tests/test_acceptance.py::test_c5_fig3_distributed_never_beats_centralized"
# A line of pytest's "slowest durations" section: "191.23s call     tests/...".
_DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (setup|call|teardown) +(.+)$")
PAIRS = 10
IMPORTS = 15
# The operations of one round, in the order the benchmark times them.
OP_NAMES = {"cli": ("sweep", "optimize", "simulate", "verify", "replay")}
# Prints "import <s>", then "N=3 <s>" and "N=8 <s>", the first one-step
# run of the step engine at N = 3 (fig3) and at N = 8 (a seeded draw).
_TIME_FIRST_USE = """\
import collections, time, numpy
t = time.perf_counter(); import mrc_wpt; print("import", time.perf_counter() - t)
from mrc_wpt import distributed
from mrc_wpt.sampling import random_scenario
from mrc_wpt.scenario_io import load_scenario
config = distributed.ProtocolConfig(k_max=1)
for scenario in load_scenario("paper-fig3"), random_scenario(numpy.random.default_rng(3), 8):
    t = time.perf_counter()
    collections.deque(distributed._run_blocks(scenario, config, None), 0)
    print(f"N={scenario.n}", time.perf_counter() - t)
"""


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


# Tokens that hold no code.
_NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold a token other than a comment, a newline
    or an indent, and are no part of a module, class or function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NO_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def module_lines(tree: Path) -> dict[str, dict[str, int]]:
    """Per package module in ``tree``, its ``code`` lines (``code_lines``) and
    its ``all`` lines, as ``wc -l`` counts them."""
    modules = sorted((tree / "src" / "mrc_wpt").glob("*.py"))
    return {p.name: {"code": code_lines(p.read_text()), "all": p.read_bytes().count(b"\n")}
            for p in modules}


def bench_env() -> dict[str, str]:
    """The environment without PYTHONPATH: each tree imports its own ``src``."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def first_use_ms(trees: dict[str, Path]) -> dict[str, dict[str, float]]:
    """Per side, the median milliseconds of ``import mrc_wpt`` (``import``)
    and of the first one-step bare ``_run_blocks`` run at N = 3 and N = 8
    (``N=3``, ``N=8``) in a fresh process that writes no bytecode and has
    imported numpy first."""
    times: dict[str, dict[str, list[float]]] = {side: {} for side in trees}
    for _ in range(IMPORTS):
        for side, tree in trees.items():
            env = bench_env() | {"PYTHONPATH": str(tree / "src")}
            done = subprocess.run([sys.executable, "-B", "-c", _TIME_FIRST_USE], cwd=tree,
                                  env=env, check=True, capture_output=True, text=True)
            for line in done.stdout.splitlines():
                name, seconds = line.split()
                times[side].setdefault(name, []).append(1e3 * float(seconds))
    return {side: {name: round(statistics.median(ms), 2) for name, ms in named.items()}
            for side, named in times.items()}


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The result line of one benchmark run in ``tree``, with the ``cpu_s``
    and ``tree_peak_rss_mb`` of the run's own process tree and, untraced, the
    first round's operation times."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(cmd, cwd=tree, stdout=out, stderr=err, env=bench_env())
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        lines = out.read().decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n{err.read().decode()}")
    line = json.loads(lines[-1]) | {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "tree_peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
    }
    if not trace:  # an untraced run's record keeps its first round's operation times
        result = tree / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json"
        line["first_round_op_s"] = json.loads(result.read_text())["raw"]["first_round_op_s"]
    return line


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def op_times(workload: str, runs: list[dict]) -> dict:
    """Median and quartiles of each first-round operation's time over ``runs``."""
    ops = [r["first_round_op_s"] for r in runs]
    names = OP_NAMES.get(workload, range(min(map(len, ops))))
    return {str(name): spread([o[k] for o in ops]) for k, name in enumerate(names)}


def summarize(spec: dict, workload: str, runs: dict[str, list[dict]]) -> dict:
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
        "tree_peak_rss_mb": {
            side: spread([r["tree_peak_rss_mb"] for r in rs]) for side, rs in runs.items()
        },
        "first_round_op_s": {side: op_times(workload, rs) for side, rs in runs.items()},
    }


def run_tier1(tree: Path, log: Path) -> dict:
    """Tier-1 run once in ``tree``, its output written to ``log``."""
    env = bench_env()
    env["PYTHONPATH"] = "src"
    t0 = time.perf_counter()
    command = [*TIER1, f"--durations={SLOWEST}"]
    done = subprocess.run([sys.executable, *command], cwd=tree, capture_output=True,
                          text=True, env=env)
    wall = time.perf_counter() - t0
    log.write_text(done.stdout + done.stderr)
    lines = done.stdout.strip().splitlines()
    slowest = [
        {"node": m[3], "phase": m[2], "s": float(m[1])}
        for m in map(_DURATION.match, lines) if m
    ]
    fixture = [d["s"] for d in slowest if d["node"] == C5_NODE and d["phase"] == "setup"]
    return {
        "command": "PYTHONPATH=src python " + " ".join(command),
        "wall_s": round(wall, 1),
        "exit_code": done.returncode,
        "summary": lines[-1] if lines else "",
        "c5_fixture_s": fixture[0] if fixture else None,
        "slowest": slowest,
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
            lines = module_lines(tree)
            for kind, total, per_module in (("code", "src_code_lines", "src_module_code_lines"),
                                            ("all", "src_lines", "src_module_lines")):
                record[side][total] = sum(m[kind] for m in lines.values())
                record[side][per_module] = {module: m[kind] for module, m in lines.items()}
        for side, ms in first_use_ms(trees).items():
            record[side]["import_ms"] = ms.pop("import")
            record[side]["engine_first_call_ms"] = ms
        for k, workload in enumerate(w["name"] for w in spec["workloads"]):
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_bench(trees[side], workload, args.seed + i, seconds)
                    runs[side].append(result)
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {i + 1}/{PAIRS} {side}: wall_s {wall:.3f}, "
                          f"cpu_s {result['cpu_s']:.3f}, "
                          f"tree_peak_rss_mb {result['tree_peak_rss_mb']:.1f}",
                          file=sys.stderr, flush=True)
            record["workloads"][workload] = summarize(spec, workload, runs)
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            traced = {side: run_bench(trees[side], workload, args.seed, seconds, trace=1)
                      for side in order}
            record["workloads"][workload]["per_layer"] = {
                side: {"correct": r["correct"],
                       "metrics": {name: m["value"] for name, m in r["metrics"].items()}}
                for side, r in traced.items()
            }
            record["workloads"][workload]["per_layer_first"] = order[0]
        if args.tier1:
            logs = ROOT / ".bench_out"
            logs.mkdir(exist_ok=True)
            tier1: dict = {"order": list(TIER1_ORDER), "parent": [], "change": []}
            for side in TIER1_ORDER:
                log = logs / f"tier1-{side}-{len(tier1[side]) + 1}.log"
                tier1[side].append(run_tier1(trees[side], log))
            record["tier1"] = tier1
    (ROOT / args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
