"""Benchmark of mrc_wpt: the optimizer, the protocol engine and the CLI.

    python3 bench/run.py --workload optimize --seed 1 --seconds 10 --trace 0

Run from anywhere; the package is imported from the ``src`` directory next
to this one.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs traced and untraced rounds and derives the per-layer
metrics from spans around the benchmark's calls into each module.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record, with the environment, goes to
``.bench_out/`` (spans too, when traced).  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# One process, no helper threads: pin any BLAS pool before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib.util
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checker
from spans import NullTracer, Tracer
from speed import Speedometer
from workloads import WORKLOADS, probe_layers

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9

# Per-layer time metrics: name -> (span name, scale, attribute that counts
# the work in one span).  With "calls", a span without the attribute counts
# as one call; with another attribute, spans without it are left out.
SPAN_RATES = {
    "circuit.solve_closed_form.us": ("circuit.solve_closed_form", 1e6, "calls"),
    "centralized.minimize_ptx.ms": ("centralized.minimize_ptx", 1e3, "calls"),
    "centralized.check_feasibility.us": ("centralized.check_feasibility", 1e6, "calls"),
    "centralized.z_bracket.us": ("centralized.z_bracket", 1e6, "calls"),
    "centralized.pick_feasible_point.us": ("centralized.pick_feasible_point", 1e6, "calls"),
    "distributed.batch_run.s_per_trial": ("distributed.batch_run", 1.0, "trials"),
    "distributed.engine.ns_per_step": ("distributed.batch_run", 1e9, "steps"),
    "distributed.run_protocol.us_per_step": ("distributed.run_protocol", 1e6, "steps"),
    "distributed.verify_trace.us_per_step": ("distributed.verify_trace", 1e6, "steps"),
    "analysis.sweep.us_per_point": ("analysis.sweep", 1e6, "points"),
    "verify.run_verification.us_per_sample": ("verify.run_verification", 1e6, "samples"),
    "cli.sweep.s": ("cli.sweep", 1.0, "calls"),
    "cli.optimize.s": ("cli.optimize", 1.0, "calls"),
    "cli.simulate.s": ("cli.simulate", 1.0, "calls"),
    "cli.verify.s": ("cli.verify", 1.0, "calls"),
    "sampling.instances.s": ("sampling.instances", 1.0, "calls"),
}


def metric_units() -> dict[str, dict[str, str]]:
    """Unit of every metric ``BENCHMARK.json`` names, by kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def environment() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the repository around the benchmark, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def forget_package() -> None:
    """Drop mrc_wpt from the module cache so the next set-up imports it again."""
    for name in [m for m in sys.modules if m == "mrc_wpt" or m.startswith("mrc_wpt.")]:
        del sys.modules[name]


def run_rounds(workload, tracers, seconds: float):
    """Rounds until ``seconds`` have passed, cycling through ``tracers``.

    Returns one list of rounds per tracer; every list gets at least one.  Only
    the very first round keeps its outcome; the others keep a digest of it,
    so that the heap, and the garbage collector's work, does not grow from
    round to round.
    """
    done = [[] for _ in tracers]
    start = time.perf_counter()
    while True:
        for rounds, tracer in zip(done, tracers):
            r = workload.run_round(tracer)
            if any(done):
                r.outcome = digest(workload, r.outcome)
            rounds.append(r)
        if time.perf_counter() - start >= seconds:
            return done


def digest(workload, outcome) -> str:
    return hashlib.sha256(repr(workload.signature(outcome)).encode()).hexdigest()


def judge(workload, rounds):
    """Check the first round; every later round must repeat its outcome."""
    verdict = workload.check(rounds[0].outcome)
    first = digest(workload, rounds[0].outcome)
    errors = list(verdict.errors)
    if any(r.outcome != first for r in rounds[1:]):
        errors.append(f"{workload.name}: a later round's outcome differs from the first")
    return verdict, errors


def scaled_wall(meter, r) -> float:
    return sum(meter.scaled(s, e) for s, e, _ in r.ops)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def untraced_run(workload, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics; times are scaled to the reference speed."""
    meter = Speedometer()
    setups = []
    meter.start()
    for _ in range(SETUP_REPEATS):
        forget_package()
        start = time.perf_counter()
        workload.setup(NullTracer())
        setups.append((start, time.perf_counter()))
    meter.stop()
    workload.prepare_check()
    meter.start()
    (rounds,) = run_rounds(workload, [NullTracer()], seconds)
    meter.stop()
    verdict, errors = judge(workload, rounds)
    latencies = [meter.scaled(s, e) / n for r in rounds for s, e, n in r.ops for _ in range(n)]
    walls = [scaled_wall(meter, r) for r in rounds]
    metrics = {
        "setup_s": statistics.median(meter.scaled(s, e) for s, e in setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb(),
        "ptx_w": verdict.ptx_w,
        "ops_per_s": len(latencies) / sum(walls),
        "op_ms_p50": 1e3 * float(np.percentile(latencies, 50)),
        "op_ms_p99": 1e3 * float(np.percentile(latencies, 99)),
    }
    record = {
        "raw": {
            "setup_s": [e - s for s, e in setups],
            "round_wall_s": [r.wall_s for r in rounds],
            "first_round_op_s": [e - s for s, e, _ in rounds[0].ops][:20],
        },
        "reference_s": {"samples": len(meter.durations),
                        "quartiles": statistics.quantiles(meter.durations, n=4)},
        "operation_samples": len(latencies),
        "counts": verdict.counts,
    }
    return metrics, result_record(verdict, errors, len(rounds), record)


def traced_run(workload, seconds: float, seed: int, out_dir: Path) -> tuple[dict, dict]:
    """Traced and untraced rounds of ``workload``, alternating, then one
    traced round of every other workload and the single-layer probes, so
    that every per-layer metric comes from spans of this run.

    Span times are raw, less the speed samples taken during the alternating
    rounds; the tracing overhead compares scaled round times.
    """
    meter = Speedometer()
    tracer = Tracer(lost=meter.busy)
    others = [cls(seed, out_dir) for name, cls in WORKLOADS.items() if name != workload.name]
    for w in [workload] + others:
        with tracer.span("setup", workload=w.name):
            w.setup(tracer)
        w.prepare_check()
    meter.start()
    untraced, traced = run_rounds(workload, [NullTracer(), tracer], seconds)
    meter.stop()
    verdict, errors = judge(workload, [r for pair in zip(untraced, traced) for r in pair])
    counts = dict(verdict.counts)
    for w in others:
        other_verdict, other_errors = judge(w, [w.run_round(tracer)])
        counts.update(other_verdict.counts)
        errors += other_errors
    errors += probe_layers(tracer, seed)

    metrics = {}
    for name, (span, scale, per) in SPAN_RATES.items():
        spans = [s for s in tracer.named(span) if per == "calls" or per in s["attrs"]]
        total = sum(tracer.duration(s) for s in spans)
        work = sum(s["attrs"].get(per, 1) for s in spans)
        metrics[name] = scale * total / work
    metrics.update(counts)
    own = tracer.self_times()
    metrics["trace.overhead_s"] = (statistics.median(scaled_wall(meter, r) for r in traced)
                                   - statistics.median(scaled_wall(meter, r) for r in untraced))
    metrics["trace.round_self_s"] = statistics.median(
        own[s["id"]] for s in tracer.named("round") if s["attrs"]["workload"] == workload.name
    )
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.json"
    tracer.write(spans_path)
    record = {
        "round_wall_s": {"untraced": [r.wall_s for r in untraced],
                         "traced": [r.wall_s for r in traced]},
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return metrics, result_record(verdict, errors, len(untraced) + len(traced), record)


def result_record(verdict, errors, rounds: int, record: dict) -> dict:
    return {
        "correct": not errors,
        "attempted": verdict.attempted * rounds,
        "failed": verdict.failed * rounds,
        "rounds": rounds,
        "errors": errors[:50],
        "notes": verdict.notes[:50],
        **record,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "mrc_wpt" / "__init__.py").is_file():
        print(f"bench: no mrc_wpt package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    units = metric_units()["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    if args.trace:
        metrics, result = traced_run(workload, args.seconds, args.seed, out_dir)
    else:
        metrics, result = untraced_run(workload, args.seconds)
    from mrc_wpt.scenario_io import load_scenario

    missed = checker.self_test(load_scenario("paper-fig3"))
    result["errors"] += missed
    result["correct"] = result["correct"] and not missed

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        **result,
    }
    path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    for line in result["errors"]:
        print(f"bench: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
