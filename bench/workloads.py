"""The benchmark's three workloads.

Each workload sets up once per repetition (imports, scenario loading, input
generation and a warm-up call), then runs rounds: one round is a fixed list
of operations, the same in every round of a run, so that a run's failed
share does not depend on how many rounds fit in its time.  ``check`` judges
the outcome of a round with :mod:`checker`, which does not use the program.

* ``optimize``: ``minimize_ptx`` at its default step on the ten fig3
  demand points and on a fixed pool of witness-feasible random instances.
* ``protocol``: ``batch_run`` at the ten fig3 demand points, paper settings.
* ``cli``: one ``mrc-grid`` session (sweep, optimize, simulate --trace,
  verify), then ``run_protocol(record=True)`` and ``verify_trace``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from checker import Link, check_sweep, check_trace, check_trial, judge_solve

# Demand of receiver 3 at the fig3 comparison points, W.
P3_POINTS = tuple(float(p) for p in range(5, 55, 5))
# The optimizer's default step.  Only the checks use it, as the step budget
# dz*|v|^2/2 by which a stepped answer may exceed the true optimum.
DZ = 1e-3
# The paper's protocol settings.
DX = 1e-3
K_MAX = 100_000
# The random optimizer instances are the same in every run, whatever the
# workload seed: minimize_ptx calls some of them "infeasible" (a known
# fault), and the failed share must be the same in every run.  The workload
# seed orders them.  Seed 11 is the stream the fault was first measured on.
POOL_SEED = 11
POOL_SIZE = 600
TRIALS_PER_POINT = 2
SWEEP_POINTS = 50_000
SWEEP_LOADS = (7.5, 7.5, 7.5)


def import_package() -> SimpleNamespace:
    names = ("analysis", "centralized", "circuit", "cli", "distributed",
             "sampling", "scenario_io", "verify")
    return SimpleNamespace(**{n: importlib.import_module(f"mrc_wpt.{n}") for n in names})


def with_p3(fig3, p3: float):
    """fig3 with receiver 3's demand set to ``p3``."""
    last = replace(fig3.receivers[-1], p_min=p3)
    return replace(fig3, receivers=fig3.receivers[:-1] + (last,))


@dataclass
class Round:
    """What one round did: its operations' (start, end, count) and outcome.

    ``count`` is the number of operations one timed call stands for, such
    as the trials of one ``batch_run`` call.
    """

    ops: list[tuple[float, float, int]]
    outcome: object

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end, _ in self.ops)


@dataclass
class Verdict:
    """A round's outcome as judged by the checks."""

    attempted: int
    failed: int
    errors: list[str]
    ptx_w: float
    counts: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def _timed_round(tracer, name, body) -> Round:
    """Run ``body(record)``; it calls ``record(start, end)`` per operation."""
    ops: list[tuple[float, float, int]] = []

    def record(start: float, end: float, count: int = 1) -> None:
        ops.append((start, end, count))

    with tracer.span("round", workload=name):
        outcome = body(record)
    return Round(ops, outcome)


class Optimize:
    name = "optimize"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed

    def setup(self, tracer) -> None:
        pkg = import_package()
        fig3 = pkg.scenario_io.load_scenario("paper-fig3")
        points = [with_p3(fig3, p3) for p3 in P3_POINTS]
        with tracer.span("sampling.instances"):
            rng = np.random.default_rng(POOL_SEED)
            pool = [
                pkg.sampling.with_feasible_thresholds(rng, pkg.sampling.random_scenario(rng))
                for _ in range(POOL_SIZE)
            ]
        with tracer.span("setup.warmup"):
            pkg.centralized.minimize_ptx(points[-1])
        self.minimize_ptx = pkg.centralized.minimize_ptx
        self.instances = points + [scenario for scenario, _ in pool]
        self.witnesses = [None] * len(points) + [w.x for _, w in pool]
        self.order = np.random.default_rng(self.seed).permutation(len(self.instances)).tolist()

    def prepare_check(self) -> None:
        """Certify every witness with the mesh solve; keep its p_tx."""
        self.links = [Link.of(s) for s in self.instances]
        self.witness_ptx = []
        for link, witness in zip(self.links, self.witnesses):
            if witness is None:
                self.witness_ptx.append(None)
                continue
            p_tx, p = link.solve(witness)
            if not link.demands_met(p):
                raise RuntimeError("a sampled witness does not meet its own demands")
            self.witness_ptx.append(float(p_tx))

    def run_round(self, tracer) -> Round:
        def body(record):
            results = [None] * len(self.instances)
            for i in self.order:
                scenario = self.instances[i]
                start = time.perf_counter()
                try:
                    with tracer.span("centralized.minimize_ptx"):
                        results[i] = self.minimize_ptx(scenario)
                except Exception as exc:  # a raising solve is a failed operation
                    results[i] = exc
                record(start, time.perf_counter())
            return results

        return _timed_round(tracer, self.name, body)

    def signature(self, results) -> tuple:
        return tuple(
            repr(r) if isinstance(r, Exception)
            else (r.status, r.iterations, r.report.p_tx if r.report else None)
            for r in results
        )

    def check(self, results) -> Verdict:
        errors, notes = [], []
        failed = false_infeasible = 0
        checks = []
        fig3_ptx = []
        for i, (res, link) in enumerate(zip(results, self.links)):
            if isinstance(res, Exception):
                failed += 1
                notes.append(f"instance {i}: {res!r}")
                continue
            checks.append(res.iterations)
            optimal = res.status == "optimal"
            bad, errs = judge_solve(
                link, res.status,
                res.loads.x if optimal else None,
                res.report.p_tx if optimal else None,
                res.report.p if optimal else None,
                DZ, self.witness_ptx[i],
            )
            failed += bad
            false_infeasible += res.status == "infeasible"
            errors += [f"instance {i}: {e}" for e in errs]
            if i < len(P3_POINTS) and optimal:
                fig3_ptx.append(res.report.p_tx)
        if len(fig3_ptx) == len(P3_POINTS) and any(b < a for a, b in zip(fig3_ptx, fig3_ptx[1:])):
            errors.append(f"fig3 optimum decreases as p3 rises: {fig3_ptx}")
        if not fig3_ptx:
            raise RuntimeError("no fig3 demand point was solved; ptx_w is undefined")
        return Verdict(
            attempted=len(results),
            failed=failed,
            errors=errors,
            ptx_w=statistics.fmean(fig3_ptx),
            counts={
                "centralized.checks_per_solve": statistics.fmean(checks),
                "centralized.checks_per_solve_max": max(checks),
                "centralized.false_infeasible": false_infeasible,
            },
            notes=notes,
        )


class Protocol:
    name = "protocol"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed

    def setup(self, tracer) -> None:
        pkg = import_package()
        d = pkg.distributed
        fig3 = pkg.scenario_io.load_scenario("paper-fig3")
        self.points = [with_p3(fig3, p3) for p3 in P3_POINTS]
        # Consecutive trial seeds: point i takes the TRIALS_PER_POINT seeds
        # after point i-1's, and runs of neighbouring seeds do not overlap.
        base = self.seed * TRIALS_PER_POINT * len(P3_POINTS)
        self.configs = [
            d.ProtocolConfig(dx=DX, k_max=K_MAX, seed=base + i * TRIALS_PER_POINT)
            for i in range(len(P3_POINTS))
        ]
        with tracer.span("setup.warmup"):
            with contextlib.suppress(d.NoFeasibleTrialsError):
                d.batch_run(self.points[0], d.ProtocolConfig(dx=DX, k_max=1000), trials=1)
        self.d = d
        self.minimize_ptx = pkg.centralized.minimize_ptx

    def prepare_check(self) -> None:
        """The least p_tx a demand-meeting trial may draw at each point."""
        self.links = [Link.of(s) for s in self.points]
        self.floors = []
        for link, scenario in zip(self.links, self.points):
            opt = self.minimize_ptx(scenario)
            if opt.status != "optimal":
                raise RuntimeError(f"no reference optimum at p3={scenario.receivers[-1].p_min}")
            self.floors.append(opt.report.p_tx - link.step_budget(DZ))

    def run_round(self, tracer) -> Round:
        def body(record):
            out = []
            for scenario, config in zip(self.points, self.configs):
                start = time.perf_counter()
                try:
                    with tracer.span("distributed.batch_run", trials=TRIALS_PER_POINT) as attrs:
                        summary = self.d.batch_run(scenario, config, trials=TRIALS_PER_POINT)
                    attrs["steps"] = sum(r.iterations for r in summary.results)
                except self.d.NoFeasibleTrialsError:
                    summary = None
                except Exception as exc:  # a raising batch fails all its trials
                    summary = exc
                record(start, time.perf_counter(), TRIALS_PER_POINT)
                out.append(summary)
            return out

        return _timed_round(tracer, self.name, body)

    def signature(self, summaries) -> tuple:
        return tuple(
            repr(s) if isinstance(s, Exception) or s is None
            else tuple((r.seed, r.converged, r.feasible, r.iterations, r.p_tx, r.final)
                       for r in s.results)
            for s in summaries
        )

    def _replay_first(self, i: int) -> list[str]:
        """Spot-check a batch that raised NoFeasibleTrialsError.

        ``batch_run`` keeps no results when every trial misses a demand, so
        its first trial is run again through ``run_protocol``, whose outcome
        is documented to be identical; it must end with a demand unmet.  One
        replay costs ~4 s, so only the first such batch of a round gets one.
        """
        trace = self.d.run_protocol(self.points[i], self.configs[i], record=False)
        errors = check_trial(self.links[i], trace.final, trace.final_report.p_tx,
                             trace.feasible, 0.0)
        if trace.feasible:
            errors.append("batch_run reported no feasible trial; its first trial is feasible")
        return errors

    def check(self, summaries) -> Verdict:
        errors, notes = [], []
        failed = steps = feasible = converged = 0
        feasible_ptx = []
        replayed = False
        for i, summary in enumerate(summaries):
            config, link = self.configs[i], self.links[i]
            tag = f"p3={P3_POINTS[i]:g}"
            if isinstance(summary, Exception):
                failed += TRIALS_PER_POINT
                notes.append(f"{tag}: {summary!r}")
                continue
            if summary is None:
                notes.append(f"{tag}: no trial met every demand")
                if not replayed:
                    errors += [f"{tag} replay: {e}" for e in self._replay_first(i)]
                    replayed = True
                continue
            trials = summary.results
            ptx = [t.p_tx for t in trials if t.feasible]
            if (summary.trials, summary.n_feasible, summary.n_converged) != (
                len(trials), len(ptx), sum(t.converged for t in trials)
            ):
                errors.append(f"{tag}: summary counts disagree with its trials")
            if summary.mean_ptx_feasible != sum(ptx) / len(ptx):
                errors.append(f"{tag}: mean_ptx_feasible is not the mean of feasible p_tx")
            if [t.seed for t in trials] != list(range(config.seed, config.seed + TRIALS_PER_POINT)):
                errors.append(f"{tag}: trial seeds are not consecutive from {config.seed}")
            for t in trials:
                errors += [f"{tag} seed {t.seed}: {e}"
                           for e in check_trial(link, t.final, t.p_tx, t.feasible, self.floors[i])]
                steps += t.iterations
                feasible += t.feasible
                converged += t.converged
            feasible_ptx += ptx
        if not feasible_ptx:
            raise RuntimeError("no trial met every demand; ptx_w is undefined")
        return Verdict(
            attempted=TRIALS_PER_POINT * len(summaries),
            failed=failed,
            errors=errors,
            ptx_w=statistics.fmean(feasible_ptx),
            counts={
                "distributed.steps": steps,
                "distributed.trials_feasible": feasible,
                "distributed.trials_converged": converged,
            },
            notes=notes,
        )


def _read_csv(path: Path) -> list[list[str]]:
    """Rows of a CLI output file, without its manifest comment and header."""
    with open(path, newline="", encoding="utf-8") as fh:
        fh.readline()
        rows = list(csv.reader(fh))
    return rows[1:]


def _body(path: Path) -> tuple[str, int] | None:
    """Digest and size of a CLI output file without its manifest line, which
    holds a time stamp and the output paths."""
    if not path.exists():
        return None
    with open(path, "rb") as fh:
        fh.readline()
        body = fh.read()
    return hashlib.sha256(body).hexdigest(), len(body)


class Cli:
    name = "cli"
    OPS = ("sweep", "optimize", "simulate", "verify", "replay")

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out = out_dir / f"cli-seed{seed}"

    def path(self, name: str) -> Path:
        return self.out / f"{name}.csv"

    def commands(self) -> list[tuple[str, list[str]]]:
        fixed = ",".join(f"x{k + 1}={v}" for k, v in enumerate(SWEEP_LOADS) if k)
        return [
            ("sweep", ["sweep", "--scenario", "paper-fig2", "--receiver", "1",
                       "--grid", f"0.1:100:{SWEEP_POINTS}", "--fixed", fixed,
                       "--out", str(self.path("sweep"))]),
            ("optimize", ["optimize", "--scenario", "paper-fig3",
                          "--out", str(self.path("optimize"))]),
            ("simulate", ["simulate", "--scenario", "paper-fig3", "--dx", str(DX),
                          "--kmax", str(K_MAX), "--trials", "1", "--seed", str(self.seed),
                          "--trace", str(self.path("trace")), "--out", str(self.path("simulate"))]),
            ("verify", ["verify", "--scenario", "paper-fig2", "--seed", str(self.seed)]),
        ]

    def setup(self, tracer) -> None:
        pkg = import_package()
        self.main = pkg.cli.main
        self.d = pkg.distributed
        self.fig2 = pkg.scenario_io.load_scenario("paper-fig2")
        self.fig3 = pkg.scenario_io.load_scenario("paper-fig3")
        self.out.mkdir(parents=True, exist_ok=True)
        with tracer.span("setup.warmup"), contextlib.redirect_stdout(io.StringIO()):
            self.main(["sweep", "--scenario", "paper-fig2", "--receiver", "1", "--grid",
                       "0.1:100:10", "--fixed", "x2=7.5,x3=7.5", "--out", str(self.path("warmup"))])
            self.main(["optimize", "--scenario", "paper-fig3", "--out", str(self.path("warmup"))])

    def prepare_check(self) -> None:
        self.link2 = Link.of(self.fig2)
        self.link3 = Link.of(self.fig3)

    def _call(self, tracer, name, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with tracer.span(f"cli.{name}"), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = self.main(argv)
        except Exception as exc:  # a raising subcommand is a failed operation
            code = repr(exc)
        return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}

    def _replay(self, tracer):
        try:
            config = self.d.ProtocolConfig(dx=DX, k_max=K_MAX, seed=self.seed)
            with tracer.span("distributed.run_protocol") as attrs:
                trace = self.d.run_protocol(self.fig3, config, record=True)
            attrs["steps"] = trace.iterations
            with tracer.span("distributed.verify_trace", steps=len(trace.records)):
                violations = self.d.verify_trace(self.fig3, trace)
        except Exception as exc:  # a raising replay is a failed operation
            return {"code": repr(exc)}
        return {"code": 0, "violations": violations, "initial": trace.initial,
                "records": len(trace.records), "iterations": trace.iterations,
                "final": trace.final, "feasible": trace.feasible}

    def run_round(self, tracer) -> Round:
        for name in ("sweep", "optimize", "simulate", "trace"):
            self.path(name).unlink(missing_ok=True)

        def body(record):
            out = {}
            for name, argv in self.commands():
                start = time.perf_counter()
                out[name] = self._call(tracer, name, argv)
                record(start, time.perf_counter())
            start = time.perf_counter()
            out["replay"] = self._replay(tracer)
            record(start, time.perf_counter())
            return out

        done = _timed_round(tracer, self.name, body)
        for name in ("sweep", "optimize", "simulate", "trace"):
            done.outcome[f"{name}.csv"] = _body(self.path(name))
        return done

    def signature(self, outcome) -> tuple:
        return tuple(
            (k, v["code"], v.get("stdout"), v.get("violations"), v.get("final"))
            if isinstance(v, dict) else (k, v)
            for k, v in sorted(outcome.items())
        )

    def check(self, outcome) -> Verdict:
        errors, notes = [], []
        failed = {name for name in self.OPS
                  if name != "simulate" and outcome[name]["code"] != 0}
        replay = outcome["replay"]

        if outcome["sweep"]["code"] == 0:
            grid = np.linspace(0.1, 100.0, SWEEP_POINTS)
            rows = np.array(_read_csv(self.path("sweep")), dtype=float)
            n = self.link2.n
            errors += check_sweep(self.link2, SWEEP_LOADS, 0, grid, rows[:, 0], rows[:, 1],
                                  rows[:, 2:2 + n], rows[:, 2 + n])

        ptx_w = None
        if outcome["optimize"]["code"] == 0:
            (row,) = _read_csv(self.path("optimize"))
            n = self.link3.n
            optimal = row[0] == "optimal"
            bad, errs = judge_solve(
                self.link3, row[0],
                tuple(float(v) for v in row[3:3 + n]) if optimal else None,
                float(row[2]) if optimal else None,
                tuple(float(v) for v in row[3 + n:3 + 2 * n]) if optimal else None,
                DZ, None,
            )
            errors += [f"optimize: {e}" for e in errs]
            if bad:
                failed.add("optimize")
            else:
                ptx_w = float(row[2])

        if self.path("trace").exists() and replay["code"] == 0:
            simulate_ok, errs = self._check_trace(outcome["simulate"]["code"], replay)
            errors += errs
        else:
            simulate_ok = False
        if not simulate_ok:
            failed.add("simulate")

        if outcome["verify"]["code"] in (0, 1):
            passed = json.loads(outcome["verify"]["stdout"])["all_passed"]
            if passed != (outcome["verify"]["code"] == 0):
                errors.append("verify: exit code disagrees with all_passed")
        if replay["code"] == 0 and replay["violations"]:
            errors.append(f"verify_trace: {len(replay['violations'])} violations, "
                          f"first: {replay['violations'][0]}")

        for name in sorted(failed):
            notes.append(f"{name} failed: exit {outcome[name]['code']!r}: "
                         f"{outcome[name].get('stderr', '')[-300:]}")
        if ptx_w is None:
            raise RuntimeError("the optimize subcommand gave no optimum; ptx_w is undefined")
        return Verdict(
            attempted=len(self.OPS),
            failed=len(failed),
            errors=errors,
            ptx_w=ptx_w,
            counts={"cli.trace_csv_mb": (outcome["trace.csv"] or ("", 0))[1] / 1e6},
            notes=notes,
        )

    def _check_trace(self, code, replay) -> tuple[bool, list[str]]:
        """Check the simulate trace and summary; say if simulate exited right.

        ``simulate`` exits 1, writing no summary, when its one trial ends
        with a demand unmet, and 0 otherwise; which of the two happened is
        read from the trace's last row through the mesh solve.
        """
        link, n = self.link3, self.link3.n
        rows = _read_csv(self.path("trace"))
        iteration = np.array([int(r[0]) for r in rows])
        agent = np.array([int(r[1]) - 1 for r in rows])
        fb = np.array([[int(b) for b in r[2]] for r in rows], dtype=int).reshape(len(rows), n)
        num = np.array([r[4:] for r in rows], dtype=float).reshape(len(rows), 2 * n + 1)
        x, p_tx, p = num[:, :n], num[:, n], num[:, n + 1:]
        errors = [f"simulate: {e}" for e in
                  check_trace(link, replay["initial"], iteration, agent, fb, x, p_tx, p, DX)]
        if any(r[3] not in ("C1", "C2", "C3", "C4", "C5") for r in rows):
            errors.append("simulate: trace has an unknown case name")
        if (replay["records"], replay["final"]) != (len(rows), tuple(x[-1])):
            errors.append("simulate: trace and run_protocol disagree on length or final loads")
        _, last_p = link.solve(x[-1])
        met = bool(link.demands_met(p[-1] if link.near_demand(last_p) else last_p))
        if met != replay["feasible"]:
            errors.append("simulate: run_protocol's feasible flag disagrees with the mesh solve")
        if met and code == 0:
            (summary,) = _read_csv(self.path("simulate"))
            if summary[:2] != ["1", "1"] or float(summary[4]) != p_tx[-1]:
                errors.append("simulate: summary mean_ptx_feasible is not the last trace row's p_tx")
        return code == (0 if met else 1), errors


WORKLOADS = {w.name: w for w in (Optimize, Protocol, Cli)}


def probe_layers(tracer, seed: int) -> list[str]:
    """Traced calls that time single layers outside the workloads' rounds.

    ``solve_closed_form`` runs on fig3's bench loads (N=3) and on a random
    N=8 instance; ``check_feasibility`` on the z values minimize_ptx visits
    on fig3; ``z_bracket`` and ``pick_feasible_point`` on fig3.  Returns
    check errors.
    """
    pkg = import_package()
    c, opt = pkg.circuit, pkg.centralized
    fig2 = pkg.scenario_io.load_scenario("paper-fig2")
    fig3 = pkg.scenario_io.load_scenario("paper-fig3")
    rng = np.random.default_rng(POOL_SEED)
    big = pkg.sampling.random_scenario(rng, n_receivers=8)
    big_loads = pkg.sampling.random_loads(rng, big)
    calls = 2000
    for scenario, loads in ((fig3, SWEEP_LOADS), (big, big_loads)):
        with tracer.span("circuit.solve_closed_form", calls=calls):
            for _ in range(calls):
                c.solve_closed_form(scenario, loads)
    bracket = opt.z_bracket(fig3, DZ)
    result = opt.minimize_ptx(fig3)
    zs = [min(bracket.z_lo + k * DZ, bracket.z_hi) for k in range(result.iterations)]
    with tracer.span("centralized.check_feasibility", calls=len(zs)):
        for value in zs:
            opt.check_feasibility(fig3, value)
    with tracer.span("centralized.z_bracket", calls=calls):
        for _ in range(calls):
            opt.z_bracket(fig3, DZ)
    verdict = opt.check_feasibility(fig3, result.z_star)
    with tracer.span("centralized.pick_feasible_point", calls=calls):
        for _ in range(calls):
            opt.pick_feasible_point(verdict, fig3)
    grid = np.linspace(0.1, 100.0, 10_000)
    with tracer.span("analysis.sweep", points=len(grid)):
        pkg.analysis.sweep(fig2, SWEEP_LOADS, 0, grid)
    samples = 200
    with tracer.span("verify.run_verification", samples=samples):
        report = pkg.verify.run_verification(fig2, trials=samples, seed=seed)
    return [] if report.all_passed else ["run_verification: a property failed"]
