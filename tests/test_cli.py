import contextlib
import csv
import hashlib
import io
import json
import os
import pickle
import tempfile
import threading
import time
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrc_wpt import cli, distributed
from mrc_wpt.circuit import solve_closed_form
from mrc_wpt.cli import _format_doubles, main
from mrc_wpt.distributed import Case, ProtocolConfig, batch_run, run_protocol, run_trials
from mrc_wpt.sampling import random_scenario, with_feasible_thresholds
from mrc_wpt.scenario_io import load_scenario, save_scenario

from helpers import assert_no_child_left, engine_runs, failing_engine, wide_systems


def read_output(path):
    """Split an output file into (manifest dict, body lines)."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    return json.loads(lines[0][2:]), lines[1:]


def csv_body(header, rows):
    """What ``csv.writer`` writes for a header and rows, floats as ``%.16e``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(
        [v if isinstance(v, str) else format(v, ".16e") for v in row] for row in rows
    )
    return buf.getvalue()


def raw_body(path):
    """An output file's body, line endings kept, without its manifest line."""
    with open(path, newline="", encoding="utf-8") as fh:
        fh.readline()
        return fh.read()


class TestSweepCommand:
    def test_bench_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--scenario", "paper-fig2",
                "--receiver", "1",
                "--grid", "0.1:100:50",
                "--fixed", "x2=7.5,x3=7.5",
                "--out", str(out),
            ]
        )
        assert code == 0
        manifest, body = read_output(out)
        assert manifest["subcommand"] == "sweep"
        assert manifest["parameters"]["fixed"] == {"x2": 7.5, "x3": 7.5}
        assert body[0] == "x_1,p_tx,p_1,p_2,p_3,p_sum"
        assert len(body) == 1 + 50
        first = body[1].split(",")
        assert float(first[0]) == pytest.approx(0.1)

    @staticmethod
    def expected_body(scenario, receiver, grid, fixed):
        """The csv.writer rendering of ``solve_closed_form`` at each grid
        point, every number in 17 significant digits."""
        rows = []
        for x in grid.tolist():
            loads = list(fixed)
            loads[receiver - 1] = x
            rep = solve_closed_form(scenario, loads)
            rows.append([x, rep.p_tx, *rep.p, rep.p_sum])
        header = [f"x_{receiver}", "p_tx"] + [f"p_{k + 1}" for k in range(scenario.n)] + ["p_sum"]
        return csv_body(header, rows)

    def test_body_pinned(self, tmp_path, fig2):
        out = tmp_path / "sweep.csv"
        assert main(
            [
                "sweep", "--scenario", "paper-fig2", "--receiver", "1",
                "--grid", "0.1:100:50", "--fixed", "x2=7.5,x3=7.5", "--out", str(out),
            ]
        ) == 0
        grid = np.linspace(0.1, 100, 50)
        assert raw_body(out) == self.expected_body(fig2, 1, grid, (None, 7.5, 7.5))

    def test_log_body_pinned(self, tmp_path, fig3):
        out = tmp_path / "sweep.csv"
        assert main(
            [
                "sweep", "--scenario", "paper-fig3", "--receiver", "2",
                "--grid", "0.01:100:300:log", "--fixed", "x1=7.5,x3=7.5", "--out", str(out),
            ]
        ) == 0
        grid = np.geomspace(0.01, 100, 300)
        assert raw_body(out) == self.expected_body(fig3, 2, grid, (7.5, None, 7.5))

    def test_log_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            [
                "sweep", "--scenario", "paper-fig2", "--receiver", "1",
                "--grid", "0.1:100:7:log", "--fixed", "x2=7.5,x3=7.5",
                "--out", str(out),
            ]
        ) == 0
        _, body = read_output(out)
        xs = [float(row.split(",")[0]) for row in body[1:]]
        assert xs == pytest.approx(list(np.geomspace(0.1, 100, 7)))

    def test_body_deterministic(self, tmp_path):
        args = [
            "sweep", "--scenario", "paper-fig2", "--receiver", "2",
            "--grid", "1:50:25", "--fixed", "x1=7.5,x3=7.5",
        ]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        # bodies are byte-identical; manifests may differ in timestamp only
        assert out_a.read_text().split("\n", 1)[1] == out_b.read_text().split("\n", 1)[1]

    def test_missing_fixed_entry_fails(self, tmp_path, capsys):
        code = main(
            [
                "sweep", "--scenario", "paper-fig2", "--receiver", "1",
                "--grid", "0.1:100:5", "--fixed", "x2=7.5",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "x3" in capsys.readouterr().err

    def test_bad_grid_spec_fails(self, tmp_path, capsys):
        for grid in ("0.1:100", "a:b:5", "0.1:100:10:cubic"):
            code = main(
                [
                    "sweep", "--scenario", "paper-fig2", "--receiver", "1",
                    "--grid", grid, "--fixed", "x2=7.5,x3=7.5",
                    "--out", str(tmp_path / "x.csv"),
                ]
            )
            assert code == 2
            assert "--grid" in capsys.readouterr().err
        # Bounds out of order, not positive or not finite fail before any
        # grid is built, so numpy has nothing to warn about.
        for grid in ("0:100:10", "5:1:10", "1:5:0", "1:1e400:10", "1e400:1e400:10:log",
                     "nan:5:10"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(
                    [
                        "sweep", "--scenario", "paper-fig2", "--receiver", "1",
                        "--grid", grid, "--fixed", "x2=7.5,x3=7.5",
                        "--out", str(tmp_path / "x.csv"),
                    ]
                )
            assert code == 2
            assert capsys.readouterr().err == (
                f"mrc-grid sweep: --grid needs 0 < lo <= hi and count >= 1 (got '{grid}')\n"
            )

    def test_receiver_out_of_range_fails(self, tmp_path, capsys):
        for receiver in ("0", "4"):
            code = main(
                [
                    "sweep", "--scenario", "paper-fig2", "--receiver", receiver,
                    "--grid", "1:50:5", "--fixed", "x2=7.5,x3=7.5",
                    "--out", str(tmp_path / "x.csv"),
                ]
            )
            assert code == 2
            assert capsys.readouterr().err == (
                f"mrc-grid sweep: --receiver must be in 1..3 (got {receiver})\n"
            )

    def test_bad_fixed_value_fails(self, tmp_path, capsys):
        code = main(
            [
                "sweep", "--scenario", "paper-fig2", "--receiver", "1",
                "--grid", "1:50:5", "--fixed", "x2=oops,x3=7.5",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "not a number" in capsys.readouterr().err
        cases = [
            ("y2=7.5,x3=7.5", "--fixed entries must look like x2=7.5 (got 'y2=7.5')"),
            ("x2,x3=7.5", "--fixed entries must look like x2=7.5 (got 'x2')"),
            ("xb=7.5,x3=7.5", "--fixed entry has no receiver number: 'xb=7.5'"),
            ("x2=7.5,x4=7.5", "--fixed receiver x4 out of range 1..3"),
            ("x1=7.5,x2=7.5,x3=7.5", "--fixed receiver x1 is the swept receiver"),
            ("x2=7.5,x2=8,x3=7.5", "--fixed names receiver x2 twice"),
            ("x2=nan,x3=7.5", "--fixed x2 must be finite and > 0 (got nan)"),
            ("x2=-1,x3=7.5", "--fixed x2 must be finite and > 0 (got -1.0)"),
            ("x2=inf,x3=7.5", "--fixed x2 must be finite and > 0 (got inf)"),
            ("x2=0,x3=7.5", "--fixed x2 must be finite and > 0 (got 0.0)"),
        ]
        for fixed, message in cases:
            code = main(
                [
                    "sweep", "--scenario", "paper-fig2", "--receiver", "1",
                    "--grid", "1:50:5", "--fixed", fixed,
                    "--out", str(tmp_path / "x.csv"),
                ]
            )
            assert code == 2
            assert capsys.readouterr().err == f"mrc-grid sweep: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_single_receiver_needs_no_fixed(self, tmp_path, fig3):
        path = tmp_path / "one.json"
        save_scenario(replace(fig3, receivers=fig3.receivers[:1]), path)
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", "--scenario", str(path), "--receiver", "1", "--grid", "1:50:5",
             "--out", str(out)]
        ) == 0
        manifest, body = read_output(out)
        assert manifest["parameters"]["fixed"] == {}
        assert body[0] == "x_1,p_tx,p_1,p_sum"
        assert len(body) == 1 + 5

    def test_unwritable_output_fails(self, tmp_path, capsys):
        out = tmp_path / "absent" / "sweep.csv"
        code = main(
            [
                "sweep", "--scenario", "paper-fig2", "--receiver", "1",
                "--grid", "1:50:5", "--fixed", "x2=7.5,x3=7.5", "--out", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"mrc-grid sweep: [Errno 2] No such file or directory: '{out}'\n"
        )

    def test_unknown_scenario_fails(self, tmp_path, capsys):
        code = main(
            [
                "sweep", "--scenario", str(tmp_path / "nope.json"), "--receiver", "1",
                "--grid", "0.1:100:5", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "scenario" in capsys.readouterr().err.lower()


class TestOptimizeCommand:
    def test_bundled_comparison_scenario(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--scenario", "paper-fig3", "--out", str(out)]) == 0
        manifest, body = read_output(out)
        assert body[0] == "status,z_star,p_tx,x_1,x_2,x_3,p_1,p_2,p_3"
        row = body[1].split(",")
        assert row[0] == "optimal"
        assert float(row[1]) == pytest.approx(0.7705151313338827, rel=1e-12)
        assert float(row[2]) == pytest.approx(481.5719570836767, rel=1e-12)

    def test_huge_integer_in_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        save_scenario(load_scenario("paper-fig3"), path)
        path.write_text(path.read_text().replace('"x_max": 100.0', '"x_max": 1' + "0" * 400, 1))
        code = main(["optimize", "--scenario", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"mrc-grid optimize: {path}.receivers[0].x_max: number too large for a float\n"
        )

    def test_bracket_beyond_fixed_step(self, tmp_path, fig3, capsys):
        # An input resistance near 1e-14 ohm puts z near 1e14, where the
        # optimizer's fixed step no longer moves z.
        tiny = replace(
            fig3,
            tx=replace(fig3.tx, r_tx=1e-14),
            receivers=tuple(replace(r, h=1e-22) for r in fig3.receivers),
        )
        path = tmp_path / "tiny.json"
        save_scenario(tiny, path)
        code = main(["optimize", "--scenario", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "mrc-grid optimize: z bracket [100000000000000.0, 100000000000000.0] is too "
            "large for the optimizer's fixed z step 0.001: z_hi + 0.001 == z_hi\n"
        )

    def test_infeasible_row(self, tmp_path, fig3):
        greedy = replace(
            fig3, receivers=tuple(replace(r, p_min=1e9) for r in fig3.receivers)
        )
        path = tmp_path / "greedy.json"
        save_scenario(greedy, path)
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--scenario", str(path), "--out", str(out)]) == 0
        _, body = read_output(out)
        assert body[1].split(",")[0] == "infeasible"


class TestSimulateCommand:
    def test_summary_and_trace(self, tmp_path):
        out = tmp_path / "summary.csv"
        trace_path = tmp_path / "trace.csv"
        code = main(
            [
                "simulate", "--scenario", "paper-fig3", "--dx", "1e-3",
                "--kmax", "1500", "--trials", "2", "--seed", "5",
                "--trace", str(trace_path), "--out", str(out),
            ]
        )
        assert code == 0
        manifest, body = read_output(out)
        assert body[0] == "trials,n_feasible,n_infeasible,n_converged,mean_ptx_feasible"
        row = body[1].split(",")
        assert int(row[0]) == 2

        t_manifest, t_body = read_output(trace_path)
        assert t_body[0] == "iter,n,fb_bits,case,x_1,x_2,x_3,p_tx,p_1,p_2,p_3"
        scenario = load_scenario("paper-fig3")
        reference = run_protocol(scenario, ProtocolConfig(dx=1e-3, k_max=1500, seed=5))
        assert len(t_body) - 1 == reference.iterations
        last = t_body[-1].split(",")
        assert [float(v) for v in last[4:7]] == pytest.approx(list(reference.final))

    def test_trace_body_pinned(self, tmp_path, fig3):
        # Every trace line renders one recorded step: its agent, feedback
        # bits and case, the loads after it, and their powers from
        # solve_closed_form.
        trace_path = tmp_path / "trace.csv"
        assert main(
            [
                "simulate", "--scenario", "paper-fig3", "--dx", "1e-3", "--kmax", "1500",
                "--seed", "5", "--trace", str(trace_path), "--out", str(tmp_path / "s.csv"),
            ]
        ) == 0
        trace = run_protocol(fig3, ProtocolConfig(dx=1e-3, k_max=1500, seed=5))
        xs = list(trace.initial)
        rows = []
        for k, step in enumerate(trace.records, 1):
            n = int(step["agent"])
            xs[n] = float(step["x_new"])
            report = solve_closed_form(fig3, xs)
            bits = "".join(str(b) for b in step["feedback"])
            case = Case(step["case"]).name
            rows.append([str(k), str(n + 1), bits, case, *xs, report.p_tx, *report.p])
        header = ["iter", "n", "fb_bits", "case", "x_1", "x_2", "x_3", "p_tx", "p_1", "p_2", "p_3"]
        assert len(rows) == trace.iterations == 1500
        assert raw_body(trace_path) == csv_body(header, rows)

    def test_summary_body_pinned(self, tmp_path):
        # Recorded with every trial run in one process.  (paper-fig3 meets
        # no demand in 3000 steps at these seeds and writes no summary.)
        args = ["simulate", "--scenario", "paper-fig2", "--trials", "5", "--kmax", "3000",
                "--seed", "7"]
        for extra in ([], ["--trace", str(tmp_path / "t.csv")]):
            out = tmp_path / "s.csv"
            assert main(args + extra + ["--out", str(out)]) == 0
            assert hashlib.sha256(raw_body(out).encode()).hexdigest() == (
                "a7e5af74f3fe2cb941d4ece2add03cd0f95f75d98d83e4ed1b8738ce871841f7"
            )

    def test_traced_trial_is_trial_one(self, tmp_path, fig2):
        # The traced run is the summary's first trial; the summary is the
        # same with and without --trace, and equals batch_run's.
        for trials in (1, 3):
            config = ProtocolConfig(dx=1e-3, k_max=1500, seed=5)
            summary = batch_run(fig2, config, trials=trials)
            expected = ",".join(
                [str(summary.trials), str(summary.n_feasible), str(summary.n_infeasible),
                 str(summary.n_converged), format(summary.mean_ptx_feasible, ".16e")]
            )
            args = ["simulate", "--scenario", "paper-fig2", "--dx", "1e-3", "--kmax", "1500",
                    "--trials", str(trials), "--seed", "5"]
            traced, plain = tmp_path / "traced.csv", tmp_path / "plain.csv"
            assert main(args + ["--trace", str(tmp_path / "t.csv"), "--out", str(traced)]) == 0
            assert main(args + ["--out", str(plain)]) == 0
            assert read_output(traced)[1][1] == read_output(plain)[1][1] == expected

    def test_bare_trials_decode_nothing(self, tmp_path, fig2):
        # A bare trial's result comes from the engine: no frame is decoded
        # and no ProtocolTrace is built by run_trials, batch_run or the
        # untraced trials of simulate.  One CPU, so that every trial runs
        # where the spies see it.
        config = ProtocolConfig(dx=1e-3, k_max=1500, seed=5)
        args = ["simulate", "--scenario", "paper-fig2", "--kmax", "1500", "--seed", "5",
                "--trials", "3", "--out", str(tmp_path / "s.csv")]
        with mock.patch.object(distributed, "_usable_cpus", return_value=1), \
                mock.patch.object(distributed, "_records", wraps=distributed._records) as records, \
                mock.patch.object(distributed, "ProtocolTrace") as traces:
            assert len(run_trials(fig2, config, 3)) == batch_run(fig2, config, 3).trials == 3
            assert main(args) == 0
            assert records.call_count == 0
            # With --trace, the traced trial's one block is decoded, and only it.
            assert main(args + ["--trace", str(tmp_path / "t.csv")]) == 0
            assert records.call_count == 1
        assert traces.call_count == 0

    def test_zero_trials_rejected(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        code = main(["simulate", "--scenario", "paper-fig2", "--trials", "0",
                     "--trace", str(trace), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "trials must be an integer >= 1" in capsys.readouterr().err
        assert not trace.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "paper-fig3", "--seed", "-1",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "mrc-grid simulate: seed must be an integer >= 0 (got -1)\n"

    def test_all_infeasible_exits_nonzero(self, tmp_path, fig3, capsys):
        greedy = replace(
            fig3, receivers=tuple(replace(r, p_min=1e9) for r in fig3.receivers)
        )
        path = tmp_path / "greedy.json"
        save_scenario(greedy, path)
        code = main(
            [
                "simulate", "--scenario", str(path), "--kmax", "50",
                "--trials", "2", "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert code == 1
        assert "unmet" in capsys.readouterr().err


class TestParallelWriter:
    """A body of two or more ``_BLOCK``s is formatted block by block in this
    process; it must equal the ``csv.writer`` oracle.  ``simulate --trace``
    writes trial 0's trace a block of ``_REPLAY_ROUNDS`` rounds at a time as
    the child that runs its engine records it, while forked workers run the
    other trials; a child's failure reaches the caller, and no child may
    outlive it."""

    BLOCK = 1000
    SWEEP_POINTS = 3 * BLOCK + 17
    TRACE_STEPS = 10_000

    def sweep_args(self, out):
        return ["sweep", "--scenario", "paper-fig2", "--receiver", "1",
                "--grid", f"0.1:100:{self.SWEEP_POINTS}", "--fixed", "x2=7.5,x3=7.5",
                "--out", str(out)]

    def trace_args(self, tmp_path, out, trials=3):
        return ["simulate", "--scenario", "paper-fig3", "--kmax", str(self.TRACE_STEPS),
                "--seed", "5", "--trials", str(trials), "--trace", str(out),
                "--out", str(tmp_path / "s.csv")]

    @staticmethod
    def trace_body(scenario, trace):
        """The csv.writer rendering of each recorded step, its powers from
        ``solve_closed_form``."""
        xs = list(trace.initial)
        rows = []
        for k, step in enumerate(trace.records, 1):
            n = int(step["agent"])
            xs[n] = float(step["x_new"])
            report = solve_closed_form(scenario, xs)
            bits = "".join(str(b) for b in step["feedback"])
            rows.append([str(k), str(n + 1), bits, Case(step["case"]).name,
                         *xs, report.p_tx, *report.p])
        header = (["iter", "n", "fb_bits", "case"] + [f"x_{k + 1}" for k in range(scenario.n)]
                  + ["p_tx"] + [f"p_{k + 1}" for k in range(scenario.n)])
        return csv_body(header, rows)

    def write_on(self, cpus, args, block=BLOCK):
        """Run ``main(args)`` with ``cpus`` usable CPUs, ``block``-row CSV
        blocks and recorded blocks of ``block // N`` rounds (at least one) for
        the N receivers of its scenario; return how many processes it forked."""
        n = load_scenario(args[args.index("--scenario") + 1]).n
        fork = os.fork
        with mock.patch.object(cli, "_BLOCK", block), \
                mock.patch.object(distributed, "_REPLAY_ROUNDS", max(block // n, 1)), \
                mock.patch.object(distributed, "_usable_cpus", return_value=cpus), \
                mock.patch.object(os, "fork", side_effect=fork) as forked:
            assert main(args) == 0
        assert_no_child_left()
        return forked.call_count

    def test_bodies_equal_serial_path(self, tmp_path, fig2, fig3):
        grid = np.linspace(0.1, 100, self.SWEEP_POINTS)
        trace = run_protocol(fig3, ProtocolConfig(dx=1e-3, k_max=self.TRACE_STEPS, seed=5))
        assert len(trace.records) == self.TRACE_STEPS
        sweep_oracle = TestSweepCommand.expected_body(fig2, 1, grid, (None, 7.5, 7.5))
        trace_oracle = self.trace_body(fig3, trace)
        summaries = set()
        for cpus in (1, 2, 3):
            out = tmp_path / f"sweep{cpus}.csv"
            assert self.write_on(cpus, self.sweep_args(out)) == 0
            assert raw_body(out) == sweep_oracle
            out = tmp_path / f"trace{cpus}.csv"
            # Trials 1 and 2 run in cpus - 1 workers, and trial 0's engine in
            # one more child when a second CPU is usable.
            assert self.write_on(cpus, self.trace_args(tmp_path, out)) == cpus - 1 + (cpus > 1)
            assert raw_body(out) == trace_oracle
            summaries.add(raw_body(tmp_path / "s.csv"))
        assert len(summaries) == 1

    @staticmethod
    def draw(n):
        """The ``with_feasible_thresholds`` draw with ``n`` receivers: those of
        ``TestParallelTrials`` for N = 1 and 8, and of ``default_rng(8)`` for
        N = 3.  The N = 1 one converges at step 2221 from seed 32, the N = 3
        one at step 2218 from seed 21."""
        rng = np.random.default_rng({1: 1, 3: 8, 8: 3}[n])
        return with_feasible_thresholds(rng, random_scenario(rng, n_receivers=n))[0]

    @pytest.mark.parametrize(
        "n, k_max, block, seed",
        [
            (3, 3000, 7, 5),  # blocks of two rounds
            (3, 999, 1000, 5),  # one block of 333 rounds
            (3, 2000, 1000, 5),  # two blocks and two steps
            (1, 3000, 1000, 32),  # converges mid-block
            (8, 3000, 1000, 2),
            (8, 2000, 7, 2),  # blocks of one round
        ],
        ids=["fig3 block 7", "fig3 short", "fig3 two blocks", "N=1 converges", "N=8",
             "N=8 block 7"],
    )
    def test_streamed_trace_equals_oracle(self, tmp_path, fig3, n, k_max, block, seed):
        path = tmp_path / "scenario.json"
        save_scenario(fig3 if n == 3 else self.draw(n), path)
        scenario = load_scenario(path)
        trace = run_protocol(scenario, ProtocolConfig(dx=1e-3, k_max=k_max, seed=seed))
        assert (trace.converged, trace.iterations) == ((True, 2221) if n == 1 else (False, k_max))
        oracle = self.trace_body(scenario, trace)
        summaries = set()
        for cpus in (1, 2, 3):
            out = tmp_path / f"trace{cpus}.csv"
            args = ["simulate", "--scenario", str(path), "--kmax", str(k_max), "--seed",
                    str(seed), "--trace", str(out), "--out", str(tmp_path / "s.csv")]
            # The traced trial's engine runs in a child when a second CPU is usable.
            assert self.write_on(cpus, args, block) == (cpus > 1)
            assert raw_body(out) == oracle
            summaries.add(raw_body(tmp_path / "s.csv"))
        assert len(summaries) == 1

    @pytest.mark.skipif(not os.path.isdir(f"/proc/{os.getpid()}/task"), reason="needs /proc")
    def test_pipes_written_by_one_child_each(self, tmp_path, fig3):
        # Each pipe this process reads has its write end open in one
        # process, the child that writes it, so that its EOF means that
        # child ended or finished.  The check runs on the first block of 63
        # steps, while the workers' trials wait for it to end: however fast
        # the engine, no worker can finish first and close its pipe.
        def pipes(pid):
            """(pipe, writable) for each pipe end open in process ``pid``."""
            ends = set()
            for fd in os.listdir(f"/proc/{pid}/fd"):
                with contextlib.suppress(FileNotFoundError):
                    target = os.readlink(f"/proc/{pid}/fd/{fd}")
                    with open(f"/proc/{pid}/fdinfo/{fd}") as info:
                        flags = int(info.read().split("flags:")[1].split()[0], 8)
                    if target.startswith("pipe:"):
                        ends.add((target, flags & os.O_ACCMODE == os.O_WRONLY))
            return ends

        checked = []
        columns = cli._trace_columns
        done = tmp_path / "checked"

        def wait_for_check(in_parent):
            deadline = time.monotonic() + 60
            while not done.exists() and time.monotonic() < deadline:
                time.sleep(1e-3)

        def check_pipes():
            me = os.getpid()
            with open(f"/proc/{me}/task/{me}/children") as f:
                children = {int(pid): pipes(pid) for pid in f.read().split()}
            mine = pipes(me)
            read = {pipe for pipe, writable in mine if not writable}
            assert len(children) == 3 and len(read) == 3  # 2 workers and the engine's child
            for pipe in read:
                writers = [pid for pid, ends in children.items() if (pipe, True) in ends]
                assert (pipe, True) not in mine and len(writers) == 1
            checked.append(True)

        def spy(*args):
            for block in columns(*args):
                if not done.exists():
                    try:
                        check_pipes()  # checked while the run goes on
                    finally:
                        done.touch()
                yield block

        # Trials 1 and 2, seeds 6 and 7, run in the workers.
        with failing_engine(6, wait_for_check), failing_engine(7, wait_for_check), \
                mock.patch.object(cli, "_trace_columns", spy):
            assert self.write_on(3, self.trace_args(tmp_path, tmp_path / "t.csv"), 64) == 3
        assert checked

    def test_threaded_caller_writes_serially(self, tmp_path, fig3):
        serial = tmp_path / "serial.csv"
        with mock.patch.object(distributed, "_usable_cpus", return_value=1):
            assert main(self.trace_args(tmp_path, serial)) == 0
        trace = run_protocol(fig3, ProtocolConfig(dx=1e-3, k_max=self.TRACE_STEPS, seed=5))
        assert raw_body(serial) == self.trace_body(fig3, trace)
        out = tmp_path / "threaded.csv"
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            with mock.patch.object(distributed, "_usable_cpus", return_value=2), \
                    mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
                assert main(self.trace_args(tmp_path, out)) == 0
        finally:
            release.set()
            thread.join()
        assert raw_body(out) == raw_body(serial)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_fails_after_fork(self, tmp_path, capsys):
        # The open succeeds and the first write fails: for the trace, after
        # the worker of trial 1 and the traced trial's engine forked.
        sweep = ["sweep", "--scenario", "paper-fig2", "--receiver", "1",
                 "--grid", "0.1:100:50000", "--fixed", "x2=7.5,x3=7.5", "--out", "/dev/full"]
        assert main(sweep) == 2
        assert capsys.readouterr().err == "mrc-grid sweep: [Errno 28] No space left on device\n"
        fork = os.fork
        for trials in (1, 2):
            with mock.patch.object(distributed, "_usable_cpus", return_value=2), \
                    mock.patch.object(os, "fork", side_effect=fork) as forked:
                assert main(self.trace_args(tmp_path, "/dev/full", trials=trials)) == 2
            assert forked.call_count == trials
            assert capsys.readouterr().err == (
                "mrc-grid simulate: [Errno 28] No space left on device\n"
            )
            assert_no_child_left()

    def simulate_failing(self, tmp_path, fig3, fail):
        """``simulate --trials 2 --trace`` on two workers; the engine calls
        ``fail(in_parent)`` on trial 1, which the child runs."""
        out = tmp_path / "t.csv"
        try:
            with failing_engine(6, fail), \
                    mock.patch.object(distributed, "_usable_cpus", return_value=2):
                main(self.trace_args(tmp_path, out, trials=2))
        finally:
            # The trace was written before trial 1's result was awaited.
            assert len(raw_body(out).splitlines()) == 1 + self.TRACE_STEPS

    def test_worker_exception_reaches_caller(self, tmp_path, fig3):
        def fail(in_parent):
            assert not in_parent
            raise ValueError("boom")

        with pytest.raises(ValueError, match="^boom$"):
            self.simulate_failing(tmp_path, fig3, fail)
        assert_no_child_left()

    def test_dead_worker_raises(self, tmp_path, fig3):
        def fail(in_parent):
            if in_parent:
                raise AssertionError("trial 1 ran in the caller")
            os._exit(3)

        with pytest.raises(RuntimeError, match=r"^trial worker \d+ ended without a result "
                                               r"\(exit status 3\)$"):
            self.simulate_failing(tmp_path, fig3, fail)
        assert_no_child_left()


    def simulate_traced(self, tmp_path, fail=lambda in_parent: None):
        """``simulate --trials 1 --trace`` on two CPUs; the engine calls
        ``fail(in_parent)`` as the traced trial, seed 5, starts to run.
        Return the trace rows written."""
        out = tmp_path / "t.csv"
        try:
            with failing_engine(5, fail), \
                    mock.patch.object(distributed, "_usable_cpus", return_value=2):
                main(self.trace_args(tmp_path, out, trials=1))
        finally:
            assert_no_child_left()
        return raw_body(out).splitlines(keepends=True)[1:]

    def test_engine_exception_reaches_caller(self, tmp_path):
        def fail(in_parent):
            assert not in_parent
            raise ValueError("boom")

        with pytest.raises(ValueError, match="^boom$"):
            self.simulate_traced(tmp_path, fail)

    def test_dead_engine_raises(self, tmp_path):
        def fail(in_parent):
            if in_parent:
                raise AssertionError("the traced trial's engine ran in the caller")
            os._exit(3)

        with pytest.raises(RuntimeError, match=r"^traced trial's engine \d+ ended without "
                                               r"a result \(exit status 3\)$"):
            self.simulate_traced(tmp_path, fail)

    def test_engine_dead_mid_block(self, tmp_path, fig3):
        # The engine's child sends two whole blocks of 999 steps and half of
        # the next message, then ends: the trace has the rows of those two
        # blocks.
        dumps = pickle.dumps
        parent = os.getpid()
        sent = 0

        def cut(obj):
            nonlocal sent
            if os.getpid() == parent:
                return dumps(obj)
            sent += 1
            if sent == 4:
                os._exit(4)
            data = dumps(obj)
            return data[:len(data) // 2] if sent == 3 else data

        with mock.patch.object(pickle, "dumps", cut), \
                mock.patch.object(distributed, "_REPLAY_ROUNDS", 1000 // fig3.n), \
                pytest.raises(RuntimeError, match=r"^traced trial's engine \d+ ended without "
                                                  r"a result \(exit status 4\)$"):
            self.simulate_traced(tmp_path)
        rows = raw_body(tmp_path / "t.csv").splitlines(keepends=True)[1:]
        trace = run_protocol(fig3, ProtocolConfig(dx=1e-3, k_max=self.TRACE_STEPS, seed=5))
        assert rows == self.trace_body(fig3, trace).splitlines(keepends=True)[1:1 + 2 * 999]

    @pytest.mark.parametrize(
        "n, k_max, seed, iterations",
        [
            (1, 3000, 32, 2221),
            # Its silent round, steps 2216-2218, straddles a round boundary.
            (3, 4000, 21, 2218),
        ],
        ids=["N=1 converges", "N=3 converges"],
    )
    def test_recorded_run_independent_of_block(self, tmp_path, n, k_max, seed, iterations):
        # A converging run, recorded by run_protocol and by simulate --trace
        # in blocks of 1, 2 and 7 rounds and at the default.
        path = tmp_path / "scenario.json"
        save_scenario(self.draw(n), path)
        scenario = load_scenario(path)
        config = ProtocolConfig(dx=1e-3, k_max=k_max, seed=seed)
        args = ["simulate", "--scenario", str(path), "--kmax", str(k_max), "--seed", str(seed),
                "--trace", str(tmp_path / "t.csv"), "--out", str(tmp_path / "s.csv")]
        traces, bodies = set(), set()
        for size in (1, 2, 7, None):
            with mock.patch.object(distributed, "_REPLAY_ROUNDS",
                                   size or distributed._REPLAY_ROUNDS):
                trace = run_protocol(scenario, config)
            traces.add((trace.records.tobytes(), trace.iterations, trace.converged,
                        trace.feasible, trace.final))
            # On two CPUs, so that each block crosses from the engine's child.
            self.write_on(2, args, (size or distributed._REPLAY_ROUNDS) * n)
            bodies.add((raw_body(tmp_path / "t.csv"), raw_body(tmp_path / "s.csv")))
        assert (trace.converged, trace.iterations) == (True, iterations)
        assert len(traces) == 1 and len(bodies) == 1
        assert bodies.pop()[0] == self.trace_body(scenario, trace)

    @pytest.mark.parametrize("threaded", [False, True], ids=["one CPU", "threaded caller"])
    def test_in_process_recording_in_blocks(self, tmp_path, fig3, threaded):
        # Without a child for its engine, the traced trial still runs and is
        # decoded a block at a time, in blocks of 333 rounds; each of the two
        # trials is one run of the step engine.
        records, decoded = distributed._records, []

        def records_spy(scenario, frames):
            decoded.append(len(block := records(scenario, frames)))
            return block

        out = tmp_path / "t.csv"
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if threaded:
            thread.start()
        try:
            with engine_runs() as runs, \
                    mock.patch.object(distributed, "_records", records_spy), \
                    mock.patch.object(distributed, "_usable_cpus", return_value=1 + threaded), \
                    mock.patch.object(distributed, "_REPLAY_ROUNDS", self.BLOCK // fig3.n), \
                    mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
                assert main(self.trace_args(tmp_path, out, trials=2)) == 0
        finally:
            release.set()
            if threaded:
                thread.join()
        assert len(runs) == 2 and decoded == [999] * 10 + [10]
        trace = run_protocol(fig3, ProtocolConfig(dx=1e-3, k_max=self.TRACE_STEPS, seed=5))
        assert raw_body(out) == self.trace_body(fig3, trace)


def percent_e(values):
    """``b"%.16e" % v`` for each of ``values``, the kernel's reference."""
    return [b"%.16e" % v for v in np.asarray(values, dtype=np.float64).tolist()]


class TestFormatDoubles:
    """``_format_doubles`` gives the bytes of ``%.16e`` for every double."""

    @staticmethod
    def assert_formats(values):
        values = np.asarray(values, dtype=np.float64)
        with np.errstate(all="raise"):
            text, padded = _format_doubles(values)
        # Each row is right-aligned after zero bytes; an unpadded column has
        # none, and every text in it is 22 bytes.
        assert text.dtype == np.uint8 and text.shape == (len(values), 24 if padded else 22)
        assert padded or text.all()
        assert [row.tobytes().lstrip(b"\0") for row in text] == percent_e(values)

    def test_uniform(self):
        self.assert_formats(np.random.default_rng(1).uniform(0.01, 100, 100_000))

    def test_log_uniform_both_signs(self):
        rng = np.random.default_rng(2)
        magnitudes = np.exp(rng.uniform(np.log(1e-8), np.log(1e18), 100_000))
        self.assert_formats(magnitudes * rng.choice([-1.0, 1.0], magnitudes.size))

    def test_bit_patterns(self):
        # Random patterns are mostly far outside the fast path's range;
        # subnormals, signed zeros, infinities and nan are added.
        bits = np.random.default_rng(3).integers(0, 2**64, 100_000, dtype=np.uint64)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072009e-308,
                   np.finfo(float).max, -np.finfo(float).max]
        self.assert_formats(np.concatenate((bits.view(np.float64), special)))

    def test_powers_of_ten_and_edges(self):
        powers = 10.0 ** np.arange(-12, 23)
        below = np.nextafter(powers, 0)
        above = np.nextafter(powers, np.inf)
        edges = [1e-6, 1e16, np.nextafter(1e-6, 1), np.nextafter(1e16, 0),
                 9.99999999999999999e5, np.nextafter(1e6, 0)]
        values = np.concatenate((powers, below, np.nextafter(below, 0), above, edges))
        self.assert_formats(np.concatenate((values, -values)))

    def test_exact_ties(self):
        # t / 2**(s + 1) times 10**s is t * 5**s / 2, half an odd integer:
        # a tie between two 17-digit decimals, which %.16e rounds to even.
        rng = np.random.default_rng(4)
        ties = []
        for s in range(1, 23):
            lowest, highest = 2 * 10**16 // 5**s + 1, min(2 * 10**17 // 5**s, 2**53)
            t = rng.integers(lowest, highest, 2000) | 1
            ties.append(t.astype(np.float64) / 2.0 ** (s + 1))
        self.assert_formats(np.concatenate(ties))

    def test_fallback_values(self):
        # Whole columns outside the fast path's range, and the values that
        # have no digits to scale, are formatted by ``%`` in one assignment.
        rng = np.random.default_rng(6)
        for magnitude in (1e-8, 1e-6, 1e16, 1e17):
            column = rng.uniform(1, 9.9, 1000) * magnitude
            self.assert_formats(np.concatenate((column, -column, [magnitude])))
        subnormals = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]
        self.assert_formats(np.concatenate((subnormals, -subnormals, special)))
        self.assert_formats(special)

    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_exponent_estimate_off_by_one(self, shift):
        # Whatever log10 returns next to a power of ten, an exponent estimate
        # that is off by one sends the value to the exact fallback.
        log10 = np.log10
        values = np.random.default_rng(5).uniform(0.01, 100, 1000)
        with mock.patch.object(np, "log10", lambda a: log10(a) + shift):
            self.assert_formats(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
    def test_any_double(self, values):
        self.assert_formats(values)


class TestIntegerColumns:
    """``_write_csv`` writes integer columns as ``csv.writer`` writes them."""

    VALUES = [0, 1, 9, 10, 99, 100] + [
        10**k + d for k in range(2, 19) for d in (-1, 1)
    ] + [2**63 - 1]

    def assert_written(self, tmp_path, values):
        path = tmp_path / "counts.csv"
        column = np.array(values, np.int64)
        # Blocks of 4 rows, so that blocks need different numbers of digits.
        with mock.patch.object(cli, "_BLOCK", 4):
            cli._write_csv(str(path), "# counts", ["a", "b"], [(column, column[::-1])])
        rows = [(str(a), str(b)) for a, b in zip(values, values[::-1])]
        assert raw_body(path) == csv_body(["a", "b"], rows)

    def test_non_negative(self, tmp_path):
        self.assert_written(tmp_path, self.VALUES)

    def test_with_a_negative_value(self, tmp_path):
        self.assert_written(tmp_path, self.VALUES + [-7])


def csv_fields(columns):
    """The rows of ``columns`` as ``csv_body`` takes them: doubles as floats,
    integers and bytes as text."""
    def field(v):
        if isinstance(v, np.floating):
            return float(v)
        return v.decode() if isinstance(v, bytes) else str(v)

    return [[field(v) for v in row] for row in zip(*map(np.atleast_1d, columns))]


def spy_drops(first_fields):
    """Patch ``cli._drop_padding`` to append the first field of the first
    row of each block whose padding it drops to ``first_fields``."""
    drop = cli._drop_padding

    def spy(lines):
        first_fields.append(lines[0].tobytes().split(b",")[0].lstrip(b"\0"))
        return drop(lines)

    return mock.patch.object(cli, "_drop_padding", spy)


_DOUBLES = np.random.default_rng(9).uniform(0.01, 100, 40)


def _with(value):
    """``_DOUBLES`` with its 18th value replaced by ``value``."""
    column = _DOUBLES.copy()
    column[17] = value
    return column


class TestWritePaths:
    """``_write_csv`` writes a block of fields that all have one width each
    as it is, and drops the zero bytes of a block with a padded field: a
    negative double, a double outside (1e-6, 1e16), a count column whose
    values do not all have one number of digits or short bytes.  Both give
    the ``csv.writer`` body."""

    @pytest.mark.parametrize(
        "columns, padded",
        [
            ((np.arange(1000, 1040), _DOUBLES, _DOUBLES[::-1], np.array([b"C1", b"C5"] * 20)),
             False),
            ((np.arange(40), _with(-_DOUBLES[17])), True),
            *[((np.arange(40), _with(v)), True)
              for v in (0.0, -0.0, np.inf, np.nan, 5e-324, 1e-7, 1e16, 1e300)],
            ((np.array([9998, 9999, 10000, 10001, 99998, 99999, 100000, 100001]),
              np.zeros(8, np.int64), _DOUBLES[:8]), True),
            ((np.zeros(8, np.int64), _DOUBLES[:8]), False),
            ((b"optimal", 0.0123, 412.5, 7.5, 12.25, 30.0, 5.5, 10.0, 25.0), False),
            ((b"infeasible",) + (b"",) * 8, True),
            ((3, 2, 1, 0, 401.25), False),
        ],
        ids=["positive doubles, equal-width counts", "one negative double",
             "0.0", "-0.0", "inf", "nan", "5e-324", "1e-7", "1e16", "1e300",
             "counts gain digits", "zeros", "optimize row", "infeasible row",
             "summary row"],
    )
    def test_block_equals_csv_writer(self, tmp_path, columns, padded):
        path = tmp_path / "block.csv"
        header = [f"c{k}" for k in range(len(columns))]
        dropped = []
        with spy_drops(dropped):
            cli._write_csv(str(path), "# block", header, [columns])
        assert raw_body(path) == csv_body(header, csv_fields(columns))
        assert len(dropped) == padded

    def test_fig3_trace_drops_where_step_count_gains_a_digit(self, tmp_path, fig3):
        # Blocks of 100 rounds (300 steps) of fig3, whose loads and powers are
        # positive doubles in (1e-6, 1e16): only the blocks in which the step
        # count gains a digit, steps 1-300 and 901-1200, have a padded field.
        out, dropped = tmp_path / "t.csv", []
        args = ["simulate", "--scenario", "paper-fig3", "--kmax", "3000", "--seed", "5",
                "--trace", str(out), "--out", str(tmp_path / "s.csv")]
        with spy_drops(dropped), mock.patch.object(distributed, "_REPLAY_ROUNDS", 100):
            assert main(args) == 0
        assert dropped == [b"1", b"901"]
        trace = run_protocol(fig3, ProtocolConfig(dx=1e-3, k_max=3000, seed=5))
        assert raw_body(out) == TestParallelWriter.trace_body(fig3, trace)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(wide_systems(), st.data(), st.floats(-9.0, 0.0), st.integers(50, 300),
           st.integers(min_value=0))
    def test_wide_range_trace_equals_oracle(self, system, data, u, k_max, seed):
        # simulate --trace over wide ranges, whose loads and powers reach
        # outside (1e-6, 1e16): demands 30-90% of the power at the drawn
        # loads, and dx from 1e-9 to 1 of the largest x_max.
        scenario, loads = system
        powers = solve_closed_form(scenario, loads).p
        receivers = tuple(replace(rec, p_min=data.draw(st.floats(0.3, 0.9)) * p)
                          for rec, p in zip(scenario.receivers, powers))
        dx = 10.0**u * max(rec.x_max for rec in receivers)
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "scenario.json"), os.path.join(tmp, "t.csv")
            save_scenario(replace(scenario, receivers=receivers), path)
            scenario = load_scenario(path)
            trace = run_protocol(scenario, ProtocolConfig(dx=dx, k_max=k_max, seed=seed))
            code = main(["simulate", "--scenario", path, "--dx", repr(dx), "--kmax", str(k_max),
                         "--seed", str(seed), "--trace", out,
                         "--out", os.path.join(tmp, "s.csv")])
            assert code == (0 if trace.feasible else 1)
            assert raw_body(out) == TestParallelWriter.trace_body(scenario, trace)


class TestVerifyCommand:
    def test_passes_on_bundled(self, capsys):
        code = main(["verify", "--scenario", "paper-fig2", "--trials", "30"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True
        assert payload["trials"] == 30
        assert len(payload["properties"]) == 6

    def test_zero_trials_rejected(self, capsys):
        assert main(["verify", "--scenario", "paper-fig2", "--trials", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "mrc-grid verify: trials must be an integer >= 1 (got 0)\n"
        assert captured.out == ""

    def test_negative_seed_rejected(self, capsys):
        assert main(["verify", "--scenario", "paper-fig2", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "mrc-grid verify: seed must be an integer >= 0 (got -1)\n"
        assert captured.out == ""
