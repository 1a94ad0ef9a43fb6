import hashlib
import itertools
import math
import os
import time
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrc_wpt import distributed
from mrc_wpt.analysis import peak_load
from mrc_wpt.circuit import (
    ReceiverSpec,
    ScenarioError,
    SystemScenario,
    TransmitterSpec,
    solve_closed_form,
)
from mrc_wpt.distributed import (
    Case,
    NoFeasibleTrialsError,
    ProtocolConfig,
    ProtocolTrace,
    _cases,
    _load_matrix,
    batch_run,
    draw_initial_loads,
    run_protocol,
    run_trials,
    verify_trace,
)
from mrc_wpt.sampling import random_scenario, with_feasible_thresholds

from helpers import assert_no_child_left, failing_engine, fig3_with_p3, wide_systems

BENCH_LOADS = (7.5, 7.5, 7.5)


def lone_receiver_scenario():
    """One receiver whose own-power peak lies inside the load range."""
    tx = TransmitterSpec(v_mag=30.0, r_tx=0.4, l_tx=6e-6)
    rec = ReceiverSpec(r=0.2, l=1e-6, h=1.8e-6, x_min=0.05, x_max=60.0, p_min=40.0)
    return SystemScenario(w=2.0e6, tx=tx, receivers=(rec,))


def replay_scenarios(fig3):
    """fig3 plus seeded random draws with N = 1 and N = 8, for trace replays."""
    yield "fig3", fig3
    for n, seed in ((1, 1), (1, 2), (8, 3), (8, 4)):
        rng = np.random.default_rng(seed)
        scenario, _ = with_feasible_thresholds(rng, random_scenario(rng, n_receivers=n))
        yield f"random N={n} seed={seed}", scenario


def first_step(scenario, loads, dx=1e-3):
    """The record of receiver 0's first step from ``loads``, made by the step
    engine; ``verify_trace``'s replay must derive the same step."""
    with mock.patch.object(distributed, "draw_initial_loads", return_value=tuple(loads)):
        trace = run_protocol(scenario, ProtocolConfig(dx=dx, k_max=1))
        assert verify_trace(scenario, trace) == []
    return trace.records[0]


def with_receiver(scenario, n, **changes):
    """``scenario`` with fields of receiver ``n`` replaced."""
    receivers = list(scenario.receivers)
    receivers[n] = replace(receivers[n], **changes)
    return replace(scenario, receivers=tuple(receivers))


class TestClassifyPosition:
    """A hungry receiver takes C1 below its peak, C2 above it and C5 at it,
    so its case tells the side of the peak that its probes indicate."""

    @pytest.fixture()
    def hungry(self, fig2):
        # x_min is lowered so that the x/2 fold case starts within bounds.
        return with_receiver(fig2, 0, p_min=1e9, x_min=1e-4)

    def test_bench_below_peak(self, hungry):
        assert peak_load(hungry, BENCH_LOADS, 0) > 7.5
        assert first_step(hungry, BENCH_LOADS)["case"] == Case.C1

    def test_bench_above_peak(self, hungry):
        # The peak location depends only on the other loads, so moving x_1 to
        # 30 ohm leaves it at ~15.88 ohm and 30 ohm sits above it.
        assert peak_load(hungry, (30.0, 7.5, 7.5), 0) == pytest.approx(15.877, abs=1e-2)
        assert first_step(hungry, (30.0, 7.5, 7.5))["case"] == Case.C2

    def test_bench_at_peak(self, hungry):
        x_dot = peak_load(hungry, BENCH_LOADS, 0)
        assert first_step(hungry, (x_dot, 7.5, 7.5))["case"] == Case.C5

    def test_probe_floor_keeps_positive(self, hungry):
        # Lower probe would cross zero; it is folded to x/2 instead.
        step = first_step(hungry, (5e-4, 7.5, 7.5))
        assert step["probes"][0] == solve_closed_form(hungry, (2.5e-4, 7.5, 7.5)).p[0]
        assert step["case"] == Case.C1


class TestDecideCase:
    def test_truth_table(self):
        # Every pattern of p_own against p_min, p_lo and p_hi against p_own
        # (below, equal, above) and the others' feedback.
        patterns = np.array(
            list(itertools.product((-1, 0, 1), (-1, 0, 1), (-1, 0, 1), (0, 1)))
        )
        own, lo, hi, fed = patterns.T
        p_own = 2.0 + own
        case = _cases(p_own, 2.0, p_own + 0.5 * lo, p_own + 0.5 * hi, fed == 1)
        for (own, lo, hi, others_fed), got in zip(patterns.tolist(), case.tolist()):
            below, above = lo < 0 < hi, hi < 0 < lo
            if own < 0 and below:
                expected = Case.C1
            elif own < 0 and above:
                expected = Case.C2
            elif own > 0 and (below or above):
                expected = Case.C4 if others_fed else Case.C3
            else:
                expected = Case.C5
            assert got == expected, (own, lo, hi, others_fed)

    def test_exact_tie_is_silent(self):
        case = _cases(np.array([5.0, 5.0]), 5.0, np.array([4.0, 6.0]),
                      np.array([6.0, 4.0]), np.array([False, True]))
        assert case.tolist() == [Case.C5, Case.C5]

    def test_hungry_at_peak_is_silent(self):
        case = _cases(np.array([1.0]), 5.0, np.array([0.5]), np.array([0.5]), np.array([True]))
        assert case.tolist() == [Case.C5]


class TestRuleTable:
    """Each of the 18 situations of ``RULE``, set up on fig2 and stepped by
    the engine, takes the case that the module docstring's rules name."""

    @pytest.mark.parametrize(
        "position, own, others, expected",
        [
            ("below", "hungry", "hungry", Case.C1),
            ("below", "hungry", "fed", Case.C1),
            ("above", "hungry", "hungry", Case.C2),
            ("above", "hungry", "fed", Case.C2),
            ("at", "hungry", "hungry", Case.C5),
            ("at", "hungry", "fed", Case.C5),
            ("below", "fed", "hungry", Case.C3),
            ("below", "fed", "fed", Case.C4),
            ("above", "fed", "hungry", Case.C3),
            ("above", "fed", "fed", Case.C4),
            ("at", "fed", "hungry", Case.C5),
            ("at", "fed", "fed", Case.C5),
            ("below", "met exactly", "hungry", Case.C5),
            ("below", "met exactly", "fed", Case.C5),
            ("above", "met exactly", "hungry", Case.C5),
            ("above", "met exactly", "fed", Case.C5),
            ("at", "met exactly", "hungry", Case.C5),
            ("at", "met exactly", "fed", Case.C5),
        ],
    )
    def test_situation(self, fig2, position, own, others, expected):
        x0 = {"below": 7.5, "above": 30.0, "at": peak_load(fig2, BENCH_LOADS, 0)}[position]
        loads = (x0, 7.5, 7.5)
        p_min = {"hungry": 1e9, "fed": 1e-3, "met exactly": solve_closed_form(fig2, loads).p[0]}
        scenario = with_receiver(fig2, 0, p_min=p_min[own])
        for n in (1, 2):
            scenario = with_receiver(scenario, n, p_min=p_min[others])
        assert first_step(scenario, loads)["case"] == expected


class TestAgentStep:
    """Receiver 0's first step from chosen loads, in the engine and the replay."""

    def test_hungry_below_peak_raises_load(self, fig3):
        # All demands unmet at the bench loads, receiver 0 below its peak.
        step = first_step(fig3, BENCH_LOADS)
        assert step["feedback"].tolist() == [0, 0, 0]
        assert step["case"] == Case.C1
        assert step["x_new"] == pytest.approx(7.5 + 1e-3)

    def test_fed_everyone_fed_lowers_load(self, fig2):
        step = first_step(fig2, BENCH_LOADS)
        assert step["feedback"].tolist() == [1, 1, 1]
        assert step["case"] == Case.C4
        assert step["x_new"] == pytest.approx(7.5 - 1e-3)

    def test_fed_with_hungry_peer_raises_load(self, fig2):
        step = first_step(with_receiver(fig2, 1, p_min=1e9), BENCH_LOADS)
        assert step["feedback"].tolist() == [1, 0, 1]
        assert step["case"] == Case.C3
        assert step["x_new"] == pytest.approx(7.5 + 1e-3)

    def test_raise_clamps_at_upper_bound(self, fig2):
        # Receiver 0 sits at x_max, above its peak, fed, with a hungry peer.
        step = first_step(with_receiver(fig2, 1, p_min=1e9), (100.0, 7.5, 7.5))
        assert step["case"] == Case.C3
        assert step["x_new"] == 100.0

    def test_exact_threshold_is_silent(self, fig2):
        p0 = solve_closed_form(fig2, BENCH_LOADS).p[0]
        step = first_step(with_receiver(fig2, 0, p_min=p0), BENCH_LOADS)
        assert step["case"] == Case.C5
        assert step["x_new"] == 7.5


class TestRunProtocol:
    def test_single_step(self, fig3):
        trace = run_protocol(fig3, ProtocolConfig(dx=1e-3, k_max=1, seed=3))
        assert trace.iterations == 1
        assert len(trace.records) == 1
        assert trace.records[0]["agent"] == 0
        assert not trace.converged

    def test_deterministic(self, fig3):
        cfg = ProtocolConfig(dx=1e-3, k_max=400, seed=11)
        a, b = run_protocol(fig3, cfg), run_protocol(fig3, cfg)
        assert len(a.records) == 400
        for field in fields(ProtocolTrace):
            if field.name == "records":
                assert np.array_equal(a.records, b.records)
            else:
                assert getattr(a, field.name) == getattr(b, field.name), field.name

    def test_record_flag_only_drops_records(self, fig3):
        cfg = ProtocolConfig(dx=1e-3, k_max=400, seed=11)
        full = run_protocol(fig3, cfg, record=True)
        bare = run_protocol(fig3, cfg, record=False)
        assert len(bare.records) == 0
        assert bare.final == full.final
        assert bare.converged == full.converged
        assert bare.feasible == full.feasible
        assert bare.final_report == full.final_report

    def test_initial_loads_within_bounds_and_seeded(self, fig3):
        a = draw_initial_loads(fig3, 77)
        b = draw_initial_loads(fig3, 77)
        assert a == b
        for rec, x in zip(fig3.receivers, a):
            assert rec.x_min <= x <= rec.x_max

    def test_replay_through_agent_step(self, fig3):
        # The per-agent step is written once more in verify_trace's replay,
        # which re-derives each step's case and x_new from the loads.
        for name, s in replay_scenarios(fig3):
            trace = run_protocol(s, ProtocolConfig(dx=1e-3, k_max=900, seed=21))
            assert verify_trace(s, trace) == [], name
            xs = list(trace.initial)
            for step in trace.records:
                xs[step["agent"]] = float(step["x_new"])
            assert tuple(xs) == trace.final, name

    def test_verify_trace_clean(self, fig3):
        for name, s in replay_scenarios(fig3):
            trace = run_protocol(s, ProtocolConfig(dx=1e-3, k_max=3000, seed=5))
            assert verify_trace(s, trace) == [], name

    def test_verify_trace_flags_tampering(self, fig3):
        trace = run_protocol(fig3, ProtocolConfig(dx=1e-3, k_max=50, seed=5))
        records = trace.records.copy()
        records["x_new"][10] += 0.5
        assert verify_trace(fig3, replace(trace, records=records))

    def test_bounds_safety(self, fig3):
        trace = run_protocol(fig3, ProtocolConfig(dx=1e-3, k_max=2000, seed=9))
        xs = list(trace.initial)
        for step in trace.records:
            xs[step["agent"]] = float(step["x_new"])
            for rec, x in zip(fig3.receivers, xs):
                assert rec.x_min <= x <= rec.x_max

    def test_single_mutator(self, fig3):
        # A spy compares the engine's own loads after every step with their
        # copy from the step before: only the active receiver's may change.
        rng = np.random.default_rng(8)
        scenario8, _ = with_feasible_thresholds(rng, random_scenario(rng, n_receivers=8))
        for scenario in (fig3, scenario8):
            x = list(draw_initial_loads(scenario, 9))
            before = list(x)
            moves = []

            def spy(step):
                n = int(np.frombuffer(step)[0])
                changed = [k for k in range(len(x)) if x[k] != before[k]]
                assert changed in ([], [n])
                moves.extend(changed)
                before[:] = x

            distributed._trial_engine(scenario, x, ProtocolConfig(dx=1e-3, k_max=2000), spy)
            assert set(moves) == set(range(scenario.n))

    def test_convergence_at_own_peak(self):
        # A lone fed receiver descending from above parks at its power peak
        # (the off-peak requirement of C3/C4 freezes it there) and the run
        # reports formal convergence.
        s = lone_receiver_scenario()
        trace = run_protocol(s, ProtocolConfig(dx=1e-3, k_max=50_000, seed=0))
        assert trace.converged
        assert trace.records[-1]["case"] == Case.C5
        assert trace.iterations < 50_000
        assert trace.final[0] == pytest.approx(peak_load(s, trace.final, 0), abs=2e-3)

    def test_lone_receiver_tracks_threshold(self):
        # Starting below the peak, the same receiver descends to its demand
        # boundary and oscillates there, which is the minimum-transmit-power
        # operating point for a single receiver.
        s = lone_receiver_scenario()
        trace = run_protocol(s, ProtocolConfig(dx=1e-3, k_max=100_000, seed=1), record=False)
        assert not trace.converged
        assert trace.final_report.p[0] == pytest.approx(40.0, abs=0.1)


class TestBatchRun:
    def test_single_trial_equals_run_protocol(self, fig3):
        cfg = ProtocolConfig(dx=1e-3, k_max=1500, seed=5)
        summary = batch_run(fig3, cfg, trials=1)
        trace = run_protocol(fig3, cfg, record=False)
        res = summary.results[0]
        assert res.final == trace.final
        assert res.converged == trace.converged
        assert res.feasible == trace.feasible
        assert res.p_tx == trace.final_report.p_tx
        assert res.iterations == trace.iterations

    def test_batch_matches_per_seed_runs(self, fig3):
        cfg = ProtocolConfig(dx=1e-3, k_max=800, seed=4)
        summary = batch_run(fig3, cfg, trials=4)
        for t, res in enumerate(summary.results):
            assert res.seed == 4 + t
            trace = run_protocol(fig3, replace(cfg, seed=4 + t), record=False)
            assert res.final == trace.final
            assert res.p_tx == trace.final_report.p_tx

    def test_deterministic_summary(self, fig3):
        cfg = ProtocolConfig(dx=1e-3, k_max=1500, seed=5)
        assert batch_run(fig3, cfg, trials=3) == batch_run(fig3, cfg, trials=3)

    def test_mean_over_feasible_trials(self, fig3):
        summary = batch_run(fig3, ProtocolConfig(dx=1e-3, k_max=5000, seed=0), trials=6)
        feasible = [r.p_tx for r in summary.results if r.feasible]
        assert summary.n_feasible == len(feasible)
        assert summary.n_feasible + summary.n_infeasible == 6
        if feasible:
            assert summary.mean_ptx_feasible == pytest.approx(
                sum(feasible) / len(feasible), rel=1e-15
            )

    def test_all_infeasible_raises(self, fig3):
        greedy = replace(
            fig3,
            receivers=tuple(replace(rec, p_min=1e9) for rec in fig3.receivers),
        )
        cfg = ProtocolConfig(dx=1e-3, k_max=50, seed=0)
        with pytest.raises(NoFeasibleTrialsError) as err:
            batch_run(greedy, cfg, trials=3)
        assert str(err.value) == "all 3 trials ended with some demand unmet"
        assert [res.seed for res in err.value.results] == [0, 1, 2]
        for res in err.value.results:
            trace = run_protocol(greedy, replace(cfg, seed=res.seed), record=False)
            assert res.converged == trace.converged
            assert not res.feasible and not trace.feasible
            assert res.iterations == trace.iterations
            assert res.p_tx == trace.final_report.p_tx
            assert res.final == trace.final

    def test_rejects_bad_trials(self, fig3):
        with pytest.raises(ScenarioError):
            batch_run(fig3, ProtocolConfig(), trials=0)


def assert_same_outcome(result, trace):
    """A bare trial result carries the terminal fields of a recorded run."""
    assert result.seed == trace.config.seed
    assert result.iterations == trace.iterations == len(trace.records)
    assert result.converged == trace.converged
    assert result.feasible == trace.feasible
    assert result.final == trace.final
    assert result.p_tx == trace.final_report.p_tx


class TestBareEqualsRecorded:
    """A bare run and a recorded run of the same seed end in the same state,
    in trials that enter an exact limit cycle, converge or keep moving."""

    @pytest.mark.parametrize(
        "p3, seed",
        [
            (40, 55),  # enters a 6-step cycle
            (5, 81),  # enters a 6-step cycle
            (35, 113),  # converges after 64,351 steps, no cycle
        ],
    )
    def test_fig3_bare_equals_recorded(self, fig3, p3, seed):
        scenario = fig3_with_p3(fig3, p3)
        config = ProtocolConfig(dx=1e-3, k_max=100_000, seed=seed)
        (result,) = run_trials(scenario, config, 1)
        assert_same_outcome(result, run_protocol(scenario, config, record=True))

    @pytest.mark.parametrize(
        "n, seed",
        [
            (1, 2),  # enters a 2-step cycle
            (1, 6),  # stuck at a clamped load: a 1-step cycle
            (8, 3),  # enters a 16-step cycle
            (8, 4),  # still moving at k_max
        ],
    )
    def test_random_bare_equals_recorded(self, n, seed):
        rng = np.random.default_rng(seed)
        scenario, _ = with_feasible_thresholds(rng, random_scenario(rng, n_receivers=n))
        config = ProtocolConfig(dx=1e-3, k_max=20_000, seed=seed)
        (result,) = run_trials(scenario, config, 1)
        assert_same_outcome(result, run_protocol(scenario, config, record=True))



def lone_with(**changes):
    """``lone_receiver_scenario`` with fields of its receiver replaced."""
    s = lone_receiver_scenario()
    return replace(s, receivers=(replace(s.receivers[0], **changes),))


def eight_receivers():
    """A seeded N = 8 draw; its largest x_max is 15.88 ohm."""
    rng = np.random.default_rng(6)
    return with_feasible_thresholds(rng, random_scenario(rng, n_receivers=8))[0]


def step_paths(scenario, trace, x_own):
    """Per step of ``trace``, whether it took each path that does not move
    the load to a probed point."""
    records = trace.records
    dx = trace.config.dx
    x_min = np.array([rec.x_min for rec in scenario.receivers])[records["agent"]]
    x_max = np.array([rec.x_max for rec in scenario.receivers])[records["agent"]]
    x_new = records["x_new"]
    moved = x_new != x_own
    up = np.isin(records["case"], (Case.C1, Case.C3))
    down = np.isin(records["case"], (Case.C2, Case.C4))
    return {
        "clamped at x_max": up & moved & (x_new == x_max) & (x_own + dx > x_max),
        "clamped at x_min": down & moved & (x_new == x_min) & (x_own - dx < x_min),
        "lower probe at x_n/2": x_own - dx <= 0.0,
        "x_n + dx == x_n": x_own + dx == x_own,
    }


class TestEngineEdgePaths:
    """The engine takes the state after a move to ``x_n +- dx`` from the
    probe at that load.  These runs take the other paths: moves clamped to a
    bound, lower probes at ``x_n / 2`` and steps below half an ulp of the
    load.  Each run is checked against ``verify_trace`` and a bare run of the
    same seed."""

    @pytest.mark.parametrize(
        "make, dx, seed, paths",
        [
            # A hungry receiver below its peak climbs to x_max and stays.
            (lambda: lone_with(x_max=1.0, p_min=1e3), 0.03, 1, {"clamped at x_max"}),
            # A fed lone receiver lowers its load to x_min and stays.
            (lambda: lone_with(p_min=1e-3), 0.03, 1, {"clamped at x_min"}),
            (eight_receivers, 0.8, 1, {"clamped at x_max", "clamped at x_min"}),
            # dx above every x_max: every lower probe is at x_n / 2.
            (lone_receiver_scenario, 120.0, 3,
             {"lower probe at x_n/2", "clamped at x_max", "clamped at x_min"}),
            (eight_receivers, 32.0, 3,
             {"lower probe at x_n/2", "clamped at x_max", "clamped at x_min"}),
            # The lone receiver starts at 38.2 ohm (ulp 7.1e-15) and stays.
            (lone_receiver_scenario, 1e-15, 0, {"x_n + dx == x_n"}),
            # Small loads move by dx while the largest ones cannot.
            (eight_receivers, 4e-16, 1, {"x_n + dx == x_n"}),
        ],
        ids=[
            "N=1 x_max", "N=1 x_min", "N=8 bounds", "N=1 half", "N=8 half",
            "N=1 ulp", "N=8 ulp",
        ],
    )
    def test_run_matches_reference(self, make, dx, seed, paths):
        scenario = make()
        config = ProtocolConfig(dx=dx, k_max=3000, seed=seed)
        trace = run_protocol(scenario, config, record=True)
        before = _load_matrix(trace.initial, trace.records["x_new"])[:-1]
        x_own = before[np.arange(len(before)), trace.records["agent"]]
        taken = step_paths(scenario, trace, x_own)
        for path in paths:
            assert taken[path].any(), f"no step took the path {path!r}"
        assert verify_trace(scenario, trace) == []
        (result,) = run_trials(scenario, config, 1)
        assert_same_outcome(result, trace)


@pytest.mark.parametrize("n", [1, 3, 8])
def test_load_matrix_from_each_first_agent(n):
    # Step 1 is agent 0's, as in every block of whole rounds; the steps end
    # mid-round, as a run's last block may.
    rng = np.random.default_rng(n)
    initial = tuple(rng.random(n).tolist())
    x_new = rng.random(3 * n + 2)
    xs = list(initial)
    expected = [list(xs)]
    for k, value in enumerate(x_new.tolist()):
        xs[k % n] = value
        expected.append(list(xs))
    assert _load_matrix(initial, x_new).tolist() == expected


def lone_power(x):
    """``lone_receiver_scenario``'s receiver power at load ``x``."""
    return solve_closed_form(lone_receiver_scenario(), (x,)).p[0]


class TestLoopEnds:
    """Runs cut at the first and last steps of the engine's counted loop."""

    @pytest.fixture(scope="class")
    def lone(self):
        """The N = 1 draw of ``default_rng(1)``; seed 29 converges at step 401."""
        rng = np.random.default_rng(1)
        return with_feasible_thresholds(rng, random_scenario(rng, n_receivers=1))[0]

    @pytest.mark.parametrize(
        "k_max, iterations, converged",
        [(1, 1, False), (400, 400, False), (401, 401, True), (402, 401, True)],
    )
    def test_k_max_around_convergence(self, lone, k_max, iterations, converged):
        config = ProtocolConfig(dx=1e-3, k_max=k_max, seed=29)
        trace = run_protocol(lone, config)
        assert (trace.iterations, trace.converged) == (iterations, converged)
        assert verify_trace(lone, trace) == []
        (result,) = run_trials(lone, config, 1)
        assert_same_outcome(result, trace)

    @pytest.mark.parametrize(
        "scenario, path, feasible",
        [
            # TestEngineEdgePaths' climb to x_max, whose demand is the
            # power at x_max: met only by the last, clamped move.
            (lone_with(x_max=1.0, p_min=lone_power(1.0)), "clamped at x_max", True),
            # Its descent to x_min, whose demand is just above the power at
            # x_min: unmet only after the last, clamped move.
            (lone_with(p_min=math.nextafter(lone_power(0.05), math.inf)),
             "clamped at x_min", False),
        ],
        ids=["x_max", "x_min"],
    )
    def test_last_step_clamped(self, scenario, path, feasible):
        config = ProtocolConfig(dx=0.03, k_max=3000, seed=1)
        full = run_protocol(scenario, config)
        before = _load_matrix(full.initial, full.records["x_new"])[:-1]
        taken = step_paths(scenario, full, before[:, 0])[path]
        config = replace(config, k_max=int(np.flatnonzero(taken)[0]) + 1)
        trace = run_protocol(scenario, config)
        assert trace.iterations == config.k_max and not trace.converged
        bound = scenario.receivers[0].x_max if feasible else scenario.receivers[0].x_min
        assert trace.final == (bound,)
        (p_final,) = solve_closed_form(scenario, trace.final).p
        assert trace.feasible == (p_final >= scenario.receivers[0].p_min) == feasible
        assert verify_trace(scenario, trace) == []
        (result,) = run_trials(scenario, config, 1)
        assert_same_outcome(result, trace)


def batch_digest(fig3):
    """sha256 of ``batch_run`` results at the ten fig3 demand points."""
    digest = hashlib.sha256()
    for p3 in range(5, 55, 5):
        config = ProtocolConfig(dx=1e-3, k_max=20_000, seed=1000)
        try:
            results = batch_run(fig3_with_p3(fig3, p3), config, trials=2).results
        except NoFeasibleTrialsError as err:
            results = err.results
        for res in results:
            row = (res.seed, res.converged, res.feasible, res.iterations,
                   res.p_tx.hex(), tuple(x.hex() for x in res.final))
            digest.update(repr(row).encode())
    return digest.hexdigest()


def test_engine_outputs_pinned(fig3):
    # Recorded from the engine that recomputed every moved load's terms, so
    # any rewrite of the step engine must stay bit-identical to it.
    assert batch_digest(fig3) == (
        "7ef2c57d482cdb7c8dabd3c577b661efa1821366cae3fe93ceed3533e90ec61e"
    )


def random_digest():
    """sha256 of ``run_trials`` results, seeds 29-36, on the N = 1 draw of
    ``default_rng(1)`` and the N = 8 draw of ``default_rng(3)``."""
    digest = hashlib.sha256()
    for n, draw in ((1, 1), (8, 3)):
        rng = np.random.default_rng(draw)
        scenario, _ = with_feasible_thresholds(rng, random_scenario(rng, n_receivers=n))
        for res in run_trials(scenario, ProtocolConfig(dx=1e-3, k_max=3000, seed=29), 8):
            row = (res.seed, res.converged, res.feasible, res.iterations,
                   res.p_tx.hex(), tuple(x.hex() for x in res.final))
            digest.update(repr(row).encode())
    return digest.hexdigest()


def test_random_engine_outputs_pinned():
    # Recorded before the rule became a table.  Three of the N = 1 trials
    # converge; the others, and every N = 8 trial, run to k_max.
    assert random_digest() == (
        "a160e669ccfadfe9014ed297dd397fad2af1f896ef65c3f91351b96b8c1d6c3d"
    )


def recorded_digest(fig3):
    """sha256 of recorded ``run_protocol`` traces, seeds 0-2 at k_max 3000:
    the records' layout and bytes and the terminal fields, on fig3 at
    p3 = 5 and 50 and on the N = 1 draw of ``default_rng(1)`` and the N = 8
    draw of ``default_rng(3)``."""
    scenarios = [fig3_with_p3(fig3, 5), fig3_with_p3(fig3, 50)]
    for n, draw in ((1, 1), (8, 3)):
        rng = np.random.default_rng(draw)
        scenarios.append(with_feasible_thresholds(rng, random_scenario(rng, n_receivers=n))[0])
    digest = hashlib.sha256()
    for scenario in scenarios:
        for seed in range(3):
            trace = run_protocol(scenario, ProtocolConfig(dx=1e-3, k_max=3000, seed=seed))
            report = trace.final_report
            digest.update(repr(trace.records.dtype.descr).encode())
            digest.update(trace.records.tobytes())
            row = (trace.iterations, trace.converged, trace.feasible,
                   tuple(x.hex() for x in trace.final), report.r_in.hex(),
                   tuple(p.hex() for p in report.p), report.p_tx.hex(), report.p_sum.hex())
            digest.update(repr(row).encode())
    return digest.hexdigest()


def test_recorded_engine_outputs_pinned(fig3):
    # Recorded before the engine took the scenario and its config, so the
    # recorded probes, feedback bits and records layout stay pinned too.
    assert recorded_digest(fig3) == (
        "d7324495e611fc1c1aaa121febe5db1954b2de977041e7df94eed5e318da8094"
    )


def serial_trials(scenario, config, trials):
    """``run_trials`` on its serial path: every trial in this process."""
    with mock.patch.object(distributed, "_usable_cpus", return_value=1):
        return run_trials(scenario, config, trials)


class TestParallelTrials:
    """``run_trials`` splits a batch's seeds over forked workers; its results
    must equal those of the serial path, and no worker may outlive it."""

    @staticmethod
    def cases(fig3):
        yield fig3_with_p3(fig3, 5), 0
        yield fig3_with_p3(fig3, 35), 100
        # The N = 1 draw's seeds 29, 32 and 36 converge before k_max.
        for n, seed, first in ((1, 1, 29), (8, 3, 0)):
            rng = np.random.default_rng(seed)
            yield with_feasible_thresholds(rng, random_scenario(rng, n_receivers=n))[0], first

    def test_equals_serial_path(self, fig3):
        converged = 0
        for scenario, first in self.cases(fig3):
            config = ProtocolConfig(dx=1e-3, k_max=3000, seed=first)
            for trials in (1, 2, 3, 5, 8):
                serial = serial_trials(scenario, config, trials)
                assert [res.seed for res in serial] == list(range(first, first + trials))
                assert run_trials(scenario, config, trials) == serial
                with mock.patch.object(distributed, "_usable_cpus", return_value=3):
                    assert run_trials(scenario, config, trials) == serial
                assert_no_child_left()
                converged += sum(res.converged and res.iterations < 3000 for res in serial)
        assert converged > 0

    def run_two_workers(self, fig3, fail):
        """Two trials, seeds 0 and 1, on two workers: seed 1 runs in the child."""
        config = ProtocolConfig(dx=1e-3, k_max=200, seed=0)
        with failing_engine(fig3, 1, fail), \
                mock.patch.object(distributed, "_usable_cpus", return_value=2):
            run_trials(fig3, config, 2)

    def test_worker_exception_reaches_caller(self, fig3):
        def fail(in_parent):
            assert not in_parent
            raise ValueError("boom")

        with pytest.raises(ValueError, match="^boom$"):
            self.run_two_workers(fig3, fail)
        assert_no_child_left()

    def test_unpicklable_worker_exception(self, fig3):
        class Local(Exception):
            pass

        def fail(in_parent):
            assert not in_parent
            raise Local("boom")

        with pytest.raises(RuntimeError) as err:
            self.run_two_workers(fig3, fail)
        assert str(err.value) == repr(Local("boom"))
        assert_no_child_left()

    def test_dead_worker_raises(self, fig3):
        def fail(in_parent):
            if in_parent:
                raise AssertionError("the failing seed ran in the caller")
            os._exit(3)

        with pytest.raises(RuntimeError, match=r"^trial worker \d+ ended without a result "
                                               r"\(exit status 3\)$"):
            self.run_two_workers(fig3, fail)
        assert_no_child_left()

    def test_interrupted_caller_kills_workers(self, fig3):
        def fail(in_parent):
            if in_parent:
                raise KeyboardInterrupt
            time.sleep(60)

        t0 = time.perf_counter()
        # Seed 0 runs in the caller and is interrupted while seed 1's worker sleeps.
        with failing_engine(fig3, 1, fail), failing_engine(fig3, 0, fail), \
                mock.patch.object(distributed, "_usable_cpus", return_value=2):
            with pytest.raises(KeyboardInterrupt):
                run_trials(fig3, ProtocolConfig(dx=1e-3, k_max=200, seed=0), 2)
        assert time.perf_counter() - t0 < 30
        assert_no_child_left()


def test_in_order_closed_early_reaps_workers():
    fork = os.fork
    with mock.patch.object(distributed, "_usable_cpus", return_value=2), \
            mock.patch.object(os, "fork", side_effect=fork) as forked:
        squares = distributed._in_order(lambda i: i * i, range(10))
        assert [next(squares), next(squares)] == [0, 1]
        squares.close()
    assert forked.call_count == 1
    assert_no_child_left()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ScenarioError):
            ProtocolConfig(dx=0.0)
        with pytest.raises(ScenarioError):
            ProtocolConfig(k_max=0)

    def test_rejects_bad_seed_dx_and_k_max(self):
        for kwargs, message in (
            ({"seed": -1}, r"seed must be an integer >= 0 \(got -1\)"),
            ({"seed": 1.5}, r"seed must be an integer >= 0 \(got 1.5\)"),
            ({"dx": float("inf")}, r"dx must be finite and > 0 \(got inf\)"),
            ({"dx": float("nan")}, r"dx must be finite and > 0 \(got nan\)"),
            ({"k_max": 2.5}, r"k_max must be an integer >= 1 \(got 2.5\)"),
        ):
            with pytest.raises(ScenarioError, match=message):
                ProtocolConfig(**kwargs)
        config = ProtocolConfig(k_max=np.int64(5), seed=np.int64(0))
        assert config.k_max == 5 and config.seed == 0


class TestVerifyTraceChecks:
    """Each check of ``verify_trace``, hit by mutating one field of a clean trace."""

    STEP = 200  # 1-based step that the record mutations change

    @pytest.fixture(scope="class")
    def trace(self, fig3):
        trace = run_protocol(fig3, ProtocolConfig(dx=1e-3, k_max=600, seed=5))
        assert verify_trace(fig3, trace) == []
        assert not trace.converged
        return trace

    def with_step(self, trace, step=STEP, **fields):
        """The trace with the given fields of 1-based ``step`` replaced."""
        records = trace.records.copy()
        for name, value in fields.items():
            records[name][step - 1] = value
        return replace(trace, records=records)

    def with_last_x_new(self, scenario, trace, x_new):
        """The last step moved to ``x_new``, with the final loads, final
        report and feasible flag made consistent with that load."""
        final = list(trace.final)
        final[trace.records[-1]["agent"]] = x_new
        report = solve_closed_form(scenario, final)
        feasible = all(p >= rec.p_min for p, rec in zip(report.p, scenario.receivers))
        bad = self.with_step(trace, len(trace.records), x_new=x_new)
        return replace(bad, final=tuple(final), final_report=report, feasible=feasible)

    def test_agent_order(self, fig3, trace):
        agent = (trace.records[self.STEP - 1]["agent"] + 1) % fig3.n
        violations = verify_trace(fig3, self.with_step(trace, agent=agent))
        assert violations[0] == f"step {self.STEP}: agent {agent} breaks round-robin order"

    def test_agent_out_of_range(self, fig3, trace):
        # The replay follows the round-robin order, so an agent that is no
        # receiver's index is reported, not indexed with.
        for agent in (fig3.n, -1):
            violations = verify_trace(fig3, self.with_step(trace, agent=agent))
            assert violations[0] == f"step {self.STEP}: agent {agent} breaks round-robin order"

    def test_feedback(self, fig3, trace):
        step = trace.records[self.STEP - 1]
        other = (step["agent"] + 1) % fig3.n
        truthful = tuple(int(b) for b in step["feedback"])
        bits = tuple(1 - b if m == other else b for m, b in enumerate(truthful))
        assert verify_trace(fig3, self.with_step(trace, feedback=bits)) == [
            f"step {self.STEP}: feedback {bits} not truthful ({truthful})"
        ]

    def test_probes(self, fig3, trace):
        p_lo, p_own, p_hi = trace.records[self.STEP - 1]["probes"]
        bad = self.with_step(trace, probes=(p_lo, p_own, p_hi * (1 + 1e-15)))
        assert verify_trace(fig3, bad) == [f"step {self.STEP}: probe powers differ from replay"]

    def test_case(self, fig3, trace):
        case = Case(trace.records[self.STEP - 1]["case"])
        wrong = Case.C5 if case is not Case.C5 else Case.C1
        assert verify_trace(fig3, self.with_step(trace, case=wrong)) == [
            f"step {self.STEP}: case {wrong.name}, replay says {case.name}"
        ]

    def test_x_new(self, fig3, trace):
        last = trace.records[-1]
        rec = fig3.receivers[last["agent"]]
        x_new = math.nextafter(last["x_new"], (rec.x_min + rec.x_max) / 2)
        bad = self.with_last_x_new(fig3, trace, x_new)
        assert verify_trace(fig3, bad) == [
            f"step {len(trace.records)}: x_new {x_new} != expected {float(last['x_new'])}"
        ]

    def test_bounds(self, fig3, trace):
        last = trace.records[-1]
        x_new = fig3.receivers[last["agent"]].x_max + 1.0
        violations = verify_trace(fig3, self.with_last_x_new(fig3, trace, x_new))
        assert f"step {len(trace.records)}: x_new {x_new} violates bounds" in violations

    def test_move_larger_than_dx(self, fig3, trace):
        x_before = float(trace.records[-1 - fig3.n]["x_new"])
        x_new = x_before - 3e-3
        violations = verify_trace(fig3, self.with_last_x_new(fig3, trace, x_new))
        step = len(trace.records)
        assert f"step {step}: move {abs(x_new - x_before)} larger than dx" in violations

    def test_x_new_not_a_load(self, fig3):
        # Step 11 moves receiver 2, which step 8 moved last.  A recorded
        # x_new that is no positive load is reported with the replay
        # stopping there; a positive one out of bounds is replayed on.
        clean = run_protocol(fig3, ProtocolConfig(dx=1e-3, k_max=30, seed=1))
        expected = float(clean.records[10]["x_new"])
        x_own = float(clean.records[7]["x_new"])

        def replay(x_new):
            return verify_trace(fig3, self.with_step(clean, 11, x_new=x_new))

        def step_11(x_new):
            return [
                f"step 11: x_new {x_new} != expected {expected}",
                f"step 11: x_new {x_new} violates bounds",
                f"step 11: move {abs(x_new - x_own)} larger than dx",
            ]

        def stop(x_new):
            return f"step 11: replay stops: x_new {x_new} is not a positive load"

        for x_new in (-1.0, 0.0):
            assert replay(x_new) == step_11(x_new) + [stop(x_new)]
        # A NaN move has no size, so it is not larger than dx.
        assert replay(math.nan) == step_11(math.nan)[:2] + [stop(math.nan)]
        violations = replay(1e9)
        assert violations[:3] == step_11(1e9)
        assert "step 12: probe powers differ from replay" in violations
        assert not any("replay stops" in v for v in violations)

    def test_last_x_new_not_a_load(self, fig3, trace):
        # The final loads hold the bad value too: still no exception.
        step = len(trace.records)
        final = list(trace.final)
        final[trace.records[-1]["agent"]] = math.nan
        bad = self.with_step(trace, step, x_new=math.nan)
        violations = verify_trace(fig3, replace(bad, final=tuple(final), feasible=True))
        assert f"step {step}: replay stops: x_new nan is not a positive load" in violations
        assert violations[-1] == "feasible flag True does not match replay (False)"

    def test_initial_not_a_load(self, fig3):
        # No step is replayed from initial loads that are no positive
        # loads; the terminal checks still run.
        clean = run_protocol(fig3, ProtocolConfig(dx=1e-3, k_max=30, seed=1))
        for x0 in (math.nan, -1.0):
            initial = (x0,) + clean.initial[1:]
            message = f"initial loads {initial} are not all positive"
            assert verify_trace(fig3, replace(clean, initial=initial)) == [message]
            bad = replace(clean, initial=initial, feasible=not clean.feasible)
            assert verify_trace(fig3, bad) == [
                message,
                f"feasible flag {bad.feasible} does not match replay ({clean.feasible})",
            ]

    def test_initial_not_the_seed_draw(self, fig3, trace):
        # The same run, its config claiming the initial loads of seed 6.
        bad = replace(trace, config=replace(trace.config, seed=6))
        assert verify_trace(fig3, bad) == [
            f"initial loads {trace.initial} are not the draw of seed 6"
        ]

    def test_final_loads(self, fig3, trace):
        final = trace.final[:-1] + (math.nextafter(trace.final[-1], 0.0),)
        report = solve_closed_form(fig3, final)
        feasible = all(p >= rec.p_min for p, rec in zip(report.p, fig3.receivers))
        bad = replace(trace, final=final, feasible=feasible)
        assert verify_trace(fig3, bad) == ["final loads differ from replayed loads"]

    def test_final_report(self, fig3):
        # The report at the initial loads (766.26 W) in place of the one at
        # the final loads (765.66 W).
        clean = run_protocol(fig3, ProtocolConfig(dx=1e-3, k_max=300, seed=5))
        bad = replace(clean, final_report=solve_closed_form(fig3, clean.initial))
        assert verify_trace(fig3, bad) == [
            "final report (r_in, p, p_tx, p_sum) differs from replayed loads"
        ]
        p_tx = math.nextafter(clean.final_report.p_tx, math.inf)
        bad = replace(clean, final_report=clean.final_report._replace(p_tx=p_tx))
        assert verify_trace(fig3, bad) == ["final report (p_tx) differs from replayed loads"]

    def test_converged_flag(self, fig3, trace):
        bad = replace(trace, converged=True)
        assert verify_trace(fig3, bad) == ["converged flag set without N trailing C5 steps"]

    def test_iterations(self, fig3, trace):
        assert verify_trace(fig3, replace(trace, iterations=7)) == [
            f"iterations 7 != {len(trace.records)} recorded steps"
        ]

    def test_stops_before_k_max(self, fig3):
        # A k_max = 3000 run cut at step 100, its terminal fields made
        # consistent with the loads after step 100.
        full = run_protocol(fig3, ProtocolConfig(dx=1e-3, k_max=3000, seed=5))
        records = full.records[:100]
        final = tuple(_load_matrix(full.initial, records["x_new"])[-1].tolist())
        report = solve_closed_form(fig3, final)
        feasible = all(p >= rec.p_min for p, rec in zip(report.p, fig3.receivers))
        cut = replace(full, records=records, iterations=100, converged=False,
                      feasible=feasible, final=final, final_report=report)
        assert verify_trace(fig3, cut) == ["100 steps without converging, k_max is 3000"]

    @pytest.fixture(scope="class")
    def converged(self):
        """A lone receiver's run that converges at step 401, and its scenario."""
        rng = np.random.default_rng(1)
        scenario, _ = with_feasible_thresholds(rng, random_scenario(rng, n_receivers=1))
        trace = run_protocol(scenario, ProtocolConfig(dx=1e-3, k_max=3000, seed=29))
        assert trace.converged and trace.iterations == 401
        assert verify_trace(scenario, trace) == []
        return scenario, trace

    def test_converged_without_flag(self, converged):
        scenario, trace = converged
        assert verify_trace(scenario, replace(trace, converged=False)) == [
            "N trailing C5 steps without the converged flag"
        ]

    def test_runs_on_after_converging(self, converged):
        # A repeat of the last, silent step replays cleanly, but the run
        # should have stopped before it.
        scenario, trace = converged
        records = np.concatenate((trace.records, trace.records[-1:]))
        longer = replace(trace, records=records, iterations=402)
        assert verify_trace(scenario, longer) == [
            "step 401: N consecutive C5 steps end the run, but the trace goes on to step 402"
        ]

    def test_feasible_flag(self, fig3, trace):
        flag = not trace.feasible
        assert verify_trace(fig3, replace(trace, feasible=flag)) == [
            f"feasible flag {flag} does not match replay ({trace.feasible})"
        ]


class TestVerifyTraceChecksOneRound(TestVerifyTraceChecks):
    """The same checks with the replay one round at a time, so that every
    round starts a block."""

    @pytest.fixture(autouse=True)
    def one_round(self):
        with mock.patch.object(distributed, "_REPLAY_ROUNDS", 1):
            yield


def test_tampered_across_replay_blocks(fig3):
    # A clean trace of more than two default replay blocks, tampered at the
    # last step of the first block, the first step of the second and, inside
    # the second, with an x_new that is no positive load.  The replay reports
    # the same one round at a time, at the default, and in one block.
    block = distributed._REPLAY_ROUNDS * fig3.n
    clean = run_protocol(fig3, ProtocolConfig(dx=1e-3, k_max=2 * block + 100, seed=5))
    assert verify_trace(fig3, clean) == []
    records = clean.records.copy()
    x_last = float(records["x_new"][block - 1])
    records["x_new"][block - 1] = math.nextafter(x_last, 0.0)
    truthful = tuple(records["feedback"][block].tolist())
    records["feedback"][block] = [1 - b for b in truthful]
    records["x_new"][block + 30] = -1.0
    tampered = replace(clean, records=records)
    reports = []
    for rounds in (1, distributed._REPLAY_ROUNDS, len(records)):
        with mock.patch.object(distributed, "_REPLAY_ROUNDS", rounds):
            reports.append(verify_trace(fig3, tampered))
    assert reports[0] == reports[1] == reports[2]
    violations = reports[0]
    # Also reported: the next step of the tampered load's agent, and the stop step.
    assert len(violations) == 8
    assert violations[:2] == [
        f"step {block}: x_new {math.nextafter(x_last, 0.0)} != expected {x_last}",
        f"step {block + 1}: feedback {tuple(1 - b for b in truthful)} not truthful ({truthful})",
    ]
    assert violations[-1] == f"step {block + 31}: replay stops: x_new -1.0 is not a positive load"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(wide_systems(), st.data(), st.floats(-9.0, 0.0), st.integers(50, 600),
       st.integers(min_value=0))
def test_verify_trace_wide_ranges(system, data, u, k_max, seed):
    # Every recorded run over wide ranges replays cleanly: demands 30-90% of
    # the power at the drawn loads, and dx from 1e-9 to 1 of the largest x_max.
    scenario, loads = system
    powers = solve_closed_form(scenario, loads).p
    receivers = tuple(replace(rec, p_min=data.draw(st.floats(0.3, 0.9)) * p)
                      for rec, p in zip(scenario.receivers, powers))
    scenario = replace(scenario, receivers=receivers)
    dx = 10.0**u * max(rec.x_max for rec in receivers)
    trace = run_protocol(scenario, ProtocolConfig(dx=dx, k_max=k_max, seed=seed))
    assert verify_trace(scenario, trace) == []
