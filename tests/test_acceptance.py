"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a summary line with its measured numbers, so the captured
output documents the actual margins.  Criterion 5's 10% figure is a soft
threshold on the optimizer-versus-protocol comparison; the test reports the
measured distributed-to-centralized gaps at every demand point and asserts
the threshold as stated.
"""

import time

import numpy as np
import pytest

from mrc_wpt.analysis import peak_load, sum_peak_load, sweep
from mrc_wpt.centralized import minimize_ptx
from mrc_wpt.circuit import admittance_first_column, solve_closed_form, solve_oracle
from mrc_wpt.distributed import (
    Case,
    ProtocolConfig,
    batch_run,
    run_protocol,
    verify_trace,
)
from mrc_wpt.sampling import random_loads, random_scenario

from helpers import dz_resolvable_instance, fig3_with_p3, rel
from test_centralized import existence_oracle, grid_search_min_ptx
from test_distributed import lone_receiver_scenario

BENCH_LOADS = (7.5, 7.5, 7.5)
FIG2_GRID = np.linspace(0.1, 100.0, 1000)  # 1e3 points over (0, 100]


def test_c1_peak_reproduction(fig2):
    t0 = time.perf_counter()
    x_dot = peak_load(fig2, BENCH_LOADS, 0)
    p1 = sweep(fig2, BENCH_LOADS, 0, FIG2_GRID).p[:, 0]
    idx = int(np.argmax(p1))
    grid_peak = FIG2_GRID[idx]
    step = FIG2_GRID[1] - FIG2_GRID[0]
    elapsed = time.perf_counter() - t0

    print(
        f"ACCEPTANCE C1 peak reproduction: x_peak={x_dot:.4f} ohm "
        f"(target 15.8 +- 0.1), grid argmax={grid_peak:.4f} ohm, "
        f"runtime {elapsed:.2f} s"
    )
    assert x_dot == pytest.approx(15.8, abs=0.1)
    assert abs(grid_peak - x_dot) <= step
    assert elapsed < 1.0


def test_c2_fig2_shape(fig2):
    t0 = time.perf_counter()
    powers = sweep(fig2, BENCH_LOADS, 0, FIG2_GRID)
    curves = {
        "p_tx": powers.p_tx,
        "p_2": powers.p[:, 1],
        "p_3": powers.p[:, 2],
        "p_sum": powers.p_sum,
    }
    p1 = powers.p[:, 0]
    elapsed = time.perf_counter() - t0

    worst = 0.0
    for name, curve in curves.items():
        diffs = np.diff(curve)
        floor = -1e-12 * np.maximum(curve[1:], curve[:-1])
        worst = max(worst, float((floor - diffs).max()))
        assert np.all(diffs >= floor), f"{name} is not increasing"

    idx = int(np.argmax(p1))
    tol = 1e-12 * p1
    assert np.all(np.diff(p1[: idx + 1]) >= -tol[: idx]), "p_1 dips before its peak"
    assert np.all(np.diff(p1[idx:]) <= tol[idx + 1 :]), "p_1 rises after its peak"

    print(
        f"ACCEPTANCE C2 curve shapes: p_tx/p_2/p_3/p_sum increasing over "
        f"{len(FIG2_GRID)} grid points, p_1 unimodal with peak at "
        f"{FIG2_GRID[idx]:.3f} ohm, runtime {elapsed:.2f} s"
    )
    assert elapsed < 1.0


def test_c3_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    worst_equiv = 0.0
    worst_energy = 0.0
    for _ in range(1000):
        s = random_scenario(rng)
        xs = random_loads(rng, s)
        rep = solve_closed_form(s, xs)
        orc, generic = solve_oracle(s, xs)
        currents = (s.tx.v_tx * admittance_first_column(s, xs)).tolist()

        dev = max(rel(rep.p_tx, orc.p_tx), rel(rep.p_sum, orc.p_sum))
        for a, b in zip(currents, generic.tolist()):
            dev = max(dev, rel(a, b))
        for a, b in zip(rep.p, orc.p):
            dev = max(dev, rel(a, b))
        worst_equiv = max(worst_equiv, dev)

        dissipated = 0.5 * abs(currents[0]) ** 2 * s.tx.r_tx
        for k, rec in enumerate(s.receivers):
            dissipated += 0.5 * abs(currents[k + 1]) ** 2 * (rec.r + xs[k])
        worst_energy = max(worst_energy, rel(rep.p_tx, dissipated))

        assert rep.p_sum < rep.p_tx

    elapsed = time.perf_counter() - t0
    print(
        f"ACCEPTANCE C3 oracle equivalence: 1000 scenarios, worst "
        f"current/power deviation {worst_equiv:.3e} (tol 1e-9), worst energy "
        f"imbalance {worst_energy:.3e} (tol 1e-10), runtime {elapsed:.1f} s"
    )
    assert worst_equiv <= 1e-9
    assert worst_energy <= 1e-10
    assert elapsed < 30.0


def _certify_no_feasible_z_below(scenario, z_star, dz):
    """Independent certification that no feasible z sits materially below
    ``z_star``: a fine scan of the bracket with the existence oracle (demand
    brute force + input-resistance interval), no use of the window formulas.
    Returns (certified, offending_z)."""
    from mrc_wpt.centralized import z_bracket

    bracket = z_bracket(scenario, dz)
    for z in np.arange(bracket.z_lo, z_star - dz / 2, dz / 4):
        verdict = existence_oracle(scenario, float(z), points=1500)
        if verdict is None:
            verdict = existence_oracle(scenario, float(z), points=20000)
        if verdict is not False:
            return False, float(z)
    return True, None


def test_c4_centralized_optimality_desk_scale():
    """The sweep's result against a dense load-space grid search.

    The direction "algorithm <= grid + quantization budget" is asserted on
    every instance.  The reverse direction holds whenever the grid resolves
    the demand boundary; when a constraint boundary passes between grid
    cells the 500-per-axis search can sit more than one budget above the
    true optimum, and for those (rare) instances optimality is certified
    instead by an independent scan showing no feasible z below the returned
    one.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(47)
    worst_ratio = 0.0
    grid_unresolved = 0
    for i in range(50):
        s, _ = dz_resolvable_instance(rng, n_receivers=1 + (i % 2))
        result = minimize_ptx(s)
        assert result.is_optimal, f"instance {i} reported infeasible"
        grid_min = grid_search_min_ptx(s, points=500)
        assert grid_min is not None, f"grid found no feasible point, instance {i}"
        budget = 1e-3 * s.tx.v_mag**2 / 2
        gap = result.report.p_tx - grid_min
        worst_ratio = max(worst_ratio, abs(gap) / budget)
        assert gap <= budget * (1 + 1e-9), (
            f"instance {i}: algorithm sits {gap / budget:.2f} budgets above the grid"
        )
        if gap < -budget:
            certified, z_bad = _certify_no_feasible_z_below(s, result.z_star, 1e-3)
            assert certified, (
                f"instance {i}: grid beaten by {-gap / budget:.2f} budgets and "
                f"independent scan found feasible z={z_bad} below z_star"
            )
            grid_unresolved += 1
        for k, rec in enumerate(s.receivers):
            assert result.report.p[k] >= rec.p_min * (1 - 1e-6)
    elapsed = time.perf_counter() - t0
    print(
        f"ACCEPTANCE C4 centralized optimality: 50 instances (N<=2), worst "
        f"|alg-grid| = {worst_ratio:.3f} of the dz*|v|^2/2 budget, "
        f"{grid_unresolved} instance(s) certified by the independent z-scan "
        f"after the grid under-resolved, runtime {elapsed:.1f} s"
    )
    assert elapsed < 120.0


DEMAND_POINTS = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)
FIG3_SEED = 1000
FIG3_TRIALS = 200
FIG3_CONFIG = dict(dx=1e-3, k_max=100_000)
FIG3_BUDGET_S = 30 * 60


@pytest.fixture(scope="module")
def fig3_comparison(fig3):
    """Run the optimizer-versus-protocol comparison once for both C5 tests.

    200 trials per demand point, as stated, on every host.
    """
    t0 = time.perf_counter()
    points = []
    for p3 in DEMAND_POINTS:
        s = fig3_with_p3(fig3, p3)
        opt = minimize_ptx(s)
        assert opt.is_optimal
        summary = batch_run(s, ProtocolConfig(**FIG3_CONFIG, seed=FIG3_SEED), trials=FIG3_TRIALS)
        n_feas_conv = sum(1 for r in summary.results if r.feasible and r.converged)
        points.append(
            {
                "p3": p3,
                "centralized": opt.report.p_tx,
                "distributed_mean": summary.mean_ptx_feasible,
                "gap": (summary.mean_ptx_feasible - opt.report.p_tx) / opt.report.p_tx,
                "n_feasible": summary.n_feasible,
                "n_converged": summary.n_converged,
                "n_feasible_converged": n_feas_conv,
            }
        )
    elapsed = time.perf_counter() - t0
    return {"points": points, "trials": FIG3_TRIALS, "elapsed": elapsed}


def _print_fig3_report(data):
    print(
        f"ACCEPTANCE C5 comparison: {data['trials']} trials/point, "
        f"dx=1e-3, k_max=1e5, seed base {FIG3_SEED}, "
        f"runtime {data['elapsed']:.0f} s"
    )
    print(
        "  p3[W]  centralized[W]  distributed-mean[W]  gap     "
        "feasible  converged  feas+conv"
    )
    for pt in data["points"]:
        print(
            f"  {pt['p3']:5.0f}  {pt['centralized']:14.2f}  "
            f"{pt['distributed_mean']:19.2f}  {pt['gap'] * 100:5.1f}%  "
            f"{pt['n_feasible']:8d}  {pt['n_converged']:9d}  {pt['n_feasible_converged']:9d}"
        )


def test_c5_fig3_distributed_never_beats_centralized(fig3_comparison):
    _print_fig3_report(fig3_comparison)
    for pt in fig3_comparison["points"]:
        assert pt["distributed_mean"] >= pt["centralized"], (
            f"distributed mean beat the optimum at p3={pt['p3']}"
        )
    # Raising the third demand can only cost transmit power.
    centralized = [pt["centralized"] for pt in fig3_comparison["points"]]
    assert all(a <= b + 1e-9 for a, b in zip(centralized, centralized[1:]))
    assert fig3_comparison["elapsed"] < FIG3_BUDGET_S


def test_c5_fig3_relative_gap_soft_threshold(fig3_comparison):
    _print_fig3_report(fig3_comparison)
    gaps = {pt["p3"]: pt["gap"] for pt in fig3_comparison["points"]}
    worst = max(gaps.values())
    print(f"  worst relative gap: {worst * 100:.1f}% (soft threshold 10%)")
    assert worst <= 0.10, (
        "measured distributed-vs-centralized gaps exceed the 10% soft "
        f"threshold: {{p3: gap}} = "
        + ", ".join(f"{k}: {v * 100:.1f}%" for k, v in gaps.items())
        + ".  The mean is taken over feasible trial finals per the batch "
        "contract; formally converged trials are load-adjustment deadlocks "
        "(each receiver parked at its own power peak) and are almost never "
        "feasible, so a feasible-and-converged mean has no samples.  See the "
        "report lines above for the full comparison."
    )


def test_c6_protocol_soundness(fig3):
    t0 = time.perf_counter()
    checked = 0

    # Full-length comparison-scenario traces at the criterion's parameters.
    for p3, seed in ((50, FIG3_SEED), (25, FIG3_SEED + 5)):
        s = fig3_with_p3(fig3, p3)
        opt = minimize_ptx(s)
        trace = run_protocol(s, ProtocolConfig(dx=1e-3, k_max=100_000, seed=seed))
        violations = verify_trace(s, trace)
        assert violations == [], f"p3={p3} seed={seed}: {violations[:5]}"
        if trace.feasible:
            budget = 1e-3 * s.tx.v_mag**2 / 2
            assert trace.final_report.p_tx >= opt.report.p_tx - budget
        checked += 1
        del trace

    # Shorter traces probing clamps and both termination styles.
    for seed in (5, 9):
        trace = run_protocol(fig3, ProtocolConfig(dx=1e-3, k_max=5000, seed=seed))
        assert verify_trace(fig3, trace) == []
        checked += 1

    # A converging run (lone receiver parking at its own peak).
    lone = lone_receiver_scenario()
    trace = run_protocol(lone, ProtocolConfig(dx=1e-3, k_max=50_000, seed=0))
    assert trace.converged
    assert (trace.records["case"][-lone.n:] == Case.C5).all()
    assert verify_trace(lone, trace) == []
    checked += 1

    elapsed = time.perf_counter() - t0
    print(
        f"ACCEPTANCE C6 protocol soundness: {checked} recorded traces "
        f"replayed with zero violations, runtime {elapsed:.0f} s"
    )


def test_c7_aggregate_peak_dichotomy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(53)
    grid = np.geomspace(1e-2, 1e2, 10_000)
    n_monotone = 0
    n_peaked = 0
    for _ in range(200):
        s = random_scenario(rng)
        xs = random_loads(rng, s)
        n = int(rng.integers(0, s.n))
        verdict = sum_peak_load(s, xs, n)
        p_sum = sweep(s, xs, n, grid).p_sum
        diffs = np.diff(p_sum)
        floor = -1e-12 * np.maximum(p_sum[1:], p_sum[:-1])

        if verdict is None or verdict > grid[-1]:
            assert np.all(diffs >= floor), "aggregate power not increasing"
            n_monotone += verdict is None
        else:
            idx = int(np.argmax(p_sum))
            lo = grid[max(idx - 1, 0)]
            hi = grid[min(idx + 1, len(grid) - 1)]
            assert lo <= verdict <= hi, (
                f"grid argmax {grid[idx]:.4f} not within one step of {verdict:.4f}"
            )
            n_peaked += 1
    elapsed = time.perf_counter() - t0
    print(
        f"ACCEPTANCE C7 aggregate-peak dichotomy: 200 scenarios "
        f"({n_monotone} monotone, {n_peaked} peaked, rest peaked beyond the "
        f"grid), all matching the grid sweep, runtime {elapsed:.1f} s"
    )
    assert n_monotone > 0 and n_peaked > 0
    assert elapsed < 60.0
