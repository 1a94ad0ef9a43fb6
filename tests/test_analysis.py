import math

import numpy as np
import pytest

from mrc_wpt.analysis import _coupling_sums, peak_load, sum_peak_load, sweep
from mrc_wpt.circuit import ScenarioError, solve_closed_form
from mrc_wpt.sampling import random_loads, random_scenario

from helpers import _bits, rel

BENCH_LOADS = (7.5, 7.5, 7.5)

# Brute-force verification grid: log-spaced over the bound range used by the
# bundled scenarios.
GRID = np.geomspace(1e-2, 1e2, 10_000)


def grid_argmax(scenario, loads, n, values):
    return int(np.argmax(values(sweep(scenario, loads, n, GRID))))


def within_one_step(idx, target):
    lo = GRID[max(idx - 1, 0)]
    hi = GRID[min(idx + 1, len(GRID) - 1)]
    return lo <= target <= hi


class TestPeakLoad:
    def test_bench_value(self, fig2):
        assert peak_load(fig2, BENCH_LOADS, 0) == pytest.approx(15.8, abs=0.1)

    def test_single_receiver_closed_form(self, rng):
        s = random_scenario(rng, n_receivers=1)
        wh2 = (s.w * s.receivers[0].h) ** 2
        expected = s.receivers[0].r + wh2 / s.tx.r_tx
        assert peak_load(s, (1.0,), 0) == pytest.approx(expected, rel=1e-12)

    def test_exceeds_coil_resistance(self, rng):
        for _ in range(50):
            s = random_scenario(rng)
            xs = random_loads(rng, s)
            for n in range(s.n):
                assert peak_load(s, xs, n) > s.receivers[n].r

    def test_independent_of_own_entry(self, fig2):
        a = peak_load(fig2, (1.0, 7.5, 7.5), 0)
        b = peak_load(fig2, (99.0, 7.5, 7.5), 0)
        assert a == b

    def test_grid_argmax_matches_formula(self, rng):
        for _ in range(20):
            s = random_scenario(rng)
            xs = random_loads(rng, s)
            n = int(rng.integers(0, s.n))
            x_dot = peak_load(s, xs, n)
            idx = grid_argmax(s, xs, n, lambda powers: powers.p[:, n])
            if x_dot > GRID[-1]:
                assert idx == len(GRID) - 1
            else:
                assert within_one_step(idx, x_dot)

    def test_index_out_of_range(self, fig2):
        with pytest.raises(IndexError):
            peak_load(fig2, BENCH_LOADS, 3)
        with pytest.raises(IndexError):
            peak_load(fig2, BENCH_LOADS, -1)


class TestSumPeakLoad:
    def test_bench_is_monotone(self, fig2):
        assert sum_peak_load(fig2, BENCH_LOADS, 0) is None

    def test_single_receiver_equals_own_peak(self, rng):
        s = random_scenario(rng, n_receivers=1)
        assert sum_peak_load(s, (2.0,), 0) == pytest.approx(
            peak_load(s, (2.0,), 0), rel=1e-12
        )

    def test_dichotomy_against_grid(self, rng):
        checked_peaked = 0
        checked_monotone = 0
        for _ in range(40):
            s = random_scenario(rng)
            xs = random_loads(rng, s)
            n = int(rng.integers(0, s.n))
            verdict = sum_peak_load(s, xs, n)
            p_sum = sweep(s, xs, n, GRID).p_sum
            diffs = np.diff(p_sum)
            tol = 1e-12 * np.maximum(p_sum[1:], p_sum[:-1])
            if verdict is None or verdict > GRID[-1]:
                assert np.all(diffs >= -tol)
                checked_monotone += verdict is None
            else:
                idx = int(np.argmax(p_sum))
                assert within_one_step(idx, verdict)
                assert np.all(diffs[: max(idx - 1, 0)] >= -tol[: max(idx - 1, 0)])
                assert np.all(diffs[idx + 1 :] <= tol[idx + 1 :])
                checked_peaked += 1
        assert checked_monotone and checked_peaked

    def test_sensitivity_terms_nonnegative(self, rng):
        for _ in range(50):
            s = random_scenario(rng)
            xs = random_loads(rng, s)
            n = int(rng.integers(0, s.n))
            r_tx_phi, varphi = _coupling_sums(s, xs, n)
            assert r_tx_phi >= s.tx.r_tx and varphi >= 0
            assert peak_load(s, xs, n) > s.receivers[n].r


class TestSweep:
    def test_single_point_equals_closed_form(self, fig2):
        powers = sweep(fig2, BENCH_LOADS, 0, [12.5])
        assert powers.p.shape == (1, 3)
        assert powers.r_in.shape == powers.p_tx.shape == powers.p_sum.shape == (1,)
        rep = solve_closed_form(fig2, (12.5, 7.5, 7.5))
        assert _bits(powers.p_tx[0]) == _bits(rep.p_tx)
        assert _bits(powers.p_sum[0]) == _bits(rep.p_sum)
        assert [_bits(v) for v in powers.p[0]] == [_bits(v) for v in rep.p]

    def test_reversed_grid_gives_reversed_table(self, fig2):
        grid = [1.0, 5.0, 20.0]
        fwd = sweep(fig2, BENCH_LOADS, 0, grid)
        back = sweep(fig2, BENCH_LOADS, 0, grid[::-1])
        for a, b in zip(fwd, back):
            assert np.array_equal(a.view(np.uint64), b[::-1].view(np.uint64))

    def test_rejects_nonpositive_grid(self, fig2):
        with pytest.raises(ScenarioError):
            sweep(fig2, BENCH_LOADS, 0, [1.0, 0.0])

    def test_bench_shapes(self, fig2):
        grid = np.linspace(0.1, 100.0, 500)
        powers = sweep(fig2, BENCH_LOADS, 0, grid)
        p1, p2, p3 = powers.p.T
        for curve in (powers.p_tx, p2, p3, powers.p_sum):
            assert np.all(np.diff(curve) > 0)
        peak = int(np.argmax(p1))
        assert grid[peak] == pytest.approx(15.877, abs=grid[1] - grid[0])
        assert np.all(np.diff(p1[: peak - 1]) > 0)
        assert np.all(np.diff(p1[peak + 1 :]) < 0)


class TestMonotonicityProperties:
    def test_transmit_and_cross_powers_increase(self, rng):
        # Finite-difference step well above rounding, well below feature scale.
        for _ in range(50):
            s = random_scenario(rng)
            xs = list(random_loads(rng, s))
            n = int(rng.integers(0, s.n))
            delta = 1e-6 * max(1.0, xs[n])
            base = solve_closed_form(s, xs)
            xs[n] += delta
            bumped = solve_closed_form(s, xs)
            assert bumped.p_tx > base.p_tx
            for m in range(s.n):
                if m != n:
                    assert bumped.p[m] > base.p[m]

    def test_own_power_slope_sign_matches_peak_side(self, rng):
        for _ in range(50):
            s = random_scenario(rng)
            xs = list(random_loads(rng, s))
            n = int(rng.integers(0, s.n))
            x_dot = peak_load(s, xs, n)
            delta = 1e-6 * max(1.0, xs[n])
            if abs(xs[n] - x_dot) < 10 * delta:
                continue  # too close to the peak for a one-sided difference
            base = solve_closed_form(s, xs)
            xs[n] += delta
            bumped = solve_closed_form(s, xs)
            slope = bumped.p[n] - base.p[n]
            assert (slope > 0) == (xs[n] < x_dot)
