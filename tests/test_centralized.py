import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrc_wpt.centralized import (
    check_feasibility,
    minimize_ptx,
    pick_feasible_point,
    z_bracket,
)
from mrc_wpt.circuit import ScenarioError, coupling_ohms2, solve_closed_form
from mrc_wpt.sampling import random_scenario, with_feasible_thresholds

from helpers import dz_resolvable_instance, feasible_instance, fig3_with_p3, rel

# Frozen regression values for the bundled comparison scenario, derived by
# this optimizer and cross-validated by dense random search over the box.
FIG3_Z_STAR = 0.7705151313338827
FIG3_PTX = 481.5719570836767


def existence_oracle(scenario, z, points=4000):
    """Independent (P3)-existence test at a candidate z.

    Uses only the demand inequality in its z-form and the monotonicity of
    the input resistance in every load: the demand-feasible set per receiver
    is found by brute force on a fine grid (the demand function peaks at
    x = r, which decides true emptiness), and the realizable input-resistance
    range over those sets is compared against 1/z.  Returns True/False, or
    None when the answer flips within one grid step (inconclusive).
    """
    half = 0.5 * scenario.tx.v_mag**2
    sets = []
    for rec in scenario.receivers:
        xs = np.geomspace(rec.x_min, rec.x_max, points)
        wh2 = (scenario.w * rec.h) ** 2

        def demand_ok(x, rec=rec, wh2=wh2):
            return half * z * z * wh2 * x / (rec.r + x) ** 2 >= rec.p_min

        idx = np.flatnonzero(demand_ok(xs))
        if idx.size == 0:
            x_vertex = min(max(rec.r, rec.x_min), rec.x_max)
            if not demand_ok(x_vertex):
                return False  # demand unreachable even at its best load
            return None  # window thinner than the grid step
        assert np.all(np.diff(idx) == 1), "demand-feasible set is not an interval"
        sets.append((xs, idx))

    def r_in_bounds(extend):
        lo = scenario.tx.r_tx
        hi = scenario.tx.r_tx
        for (xs, idx), rec in zip(sets, scenario.receivers):
            wh2 = (scenario.w * rec.h) ** 2
            a = max(idx[0] - extend, 0)
            b = min(idx[-1] + extend, len(xs) - 1)
            hi += wh2 / (rec.r + xs[a])
            lo += wh2 / (rec.r + xs[b])
        return lo, hi

    lo_t, hi_t = r_in_bounds(0)
    lo_r, hi_r = r_in_bounds(1)
    r_target = 1.0 / z
    # Knife-edge z (bracket endpoints land exactly on a bound): inconclusive.
    if min(abs(r_target - lo_t), abs(r_target - hi_t)) <= 1e-9 * r_target:
        return None
    tight = lo_t <= r_target <= hi_t
    relaxed = lo_r <= r_target <= hi_r
    return tight if tight == relaxed else None


def _eval_grid(scenario, axes):
    wh2 = np.array(coupling_ohms2(scenario))
    rr = np.array([rec.r for rec in scenario.receivers])
    pmin = np.array([rec.p_min for rec in scenario.receivers])
    half = 0.5 * scenario.tx.v_mag**2
    mesh = np.meshgrid(*axes, indexing="ij")
    x = np.stack([m.ravel() for m in mesh], axis=-1)
    r_in = scenario.tx.r_tx + (wh2 / (rr + x)).sum(axis=1)
    p = half * wh2 * x / (rr + x) ** 2 / r_in[:, None] ** 2
    feasible = (p >= pmin).all(axis=1)
    if not feasible.any():
        return None, None
    ptx = half / r_in
    i = int(np.argmin(np.where(feasible, ptx, np.inf)))
    return float(ptx[i]), x[i]


def grid_search_min_ptx(scenario, points=500):
    """Dense feasibility-constrained minimum of the transmit power.

    One global geometric grid pass per axis, then one local refinement of the
    winning cell so the grid error collapses below the z-sweep quantization.
    """
    axes = [np.geomspace(rec.x_min, rec.x_max, points) for rec in scenario.receivers]
    best, argbest = _eval_grid(scenario, axes)
    if best is None:
        return None
    fine_axes = []
    for ax, xa in zip(axes, argbest):
        j = int(np.searchsorted(ax, xa))
        fine_axes.append(
            np.geomspace(ax[max(j - 1, 0)], ax[min(j + 1, points - 1)], points)
        )
    fine, _ = _eval_grid(scenario, fine_axes)
    return best if fine is None else min(best, fine)


def optimizer_digest(fig3):
    """sha256 of ``minimize_ptx`` answers on the fig3 demand points and the
    600 witness-feasible random instances drawn from ``default_rng(11)``."""
    rng = np.random.default_rng(11)
    pool = [with_feasible_thresholds(rng, random_scenario(rng))[0] for _ in range(600)]
    digest = hashlib.sha256()
    for s in [fig3_with_p3(fig3, p3) for p3 in range(5, 55, 5)] + pool:
        res = minimize_ptx(s)
        row = (res.status, res.iterations)
        if res.is_optimal:
            row += (res.z_star.hex(), tuple(x.hex() for x in res.loads),
                    res.report.p_tx.hex(), tuple(float(p).hex() for p in res.report.p))
        digest.update(repr(row).encode())
    return digest.hexdigest()


def demand_alpha(scenario, k):
    """alpha_k = |v|^2 (w h_k)^2 / (2 p_min_k) of the demand quadratic."""
    return scenario.tx.v_mag**2 * coupling_ohms2(scenario)[k] / (2.0 * scenario.receivers[k].p_min)


def demand_windows(scenario, z):
    """Per receiver, the roots ``(x_lo, x_hi)`` of the demand quadratic
    ``x^2 + b x + r^2 = 0`` with ``b = 2 r - alpha z^2``, or None where they
    are not real.  Uses the cancellation-free ``q = -(b + sign(b) sqrt(b^2 -
    4 r^2)) / 2`` and the product ``r^2`` of the roots."""
    windows = []
    for k, rec in enumerate(scenario.receivers):
        b = 2.0 * rec.r - demand_alpha(scenario, k) * z * z
        disc = b * b - 4.0 * rec.r * rec.r
        if disc < 0.0:
            windows.append(None)
            continue
        q = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
        windows.append(tuple(sorted((q, rec.r * rec.r / q))))
    return windows


class TestZBracket:
    def test_ordering_and_values(self, fig3):
        br = z_bracket(fig3, 1e-3)
        assert 0 < br.z_lo <= br.z_hi
        # Bit equality with the closed form at the load box corners.
        x_min = [rec.x_min for rec in fig3.receivers]
        x_max = [rec.x_max for rec in fig3.receivers]
        assert br.z_lo == 1.0 / solve_closed_form(fig3, x_min).r_in
        assert br.z_hi == 1.0 / solve_closed_form(fig3, x_max).r_in

    def test_rejects_bad_step(self, fig3):
        z_hi = z_bracket(fig3, 1e-3).z_hi
        for dz in (0.0, 1e-300, math.ulp(z_hi) / 4):
            with pytest.raises(ScenarioError):
                z_bracket(fig3, dz)
        # The smallest step that still moves z_hi is accepted.
        assert z_bracket(fig3, math.ulp(z_hi)) == (z_bracket(fig3, 1e-3).z_lo, z_hi)

    def test_degenerate_box(self, rng):
        s = random_scenario(rng, n_receivers=2)
        s = replace(
            s,
            receivers=tuple(replace(r, x_min=1.0, x_max=1.0) for r in s.receivers),
        )
        br = z_bracket(s, 1e-3)
        assert br.z_lo == br.z_hi


class TestCheckFeasibility:
    def test_rejects_nonpositive_z(self, fig3):
        with pytest.raises(ScenarioError):
            check_feasibility(fig3, 0.0)

    def test_c1_failure_marks_rest_unevaluated(self, fig3):
        assert check_feasibility(fig3, 1e-6) is None

    def test_some_z_in_bracket_passes_on_fig3(self, fig3):
        br = z_bracket(fig3, 1e-3)
        zs = np.linspace(br.z_lo, br.z_hi, 400)
        assert any(check_feasibility(fig3, z) is not None for z in zs)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(1e-6, 1e6),
        r=st.floats(1e-3, 1e3),
        z=st.floats(1e-6, 1e3),
    )
    def test_c1_equivalent_to_real_window(self, alpha, r, z):
        # z >= 2*sqrt(r/alpha) exactly when alpha*(alpha z^2/4 - r) >= 0;
        # the two sides round differently, so knife-edge draws are excluded.
        assume(abs(alpha * z * z / 4.0 - r) > 1e-9 * max(alpha * z * z / 4.0, r))
        c1 = z >= 2.0 * math.sqrt(r / alpha)
        radicand_sign = alpha * z * z / 4.0 - r >= 0
        assert c1 == radicand_sign

    def test_window_roots_solve_demand_quadratic(self, rng):
        boxes = 0
        for _ in range(50):
            s, _ = with_feasible_thresholds(rng, random_scenario(rng))
            br = z_bracket(s, 1e-3)
            z = br.z_lo * (br.z_hi / br.z_lo) ** rng.uniform(0, 1)
            box = check_feasibility(s, z)
            for k, win in enumerate(demand_windows(s, z)):
                if win is None:
                    assert box is None
                    continue
                a, r_k = demand_alpha(s, k), s.receivers[k].r
                for root in win:
                    assert rel(root * root + (2 * r_k - a * z * z) * root + r_k * r_k, 0.0) < 1e-6 * max(
                        root * root, r_k * r_k
                    ) or abs(root * root + (2 * r_k - a * z * z) * root + r_k * r_k) < 1e-6 * (
                        a * z * z * max(root, 1.0)
                    )
                if box is not None:
                    rec = s.receivers[k]
                    assert box.y_lo[k] == pytest.approx(1.0 / (r_k + min(rec.x_max, win[1])), rel=1e-12)
                    assert box.y_hi[k] == pytest.approx(1.0 / (r_k + max(rec.x_min, win[0])), rel=1e-12)
            boxes += box is not None
        assert boxes >= 25

    def test_verdict_matches_existence_oracle(self, rng):
        agree = 0
        for _ in range(30):
            s0 = random_scenario(rng, n_receivers=int(rng.integers(1, 4)))
            s, _ = with_feasible_thresholds(rng, s0)
            br = z_bracket(s, 1e-3)
            for frac in (0.0, 0.15, 0.4, 0.6, 0.85, 1.0):
                z = br.z_lo * (br.z_hi / br.z_lo) ** frac
                oracle = existence_oracle(s, z)
                if oracle is None:
                    continue
                assert (check_feasibility(s, z) is not None) == oracle
                agree += 1
        assert agree > 100


class TestPickFeasiblePoint:
    def _passing_box(self, rng):
        while True:
            s, _ = feasible_instance(rng)
            result = minimize_ptx(s)
            if result.is_optimal:
                return s, check_feasibility(s, result.z_star)

    def test_rejects_failed_verdict(self, fig3):
        with pytest.raises(ValueError):
            pick_feasible_point(check_feasibility(fig3, 1e-6), fig3)

    def test_target_at_lower_envelope_returns_window_tops(self, rng):
        s, box = self._passing_box(rng)
        wh2 = coupling_ohms2(s)
        env_lo = sum(wh2[k] * box.y_lo[k] for k in range(s.n))
        loads = pick_feasible_point(box._replace(target=env_lo), s)
        for k, (rec, (_, x_hi)) in enumerate(zip(s.receivers, demand_windows(s, box.z))):
            assert loads[k] == pytest.approx(min(rec.x_max, x_hi), rel=1e-12)

    def test_target_at_upper_envelope_returns_window_bottoms(self, rng):
        s, box = self._passing_box(rng)
        wh2 = coupling_ohms2(s)
        env_hi = sum(wh2[k] * box.y_hi[k] for k in range(s.n))
        loads = pick_feasible_point(box._replace(target=env_hi), s)
        for k, (rec, (x_lo, _)) in enumerate(zip(s.receivers, demand_windows(s, box.z))):
            assert loads[k] == pytest.approx(max(rec.x_min, x_lo), rel=1e-12)

    def test_substitution_and_hyperplane(self, rng):
        for _ in range(25):
            s, box = self._passing_box(rng)
            loads = pick_feasible_point(box, s)
            wh2 = coupling_ohms2(s)
            half = 0.5 * s.tx.v_mag**2
            z = box.z
            # demand constraints in their z-form
            for k, rec in enumerate(s.receivers):
                lhs = half * z * z * wh2[k] * loads[k] / (rec.r + loads[k]) ** 2
                assert lhs >= rec.p_min * (1 - 1e-9)
            # hyperplane equality
            lhs = s.tx.r_tx + sum(
                wh2[k] / (rec.r + loads[k]) for k, rec in enumerate(s.receivers)
            )
            assert rel(lhs, 1.0 / z) < 1e-9


class TestMinimizePtx:
    def test_fig3_regression(self, fig3):
        result = minimize_ptx(fig3)
        assert result.is_optimal
        assert result.z_star == pytest.approx(FIG3_Z_STAR, rel=1e-12)
        assert result.report.p_tx == pytest.approx(FIG3_PTX, rel=1e-12)
        assert len(result.loads) == fig3.n
        for rec, x in zip(fig3.receivers, result.loads):
            assert rec.x_min <= x <= rec.x_max
        for k, rec in enumerate(fig3.receivers):
            assert result.report.p[k] >= rec.p_min * (1 - 1e-6)

    def test_objective_consistency(self, rng):
        for _ in range(20):
            s, _ = feasible_instance(rng)
            result = minimize_ptx(s)
            assert result.is_optimal
            objective = 0.5 * s.tx.v_mag**2 * result.z_star
            assert rel(objective, result.report.p_tx) < 1e-6

    def test_unreachable_demand_is_infeasible(self, fig3):
        greedy = replace(
            fig3,
            receivers=tuple(replace(r, p_min=1e9) for r in fig3.receivers),
        )
        result = minimize_ptx(greedy)
        assert result.status == "infeasible"
        assert result.loads is None and result.report is None
        assert result.iterations > 0

    def test_matches_grid_oracle_small_n(self, rng):
        for i in range(12):
            s, _ = dz_resolvable_instance(rng, n_receivers=1 + (i % 2))
            result = minimize_ptx(s)
            assert result.is_optimal
            grid_min = grid_search_min_ptx(s)
            assert grid_min is not None
            budget = 1e-3 * s.tx.v_mag**2 / 2
            assert abs(result.report.p_tx - grid_min) <= budget * (1 + 1e-9)

    def test_first_pass_is_minimal_feasible_z(self, rng):
        # Optimality of the sweep does not need feasibility to be monotone in
        # z (the objective is increasing in z, so the first passing z is the
        # minimum); what must hold is that no feasible z sits materially
        # below the returned one.  A feasible set of more than one run of
        # passing z would be surfaced as a finding, not a failure.
        non_contiguous = 0
        for i in range(15):
            s, _ = feasible_instance(rng, n_receivers=int(rng.integers(1, 4)))
            result = minimize_ptx(s)
            assert result.is_optimal
            br = z_bracket(s, 1e-3)
            zs = np.linspace(br.z_lo, br.z_hi, 500)
            flags = [check_feasibility(s, float(z)) is not None for z in zs]
            passing = [z for z, ok in zip(zs, flags) if ok]
            assert passing, "scan found no feasible z but the sweep did"
            assert result.z_star <= min(passing) + 1e-3 * (1 + 1e-9)
            runs = sum(ok and not prev for prev, ok in zip([False] + flags, flags))
            if runs > 1:
                non_contiguous += 1
        if non_contiguous:
            import warnings

            warnings.warn(
                f"feasibility in z was non-contiguous on {non_contiguous}/15 "
                "instances (first-pass optimality unaffected)",
                stacklevel=1,
            )

    def test_outputs_pinned(self, fig3):
        # Recorded from the sweep that built a per-receiver verdict at every
        # step; the digest includes its 23 false "infeasible" answers, so a
        # search that fixes them must change it on purpose.
        assert optimizer_digest(fig3) == (
            "7b66632c7b9804e7b3e75bd03751eb8e8fe340e23e8259d865319ceb9ba5fc52"
        )

    def test_degenerate_bracket_single_candidate(self, rng):
        s0 = random_scenario(rng, n_receivers=2)
        s0 = replace(
            s0,
            receivers=tuple(replace(r, x_min=2.0, x_max=2.0) for r in s0.receivers),
        )
        s, _ = with_feasible_thresholds(rng, s0)
        result = minimize_ptx(s)
        assert result.is_optimal
        assert result.iterations == 1
        assert tuple(result.loads) == pytest.approx((2.0, 2.0), rel=1e-9)
