import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrc_wpt.circuit import (
    LoadVector,
    ReceiverSpec,
    ScenarioError,
    SystemScenario,
    TransmitterSpec,
    admittance_first_column,
    build_impedance_matrix,
    closed_form_arrays,
    det_impedance,
    solve_closed_form,
    solve_oracle,
)
from mrc_wpt.sampling import random_loads, random_scenario

from helpers import (
    _bits,
    exact_closed_form,
    rel,
    scalar_admittance,
    scalar_matrix,
    scalar_oracle,
    ulps,
    wide_systems,
)

BENCH_LOADS = (7.5, 7.5, 7.5)
# Frozen regression value, confirmed against solve_oracle (generic linear
# solve) before being hard-coded here.
BENCH_PTX = 125.63094653146918


def single_receiver(h=1.8e-6, x=7.5, r=0.15, x_min=0.01, x_max=100.0):
    tx = TransmitterSpec(v_mag=30.0, r_tx=0.35, l_tx=6.35e-6)
    rec = ReceiverSpec(r=r, l=0.85e-6, h=h, x_min=x_min, x_max=x_max, p_min=1.0)
    return SystemScenario(w=2.2e6, tx=tx, receivers=(rec,)), (x,)


class TestTypes:
    def test_transmitter_rejects_nonpositive(self):
        cases = [
            (dict(v_mag=0.0), "v_mag must be > 0 (got 0.0)"),
            (dict(r_tx=-1.0), "r_tx must be > 0 (got -1.0)"),
            (dict(l_tx=0.0), "l_tx must be > 0 (got 0.0)"),
            (dict(v_phase=math.inf), "v_phase must be finite (got inf)"),
        ]
        for change, message in cases:
            fields = dict(v_mag=30.0, r_tx=0.35, l_tx=6.35e-6) | change
            with pytest.raises(ScenarioError) as err:
                TransmitterSpec(**fields)
            assert str(err.value) == message

    def test_transmitter_phase_round_trip(self):
        tx = TransmitterSpec(v_mag=5.0, r_tx=0.5, l_tx=1e-6, v_phase=cmath.phase(3 + 4j))
        assert tx.v_tx == pytest.approx(3 + 4j)

    def test_receiver_rejects_bad_bounds(self):
        cases = [
            (dict(x_min=2.0), "x_max must be >= x_min (got x_max=1.0, x_min=2.0)"),
            (dict(x_min=0.0), "x_min must be > 0 (got 0.0)"),
            (dict(p_min=0.0), "p_min must be > 0 (got 0.0)"),
            (dict(r=0.0), "r must be > 0 (got 0.0)"),
            (dict(l=math.nan), "l must be > 0 (got nan)"),
            (dict(h=-1e-9), "h must be >= 0 (got -1e-09)"),
        ]
        for change, message in cases:
            fields = dict(r=0.1, l=1e-6, h=1e-6, x_min=0.1, x_max=1.0, p_min=1.0) | change
            with pytest.raises(ScenarioError) as err:
                ReceiverSpec(**fields)
            assert str(err.value) == message

    def test_scenario_rejects_overcoupling(self):
        tx = TransmitterSpec(v_mag=30.0, r_tx=0.35, l_tx=1e-6)
        rec = ReceiverSpec(r=0.1, l=1e-6, h=2e-6, x_min=0.1, x_max=1.0, p_min=1.0)
        with pytest.raises(ScenarioError):
            SystemScenario(w=1e6, tx=tx, receivers=(rec,))

    def test_scenario_rejects_empty(self):
        tx = TransmitterSpec(v_mag=30.0, r_tx=0.35, l_tx=1e-6)
        with pytest.raises(ScenarioError):
            SystemScenario(w=1e6, tx=tx, receivers=())

    def test_scenario_rejects_bad_frequency(self):
        tx = TransmitterSpec(v_mag=30.0, r_tx=0.35, l_tx=1e-6)
        rec = ReceiverSpec(r=0.1, l=1e-6, h=1e-6, x_min=0.1, x_max=1.0, p_min=1.0)
        for w in (0.0, math.inf):
            with pytest.raises(ScenarioError) as err:
                SystemScenario(w=w, tx=tx, receivers=(rec,))
            assert str(err.value) == f"w must be > 0 (got {w})"

    def test_load_vector_validation(self):
        with pytest.raises(ScenarioError):
            LoadVector((1.0, -2.0))
        lv = LoadVector((1.0, 2.0, 3.0))
        assert len(lv) == 3 and list(lv) == [1.0, 2.0, 3.0] and lv[1] == 2.0

    def test_dimension_mismatch_signals_invalid_scenario(self, fig2):
        with pytest.raises(ScenarioError):
            solve_closed_form(fig2, (7.5, 7.5))


class TestImpedanceMatrix:
    def test_bench_entries(self, fig2):
        a = build_impedance_matrix(fig2, BENCH_LOADS)
        assert a.shape == (4, 4)
        assert a[0, 0] == pytest.approx(0.35)
        assert a[0, 1] == pytest.approx(-5.06j, rel=1e-12)
        assert a[1, 0] == pytest.approx(-5.06j, rel=1e-12)
        assert a[1, 1] == pytest.approx(7.65)
        assert a[2, 2] == pytest.approx(7.65)
        assert a[1, 2] == 0 and a[2, 1] == 0 and a[2, 3] == 0

    def test_decoupled_receiver_gives_diagonal(self):
        scenario, loads = single_receiver(h=0.0)
        a = build_impedance_matrix(scenario, loads)
        assert a[0, 1] == 0 and a[1, 0] == 0

    def test_det_matches_generic(self, fig2, rng):
        for _ in range(50):
            s = random_scenario(rng)
            xs = random_loads(rng, s)
            closed = det_impedance(s, xs)
            generic = np.linalg.det(build_impedance_matrix(s, xs))
            assert closed > 0
            assert rel(closed, complex(generic)) < 1e-12

    def test_det_decoupled(self):
        scenario, loads = single_receiver(h=0.0, x=7.5)
        assert det_impedance(scenario, loads) == pytest.approx(0.35 * 7.65, rel=1e-15)

    def test_det_positive_under_load_scaling(self, rng):
        for _ in range(30):
            s = random_scenario(rng)
            xs = np.array(random_loads(rng, s).x)
            for factor in (1.0, 3.0, 10.0, 100.0):
                assert det_impedance(s, tuple(xs * factor)) > 0


class TestClosedForm:
    def test_bench_power(self, fig2):
        rep = solve_closed_form(fig2, BENCH_LOADS)
        assert rep.p_tx == pytest.approx(BENCH_PTX, rel=1e-12)
        assert rep.p_tx == pytest.approx(125.6, abs=0.1)
        assert rep.p_sum == pytest.approx(sum(rep.p), rel=1e-12)
        assert rep.p_sum < rep.p_tx

    def test_decoupled_limit(self):
        tx = TransmitterSpec(v_mag=30.0, r_tx=0.35, l_tx=6.35e-6)
        recs = tuple(
            ReceiverSpec(r=0.15, l=0.85e-6, h=0.0, x_min=0.01, x_max=100.0, p_min=1.0)
            for _ in range(3)
        )
        s = SystemScenario(w=2.2e6, tx=tx, receivers=recs)
        rep = solve_closed_form(s, (5.0, 6.0, 7.0))
        assert rep.p_tx == pytest.approx(30.0**2 / (2 * 0.35), rel=1e-15)
        currents = tx.v_tx * admittance_first_column(s, (5.0, 6.0, 7.0))
        assert currents[1:].tolist() == [0j, 0j, 0j]
        assert rep.p == (0.0, 0.0, 0.0)

    def test_own_peak_location_bench(self, fig2):
        # p_1 over x_1 with the other loads at 7.5 ohm peaks near 15.8 ohm.
        def p1(x1):
            return solve_closed_form(fig2, (x1, 7.5, 7.5)).p[0]

        assert p1(15.8) > p1(10.0)
        assert p1(15.8) > p1(25.0)

    def test_powers_ignore_source_phase(self, fig2):
        import dataclasses

        rotated = dataclasses.replace(
            fig2, tx=dataclasses.replace(fig2.tx, v_phase=2.1)
        )
        a = solve_closed_form(fig2, BENCH_LOADS)
        b = solve_closed_form(rotated, BENCH_LOADS)
        assert a.p_tx == b.p_tx and a.p == b.p
        oa, _ = solve_oracle(fig2, BENCH_LOADS)
        ob, _ = solve_oracle(rotated, BENCH_LOADS)
        assert rel(oa.p_tx, ob.p_tx) < 1e-12
        assert all(rel(x, y) < 1e-12 for x, y in zip(oa.p, ob.p))


class TestOracleEquivalence:
    def test_bench(self, fig2):
        currents = fig2.tx.v_tx * admittance_first_column(fig2, BENCH_LOADS)
        _, generic = solve_oracle(fig2, BENCH_LOADS)
        for a, b in zip(currents, generic):
            assert rel(complex(a), complex(b)) < 1e-12

    def test_oracle_decoupled_current_exact_zero(self):
        scenario, loads = single_receiver(h=0.0)
        assert solve_oracle(scenario, loads)[1][1] == 0j

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_randomized_equivalence_and_conservation(self, seed):
        rng = np.random.default_rng(seed)
        s = random_scenario(rng)
        xs = random_loads(rng, s)
        rep = solve_closed_form(s, xs)
        orc, generic = solve_oracle(s, xs)
        currents = (s.tx.v_tx * admittance_first_column(s, xs)).tolist()

        assert rel(rep.r_in, orc.r_in) < 1e-9
        assert rel(rep.p_tx, orc.p_tx) < 1e-9
        assert rel(rep.p_sum, orc.p_sum) < 1e-9
        for a, b in zip(currents, generic.tolist()):
            assert rel(a, b) < 1e-9
        for a, b in zip(rep.p, orc.p):
            assert rel(a, b) < 1e-9

        dissipated = 0.5 * abs(currents[0]) ** 2 * s.tx.r_tx
        for k, rec in enumerate(s.receivers):
            dissipated += 0.5 * abs(currents[k + 1]) ** 2 * (rec.r + xs[k])
        assert rel(rep.p_tx, dissipated) < 1e-10
        assert rep.p_sum < rep.p_tx

    def test_admittance_column_matches_generic_inverse(self, rng):
        for _ in range(100):
            s = random_scenario(rng)
            xs = random_loads(rng, s)
            closed = admittance_first_column(s, xs)
            generic = np.linalg.inv(build_impedance_matrix(s, xs))[:, 0]
            for a, b in zip(closed, generic):
                assert rel(complex(a), complex(b)) < 1e-9

    def test_input_resistance_is_reciprocal_of_admittance_head(self, fig2):
        r_in = solve_closed_form(fig2, BENCH_LOADS).r_in
        col = admittance_first_column(fig2, BENCH_LOADS)
        assert rel(1.0 / r_in, complex(col[0])) < 1e-15

    def test_currents_definition(self, fig2):
        # p_tx = Re{v i_0*}/2 and p_n = x_n |i_n|^2 / 2 on the closed forms.
        rep = solve_closed_form(fig2, BENCH_LOADS)
        v = fig2.tx.v_tx
        i = (v * admittance_first_column(fig2, BENCH_LOADS)).tolist()
        assert rel(rep.p_tx, 0.5 * (v * i[0].conjugate()).real) < 1e-14
        for k, x in enumerate(BENCH_LOADS):
            assert rel(rep.p[k], 0.5 * x * abs(i[k + 1]) ** 2) < 1e-14


class TestClosedFormArrays:
    """The array kernel against ``solve_closed_form``, bit for bit."""

    @staticmethod
    def load_rows(rng, scenario, rows=60):
        """Loads inside and outside the box, plus lower probes at x/2."""
        lo = np.array([rec.x_min for rec in scenario.receivers])
        hi = np.array([rec.x_max for rec in scenario.receivers])
        inside = np.exp(rng.uniform(np.log(lo), np.log(hi), size=(rows, scenario.n)))
        outside = np.exp(rng.uniform(np.log(lo / 100), np.log(hi * 100), size=(rows, scenario.n)))
        halved = inside.copy()
        cols = rng.integers(0, scenario.n, size=rows)
        halved[np.arange(rows), cols] *= 0.5
        return np.vstack((inside, outside, halved))

    def assert_rows_match(self, scenario, table):
        arrays = closed_form_arrays(scenario, table)
        for row, loads in enumerate(table.tolist()):
            ref = solve_closed_form(scenario, loads)
            assert _bits(arrays.r_in[row]) == _bits(ref.r_in)
            assert _bits(arrays.p_tx[row]) == _bits(ref.p_tx)
            assert _bits(arrays.p_sum[row]) == _bits(ref.p_sum)
            assert [_bits(v) for v in arrays.p[row]] == [_bits(v) for v in ref.p]

    def test_bundled_scenarios(self, fig2, fig3, rng):
        for scenario in (fig2, fig3):
            self.assert_rows_match(scenario, self.load_rows(rng, scenario))

    def test_random_scenarios(self, rng):
        for i in range(50):
            scenario = random_scenario(rng, n_receivers=1 + i % 8)
            self.assert_rows_match(scenario, self.load_rows(rng, scenario, rows=20))

    def test_stack_shapes(self, fig3, rng):
        table = self.load_rows(rng, fig3, rows=4).reshape(3, 4, 3)
        arrays = closed_form_arrays(fig3, table)
        assert arrays.p.shape == (3, 4, 3)
        assert arrays.r_in.shape == arrays.p_tx.shape == arrays.p_sum.shape == (3, 4)
        flat = closed_form_arrays(fig3, table.reshape(12, 3))
        assert np.array_equal(arrays.p.reshape(12, 3), flat.p)
        one = closed_form_arrays(fig3, BENCH_LOADS)
        assert one.p.tolist() == list(solve_closed_form(fig3, BENCH_LOADS).p)
        assert float(one.p_tx) == solve_closed_form(fig3, BENCH_LOADS).p_tx
        # A single row (N,) and an empty stack (0, N), as verify_trace passes
        # when the initial loads are invalid.
        for loads, stack in ((BENCH_LOADS, ()), (np.empty((0, 3)), (0,))):
            arrays = closed_form_arrays(fig3, loads)
            assert np.shape(arrays.p) == stack + (3,)
            for field in (arrays.r_in, arrays.p_tx, arrays.p_sum):
                assert np.shape(field) == stack

    def test_rejects_bad_loads(self, fig3):
        with pytest.raises(ScenarioError, match="shape"):
            closed_form_arrays(fig3, np.ones((2, 2)))
        with pytest.raises(ScenarioError, match=r"x\[1\] must be > 0 \(got 0.0\)"):
            closed_form_arrays(fig3, [[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        with pytest.raises(ScenarioError, match=r"x\[2\] must be > 0"):
            closed_form_arrays(fig3, [1.0, 1.0, np.inf])


class TestColumnFunctions:
    """The public functions wrap column functions, which write Python's complex
    arithmetic out in real operations; each equals it bit for bit."""

    def test_equal_python_complex_arithmetic(self, fig2, rng):
        decoupled = replace(fig2, receivers=(replace(fig2.receivers[0], h=0.0),)
                            + fig2.receivers[1:])
        phased = replace(fig2, tx=replace(fig2.tx, v_phase=2.5))
        for s in [fig2, decoupled, phased] + [random_scenario(rng) for _ in range(200)]:
            xs = tuple(random_loads(rng, s))
            report, currents = solve_oracle(s, xs)
            expected, expected_currents = scalar_oracle(s, xs)
            flat = [[r.r_in, *r.p, r.p_tx, r.p_sum] for r in (report, expected)]
            assert np.array(flat[0]).tobytes() == np.array(flat[1]).tobytes()
            assert currents.tobytes() == expected_currents.tobytes()
            assert build_impedance_matrix(s, xs).tobytes() == scalar_matrix(s, xs).tobytes()
            assert admittance_first_column(s, xs).tobytes() == scalar_admittance(s, xs).tobytes()


class TestExactClosedForm:
    """The closed form against exact rational arithmetic.

    Over 100,000 draws of ``wide_systems`` the largest errors were 4.5 ulp
    (r_in), 5.9 (p_tx), 14.0 (a p_n) and 11.1 (p_sum).  A first-order
    rounding bound is 5 + N ulp for r_in and 22 + 2N for a p_n, but
    rounding errors of opposite sign mostly cancel; ``ULPS`` keeps 70%
    above the measured worst.
    """

    ULPS = 24

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(wide_systems())
    def test_within_ulps_of_exact(self, system):
        scenario, loads = system
        r_in, p, p_tx, p_sum = exact_closed_form(scenario, loads)
        one, rows = solve_closed_form(scenario, loads), closed_form_arrays(scenario, [loads] * 2)
        for got in ([one.r_in, *one.p, one.p_tx, one.p_sum],
                    [rows.r_in[1], *rows.p[1], rows.p_tx[1], rows.p_sum[1]]):
            errors = [ulps(v, e) for v, e in zip(got, [r_in, *p, p_tx, p_sum])]
            assert max(errors) <= self.ULPS, errors
