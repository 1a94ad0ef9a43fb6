import hashlib
import json
import os
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from helpers import assert_no_child_left, deviations, reference_report
from mrc_wpt import verify
from mrc_wpt.circuit import _closed_form, _oracle
from mrc_wpt.sampling import random_loads, random_scenario
from mrc_wpt.verify import run_verification


class TestRunVerification:
    def test_all_properties_pass_on_bundled(self, fig2):
        report = run_verification(fig2, trials=60, seed=1)
        assert report.all_passed
        names = [res.name for res in report.results]
        assert "closed_form_matches_generic_solve" in names
        assert "energy_conservation" in names
        for res in report.results:
            assert res.samples == 60
            assert res.worst <= res.tolerance or res.name == "delivered_below_drawn_power"

    def test_report_serializes(self, fig3):
        report = run_verification(fig3, trials=10, seed=2)
        payload = report.to_dict()
        assert payload["all_passed"] is True
        assert len(payload["properties"]) == len(report.results)

    def test_rejects_zero_trials(self, fig2):
        with pytest.raises(ValueError):
            run_verification(fig2, trials=0)

    def test_fault_injection_is_caught(self, fig2):
        # A solver whose transmit power is off by 1e-6 must fail the
        # equivalence property (tolerance 1e-9) while a clean one passes.
        def perturbed(*columns):
            r_in, p, p_tx, p_sum = _closed_form(*columns)
            return r_in, p, p_tx * (1 + 1e-6), p_sum

        with mock.patch.object(verify, "_closed_form", perturbed):
            report = run_verification(fig2, trials=20, seed=3)
        failed = {res.name for res in report.results if not res.passed}
        assert "closed_form_matches_generic_solve" in failed

    def test_deterministic_given_seed(self, fig2):
        a = run_verification(fig2, trials=15, seed=9)
        b = run_verification(fig2, trials=15, seed=9)
        assert a == b

    def test_thousand_trials_on_bundled(self, fig3):
        report = run_verification(fig3, trials=1000, seed=4)
        assert report.all_passed

    def test_scenario_worst_is_reported(self, fig2):
        # fig2 with other couplings has the same N and load box, so both
        # runs draw the same random half; only the scenario worsts differ.
        other = replace(
            fig2, receivers=tuple(replace(rec, h=0.5 * rec.h) for rec in fig2.receivers)
        )
        a = run_verification(fig2, trials=40, seed=5)
        b = run_verification(other, trials=40, seed=5)
        for res in a.results + b.results:
            assert res.worst_scenario <= res.worst
        assert [r.worst_scenario for r in a.results] != [r.worst_scenario for r in b.results]
        payload = a.to_dict()["properties"]
        assert [p["worst_deviation_scenario"] for p in payload] == [
            r.worst_scenario for r in a.results
        ]

    def test_fault_off_the_scenario_spares_its_worst(self, fig2):
        # A solver that is wrong only on the random scenarios fails the
        # equivalence property, while the caller's scenario stays clean.
        def perturbed(v_mag, r_tx, w, h, r, x):
            r_in, p, p_tx, p_sum = _closed_form(v_mag, r_tx, w, h, r, x)
            own = len(h) == fig2.n and np.all(
                [h_k == rec.h for h_k, rec in zip(h, fig2.receivers)], axis=0
            )
            return r_in, p, np.where(own, p_tx, p_tx * (1 + 1e-6)), p_sum

        with mock.patch.object(verify, "_closed_form", perturbed):
            report = run_verification(fig2, trials=20, seed=3)
        equiv = report.results[0]
        assert equiv.name == "closed_form_matches_generic_solve"
        assert not equiv.passed
        assert equiv.worst > 1e-7
        assert equiv.worst_scenario <= equiv.tolerance


def scenarios(fig2, fig3):
    """fig2, fig3 and a random N = 8 scenario as the caller's."""
    return fig2, fig3, random_scenario(np.random.default_rng(8), n_receivers=8)


class TestStackedVerification:
    """``run_verification`` checks each block's samples on stacked arrays in
    this process; its report must equal the per-sample reference, folded in
    sample order."""

    def test_equals_per_sample_reference(self, fig2, fig3):
        for scenario in scenarios(fig2, fig3):
            for trials, seeds in ((1, (0, 3, 11)), (2, (0, 3, 11)), (7, (0, 3, 11)),
                                  (1000, (11, 351)), (verify._BLOCK + 1, (11,))):
                for seed in seeds:
                    expected = reference_report(scenario, trials, seed)
                    assert run_verification(scenario, trials, seed) == expected

    def test_each_sample_equals_reference(self, fig2, fig3):
        # Groups of one N mixing scenarios, fig2 and fig3 among the N = 3 ones.
        rng = np.random.default_rng(5)
        for n in range(1, 9):
            picks = [random_scenario(rng, n_receivers=n) for _ in range(200)]
            picks += [fig2, fig3] * 50 if n == 3 else []
            samples = [(s, tuple(random_loads(rng, s)), False) for s in picks]
            devs, det_closed = verify._check(samples)
            for (s, xs, _), row, det in zip(samples, devs.tolist(), det_closed.tolist()):
                expected, positive = deviations((s, xs))
                assert tuple(row) == expected
                assert (det > 0.0) == positive

    def test_reports_pinned(self, fig2, fig3):
        # Recorded from the loop that checked every sample in one process.
        pinned = (
            (fig2, 301, "ec5e80bd9b78bb0e8eb2d970690d12addb39ab5bdd7e9f2da9cfae77f59e3919"),
            (fig3, 7, "562f7ee09284b53fd30107067acbd8dbb905fe26bdb5a0ef1486ff08a385b5e6"),
        )
        for scenario, seed, expected in pinned:
            report = run_verification(scenario, trials=1000, seed=seed)
            assert hashlib.sha256(json.dumps(report.to_dict()).encode()).hexdigest() == expected

    def test_forks_nothing(self, fig2):
        expected = reference_report(fig2, 300, 12)
        with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
            assert run_verification(fig2, trials=300, seed=12) == expected
        assert_no_child_left()

    def test_arithmetic_failure_raises(self, fig2):
        # Currents whose squares overflow a double, or a transmitter current
        # that underflows to 0, cannot be checked: the oracle raises, as
        # Python's float arithmetic did.  Other overflows stay quiet.
        for bad in (replace(fig2, tx=replace(fig2.tx, v_mag=1e160)), replace(fig2, w=1e300)):
            with pytest.raises(ArithmeticError), np.errstate(all="ignore"):
                run_verification(bad, trials=4, seed=1)

    def test_exception_reaches_caller(self, fig2):
        # The oracle fails on the random scenarios with 5 receivers.
        def failing(v, x, a):
            if len(x) == 5:
                raise ValueError("stacked check of N = 5")
            return _oracle(v, x, a)

        with mock.patch.object(verify, "_oracle", failing):
            with pytest.raises(ValueError, match="^stacked check of N = 5$"):
                run_verification(fig2, trials=40, seed=12)
