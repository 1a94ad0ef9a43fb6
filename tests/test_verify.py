from dataclasses import replace
from unittest import mock

import pytest

from mrc_wpt import verify
from mrc_wpt.circuit import solve_closed_form
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
        def perturbed(scenario, loads):
            rep = solve_closed_form(scenario, loads)
            return rep._replace(p_tx=rep.p_tx * (1 + 1e-6))

        with mock.patch.object(verify, "solve_closed_form", perturbed):
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
        def perturbed(scenario, loads):
            rep = solve_closed_form(scenario, loads)
            if scenario.receivers == fig2.receivers:
                return rep
            return rep._replace(p_tx=rep.p_tx * (1 + 1e-6))

        with mock.patch.object(verify, "solve_closed_form", perturbed):
            report = run_verification(fig2, trials=20, seed=3)
        equiv = report.results[0]
        assert equiv.name == "closed_form_matches_generic_solve"
        assert not equiv.passed
        assert equiv.worst > 1e-7
        assert equiv.worst_scenario <= equiv.tolerance
