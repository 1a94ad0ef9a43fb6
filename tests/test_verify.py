import hashlib
import json
import os
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from helpers import assert_no_child_left
from mrc_wpt import distributed, verify
from mrc_wpt.circuit import solve_closed_form, solve_oracle
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


def on_cpus(cpus, scenario, trials, seed):
    """``run_verification`` with ``_in_order`` seeing ``cpus`` usable CPUs."""
    with mock.patch.object(distributed, "_usable_cpus", return_value=cpus):
        return run_verification(scenario, trials=trials, seed=seed)


class TestForkedVerification:
    """``run_verification`` checks its samples in forked workers; its report
    must equal that of the serial path, and no worker may outlive it."""

    def test_equals_serial_path(self, fig2, fig3):
        for scenario in (fig2, fig3):
            for trials in (1, 7, 1000, verify._BLOCK + 1):
                serial = on_cpus(1, scenario, trials, 11)
                assert on_cpus(2, scenario, trials, 11) == serial
                assert on_cpus(3, scenario, trials, 11) == serial
                assert_no_child_left()

    def test_reports_pinned(self, fig2, fig3):
        # Recorded from the loop that checked every sample in one process.
        pinned = (
            (fig2, 301, "ec5e80bd9b78bb0e8eb2d970690d12addb39ab5bdd7e9f2da9cfae77f59e3919"),
            (fig3, 7, "562f7ee09284b53fd30107067acbd8dbb905fe26bdb5a0ef1486ff08a385b5e6"),
        )
        for scenario, seed, expected in pinned:
            report = on_cpus(2, scenario, 1000, seed)
            assert hashlib.sha256(json.dumps(report.to_dict()).encode()).hexdigest() == expected
        assert_no_child_left()

    def test_worker_exception_reaches_caller(self, fig2):
        # Record the serial stream's loads, then fail one odd sample: with
        # two workers the odd samples are checked in the forked child.
        seen = []

        def spy(scenario, loads):
            seen.append(loads)
            return solve_oracle(scenario, loads)

        with mock.patch.object(verify, "solve_oracle", spy):
            on_cpus(1, fig2, 40, 12)
        k = 2 * int(np.random.default_rng(13).integers(20)) + 1
        parent = os.getpid()

        def failing(scenario, loads):
            if loads == seen[k]:
                raise ValueError(f"sample {k} in the caller: {os.getpid() == parent}")
            return solve_oracle(scenario, loads)

        with mock.patch.object(verify, "solve_oracle", failing):
            with pytest.raises(ValueError, match=f"^sample {k} in the caller: False$"):
                on_cpus(2, fig2, 40, 12)
        assert_no_child_left()
