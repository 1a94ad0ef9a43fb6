import hashlib
import json

import numpy as np
import pytest

from mrc_wpt.circuit import ScenarioError
from mrc_wpt.sampling import random_scenario
from mrc_wpt.scenario_io import (
    BUNDLED_SCENARIOS,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


def valid_payload():
    return {
        "omega": 2.2e6,
        "transmitter": {"v_tx_mag": 35.0, "v_tx_phase": 0.0, "r_tx": 0.35, "l_tx": 6.35e-6},
        "receivers": [
            {"r": 0.15, "l": 8.5e-7, "h": 2.3e-6, "x_min": 0.01, "x_max": 100.0, "p_min": 1.0},
        ],
    }


class TestBundled:
    def test_names(self):
        assert BUNDLED_SCENARIOS == ("paper-fig2", "paper-fig3")

    def test_fig2_parameters(self, fig2):
        assert fig2.n == 3
        assert fig2.w == pytest.approx(2.2e6)
        assert fig2.tx.v_mag == pytest.approx(25 * 2**0.5, rel=1e-15)
        assert fig2.tx.r_tx == pytest.approx(0.35)
        assert fig2.tx.l_tx == pytest.approx(6.35e-6)
        assert [rec.h for rec in fig2.receivers] == pytest.approx(
            [2.3e-6, 1.1e-6, 0.9e-6]
        )
        assert all(rec.r == pytest.approx(0.15) for rec in fig2.receivers)
        assert all(rec.l == pytest.approx(0.85e-6) for rec in fig2.receivers)

    def test_fig3_demands_and_bounds(self, fig3):
        assert [rec.p_min for rec in fig3.receivers] == [250.0, 50.0, 50.0]
        assert all(rec.x_min == 0.01 and rec.x_max == 100.0 for rec in fig3.receivers)


class TestParsing:
    def test_round_trip_exact(self, tmp_path, rng):
        for _ in range(10):
            s = random_scenario(rng)
            path = tmp_path / "s.json"
            save_scenario(s, path)
            assert load_scenario(path) == s

    def test_saved_bytes_pinned(self, tmp_path, fig2, fig3):
        # Recorded from the writer that spelled out every key by hand.
        rng = np.random.default_rng(17)
        path = tmp_path / "s.json"
        digest = hashlib.sha256()
        for s in [fig2, fig3] + [random_scenario(rng) for _ in range(20)]:
            save_scenario(s, path)
            digest.update(path.read_bytes())
        assert digest.hexdigest() == (
            "60c56e294f260014ac2739bc187711d6d929a04fb0687c782b47bb6f87b016cb"
        )

    def test_dict_round_trip(self, fig3):
        assert scenario_from_dict(scenario_to_dict(fig3)) == fig3

    def test_phase_defaults_to_zero(self):
        payload = valid_payload()
        del payload["transmitter"]["v_tx_phase"]
        assert scenario_from_dict(payload).tx.v_phase == 0.0

    def test_missing_field_names_path(self):
        payload = valid_payload()
        del payload["receivers"][0]["x_max"]
        # The field's path is named once, not again by its receiver.
        with pytest.raises(ScenarioError, match=r"^scenario\.receivers\[0\]\.x_max: missing"):
            scenario_from_dict(payload)

    def test_wrong_type_names_path(self):
        payload = valid_payload()
        payload["transmitter"]["r_tx"] = "high"
        with pytest.raises(ScenarioError, match=r"transmitter.r_tx"):
            scenario_from_dict(payload)
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict([payload])
        assert str(err.value) == "scenario: expected an object, got list"
        payload = valid_payload()
        payload["transmitter"] = [35.0]
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(payload)
        assert str(err.value) == "scenario.transmitter: missing or not an object"
        payload = valid_payload()
        payload["receivers"].append(7.5)
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(payload)
        assert str(err.value) == "scenario.receivers[1]: expected an object"

    def test_huge_integer_names_path(self):
        payload = valid_payload()
        payload["receivers"][0]["x_max"] = 10**400
        with pytest.raises(ScenarioError, match=r"receivers\[0\].x_max: .*too large"):
            scenario_from_dict(payload)

    def test_unknown_field_rejected(self):
        payload = valid_payload()
        payload["receivers"][0]["coil_turns"] = 12
        with pytest.raises(ScenarioError, match="coil_turns"):
            scenario_from_dict(payload)

    def test_invariant_breach_names_bound(self):
        payload = valid_payload()
        payload["receivers"][0]["h"] = 5e-6  # above sqrt(l * l_tx)
        with pytest.raises(ScenarioError, match="sqrt"):
            scenario_from_dict(payload)
        # A spec's own invariant error is prefixed with its object's path.
        payload = valid_payload()
        payload["transmitter"]["r_tx"] = 0
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(payload)
        assert str(err.value) == "scenario.transmitter: r_tx must be > 0 (got 0.0)"
        payload = valid_payload()
        payload["receivers"][0]["x_min"] = 200.0
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(payload)
        assert str(err.value) == (
            "scenario.receivers[0]: x_max must be >= x_min (got x_max=100.0, x_min=200.0)"
        )

    def test_empty_receivers_rejected(self):
        payload = valid_payload()
        payload["receivers"] = []
        with pytest.raises(ScenarioError, match="receivers"):
            scenario_from_dict(payload)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(path)
        # Python refuses to parse an integer literal of over 4,300 digits.
        path.write_text('{"omega": 1' + "0" * 5000 + "}")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")

    def test_bundled_files_parse_as_plain_json(self, tmp_path, fig2):
        # A bundled scenario written back to disk loads identically.
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(scenario_to_dict(fig2)))
        assert load_scenario(path) == fig2
