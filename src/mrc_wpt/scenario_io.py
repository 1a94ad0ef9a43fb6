"""Scenario files: a strict JSON schema plus two bundled demonstrations.

Schema (all values plain SI numbers, no unit suffixes)::

    {
      "omega": 2.2e6,
      "transmitter": {"v_tx_mag": ..., "v_tx_phase": ..., "r_tx": ..., "l_tx": ...},
      "receivers": [
        {"r": ..., "l": ..., "h": ..., "x_min": ..., "x_max": ..., "p_min": ...},
        ...
      ]
    }

``v_tx_phase`` is optional and defaults to 0.  Unknown keys are rejected;
every parse error names the offending field by its path.

Two scenarios ship with the package and can be referenced by name anywhere
a scenario file is accepted:

* ``paper-fig2`` - the three-receiver demonstration bench (sweep studies;
  its thresholds are placeholders, and load 7.5 ohm on receivers 2 and 3 is
  the conventional fixed setting for single-load sweeps).
* ``paper-fig3`` - the same bench with the demand levels used for the
  optimizer-versus-protocol comparison (250 W, 50 W, 50 W).
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .circuit import ReceiverSpec, ScenarioError, SystemScenario, TransmitterSpec

__all__ = [
    "BUNDLED_SCENARIOS",
    "scenario_from_dict",
    "scenario_to_dict",
    "load_scenario",
    "save_scenario",
]

BUNDLED_SCENARIOS = ("paper-fig2", "paper-fig3")

# Each file object's keys in file order: (JSON key, model field, default).
# A default of None marks a required key.
_TX_FIELDS = (
    ("v_tx_mag", "v_mag", None),
    ("v_tx_phase", "v_phase", 0.0),
    ("r_tx", "r_tx", None),
    ("l_tx", "l_tx", None),
)
_RX_FIELDS = tuple(
    (key, key, None) for key in ("r", "l", "h", "x_min", "x_max", "p_min")
)


def _number(obj: dict, key: str, path: str, default: float | None = None) -> float:
    if key not in obj:
        if default is not None:
            return default
        raise ScenarioError(f"{path}.{key}: missing required field")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}.{key}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{path}.{key}: number too large for a float") from None


def _reject_unknown(obj: dict, allowed: tuple[str, ...], path: str) -> None:
    unknown = set(obj).difference(allowed)
    if unknown:
        raise ScenarioError(f"{path}: unknown field(s) {sorted(unknown)}")


def _build(spec, table, obj: dict, path: str):
    """``spec`` from the file object ``obj`` at ``path``, read by ``table``."""
    _reject_unknown(obj, tuple(key for key, _, _ in table), path)
    # Field errors name their own path; only the invariant checks get a prefix.
    fields = {field: _number(obj, key, path, default) for key, field, default in table}
    try:
        return spec(**fields)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def scenario_from_dict(data: dict, path: str = "scenario") -> SystemScenario:
    """Build and validate a scenario from parsed JSON data."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: expected an object, got {type(data).__name__}")
    _reject_unknown(data, ("omega", "transmitter", "receivers"), path)

    omega = _number(data, "omega", path)

    tx_obj = data.get("transmitter")
    if not isinstance(tx_obj, dict):
        raise ScenarioError(f"{path}.transmitter: missing or not an object")
    tx = _build(TransmitterSpec, _TX_FIELDS, tx_obj, f"{path}.transmitter")

    rx_list = data.get("receivers")
    if not isinstance(rx_list, list) or not rx_list:
        raise ScenarioError(f"{path}.receivers: expected a non-empty array")
    receivers = []
    for k, rx_obj in enumerate(rx_list):
        rx_path = f"{path}.receivers[{k}]"
        if not isinstance(rx_obj, dict):
            raise ScenarioError(f"{rx_path}: expected an object")
        receivers.append(_build(ReceiverSpec, _RX_FIELDS, rx_obj, rx_path))

    try:
        return SystemScenario(w=omega, tx=tx, receivers=tuple(receivers))
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def scenario_to_dict(scenario: SystemScenario) -> dict:
    """Inverse of :func:`scenario_from_dict`; round-trips exactly."""
    return {
        "omega": scenario.w,
        "transmitter": {key: getattr(scenario.tx, field) for key, field, _ in _TX_FIELDS},
        "receivers": [
            {key: getattr(rec, field) for key, field, _ in _RX_FIELDS}
            for rec in scenario.receivers
        ],
    }


def load_scenario(source: str | Path) -> SystemScenario:
    """Load a scenario from a JSON file path or a bundled scenario name."""
    name = str(source)
    if name in BUNDLED_SCENARIOS:
        text = (
            resources.files("mrc_wpt.data").joinpath(f"{name}.json").read_text("utf-8")
        )
        return scenario_from_dict(json.loads(text), path=name)

    path = Path(source)
    try:
        text = path.read_text("utf-8")
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read scenario file ({exc})") from None
    try:
        data = json.loads(text)
    except ValueError as exc:  # also an integer literal of over 4,300 digits
        raise ScenarioError(f"{path}: invalid JSON ({exc})") from None
    return scenario_from_dict(data, path=str(path))


def save_scenario(scenario: SystemScenario, path: str | Path) -> None:
    """Write a scenario as JSON (floats serialized exactly)."""
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2) + "\n", "utf-8"
    )
