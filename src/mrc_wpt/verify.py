"""On-demand verification suite: closed forms against independent routes.

Each property is evaluated over a stream of sampled systems; odd samples
reuse the caller's scenario with fresh random loads, even samples draw a
fresh random scenario.  A property reports the worst deviation it saw, so a
failing run says not just "failed" but by how much.

The solver under test is injectable, which the test suite uses to confirm
that a deliberately perturbed solver is caught by the equivalence property.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from .circuit import (
    PowerReport,
    ScenarioError,
    SystemScenario,
    admittance_first_column,
    build_impedance_matrix,
    det_impedance,
    solve_closed_form,
    solve_oracle,
)
from .sampling import random_loads, random_scenario

__all__ = ["PropertyResult", "VerificationReport", "run_verification"]

Solver = Callable[[SystemScenario, tuple], PowerReport]


@dataclass(frozen=True)
class PropertyResult:
    """One property's outcome over the sampled stream."""

    name: str
    samples: int
    worst: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "property": self.name,
            "samples": self.samples,
            "worst_deviation": self.worst,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    results: tuple[PropertyResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(res.passed for res in self.results)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "properties": [res.to_dict() for res in self.results],
        }


def _rel(a, b) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def _samples(
    scenario: SystemScenario, trials: int, seed: int
) -> Iterator[tuple[SystemScenario, tuple]]:
    rng = np.random.default_rng(seed)
    for k in range(trials):
        s = scenario if k % 2 == 0 else random_scenario(rng)
        yield s, tuple(random_loads(rng, s))


def run_verification(
    scenario: SystemScenario,
    trials: int = 1000,
    seed: int = 0,
    solver: Solver = solve_closed_form,
) -> VerificationReport:
    """Evaluate every verification property over ``trials`` samples."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1 (got {trials})")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ScenarioError(f"seed must be an integer >= 0 (got {seed})")

    worst_equiv = 0.0
    worst_energy = 0.0
    worst_ratio = 0.0
    worst_det = 0.0
    det_all_positive = True
    worst_column = 0.0
    worst_phase = 0.0

    count = 0
    for s, xs in _samples(scenario, trials, seed):
        count += 1
        report = solver(s, xs)
        oracle, i_generic = solve_oracle(s, xs)
        col_closed = admittance_first_column(s, xs)
        i_closed = (s.tx.v_tx * col_closed).tolist()

        # Closed form against the generic dense solve.
        dev = _rel(report.p_tx, oracle.p_tx)
        dev = max(dev, _rel(report.p_sum, oracle.p_sum))
        for k in range(s.n):
            dev = max(dev, _rel(report.p[k], oracle.p[k]))
        for a, b in zip(i_closed, i_generic.tolist()):
            dev = max(dev, _rel(a, b))
        worst_equiv = max(worst_equiv, dev)

        # Energy balance of the closed-form currents.
        dissipated = 0.5 * abs(i_closed[0]) ** 2 * s.tx.r_tx
        for k, rec in enumerate(s.receivers):
            dissipated += 0.5 * abs(i_closed[k + 1]) ** 2 * (rec.r + xs[k])
        worst_energy = max(worst_energy, _rel(report.p_tx, dissipated))

        # Delivered power can never reach the drawn power.
        worst_ratio = max(worst_ratio, report.p_sum / report.p_tx)

        # Determinant: positivity and the closed product form.
        matrix = build_impedance_matrix(s, xs)
        det_closed = det_impedance(s, xs)
        det_generic = np.linalg.det(matrix)
        if not det_closed > 0.0:
            det_all_positive = False
        worst_det = max(worst_det, _rel(det_closed, complex(det_generic)))

        # First admittance column against the generic inverse.
        col_generic = np.linalg.inv(matrix)[:, 0]
        for a, b in zip(col_closed, col_generic):
            worst_column = max(worst_column, _rel(complex(a), complex(b)))

        # Source phase must not influence any power.
        rotated = replace(s, tx=replace(s.tx, v_phase=s.tx.v_phase + 1.234))
        rotated_report = solver(rotated, xs)
        dev = _rel(report.p_tx, rotated_report.p_tx)
        for k in range(s.n):
            dev = max(dev, _rel(report.p[k], rotated_report.p[k]))
        worst_phase = max(worst_phase, dev)

    results = (
        PropertyResult("closed_form_matches_generic_solve", count, worst_equiv, 1e-9,
                       worst_equiv <= 1e-9),
        PropertyResult("energy_conservation", count, worst_energy, 1e-10,
                       worst_energy <= 1e-10),
        PropertyResult("delivered_below_drawn_power", count, worst_ratio, 1.0,
                       worst_ratio < 1.0),
        PropertyResult("determinant_positive_product_form", count, worst_det, 1e-12,
                       det_all_positive and worst_det <= 1e-12),
        PropertyResult("admittance_column_matches_inverse", count, worst_column, 1e-9,
                       worst_column <= 1e-9),
        PropertyResult("powers_phase_invariant", count, worst_phase, 1e-12,
                       worst_phase <= 1e-12),
    )
    return VerificationReport(results=results)
