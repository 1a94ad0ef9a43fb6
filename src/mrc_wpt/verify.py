"""On-demand verification suite: closed forms against independent routes.

Each property is evaluated over a stream of sampled systems; odd samples
reuse the caller's scenario with fresh random loads, even samples draw a
fresh random scenario.  A property reports the worst deviation it saw over
all samples and over the caller's scenario alone, so a failing run says not
just "failed" but by how much, and where.  The samples are checked on every
usable CPU, with the report of one process checking them all.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .circuit import (
    ScenarioError,
    SystemScenario,
    admittance_first_column,
    build_impedance_matrix,
    det_impedance,
    solve_closed_form,
    solve_oracle,
)
from .distributed import _in_order
from .sampling import random_loads, random_scenario

__all__ = ["PropertyResult", "VerificationReport", "run_verification"]

# Name and tolerance of each property, in report order.
_PROPERTIES = (
    ("closed_form_matches_generic_solve", 1e-9),
    ("energy_conservation", 1e-10),
    ("delivered_below_drawn_power", 1.0),
    ("determinant_positive_product_form", 1e-12),
    ("admittance_column_matches_inverse", 1e-9),
    ("powers_phase_invariant", 1e-12),
)

# Samples drawn and checked at once; it bounds the samples held in memory.
_BLOCK = 4096


class PropertyResult(NamedTuple):
    """One property's outcome over the sampled stream; ``worst_scenario`` is
    the worst deviation over the samples of the caller's scenario alone."""

    name: str
    samples: int
    worst: float
    worst_scenario: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "property": self.name,
            "samples": self.samples,
            "worst_deviation": self.worst,
            "worst_deviation_scenario": self.worst_scenario,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


class VerificationReport(NamedTuple):
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


def _deviations(sample) -> tuple[tuple[float, ...], bool]:
    """The six deviations of one sample ``(s, xs)``, in ``_PROPERTIES``
    order, and whether its closed-form determinant is positive."""
    s, xs = sample
    report = solve_closed_form(s, xs)
    oracle, i_generic = solve_oracle(s, xs)
    col_closed = admittance_first_column(s, xs)
    i_closed = (s.tx.v_tx * col_closed).tolist()

    # Closed form against the generic dense solve.
    equiv = _rel(report.p_tx, oracle.p_tx)
    equiv = max(equiv, _rel(report.p_sum, oracle.p_sum))
    for k in range(s.n):
        equiv = max(equiv, _rel(report.p[k], oracle.p[k]))
    for a, b in zip(i_closed, i_generic.tolist()):
        equiv = max(equiv, _rel(a, b))

    # Energy balance of the closed-form currents.
    dissipated = 0.5 * abs(i_closed[0]) ** 2 * s.tx.r_tx
    for k, rec in enumerate(s.receivers):
        dissipated += 0.5 * abs(i_closed[k + 1]) ** 2 * (rec.r + xs[k])
    energy = _rel(report.p_tx, dissipated)

    # Delivered power can never reach the drawn power.
    ratio = report.p_sum / report.p_tx

    # Determinant: positivity and the closed product form.
    matrix = build_impedance_matrix(s, xs)
    det_closed = det_impedance(s, xs)
    det = _rel(det_closed, complex(np.linalg.det(matrix)))

    # First admittance column against the generic inverse.
    column = 0.0
    for a, b in zip(col_closed, np.linalg.inv(matrix)[:, 0]):
        column = max(column, _rel(complex(a), complex(b)))

    # Source phase must not influence any power.
    rotated = replace(s, tx=replace(s.tx, v_phase=s.tx.v_phase + 1.234))
    rotated_report = solve_closed_form(rotated, xs)
    phase = _rel(report.p_tx, rotated_report.p_tx)
    for k in range(s.n):
        phase = max(phase, _rel(report.p[k], rotated_report.p[k]))

    return (equiv, energy, ratio, det, column, phase), det_closed > 0.0


def run_verification(
    scenario: SystemScenario,
    trials: int = 1000,
    seed: int = 0,
) -> VerificationReport:
    """Evaluate every verification property over ``trials`` samples.

    The samples are drawn in stream order, ``_BLOCK`` at a time, and each
    block is checked through ``_in_order``, on every usable CPU; the
    deviations are folded in sample order, so the report is that of one
    process checking every sample.
    """
    if trials < 1:
        raise ScenarioError(f"trials must be >= 1 (got {trials})")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ScenarioError(f"seed must be an integer >= 0 (got {seed})")

    worst = [0.0] * len(_PROPERTIES)
    worst_own = [0.0] * len(_PROPERTIES)
    det_all_positive = True
    rng = np.random.default_rng(seed)
    for start in range(0, trials, _BLOCK):
        block = []
        for i in range(start, min(start + _BLOCK, trials)):
            s = scenario if i % 2 == 0 else random_scenario(rng)  # even: the caller's
            block.append((s, tuple(random_loads(rng, s))))
        for i, (devs, det_positive) in enumerate(_in_order(_deviations, block), start):
            det_all_positive = det_all_positive and det_positive
            worst = [max(w, d) for w, d in zip(worst, devs)]
            if i % 2 == 0:
                worst_own = [max(w, d) for w, d in zip(worst_own, devs)]

    passed = [w <= tol for w, (_, tol) in zip(worst, _PROPERTIES)]
    passed[2] = worst[2] < 1.0  # delivered power strictly below drawn power
    passed[3] = passed[3] and det_all_positive
    return VerificationReport(results=tuple(
        PropertyResult(name, trials, w, w_own, tol, ok)
        for (name, tol), w, w_own, ok in zip(_PROPERTIES, worst, worst_own, passed)
    ))
