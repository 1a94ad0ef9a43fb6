"""On-demand verification suite: closed forms against independent routes.

Each property is evaluated over a stream of sampled systems; even samples
reuse the caller's scenario with fresh random loads, odd samples draw a
fresh random scenario.  A property reports the worst deviation it saw over
all samples and over the caller's scenario alone, so a failing run says not
just "failed" but by how much, and where.  The samples are checked in one
process, a block at a time, on stacked arrays of the samples with the same N.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .circuit import (
    SystemScenario,
    _admittance_column,
    _check_count,
    _closed_form,
    _impedance_matrix,
    _oracle,
)
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


def _rel(a, b):
    """Relative difference of each pair of entries, 0 where both are 0; a
    magnitude is ``hypot`` of the parts, as Python's ``abs`` takes it."""
    abs_a, abs_b, diff = (np.hypot(np.real(z), np.imag(z)) for z in (a, b, a - b))
    scale = np.where(abs_b > abs_a, abs_b, abs_a)  # as Python's max picks
    return np.divide(diff, scale, out=np.zeros_like(scale), where=scale != 0.0)


def _check(samples):
    """Deviations ``(K, 6)`` and closed-form determinants of samples ``(s, xs,
    ...)`` of one N, each that sample's to the bit: every operation is one
    sample's, on stacked arrays, and the oracle's ``p_sum`` a ``math.fsum``."""
    v_mag, r_tx, w = np.array([(s.tx.v_mag, s.tx.r_tx, s.w) for s, *_ in samples]).T
    v = np.array([s.tx.v_tx for s, *_ in samples])
    h, r = np.array([[(rec.h, rec.r) for rec in s.receivers] for s, *_ in samples]).T
    x = np.array([xs for _, xs, _ in samples]).T
    cols = r_tx, w, h, r, x
    r_in, p, p_tx, p_sum = _closed_form(v_mag, *cols)
    matrix = _impedance_matrix(*cols)
    _, o_p, o_p_tx, i_generic = _oracle(v, x, matrix)
    o_p_sum = np.array([math.fsum(row) for row in np.transpose(o_p).tolist()])
    col_closed = _admittance_column(*cols)
    i_closed = v[:, None] * col_closed
    # Closed form against the generic dense solve.  Python's max(e, d) skips a
    # nan d, as fmax does, but keeps a nan e: a nan first deviation stays.
    pairs = [(p_tx, o_p_tx), (p_sum, o_p_sum), *zip(p, o_p), *zip(i_closed.T, i_generic.T)]
    rels = [_rel(a, b) for a, b in pairs]
    equiv = np.where(np.isnan(rels[0]), rels[0], np.fmax.reduce(rels))
    # Energy balance of the closed-form currents.
    heat = 0.5 * np.float_power(np.hypot(i_closed.real, i_closed.imag), 2.0)
    dissipated = heat[:, 0] * r_tx
    for k in range(len(x)):
        dissipated = dissipated + heat[:, k + 1] * (r[k] + x[k])
    # Determinant against its product form; admittance column against inverse.
    det_closed = r_in * math.prod(r + x)
    zero = np.zeros(len(samples))
    column = np.fmax.reduce([zero, *map(_rel, col_closed.T, np.linalg.inv(matrix)[..., 0].T)])
    # Delivered power below drawn power.  The closed form reads the source's
    # magnitude, not its phase: its powers are phase-invariant, a deviation of 0.
    devs = [equiv, _rel(p_tx, dissipated), p_sum / p_tx,
            _rel(det_closed, np.linalg.det(matrix)), column, zero]
    return np.column_stack(devs), det_closed


def run_verification(
    scenario: SystemScenario,
    trials: int = 1000,
    seed: int = 0,
) -> VerificationReport:
    """Evaluate every verification property over ``trials`` samples, drawn
    in stream order ``_BLOCK`` at a time and checked in this process, the
    samples of one N at once: the report of checking each sample alone."""
    _check_count("trials", trials, 1)
    _check_count("seed", seed, 0)

    worst = worst_own = np.zeros(len(_PROPERTIES))
    det_all_positive = True
    rng = np.random.default_rng(seed)
    for start in range(0, trials, _BLOCK):
        groups = {}  # N -> its samples (s, xs, whether s is the caller's)
        for i in range(start, min(start + _BLOCK, trials)):
            s = scenario if i % 2 == 0 else random_scenario(rng)  # even: the caller's
            groups.setdefault(s.n, []).append((s, tuple(random_loads(rng, s)), i % 2 == 0))
        for samples in groups.values():
            devs, det_closed = _check(samples)
            det_all_positive = det_all_positive and bool(np.all(det_closed > 0.0))
            # A fold in sample order, as fmax skips a nan as max(w, nan) does.
            worst = np.fmax.reduce(np.vstack([worst, devs]))
            worst_own = np.fmax.reduce(np.vstack([worst_own, devs[[o for *_, o in samples]]]))
    worst, worst_own = worst.tolist(), worst_own.tolist()

    passed = [w <= tol for w, (_, tol) in zip(worst, _PROPERTIES)]
    passed[2] = worst[2] < 1.0  # delivered power strictly below drawn power
    passed[3] = passed[3] and det_all_positive
    return VerificationReport(results=tuple(
        PropertyResult(name, trials, w, w_own, tol, ok)
        for (name, tol), w, w_own, ok in zip(_PROPERTIES, worst, worst_own, passed)
    ))
