"""Centralized minimum-transmit-power load selection.

The transmit power is ``|v_tx|^2 * z / 2`` where ``z = 1/r_in`` is the
reciprocal of the effective input resistance, so minimizing transmit power
means finding the smallest reciprocal resistance ``z`` for which some load
vector inside the box [x_min, x_max] (a) delivers at least ``p_min_n`` to
every load and (b) actually realizes that ``z``.  Because ``r_in`` is
monotone in every load, ``z`` is bracketed by the values it takes at the box
corners, and the search is a sweep upward from the lower end in fixed steps
of ``DZ``.

For a candidate ``z`` the per-receiver demand constraint
``alpha_n * z^2 * x_n >= (r_n + x_n)^2`` (with
``alpha_n = |v_tx|^2 (w*h_n)^2 / (2*p_min_n)``) is a quadratic in ``x_n``
whose solution set is the window ``[x_lo_n, x_hi_n]``; the window is real
exactly when ``z >= 2*sqrt(r_n/alpha_n)`` (C1) and must meet the load box
(C2).  Mapping the windows clipped to the box through
``y_n = 1/(r_n + x_n)`` gives the feasible box ``[y_lo, y_hi]``, and the
realizability requirement (C3) becomes a hyperplane-meets-box test: the
target ``1/z - r_tx`` must lie between the box's envelopes
``sum_n (w*h_n)^2 * y_n``.  The first passing ``z`` is optimal, and any
point of the hyperplane section maps back to an optimal load vector via
``x_n = 1/y_n - r_n``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .circuit import (
    LoadVector,
    PowerReport,
    ScenarioError,
    SystemScenario,
    _columns,
    _input_resistance,
    coupling_ohms2,
    solve_closed_form,
)

__all__ = [
    "DZ",
    "ZBracket",
    "FeasibleBox",
    "OptimizationResult",
    "z_bracket",
    "check_feasibility",
    "pick_feasible_point",
    "minimize_ptx",
]

# Step of the z sweep: an answer may sit up to DZ * |v_tx|^2 / 2 above the
# optimum, and a feasible interval narrower than DZ may be stepped over.
DZ = 1e-3

# Slack absorbing z-grid quantization when re-verifying delivered powers.
_POWER_SLACK = 1e-6


class ZBracket(NamedTuple):
    """Attainable range of the reciprocal input resistance."""

    z_lo: float
    z_hi: float


class FeasibleBox(NamedTuple):
    """Where a candidate ``z`` passes: the hyperplane target ``1/z - r_tx``
    and the reciprocal-coordinate box ``[y_lo, y_hi]`` that it meets."""

    z: float
    target: float
    y_lo: tuple[float, ...]
    y_hi: tuple[float, ...]


class OptimizationResult(NamedTuple):
    """Result of the z-sweep.  ``iterations`` counts candidate z values examined."""

    status: str  # "optimal" | "infeasible"
    iterations: int
    z_star: float | None = None
    loads: LoadVector | None = None
    report: PowerReport | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def z_bracket(scenario: SystemScenario, dz: float) -> ZBracket:
    """Reciprocal-resistance bracket induced by the load box corners,
    checked to be steppable in steps of ``dz``."""
    receivers, cols = scenario.receivers, _columns(scenario)
    z_lo = 1.0 / _input_resistance(*cols, [rec.x_min for rec in receivers])
    z_hi = 1.0 / _input_resistance(*cols, [rec.x_max for rec in receivers])
    if not (0.0 < z_lo <= z_hi):
        raise ScenarioError(f"invalid bracket [{z_lo}, {z_hi}]")
    if not (math.isfinite(dz) and dz > 0):
        raise ScenarioError(f"dz must be > 0 (got {dz})")
    if z_hi + dz == z_hi:
        # The candidates z_lo + k*dz would repeat for a vast number of k.
        raise ScenarioError(
            f"z bracket [{z_lo}, {z_hi}] is too large for the optimizer's "
            f"fixed z step {dz}: z_hi + {dz} == z_hi"
        )
    return ZBracket(z_lo, z_hi)


def check_feasibility(scenario: SystemScenario, z: float) -> FeasibleBox | None:
    """The feasible box at a candidate ``z``, or ``None`` where it fails.

    C1 asks that every demand window ``[x_lo_n, x_hi_n]`` be real, C2 that
    it meet the load box ``[x_min_n, x_max_n]``; the scan stops at the first
    receiver failing either.  C3 asks that the target ``1/z - r_tx`` lie
    between the envelopes of the box ``y_n = 1/(r_n + x_n)`` over the
    windows clipped to the load box.
    """
    z = float(z)
    if not (math.isfinite(z) and z > 0):
        raise ScenarioError(f"z must be > 0 (got {z})")

    wh2 = coupling_ohms2(scenario)
    v2 = scenario.tx.v_mag * scenario.tx.v_mag
    y_lo = []
    y_hi = []
    env_lo = 0.0
    env_hi = 0.0
    for k, rec in enumerate(scenario.receivers):
        a_k = v2 * wh2[k] / (2.0 * rec.p_min)
        if not (a_k > 0 and z >= 2.0 * math.sqrt(rec.r / a_k)):
            return None
        # Roots of x^2 + (2 r - a z^2) x + r^2 = 0.  The upper root is
        # numerically stable; the lower one follows from the product r^2.
        # Under C1 half_span >= r > 0, so x_hi > 0.
        half_span = a_k * z * z / 2.0 - rec.r
        radicand = a_k * (a_k * z * z / 4.0 - rec.r)
        x_hi = half_span + z * math.sqrt(max(radicand, 0.0))
        x_lo = rec.r * rec.r / x_hi
        top = min(rec.x_max, x_hi)
        bottom = max(rec.x_min, x_lo)
        if not bottom <= top:
            return None
        y_lo.append(1.0 / (rec.r + top))
        y_hi.append(1.0 / (rec.r + bottom))
        env_lo += wh2[k] * y_lo[k]
        env_hi += wh2[k] * y_hi[k]

    target = 1.0 / z - scenario.tx.r_tx
    # Rounding guard: at the bracket's upper end the target equals the lower
    # envelope by construction, and the 1/(1/x) round trip can land one ulp
    # off.  1e-12 relative sits far above accumulated rounding and far below
    # any step of the z sweep.
    slack = 1e-12 * max(1.0, abs(target), abs(env_lo), abs(env_hi))
    if not env_lo - slack <= target <= env_hi + slack:
        return None
    return FeasibleBox(z, target, tuple(y_lo), tuple(y_hi))


def pick_feasible_point(box: FeasibleBox | None, scenario: SystemScenario) -> LoadVector:
    """Deterministic point of the hyperplane section of a feasible box,
    mapped back to loads.

    Starts every reciprocal coordinate at ``box.y_lo`` and raises coordinates
    one at a time, in index order and at most to ``box.y_hi``, until the
    hyperplane equation ``sum_k (w*h_k)^2 * y_k == box.target`` is met
    exactly; then maps back through ``x_n = 1/y_n - r_n``.  Raises
    ``ValueError`` on ``None``, the answer of ``check_feasibility`` at a
    failing ``z``.
    """
    if box is None:
        raise ValueError("z does not pass all feasibility conditions")

    wh2 = coupling_ohms2(scenario)
    y = list(box.y_lo)
    base = 0.0
    for k in range(scenario.n):
        base += wh2[k] * y[k]
    remaining = box.target - base

    for k in range(scenario.n):
        if remaining <= 0.0:
            break
        cap = wh2[k] * (box.y_hi[k] - box.y_lo[k])
        take = min(remaining, cap)
        if take > 0.0:
            y[k] += take / wh2[k]
            remaining -= take

    if remaining > 1e-9 * max(abs(box.target), 1.0):
        raise RuntimeError(f"hyperplane fill left residual {remaining}; box inconsistent")

    xs = []
    for k, rec in enumerate(scenario.receivers):
        x_k = 1.0 / y[k] - rec.r
        xs.append(min(max(x_k, rec.x_min), rec.x_max))
    return LoadVector(tuple(xs))


def minimize_ptx(scenario: SystemScenario) -> OptimizationResult:
    """Fixed-step sweep for the smallest feasible reciprocal input resistance.

    Walks ``z`` upward from the bracket's lower end in steps of ``DZ`` (the
    upper end itself is always examined as the final candidate) and stops at
    the first ``z`` whose ``check_feasibility`` returns a box.  The returned
    loads are re-verified against the closed-form solver before being
    reported; an infeasible sweep is reported as a status, not an error.
    """
    bracket = z_bracket(scenario, DZ)
    iterations = 0
    k = 0
    while True:
        z = bracket.z_lo + k * DZ
        if z >= bracket.z_hi:
            z = bracket.z_hi
        iterations += 1
        box = check_feasibility(scenario, z)
        if box is not None:
            loads = pick_feasible_point(box, scenario)
            report = solve_closed_form(scenario, loads)
            for idx, rec in enumerate(scenario.receivers):
                if report.p[idx] < rec.p_min * (1.0 - _POWER_SLACK):
                    raise RuntimeError(
                        f"re-verification failed: p[{idx}]={report.p[idx]} "
                        f"below threshold {rec.p_min} at z={z}"
                    )
            return OptimizationResult("optimal", iterations, z, loads, report)
        if z >= bracket.z_hi:
            return OptimizationResult("infeasible", iterations)
        k += 1
