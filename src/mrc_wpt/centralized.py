"""Centralized minimum-transmit-power load selection.

The transmit power is ``|v_tx|^2 * z / 2`` where ``z = 1/r_in`` is the
reciprocal of the effective input resistance, so minimizing transmit power
means finding the smallest reciprocal resistance ``z`` for which some load
vector inside the box [x_min, x_max] (a) delivers at least ``p_min_n`` to
every load and (b) actually realizes that ``z``.  Because ``r_in`` is
monotone in every load, ``z`` is bracketed by the values it takes at the box
corners, and the search is a fixed-step sweep upward from the lower end.

For a candidate ``z`` the per-receiver demand constraint
``alpha_n * z^2 * x_n >= (r_n + x_n)^2`` (with
``alpha_n = |v_tx|^2 (w*h_n)^2 / (2*p_min_n)``) is a quadratic in ``x_n``
whose solution set is the window ``[x_lo_n, x_hi_n]``; the window is real
exactly when ``z >= 2*sqrt(r_n/alpha_n)``.  Mapping the per-receiver
windows through ``y_n = 1/(r_n + x_n)`` turns the realizability requirement
into a hyperplane-meets-box test, which is checked by comparing the target
``1/z - r_tx`` against the box envelope.  The first passing ``z`` is
optimal, and any point of the hyperplane section maps back to an optimal
load vector via ``x_n = 1/y_n - r_n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import (
    LoadVector,
    PowerReport,
    ScenarioError,
    SystemScenario,
    coupling_ohms2,
    solve_closed_form,
)

__all__ = [
    "ZBracket",
    "FeasibilityVerdict",
    "OptimizationResult",
    "z_bracket",
    "check_feasibility",
    "pick_feasible_point",
    "minimize_ptx",
]

# Slack absorbing z-grid quantization when re-verifying delivered powers.
_POWER_SLACK = 1e-6


@dataclass(frozen=True)
class ZBracket:
    """Attainable range of the reciprocal input resistance, plus step size."""

    z_lo: float
    z_hi: float
    dz: float

    def __post_init__(self) -> None:
        if not (0.0 < self.z_lo <= self.z_hi):
            raise ScenarioError(f"invalid bracket [{self.z_lo}, {self.z_hi}]")
        if not (math.isfinite(self.dz) and self.dz > 0):
            raise ScenarioError(f"dz must be > 0 (got {self.dz})")
        if self.z_hi + self.dz == self.z_hi:
            # The candidates z_lo + k*dz would repeat for a vast number of k.
            raise ScenarioError(
                f"dz {self.dz} is too small to step z: z_hi + dz == z_hi ({self.z_hi})"
            )


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of the three feasibility conditions at one candidate ``z``.

    Per-receiver entries of ``c2`` (and the global ``c3``) are ``None`` when
    they were not evaluated because an earlier condition already failed.
    ``window`` holds the demand window ``(x_lo_n, x_hi_n)`` for receivers
    whose ``c1`` holds, ``None`` otherwise.  ``y_lo``/``y_hi`` are the
    reciprocal-coordinate box bounds entering the hyperplane test, and
    ``target`` is ``1/z - r_tx``.
    """

    z: float
    alpha: tuple[float, ...]
    c1: tuple[bool, ...]
    window: tuple[tuple[float, float] | None, ...]
    c2: tuple[bool | None, ...]
    y_lo: tuple[float, ...] | None
    y_hi: tuple[float, ...] | None
    target: float
    c3: bool | None

    @property
    def feasible(self) -> bool:
        """True when every condition holds."""
        return all(self.c1) and all(v is True for v in self.c2) and self.c3 is True


@dataclass(frozen=True)
class OptimizationResult:
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
    """Reciprocal-resistance bracket induced by the load box corners."""
    wh2 = coupling_ohms2(scenario)
    lo_den = scenario.tx.r_tx
    hi_den = scenario.tx.r_tx
    for k, rec in enumerate(scenario.receivers):
        lo_den += wh2[k] / (rec.r + rec.x_min)
        hi_den += wh2[k] / (rec.r + rec.x_max)
    return ZBracket(z_lo=1.0 / lo_den, z_hi=1.0 / hi_den, dz=dz)


def check_feasibility(scenario: SystemScenario, z: float) -> FeasibilityVerdict:
    """Evaluate the three feasibility conditions at a candidate ``z``.

    The second condition is interval overlap: the demand window
    ``[x_lo_n, x_hi_n]`` must intersect the hardware box
    ``[x_min_n, x_max_n]``.  The third condition is evaluated only when the
    demand windows exist for every receiver.
    """
    z = float(z)
    if not (math.isfinite(z) and z > 0):
        raise ScenarioError(f"z must be > 0 (got {z})")

    wh2 = coupling_ohms2(scenario)
    v2 = scenario.tx.v_mag * scenario.tx.v_mag
    n = scenario.n

    alpha = []
    c1 = []
    window: list[tuple[float, float] | None] = []
    c2: list[bool | None] = []
    for k, rec in enumerate(scenario.receivers):
        a_k = v2 * wh2[k] / (2.0 * rec.p_min)
        alpha.append(a_k)
        ok1 = a_k > 0 and z >= 2.0 * math.sqrt(rec.r / a_k)
        c1.append(ok1)
        if not ok1:
            window.append(None)
            c2.append(None)
            continue
        # Roots of x^2 + (2 r - a z^2) x + r^2 = 0.  The upper root is
        # numerically stable; the lower one follows from the product r^2.
        half_span = a_k * z * z / 2.0 - rec.r
        radicand = a_k * (a_k * z * z / 4.0 - rec.r)
        x_hi = half_span + z * math.sqrt(max(radicand, 0.0))
        x_lo = rec.r * rec.r / x_hi if x_hi > 0 else half_span
        window.append((x_lo, x_hi))
        c2.append(max(rec.x_min, x_lo) <= min(rec.x_max, x_hi))

    target = 1.0 / z - scenario.tx.r_tx
    if all(c1):
        y_lo = tuple(
            1.0 / (rec.r + min(rec.x_max, window[k][1]))
            for k, rec in enumerate(scenario.receivers)
        )
        y_hi = tuple(
            1.0 / (rec.r + max(rec.x_min, window[k][0]))
            for k, rec in enumerate(scenario.receivers)
        )
        env_lo = 0.0
        env_hi = 0.0
        for k in range(n):
            env_lo += wh2[k] * y_lo[k]
            env_hi += wh2[k] * y_hi[k]
        # Rounding guard: at the bracket's upper end the target equals the
        # lower envelope by construction, and the 1/(1/x) round trip can land
        # one ulp off.  1e-12 relative sits far above accumulated rounding and
        # far below any step of the z sweep.
        slack = 1e-12 * max(1.0, abs(target), abs(env_lo), abs(env_hi))
        c3: bool | None = env_lo - slack <= target <= env_hi + slack
    else:
        y_lo = None
        y_hi = None
        c3 = None

    return FeasibilityVerdict(
        z=z,
        alpha=tuple(alpha),
        c1=tuple(c1),
        window=tuple(window),
        c2=tuple(c2),
        y_lo=y_lo,
        y_hi=y_hi,
        target=target,
        c3=c3,
    )


def pick_feasible_point(verdict: FeasibilityVerdict, scenario: SystemScenario) -> LoadVector:
    """Deterministic point of the hyperplane section, mapped back to loads.

    Starts every reciprocal coordinate at its lower bound and raises
    coordinates one at a time, in index order, until the hyperplane equation
    ``sum_k (w*h_k)^2 * y_k == 1/z - r_tx`` is met exactly; then maps back
    through ``x_n = 1/y_n - r_n``.  Requires a fully passing verdict.
    """
    if not verdict.feasible:
        raise ValueError("verdict does not pass all feasibility conditions")
    assert verdict.y_lo is not None and verdict.y_hi is not None

    wh2 = coupling_ohms2(scenario)
    y = list(verdict.y_lo)
    base = 0.0
    for k in range(scenario.n):
        base += wh2[k] * y[k]
    remaining = verdict.target - base

    for k in range(scenario.n):
        if remaining <= 0.0:
            break
        if wh2[k] == 0.0:
            continue
        cap = wh2[k] * (verdict.y_hi[k] - verdict.y_lo[k])
        take = min(remaining, cap)
        if take > 0.0:
            y[k] += take / wh2[k]
            remaining -= take

    if remaining > 1e-9 * max(abs(verdict.target), 1.0):
        raise RuntimeError(
            f"hyperplane fill left residual {remaining}; verdict inconsistent"
        )

    xs = []
    for k, rec in enumerate(scenario.receivers):
        x_k = 1.0 / y[k] - rec.r
        xs.append(min(max(x_k, rec.x_min), rec.x_max))
    return LoadVector(tuple(xs))


def minimize_ptx(scenario: SystemScenario, dz: float = 1e-3) -> OptimizationResult:
    """Fixed-step sweep for the smallest feasible reciprocal input resistance.

    Walks ``z`` upward from the bracket's lower end in steps of ``dz`` (the
    upper end itself is always examined as the final candidate) and stops at
    the first ``z`` passing all feasibility conditions.  The returned loads
    are re-verified against the closed-form solver before being reported;
    an infeasible sweep is reported as a status, not an error.
    """
    bracket = z_bracket(scenario, dz)
    iterations = 0
    k = 0
    while True:
        z = bracket.z_lo + k * dz
        if z >= bracket.z_hi:
            z = bracket.z_hi
        iterations += 1
        verdict = check_feasibility(scenario, z)
        if verdict.feasible:
            loads = pick_feasible_point(verdict, scenario)
            report = solve_closed_form(scenario, loads)
            for idx, rec in enumerate(scenario.receivers):
                if report.p[idx] < rec.p_min * (1.0 - _POWER_SLACK):
                    raise RuntimeError(
                        f"re-verification failed: p[{idx}]={report.p[idx]} "
                        f"below threshold {rec.p_min} at z={z}"
                    )
            return OptimizationResult(
                status="optimal",
                iterations=iterations,
                z_star=z,
                loads=loads,
                report=report,
            )
        if z >= bracket.z_hi:
            return OptimizationResult(status="infeasible", iterations=iterations)
        k += 1
