"""Structural properties of the delivered-power functions.

Holding all other loads fixed, the power delivered to receiver n is a
unimodal function of its own load x_n: it rises up to a unique peak and
falls beyond it.  The peak location depends only on the *other* loads,
through the coupling term

    phi_n    = sum_{k != n} (w*h_k)^2 / (r_k + x_k)
    x_peak_n = (r_n * (r_tx + phi_n) + (w*h_n)^2) / (r_tx + phi_n)

The transmit power and every other receiver's power are strictly increasing
in x_n.  The aggregate delivered power is increasing in x_n whenever
``r_tx + phi_n - 2*varphi_n <= 0`` with

    varphi_n = sum_{k != n} (w*h_k)^2 * x_k / (r_k + x_k)^2,

and otherwise peaks at

    x_sum_peak_n = (r_n*(r_tx+phi_n) + (w*h_n)^2 + 2*r_n*varphi_n)
                   / (r_tx + phi_n - 2*varphi_n).

These closed forms drive both the insight reports and the correctness tests
of the distributed load-adjustment protocol, which discovers the peak by
probing rather than by formula.  ``sweep`` checks them numerically: it
returns the array kernel's powers along a grid of one receiver's load.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .circuit import (
    PowerReport,
    ScenarioError,
    SystemScenario,
    as_loads,
    closed_form_arrays,
    coupling_ohms2,
)

__all__ = [
    "peak_load",
    "sum_peak_load",
    "sweep",
]


def _check_index(scenario: SystemScenario, n: int) -> None:
    if not 0 <= n < scenario.n:
        raise IndexError(f"receiver index {n} out of range for N={scenario.n}")


def _coupling_sums(scenario: SystemScenario, loads, n: int) -> tuple[float, float]:
    """``r_tx + phi_n`` and ``varphi_n`` at the validated ``loads``."""
    _check_index(scenario, n)
    xs = as_loads(scenario, loads)
    wh2 = coupling_ohms2(scenario)
    phi = 0.0
    varphi = 0.0
    for k, rec in enumerate(scenario.receivers):
        if k == n:
            continue
        d = rec.r + xs[k]
        phi += wh2[k] / d
        varphi += wh2[k] * xs[k] / (d * d)
    return scenario.tx.r_tx + phi, varphi


def peak_load(scenario: SystemScenario, loads, n: int) -> float:
    """Load value maximizing receiver ``n``'s own delivered power (``x_peak_n``).

    Depends only on the other receivers' loads; the current value of
    ``loads[n]`` does not enter the formula.  Always exceeds ``r_n``.
    """
    g, _ = _coupling_sums(scenario, loads, n)
    return (scenario.receivers[n].r * g + coupling_ohms2(scenario)[n]) / g


def sum_peak_load(scenario: SystemScenario, loads, n: int) -> float | None:
    """Load value maximizing the aggregate delivered power, or ``None``.

    ``None`` means the aggregate power strictly increases over all
    ``x_n > 0`` (the monotone regime).
    """
    g, varphi = _coupling_sums(scenario, loads, n)
    denom = g - 2.0 * varphi
    if denom <= 0.0:
        return None
    r_n = scenario.receivers[n].r
    return (r_n * g + coupling_ohms2(scenario)[n] + 2.0 * r_n * varphi) / denom


def sweep(scenario: SystemScenario, loads, n: int, grid: Sequence[float]) -> PowerReport:
    """Closed-form powers along a grid of values for ``x_n``.

    All other loads stay fixed at their ``loads`` values; the entry
    ``loads[n]`` itself is replaced by each grid value in turn.  Grid values
    need only be positive, they may leave [x_min, x_max].  The whole grid is
    one call of the array kernel, whose arrays come back as they are: row
    ``g`` of each equals ``solve_closed_form`` at ``grid[g]``.
    """
    _check_index(scenario, n)
    xs = as_loads(scenario, loads)
    values = np.asarray(grid, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(values) & (values > 0)))
    if bad.size:
        raise ScenarioError(f"grid value must be > 0 (got {grid[bad[0]]})")
    table = np.tile(np.array(xs), (len(values), 1))
    table[:, n] = values
    return closed_form_arrays(scenario, table)
