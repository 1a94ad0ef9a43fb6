"""Randomized system generation for property tests and the verify command.

Parameter ranges are an engineering choice (no canonical ranges exist for
this model family): they bracket bench-scale resonant links, two decades
around the bundled demonstration scenario in frequency, coil values spanning
sub-microhenry to tens of microhenries, and coupling ratios from loose
(0.02) to tight (0.8) relative to the passivity bound ``sqrt(l_n * l_tx)``.
Draws are log-uniform so that every decade is exercised equally.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .circuit import (
    LoadVector,
    ReceiverSpec,
    SystemScenario,
    TransmitterSpec,
    solve_closed_form,
)

__all__ = [
    "log_uniform",
    "random_scenario",
    "random_loads",
    "with_feasible_thresholds",
]

# Range of log10(x_max / x_min) for each random receiver.
_LOAD_SPAN_DECADES = (1.0, 3.0)


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """One draw whose logarithm is uniform on [log lo, log hi]."""
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def random_scenario(rng: np.random.Generator, n_receivers: int | None = None) -> SystemScenario:
    """A random valid scenario with ``n_receivers`` receivers (default 1..8).

    Thresholds are set to a nominal 1 W; use :func:`with_feasible_thresholds`
    when a demonstrably feasible optimization instance is needed.
    """
    n = int(rng.integers(1, 9)) if n_receivers is None else n_receivers
    l_tx = log_uniform(rng, 5e-7, 5e-5)
    tx = TransmitterSpec(
        v_mag=log_uniform(rng, 5.0, 200.0),
        r_tx=log_uniform(rng, 0.05, 5.0),
        l_tx=l_tx,
        v_phase=float(rng.uniform(-math.pi, math.pi)),
    )
    receivers = []
    for _ in range(n):
        l = log_uniform(rng, 5e-7, 5e-5)
        coupling = log_uniform(rng, 0.02, 0.8)
        x_min = log_uniform(rng, 0.01, 0.5)
        x_max = x_min * 10.0 ** rng.uniform(*_LOAD_SPAN_DECADES)
        receivers.append(
            ReceiverSpec(
                r=log_uniform(rng, 0.05, 5.0),
                l=l,
                h=coupling * math.sqrt(l * l_tx),
                x_min=x_min,
                x_max=x_max,
                p_min=1.0,
            )
        )
    return SystemScenario(
        w=log_uniform(rng, 2e5, 2e7), tx=tx, receivers=tuple(receivers)
    )


def random_loads(rng: np.random.Generator, scenario: SystemScenario) -> LoadVector:
    """Loads drawn log-uniform inside each receiver's [x_min, x_max]."""
    return LoadVector(
        tuple(log_uniform(rng, rec.x_min, rec.x_max) for rec in scenario.receivers)
    )


def with_feasible_thresholds(
    rng: np.random.Generator, scenario: SystemScenario
) -> tuple[SystemScenario, LoadVector]:
    """Rewrite thresholds so a known witness point meets all of them.

    Draws a random in-bounds witness load vector and sets every threshold to
    a random fraction (30..90%) of the power actually delivered there, which
    makes the witness a feasibility certificate for the rewritten scenario.
    """
    witness = random_loads(rng, scenario)
    report = solve_closed_form(scenario, witness)
    receivers = tuple(
        replace(rec, p_min=report.p[k] * float(rng.uniform(0.3, 0.9)))
        for k, rec in enumerate(scenario.receivers)
    )
    return replace(scenario, receivers=receivers), witness
