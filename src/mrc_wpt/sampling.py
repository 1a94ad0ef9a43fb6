"""Randomized system generation for property tests and the verify command.

Parameter ranges are an engineering choice (no canonical ranges exist for
this model family): they bracket bench-scale resonant links, two decades
around the bundled demonstration scenario in frequency, coil values spanning
sub-microhenry to tens of microhenries, and coupling ratios from loose
(0.02) to tight (0.8) relative to the passivity bound ``sqrt(l_n * l_tx)``.
Draws are log-uniform so that every decade is exercised equally.

Draw contract: each call draws its doubles in one ``rng.random`` block.
``random_scenario`` first draws ``rng.integers(1, 9)`` when ``n_receivers``
is None, then 5 + 5 N doubles: l_tx, v_mag, r_tx, v_phase, then l, coupling,
x_min, span and r of each receiver, and w last.  ``random_loads`` draws N
doubles, ``with_feasible_thresholds`` 2 N: witness loads, then threshold
fractions.  Each double u maps to ``lo + (hi - lo) * u``, as numpy's scalar
``uniform(lo, hi)`` does.  Changing the contract changes every seeded test
instance, the ``verify`` output and the benchmark's pool.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import (
    LoadVector,
    ReceiverSpec,
    ScenarioError,
    SystemScenario,
    TransmitterSpec,
    solve_closed_form,
)

__all__ = [
    "random_scenario",
    "random_loads",
    "with_feasible_thresholds",
]


def _log_uniform(lo: float, hi: float, u: float) -> float:
    """The value whose logarithm lies the fraction ``u`` from log lo to log hi."""
    a = math.log(lo)
    return math.exp(a + (math.log(hi) - a) * u)


def _log_uniform_on(lo: float, hi: float):
    """``_log_uniform(lo, hi, u)`` as a function of ``u``, both logs taken once."""
    a = math.log(lo)
    width = math.log(hi) - a
    return lambda u: math.exp(a + width * u)


# The constant ranges of ``random_scenario``.
_INDUCTANCE, _VOLTAGE, _RESISTANCE, _COUPLING, _X_MIN, _OMEGA = (
    _log_uniform_on(lo, hi)
    for lo, hi in ((5e-7, 5e-5), (5.0, 200.0), (0.05, 5.0), (0.02, 0.8), (0.01, 0.5), (2e5, 2e7))
)


def random_scenario(rng: np.random.Generator, n_receivers: int | None = None) -> SystemScenario:
    """A random valid scenario with ``n_receivers`` receivers (default 1..8).

    Thresholds are set to a nominal 1 W; use :func:`with_feasible_thresholds`
    when a demonstrably feasible optimization instance is needed.
    """
    n = int(rng.integers(1, 9)) if n_receivers is None else n_receivers
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ScenarioError(f"n_receivers must be an integer >= 1 (got {n!r})")
    draw = iter(rng.random(5 + 5 * n).tolist())
    l_tx = _INDUCTANCE(next(draw))
    tx = TransmitterSpec(
        v_mag=_VOLTAGE(next(draw)),
        r_tx=_RESISTANCE(next(draw)),
        l_tx=l_tx,
        v_phase=-math.pi + (math.pi - -math.pi) * next(draw),
    )
    receivers = []
    for _ in range(n):
        l = _INDUCTANCE(next(draw))
        h = _COUPLING(next(draw)) * math.sqrt(l * l_tx)
        x_min = _X_MIN(next(draw))
        # log10(x_max / x_min) is uniform on [1, 3].
        x_max = x_min * 10.0 ** (1.0 + (3.0 - 1.0) * next(draw))
        r = _RESISTANCE(next(draw))
        receivers.append(ReceiverSpec(r=r, l=l, h=h, x_min=x_min, x_max=x_max, p_min=1.0))
    return SystemScenario(w=_OMEGA(next(draw)), tx=tx, receivers=tuple(receivers))


def _loads(scenario: SystemScenario, u: list[float]) -> LoadVector:
    return LoadVector(tuple(_log_uniform(rec.x_min, rec.x_max, v)
                            for rec, v in zip(scenario.receivers, u)))


def random_loads(rng: np.random.Generator, scenario: SystemScenario) -> LoadVector:
    """Loads drawn log-uniform inside each receiver's [x_min, x_max]."""
    return _loads(scenario, rng.random(scenario.n).tolist())


def with_feasible_thresholds(
    rng: np.random.Generator, scenario: SystemScenario
) -> tuple[SystemScenario, LoadVector]:
    """Rewrite thresholds so a known witness point meets all of them.

    Draws a random in-bounds witness load vector and sets every threshold to
    a random fraction (30..90%) of the power actually delivered there, which
    makes the witness a feasibility certificate for the rewritten scenario.
    """
    n = scenario.n
    u = rng.random(2 * n).tolist()
    witness = _loads(scenario, u[:n])
    p = solve_closed_form(scenario, witness).p
    receivers = tuple(
        ReceiverSpec(rec.r, rec.l, rec.h, rec.x_min, rec.x_max, p_k * (0.3 + (0.9 - 0.3) * f))
        for rec, p_k, f in zip(scenario.receivers, p, u[n:])
    )
    return SystemScenario(scenario.w, scenario.tx, receivers), witness
