"""The block-draw sampler against the scalar-draw sampler it replaced.

The ``_scalar_*`` functions below are the previous implementation, one
``Generator.uniform`` call per value, kept verbatim as an oracle: every
seeded instance of the test suite, the ``verify`` command and the
benchmark's pool depends on the sampler drawing exactly these values.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from mrc_wpt.circuit import (
    LoadVector,
    ReceiverSpec,
    ScenarioError,
    SystemScenario,
    TransmitterSpec,
    solve_closed_form,
)
from mrc_wpt.sampling import random_loads, random_scenario, with_feasible_thresholds

from helpers import _bits

_LOAD_SPAN_DECADES = (1.0, 3.0)


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """One draw whose logarithm is uniform on [log lo, log hi]."""
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _scalar_random_scenario(
    rng: np.random.Generator, n_receivers: int | None = None
) -> SystemScenario:
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


def _scalar_random_loads(rng: np.random.Generator, scenario: SystemScenario) -> LoadVector:
    """Loads drawn log-uniform inside each receiver's [x_min, x_max]."""
    return LoadVector(
        tuple(log_uniform(rng, rec.x_min, rec.x_max) for rec in scenario.receivers)
    )


def _scalar_with_feasible_thresholds(
    rng: np.random.Generator, scenario: SystemScenario
) -> tuple[SystemScenario, LoadVector]:
    """Rewrite thresholds so a known witness point meets all of them.

    Draws a random in-bounds witness load vector and sets every threshold to
    a random fraction (30..90%) of the power actually delivered there, which
    makes the witness a feasibility certificate for the rewritten scenario.
    """
    witness = _scalar_random_loads(rng, scenario)
    report = solve_closed_form(scenario, witness)
    receivers = tuple(
        replace(rec, p_min=report.p[k] * float(rng.uniform(0.3, 0.9)))
        for k, rec in enumerate(scenario.receivers)
    )
    return replace(scenario, receivers=receivers), witness


def scenario_bits(s: SystemScenario) -> list[bytes]:
    values = [s.w, s.tx.v_mag, s.tx.r_tx, s.tx.l_tx, s.tx.v_phase]
    for rec in s.receivers:
        values += [rec.r, rec.l, rec.h, rec.x_min, rec.x_max, rec.p_min]
    return [_bits(v) for v in values]


def loads_bits(x: LoadVector) -> list[bytes]:
    return [_bits(v) for v in x]


def assert_same_generator(a: np.random.Generator, b: np.random.Generator) -> None:
    assert a.bit_generator.state == b.bit_generator.state
    assert _bits(a.random()) == _bits(b.random())


@pytest.mark.parametrize("n_receivers", [None, 1, 2, 3, 4, 5, 6, 7, 8])
def test_draws_match_scalar_sampler(n_receivers):
    for seed in range(50):
        old = np.random.default_rng(seed)
        new = np.random.default_rng(seed)

        s_old = _scalar_random_scenario(old, n_receivers)
        s_new = random_scenario(new, n_receivers)
        assert scenario_bits(s_new) == scenario_bits(s_old)
        assert new.bit_generator.state == old.bit_generator.state

        assert loads_bits(random_loads(new, s_new)) == loads_bits(_scalar_random_loads(old, s_old))
        assert new.bit_generator.state == old.bit_generator.state

        f_old, w_old = _scalar_with_feasible_thresholds(old, s_old)
        f_new, w_new = with_feasible_thresholds(new, s_new)
        assert scenario_bits(f_new) == scenario_bits(f_old)
        assert loads_bits(w_new) == loads_bits(w_old)
        assert_same_generator(new, old)


def test_benchmark_pool_matches_scalar_sampler():
    old = np.random.default_rng(11)
    new = np.random.default_rng(11)
    for _ in range(600):
        s_old, w_old = _scalar_with_feasible_thresholds(old, _scalar_random_scenario(old))
        s_new, w_new = with_feasible_thresholds(new, random_scenario(new))
        assert scenario_bits(s_new) == scenario_bits(s_old)
        assert loads_bits(w_new) == loads_bits(w_old)
    assert_same_generator(new, old)


def test_numpy_integer_receiver_count_accepted():
    s = random_scenario(np.random.default_rng(0), n_receivers=np.int64(3))
    assert s.n == 3


@pytest.mark.parametrize("bad", [0, -1, 2.5])
def test_bad_receiver_count_rejected_before_drawing(bad):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ScenarioError, match="n_receivers must be an integer >= 1"):
        random_scenario(rng, n_receivers=bad)
    assert rng.bit_generator.state == before
