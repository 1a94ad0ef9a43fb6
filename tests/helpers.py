import contextlib
import math
import os
import struct
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from mrc_wpt import distributed
from mrc_wpt.centralized import check_feasibility, z_bracket
from mrc_wpt.circuit import (
    PowerReport,
    ReceiverSpec,
    SystemScenario,
    TransmitterSpec,
    det_impedance,
    solve_closed_form,
)
from mrc_wpt.sampling import random_loads, random_scenario, with_feasible_thresholds
from mrc_wpt.verify import _PROPERTIES, PropertyResult, VerificationReport


def rel(a, b) -> float:
    """Relative difference with the larger magnitude as scale."""
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def assert_no_child_left():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_engine(seed, fail):
    """A patch of ``_run_blocks`` that calls ``fail(in_parent)`` when the
    trial of ``seed`` starts to run, in the process that iterates it."""
    run_blocks = distributed._run_blocks
    parent = os.getpid()

    def fake(scenario, config, rounds):
        if config.seed == seed:
            fail(os.getpid() == parent)
        yield from run_blocks(scenario, config, rounds)

    return mock.patch.object(distributed, "_run_blocks", fake)


@contextlib.contextmanager
def engine_runs():
    """Patch ``_engine`` to list every run of a step engine that starts, as
    its generator, and yield the list."""
    engine, runs = distributed._engine, []

    def spy(n_agents):
        def start(*args):
            runs.append(engine(n_agents)(*args))
            return runs[-1]

        return start

    with mock.patch.object(distributed, "_engine", spy):
        yield runs


def fig3_with_p3(fig3, p3):
    """fig3 with receiver 3's demand set to ``p3`` watts."""
    rec = replace(fig3.receivers[2], p_min=float(p3))
    return replace(fig3, receivers=fig3.receivers[:2] + (rec,))


def _bits(value) -> bytes:
    """Exact bit pattern of a float or complex."""
    c = complex(value)
    return struct.pack("<dd", c.real, c.imag)


def feasible_instance(rng, n_receivers=None, dz=1e-3, min_steps=50):
    """Random scenario with witness-certified feasible demands whose
    reciprocal-resistance bracket spans at least ``min_steps`` sweep steps.

    A fixed-step sweep cannot resolve brackets narrower than its step, so
    instances below that width test nothing about optimality and are
    redrawn.
    """
    while True:
        scenario, witness = with_feasible_thresholds(
            rng, random_scenario(rng, n_receivers=n_receivers)
        )
        bracket = z_bracket(scenario, dz)
        if bracket.z_hi - bracket.z_lo >= min_steps * dz:
            return scenario, witness


def dz_resolvable_instance(rng, n_receivers=None, dz=1e-3, max_steps=1000):
    """Feasible instance whose lowest feasible z-interval spans >= 1.5 dz.

    The fixed-step sweep is only guaranteed to land inside the lowest
    feasible interval (and hence to quantize the true optimum by at most one
    step) when that interval is at least one step wide; narrower landscapes
    get stepped over, which says nothing about optimality.  Instances are
    redrawn until the landscape is resolvable at the given step.  Brackets
    wider than ``max_steps`` steps are redrawn too, which keeps the
    resolvability scan cheap.
    """
    while True:
        scenario, witness = feasible_instance(rng, n_receivers=n_receivers, dz=dz)
        bracket = z_bracket(scenario, dz)
        if bracket.z_hi - bracket.z_lo > max_steps * dz:
            continue
        zs = np.arange(bracket.z_lo, bracket.z_hi, dz / 10.0)
        flags = np.array([check_feasibility(scenario, float(z)) is not None for z in zs])
        idx = np.flatnonzero(flags)
        if idx.size == 0:
            continue
        first = idx[0]
        run_end = first
        while run_end + 1 < len(flags) and flags[run_end + 1]:
            run_end += 1
        if (run_end - first) * (dz / 10.0) >= 1.5 * dz:
            return scenario, witness


def scalar_matrix(s, xs):
    """The impedance matrix, built entry by entry in Python's complex arithmetic."""
    a = np.zeros((s.n + 1, s.n + 1), dtype=complex)
    a[0, 0] = s.tx.r_tx
    for k, rec in enumerate(s.receivers):
        a[0, k + 1] = a[k + 1, 0] = -1j * s.w * rec.h
        a[k + 1, k + 1] = rec.r + xs[k]
    return a


def scalar_admittance(s, xs):
    """The closed-form first column of the inverse matrix, entry by entry in
    Python's complex arithmetic."""
    r_in = solve_closed_form(s, xs).r_in
    return np.array([1.0 / r_in] + [1j * s.w * rec.h / (rec.r + x) / r_in
                                    for rec, x in zip(s.receivers, xs)])


def scalar_oracle(s, xs):
    """``solve_oracle`` with its powers derived in Python's complex arithmetic."""
    rhs = np.zeros(s.n + 1, dtype=complex)
    rhs[0] = s.tx.v_tx
    currents = np.linalg.solve(scalar_matrix(s, xs), rhs)
    v, i_0 = s.tx.v_tx, complex(currents[0])
    powers = [0.5 * xs[k] * abs(complex(currents[k + 1])) ** 2 for k in range(s.n)]
    report = PowerReport((v / i_0).real, tuple(powers), 0.5 * (v * i_0.conjugate()).real,
                         math.fsum(powers))
    return report, currents


def deviations(sample) -> tuple[tuple[float, ...], bool]:
    """The six verification deviations of one sample ``(s, xs)``, in
    ``_PROPERTIES`` order, and whether its closed-form determinant is
    positive: the per-sample reference of ``run_verification``'s check, with
    the oracle, matrix and admittance column in Python's complex arithmetic."""
    s, xs = sample
    report = solve_closed_form(s, xs)
    oracle, i_generic = scalar_oracle(s, xs)
    col_closed = scalar_admittance(s, xs)
    i_closed = (s.tx.v_tx * col_closed).tolist()

    # Closed form against the generic dense solve.
    equiv = rel(report.p_tx, oracle.p_tx)
    equiv = max(equiv, rel(report.p_sum, oracle.p_sum))
    for k in range(s.n):
        equiv = max(equiv, rel(report.p[k], oracle.p[k]))
    for a, b in zip(i_closed, i_generic.tolist()):
        equiv = max(equiv, rel(a, b))

    # Energy balance of the closed-form currents.
    dissipated = 0.5 * abs(i_closed[0]) ** 2 * s.tx.r_tx
    for k, rec in enumerate(s.receivers):
        dissipated += 0.5 * abs(i_closed[k + 1]) ** 2 * (rec.r + xs[k])
    energy = rel(report.p_tx, dissipated)

    # Delivered power can never reach the drawn power.
    ratio = report.p_sum / report.p_tx

    # Determinant: positivity and the closed product form.
    matrix = scalar_matrix(s, xs)
    det_closed = det_impedance(s, xs)
    det = rel(det_closed, complex(np.linalg.det(matrix)))

    # First admittance column against the generic inverse.
    column = 0.0
    for a, b in zip(col_closed, np.linalg.inv(matrix)[:, 0]):
        column = max(column, rel(complex(a), complex(b)))

    # Source phase must not influence any power.
    rotated = replace(s, tx=replace(s.tx, v_phase=s.tx.v_phase + 1.234))
    rotated_report = solve_closed_form(rotated, xs)
    phase = rel(report.p_tx, rotated_report.p_tx)
    for k in range(s.n):
        phase = max(phase, rel(report.p[k], rotated_report.p[k]))

    return (equiv, energy, ratio, det, column, phase), det_closed > 0.0


def reference_report(scenario, trials, seed) -> VerificationReport:
    """``run_verification``'s report from ``deviations``, one sample at a
    time, folded in sample order over the same sample stream."""
    worst = [0.0] * len(_PROPERTIES)
    worst_own = [0.0] * len(_PROPERTIES)
    det_all_positive = True
    rng = np.random.default_rng(seed)
    for i in range(trials):
        s = scenario if i % 2 == 0 else random_scenario(rng)
        devs, det_positive = deviations((s, tuple(random_loads(rng, s))))
        det_all_positive = det_all_positive and det_positive
        worst = [max(w, d) for w, d in zip(worst, devs)]
        if i % 2 == 0:
            worst_own = [max(w, d) for w, d in zip(worst_own, devs)]
    passed = [w <= tol for w, (_, tol) in zip(worst, _PROPERTIES)]
    passed[2] = worst[2] < 1.0
    passed[3] = passed[3] and det_all_positive
    return VerificationReport(results=tuple(
        PropertyResult(name, trials, w, w_own, tol, ok)
        for (name, tol), w, w_own, ok in zip(_PROPERTIES, worst, worst_own, passed)
    ))


def exact_closed_form(scenario, loads):
    """``r_in``, the powers, ``p_tx`` and ``p_sum`` of the closed form in exact
    rational arithmetic: every input is a double, so a ``Fraction``, and the
    closed form uses only +, -, * and /."""
    w, half_v2 = Fraction(scenario.w), Fraction(scenario.tx.v_mag) ** 2 / 2
    wh2 = [(w * Fraction(rec.h)) ** 2 for rec in scenario.receivers]
    d = [Fraction(rec.r) + Fraction(x) for rec, x in zip(scenario.receivers, loads)]
    r_in = Fraction(scenario.tx.r_tx) + sum(c / d_k for c, d_k in zip(wh2, d))
    p = [half_v2 * c * Fraction(x) / (d_k * d_k) / (r_in * r_in)
         for c, d_k, x in zip(wh2, d, loads)]
    return r_in, p, half_v2 / r_in, sum(p)


def ulps(value, exact) -> float:
    """Distance of the double ``value`` from the rational ``exact`` in units
    of the last place of ``exact``'s nearest double."""
    return float(abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact))))


@st.composite
def wide_systems(draw):
    """A scenario over wide ranges, N = 1-8, and a load vector in its load box,
    each value log-uniform: r_tx and r in [1e-6, 1e3] ohm, v in [1e-3, 1e4] V,
    w in [1e3, 1e9] rad/s, coils in [1e-8, 1e-3] H, couplings 1e-4 to 1 of the
    passivity bound, x_min in [1e-6, 1e2] ohm and x_max / x_min up to 1e6."""

    def log_uniform(lo, hi):
        return 10.0 ** draw(st.floats(math.log10(lo), math.log10(hi)))

    l_tx = log_uniform(1e-8, 1e-3)
    tx = TransmitterSpec(v_mag=log_uniform(1e-3, 1e4), r_tx=log_uniform(1e-6, 1e3), l_tx=l_tx)
    receivers, loads = [], []
    for _ in range(draw(st.integers(1, 8))):
        l, x_min = log_uniform(1e-8, 1e-3), log_uniform(1e-6, 1e2)
        x_max = x_min * log_uniform(1.0, 1e6)
        h = log_uniform(1e-4, 1.0) * math.sqrt(l * l_tx)
        receivers.append(ReceiverSpec(log_uniform(1e-6, 1e3), l, h, x_min, x_max, 1.0))
        loads.append(log_uniform(x_min, x_max))
    return SystemScenario(log_uniform(1e3, 1e9), tx, tuple(receivers)), tuple(loads)
