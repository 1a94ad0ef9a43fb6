import os
import struct
from dataclasses import replace

import numpy as np
import pytest

from mrc_wpt.centralized import check_feasibility, z_bracket
from mrc_wpt.sampling import random_scenario, with_feasible_thresholds


def rel(a, b) -> float:
    """Relative difference with the larger magnitude as scale."""
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def assert_no_child_left():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
