"""Independent checks of the program's outputs.

Nothing here imports ``mrc_wpt``.  Scenarios are read through their public
fields only (``w``, ``tx.v_mag``, ``tx.v_phase``, ``tx.r_tx`` and, per
receiver, ``r``, ``h``, ``x_min``, ``x_max``, ``p_min``), and powers come
from a dense solve of the (N+1)x(N+1) mesh equations ``A @ i = v`` with
``numpy.linalg.solve``:

    A[0, 0] = r_tx,   A[0, n] = A[n, 0] = -j*w*h_n,   A[n, n] = r_n + x_n

with every other entry zero, ``v = [v_tx, 0, ..., 0]``, and the powers
taken from their definitions: ``p_tx = Re(v_tx * conj(i_0)) / 2`` and
``p_n = x_n * |i_n|**2 / 2``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

# A power that differs from the mesh solve by more than this share is wrong:
# the two routes agree to ~1e-15 on well-conditioned links.
POWER_RTOL = 1e-9
# Demands are met when the delivered power reaches p_min * (1 - DEMAND_RTOL).
DEMAND_RTOL = 1e-6


@dataclass(frozen=True)
class Link:
    """The mesh-equation parameters of one scenario, as float arrays."""

    w: float
    v: complex
    r_tx: float
    r: np.ndarray
    h: np.ndarray
    x_min: np.ndarray
    x_max: np.ndarray
    p_min: np.ndarray

    @classmethod
    def of(cls, scenario) -> "Link":
        rx = scenario.receivers
        return cls(
            w=float(scenario.w),
            v=cmath.rect(scenario.tx.v_mag, scenario.tx.v_phase),
            r_tx=float(scenario.tx.r_tx),
            r=np.array([rec.r for rec in rx], dtype=float),
            h=np.array([rec.h for rec in rx], dtype=float),
            x_min=np.array([rec.x_min for rec in rx], dtype=float),
            x_max=np.array([rec.x_max for rec in rx], dtype=float),
            p_min=np.array([rec.p_min for rec in rx], dtype=float),
        )

    @property
    def n(self) -> int:
        return len(self.r)

    def step_budget(self, dz: float) -> float:
        """Transmit power of one reciprocal-resistance step: dz * |v|^2 / 2."""
        return dz * abs(self.v) ** 2 / 2.0

    def solve(self, loads) -> tuple[np.ndarray, np.ndarray]:
        """Transmit power (shape ``...``) and load powers (``..., N``)."""
        x = np.asarray(loads, dtype=float)
        n = self.n
        a = np.zeros(x.shape[:-1] + (n + 1, n + 1), dtype=complex)
        a[..., 0, 0] = self.r_tx
        a[..., 0, 1:] = -1j * self.w * self.h
        a[..., 1:, 0] = -1j * self.w * self.h
        diag = np.arange(1, n + 1)
        a[..., diag, diag] = self.r + x
        rhs = np.zeros(x.shape[:-1] + (n + 1, 1), dtype=complex)
        rhs[..., 0, 0] = self.v
        i = np.linalg.solve(a, rhs)[..., 0]
        p_tx = 0.5 * (self.v * np.conj(i[..., 0])).real
        p = 0.5 * x * np.abs(i[..., 1:]) ** 2
        return p_tx, p

    def outside_box(self, loads) -> np.ndarray:
        x = np.asarray(loads, dtype=float)
        return np.any((x < self.x_min) | (x > self.x_max), axis=-1)

    def demands_met(self, p) -> np.ndarray:
        """All demands met (strict); ``None``-free boolean per row."""
        return np.all(np.asarray(p) >= self.p_min, axis=-1)

    def near_demand(self, p) -> np.ndarray:
        """Rows where some power lies within POWER_RTOL of its demand, so that
        the dense solve cannot decide the feasible flag."""
        return np.any(np.abs(np.asarray(p) - self.p_min) <= POWER_RTOL * self.p_min, axis=-1)


def rel(a, b):
    """Elementwise relative difference with the larger magnitude as scale."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(a), np.abs(b))
    return np.where(scale > 0, np.abs(a - b) / np.where(scale > 0, scale, 1.0), 0.0)


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def check_solution(link: Link, loads, p_tx, p=None, dz=None, witness_ptx=None) -> list[str]:
    """Errors in one optimal load setting reported by the optimizer.

    The loads must lie in the box, meet every demand by the dense solve, and
    reproduce the reported transmit (and load) powers.  With a witness, the
    reported transmit power may exceed the witness's by one step budget at
    most, since the witness is itself a feasible point.
    """
    errors = []
    if link.outside_box(loads):
        errors.append(f"loads {_floats(loads)} outside the box")
    m_ptx, m_p = link.solve(loads)
    if rel(p_tx, m_ptx) > POWER_RTOL:
        errors.append(f"p_tx {p_tx!r} differs from mesh solve {float(m_ptx)!r}")
    if p is not None and np.any(rel(p, m_p) > POWER_RTOL):
        errors.append(f"load powers {_floats(p)} differ from mesh solve {_floats(m_p)}")
    if np.any(m_p < link.p_min * (1.0 - DEMAND_RTOL)):
        errors.append(f"mesh powers {_floats(m_p)} miss demands {_floats(link.p_min)}")
    if witness_ptx is not None and p_tx > witness_ptx + link.step_budget(dz):
        errors.append(f"p_tx {p_tx!r} above witness {witness_ptx!r} plus one step")
    return errors


def judge_solve(link: Link, status, loads, p_tx, p, dz, witness_ptx) -> tuple[bool, list[str]]:
    """(failed, errors) for one optimizer answer on a feasible instance.

    Every instance the benchmark hands the optimizer is feasible, so an
    "infeasible" answer is a failed operation; an "optimal" answer is
    judged by :func:`check_solution`.
    """
    if status != "optimal":
        return True, []
    return False, check_solution(link, loads, p_tx, p, dz, witness_ptx)


def check_trial(link: Link, final, p_tx, feasible, floor_ptx) -> list[str]:
    """Errors in one protocol trial's terminal state.

    ``floor_ptx`` is the least transmit power a demand-meeting trial may
    draw: the optimum at its demand point minus one step budget.
    """
    errors = []
    if link.outside_box(final):
        errors.append(f"final loads {_floats(final)} outside the box")
    m_ptx, m_p = link.solve(final)
    if rel(p_tx, m_ptx) > POWER_RTOL:
        errors.append(f"p_tx {p_tx!r} differs from mesh solve {float(m_ptx)!r}")
    if not link.near_demand(m_p) and bool(feasible) != bool(link.demands_met(m_p)):
        errors.append(f"feasible={feasible} but mesh powers {_floats(m_p)}")
    if feasible and p_tx < floor_ptx:
        errors.append(f"demand-meeting trial draws {p_tx!r} W, below the optimum {floor_ptx!r}")
    return errors


def own_peak(link: Link, loads, n: int) -> float:
    """Load of receiver ``n`` that maximizes its own power, others fixed.

    Eliminating the mesh gives ``p_n ~ x / (a*x + b)**2`` with
    ``a = r_tx + sum_{k != n} (w h_k)^2 / (r_k + x_k)`` and
    ``b = a*r_n + (w h_n)^2``, which peaks at ``x = b / a``.
    """
    x = np.asarray(loads, dtype=float)
    wh2 = (link.w * link.h) ** 2
    others = np.arange(link.n) != n
    a = link.r_tx + float(np.sum(wh2[others] / (link.r[others] + x[others])))
    return (a * link.r[n] + wh2[n]) / a


def check_sweep(link: Link, loads, n: int, grid, x, p_tx, p, p_sum) -> list[str]:
    """Errors in sweep rows: grid, powers, p_sum < p_tx, and the peak."""
    errors = []
    if len(x) != len(grid) or np.any(rel(x, grid) > 1e-12):
        errors.append("sweep grid column differs from the requested grid")
        return errors
    full = np.tile(np.asarray(loads, dtype=float), (len(x), 1))
    full[:, n] = x
    m_ptx, m_p = link.solve(full)
    bad = np.flatnonzero((rel(p_tx, m_ptx) > POWER_RTOL) | np.any(rel(p, m_p) > POWER_RTOL, axis=1))
    if bad.size:
        errors.append(f"sweep: {bad.size} rows differ from the mesh solve (first row {bad[0] + 1})")
    if np.any(rel(p_sum, m_p.sum(axis=1)) > POWER_RTOL):
        errors.append("sweep: p_sum differs from the sum of mesh powers")
    if not np.all(p_sum < p_tx):
        errors.append("sweep: some row delivers at least the drawn power")
    step = float(grid[1] - grid[0]) if len(grid) > 1 else 0.0
    peak = own_peak(link, loads, n)
    argmax = float(x[int(np.argmax(p[:, n]))])
    if abs(argmax - peak) > step * (1.0 + 1e-9):
        errors.append(f"sweep: argmax of p_{n + 1} at {argmax}, analytic peak {peak}")
    return errors


def check_trace(link: Link, initial, iteration, agent, fb, x, p_tx, p, dx) -> list[str]:
    """Errors in a recorded protocol trace (one row per agent step).

    ``agent`` is 0-based; ``fb`` holds the feedback bits as an int array of
    shape (K, N); ``x``/``p`` hold the loads and load powers after each step.
    Each row must take the next agent in round-robin order, move only that
    agent's load and by at most ``dx``, stay in the box, report powers that
    match the mesh solve, and carry feedback bits that are truthful for the
    loads of the row before it.
    """
    errors = []
    k = len(iteration)
    if k == 0:
        return ["trace has no rows"]
    if not np.array_equal(iteration, np.arange(1, k + 1)):
        errors.append("trace: iteration column is not 1..K")
    if not np.array_equal(agent, np.arange(k) % link.n):
        errors.append("trace: agents do not take turns in round-robin order")
    out = np.flatnonzero(link.outside_box(x))
    if out.size:
        errors.append(f"trace: {out.size} rows leave the box (first row {out[0] + 1})")
    prev = np.vstack([np.asarray(initial, dtype=float)[None, :], x[:-1]])
    move = x - prev
    rows = np.arange(k)
    others = move.copy()
    others[rows, agent % link.n] = 0.0
    if np.any(others != 0.0):
        errors.append("trace: a row moves a load other than the active agent's")
    active_prev = prev[rows, agent % link.n]
    slack = dx + 32.0 * np.spacing(np.abs(active_prev))
    if np.any(np.abs(move[rows, agent % link.n]) > slack):
        errors.append("trace: a load moves by more than dx")
    m_ptx, m_p = link.solve(x)
    bad = np.flatnonzero((rel(p_tx, m_ptx) > POWER_RTOL) | np.any(rel(p, m_p) > POWER_RTOL, axis=1))
    if bad.size:
        errors.append(f"trace: {bad.size} rows differ from the mesh solve (first row {bad[0] + 1})")
    _, p0 = link.solve(initial)
    if not link.near_demand(p0) and not np.array_equal(fb[0], (p0 >= link.p_min).astype(int)):
        errors.append("trace: feedback bits of row 1 are not truthful")
    lying = np.flatnonzero(np.any(fb[1:] != (p[:-1] >= link.p_min).astype(int), axis=1))
    if lying.size:
        errors.append(f"trace: {lying.size} rows carry untruthful feedback (first row {lying[0] + 2})")
    return errors


def self_test(scenario) -> list[str]:
    """Show that each check catches a deliberately perturbed result.

    Builds correct results from the dense solve on ``scenario``: an optimal
    load setting certified by a witness, a protocol trial, and a three-row
    trace.  Each must pass unperturbed and fail with one power scaled by
    ``1 + 1e-6`` or one load moved outside the box; an "infeasible" status
    on the certified instance must count as a failed solve.  Returns one
    message per perturbation that went unnoticed.
    """
    base = Link.of(scenario)
    loads = np.sqrt(base.x_min * base.x_max)
    p_tx, p = base.solve(loads)
    link = replace(base, p_min=0.5 * p)
    outside = loads.copy()
    outside[0] = link.x_max[0] * 1.5
    scaled = p.copy()
    scaled[0] *= 1.0 + 1e-6
    missed = []

    def expect(name, errors, caught):
        if bool(errors) != caught:
            missed.append(f"self-test {name}: {'not caught' if caught else errors}")

    expect("solution", check_solution(link, loads, p_tx, p, 1e-3, p_tx), False)
    expect("solution power x(1+1e-6)", check_solution(link, loads, p_tx, scaled, 1e-3, p_tx), True)
    expect("solution p_tx x(1+1e-6)", check_solution(link, loads, p_tx * (1 + 1e-6)), True)
    expect("solution outside box", check_solution(link, outside, link.solve(outside)[0]), True)
    failed, _ = judge_solve(link, "infeasible", None, None, None, 1e-3, p_tx)
    if not failed:
        missed.append("self-test false infeasible: not counted as failed")

    expect("trial", check_trial(link, loads, p_tx, True, 0.0), False)
    expect("trial p_tx x(1+1e-6)", check_trial(link, loads, p_tx * (1 + 1e-6), True, 0.0), True)
    expect("trial outside box", check_trial(link, outside, link.solve(outside)[0], True, 0.0), True)
    expect("trial false infeasible", check_trial(link, loads, p_tx, False, 0.0), True)

    dx = 1e-3
    xs = [loads.copy()]
    for step in range(3):
        nxt = xs[-1].copy()
        nxt[step % link.n] += dx
        xs.append(nxt)
    x = np.array(xs[1:])
    t_ptx, t_p = link.solve(x)
    _, p_start = link.solve(xs[0])
    fb = (np.vstack([p_start, t_p[:-1]]) >= link.p_min).astype(int)
    rows = np.arange(1, 4)
    args = (link, xs[0], rows, (rows - 1) % link.n)
    expect("trace", check_trace(*args, fb, x, t_ptx, t_p, dx), False)
    bent = t_p.copy()
    bent[1, 0] *= 1.0 + 1e-6
    expect("trace power x(1+1e-6)", check_trace(*args, fb, x, t_ptx, bent, dx), True)
    far = x.copy()
    far[1:, 1 % link.n] = link.x_max[1 % link.n] * 1.5
    expect("trace outside box", check_trace(*args, fb, far, *link.solve(far), dx), True)
    return missed
