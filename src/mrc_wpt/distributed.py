"""Round-robin simulation of receiver-side load adjustment.

Each receiver knows only its own measured power, its own bounds and demand,
and one feedback bit per other receiver (1 when that receiver's demand is
currently met).  On its turn a receiver probes its power at ``x_n - dx``,
``x_n``, ``x_n + dx`` to learn which side of its own power peak it sits on,
then applies one of five update rules:

  C1  hungry, below its peak            -> raise x_n by dx (helps itself)
  C2  hungry, above its peak            -> lower x_n by dx (helps itself)
  C3  fed, off-peak, someone hungry     -> raise x_n by dx (helps others)
  C4  fed, off-peak, everyone fed       -> lower x_n by dx (cuts transmit power)
  C5  otherwise                         -> no change

Updates clamp to [x_min, x_max]; probe evaluations themselves are
hypothetical measurements and may leave the bounds (only staying positive).
A run terminates after ``k_max`` agent steps, or earlier once N consecutive
steps take C5 (one full silent round).

Implementation note: the step is written twice.  ``_trial_engine`` is the
one simulator of the protocol.  ``batch_run`` runs it bare and
``run_protocol`` runs it with a step recorder that fills one structured
array, the trace's ``records``, which ``simulate --trace`` writes out.
``verify_trace`` is an independent array replay of the same step, and the
tests compare the engine against it.  The engine's power expressions mirror
operation for operation the one body of the closed form in ``circuit``,
which serves both ``solve_closed_form`` and the array kernel
``closed_form_arrays`` that the replay uses, so simulated measurements,
recorded traces and the replay all agree to the bit.
A step's probes at ``x_n - dx`` and ``x_n + dx`` compute, in the same
operations, the state that a move to either load leads to, and the move
takes it from there; only a move clamped to a bound is computed again.
Bare and recorded runs execute every step, so a trial's cost is its step
count, whatever state the trial reaches.

The trials of one ``run_trials`` (and so ``batch_run``) call share no
state, and they run in forked worker processes, one per usable CPU: the
calling process runs one share itself and each other share runs in a child.
Results come back in seed order, bit-identical to running every trial in
one process.  The call runs serially, in-process, where ``_workers`` allows
one worker: one trial, one usable CPU, no ``os.fork``, or other Python
threads.  ``_forked``, the one place that forks, also serves the CLI's CSV
writer.
"""

from __future__ import annotations

import enum
import math
import operator
import os
import pickle
import signal
import threading
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuit import (
    PowerReport,
    ScenarioError,
    SystemScenario,
    closed_form_arrays,
    coupling_ohms2,
    solve_closed_form,
)

__all__ = [
    "Case",
    "ProtocolConfig",
    "ProtocolTrace",
    "TrialResult",
    "BatchSummary",
    "NoFeasibleTrialsError",
    "draw_initial_loads",
    "run_protocol",
    "run_trials",
    "summarize",
    "batch_run",
    "verify_trace",
]


class Case(enum.IntEnum):
    """Update rule taken by the active receiver at one step."""

    C1 = 1
    C2 = 2
    C3 = 3
    C4 = 4
    C5 = 5


class NoFeasibleTrialsError(RuntimeError):
    """Every trial of a batch ended with some demand unmet.

    ``results`` keeps the batch's :class:`TrialResult` entries, one per seed.
    """

    def __init__(self, message: str, results: tuple[TrialResult, ...] = ()) -> None:
        super().__init__(message)
        self.results = results


@dataclass(frozen=True)
class ProtocolConfig:
    """Step size, iteration budget, and initial-load seed for one run."""

    dx: float = 1e-3
    k_max: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dx) and self.dx > 0):
            raise ScenarioError(f"dx must be finite and > 0 (got {self.dx})")
        if not (isinstance(self.k_max, (int, np.integer)) and self.k_max >= 1):
            raise ScenarioError(f"k_max must be an integer >= 1 (got {self.k_max})")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ScenarioError(f"seed must be an integer >= 0 (got {self.seed})")


def _step_dtype(n: int) -> np.dtype:
    """Row type of :attr:`ProtocolTrace.records` for ``n`` receivers."""
    return np.dtype(
        [
            ("agent", np.intp),
            ("feedback", np.uint8, (n,)),
            ("probes", np.float64, (3,)),
            ("case", np.int8),
            ("x_new", np.float64),
        ]
    )


@dataclass(frozen=True, eq=False)
class ProtocolTrace:
    """Complete record of one protocol run.

    ``records`` is a structured array with one row per step; row k-1 holds
    step k: the active receiver ``agent``, the full N-bit ``feedback``
    vector sampled at the start of the step (the active receiver consumes
    the other N-1 bits), the ``probes`` ``p_lo, p_own, p_hi`` measured at
    ``x_n - dx``, ``x_n``, ``x_n + dx``, the ``case`` taken (a :class:`Case`
    value) and the load ``x_new`` it left.  A run without recording has no
    rows.  Because ``records`` is an array, traces compare by identity.
    """

    config: ProtocolConfig
    initial: tuple[float, ...]
    records: np.ndarray
    iterations: int
    converged: bool
    feasible: bool
    final: tuple[float, ...]
    final_report: PowerReport


class TrialResult(NamedTuple):
    """Terminal outcome of one batch trial."""

    seed: int
    converged: bool
    feasible: bool
    iterations: int
    p_tx: float
    final: tuple[float, ...]


class BatchSummary(NamedTuple):
    """Aggregate over a batch of independently seeded runs."""

    trials: int
    n_feasible: int
    n_infeasible: int
    n_converged: int
    mean_ptx_feasible: float
    results: tuple[TrialResult, ...]


def draw_initial_loads(scenario: SystemScenario, seed: int) -> tuple[float, ...]:
    """Initial loads, uniform over each receiver's [x_min, x_max] (PCG64 stream)."""
    rng = np.random.default_rng(seed)
    return tuple(float(rng.uniform(rec.x_min, rec.x_max)) for rec in scenario.receivers)


# --- step engine -----------------------------------------------------------


def _scenario_params(scenario: SystemScenario):
    recs = scenario.receivers
    half_v2 = 0.5 * scenario.tx.v_mag * scenario.tx.v_mag
    return (
        scenario.tx.r_tx,
        half_v2,
        list(coupling_ohms2(scenario)),
        [rec.r for rec in recs],
        [rec.x_min for rec in recs],
        [rec.x_max for rec in recs],
        [rec.p_min for rec in recs],
    )


def _trial_engine(params, x, p_work, dx, k_max, on_step=None):
    """Run one trial in place on ``x``.  Returns (converged, feasible, p_tx, steps).

    ``params`` comes from ``_scenario_params``.  When given, ``on_step(n,
    p_lo, p_hi, case)`` is called after each step has updated ``x[n]``,
    while ``p_work`` still holds the powers the step started from.  On
    return ``p_work`` holds the powers at the final loads.

    Per receiver the engine keeps ``t[k] = wh2[k] / (r[k] + x[k])``, its
    share of r_in, and ``q[k]``, its power times r_in squared.  ``s_n`` is
    the active receiver's prefix ``r_tx + t[0] + ... + t[n-1]``, summed as
    the round goes.  A probe adds its own term to ``s_n`` and then ``t[n +
    1:]`` in index order: the operations of ``solve_closed_form`` in its
    order, so every probe and power is the same to the bit.  A move to a
    probed load takes that probe's ``t``, ``q`` and r_in; a move clamped to
    a bound computes them again.  After a move only the powers and the
    hungry count are redone.
    """
    r_tx, half_v2, wh2, r, x_min, x_max, p_min = params
    n_agents = len(x)
    hw = [half_v2 * w for w in wh2]
    t = [0.0] * n_agents
    q = [0.0] * n_agents
    r_in = r_tx
    for k in range(n_agents):
        d = r[k] + x[k]
        t[k] = wh2[k] / d
        q[k] = hw[k] * x[k] / (d * d)
        r_in += t[k]
    s_n = r_tx
    n_hungry = 0  # receivers whose demand is not met
    moved = True  # the powers are out of date
    trailing_c5 = 0
    steps = 0
    n = 0
    converged = False
    while True:
        if moved:
            rr = r_in * r_in
            n_hungry = 0
            for k in range(n_agents):
                p = q[k] / rr
                p_work[k] = p
                n_hungry += p < p_min[k]
            moved = False
        if steps >= k_max:
            break
        steps += 1
        p_own = p_work[n]
        hungry = p_own < p_min[n]
        others_fed = n_hungry - hungry == 0

        x_n = x[n]
        lo = x_n - dx
        if lo <= 0.0:
            lo = 0.5 * x_n
        hi = x_n + dx
        w_n = wh2[n]
        d_lo = r[n] + lo
        d_hi = r[n] + hi
        t_lo = w_n / d_lo
        t_hi = w_n / d_hi
        r_lo = s_n + t_lo
        r_hi = s_n + t_hi
        for k in range(n + 1, n_agents):
            r_lo += t[k]
            r_hi += t[k]
        q_lo = hw[n] * lo / (d_lo * d_lo)
        q_hi = hw[n] * hi / (d_hi * d_hi)
        p_lo = q_lo / (r_lo * r_lo)
        p_hi = q_hi / (r_hi * r_hi)

        below = p_hi > p_own and p_lo < p_own  # below its peak
        if not (below or p_hi < p_own and p_lo > p_own):
            case = 5  # at its peak
        elif hungry:
            case = 1 if below else 2
        elif p_own > p_min[n]:
            case = 4 if others_fed else 3
        else:
            case = 5  # demand met exactly

        # A move to a probed load takes that probe's state.  (x_min > 0, so
        # x_n - dx > x_min means that the lower probe was at x_n - dx.)
        if case == 1 or case == 3:
            if hi < x_max[n]:
                x[n] = hi
                t[n], q[n], r_in = t_hi, q_hi, r_hi
                moved = True
            else:
                x[n] = x_max[n]
        elif case == 2 or case == 4:
            if x_n - dx > x_min[n]:
                x[n] = lo
                t[n], q[n], r_in = t_lo, q_lo, r_lo
                moved = True
            else:
                x[n] = x_min[n]

        if on_step is not None:
            on_step(n, p_lo, p_hi, case)

        if case == 5:
            trailing_c5 += 1
            if trailing_c5 >= n_agents:
                converged = True
                break
        else:
            trailing_c5 = 0
            if not moved and x[n] != x_n:  # clamped to a bound
                d = r[n] + x[n]
                t[n] = w_n / d
                q[n] = hw[n] * x[n] / (d * d)
                r_in = s_n + t[n]
                for k in range(n + 1, n_agents):
                    r_in += t[k]
                moved = True

        s_n += t[n]
        n += 1
        if n == n_agents:
            n = 0
            s_n = r_tx

    return converged, n_hungry == 0, half_v2 / r_in, steps


def _load_matrix(initial, x_new) -> np.ndarray:
    """Loads before the first step (row 0) and after each step k (row k).

    Step k sets entry ``(k-1) % N``, the protocol's round-robin agent, to
    ``x_new[k-1]``; every other entry keeps its previous value.
    """
    n = len(initial)
    steps = len(x_new)
    values = np.concatenate((np.asarray(initial, dtype=float), np.asarray(x_new, dtype=float)))
    # Index into ``values`` of each entry's latest setter.  Step indices
    # (n + k - 1) exceed every initial index, so a running maximum down each
    # column carries each entry forward until its receiver moves again.
    src = np.zeros((steps + 1, n), dtype=np.intp)
    src[0] = np.arange(n)
    src[np.arange(1, steps + 1), np.arange(steps) % n] = np.arange(n, n + steps)
    np.maximum.accumulate(src, axis=0, out=src)
    return values[src]


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _run_seeds(scenario: SystemScenario, config: ProtocolConfig, seeds) -> list[TrialResult]:
    """Outcomes of the trials of ``seeds``, one after another, in their order."""
    params = _scenario_params(scenario)
    p_work = [0.0] * scenario.n
    results: list[TrialResult] = []
    for seed in seeds:
        x = list(draw_initial_loads(scenario, seed))
        converged, feasible, p_tx, steps = _trial_engine(
            params, x, p_work, config.dx, config.k_max
        )
        results.append(TrialResult(seed, converged, feasible, steps, p_tx, tuple(x)))
    return results


def _workers(tasks: int) -> int:
    """Processes for ``tasks`` independent tasks: one per usable CPU, at most one
    per task, and one without ``os.fork`` or beside other Python threads
    (forking a threaded process can deadlock)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(tasks, _usable_cpus())


def _forked(work, workers: int, what: str, main):
    """Run ``main(receive)`` in this process while forked children run
    ``work(1)``, ..., ``work(workers - 1)``.

    Child ``w`` sends each item of the iterable ``work(w)`` through its own
    pipe as one frame, ``pickle.dumps((True, item))``, as soon as the item
    is ready; an exception ends its stream with ``(False, exc)`` (a
    ``RuntimeError`` with its ``repr`` when it does not pickle).
    ``receive(w)`` returns child ``w``'s next item, or raises its exception
    here; a child that ends before sending it raises ``RuntimeError``.  A
    child never returns into the caller's stack, and every child has been
    SIGKILLed and reaped when this returns or raises.
    """
    children = {}  # w -> (pid, read end of its pipe), until the child is reaped

    def receive(w):
        pid, pipe = children[w]
        try:
            ok, payload = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            _, status = os.waitpid(pid, 0)
            children.pop(w)[1].close()
            raise RuntimeError(
                f"{what} worker {pid} ended without a result "
                f"(exit status {os.waitstatus_to_exitcode(status)})"
            ) from None
        if not ok:
            raise payload
        return payload

    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid:
                os.close(write_fd)
                children[w] = pid, os.fdopen(read_fd, "rb")
                continue
            status = 1
            try:
                os.close(read_fd)
                with os.fdopen(write_fd, "wb") as pipe:
                    try:
                        for item in work(w):
                            pipe.write(pickle.dumps((True, item)))
                            pipe.flush()
                    except BaseException as exc:  # raised again in the caller
                        try:
                            data = pickle.dumps((False, exc))
                            pickle.loads(data)
                        except Exception:
                            data = pickle.dumps((False, RuntimeError(repr(exc))))
                        pipe.write(data)
                status = 0
            finally:
                os._exit(status)
        main(receive)
    finally:
        for pid, pipe in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def run_trials(
    scenario: SystemScenario, config: ProtocolConfig, trials: int
) -> tuple[TrialResult, ...]:
    """Outcomes of ``trials`` runs seeded ``seed, seed+1, ...``, without recording.

    The trials run in forked workers, one per usable CPU and at most one
    per trial: worker ``w`` of ``W`` takes every ``W``-th seed from the
    ``w``-th, and the calling process runs worker 0's share itself.  The
    results are in seed order and bit-identical to one process running
    them all.  A single worker, a platform without ``os.fork`` or a caller
    with other Python threads runs them serially in-process.  An exception
    raised in a worker is raised here; a worker that ends without a result
    raises ``RuntimeError``.  Every worker has ended when this returns or
    raises.
    """
    if trials < 1:
        raise ScenarioError(f"trials must be >= 1 (got {trials})")
    seeds = range(config.seed, config.seed + trials)
    workers = _workers(trials)
    results: list = [None] * trials

    def merge(receive):
        results[0::workers] = _run_seeds(scenario, config, seeds[0::workers])
        for w in range(1, workers):
            results[w::workers] = receive(w)

    _forked(lambda w: [_run_seeds(scenario, config, seeds[w::workers])], workers, "trial", merge)
    return tuple(results)


def run_protocol(
    scenario: SystemScenario, config: ProtocolConfig, record: bool = True
) -> ProtocolTrace:
    """Simulate one full protocol run from a seeded random starting point.

    Iterates round-robin starting at receiver 0.  At each step the active
    receiver sees feedback bits sampled at the start of the step (before it
    probes), applies one rule from C1-C5, and the loop stops at ``k_max``
    steps or as soon as N consecutive steps were silent (C5).  With
    ``record=False`` ``records`` has no rows and only the terminal fields of
    the trace are populated.
    """
    params = _scenario_params(scenario)
    p_min = params[-1]
    initial = draw_initial_loads(scenario, config.seed)
    x = list(initial)
    p_work = [0.0] * scenario.n
    # One flat typed buffer per column, so that no Python object is kept per
    # step; the records array is built from them once, at the end.
    agent, feedback, probes, case, x_new = (
        array("q"), array("B"), array("d"), array("b"), array("d")
    )

    def on_step(n, p_lo, p_hi, c):
        agent.append(n)
        feedback.extend(map(operator.ge, p_work, p_min))
        probes.extend((p_lo, p_work[n], p_hi))
        case.append(c)
        x_new.append(x[n])

    converged, feasible, _, steps = _trial_engine(
        params, x, p_work, config.dx, config.k_max, on_step if record else None
    )
    records = np.empty(len(agent), _step_dtype(scenario.n))
    records["agent"] = agent
    records["feedback"] = np.reshape(feedback, (-1, scenario.n))
    records["probes"] = np.reshape(probes, (-1, 3))
    records["case"] = case
    records["x_new"] = x_new
    return ProtocolTrace(
        config=config,
        initial=initial,
        records=records,
        iterations=steps,
        converged=converged,
        feasible=feasible,
        final=tuple(x),
        final_report=solve_closed_form(scenario, x),
    )


def summarize(results) -> BatchSummary:
    """Aggregate trial results, in the order given, into a :class:`BatchSummary`.

    The mean transmit power is taken over trials whose final loads meet
    every demand; when no trial does, :class:`NoFeasibleTrialsError` is
    raised carrying the results.
    """
    results = tuple(results)
    feasible_ptx = [res.p_tx for res in results if res.feasible]
    if not feasible_ptx:
        raise NoFeasibleTrialsError(
            f"all {len(results)} trials ended with some demand unmet", results
        )
    return BatchSummary(
        trials=len(results),
        n_feasible=len(feasible_ptx),
        n_infeasible=len(results) - len(feasible_ptx),
        n_converged=sum(1 for res in results if res.converged),
        mean_ptx_feasible=sum(feasible_ptx) / len(feasible_ptx),
        results=results,
    )


def batch_run(
    scenario: SystemScenario, config: ProtocolConfig, trials: int
) -> BatchSummary:
    """:func:`summarize` ``trials`` runs seeded ``seed, seed+1, ...``.

    Each trial's outcome is that of ``run_protocol`` on its seed, without
    recording.  The trials run through :func:`run_trials`, in forked
    workers, one per usable CPU, or serially in-process where it falls
    back; they are summarized in seed order, so the summary is
    bit-identical to one process running them all.
    """
    return summarize(run_trials(scenario, config, trials))


def _cases(p_own, p_min, p_lo, p_hi, others_fed) -> np.ndarray:
    """The rule, C1-C5 as in the module docstring, that each step takes.

    One :class:`Case` value per element of the arrays.  A receiver is below
    its peak when ``p_lo < p_own < p_hi``, above it when ``p_lo > p_own >
    p_hi``, and at it otherwise.  Exact equality ``p_own == p_min`` takes
    C5, as does a hungry receiver at its peak: it cannot improve on its
    own, and the others' C3 moves are its way out.
    """
    below = (p_lo < p_own) & (p_hi > p_own)
    above = (p_lo > p_own) & (p_hi < p_own)
    hungry = p_own < p_min
    fed = (p_own > p_min) & (below | above)
    return np.select(
        [hungry & below, hungry & above, fed & ~others_fed, fed & others_fed],
        [Case.C1, Case.C2, Case.C3, Case.C4],
        Case.C5,
    )


def verify_trace(scenario: SystemScenario, trace: ProtocolTrace) -> list[str]:
    """Replay a recorded trace and report every deviation found.

    Re-derives, at every step: the round-robin agent, the truthful feedback
    bits, the probe powers, the case decision, the clamped update, bounds
    safety, and the single-mutator property; then checks the terminal
    convergence and feasibility flags.  Returns a list of human-readable
    violations (empty for a sound trace), step by step and in that order
    within a step.  All comparisons are exact.

    This replay is the second of the two places where the step is written,
    and the tests tie it to the step engine bit for bit.  Every power is
    recomputed from loads, never read from the trace: the loads before and
    after each step follow the round-robin agents and the recorded
    ``x_new`` values, and the array kernel evaluates them and both probes
    of every step in a few whole-trace calls.  The kernel shares no code
    with the step engine that made the trace; the replayed case comes from
    ``_cases``.  Every check runs on whole columns, and messages are
    formatted only for the steps that fail.  The replay stops after the
    first step whose ``x_new`` is not a positive load, because no later
    step has loads that the kernel can evaluate; initial loads that are
    not all positive are reported and no step is replayed.  The terminal
    checks run in every case.
    """
    violations: list[str] = []
    n_agents = scenario.n
    receivers = scenario.receivers
    p_min = np.array([rec.p_min for rec in receivers])
    dx = trace.config.dx
    recorded = trace.records["x_new"]
    loads = _load_matrix(trace.initial, recorded)
    bad = np.flatnonzero(~(np.isfinite(recorded) & (recorded > 0)))
    stop = int(bad[0]) if bad.size else len(recorded)
    initial = np.asarray(trace.initial, dtype=float)
    if not (np.isfinite(initial) & (initial > 0)).all():
        violations.append(f"initial loads {trace.initial} are not all positive")
        stop = -1  # no step can be replayed
    records = trace.records[: stop + 1]
    rows = np.arange(len(records))
    cols = rows % n_agents
    x_new = records["x_new"]

    before = loads[: len(records)]
    powers = closed_form_arrays(scenario, before)
    fed = powers.p >= p_min
    x_own = before[rows, cols]
    probe = before.copy()
    lo = x_own - dx
    # A lower probe that would not be positive is taken at x_n / 2.
    probe[rows, cols] = np.where(lo > 0.0, lo, 0.5 * x_own)
    p_lo = closed_form_arrays(scenario, probe).p[rows, cols]
    probe[rows, cols] = x_own + dx
    p_hi = closed_form_arrays(scenario, probe).p[rows, cols]
    p_own = powers.p[rows, cols]
    feedback = fed.astype(np.uint8)
    others_fed = feedback.sum(axis=1) - feedback[rows, cols] == n_agents - 1

    case = _cases(p_own, p_min[cols], p_lo, p_hi, others_fed)
    up = np.isin(case, (Case.C1, Case.C3))
    down = np.isin(case, (Case.C2, Case.C4))
    x_min = np.array([rec.x_min for rec in receivers])[cols]
    x_max = np.array([rec.x_max for rec in receivers])[cols]
    x_expected = np.where(
        up,
        np.minimum(x_max, x_own + dx),
        np.where(down, np.maximum(x_min, x_own - dx), x_own),
    )
    delta = np.abs(x_new - x_own)

    bad_agent = records["agent"] != cols
    bad_feedback = (records["feedback"] != feedback).any(axis=1)
    bad_probes = (records["probes"] != np.stack((p_lo, p_own, p_hi), axis=1)).any(axis=1)
    bad_case = records["case"] != case
    bad_x_new = x_new != x_expected
    out_of_bounds = ~((x_min <= x_new) & (x_new <= x_max))
    # Representation slack: x +- dx rounds to within a few ulp of x.
    too_far = (x_new != x_own) & (delta > dx + 32.0 * np.spacing(x_own))

    names = {c.value: c.name for c in Case}
    failed = bad_agent | bad_feedback | bad_probes | bad_case | bad_x_new | out_of_bounds | too_far
    for i in np.flatnonzero(failed).tolist():
        tag = f"step {i + 1}"
        step = records[i]
        if bad_agent[i]:
            violations.append(f"{tag}: agent {step['agent']} breaks round-robin order")
        if bad_feedback[i]:
            recorded = tuple(step["feedback"].tolist())
            violations.append(
                f"{tag}: feedback {recorded} not truthful ({tuple(feedback[i].tolist())})"
            )
        if bad_probes[i]:
            violations.append(f"{tag}: probe powers differ from replay")
        if bad_case[i]:
            recorded = names.get(int(step["case"]), int(step["case"]))
            violations.append(f"{tag}: case {recorded}, replay says {names[case[i]]}")
        if bad_x_new[i]:
            violations.append(
                f"{tag}: x_new {float(x_new[i])} != expected {float(x_expected[i])}"
            )
        if out_of_bounds[i]:
            violations.append(f"{tag}: x_new {float(x_new[i])} violates bounds")
        if too_far[i]:
            violations.append(f"{tag}: move {float(delta[i])} larger than dx")
        if i == stop:
            violations.append(
                f"{tag}: replay stops: x_new {float(x_new[i])} is not a positive load"
            )

    if tuple(loads[-1].tolist()) != trace.final:
        violations.append("final loads differ from replayed loads")
    if trace.converged:
        tail = trace.records["case"][-n_agents:]
        if len(tail) < n_agents or (tail != Case.C5).any():
            violations.append("converged flag set without N trailing C5 steps")
    final = np.asarray(trace.final, dtype=float)
    # Final loads that are not all positive meet no demand.
    valid = bool((np.isfinite(final) & (final > 0)).all())
    feasible = valid and bool((closed_form_arrays(scenario, final).p >= p_min).all())
    if trace.feasible != feasible:
        violations.append(
            f"feasible flag {trace.feasible} does not match replay ({feasible})"
        )
    return violations
