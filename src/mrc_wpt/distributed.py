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

Implementation note: the rule C1-C5 is written once, as the table ``RULE``,
and the step around it twice.  ``_run_blocks``, the one simulator, runs a
trial of a scenario and its ``ProtocolConfig`` in one call of a generator
generated and compiled once per receiver count N, and cached (``_engine``):
the step is written once, as the source template ``_STEP`` for receiver
``{n}``, and instantiated for n = 0, ..., N-1 inside one ``while`` loop over
rounds, so the whole state of a trial lives in the generator's local
variables (``x0, t0, q0, p0, ...``), not in lists, and every tail sum,
refresh of the powers and packed frame is written out in index order.  The
generated code grows as N squared (the tail sums and the refreshes); its
lines and compile time (Python 3.11, median of 5, one process on a shared
2-core host):

    N                 1     3     8     16     32      64
    generated lines   88    218   578   1,258  3,002   8,026
    compile time, ms  1.0   2.3   6.7   16     48      135

``_trials`` compiles a batch's engine before it forks, so the workers
inherit it, and each source is registered in ``linecache`` under the name
``<mrc_wpt engine N=...>``, so tracebacks and profilers show its lines.
A bare run yields its result once, and a batch trial takes it as it is; a
recorded run appends one packed frame per step, the step's doubles as
bytes, to a flat buffer, which ``_records`` decodes, and yields a fresh
buffer every ``_REPLAY_ROUNDS`` whole rounds: every recorded run, traced,
returned or replayed, is cut into blocks of that many rounds.
``verify_trace`` is an independent array replay of the same step, with its
own index into ``RULE``, and the tests compare the engine against it.  The
engine's power expressions mirror operation for operation the one body of
the closed form in ``circuit``, which serves both ``solve_closed_form`` and
the array kernel ``closed_form_arrays`` that the replay uses, so simulated
measurements, recorded traces and the replay all agree to the bit.  A step's
probes at ``x_n - dx`` and ``x_n + dx`` compute, in the same operations, the
state that a move to either load leads to, and the move takes it from there;
only a clamped move computes it, and the powers are redone only after a load
changed.  Bare and recorded runs execute every step, so a trial's cost is
its step count, whatever state it reaches.  A recorded run's loads are
rebuilt one way: ``_with_loads`` walks whole-round blocks of its
``records``, carrying one row of loads, for ``verify_trace`` and
``_recorded_blocks``.

Every batch of trials, of ``run_trials`` (and so ``batch_run``) and of
``mrc-grid simulate``, runs through one runner, ``_trials``, which maps
their seeds through ``_in_order``; the trials share no state.  For
``simulate --trace`` it records the first trial through
``_recorded_blocks``, from a child that sends each block as one message,
and hands the blocks to the caller's writer, so the trace is written in
bounded memory.  Both fork through ``_forked``, the one place that forks.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import linecache
import math
import numbers
import os
import pickle
import signal
import struct
import threading
from array import array
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .circuit import (
    PowerReport,
    ScenarioError,
    SystemScenario,
    _check_count,
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
        if isinstance(self.dx, bool) or not isinstance(self.dx, numbers.Real) or not (
                math.isfinite(self.dx) and self.dx > 0):  # a bool is no step size
            raise ScenarioError(f"dx must be finite and > 0 (got {self.dx})")
        _check_count("k_max", self.k_max, 1)
        _check_count("seed", self.seed, 0)


@dataclass(frozen=True, eq=False)
class ProtocolTrace:
    """Complete record of one protocol run.

    ``records`` is a structured array with one row per step; row k-1 holds
    step k: the active receiver ``agent``, the full N-bit ``feedback``
    vector sampled at the start of the step (the active receiver consumes
    the other N-1 bits), the ``probes`` ``p_lo, p_own, p_hi`` measured at
    ``x_n - dx``, ``x_n``, ``x_n + dx``, the ``case`` taken (a :class:`Case`
    value) and the load ``x_new`` it left.  A run without recording has no
    rows.  Because ``records`` is an array, traces compare by identity.  Batch
    trials build no trace: their outcomes are :class:`TrialResult` values,
    with the terminal fields of the trace of the same seed.
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

# Rounds per block of every recorded run: ``run_protocol`` and the trace of
# ``simulate`` record, and ``verify_trace`` replays, this many at a time;
# they bound their arrays.
_REPLAY_ROUNDS = 2048

# C1-C5 as one table: the active receiver's case at its position (below its
# peak 0, above it 2, at it 4) + its own state (row) + 1 if all others are fed.
RULE = (1, 1, 2, 2, 5, 5,  # hungry (0); at its peak it waits for others' C3
        3, 4, 3, 4, 5, 5,  # fed (6)
        5, 5, 5, 5, 5, 5)  # demand met exactly (12)


# The step of receiver {n} of {N}, the {m}th of a round, as ``_engine``
# writes it once per receiver.  Receiver k's load, terms of r_in, power
# and constants are the locals ``x{k}``, ``t{k}``, ``q{k}``, ``p{k}``,
# ``w{k}``, ``r{k}``, ``hw{k}``, ``pm{k}``, ``xl{k}`` and ``xh{k}``;
# ``{tail}`` adds the terms of the receivers after n, and ``{refresh}``
# redoes every power.  ``silent`` counts the consecutive C5 steps and
# ``put`` appends a frame to the block when recording.  As x_min > 0,
# x_n - dx > x_min means that lo is x_n - dx.  A load equal to a probed one
# takes that probe's state (the same bits as computing it); a clamped move
# computes it.
_STEP = """\
        hungry = p{n} < pm{n}
        others_fed = n_hungry - hungry == 0
        lo = x{n} - dx
        if lo <= 0.0:
            lo = 0.5 * x{n}
        hi = x{n} + dx
        d_lo = r{n} + lo
        d_hi = r{n} + hi
        t_lo = w{n} / d_lo
        t_hi = w{n} / d_hi
        r_lo = s + t_lo{tail}
        r_hi = s + t_hi{tail}
        q_lo = hw{n} * lo / (d_lo * d_lo)
        q_hi = hw{n} * hi / (d_hi * d_hi)
        p_lo = q_lo / (r_lo * r_lo)
        p_hi = q_hi / (r_hi * r_hi)
        if p_hi > p{n}:
            pos = 0 if p_lo < p{n} else 4
        elif p_hi < p{n}:
            pos = 2 if p_lo > p{n} else 4
        else:
            pos = 4
        if not hungry:
            pos += 6 if p{n} > pm{n} else 12
        case = RULE[pos + others_fed]
        if case == 5:
            if put is not None:
                put(pack({n}, p_lo, p_hi, case, x{n}, {powers}))
            silent += 1
            if silent >= {N}:
                steps = k_max - left + {m}
                break
        else:
            silent = 0
            if case == 1 or case == 3:
                x_new = hi if hi < xh{n} else xh{n}
            else:
                x_new = lo if x{n} - dx > xl{n} else xl{n}
            if put is not None:
                put(pack({n}, p_lo, p_hi, case, x_new, {powers}))
            if x_new != x{n}:
                if x_new == hi:
                    t{n}, q{n}, r_in = t_hi, q_hi, r_hi
                elif x_new == lo:
                    t{n}, q{n}, r_in = t_lo, q_lo, r_lo
                else:
                    d = r{n} + x_new
                    t{n} = w{n} / d
                    q{n} = hw{n} * x_new / (d * d)
                    r_in = s + t{n}{tail}
                x{n} = x_new
{refresh}
        if left == {m}:
            steps = k_max
            break
"""


@functools.cache
def _engine(n_agents):
    """The step engine for ``n_agents`` receivers, a generator function that
    runs one trial, as ``_run_blocks`` calls it.  Its source, generated with
    ``_STEP`` once per receiver, is registered in ``linecache`` under its
    file name ``<mrc_wpt engine N=...>`` and compiled once per process.

    The whole state of a trial lives in its local variables: per receiver k
    its load ``xk``, ``tk = wh2[k] / (r[k] + xk)``, its share of r_in,
    ``qk``, its power times r_in squared, and its power ``pk``; its
    constants come in as lists.  ``s`` is the active receiver's prefix
    ``r_tx + t0 + ... + t(n-1)``, summed as the round goes.  A probe adds
    its own term to ``s`` and then those of the receivers after it in index
    order: the operations of ``solve_closed_form`` in its order, so every
    probe and power is the same to the bit.  A move to a probed load takes
    that probe's ``t``, ``q`` and r_in; a move clamped to a bound computes
    them again.  The powers and the hungry count are redone only after a
    step that changed a load.  The case is read from ``RULE``.  It yields
    the blocks that ``_run_blocks`` yields, and at the end ``(converged,
    feasible, steps, loads)`` in place of the ``TrialResult``.
    """
    agents = range(n_agents)

    def names(prefix, sep=", "):
        return sep.join(f"{prefix}{k}" for k in agents)

    def refresh(indent):
        hungry = " + ".join(f"(p{k} < pm{k})" for k in agents)
        return "\n".join(f"{indent}{line}" for line in (
            "rr = r_in * r_in", *(f"p{k} = q{k} / rr" for k in agents), f"n_hungry = {hungry}"))

    lines = [
        "def engine(x, rounds, k_max, dx, r_tx, wh2, r, hw, p_min, x_min, x_max,",
        "           RULE=RULE, pack=pack):",
        *(f"    {names(prefix)}, = {values}" for prefix, values in (
            ("x", "x"), ("w", "wh2"), ("r", "r"), ("hw", "hw"), ("pm", "p_min"),
            ("xl", "x_min"), ("xh", "x_max"))),
        *(f"    d = r{k} + x{k}\n    t{k} = w{k} / d\n    q{k} = hw{k} * x{k} / (d * d)"
          for k in agents),
        "    r_in = r_tx + " + names("t", " + "),
        refresh("    "),
        "    frames = array('d')\n    put = None if rounds is None else frames.frombytes",
        # A block ends where ``left`` is ``cut``, which a bare run never reaches.
        f"    size = 0 if rounds is None else rounds * {n_agents}\n    cut = k_max - size",
        "    left = k_max\n    silent = 0\n    while True:\n        s = r_tx",
    ]
    for k in agents:
        if k:
            lines.append(f"        s += t{k - 1}")
        lines.append(_STEP.format(
            n=k, m=k + 1, N=n_agents, tail="".join(f" + t{j}" for j in agents[k + 1:]),
            powers=names("p"), refresh=refresh(" " * 16)).rstrip("\n"))
    lines += [f"        left -= {n_agents}\n        if left == cut:\n"
              "            yield frames, None\n            frames = array('d')\n"
              "            put = frames.frombytes\n            cut -= size",
              f"    yield frames, (silent >= {n_agents}, n_hungry == 0, steps, ({names('x')},))\n"]
    source = "\n".join(lines)
    filename = f"<mrc_wpt engine N={n_agents}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"RULE": RULE, "pack": struct.Struct(f"{5 + n_agents}d").pack, "array": array}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["engine"]


def _run_blocks(scenario, config, rounds):
    """Run the trial of ``config`` on ``scenario`` in one call of the step
    engine ``_engine(N)``, bare when ``rounds`` is None, else recording one
    packed frame per step: the bytes of the ``5 + N`` native doubles ``(n,
    p_lo, p_hi, case, x[n], p0, ..., pN-1)``, the step's receiver, probes
    and case, the load it left and the powers it started from.  Yield
    ``(frames, None)`` after every ``rounds`` whole rounds, the block's
    frames in one ``array("d")`` that is never written again, and at the
    end ``(frames, result)``, the rest of the frames and the run's
    ``TrialResult``.  The run stops after ``config.k_max`` steps, or once N
    consecutive steps took C5, and then it converged."""
    recs = scenario.receivers
    half_v2 = 0.5 * scenario.tx.v_mag * scenario.tx.v_mag
    wh2 = list(coupling_ohms2(scenario))
    blocks = _engine(scenario.n)(
        draw_initial_loads(scenario, config.seed), rounds, config.k_max, config.dx,
        scenario.tx.r_tx, wh2, [rec.r for rec in recs], [half_v2 * w for w in wh2],
        [rec.p_min for rec in recs], [rec.x_min for rec in recs], [rec.x_max for rec in recs])
    for frames, end in blocks:
        if end is not None:  # (converged, feasible, steps, loads)
            *flags, final = end
            end = TrialResult(config.seed, *flags, solve_closed_form(scenario, final).p_tx, final)
        yield frames, end


def _load_matrix(initial, x_new) -> np.ndarray:
    """Loads before the first step (row 0) and after each step k (row k).

    Step k sets entry ``(k - 1) % N``, the protocol's round-robin agent, to
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


def _with_loads(initial, blocks):
    """Yield each of ``blocks``, consecutive whole-round blocks of a run's
    ``records`` from the ``initial`` loads, with its ``_load_matrix``, of
    which only the last row is carried on to the next block."""
    for records in blocks:
        loads = _load_matrix(initial, records["x_new"])
        yield records, loads
        initial = loads[-1]


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _workers(count: int) -> int:
    """Processes, this one included, to compute ``count`` items: as many as
    usable CPUs, at most ``count``, and only this one without ``os.fork`` or
    beside other Python threads (forking a threaded process can deadlock)."""
    forks = hasattr(os, "fork") and threading.active_count() == 1
    return min(count, _usable_cpus()) if forks else 1


@contextlib.contextmanager
def _forked(results, name):
    """Fork a child, the package's one ``os.fork``, that computes the iterable
    ``results`` and sends each through a pipe as ``pickle.dumps((True,
    result))``, or an exception as ``(False, exc)`` (a ``RuntimeError`` of
    its ``repr`` if it does not pickle); give a function that returns its
    next result, raises that exception, or reaps a child that ended first
    and raises ``RuntimeError`` naming ``name``.  The child never returns
    into the caller's stack and is SIGKILLed and reaped at the exit."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if not pid:
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                try:
                    for result in results:
                        pipe.write(pickle.dumps((True, result)))
                        pipe.flush()
                except BaseException as exc:  # raised again in the caller
                    try:
                        data = pickle.dumps((False, exc))
                        pickle.loads(data)
                    except Exception:
                        data = pickle.dumps((False, RuntimeError(repr(exc))))
                    pipe.write(data)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    reaped = []

    def receive():
        try:
            ok, payload = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            reaped.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
            raise RuntimeError(f"{name} {pid} ended without a result "
                               f"(exit status {reaped[0]})") from None
        if not ok:
            raise payload
        return payload

    with open(read_fd, "rb") as pipe:
        try:
            yield receive
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _in_order(fn, items):
    """Yield ``fn(item)`` for each of the sequence ``items``, in order.

    The items are computed by ``_workers(len(items))`` processes: ``_forked``
    child ``w`` of ``W`` computes items ``w, w + W, ...``, and this process
    computes share 0 as it yields.  Every child has been SIGKILLed and
    reaped once the generator finishes, raises or is closed.
    """
    workers = _workers(len(items))
    with contextlib.ExitStack() as children:
        receive = [children.enter_context(_forked(map(fn, items[w::workers]), "trial worker"))
                   for w in range(1, workers)]
        for i, item in enumerate(items):
            w = i % workers
            yield receive[w - 1]() if w else fn(item)


def _recorded_blocks(scenario, config, outcome):
    """Yield ``_with_loads`` of the ``records`` of ``run_protocol(scenario,
    config)``, a block of ``_REPLAY_ROUNDS`` whole rounds at a time, then
    append the run's ``TrialResult`` to the list ``outcome``.

    The blocks come from ``_run_blocks``, in a ``_forked`` child where
    ``_workers(2)`` allows, which sends each block as one message, so that
    a block is decoded here as the engine makes the next; otherwise in this
    process."""
    initial = draw_initial_loads(scenario, config.seed)
    blocks = _run_blocks(scenario, config, _REPLAY_ROUNDS)
    with (_forked(blocks, "traced trial's engine") if _workers(2) > 1
          else contextlib.nullcontext(blocks.__next__)) as receive:
        yield from _with_loads(initial, _decoded(scenario, iter(receive, None), outcome))


def _trials(scenario, config, trials, write=None):
    """The ``TrialResult`` of each of ``trials`` runs of ``config`` seeded
    ``seed, seed+1, ...``, in seed order, mapped through ``_in_order``.

    ``trials`` is checked before anything runs.  A bare trial's result is
    the one ``_run_blocks`` gives, with no frame recorded or decoded.  When
    ``write`` is given, the first trial, which ``_in_order`` runs in this
    process, is recorded instead: ``write`` is called with its
    ``_recorded_blocks``, which are closed, and so any engine child ended,
    when it returns or raises.
    """
    _check_count("trials", trials, 1)
    _engine(scenario.n)  # compiled here, so that forked workers inherit it

    def trial(seed):
        run = replace(config, seed=seed)
        if write is None or seed > config.seed:
            ((_, result),) = _run_blocks(scenario, run, None)
            return result
        outcome = []
        with contextlib.closing(_recorded_blocks(scenario, run, outcome)) as blocks:
            write(blocks)
        return outcome[0]

    return tuple(_in_order(trial, range(config.seed, config.seed + trials)))


def run_trials(
    scenario: SystemScenario, config: ProtocolConfig, trials: int
) -> tuple[TrialResult, ...]:
    """Outcomes of ``trials`` runs seeded ``seed, seed+1, ...``, without recording.

    Each outcome has the terminal fields of ``run_protocol`` on its seed.
    The trials run through ``_trials``, in forked workers where it forks;
    the results are in seed order and bit-identical to one process running
    them all, a worker's exception or death is raised here, and every
    worker has ended when this returns or raises.
    """
    return _trials(scenario, config, trials)


def run_protocol(
    scenario: SystemScenario, config: ProtocolConfig, record: bool = True
) -> ProtocolTrace:
    """Simulate one full protocol run from the initial loads drawn for
    ``config.seed``: ``_run_blocks`` on ``scenario`` and ``config``.

    Iterates round-robin starting at receiver 0.  At each step the active
    receiver sees feedback bits sampled at the start of the step (before it
    probes), applies one rule from C1-C5, and the loop stops at ``k_max``
    steps or as soon as N consecutive steps were silent (C5).  With
    ``record=False`` ``records`` has no rows and only the terminal fields of
    the trace are populated.  A recorded run's frames are decoded
    ``_REPLAY_ROUNDS`` rounds at a time, so that one block of them is held.
    """
    outcome = []
    blocks = _run_blocks(scenario, config, _REPLAY_ROUNDS if record else None)
    records = np.concatenate(list(_decoded(scenario, blocks, outcome)))
    (result,) = outcome
    return ProtocolTrace(
        config=config,
        initial=draw_initial_loads(scenario, config.seed),
        records=records,
        iterations=result.iterations,
        converged=result.converged,
        feasible=result.feasible,
        final=result.final,
        final_report=solve_closed_form(scenario, result.final),
    )


def _decoded(scenario, blocks, outcome):
    """Yield the ``_records`` of the frames of each of ``blocks``, items of
    ``_run_blocks``, up to the one with the run's result, which is appended
    to the list ``outcome``."""
    for frames, result in blocks:
        yield _records(scenario, frames)
        if result is not None:
            outcome.append(result)
            return


def _records(scenario, frames) -> np.ndarray:
    """The ``records`` of the steps whose packed frames are the buffer ``frames``."""
    width = 5 + scenario.n  # doubles per frame
    table = np.frombuffer(frames, np.float64).reshape(-1, width)
    agent = table[:, 0].astype(np.intp)
    powers = table[:, 5:]
    fields = [("agent", np.intp), ("feedback", np.uint8, (scenario.n,)),
              ("probes", np.float64, (3,)), ("case", np.int8), ("x_new", np.float64)]
    records = np.empty(len(table), fields)
    records["agent"] = agent
    records["feedback"] = powers >= np.array([rec.p_min for rec in scenario.receivers])
    records["probes"] = np.stack(
        (table[:, 1], powers[np.arange(len(table)), agent], table[:, 2]), axis=1
    )
    records["case"] = table[:, 3]
    records["x_new"] = table[:, 4]
    return records


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
    """:func:`summarize` the :func:`run_trials` of ``trials`` runs seeded
    ``seed, seed+1, ...``.

    Each trial's outcome has the terminal fields of ``run_protocol`` on its
    seed, since ``run_trials`` runs it.  The trials are summarized in
    seed order, so the summary is bit-identical to one process running them
    all.
    """
    return summarize(run_trials(scenario, config, trials))


def _cases(p_own, p_min, p_lo, p_hi, others_fed) -> np.ndarray:
    """The rule, C1-C5 as in the module docstring, that each step takes:
    one :class:`Case` value per element of the arrays, read from ``RULE`` at
    the engine's index, computed here on whole columns.
    """
    below = (p_lo < p_own) & (p_hi > p_own)
    above = (p_lo > p_own) & (p_hi < p_own)
    pos = np.where(below, 0, np.where(above, 2, 4))
    state = np.where(p_own < p_min, 0, np.where(p_own > p_min, 6, 12))
    return np.asarray(RULE)[pos + state + others_fed]


def verify_trace(scenario: SystemScenario, trace: ProtocolTrace) -> list[str]:
    """Replay a recorded trace and report every deviation found.

    Checks that the initial loads are the draw of the config's seed, then
    re-derives, at every step: the round-robin agent, the truthful feedback
    bits, the probe powers, the case decision, the clamped update, bounds
    safety, and the single-mutator property; then checks the terminal
    loads, the step count, the stop rule (a run ends at its first N
    consecutive C5 steps, flagged converged, or else after ``k_max`` steps),
    the final report (exactly the closed form at the replayed final loads,
    where those are all positive) and the feasibility flag.  Returns a list
    of human-readable violations (empty for a sound trace), step by step and
    in that order within a step.  All comparisons are exact.

    This replay is the second of the two places where the step is written,
    and the tests tie it to the step engine bit for bit.  Every power is
    recomputed from loads, never read from the trace: the loads before and
    after each step follow the round-robin agents and the recorded
    ``x_new`` values, walked ``_REPLAY_ROUNDS`` rounds at a time by
    ``_with_loads``, and the array kernel evaluates a block's loads and both
    probes of its steps in three calls.  The kernel shares no code with the
    step engine that made the trace, and the replayed case comes from
    ``_cases``, which shares only ``RULE``.  Every check runs on a block's
    columns, as one (failing steps, message) entry of a table, and messages
    are formatted only for the steps that fail.  The replay stops after the
    first step whose ``x_new`` is not a positive load, because no later
    step has loads that the kernel can evaluate; initial loads that are not
    all positive are reported and no step is replayed.  The terminal checks
    run in every case; the stop rule's count of trailing C5 steps is carried
    from block to block, as the engine keeps it across its blocks.
    """
    violations: list[str] = []
    n_agents = scenario.n
    receivers = scenario.receivers
    p_min = np.array([rec.p_min for rec in receivers])
    x_min = np.array([rec.x_min for rec in receivers])
    x_max = np.array([rec.x_max for rec in receivers])
    dx = trace.config.dx
    initial = np.asarray(trace.initial, dtype=float)
    replaying = bool((np.isfinite(initial) & (initial > 0)).all())
    if not replaying:  # no step can be replayed
        violations.append(f"initial loads {trace.initial} are not all positive")
    elif trace.initial != draw_initial_loads(scenario, trace.config.seed):
        seed = trace.config.seed
        violations.append(f"initial loads {trace.initial} are not the draw of seed {seed}")
    names = {c.value: c.name for c in Case}
    starts = range(0, len(trace.records), _REPLAY_ROUNDS * n_agents)
    blocks = _with_loads(trace.initial, (trace.records[k:k + starts.step] for k in starts))
    loads = initial[np.newaxis]  # the loads of a trace without steps
    trailing_c5 = 0  # the C5 steps that end the blocks before
    ends = []  # the 1-based steps at which runs of N consecutive C5 steps end
    for start, (records, loads) in zip(starts, blocks):
        # Runs of C5 steps lie between the other steps; the first continues
        # the trailing C5 steps of the blocks before.
        others = np.flatnonzero(records["case"] != Case.C5)
        bounds = np.concatenate(([-1 - trailing_c5], others, [len(records)]))
        ends += (start + bounds[:-1][np.diff(bounds) > n_agents] + n_agents + 1).tolist()
        trailing_c5 = len(records) - 1 - int(bounds[-2])
        if not replaying:
            continue
        positive = np.isfinite(records["x_new"]) & (records["x_new"] > 0)
        stop = len(records) if positive.all() else int(positive.argmin())
        replaying = stop == len(records)
        records = records[: stop + 1]
        rows = np.arange(len(records))
        cols = rows % n_agents  # every block starts a round
        x_new = records["x_new"]

        before = loads[: len(records)]
        powers = closed_form_arrays(scenario, before)
        x_own = before[rows, cols]
        probe = before.copy()
        lo = x_own - dx
        # A lower probe that would not be positive is taken at x_n / 2.
        probe[rows, cols] = np.where(lo > 0.0, lo, 0.5 * x_own)
        p_lo = closed_form_arrays(scenario, probe).p[rows, cols]
        probe[rows, cols] = x_own + dx
        p_hi = closed_form_arrays(scenario, probe).p[rows, cols]
        p_own = powers.p[rows, cols]
        feedback = (powers.p >= p_min).astype(np.uint8)
        others_fed = feedback.sum(axis=1) - feedback[rows, cols] == n_agents - 1

        case = _cases(p_own, p_min[cols], p_lo, p_hi, others_fed)
        up = np.isin(case, (Case.C1, Case.C3))
        down = np.isin(case, (Case.C2, Case.C4))
        x_expected = np.where(
            up,
            np.minimum(x_max[cols], x_own + dx),
            np.where(down, np.maximum(x_min[cols], x_own - dx), x_own),
        )
        delta = np.abs(x_new - x_own)

        # Each check: the steps that fail it, and its message for step i.
        checks = (
            (records["agent"] != cols,
             lambda i: f"agent {records['agent'][i]} breaks round-robin order"),
            ((records["feedback"] != feedback).any(axis=1),
             lambda i: f"feedback {tuple(records['feedback'][i].tolist())} not truthful "
                       f"({tuple(feedback[i].tolist())})"),
            ((records["probes"] != np.stack((p_lo, p_own, p_hi), axis=1)).any(axis=1),
             lambda i: "probe powers differ from replay"),
            (records["case"] != case,
             lambda i: f"case {names.get(c := int(records['case'][i]), c)}, "
                       f"replay says {names[case[i]]}"),
            (x_new != x_expected,
             lambda i: f"x_new {float(x_new[i])} != expected {float(x_expected[i])}"),
            (~((x_min[cols] <= x_new) & (x_new <= x_max[cols])),
             lambda i: f"x_new {float(x_new[i])} violates bounds"),
            # Representation slack: x +- dx rounds to within a few ulp of x.
            ((x_new != x_own) & (delta > dx + 32.0 * np.spacing(x_own)),
             lambda i: f"move {float(delta[i])} larger than dx"),
            (rows == stop,
             lambda i: f"replay stops: x_new {float(x_new[i])} is not a positive load"),
        )
        failed = np.logical_or.reduce([bad for bad, _ in checks])
        for i in np.flatnonzero(failed).tolist():
            violations += [f"step {start + i + 1}: {say(i)}" for bad, say in checks if bad[i]]

    last = loads[-1]
    if tuple(last.tolist()) != trace.final:
        violations.append("final loads differ from replayed loads")
    steps = len(trace.records)
    if trace.iterations != steps:
        violations.append(f"iterations {trace.iterations} != {steps} recorded steps")
    if ends and ends[0] < steps:
        violations.append(
            f"step {ends[0]}: N consecutive C5 steps end the run, "
            f"but the trace goes on to step {steps}"
        )
    elif trace.converged and not ends:
        violations.append("converged flag set without N trailing C5 steps")
    elif not trace.converged and ends:
        violations.append("N trailing C5 steps without the converged flag")
    elif not trace.converged and steps != trace.config.k_max:
        violations.append(f"{steps} steps without converging, k_max is {trace.config.k_max}")
    if (np.isfinite(last) & (last > 0)).all():
        fields = zip(PowerReport._fields, trace.final_report, closed_form_arrays(scenario, last))
        differ = ", ".join(name for name, a, b in fields if not np.array_equal(a, b))
        if differ:
            violations.append(f"final report ({differ}) differs from replayed loads")
    final = np.asarray(trace.final, dtype=float)
    # Final loads that are not all positive meet no demand.
    valid = bool((np.isfinite(final) & (final > 0)).all())
    feasible = valid and bool((closed_form_arrays(scenario, final).p >= p_min).all())
    if trace.feasible != feasible:
        violations.append(
            f"feasible flag {trace.feasible} does not match replay ({feasible})"
        )
    return violations
