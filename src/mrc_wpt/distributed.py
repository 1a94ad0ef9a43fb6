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

Implementation note: ``_trial_engine`` is the one simulator of the
protocol.  ``batch_run`` runs it bare and ``record_trial`` (behind
``run_protocol`` and ``simulate --trace``) runs it with a step recorder.  Its
power expressions mirror ``circuit.solve_closed_form`` operation for
operation, and so does the array kernel ``circuit.closed_form_arrays``, so
simulated measurements, recorded traces, the scalar replay of
``agent_step`` and the array replay of ``verify_trace`` all agree to the bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .circuit import (
    _BLOCK,
    PowerArrays,
    PowerReport,
    ScenarioError,
    SystemScenario,
    as_loads,
    closed_form_arrays,
    coupling_ohms2,
    solve_closed_form,
)

__all__ = [
    "Case",
    "PeakPosition",
    "ProtocolConfig",
    "StepRecord",
    "ProtocolTrace",
    "TrialResult",
    "BatchSummary",
    "RecordedTrial",
    "NoFeasibleTrialsError",
    "draw_initial_loads",
    "classify_position",
    "decide_case",
    "agent_step",
    "record_trial",
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


class PeakPosition(enum.Enum):
    """Side of its own power peak a receiver's probe pattern indicates."""

    BELOW_PEAK = "below-peak"
    AT_PEAK = "at-peak"
    ABOVE_PEAK = "above-peak"


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
        if not self.dx > 0:
            raise ScenarioError(f"dx must be > 0 (got {self.dx})")
        if not self.k_max >= 1:
            raise ScenarioError(f"k_max must be >= 1 (got {self.k_max})")


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One agent step: what the receiver saw and what it did.

    ``feedback`` is the full N-bit vector sampled at the start of the step
    (the active receiver consumes the other N-1 bits).  ``probes`` holds the
    measured power at ``x_n - dx``, ``x_n``, ``x_n + dx``.  ``report`` is the
    full power report after the update was applied.
    """

    iteration: int
    agent: int
    feedback: tuple[int, ...]
    probes: tuple[float, float, float]
    case: Case
    x_new: float
    report: PowerReport


@dataclass(frozen=True)
class ProtocolTrace:
    """Complete record of one protocol run."""

    config: ProtocolConfig
    initial: tuple[float, ...]
    records: tuple[StepRecord, ...]
    iterations: int
    converged: bool
    feasible: bool
    final: tuple[float, ...]
    final_report: PowerReport


@dataclass(frozen=True)
class TrialResult:
    """Terminal outcome of one batch trial."""

    seed: int
    converged: bool
    feasible: bool
    iterations: int
    p_tx: float
    final: tuple[float, ...]


@dataclass(frozen=True)
class BatchSummary:
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


# --- scalar reference -------------------------------------------------------
#
# One receiver step recomputed from ``solve_closed_form``, independently of the
# step engine further down.  ``agent_step`` and ``classify_position`` are
# built on it; ``verify_trace`` shares its case rules.


def _step_loads(scenario: SystemScenario, loads, n: int, dx: float) -> list[float]:
    """Validated loads as a list, for a step of receiver ``n`` with step ``dx``."""
    xs = list(as_loads(scenario, loads))
    if not 0 <= n < scenario.n:
        raise IndexError(f"receiver index {n} out of range for N={scenario.n}")
    if not dx > 0:
        raise ScenarioError(f"dx must be > 0 (got {dx})")
    return xs


def _probe(
    scenario: SystemScenario, xs: list[float], n: int, dx: float, p_own: float
) -> tuple[float, float, PeakPosition]:
    """Probe powers at ``x_n - dx`` and ``x_n + dx`` and the side they indicate.

    ``xs`` is changed during the probes and restored before returning.  A
    lower probe that would not be positive is taken at ``x_n / 2`` instead.
    """
    x_n = xs[n]
    lo = x_n - dx
    xs[n] = lo if lo > 0.0 else 0.5 * x_n
    p_lo = solve_closed_form(scenario, xs).p[n]
    xs[n] = x_n + dx
    p_hi = solve_closed_form(scenario, xs).p[n]
    xs[n] = x_n
    return p_lo, p_hi, _position(p_lo, p_own, p_hi)


def _position(p_lo: float, p_own: float, p_hi: float) -> PeakPosition:
    """The side of the peak that the three probe powers indicate."""
    if p_hi > p_own and p_lo < p_own:
        return PeakPosition.BELOW_PEAK
    if p_hi < p_own and p_lo > p_own:
        return PeakPosition.ABOVE_PEAK
    return PeakPosition.AT_PEAK


def classify_position(scenario: SystemScenario, loads, n: int, dx: float) -> PeakPosition:
    """Probe-based three-way test of ``x_n`` against the receiver's own peak.

    Probes are simulated measurements at ``x_n - dx`` and ``x_n + dx`` with
    all other loads fixed; they may leave [x_min, x_max] but stay positive.
    AT_PEAK means the peak lies within one ``dx`` of the current load.
    """
    xs = _step_loads(scenario, loads, n, dx)
    return _probe(scenario, xs, n, dx, solve_closed_form(scenario, xs).p[n])[2]


def decide_case(
    p_own: float, p_required: float, position: PeakPosition, others_all_fed: bool
) -> Case:
    """Map one receiver's local view to the update rule it must take.

    Exact equality ``p_own == p_required`` falls through to C5: the rules
    use strict inequalities on both sides.  A hungry receiver already at its
    peak also takes C5 (it cannot improve unilaterally; the others' C3
    responses are the escape mechanism).
    """
    if p_own < p_required:
        if position is PeakPosition.BELOW_PEAK:
            return Case.C1
        if position is PeakPosition.ABOVE_PEAK:
            return Case.C2
        return Case.C5
    if p_own > p_required and position is not PeakPosition.AT_PEAK:
        return Case.C4 if others_all_fed else Case.C3
    return Case.C5


def _apply_case(case: Case, x: float, dx: float, x_min: float, x_max: float) -> float:
    if case in (Case.C1, Case.C3):
        return min(x_max, x + dx)
    if case in (Case.C2, Case.C4):
        return max(x_min, x - dx)
    return x


def agent_step(
    scenario: SystemScenario, loads, n: int, feedback: Sequence[int], dx: float
) -> tuple[float, Case]:
    """One receiver's update given the other receivers' feedback bits.

    ``feedback`` carries the N-1 bits of all receivers other than ``n`` (1
    when that receiver's demand is met).  Returns the updated ``x_n``
    (clamped into bounds) and the rule that produced it.
    """
    xs = _step_loads(scenario, loads, n, dx)
    if len(feedback) != scenario.n - 1:
        raise ScenarioError(
            f"feedback must have {scenario.n - 1} bits (got {len(feedback)})"
        )

    rec = scenario.receivers[n]
    p_own = solve_closed_form(scenario, xs).p[n]
    position = _probe(scenario, xs, n, dx, p_own)[2]
    case = decide_case(p_own, rec.p_min, position, all(bool(b) for b in feedback))
    return _apply_case(case, xs[n], dx, rec.x_min, rec.x_max), case


# --- step engine -----------------------------------------------------------
#
# The only code that simulates the protocol: ``run_trials`` runs it bare and
# ``record_trial`` runs it with a recorder.  It works on plain lists of
# floats, and its arithmetic must stay expression-for-expression identical to
# ``solve_closed_form``; the test suite replays engine-made traces through
# the scalar reference above and asserts bit-equality.


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

    ``params`` comes from ``_scenario_params``.  When given, ``on_step(k, n,
    p_lo, p_hi, case, moved)`` is called after step ``k`` has updated
    ``x[n]``, while ``p_work`` still holds the powers the step started from.
    """
    r_tx, half_v2, wh2, r, x_min, x_max, p_min = params
    n_agents = len(x)
    trailing_c5 = 0
    steps = 0
    converged = False
    while steps < k_max:
        steps += 1
        n = (steps - 1) % n_agents

        r_in = r_tx
        for k in range(n_agents):
            r_in += wh2[k] / (r[k] + x[k])
        rr = r_in * r_in
        for k in range(n_agents):
            d = r[k] + x[k]
            p_work[k] = half_v2 * wh2[k] * x[k] / (d * d) / rr
        p_own = p_work[n]

        others_fed = True
        for m in range(n_agents):
            if m != n and p_work[m] < p_min[m]:
                others_fed = False

        x_n = x[n]
        lo = x_n - dx
        if lo <= 0.0:
            lo = 0.5 * x_n
        hi = x_n + dx

        x[n] = lo
        r_in_p = r_tx
        for k in range(n_agents):
            r_in_p += wh2[k] / (r[k] + x[k])
        d = r[n] + lo
        p_lo = half_v2 * wh2[n] * lo / (d * d) / (r_in_p * r_in_p)

        x[n] = hi
        r_in_p = r_tx
        for k in range(n_agents):
            r_in_p += wh2[k] / (r[k] + x[k])
        d = r[n] + hi
        p_hi = half_v2 * wh2[n] * hi / (d * d) / (r_in_p * r_in_p)
        x[n] = x_n

        if p_hi > p_own and p_lo < p_own:
            pos = 0  # below peak
        elif p_hi < p_own and p_lo > p_own:
            pos = 2  # above peak
        else:
            pos = 1  # at peak

        if p_own < p_min[n]:
            if pos == 0:
                case = 1
            elif pos == 2:
                case = 2
            else:
                case = 5
        elif p_own > p_min[n] and pos != 1:
            case = 4 if others_fed else 3
        else:
            case = 5

        if case == 1 or case == 3:
            x[n] = min(x_max[n], x_n + dx)
        elif case == 2 or case == 4:
            x[n] = max(x_min[n], x_n - dx)

        if on_step is not None:
            on_step(steps, n, p_lo, p_hi, case, x[n] != x_n)

        if case == 5:
            trailing_c5 += 1
            if trailing_c5 >= n_agents:
                converged = True
                break
        else:
            trailing_c5 = 0

    r_in = r_tx
    for k in range(n_agents):
        r_in += wh2[k] / (r[k] + x[k])
    rr = r_in * r_in
    feasible = True
    for k in range(n_agents):
        d = r[k] + x[k]
        p_work[k] = half_v2 * wh2[k] * x[k] / (d * d) / rr
        if p_work[k] < p_min[k]:
            feasible = False
    p_tx = half_v2 / r_in
    return converged, feasible, p_tx, steps


def _load_matrix(initial, agent, x_new) -> np.ndarray:
    """Loads before the first step (row 0) and after each step k (row k).

    Step k sets entry ``agent[k-1]`` to ``x_new[k-1]``; every other entry
    keeps its previous value.
    """
    n = len(initial)
    steps = len(x_new)
    values = np.concatenate((np.asarray(initial, dtype=float), np.asarray(x_new, dtype=float)))
    # Index into ``values`` of each entry's latest setter.  Step indices
    # (n + k - 1) exceed every initial index, so a running maximum down each
    # column carries each entry forward until its receiver moves again.
    src = np.zeros((steps + 1, n), dtype=np.intp)
    src[0] = np.arange(n)
    src[np.arange(1, steps + 1), agent] = np.arange(n, n + steps)
    np.maximum.accumulate(src, axis=0, out=src)
    return values[src]


class RecordedTrial(NamedTuple):
    """One protocol run with every step kept.

    Step k (1-based) is entry k-1 of ``agent``, ``feedback``, ``probes``,
    ``case`` (a :class:`Case` value) and ``x_new``, as the step engine saw
    and decided them.  Row 0 of ``loads`` holds the initial loads and row k
    the loads after step k; ``powers`` is the array kernel, with currents,
    on every row of ``loads``.
    """

    result: TrialResult
    agent: list[int]
    feedback: list[tuple[int, ...]]
    probes: list[tuple[float, float, float]]
    case: list[int]
    x_new: list[float]
    loads: np.ndarray
    powers: PowerArrays


def record_trial(scenario: SystemScenario, config: ProtocolConfig) -> RecordedTrial:
    """Run one trial and keep every step, for traces and trace files.

    The step engine records only what it decides; the post-step loads and
    powers come from one array-kernel call over the whole run.
    """
    params = _scenario_params(scenario)
    p_min = params[-1]
    x = list(draw_initial_loads(scenario, config.seed))
    initial = tuple(x)
    p_work = [0.0] * scenario.n
    agent: list[int] = []
    feedback: list[tuple[int, ...]] = []
    probes: list[tuple[float, float, float]] = []
    case: list[int] = []
    x_new: list[float] = []
    # Steps with the same feedback bits share one tuple.
    bit_vectors: dict[tuple[int, ...], tuple[int, ...]] = {}

    def on_step(k, n, p_lo, p_hi, c, moved):
        agent.append(n)
        bits = tuple([1 if p >= q else 0 for p, q in zip(p_work, p_min)])
        feedback.append(bit_vectors.setdefault(bits, bits))
        probes.append((p_lo, p_work[n], p_hi))
        case.append(c)
        x_new.append(x[n])

    converged, feasible, p_tx, steps = _trial_engine(
        params, x, p_work, config.dx, config.k_max, on_step
    )
    loads = _load_matrix(initial, agent, x_new)
    return RecordedTrial(
        result=TrialResult(config.seed, converged, feasible, steps, p_tx, tuple(x)),
        agent=agent,
        feedback=feedback,
        probes=probes,
        case=case,
        x_new=x_new,
        loads=loads,
        powers=closed_form_arrays(scenario, loads, currents=True),
    )


def _step_records(run: RecordedTrial) -> tuple[StepRecord, ...]:
    """The :class:`StepRecord` of every step; unmoved steps share a report."""
    rows = np.arange(len(run.agent))
    moved = run.loads[1:][rows, run.agent] != run.loads[:-1][rows, run.agent]
    reports = run.powers.reports(np.concatenate(([0], np.flatnonzero(moved) + 1)))
    report = next(reports)
    cases = {c.value: c for c in Case}
    records = []
    for k, (n, fb, probes, c, x_new, step_moved) in enumerate(
        zip(run.agent, run.feedback, run.probes, run.case, run.x_new, moved.tolist()), 1
    ):
        if step_moved:
            report = next(reports)
        records.append(StepRecord(k, n, fb, probes, cases[c], x_new, report))
    return tuple(records)


def run_trials(
    scenario: SystemScenario, config: ProtocolConfig, trials: int
) -> tuple[TrialResult, ...]:
    """Outcomes of ``trials`` runs seeded ``seed, seed+1, ...``, without recording."""
    if trials < 1:
        raise ScenarioError(f"trials must be >= 1 (got {trials})")
    params = _scenario_params(scenario)
    p_work = [0.0] * scenario.n
    results: list[TrialResult] = []
    for seed in range(config.seed, config.seed + trials):
        x = list(draw_initial_loads(scenario, seed))
        converged, feasible, p_tx, steps = _trial_engine(
            params, x, p_work, config.dx, config.k_max
        )
        results.append(TrialResult(seed, converged, feasible, steps, p_tx, tuple(x)))
    return tuple(results)


def run_protocol(
    scenario: SystemScenario, config: ProtocolConfig, record: bool = True
) -> ProtocolTrace:
    """Simulate one full protocol run from a seeded random starting point.

    Iterates round-robin starting at receiver 0.  At each step the active
    receiver sees feedback bits sampled at the start of the step (before it
    probes), applies one rule from C1-C5, and the loop stops at ``k_max``
    steps or as soon as N consecutive steps were silent (C5).  With
    ``record=False`` only the terminal fields of the trace are populated.
    """
    if record:
        run = record_trial(scenario, config)
        result = run.result
        records = _step_records(run)
    else:
        result = run_trials(scenario, config, 1)[0]
        records = ()
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
    """Run ``trials`` independent protocol runs seeded ``seed, seed+1, ...``.

    The mean transmit power is taken over trials whose final loads meet
    every demand; a batch where no trial does raises
    :class:`NoFeasibleTrialsError`, which carries the trial results.  Trial
    outcomes are identical to ``run_protocol`` run per seed, just without
    trace recording.
    """
    return summarize(run_trials(scenario, config, trials))


def verify_trace(scenario: SystemScenario, trace: ProtocolTrace) -> list[str]:
    """Replay a recorded trace and report every deviation found.

    Re-derives, at every step: the truthful feedback bits, the probe
    powers, the case decision, the clamped update, bounds safety, and the
    single-mutator property; then checks the terminal convergence and
    feasibility flags.  Returns a list of human-readable violations (empty
    for a sound trace).  All comparisons are exact.

    Every power is recomputed from loads, never read from the trace: the
    loads before and after each step follow the recorded agents and
    ``x_new`` values, and the array kernel evaluates them and both probes
    of every step in a few whole-trace calls.  The kernel shares no code
    with the step engine that made the trace.
    """
    violations: list[str] = []
    n_agents = scenario.n
    p_min = [rec.p_min for rec in scenario.receivers]
    dx = trace.config.dx
    records = trace.records
    cols = np.array([step.agent for step in records], dtype=np.intp)
    rows = np.arange(len(records))
    loads = _load_matrix(trace.initial, cols, [step.x_new for step in records])

    powers = closed_form_arrays(scenario, loads)
    fed = powers.p >= np.array(p_min)
    before = loads[:-1]
    x_own = before[rows, cols]
    probe = before.copy()
    lo = x_own - dx
    # A lower probe that would not be positive is taken at x_n / 2.
    probe[rows, cols] = np.where(lo > 0.0, lo, 0.5 * x_own)
    p_lo = closed_form_arrays(scenario, probe).p[rows, cols]
    probe[rows, cols] = x_own + dx
    p_hi = closed_form_arrays(scenario, probe).p[rows, cols]
    others_fed = fed[:-1].sum(axis=1) - fed[:-1][rows, cols] == n_agents - 1

    per_step = (
        cols,
        x_own,
        p_lo,
        powers.p[:-1][rows, cols],
        p_hi,
        fed[:-1].astype(int),
        others_fed,
        powers.p[1:],
        powers.p_tx[1:],
    )
    # Steps are compared in blocks, so that the Python objects of only one
    # block exist besides the trace.
    for start in range(0, len(records), _BLOCK):
        block = zip(
            records[start:start + _BLOCK], *(a[start:start + _BLOCK].tolist() for a in per_step)
        )
        for k, (step, n, x_n, p_lo, p_own, p_hi, feedback, all_fed, p_after, ptx_after) in (
            enumerate(block, start + 1)
        ):
            tag = f"step {k}"
            if step.iteration != k:
                violations.append(f"{tag}: iteration index {step.iteration} != {k}")
            if step.agent != (k - 1) % n_agents:
                violations.append(f"{tag}: agent {step.agent} breaks round-robin order")

            feedback = tuple(feedback)
            if step.feedback != feedback:
                violations.append(f"{tag}: feedback {step.feedback} not truthful ({feedback})")
            if step.probes != (p_lo, p_own, p_hi):
                violations.append(f"{tag}: probe powers differ from replay")

            case = decide_case(p_own, p_min[n], _position(p_lo, p_own, p_hi), all_fed)
            if step.case != case:
                violations.append(f"{tag}: case {step.case.name}, replay says {case.name}")

            rec = scenario.receivers[n]
            x_expected = _apply_case(case, x_n, dx, rec.x_min, rec.x_max)
            if step.x_new != x_expected:
                violations.append(f"{tag}: x_new {step.x_new} != expected {x_expected}")
            if not rec.x_min <= step.x_new <= rec.x_max:
                violations.append(f"{tag}: x_new {step.x_new} violates bounds")
            # Representation slack: x +- dx rounds to within a few ulp of x.
            delta = abs(step.x_new - x_n)
            if step.x_new != x_n and delta > dx + 32.0 * math.ulp(abs(x_n)):
                violations.append(f"{tag}: move {delta} larger than dx")

            if step.report.p != tuple(p_after) or step.report.p_tx != ptx_after:
                violations.append(f"{tag}: recorded post-step report differs from replay")

    if tuple(loads[-1].tolist()) != trace.final:
        violations.append("final loads differ from replayed loads")
    if trace.converged:
        tail = trace.records[-n_agents:]
        if len(tail) < n_agents or any(s.case is not Case.C5 for s in tail):
            violations.append("converged flag set without N trailing C5 steps")
    final_report = solve_closed_form(scenario, trace.final)
    feasible = all(final_report.p[m] >= p_min[m] for m in range(n_agents))
    if trace.feasible != feasible:
        violations.append(
            f"feasible flag {trace.feasible} does not match replay ({feasible})"
        )
    return violations
