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
protocol.  ``batch_run`` runs it bare and ``run_protocol`` runs it with a
step recorder.  Its power expressions mirror ``circuit.solve_closed_form``
operation for operation, so simulated measurements, recorded traces, and the
scalar replay of ``agent_step``/``verify_trace`` all agree to the bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import (
    PowerReport,
    ScenarioError,
    SystemScenario,
    as_loads,
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
    "NoFeasibleTrialsError",
    "draw_initial_loads",
    "classify_position",
    "decide_case",
    "agent_step",
    "run_protocol",
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
# step engine further down.  ``agent_step``, ``classify_position`` and
# ``verify_trace`` are built on it.


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
    if p_hi > p_own and p_lo < p_own:
        return p_lo, p_hi, PeakPosition.BELOW_PEAK
    if p_hi < p_own and p_lo > p_own:
        return p_lo, p_hi, PeakPosition.ABOVE_PEAK
    return p_lo, p_hi, PeakPosition.AT_PEAK


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
# The only code that simulates the protocol: ``batch_run`` runs it bare and
# ``run_protocol`` runs it with a recorder.  It works on plain lists of
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
    params = _scenario_params(scenario)
    p_min = params[-1]
    initial = draw_initial_loads(scenario, config.seed)
    x = list(initial)
    p_work = [0.0] * scenario.n
    records: list[StepRecord] = []
    report = solve_closed_form(scenario, x)

    def on_step(k, n, p_lo, p_hi, case, moved):
        nonlocal report
        if moved:
            report = solve_closed_form(scenario, x)
        records.append(
            StepRecord(
                iteration=k,
                agent=n,
                feedback=tuple(1 if p >= q else 0 for p, q in zip(p_work, p_min)),
                probes=(p_lo, p_work[n], p_hi),
                case=Case(case),
                x_new=x[n],
                report=report,
            )
        )

    converged, feasible, _, steps = _trial_engine(
        params, x, p_work, config.dx, config.k_max, on_step if record else None
    )
    return ProtocolTrace(
        config=config,
        initial=initial,
        records=tuple(records),
        iterations=steps,
        converged=converged,
        feasible=feasible,
        final=tuple(x),
        final_report=solve_closed_form(scenario, x),
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

    feasible_ptx = [res.p_tx for res in results if res.feasible]
    if not feasible_ptx:
        raise NoFeasibleTrialsError(
            f"all {trials} trials ended with some demand unmet", tuple(results)
        )
    return BatchSummary(
        trials=trials,
        n_feasible=len(feasible_ptx),
        n_infeasible=trials - len(feasible_ptx),
        n_converged=sum(1 for res in results if res.converged),
        mean_ptx_feasible=sum(feasible_ptx) / len(feasible_ptx),
        results=tuple(results),
    )


def verify_trace(scenario: SystemScenario, trace: ProtocolTrace) -> list[str]:
    """Replay a recorded trace and report every deviation found.

    Re-derives, at every step: the truthful feedback bits, the probe
    powers, the case decision, the clamped update, bounds safety, and the
    single-mutator property; then checks the terminal convergence and
    feasibility flags.  Returns a list of human-readable violations (empty
    for a sound trace).  All comparisons are exact: the replay runs the
    scalar reference, whose arithmetic the step engine mirrors.
    """
    violations: list[str] = []
    n_agents = scenario.n
    p_min = [rec.p_min for rec in scenario.receivers]
    dx = trace.config.dx
    xs = list(trace.initial)
    report = solve_closed_form(scenario, xs)

    for idx, step in enumerate(trace.records):
        k = idx + 1
        tag = f"step {k}"
        if step.iteration != k:
            violations.append(f"{tag}: iteration index {step.iteration} != {k}")
        n = (k - 1) % n_agents
        if step.agent != n:
            violations.append(f"{tag}: agent {step.agent} breaks round-robin order")
            n = step.agent  # follow the trace to keep later checks meaningful

        feedback = tuple(1 if report.p[m] >= p_min[m] else 0 for m in range(n_agents))
        if step.feedback != feedback:
            violations.append(f"{tag}: feedback {step.feedback} not truthful ({feedback})")

        x_n = xs[n]
        p_own = report.p[n]
        p_lo, p_hi, position = _probe(scenario, xs, n, dx, p_own)
        if step.probes != (p_lo, p_own, p_hi):
            violations.append(f"{tag}: probe powers differ from replay")

        others_fed = all(feedback[m] == 1 for m in range(n_agents) if m != n)
        case = decide_case(p_own, p_min[n], position, others_fed)
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

        xs[n] = step.x_new
        report = solve_closed_form(scenario, xs)
        if step.report.p != report.p or step.report.p_tx != report.p_tx:
            violations.append(f"{tag}: recorded post-step report differs from replay")

    if tuple(xs) != trace.final:
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
