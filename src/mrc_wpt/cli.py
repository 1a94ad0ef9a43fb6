"""``mrc-grid``: sweep, optimize, simulate, and verify from the shell.

Every output file starts with one ``#`` comment line carrying the JSON run
manifest (subcommand, scenario, resolved parameters, output paths, tool
version, timestamp); the CSV body below it is byte-reproducible for a given
manifest.  Data goes to the requested output paths, diagnostics to stderr;
a nonzero exit code always means something went wrong (for ``verify``, that
a property failed).  Long CSV bodies are formatted on every usable CPU, in
forked workers, and written in order.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import sweep
from .centralized import DZ, minimize_ptx
from .circuit import ScenarioError, closed_form_arrays
from .distributed import (
    Case,
    NoFeasibleTrialsError,
    ProtocolConfig,
    ProtocolTrace,
    TrialResult,
    _forked,
    _load_matrix,
    _workers,
    run_protocol,
    run_trials,
    summarize,
)
from .scenario_io import load_scenario
from .verify import run_verification

__all__ = ["main"]

# Rows per block of a CSV body, the unit that one worker formats at once;
# it bounds the temporary objects of a long body.
_BLOCK = 4096


def _manifest_line(subcommand: str, scenario: str, parameters: dict, outputs) -> str:
    """What produced an output file, as the JSON comment line that opens it."""
    payload = {
        "subcommand": subcommand,
        "scenario": scenario,
        "parameters": parameters,
        "outputs": list(outputs),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    return "# " + json.dumps(payload, sort_keys=True)


def _floats(count: int) -> str:
    """Line format of ``count`` floats, each with 17 significant decimal
    digits, which round-trips doubles exactly."""
    return ",".join(["%.16e"] * count)


def _write_csv(path: str, manifest: str, header: list[str], line: str, rows, count: int) -> None:
    """Write the ``manifest`` line, the header, then ``line % row`` for each
    of the ``count`` rows, where ``rows(a, b)`` gives rows ``a`` to ``b - 1``.

    No field needs quoting and lines end in CRLF, so the body is what
    ``csv.writer`` writes for the same fields.  Formatting the numbers costs
    most, so forked workers, one per usable CPU, format ``_BLOCK``-row
    blocks: worker ``w`` of ``W`` sends blocks ``w, w + W, ...`` as each is
    ready, and this process formats worker 0's share and writes all in order.
    A body of one block is written in-process.
    """
    line += "\r\n"
    blocks = range(-(-count // _BLOCK))
    workers = _workers(len(blocks))

    def block(b):
        return "".join([line % row for row in rows(b * _BLOCK, (b + 1) * _BLOCK)])

    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(manifest + "\n")
        fh.write(",".join(header) + "\r\n")

        def write(receive):
            for b in blocks:
                fh.write(receive(b % workers) if b % workers else block(b))

        _forked(lambda w: map(block, blocks[w::workers]), workers, "CSV", write)


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
        raise ScenarioError(
            f"--grid must be lo:hi:count or lo:hi:count:log (got {spec!r})"
        )
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ScenarioError(f"--grid has non-numeric parts (got {spec!r})") from None
    if not (0 < lo <= hi < np.inf and count >= 1):
        raise ScenarioError(f"--grid needs 0 < lo <= hi and count >= 1 (got {spec!r})")
    if len(parts) == 4:
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _parse_fixed(spec: str | None, n: int, swept: int) -> dict[int, float]:
    """Parse ``x2=7.5,x3=7.5`` into 0-based index -> value."""
    fixed: dict[int, float] = {}
    if not spec:
        return fixed
    for item in spec.split(","):
        key, _, value = item.partition("=")
        key = key.strip()
        if not key.startswith("x") or not value:
            raise ScenarioError(f"--fixed entries must look like x2=7.5 (got {item!r})")
        try:
            idx = int(key[1:]) - 1
        except ValueError:
            raise ScenarioError(f"--fixed entry has no receiver number: {item!r}") from None
        if not 0 <= idx < n:
            raise ScenarioError(f"--fixed receiver x{idx + 1} out of range 1..{n}")
        if idx == swept:
            raise ScenarioError(f"--fixed receiver x{idx + 1} is the swept receiver")
        if idx in fixed:
            raise ScenarioError(f"--fixed names receiver x{idx + 1} twice")
        try:
            load = float(value)
        except ValueError:
            raise ScenarioError(f"--fixed value is not a number: {item!r}") from None
        if not (math.isfinite(load) and load > 0):
            raise ScenarioError(f"--fixed x{idx + 1} must be finite and > 0 (got {load})")
        fixed[idx] = load
    return fixed


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    n_idx = args.receiver - 1
    if not 0 <= n_idx < scenario.n:
        raise ScenarioError(f"--receiver must be in 1..{scenario.n} (got {args.receiver})")
    grid = _parse_grid(args.grid)
    fixed = _parse_fixed(args.fixed, scenario.n, n_idx)

    missing = [k for k in range(scenario.n) if k != n_idx and k not in fixed]
    if missing:
        names = ",".join(f"x{k + 1}" for k in missing)
        raise ScenarioError(f"--fixed must cover every non-swept receiver (missing {names})")

    loads = [0.0] * scenario.n
    loads[n_idx] = float(grid[0])
    for k, v in fixed.items():
        loads[k] = v

    powers = sweep(scenario, loads, n_idx, grid)
    manifest = _manifest_line(
        "sweep",
        str(args.scenario),
        {
            "receiver": args.receiver,
            "grid": args.grid,
            "fixed": {f"x{k + 1}": v for k, v in sorted(fixed.items())},
        },
        (args.out,),
    )
    header = [f"x_{args.receiver}", "p_tx"] + [f"p_{k + 1}" for k in range(scenario.n)] + ["p_sum"]
    table = np.column_stack((grid, powers.p_tx, powers.p, powers.p_sum))
    _write_csv(
        args.out,
        manifest,
        header,
        _floats(scenario.n + 3),
        lambda a, b: map(tuple, table[a:b].tolist()),
        len(table),
    )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    result = minimize_ptx(scenario)
    manifest = _manifest_line("optimize", str(args.scenario), {"dz": DZ}, (args.out,))
    header = (
        ["status", "z_star", "p_tx"]
        + [f"x_{k + 1}" for k in range(scenario.n)]
        + [f"p_{k + 1}" for k in range(scenario.n)]
    )
    if result.is_optimal:
        line = "optimal," + _floats(2 + 2 * scenario.n)
        row = (result.z_star, result.report.p_tx, *result.loads, *result.report.p)
    else:
        line, row = "infeasible" + "," * (2 + 2 * scenario.n), ()
    _write_csv(args.out, manifest, header, line, lambda a, b: [row], 1)
    if not result.is_optimal:
        print(
            f"optimize: no feasible load setting ({result.iterations} candidates examined)",
            file=sys.stderr,
        )
    return 0


def _trace_rows(scenario, trace: ProtocolTrace):
    """``rows(a, b)``: one CSV row per recorded step ``a + 1`` to ``b``, its fields, then
    the loads after it and their powers, which one array-kernel call gives."""
    records = trace.records
    loads = _load_matrix(trace.initial, records["x_new"])[1:]
    powers = closed_form_arrays(scenario, loads)
    numbers = np.hstack((loads, powers.p_tx[:, None], powers.p))
    bits = np.ascontiguousarray(records["feedback"] + ord("0")).view(f"S{scenario.n}")
    names = {case.value: case.name for case in Case}

    def rows(a, b):
        for k, n, fb, case, values in zip(
            range(a + 1, b + 1),
            records["agent"][a:b].tolist(),
            bits[a:b, 0].astype(str).tolist(),
            records["case"][a:b].tolist(),
            numbers[a:b].tolist(),
        ):
            yield (k, n + 1, fb, names[case], *values)

    return rows


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    config = ProtocolConfig(dx=args.dx, k_max=args.kmax, seed=args.seed)
    if args.trials < 1:
        raise ScenarioError(f"trials must be >= 1 (got {args.trials})")
    parameters = {
        "dx": args.dx,
        "kmax": args.kmax,
        "trials": args.trials,
        "seed": args.seed,
    }
    outputs = (args.out,) + ((args.trace,) if args.trace else ())
    manifest = _manifest_line("simulate", str(args.scenario), parameters, outputs)

    results: tuple = ()
    if args.trace:
        # The traced run is trial 1; the untraced trials follow it.
        trace = run_protocol(scenario, config, record=True)
        header = (
            ["iter", "n", "fb_bits", "case"]
            + [f"x_{k + 1}" for k in range(scenario.n)]
            + ["p_tx"]
            + [f"p_{k + 1}" for k in range(scenario.n)]
        )
        line = "%d,%d,%s,%s," + _floats(2 * scenario.n + 1)
        _write_csv(
            args.trace, manifest, header, line, _trace_rows(scenario, trace), len(trace.records)
        )
        results = (
            TrialResult(
                config.seed,
                trace.converged,
                trace.feasible,
                trace.iterations,
                trace.final_report.p_tx,
                trace.final,
            ),
        )
    if args.trials > len(results):
        rest = replace(config, seed=config.seed + len(results))
        results += run_trials(scenario, rest, args.trials - len(results))

    try:
        summary = summarize(results)
    except NoFeasibleTrialsError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return 1

    _write_csv(
        args.out,
        manifest,
        ["trials", "n_feasible", "n_infeasible", "n_converged", "mean_ptx_feasible"],
        "%d,%d,%d,%d,%.16e",
        lambda a, b: [summary[:5]],
        1,
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    report = run_verification(scenario, trials=args.trials, seed=args.seed)
    payload = report.to_dict()
    payload["scenario"] = str(args.scenario)
    payload["trials"] = args.trials
    json.dump(payload, sys.stdout, indent=2)
    print()
    return 0 if report.all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrc-grid",
        description=(
            "Model a one-transmitter multi-receiver resonant power link, "
            "optimize its load resistances, and simulate the receiver-side "
            "adjustment protocol."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sweep", help="power curves along one receiver's load")
    p.add_argument("--scenario", required=True, help="scenario file or bundled name")
    p.add_argument("--receiver", required=True, type=int, help="swept receiver (1-based)")
    p.add_argument("--grid", required=True, help="lo:hi:count[:log]")
    p.add_argument("--fixed", help="other loads, e.g. x2=7.5,x3=7.5")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize", help="minimum transmit power meeting all demands")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("simulate", help="batch of distributed-protocol runs")
    p.add_argument("--scenario", required=True)
    p.add_argument("--dx", type=float, default=1e-3, help="probe/update step")
    p.add_argument("--kmax", type=int, default=100_000, help="max agent steps per run")
    p.add_argument("--trials", type=int, default=1, help="number of seeded runs")
    p.add_argument("--seed", type=int, default=0, help="seed of the first trial")
    p.add_argument("--trace", help="CSV path for the first trial's full trace")
    p.add_argument("--out", required=True, help="summary CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the numerical verification suite")
    p.add_argument("--scenario", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError) as exc:
        print(f"mrc-grid {args.subcommand}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
