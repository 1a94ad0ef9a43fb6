"""``mrc-grid``: sweep, optimize, simulate, and verify from the shell.

Every output file starts with one ``#`` comment line carrying the JSON run
manifest (subcommand, scenario, resolved parameters, output paths, tool
version, timestamp); the CSV body below it is byte-reproducible for a given
manifest.  Data goes to the requested output paths, diagnostics to stderr;
a nonzero exit code always means something went wrong (for ``verify``, that
a property failed).  CSV bodies are formatted in numpy arrays, a block of
rows at a time.  ``simulate --trace`` writes its trace a block of whole
rounds at a time, in bounded memory, from ``distributed._recorded_blocks``:
where a second CPU is usable, the traced trial's engine runs in a forked
child that sends each block as one message and records the next while this
process writes it, and otherwise in this process, a block at a time.
Forked workers run its other trials.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import closing
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import sweep
from .centralized import DZ, minimize_ptx
from .circuit import ScenarioError, SystemScenario, closed_form_arrays
from .distributed import (
    Case,
    NoFeasibleTrialsError,
    ProtocolConfig,
    _in_order,
    _recorded_blocks,
    run_protocol,
    summarize,
)
from .scenario_io import load_scenario
from .verify import run_verification

__all__ = ["main"]

# Rows per block of a CSV body, the unit that is formatted at once; it bounds
# the temporary arrays of a long body.
_BLOCK = 8192

# Tables of the double formatter: 10**s for the scale exponents s, then the
# bytes of the 4-digit groups "0000" to "9999", of "  d." for a leading digit
# d and of "e-06" to "e+15", each 4-byte text read as one uint32.
_POW10 = 10.0 ** np.arange(23)
_DIGITS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48)
_DIGITS = _DIGITS.view(np.uint32).ravel()
_LEAD = np.array([b"  %d." % d for d in range(10)]).view(np.uint32)
_EXPONENT = np.array([b"e%+03d" % e for e in range(-6, 16)]).view(np.uint32)


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


def _split(a):
    """Veltkamp's split of ``a`` into two halves of at most 26 bits each."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _format_doubles(x: np.ndarray) -> np.ndarray:
    """``b"%.16e" % v`` for every element ``v`` of ``x``, as an ``S24`` array.

    Every finite ``|v|`` in (1e-6, 1e16) has the decimal exponent ``E`` in
    [-6, 15], so ``10**(16 - E)`` is an exact double and Dekker's exact
    product (Numer. Math. 18, 1971) gives ``|v| * 10**(16 - E) = hi + lo``
    without error.  Its 17 digits are ``N = hi + rint(lo)``, rounded half to
    even as ``%`` rounds, because ``hi`` is an even integer there.  ``E``
    comes from ``log10``.  Where that is off by one (next to a power of
    ten), where ``N`` rounds up to ``10**17``, and for every other value
    (zero, subnormal, inf, nan, out of range) the element is formatted with
    ``%`` instead, so every element is exact.
    """
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    fast = np.flatnonzero((a > 1e-6) & (a < 1e16))
    a = a[fast]
    e = np.clip(np.floor(np.log10(a)).astype(np.intp), -6, 15)
    b = _POW10[16 - e]
    hi = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    exact = ((hi > 1e16) | (hi == 1e16) & (lo >= 0)) & (n < 10**17)
    fast, e, n = fast[exact], e[exact], n[exact]
    lead, n = np.divmod(n, 10**16)
    high, low = np.divmod(n, 10**8)
    words = np.empty((len(fast), 6), np.uint32)
    words[:, 0] = _LEAD[lead]
    words[:, 1:3] = _DIGITS[np.stack(np.divmod(high.astype(np.uint32), np.uint32(10**4)), 1)]
    words[:, 3:5] = _DIGITS[np.stack(np.divmod(low.astype(np.uint32), np.uint32(10**4)), 1)]
    words[:, 5] = _EXPONENT[e + 6]
    text = words.view(np.uint8)[:, 2:]
    out = np.zeros((len(x), 24), np.uint8)
    out[fast, :22] = text
    neg = x[fast] < 0
    out[fast[neg], 0] = ord("-")
    out[fast[neg], 1:23] = text[neg]
    slow = np.flatnonzero(out[:, 0] == 0)
    out = out.view("S24").ravel()
    if slow.size:
        out[slow] = [b"%.16e" % v for v in x[slow].tolist()]
    return out


def _format_counts(v: np.ndarray) -> np.ndarray:
    """Decimal text of the non-negative integers ``v`` in 4-digit groups from
    ``_DIGITS``, leading zeros made zero bytes, which the rows' join drops."""
    v = v.astype(np.uint64)
    words = np.empty((len(v), (len(str(v.max())) + 3) // 4), np.uint32)
    for j in reversed(range(words.shape[1])):
        v, low = np.divmod(v, np.uint64(10**4))
        words[:, j] = _DIGITS[low]
    head = words.view(np.uint8)[:, :-1]
    head[np.logical_and.accumulate(head == ord("0"), axis=1)] = 0
    return words.view(f"S{words.itemsize * words.shape[1]}").ravel()


def _write_csv(path: str, manifest: str, header: list[str], blocks) -> None:
    """Write the ``manifest`` line, the header, then one row per element of
    the equal-length columns of each of ``blocks`` in turn: doubles as
    ``%.16e`` (17 significant digits, which round-trip), integers in decimal
    and bytes as they are.  A scalar is a column of one row.

    No field needs quoting and lines end in CRLF, so the body is what
    ``csv.writer`` writes for the same fields.  Rows are formatted and
    written at most ``_BLOCK`` at a time, each field as a fixed-width byte
    column whose padding is dropped when the block's fields are joined.
    """
    with open(path, "wb") as fh:
        fh.write(f"{manifest}\n{','.join(header)}\r\n".encode())
        for columns in blocks:
            columns = [np.atleast_1d(c) for c in columns]
            for start in range(0, len(columns[0]), _BLOCK):
                parts = []
                for c in columns:
                    c = c[start:start + _BLOCK]
                    if c.dtype.kind == "f":
                        c = _format_doubles(c)
                    elif c.dtype.kind in "iu" and c.min() >= 0:
                        c = _format_counts(c)
                    elif c.dtype.kind != "S":
                        c = c.astype("S20")
                    comma = np.full((len(c), 1), ord(","), np.uint8)
                    parts += [c.view(np.uint8).reshape(len(c), -1), comma]
                lines = np.hstack(parts + [comma])
                lines[:, -2:] = (ord("\r"), ord("\n"))
                fh.write(lines[lines != 0].tobytes())


def _trace_columns(scenario, blocks):
    """The trace's columns for each of ``blocks``, a run's ``records`` with
    its load matrix: ``iter``, agent, feedback bits, case, loads and powers."""
    names = np.array([case.name for case in Case], "S")  # Case values are 1, 2, ...
    done = 0
    for records, loads in blocks:
        loads = loads[1:]  # after each step
        powers = closed_form_arrays(scenario, loads)
        bits = np.ascontiguousarray(records["feedback"] + ord("0")).view(f"S{scenario.n}")
        yield (np.arange(done + 1, done + len(records) + 1), records["agent"] + 1,
               bits.ravel(), names[records["case"] - 1], *loads.T, powers.p_tx, *powers.p.T)
        done += len(records)


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


def _cmd_sweep(args: argparse.Namespace, scenario: SystemScenario) -> int:
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
        args.scenario,
        {
            "receiver": args.receiver,
            "grid": args.grid,
            "fixed": {f"x{k + 1}": v for k, v in sorted(fixed.items())},
        },
        (args.out,),
    )
    header = [f"x_{args.receiver}", "p_tx"] + [f"p_{k + 1}" for k in range(scenario.n)] + ["p_sum"]
    _write_csv(args.out, manifest, header, [(grid, powers.p_tx, *powers.p.T, powers.p_sum)])
    return 0


def _cmd_optimize(args: argparse.Namespace, scenario: SystemScenario) -> int:
    result = minimize_ptx(scenario)
    manifest = _manifest_line("optimize", args.scenario, {"dz": DZ}, (args.out,))
    header = (
        ["status", "z_star", "p_tx"]
        + [f"x_{k + 1}" for k in range(scenario.n)]
        + [f"p_{k + 1}" for k in range(scenario.n)]
    )
    if result.is_optimal:
        row = (b"optimal", result.z_star, result.report.p_tx, *result.loads, *result.report.p)
    else:
        row = (b"infeasible",) + (b"",) * (2 + 2 * scenario.n)
    _write_csv(args.out, manifest, header, [row])
    if not result.is_optimal:
        print(
            f"optimize: no feasible load setting ({result.iterations} candidates examined)",
            file=sys.stderr,
        )
    return 0


def _cmd_simulate(args: argparse.Namespace, scenario: SystemScenario) -> int:
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
    manifest = _manifest_line("simulate", args.scenario, parameters, outputs)

    header = (["iter", "n", "fb_bits", "case"] + [f"x_{k + 1}" for k in range(scenario.n)]
              + ["p_tx"] + [f"p_{k + 1}" for k in range(scenario.n)])

    def trial(k):
        run = replace(config, seed=config.seed + k)
        if k or not args.trace:
            return run_protocol(scenario, run, record=False).result
        outcome = []
        with closing(_recorded_blocks(scenario, run, _BLOCK, outcome)) as blocks:
            _write_csv(args.trace, manifest, header, _trace_columns(scenario, blocks))
        return outcome[0]

    # Trial 0, the traced one, runs in this process, which writes its trace
    # block by block as its engine records it, while forked workers
    # run the others.
    results = list(_in_order(trial, range(args.trials)))

    try:
        summary = summarize(results)
    except NoFeasibleTrialsError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return 1

    _write_csv(
        args.out,
        manifest,
        ["trials", "n_feasible", "n_infeasible", "n_converged", "mean_ptx_feasible"],
        [summary[:5]],
    )
    return 0


def _cmd_verify(args: argparse.Namespace, scenario: SystemScenario) -> int:
    report = run_verification(scenario, trials=args.trials, seed=args.seed)
    payload = report.to_dict()
    payload["scenario"] = args.scenario
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
        return args.func(args, load_scenario(args.scenario))
    except (ScenarioError, OSError) as exc:
        print(f"mrc-grid {args.subcommand}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
