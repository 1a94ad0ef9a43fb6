"""``mrc-grid``: sweep, optimize, simulate, and verify from the shell.

Every output file starts with one ``#`` comment line carrying the JSON run
manifest (subcommand, scenario, resolved parameters, output paths, tool
version, timestamp); the CSV body below it is byte-reproducible for a given
manifest.  Data goes to the requested output paths, diagnostics to stderr;
a nonzero exit code always means something went wrong (for ``verify``, that
a property failed).  CSV bodies are formatted in numpy arrays, a block of
rows at a time, into one table of fixed-width fields; only a block with a
field whose values differ in width has its padding dropped.  ``simulate``
runs its trials through ``distributed._trials``, the runner of
``run_trials``; with ``--trace`` it gives that runner a writer for the first
trial's blocks of whole rounds, which this process formats and writes, in
bounded memory, as they are recorded.  Which process runs each trial, and
the traced trial's engine, is decided there.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
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
    _trials,
    summarize,
)
from .scenario_io import load_scenario
from .verify import run_verification

__all__ = ["main"]

# Rows per block of a CSV body, the unit that is formatted at once; it bounds
# the temporary arrays of a long body.
_BLOCK = 8192

# Tables of the double formatter: 10**s for the scale exponents s, then the
# bytes of the 4-digit groups "0000" to "9999", of the lead word "\0\0d." of
# a positive and "\0-d." of a negative leading digit d (in that order) and of
# "e-06" to "e+15", each 4-byte text read as one uint32.
_POW10 = 10.0 ** np.arange(23)
_DIGITS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48)
_DIGITS = _DIGITS.view(np.uint32).ravel()
_LEAD = np.array([b"\0%s%d." % (sign, d) for sign in (b"\0", b"-") for d in range(10)])
_LEAD = _LEAD.view(np.uint32)
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


def _format_doubles(x: np.ndarray) -> tuple[np.ndarray, bool]:
    """``b"%.16e" % v`` for every element ``v`` of ``x``, right-aligned in
    rows of 24 bytes after zero bytes, and whether the column is padded.

    Every finite ``|v|`` in (1e-6, 1e16) has the decimal exponent ``E`` in
    [-6, 15], so ``10**(16 - E)`` is an exact double and Dekker's exact
    product (Numer. Math. 18, 1971) gives ``|v| * 10**(16 - E) = hi + lo``
    without error.  Its 17 digits are ``N = hi + rint(lo)``, rounded half to
    even as ``%`` rounds, because ``hi`` is an even integer there.  ``E``
    comes from ``log10``.  Each row is built in place as six words: the lead
    word of its sign and leading digit, four 4-digit groups and the
    exponent.  Where ``E`` is off by one (next to a power of ten), where
    ``N`` rounds up to ``10**17``, and for every other value (zero,
    subnormal, inf, nan, out of range) the row is formatted with ``%``
    instead, so every row is exact.

    Only a column of positive values in (1e-6, 1e16), whose texts all have
    22 bytes, is not padded: it is returned as its rows' last 22 bytes.
    """
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e16)
    neg = x < 0
    # The text of every positive value in that range has 22 bytes.
    padded = bool(neg.any()) or not fast.all()
    a = np.where(fast, a, 1.0)  # a row that is not fast is formatted by % below
    e = np.clip(np.floor(np.log10(a)).astype(np.intp), -6, 15)
    b = _POW10[16 - e]
    hi = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    fast &= ((hi > 1e16) | (hi == 1e16) & (lo >= 0)) & (n < 10**17)
    lead = n // 10**16
    n -= lead * 10**16
    high = n // 10**8
    words = np.empty((len(x), 6), np.uint32)
    # A row that is not fast may have 10 or more as its leading digit, and
    # "clip" then takes some word that is replaced below.
    np.take(_LEAD, lead + 10 * neg, out=words[:, 0], mode="clip")
    for j, half in enumerate((high, n - high * 10**8)):
        half = half.astype(np.uint32)
        top = half // np.uint32(10**4)
        np.take(_DIGITS, top, out=words[:, 1 + 2 * j], mode="clip")
        np.take(_DIGITS, half - top * np.uint32(10**4), out=words[:, 2 + 2 * j], mode="clip")
    np.take(_EXPONENT, e + 6, out=words[:, 5], mode="clip")
    text = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text[slow] = np.array([(b"%.16e" % v).rjust(24, b"\0") for v in x[slow].tolist()],
                              "S24").view(np.uint8).reshape(-1, 24)
    return (text, True) if padded else (text[:, 2:], False)


def _format_counts(v: np.ndarray) -> tuple[np.ndarray, bool]:
    """Decimal text of the non-negative integers ``v``, right-aligned in
    rows as wide as the longest, in 4-digit groups from ``_DIGITS``; and
    whether any text is shorter, its leading zeros then made zero bytes."""
    v = v.astype(np.uint64)
    shortest, longest = len(str(v.min())), len(str(v.max()))
    words = np.empty((len(v), (longest + 3) // 4), np.uint32)
    for j in reversed(range(words.shape[1])):
        top = v // np.uint64(10**4)
        np.take(_DIGITS, v - top * np.uint64(10**4), out=words[:, j], mode="clip")
        v = top
    text = words.view(np.uint8)
    if shortest < longest:
        head = text[:, :-1]
        head[np.logical_and.accumulate(head == ord("0"), axis=1)] = 0
    return text[:, -longest:], shortest < longest


def _drop_padding(lines: np.ndarray) -> np.ndarray:
    """The bytes of the rows ``lines`` without the zero bytes that pad their
    shorter fields."""
    return lines[lines != 0]


def _write_csv(path: str, manifest: str, header: list[str], blocks) -> None:
    """Write the ``manifest`` line, the header, then one row per element of
    the equal-length columns of each of ``blocks`` in turn: doubles as
    ``%.16e`` (17 significant digits, which round-trip), integers in decimal
    and bytes as they are.  A scalar is a column of one row.

    No field needs quoting and lines end in CRLF, so the body is what
    ``csv.writer`` writes for the same fields.  Rows are formatted and
    written at most ``_BLOCK`` at a time, each field as a byte column as wide
    as its longest value, copied into one table of rows with the commas and
    line ends.  A field whose values all have that width has no padding:
    positive doubles in (1e-6, 1e16), counts whose smallest and largest have
    the same number of digits, bytes with no zero byte.  Any other field pads
    its shorter values with zero bytes, and only a block with such a field
    has its zero bytes dropped.
    """
    with open(path, "wb") as fh:
        fh.write(f"{manifest}\n{','.join(header)}\r\n".encode())
        for columns in blocks:
            columns = [np.atleast_1d(c) for c in columns]
            for start in range(0, len(columns[0]), _BLOCK):
                fields, padded = [], False
                for c in columns:
                    c = c[start:start + _BLOCK]
                    if c.dtype.kind == "f":
                        text, pads = _format_doubles(c)
                    elif c.dtype.kind in "iu" and c.min() >= 0:
                        text, pads = _format_counts(c)
                    else:
                        text = (c if c.dtype.kind == "S" else c.astype("S20")).view(np.uint8)
                        text = text.reshape(len(c), -1)
                        pads = not text.all()
                    fields.append(text)
                    padded |= pads
                lines = np.full((len(text), sum(t.shape[1] + 1 for t in fields) + 1),
                                ord(","), np.uint8)
                at = 0
                for text in fields:
                    lines[:, at:at + text.shape[1]] = text
                    at += text.shape[1] + 1
                lines[:, -2:] = (ord("\r"), ord("\n"))
                fh.write(_drop_padding(lines) if padded else lines)


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

    def write(blocks):
        _write_csv(args.trace, manifest, header, _trace_columns(scenario, blocks))

    results = _trials(scenario, config, args.trials, write if args.trace else None)

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
