"""Steady-state mesh analysis of a one-transmitter, N-receiver resonant
inductive power link.

Every coil is series-compensated so that its natural frequency equals the
source's angular frequency ``w`` (``c = 1 / (l * w**2)``); at resonance the
reactive terms cancel and the mesh equations contain only coil resistances,
load resistances, and the transmitter-receiver mutual inductances.  With the
voltage vector ``v = [v_tx, 0, ..., 0]`` the branch currents solve
``A @ i = v`` where the impedance matrix is

    A = [[ r_tx,      -j*w*h_1,  ...,  -j*w*h_N ],
         [ -j*w*h_1,  r_1+x_1,              0   ],
         [   ...,         0,     ...,      0   ],
         [ -j*w*h_N,      0,     ...,  r_N+x_N ]]

Receiver-receiver coupling is structurally zero: receiver coils are small
and mutually distant compared with the transmitter coil, so only the
transmitter row/column carries off-diagonal terms.

Eliminating the receiver rows gives the closed forms used throughout this
package.  With ``r_in = r_tx + sum_k (w*h_k)**2 / (r_k + x_k)`` (the
effective input resistance seen by the source):

    i    = v_tx / r_in * [1, j*w*h_1/(r_1+x_1), ..., j*w*h_N/(r_N+x_N)]
    p_tx = |v_tx|**2 / (2 * r_in)
    p_n  = |v_tx|**2 / 2 * (w*h_n)**2 * x_n / (r_n + x_n)**2 / r_in**2

One body evaluates these in plain arithmetic, receivers in index order:
``solve_closed_form`` for one load vector, ``closed_form_arrays`` for a
stack of them.  The currents are ``v_tx`` times the first column of
``A^-1``, which ``admittance_first_column`` writes out.  ``solve_oracle``
answers the same question by a dense complex solve of ``A @ i = v``, as an
independent cross-check.  Each public function wraps a column function
(``_columns``), which ``verify`` runs on stacks of systems of one N.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "ScenarioError",
    "TransmitterSpec",
    "ReceiverSpec",
    "SystemScenario",
    "LoadVector",
    "PowerReport",
    "build_impedance_matrix",
    "det_impedance",
    "solve_closed_form",
    "closed_form_arrays",
    "solve_oracle",
    "admittance_first_column",
]


class ScenarioError(ValueError):
    """A scenario, load vector, or derived quantity violates a model invariant."""


@dataclass(frozen=True)
class TransmitterSpec:
    """Driven coil: source voltage (magnitude/phase), coil resistance, self-inductance.

    The series compensation capacitance is implied by the operating
    frequency (``c = 1 / (l_tx * w**2)``) and is not stored here.
    """

    v_mag: float
    r_tx: float
    l_tx: float
    v_phase: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v_mag) and self.v_mag > 0):
            raise ScenarioError(f"v_mag must be > 0 (got {self.v_mag})")
        if not (math.isfinite(self.r_tx) and self.r_tx > 0):
            raise ScenarioError(f"r_tx must be > 0 (got {self.r_tx})")
        if not (math.isfinite(self.l_tx) and self.l_tx > 0):
            raise ScenarioError(f"l_tx must be > 0 (got {self.l_tx})")
        if not math.isfinite(self.v_phase):
            raise ScenarioError(f"v_phase must be finite (got {self.v_phase})")

    @property
    def v_tx(self) -> complex:
        """Complex source voltage phasor."""
        return cmath.rect(self.v_mag, self.v_phase)


@dataclass(frozen=True)
class ReceiverSpec:
    """One receiver: coil parameters, transmitter coupling, load limits and demand.

    ``h`` is the mutual inductance with the transmitter coil.  ``h == 0`` is
    accepted so that fully decoupled receivers can be expressed; physical
    scenarios have ``h > 0``.
    """

    r: float
    l: float
    h: float
    x_min: float
    x_max: float
    p_min: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and self.r > 0):
            raise ScenarioError(f"r must be > 0 (got {self.r})")
        if not (math.isfinite(self.l) and self.l > 0):
            raise ScenarioError(f"l must be > 0 (got {self.l})")
        if not (math.isfinite(self.h) and self.h >= 0):
            raise ScenarioError(f"h must be >= 0 (got {self.h})")
        if not (math.isfinite(self.x_min) and self.x_min > 0):
            raise ScenarioError(f"x_min must be > 0 (got {self.x_min})")
        if not (math.isfinite(self.x_max) and self.x_max >= self.x_min):
            raise ScenarioError(
                f"x_max must be >= x_min (got x_max={self.x_max}, x_min={self.x_min})"
            )
        if not (math.isfinite(self.p_min) and self.p_min > 0):
            raise ScenarioError(f"p_min must be > 0 (got {self.p_min})")


@dataclass(frozen=True)
class SystemScenario:
    """Full electrical description of the link.

    ``w`` is the shared resonant angular frequency in rad/s; all series
    capacitances are implied by it.  Mutual inductances must satisfy
    ``h_n <= sqrt(l_n * l_tx)`` (passivity of the coupled pair).
    """

    w: float
    tx: TransmitterSpec
    receivers: tuple[ReceiverSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "receivers", tuple(self.receivers))
        if not (math.isfinite(self.w) and self.w > 0):
            raise ScenarioError(f"w must be > 0 (got {self.w})")
        if not self.receivers:
            raise ScenarioError("at least one receiver is required")
        for k, rec in enumerate(self.receivers):
            bound = math.sqrt(rec.l * self.tx.l_tx)
            if not rec.h <= bound * (1.0 + 1e-12):
                raise ScenarioError(
                    f"receivers[{k}].h exceeds sqrt(l*l_tx) (h={rec.h}, bound={bound})"
                )

    @property
    def n(self) -> int:
        """Number of receivers."""
        return len(self.receivers)


def _check_count(name: str, value, least: int) -> None:
    """Reject a count or seed ``value`` that is not an integer >= ``least``;
    a ``bool`` is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ScenarioError(f"{name} must be an integer >= {least} (got {value})")


def _check_positive(xs: tuple[float, ...]) -> None:
    """Reject the first load that is not positive and finite."""
    for k, v in enumerate(xs):
        if not (math.isfinite(v) and v > 0):
            raise ScenarioError(f"x[{k}] must be > 0 (got {v})")


@dataclass(frozen=True)
class LoadVector:
    """Ordered load resistances, one per receiver.  All entries must be > 0."""

    x: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        _check_positive(self.x)

    def __len__(self) -> int:
        return len(self.x)

    def __iter__(self):
        return iter(self.x)

    def __getitem__(self, k: int) -> float:
        return self.x[k]


class PowerReport(NamedTuple):
    """Input resistance and powers of the closed form.

    ``solve_closed_form`` fills it with floats for one load vector (``p`` a
    tuple); ``closed_form_arrays`` fills it with arrays for a stack of load
    vectors of shape ``(..., N)``: ``r_in``, ``p_tx`` and ``p_sum`` have the
    stack shape ``(...)`` and ``p`` has the loads' shape.  For any valid
    scenario ``p_sum == sum(p)`` and ``p_sum < p_tx``.  These are verified
    by the test suite rather than asserted here, so that decoupled
    (``h = 0``) limits remain representable.
    """

    r_in: float
    p: tuple[float, ...]
    p_tx: float
    p_sum: float


def as_loads(
    scenario: SystemScenario, loads: "LoadVector | Sequence[float] | Iterable[float]"
) -> tuple[float, ...]:
    """Normalize ``loads`` to a tuple of floats sized to the scenario.

    Entries must be positive and finite; scenario bounds are deliberately not
    enforced here because probe and sweep evaluations are allowed to step
    outside [x_min, x_max].
    """
    xs = tuple(float(v) for v in loads)
    if len(xs) != scenario.n:
        raise ScenarioError(
            f"load vector has {len(xs)} entries, scenario has {scenario.n} receivers"
        )
    _check_positive(xs)
    return xs


def coupling_ohms2(scenario: SystemScenario) -> tuple[float, ...]:
    """Per-receiver coupling strengths ``(w*h_n)**2`` in ohm^2."""
    w = scenario.w
    return tuple([(w * rec.h) * (w * rec.h) for rec in scenario.receivers])


def _columns(scenario: SystemScenario):
    """``r_tx, w, h, r`` of ``scenario``.  The column functions below take these
    and the loads ``x`` (``h``, ``r`` and ``x`` one entry per receiver), each a
    float or an array of one shape ``S``, for a stack of systems of one N."""
    recs = scenario.receivers
    return scenario.tx.r_tx, scenario.w, [rec.h for rec in recs], [rec.r for rec in recs]


def _input_resistance(r_tx, w, h, r, x):
    """``r_tx + sum_k (w*h_k)**2 / (r_k + x_k)``, receivers added in index order."""
    r_in = r_tx
    for h_k, r_k, x_k in zip(h, r, x):
        r_in = r_in + (w * h_k) * (w * h_k) / (r_k + x_k)
    return r_in


def _closed_form(v_mag, r_tx, w, h, r, x):
    """``r_in``, the list of powers, ``p_tx`` and ``p_sum`` at the loads ``x``:
    the one body of the closed form, for floats and for arrays alike."""
    r_in = _input_resistance(r_tx, w, h, r, x)
    half_v2 = 0.5 * v_mag * v_mag
    rr = r_in * r_in
    powers = []
    p_sum = 0.0
    for h_k, r_k, x_k in zip(h, r, x):
        wh = w * h_k
        d = r_k + x_k
        p_k = half_v2 * (wh * wh) * x_k / (d * d) / rr
        powers.append(p_k)
        p_sum = p_sum + p_k
    return r_in, powers, half_v2 / r_in, p_sum


def _impedance_matrix(r_tx, w, h, r, x) -> np.ndarray:
    """Impedance matrices, ``S + (N+1, N+1)``; ``-1j*w*h_k`` as Python's complex product."""
    a = np.zeros(np.shape(r_tx) + (len(x) + 1,) * 2, dtype=complex)
    a[..., 0, 0] = r_tx
    for k in range(len(x)):
        a.imag[..., 0, k + 1] = a.imag[..., k + 1, 0] = 0.0 + -w * h[k]
        a[..., k + 1, k + 1] = r[k] + x[k]
    return a


def _admittance_column(r_tx, w, h, r, x) -> np.ndarray:
    """``admittance_first_column`` on columns, of shape ``S + (N+1,)``."""
    r_in = _input_resistance(r_tx, w, h, r, x)
    col = np.zeros(np.shape(r_in) + (len(x) + 1,), dtype=complex)
    col[..., 0] = 1.0 / r_in
    for k in range(len(x)):
        col.imag[..., k + 1] = w * h[k] / (r[k] + x[k]) / r_in
    return col


@np.errstate(over="raise", divide="raise", invalid="raise")  # as Python's floats raise
def _oracle(v, x, a):
    """``r_in``, the list of powers, ``p_tx`` and the currents ``i`` of ``a @ i
    = [v, 0, ..., 0]``, solved by LAPACK.  The rest is written in the real
    operations of Python's complex ones: ``v / i_0`` divides by the larger
    part of ``i_0``, and ``abs(i_n) ** 2`` is ``pow(hypot(...), 2)``."""
    rhs = np.zeros(a.shape[:-1] + (1,), dtype=complex)
    rhs[..., 0, 0] = v
    i = np.linalg.solve(a, rhs)[..., 0]
    v_re, v_im, i_re, i_im = np.real(v), np.imag(v), i[..., 0].real, i[..., 0].imag
    big = abs(i_re) >= abs(i_im)
    p, q = np.where(big, i_re, i_im), np.where(big, i_im, i_re)
    s, t = np.where(big, v_re, v_im), np.where(big, v_im, v_re)
    ratio = q / p
    powers = [0.5 * x[k] * np.float_power(np.hypot(i[..., k + 1].real, i[..., k + 1].imag), 2.0)
              for k in range(len(x))]
    return (s + t * ratio) / (p + q * ratio), powers, 0.5 * (v_re * i_re - v_im * -i_im), i


def build_impedance_matrix(scenario: SystemScenario, loads) -> np.ndarray:
    """Assemble the (N+1)x(N+1) complex mesh impedance matrix at resonance."""
    return _impedance_matrix(*_columns(scenario), as_loads(scenario, loads))


def det_impedance(scenario: SystemScenario, loads) -> float:
    """Determinant of the impedance matrix, via its real product form.

    Equals ``r_in * prod_k (r_k + x_k)`` and is strictly positive for every
    valid scenario, which is what makes the mesh system always solvable.
    """
    xs = as_loads(scenario, loads)
    prod = math.prod(rec.r + x for rec, x in zip(scenario.receivers, xs))
    return _input_resistance(*_columns(scenario), xs) * prod


def solve_closed_form(scenario: SystemScenario, loads) -> PowerReport:
    """Input resistance and powers from the eliminated (closed-form) mesh solution.

    Float arithmetic, receivers in index order.  The protocol simulator
    reproduces these expressions exactly, so power values computed there
    are bit-identical to this function's.
    """
    xs = as_loads(scenario, loads)
    r_in, powers, p_tx, p_sum = _closed_form(scenario.tx.v_mag, *_columns(scenario), xs)
    return PowerReport(r_in=r_in, p=tuple(powers), p_tx=p_tx, p_sum=p_sum)


def closed_form_arrays(scenario: SystemScenario, loads) -> PowerReport:
    """``solve_closed_form`` over every row of a load array of shape ``(..., N)``.

    The same body runs on the columns of the array, so every output is
    bit-identical to calling ``solve_closed_form`` row by row.  One row
    costs more here than in the scalar function; the kernel pays off from a
    few rows on.  Entries must be positive and finite, as in ``as_loads``.
    """
    x = np.asarray(loads, dtype=float)
    if x.ndim == 0 or x.shape[-1] != scenario.n:
        raise ScenarioError(
            f"load array has shape {x.shape}, scenario has {scenario.n} receivers"
        )
    bad = ~(np.isfinite(x) & (x > 0))
    if bad.any():
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ScenarioError(f"x[{where[-1]}] must be > 0 (got {x[where]})")
    cols = np.moveaxis(x, -1, 0)
    r_in, powers, p_tx, p_sum = _closed_form(scenario.tx.v_mag, *_columns(scenario), cols)
    return PowerReport(r_in=r_in, p=np.stack(powers, axis=-1), p_tx=p_tx, p_sum=p_sum)


def solve_oracle(scenario: SystemScenario, loads) -> tuple[PowerReport, np.ndarray]:
    """Powers and the current vector from a generic dense complex linear solve.

    Independent of the closed forms: solves ``A @ i = v`` with LAPACK and
    derives the rest from definitions (``r_in = Re{v_tx / i_0}``, ``p_tx =
    Re{v_tx * conj(i_0)}/2``, ``p_n = x_n |i_n|^2 / 2``).  Returns the report
    and the currents ``i = [i_0, ..., i_N]``, ``i_0`` the transmitter's.  A
    singular matrix (impossible for valid scenarios, where det > 0) raises
    ``numpy.linalg.LinAlgError``.
    """
    xs = as_loads(scenario, loads)
    r_in, p, p_tx, i = _oracle(scenario.tx.v_tx, xs, build_impedance_matrix(scenario, xs))
    p = [float(p_n) for p_n in p]
    return PowerReport(float(r_in), tuple(p), float(p_tx), math.fsum(p)), i


def admittance_first_column(scenario: SystemScenario, loads) -> np.ndarray:
    """First column of the inverse impedance matrix, in closed form.

    Entry 0 is ``1/r_in``; entry n is ``j*w*h_n/(r_n+x_n) / r_in``.  The
    current vector is this column scaled by ``v_tx``; it is the package's
    one closed form of the currents.
    """
    return _admittance_column(*_columns(scenario), as_loads(scenario, loads))
