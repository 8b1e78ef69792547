"""Experiment harness and command-line entry point.

Sweeps a rotation angle through a circuit model, measures (x11, x1K) with
one of three backends (exact statevector, shot sampling, shot sampling
with readout noise and optional mitigation), predicts the unknown
population, reconstructs the density matrix both with and without the
true xKK, and emits the comparison as CSV.

Config files are flat "key value" lines; see ``load_config`` for the keys.
All randomness derives from the config seed: a sampled sweep makes one
generator, ``np.random.default_rng(seed)``, and one multinomial call on
it, one row per draw in the order (theta, K, [populations, then each
basis of K's plan in plan order]). Each K draws its own populations.

``_sweep_points`` is the one sweep and ``Sweep`` the one result: the
kernels' arrays as columns, one row per point. ``run_sweep`` returns
every row and ``run_case_ab`` the solved ones, and the ``sweep`` and
``caseab`` CSVs are two views of them, formatted from the columns. No
per-point object is built between the kernels and the CSV.
Every CSV is written by one emitter (``_write_csv``) as one byte matrix,
whose float cells numpy fills with the text ``'%.11e'`` gives
(``_float_cells``).
The sweep does each piece of work once. The circuit file is read once,
by ``load_config``, and its text is tokenized once,
every theta is bound into it at once, and the circuit is simulated as
one (thetas, 2^n) stack of states (``circuit._sweep_states``). The
readout is validated once per sweep, and one call reads the distribution
of every theta's state. The exact backend reads every point's x11 and
xKK from it and each K's x1K for every theta in one array product. A
sampled sweep rotates the stack into every basis of every K's plan
level by level, in at most 3n gate calls, and reads them all in one
more distribution call (``sampler._basis_reads``); the draws, the
frequency check, the mitigation and the recombination of |K><1| are
then array operations over the whole matrix of rows
(``sampler._draw_slots``).
The measured (x11, x1K) of all points are checked once, as arrays. A
theta that fails a check of its state (its binding, its norm, its
population sum) raises its error where a loop over the points would
reach it, after the points before it are measured; a drawn row that
fails the frequency check ends the points at its own in the same way.
The rotated rows are not checked again: a unitary rotation moves a
norm by rounding only. Then one call of each of
``maxent``'s array kernels covers all the solved points: the prediction
of xKK, the completion and solve of case A and case B side by side
(``maxent._complete_and_solve``) and the fidelity, and the solved rows'
results are scattered into columns of every row. No record is built,
no multiplier set is validated again, and no clamp warning is raised.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import circuits as bundled
from .circuit import _coherence, _sweep_states, theta_free_prefix
from .errors import InfeasibleRecordError, TomographyError, ValidationError
from .linalg import POLICY, _earliest, _raise
from .maxent import (
    _INTEGERS,
    _block_fidelity,
    _check_dims,
    _complete_and_solve,
    _predict_population,
    _record_failure,
    density_from_lagrange,
    dump_record,
    heatmap_scan,
    load_record,
    parse_keyvals,
    read_number,
    solve_record,
)
from .pauli import decompose_ketbra
from .sampler import (
    ReadoutNoise,
    _basis_reads,
    _draw_slots,
    _ketbra_plan,
    _population_failure,
    _Readout,
    _recombine,
    build_calibration,
)

_BACKENDS = ("exact", "shots", "noisy")

# Illustrative readout-flip rates used when a noisy config omits its own.
DEFAULT_P01 = 0.02
DEFAULT_P10 = 0.04


@dataclass(frozen=True)
class ExperimentConfig:
    circuit_path: str
    theta_start: float = 0.0
    theta_stop: float = 2 * math.pi
    theta_steps: int = 21
    k_targets: tuple[int, ...] = ()  # empty: every K in 2..2^n
    backend: str = "exact"
    shots: int | None = None
    noise: ReadoutNoise | None = None
    mitigate: bool = False
    seed: int = 0
    output_path: str | None = None
    # The text of the circuit as ``load_config`` read it, so a sweep reads
    # its circuit file once; None reads ``circuit_path`` when it runs. A
    # copy with another ``circuit_path`` must set this to None as well.
    circuit_text: str | None = dataclasses.field(default=None, repr=False)

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise ValidationError(f"backend must be one of {_BACKENDS}")
        for name in ("theta_steps", "seed", "shots"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, _INTEGERS):
                raise ValidationError(f"{name} = {value!r} is not an integer")
        if self.theta_steps < 1:
            raise ValidationError("theta_steps must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.backend != "exact" and (self.shots is None or self.shots < 1):
            raise ValidationError(f"backend {self.backend!r} requires shots >= 1")
        if self.backend == "noisy" and self.noise is None:
            raise ValidationError("noisy backend requires a noise model")
        if self.backend != "noisy" and self.noise is not None:
            raise ValidationError(f"backend {self.backend!r} reads no noise model")
        if self.backend != "noisy" and self.mitigate:
            raise ValidationError(f"backend {self.backend!r} cannot mitigate")


@dataclass(frozen=True, eq=False)
class Sweep:
    """Every (theta, K) point of a sweep as columns, one row per point,
    theta outer, K inner: the arrays the kernels produce. ``len`` is the
    number of rows.

    Each point holds the measured (x11, x1K), the backend's true xKK, and
    the reconstructions from the predicted xKK (case A) and from the true
    one (case B) with their fidelity. ``solved`` marks the rows above the
    degeneracy floor. A floor row has no prediction: NaN ``xkk_pred``,
    ``fidelity`` and multipliers, and False ``near_a`` and ``near_b``.
    ``lams_a`` and ``lams_b`` are the (lam_11, lam_1K, lam_KK) columns of
    case A and case B.
    """

    theta: np.ndarray
    k: np.ndarray
    x11: np.ndarray
    x1k: np.ndarray
    xkk_true: np.ndarray
    xkk_pred: np.ndarray
    fidelity: np.ndarray
    lams_a: tuple[np.ndarray, np.ndarray, np.ndarray]
    near_a: np.ndarray
    lams_b: tuple[np.ndarray, np.ndarray, np.ndarray]
    near_b: np.ndarray
    solved: np.ndarray

    @property
    def abs_diff(self) -> np.ndarray:
        return np.abs(self.xkk_true - self.xkk_pred)

    @property
    def near_singular(self) -> np.ndarray:
        return ~self.solved | self.near_a | self.near_b

    def __len__(self) -> int:
        return len(self.solved)

    def _rows(self, mask) -> Sweep:
        """The rows ``mask`` selects, as a sweep of their own."""
        return Sweep(*(
            tuple(v[mask] for v in column) if isinstance(column, tuple) else column[mask]
            for column in (getattr(self, f.name) for f in dataclasses.fields(self))
        ))


def resolve_circuit(spec_value: str) -> str:
    """Circuit text for a config value: a bundled name or a file path,
    read relative to the working directory unless absolute."""
    if spec_value in bundled.names():
        return bundled.load(spec_value)
    try:
        return Path(spec_value).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read circuit {spec_value!r}: {exc}") from None


def _parse_bool(value: str, key: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValidationError(f"bad boolean for {key!r}: {value!r}")


def _k_targets(k_targets: tuple[int, ...], dim_n: int) -> tuple[int, ...]:
    """The K targets of a sweep: every K in 2..dim_n when none are given,
    else the given ones, each in range and named once."""
    if not k_targets:
        return tuple(range(2, dim_n + 1))
    for k in k_targets:
        if k < 2:
            raise ValidationError(f"k target {k} must be >= 2")
        if k > dim_n:
            raise ValidationError(f"k target {k} exceeds dimension {dim_n}")
    if len(set(k_targets)) != len(k_targets):
        raise ValidationError(f"k targets {k_targets} name a target twice")
    return tuple(k_targets)


_CONFIG_KEYS = (
    "circuit", "theta_start", "theta_stop", "theta_steps", "k_targets",
    "backend", "shots", "p01", "p10", "mitigate", "seed", "out",
)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a sweep config. Keys:

    circuit (bundled name or path), theta_start, theta_stop, theta_steps,
    k_targets (comma separated), backend (exact|shots|noisy), shots,
    p01, p10, mitigate (true|false), seed, out. p01, p10 and mitigate are
    read by the noisy backend only; any other backend rejects them.

    A circuit path is stored joined to the config's directory (an
    absolute one stays as it is), so the config runs from any working
    directory; a bundled name is stored as it is.
    """
    path = Path(path)
    values = parse_keyvals(path.read_text(), _CONFIG_KEYS, "config")
    if "circuit" not in values:
        raise ValidationError("config is missing the 'circuit' key")

    circuit_path = values["circuit"]
    if circuit_path not in bundled.names():
        circuit_path = str(path.parent / circuit_path)
    circuit_text = resolve_circuit(circuit_path)
    # The theta-free prefix knows the qubit count without binding a theta.
    num_qubits = theta_free_prefix(circuit_text).num_qubits

    backend = values.get("backend", "exact")
    noise = None
    if backend == "noisy":
        p01 = read_number(values, "p01", DEFAULT_P01)
        p10 = read_number(values, "p10", DEFAULT_P10)
        noise = ReadoutNoise.uniform(p01, p10, num_qubits)
    else:
        for key in ("p01", "p10"):
            if key in values:
                raise ValidationError(
                    f"{key} is read by the noisy backend only, not {backend!r}"
                )
    # Each token is read as a k_targets value, so a bad one names the key.
    k_targets = tuple(
        read_number({"k_targets": tok}, "k_targets", None, int)
        for tok in values.get("k_targets", "").split(",")
        if tok.strip()
    )
    return ExperimentConfig(
        circuit_path=circuit_path,
        theta_start=read_number(values, "theta_start", 0.0),
        theta_stop=read_number(values, "theta_stop", 2 * math.pi),
        theta_steps=read_number(values, "theta_steps", 21, int),
        k_targets=_k_targets(k_targets, 2**num_qubits),
        backend=backend,
        shots=read_number(values, "shots", None, int),
        noise=noise,
        mitigate=_parse_bool(values.get("mitigate", "false"), "mitigate"),
        seed=read_number(values, "seed", 0, int),
        output_path=values.get("out"),
        circuit_text=circuit_text,
    )


def _sweep_points(cfg: ExperimentConfig) -> Sweep:
    """Measure and reconstruct every (theta, K) point, theta outer, K inner.

    A sampled sweep draws every point, floor points included, from one
    generator. Every point is measured first; then one call of each array
    kernel covers all solved points: the prediction, the case A and case B
    completions and solves (one call, each point's A and B side by side),
    and the fidelity. A prediction that exceeds
    1 - x11 is clamped without a warning; a clamped point is recognizable
    by xkk_pred = 1 - x11. Errors come in point order: the solve error of
    a point comes before the error of any later point's measurement.
    """
    circuit_text = cfg.circuit_text
    if circuit_text is None:
        circuit_text = resolve_circuit(cfg.circuit_path)
    num_qubits = theta_free_prefix(circuit_text).num_qubits
    if num_qubits < 2:
        raise ValidationError(
            "reconstruction needs at least 2 qubits (no unconstrained "
            "states remain in a 1-qubit system)"
        )
    dim_n = 2**num_qubits
    k_targets = _k_targets(cfg.k_targets, dim_n)
    for k in k_targets:
        _check_dims(dim_n, k)
    if cfg.theta_steps == 1:
        thetas = [float(cfg.theta_start)]
    elif math.isfinite(cfg.theta_stop - cfg.theta_start):
        thetas = np.linspace(cfg.theta_start, cfg.theta_stop, cfg.theta_steps).tolist()
    else:
        # numpy would warn and bind NaN and infinite thetas.
        raise ValidationError(
            f"theta_stop - theta_start = {cfg.theta_stop!r} - {cfg.theta_start!r} "
            "is not finite"
        )
    # The exact backend reads exact probabilities whatever the config's shots.
    shots = None if cfg.backend == "exact" else cfg.shots
    calibration = build_calibration(cfg.noise, num_qubits) if cfg.mitigate else None
    readout = _Readout(num_qubits, shots, cfg.noise, calibration)
    # One stack of states serves every K target and Pauli setting, and
    # one distribution per state the population draw of every K. The
    # thetas before the first one that fails a check are measured; its
    # error is raised in the loop's place.
    states, failure = _sweep_states(circuit_text, thetas)
    stop, error = _earliest(failure, _population_failure(states)) or (len(thetas), None)
    dists = readout.distribution(states[:stop])
    if shots is None:
        # Point (theta i, K) reads row i: x11 and xKK are its exact
        # populations, x1K is rho[1, K], the mean of |K><1|: a_0 * conj(a_{K-1}).
        x11 = np.repeat(dists[:, 0], len(k_targets))
        x1k = np.stack([_coherence(states[:stop], k, 1) for k in k_targets], axis=1).ravel()
        xkk_true = dists[:, [k - 1 for k in k_targets]].ravel()
    else:
        x11, x1k, xkk_true, error = _sampled_values(
            states[:stop], num_qubits, dists, k_targets, readout, cfg.seed, error
        )
    # The measured values are checked once, where x11 is above the floor;
    # case A completes them with the predicted xKK, case B with the true
    # one. A point that fails is not measured, nor any after it.
    solved = x11 > POLICY.population_floor
    invalid = _record_failure(x11[solved], x1k[solved])
    if invalid is not None:
        count = int(np.flatnonzero(solved)[invalid[0]])
        error = invalid[1]
        x11, x1k, xkk_true, solved = x11[:count], x1k[:count], xkk_true[:count], solved[:count]

    x11_s, x1k_s = x11[solved], x1k[solved]
    xkk = _predict_population(x11_s, x1k_s)[0]
    # Case A completes each point with its predicted xKK, case B with the
    # true one. One call solves both, point first: row 2i is point i's
    # case A and row 2i + 1 its case B.
    completed, lams, near, (z, block), failure = _complete_and_solve(
        dim_n, np.repeat(x11_s, 2), np.repeat(x1k_s, 2),
        np.stack([xkk, xkk_true[solved]], 1).ravel(),
    )
    lams_a, lams_b = (tuple(v[i::2] for v in lams) for i in (0, 1))
    block_a, block_b = (tuple(v[i::2] for v in block) for i in (0, 1))
    fidelity, failure_f = _block_fidelity(dim_n, lams_a, z[::2], block_a, lams_b, z[1::2], block_b)
    # Errors in the order of a loop over the points: a point's case A
    # before its case B (the stacked order) and its fidelity, before the
    # next point, before a later measurement. A measurement error is
    # raised after the solves of the points before it: the typed errors
    # of the parser, the simulator, the sampler and the value checks, or
    # an ArithmeticError.
    if failure is not None:
        failure = (failure[0] // 2, failure[1])
    _raise(_earliest(failure, failure_f))
    if error is not None:
        raise error

    def every_row(values, fill):
        # The solved rows' values scattered into a column of every row.
        column = np.full(len(solved), fill, values.dtype)
        column[solved] = values
        return column

    return Sweep(
        np.repeat(thetas, len(k_targets)), np.tile(k_targets, len(thetas)),
        x11, x1k, xkk_true, every_row(completed[2][::2], math.nan), every_row(fidelity, math.nan),
        tuple(every_row(v, math.nan) for v in lams_a), every_row(near[::2], False),
        tuple(every_row(v, math.nan) for v in lams_b), every_row(near[1::2], False),
        solved,
    )


def _sampled_values(states, num_qubits, dists, k_targets, readout, seed, error):
    """The measured (x11, x1K, xKK) of every point of a sampled sweep over
    ``states``, theta outer and K inner, as arrays, and the error that
    ends the measurement: the first draw's error, or else ``error``.

    Every basis of every K is rotated and read once for the whole stack
    (``sampler._basis_reads``); then one ``sampler._draw_slots`` call
    draws every row from one generator seeded with ``seed``. A draw that
    fails ends the points at its own.
    """
    plans = [_ketbra_plan(k, 1, num_qubits) for k in k_targets]
    reads = _basis_reads(states, num_qubits, (b for plan in plans for b in plan[0]), readout)
    # One theta's rows: per K, its populations, then its plan's bases.
    slots, starts = [], []
    for plan in plans:
        starts.append(len(slots))
        slots += [dists, *(reads[b] for b in plan[0])]
    freqs, end, draw_error = _draw_slots(readout, slots, seed)
    # A point is measured once its last draw is made.
    ends = starts[1:] + [len(slots)]
    count = end // len(slots) * len(plans) + bisect.bisect_right(ends, end % len(slots))
    x1k = np.stack(
        [_recombine(plan, freqs[:, s + 1 : s + 1 + len(plan[0])]) for plan, s in zip(plans, starts)],
        axis=1,
    )
    return (
        freqs[:, starts, 0].ravel()[:count], x1k.ravel()[:count],
        freqs[:, starts, [k - 1 for k in k_targets]].ravel()[:count],
        error if draw_error is None else draw_error,
    )


def run_sweep(cfg: ExperimentConfig) -> Sweep:
    """Every (theta, K) point, theta outer, K inner. A point whose x11 sits
    at the degeneracy floor is kept, flagged near_singular, not raised."""
    return _sweep_points(cfg)


def run_case_ab(cfg: ExperimentConfig) -> Sweep:
    """The points of ``run_sweep`` that have a case A and a case B
    reconstruction to compare, in the same order: the floor points are
    left out."""
    sweep = _sweep_points(cfg)
    return sweep._rows(sweep.solved)


def _fmt(value: float) -> str:
    return f"{value:.11e}"


# A CSV cell holds at most this many bytes, five 4-byte words; the
# longest ``_fmt`` text is "-4.94065645841e-324". A shorter text is padded
# with zero bytes, which mark absent bytes; no CSV byte is zero.
_CELL = 20
# Row i: the four ASCII digits of i < 10^4, read as one word.
_DIGITS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T) + ord("0")
_WORDS = _DIGITS.view(np.uint32).ravel()


def _heads() -> np.ndarray:
    """8-byte word s 10^4 + h: the sign s and the first four digits h of a
    mantissa, as "-D.DDD" (s = 1) or "D.DDD" (s = 0), zero-padded."""
    heads = np.zeros((2, 10**4, 8), np.uint8)
    heads[0, :, 0] = _DIGITS[:, 0]
    heads[0, :, 1] = ord(".")
    heads[0, :, 2:5] = _DIGITS[:, 1:]
    heads[1, :, 0] = ord("-")
    heads[1, :, 1:6] = heads[0, :, :5]
    return heads.view(np.uint64).ravel()


def _exponents() -> np.ndarray:
    """Word e + 99: the exponent e in -99..99 as "e+05" or "e-12"."""
    e = np.arange(-99, 100)
    words = np.empty((len(e), 4), np.uint8)
    words[:, 0] = ord("e")
    words[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    words[:, 2:] = _DIGITS[np.abs(e), 2:]
    return words.view(np.uint32).ravel()


def _scale_steps() -> np.ndarray:
    """Column p + 44: (up, down, up2, down2), so that a * 10^p for
    |p| <= 44 is a * up / down * up2 / down2. Each is an exact power
    10^0..10^22 and at most two are not 1: the product carries at most
    two roundings."""
    p = np.arange(-44, 45)
    powers = np.array([10**q for q in range(23)], dtype=float)
    return powers[np.clip(np.stack([p, -p, p - 22, -p - 22]), 0, 22)]


_HEADS = _heads()
_EXPONENTS = _exponents()
_SCALE_STEPS = _scale_steps()


def _scale(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a * 10^p for |p| <= 44 with at most two roundings."""
    up, down, up2, down2 = _SCALE_STEPS[:, p + 44]
    return a * up / down * up2 / down2


def _text_cells(texts) -> np.ndarray:
    """Each ASCII text as one zero-padded row of ``_CELL`` bytes."""
    data = "".join(t.ljust(_CELL, "\0") for t in texts).encode("ascii")
    return np.frombuffer(data, np.uint8).reshape(-1, _CELL)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """The ``_fmt`` text of every value of ``x``, one ``_CELL``-byte row
    each (see ``_text_cells``), in the order of ``x.ravel()``.

    The 12 digits of a value are rint(m) for m = |x| 10^(11 - e), where the
    exponent e starts from floor(log10 |x|) and exact comparisons of m
    with 10^11 and 10^12 correct it, so the last bits of log10 never reach
    the text. m carries at most two roundings (``_scale``), an error below
    3e-4, so rint(m) is the correctly rounded mantissa unless m lies within
    1e-3 of a rounding tie. Such a value, one that needs a power of ten
    beyond 10^44, NaN and +-inf, and any value whose rint(m) still lies
    outside [10^11, 10^12] (a log10 off by more than one) are written by
    ``_fmt``.
    """
    x = x.ravel()
    a = np.abs(x)
    finite = np.isfinite(a)
    nonzero = finite & (a != 0)
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(np.where(nonzero, a, 1.0))).astype(np.int64)
        m = _scale(a, np.clip(11 - e, -44, 44))
        off = nonzero & ((m < 1e11) | (m >= 1e12))
        if off.any():
            e[off] += np.where(m[off] < 1e11, -1, 1)
            m[off] = _scale(a[off], np.clip(11 - e[off], -44, 44))
        d = np.rint(m)
        python = (
            ~finite | (np.abs(11 - e) > 44) | (np.abs(m - d) >= 0.499)
            | (nonzero & ((d < 1e11) | (d > 1e12)))
        )
        carry = d == 1e12
        d = np.where(python, 0, np.where(carry, 1e11, d)).astype(np.int64)
    high, low = np.divmod(d, 10**8)
    middle, low = np.divmod(low, 10**4)
    cells = np.empty((len(x), _CELL // 4), np.uint32)
    cells[:, :2] = _HEADS[np.signbit(x) * 10**4 + high].view(np.uint32).reshape(-1, 2)
    cells[:, 2] = _WORDS[middle]
    cells[:, 3] = _WORDS[low]
    cells[:, 4] = _EXPONENTS[np.clip(e + carry, -99, 99) + 99]
    cells = cells.view(np.uint8)
    if python.any():
        cells[python] = _text_cells(map(_fmt, x[python].tolist()))
    return cells


def _write(data: bytes, path: str | Path | None) -> None:
    """Write ``data`` to ``path``, or to stdout when ``path`` is None."""
    if path is None:
        sys.stdout.write(data.decode())
    else:
        Path(path).write_bytes(data)


def _write_lines(lines: list[str], path: str | Path | None) -> None:
    """Write a header and its rows as LF-terminated lines to ``path``, or
    to stdout when ``path`` is None. No timestamps: the bytes are a pure
    function of the lines."""
    _write(("\n".join(lines) + "\n").encode(), path)


def _write_csv(header: str, columns: tuple[np.ndarray, ...], path: str | Path) -> None:
    """Write ``columns`` under ``header`` as CSV, one row per index: a
    float as ``_fmt`` writes it, an integer in decimal, a bool as
    true/false.

    The body is built as one (rows, columns, ``_CELL`` + 1) byte matrix, a
    cell and its comma or newline per column; its zero bytes are dropped.
    """
    rows = len(columns[0])
    if rows == 0:
        raise ValidationError("no rows to emit")
    matrix = np.zeros((rows, len(columns), _CELL + 1), np.uint8)
    matrix[:, :, _CELL] = ord(",")
    matrix[:, -1, _CELL] = ord("\n")
    floats = [i for i, c in enumerate(columns) if c.dtype.kind == "f"]
    cells = _float_cells(np.stack([columns[i] for i in floats], axis=1))
    matrix[:, floats, :_CELL] = cells.reshape(rows, len(floats), _CELL)
    for i, column in enumerate(columns):
        if column.dtype.kind == "b":
            matrix[:, i, :_CELL] = _text_cells(("false", "true"))[column.view(np.uint8)]
        elif column.dtype.kind in "iu":
            values, index = np.unique(column, return_inverse=True)
            matrix[:, i, :_CELL] = _text_cells(map(str, values.tolist()))[index]
    _write(f"{header}\n".encode() + matrix[matrix != 0].tobytes(), path)


SWEEP_HEADER = "theta,k,x11,re_x1k,im_x1k,xkk_true,xkk_pred,abs_diff,fidelity,near_singular"


def emit_csv(s: Sweep, path: str | Path) -> None:
    """Write a sweep's rows as CSV with 12-significant-digit values."""
    columns = (
        s.theta, s.k, s.x11, s.x1k.real, s.x1k.imag, s.xkk_true, s.xkk_pred,
        s.abs_diff, s.fidelity, s.near_singular,
    )
    _write_csv(SWEEP_HEADER, columns, path)


CASEAB_HEADER = (
    "theta,k,xkk_true,xkk_pred,abs_diff,fidelity_ab,"
    "lam11_a,re_lam1k_a,im_lam1k_a,lamkk_a,"
    "lam11_b,re_lam1k_b,im_lam1k_b,lamkk_b"
)


def emit_caseab_csv(s: Sweep, path: str | Path) -> None:
    """Write a sweep's solved rows with both multiplier sets as CSV. A
    floor row, which has none, is rejected before anything is written."""
    if not s.solved.all():
        i = int(np.argmin(s.solved))
        raise ValidationError(
            f"point theta={s.theta[i].item()}, k={s.k[i].item()} has no multipliers "
            "(x11 at the floor); pass the output of run_case_ab, not run_sweep"
        )
    (a11, a1k, akk), (b11, b1k, bkk) = s.lams_a, s.lams_b
    columns = (
        s.theta, s.k, s.xkk_true, s.xkk_pred, s.abs_diff, s.fidelity,
        a11, a1k.real, a1k.imag, akk, b11, b1k.real, b1k.imag, bkk,
    )
    _write_csv(CASEAB_HEADER, columns, path)


HEATMAP_HEADER = "lam11,re_lam1k,im_lam1k,x11,re_x1k,im_x1k"

_HEATMAP_KEYS = (
    "n", "k", "lam11_start", "lam11_stop", "lam11_steps",
    "re_lam1k_start", "re_lam1k_stop", "re_lam1k_steps",
    "lam_kk", "im_lam1k", "out",
)


def load_heatmap_config(path: str | Path) -> dict:
    """Read a heatmap config. Keys: n, k, lam11_start/stop/steps,
    re_lam1k_start/stop/steps, lam_kk, im_lam1k, out."""
    values = parse_keyvals(Path(path).read_text(), _HEATMAP_KEYS, "heatmap")
    params = {
        "dim_n": read_number(values, "n", 4, int),
        "index_k": read_number(values, "k", 2, int),
        "lam_kk": read_number(values, "lam_kk", 0.0),
        "im_lam1k": read_number(values, "im_lam1k", 0.0),
        "out": values.get("out"),
    }
    for axis in ("lam11", "re_lam1k"):
        steps = read_number(values, f"{axis}_steps", 21, int)
        if steps < 1:
            raise ValidationError(f"{axis}_steps = {steps} is below 1")
        params[axis] = np.linspace(
            read_number(values, f"{axis}_start", -3.0),
            read_number(values, f"{axis}_stop", 3.0),
            steps,
        )
    return params


def emit_heatmap_csv(rows, path: str | Path) -> None:
    """Write ``heatmap_scan`` rows, (lam11, lam1K, x11, x1K) each, as CSV."""
    lam11, lam1k, x11, x1k = np.array(rows, dtype=complex).reshape(-1, 4).T
    columns = (lam11.real, lam1k.real, lam1k.imag, x11.real, x1k.real, x1k.imag)
    _write_csv(HEATMAP_HEADER, columns, path)


def _cmd_reconstruct(args) -> int:
    completed, ls = solve_record(load_record(Path(args.record).read_text()))
    rho = density_from_lagrange(ls)
    if args.format == "csv":
        lines = [
            "key,value",
            f"n,{completed.dim_n}",
            f"k,{completed.index_k}",
            f"x11,{_fmt(completed.x_11)}",
            f"re_x1k,{_fmt(completed.x_1k.real)}",
            f"im_x1k,{_fmt(completed.x_1k.imag)}",
            f"xkk,{_fmt(completed.x_kk)}",
            f"xkk_source,{completed.source}",
            f"lam11,{_fmt(ls.lam_11)}",
            f"re_lam1k,{_fmt(ls.lam_1k.real)}",
            f"im_lam1k,{_fmt(ls.lam_1k.imag)}",
            f"lamkk,{_fmt(ls.lam_kk)}",
            f"near_singular,{'true' if ls.near_singular else 'false'}",
        ]
        for i in range(rho.shape[0]):
            for j in range(rho.shape[1]):
                lines.append(f"rho_{i + 1}_{j + 1},{float(rho[i, j].real)!r}{rho[i, j].imag:+}j")
    else:
        lines = [
            "completed record (xkk " + completed.source + "):",
            dump_record(completed).rstrip(),
            "",
            "lagrange multipliers:",
            f"  lam11 = {ls.lam_11:.12g}",
            f"  lam1k = {ls.lam_1k.real:.12g}{ls.lam_1k.imag:+.12g}j",
            f"  lamkk = {ls.lam_kk:.12g}",
            f"  near_singular = {ls.near_singular}",
            "",
            "density matrix:",
            *("  " + "  ".join(f"{v.real:+.6f}{v.imag:+.6f}j" for v in row) for row in rho),
        ]
    _write_lines(lines, args.out or None)
    return 0


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    return dataclasses.replace(
        cfg,
        seed=cfg.seed if args.seed is None else args.seed,
        output_path=cfg.output_path if args.out is None else args.out,
    )


def _cmd_sweep(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    sweep = run_sweep(cfg)
    out = cfg.output_path or "sweep.csv"
    emit_csv(sweep, out)
    diffs = sweep.abs_diff
    diffs = diffs[~np.isnan(diffs)]
    median = float(np.median(diffs)) if diffs.size else math.nan
    print(f"wrote {len(sweep)} rows to {out} (median abs_diff {median:.3e})")
    return 0


def _cmd_caseab(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    sweep = run_case_ab(cfg)
    out = cfg.output_path or "caseab.csv"
    emit_caseab_csv(sweep, out)
    median = float(np.median(sweep.abs_diff))
    print(
        f"wrote {len(sweep)} rows to {out} (median abs_diff {median:.3e}, "
        f"min fidelity {min(sweep.fidelity.tolist()):.6f})"
    )
    return 0


def _cmd_heatmap(args) -> int:
    params = load_heatmap_config(args.config)
    rows = heatmap_scan(
        params["lam11"],
        params["re_lam1k"],
        lam_kk=params["lam_kk"],
        im_lam1k=params["im_lam1k"],
        dim_n=params["dim_n"],
        index_k=params["index_k"],
    )
    out = args.out or params["out"] or "heatmap.csv"
    emit_heatmap_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_decompose(args) -> int:
    d = decompose_ketbra(args.i, args.j, args.n)
    if args.format == "csv":
        lines = ["string,re_coeff,im_coeff"]
        for ps, coeff in d.terms.items():
            lines.append(f"{ps},{coeff.real!r},{coeff.imag!r}")
    else:
        width = max(len(str(ps)) for ps in d.terms)
        lines = [f"|{args.i}><{args.j}| on {args.n} qubit(s):"]
        for ps, coeff in d.terms.items():
            lines.append(f"  {str(ps):<{width}}  {coeff.real:+.6f}{coeff.imag:+.6f}j")
    _write_lines(lines, args.out or None)
    return 0


# Built on the first call and reused: parsing keeps no state between calls.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmaxent",
        description="Maximal-entropy density-matrix reconstruction toolkit",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output path")
    parser.add_argument(
        "--format", choices=("text", "csv"), default=None,
        help="output format for printing commands (default text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reconstruct", help="complete a record and reconstruct rho")
    p.add_argument("record", help="record file (keys n, k, x11, re_x1k, im_x1k[, xkk])")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("sweep", help="run a theta sweep and write CSV")
    p.add_argument("config")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("caseab", help="compare predicted-xKK vs true-xKK reconstructions")
    p.add_argument("config")
    p.set_defaults(func=_cmd_caseab)

    p = sub.add_parser("heatmap", help="forward-map grid over (lam11, Re lam1K)")
    p.add_argument("config")
    p.set_defaults(func=_cmd_heatmap)

    p = sub.add_parser("decompose", help="print the Pauli expansion of |i><j|")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("n", type=int, help="number of qubits")
    p.set_defaults(func=_cmd_decompose)
    return parser


# The commands that read each global flag; any other command rejects it,
# as a backend rejects the settings it does not read.
_FLAG_READERS = {"seed": ("sweep", "caseab"), "format": ("reconstruct", "decompose")}


def main(argv=None) -> int:
    """Entry point. Exit codes: 0 success, 2 validation error, 3 infeasible."""
    args = _build_parser().parse_args(argv)
    try:
        for flag, readers in _FLAG_READERS.items():
            if getattr(args, flag) is not None and args.command not in readers:
                raise ValidationError(
                    f"--{flag} is read by {' and '.join(readers)} only, "
                    f"not {args.command!r}"
                )
        return args.func(args)
    except InfeasibleRecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TomographyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
