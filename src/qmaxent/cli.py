"""Experiment harness and command-line entry point.

Sweeps a rotation angle through a circuit model, measures (x11, x1K) with
one of three backends (exact statevector, shot sampling, shot sampling
with readout noise and optional mitigation), predicts the unknown
population, reconstructs the density matrix both with and without the
true xKK, and emits the comparison as CSV.

Config files are flat "key value" lines; see ``load_config`` for the keys.
All randomness derives from the config seed: a sampled sweep makes one
generator, ``np.random.default_rng(seed)``, and one multinomial call on
it, one row per draw in the order ``sampler``'s docstring gives. Each K
draws its own populations.

``_sweep_points`` is the one sweep and ``Sweep`` the one result: the
kernels' arrays as columns, one row per point. ``_sweep_points`` returns
the measured columns of every row and the results of the solved rows;
``run_sweep`` alone scatters the results into every row, and
``run_case_ab`` keeps the solved rows, gathering only theta and K. The
``sweep`` and ``caseab`` CSVs are two views of them, formatted from the
columns. No per-point object is built between the kernels and the CSV.
Every CSV is written by one emitter (``_write_csv``) as one buffer, the
header and then a matrix of cells each led by its separator, filled in
place (the text ``'%.11e'`` gives by one numpy pass, ``_float_words``);
its nonzero bytes are one write to the file.
Files are read and written through the ``os`` calls, not Python's
buffered text stack, whose set-up costs more than a command's small
files: ``_read_text`` reads every input file, a config, a circuit file,
a record or a heatmap config, as UTF-8 whatever the locale, and
``_write`` writes every output file. An error of either names the path
as ``open`` would.
A command derives each of its inputs once: its config is validated once
(again only for a --seed or --out override), its ``abs_diff`` column is
computed once for the CSV and the printed median.
The sweep is three calls, one array entry per layer, and each does its
piece of work once. The circuit file is read once, by ``load_config``,
and its text is tokenized once; ``circuit._sweep_states`` binds every
theta into it at once and simulates one (thetas, 2^n) stack of states
from |0...0>, whose norms and population sums are screened in one pass.
The readout is validated once per sweep, and ``sampler._sweep_values``
measures (x11, x1K, xKK) of every point from the stack, in the exact or
the sampled mode. ``maxent._reconstruct_points`` checks the measured
values, predicts xKK and solves case A and case B of every point above
the floor, one call of each array kernel over them all. Each stage's
checks run before the next stage starts, so a theta that fails its
binding or its state check raises before any point is measured, and a
solve error before any fidelity error.
The theta grid is ``np.linspace``'s formula on Python floats (``_grid``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import circuits as bundled
from .circuit import _sweep_states, qubit_count
from .errors import InfeasibleRecordError, TomographyError, ValidationError
from .linalg import _INTEGERS, _integer, _number, _require, _shown
from .maxent import (
    _reconstruct_points,
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
    _MAX_SHOTS,
    ReadoutNoise,
    _draw_rows,
    _Readout,
    _sweep_values,
    build_calibration,
)

_BACKENDS = ("exact", "shots", "noisy")
# A command whose estimated peak memory is past _MAX_BYTES is refused
# before ``_grid`` builds an axis (``_check_size``). The estimate is
# _POINT_BYTES per point, a sweep's (theta, K) or a heatmap's cell, and
# _ENTRY_BYTES per entry of the (theta, row, outcome) block a sweep
# reads: one row per theta in the exact mode, ``sampler._draw_rows`` in
# a sampled one. Both costs bound the peak RSS measured per point and
# per entry of CLI runs near the limit (README, "Limits").
_MAX_BYTES = 2**30
_POINT_BYTES = 1000
_ENTRY_BYTES = 64

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
    # its circuit file once; None reads ``circuit_path`` when it runs. It
    # is not an init field, so ``dataclasses.replace`` leaves a copy None,
    # and a cache, so it takes no part in ``==`` and ``hash``.
    circuit_text: str | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        # The backend, then each field in order, its type then its range.
        if self.backend not in _BACKENDS:
            raise ValidationError(f"backend must be one of {_BACKENDS}")
        _require("circuit_path", self.circuit_path, (str, os.PathLike), "a path")
        # Checked, not cast: the fields keep the values given.
        _number("theta_start", self.theta_start)
        _number("theta_stop", self.theta_stop)
        _integer("theta_steps", self.theta_steps, 1)
        if not isinstance(self.k_targets, Sequence) or not all(
            isinstance(k, _INTEGERS) for k in self.k_targets
        ):
            raise ValidationError(
                f"k_targets = {_shown(self.k_targets)} is not a sequence of integers"
            )
        # The readout's rule; the exact backend reads no shots.
        if self.backend != "exact":
            _integer("shots", self.shots, 1, _MAX_SHOTS)
        elif self.shots is not None:
            _require("shots", self.shots, _INTEGERS, "an integer")
        if self.noise is not None:
            _require("noise", self.noise, ReadoutNoise, "a ReadoutNoise")
        _require("mitigate", self.mitigate, (bool, np.bool_), "a bool")
        _integer("seed", self.seed, 0)
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

    @functools.cached_property
    def abs_diff(self) -> np.ndarray:
        """|xkk_true - xkk_pred|, computed on first use and kept: the CSV
        and the printed median read the same column."""
        return np.abs(self.xkk_true - self.xkk_pred)

    @property
    def near_singular(self) -> np.ndarray:
        return ~self.solved | self.near_a | self.near_b

    def __len__(self) -> int:
        return len(self.solved)


# Windows would translate line ends in text mode.
_O_BINARY = getattr(os, "O_BINARY", 0)


def _read_text(path: str | os.PathLike) -> str:
    """The text of the file at ``path``, decoded as UTF-8 whatever the
    locale. Line ends are kept as they are: every reader of the text
    splits it with ``str.splitlines``, which reads CR LF and CR as a
    newline does. An ``OSError`` names ``path`` as ``open`` would; a file
    that is not UTF-8 raises a ValidationError naming it."""
    fd = os.open(path, os.O_RDONLY | _O_BINARY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except OSError as exc:
        # Linux opens a directory and fails its read, with no file name.
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    data = b"".join(chunks)
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{os.fspath(path)!r} is not UTF-8 text: byte {exc.start} "
            f"is {data[exc.start : exc.start + 1]!r}"
        ) from None


def resolve_circuit(spec_value: str) -> str:
    """Circuit text for a config value: a bundled name or a file path,
    read relative to the working directory unless absolute."""
    if spec_value in bundled.names():
        model = bundled.resource(spec_value)
        # A model on disk is read as any file; one in a zip by its loader.
        return _read_text(model) if isinstance(model, os.PathLike) else bundled.load(spec_value)
    try:
        return _read_text(spec_value)
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
            raise ValidationError(f"k target {_shown(k, str)} must be >= 2")
        if k > dim_n:
            raise ValidationError(f"k target {_shown(k, str)} exceeds dimension {dim_n}")
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
    _require("path", path, (str, os.PathLike), "a path")
    path = Path(path)
    values = parse_keyvals(_read_text(path), _CONFIG_KEYS, "config")
    if "circuit" not in values:
        raise ValidationError("config is missing the 'circuit' key")

    circuit_path = values["circuit"]
    if circuit_path not in bundled.names():
        circuit_path = str(path.parent / circuit_path)
    circuit_text = resolve_circuit(circuit_path)
    num_qubits = qubit_count(circuit_text)

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
    # Each entry is read as a k_targets value, so a bad one, an empty one
    # included, names the key.
    k_targets = ()
    if "k_targets" in values:
        k_targets = tuple(
            read_number({"k_targets": tok}, "k_targets", None, int)
            for tok in values["k_targets"].split(",")
        )
    cfg = ExperimentConfig(
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
    )
    object.__setattr__(cfg, "circuit_text", circuit_text)
    return cfg


def _grid(start: float, stop: float, num: int, axis: str) -> list[float]:
    """``np.linspace(start, stop, num).tolist()``, numpy's formula on
    Python floats: with d = stop - start, point i is i * (d / (num - 1))
    + start, or i / (num - 1) * d + start where that step underflows to
    zero, and the last point is stop; one point is 0 * d + start. A d
    that is not finite, which would give NaN and infinite points, is
    rejected by the ``axis`` name of its ends."""
    start, stop = float(start), float(stop)
    delta = stop - start
    if not math.isfinite(delta):
        raise ValidationError(
            f"{axis}_stop - {axis}_start = {stop!r} - {start!r} is not finite"
        )
    div = num - 1
    if div < 1:
        return [0.0 * delta + start] * num
    step = delta / div
    if step == 0:
        grid = [i / div * delta + start for i in range(num)]
    else:
        grid = [i * step + start for i in range(num)]
    grid[-1] = stop
    return grid


def _check_size(what: str, points: int, entries: int = 0) -> None:
    """Refuse a command whose estimated peak memory is past ``_MAX_BYTES``."""
    size = points * _POINT_BYTES + entries * _ENTRY_BYTES
    if size > _MAX_BYTES:
        raise ValidationError(
            f"{what} would need about {_shown(-(-size // 2**20), str)} MiB, past the "
            f"{_MAX_BYTES >> 20} MiB one command may use"
        )


def _sweep_points(cfg: ExperimentConfig) -> tuple[tuple, tuple]:
    """Measure and reconstruct every (theta, K) point, theta outer, K inner.

    Returns the measured columns of every row, (theta, k, x11, x1K, xKK
    true, solved), and the solved rows' columns in ``Sweep``'s field
    order (``maxent._reconstruct_points``).

    Every point, floor points included, is measured first
    (``sampler._sweep_values``); then ``maxent._reconstruct_points``
    predicts and solves the points above the floor. The first failing
    stage raises its first failing point's error: the circuit's
    theta-free parse, the config and the readout, the binding and the
    states (``circuit._sweep_states``), the measured values, the
    completion and solve step by step, then the fidelity.
    """
    _require("cfg", cfg, ExperimentConfig, "an ExperimentConfig")
    circuit_text = cfg.circuit_text
    if circuit_text is None:
        circuit_text = resolve_circuit(cfg.circuit_path)
    num_qubits = qubit_count(circuit_text)
    if num_qubits < 2:
        raise ValidationError(
            "reconstruction needs at least 2 qubits (no unconstrained "
            "states remain in a 1-qubit system)"
        )
    dim_n = 2**num_qubits
    k_targets = _k_targets(cfg.k_targets, dim_n)
    rows = 1 if cfg.backend == "exact" else _draw_rows(k_targets, num_qubits)
    _check_size(
        f"theta_steps = {_shown(cfg.theta_steps, str)} over {len(k_targets)} K target(s) "
        f"on {num_qubits} qubits, backend {cfg.backend},",
        cfg.theta_steps * len(k_targets),
        cfg.theta_steps * rows * dim_n,
    )
    if cfg.theta_steps == 1:
        thetas = [float(cfg.theta_start)]
    else:
        thetas = _grid(cfg.theta_start, cfg.theta_stop, cfg.theta_steps, "theta")
    # The exact backend reads exact probabilities whatever the config's shots.
    shots = None if cfg.backend == "exact" else cfg.shots
    calibration = build_calibration(cfg.noise, num_qubits) if cfg.mitigate else None
    readout = _Readout(num_qubits, shots, cfg.noise, calibration)
    # One stack of states serves every K target and Pauli setting.
    states = _sweep_states(circuit_text, thetas)
    x11, x1k, xkk_true = _sweep_values(states, num_qubits, k_targets, readout, cfg.seed)
    solved, solved_rows = _reconstruct_points(dim_n, x11, x1k, xkk_true)
    theta, k = np.array(thetas).repeat(len(k_targets)), np.array(k_targets * len(thetas))
    return (theta, k, x11, x1k, xkk_true, solved), solved_rows


def run_sweep(cfg: ExperimentConfig) -> Sweep:
    """Every (theta, K) point, theta outer, K inner. A point whose x11 sits
    at the degeneracy floor is kept, flagged near_singular, not raised."""
    (theta, k, x11, x1k, xkk_true, solved), solved_rows = _sweep_points(cfg)
    _, _, _, xkk_pred, fidelity, lams_a, near_a, lams_b, near_b = solved_rows

    def every_row(values, fill):
        # The solved rows' values scattered into a column of every row.
        column = np.full(len(solved), fill, values.dtype)
        column[solved] = values
        return column

    return Sweep(
        theta, k, x11, x1k, xkk_true, every_row(xkk_pred, math.nan), every_row(fidelity, math.nan),
        tuple(every_row(v, math.nan) for v in lams_a), every_row(near_a, False),
        tuple(every_row(v, math.nan) for v in lams_b), every_row(near_b, False),
        solved,
    )


def run_case_ab(cfg: ExperimentConfig) -> Sweep:
    """The points of ``run_sweep`` that have a case A and a case B
    reconstruction to compare, in the same order: the floor points are
    left out."""
    (theta, k, _, _, _, solved), solved_rows = _sweep_points(cfg)
    return Sweep(theta[solved], k[solved], *solved_rows, np.ones(len(solved_rows[0]), bool))


def _fmt(value: float) -> str:
    return f"{value:.11e}"


# A CSV cell is five 4-byte words: its separator, a comma or in the first
# column the newline that ends the line before, then its text, then zero
# bytes, which mark absent bytes; no CSV byte is zero. The longest ``_fmt``
# text, "-4.94065645841e-324", fills a cell.
_CELL = 20
# Row i: the four ASCII digits of i < 10^4, read as one word.
_DIGITS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T) + ord("0")
_WORDS = _DIGITS.view(np.uint32).ravel()
# The exponent tables are indexed by e + _E0 for a decimal exponent e:
# floor(log10 |x|) of a nonzero double, or one more or less, is in range.
_E0 = 340


def _heads() -> np.ndarray:
    """Row j, entry 2h + s: the 4-byte word j of a comma, the sign s and
    the first four digits h of a mantissa, as ",-D.DDD" (s = 1) or
    ",D.DDD" (s = 0), zero-padded. Each row is its own contiguous table."""
    heads = np.zeros((10**4, 2, 8), np.uint8)
    heads[:, :, 0] = ord(",")
    heads[:, 0, 1] = _DIGITS[:, 0]
    heads[:, 0, 2] = ord(".")
    heads[:, 0, 3:6] = _DIGITS[:, 1:]
    heads[:, 1, 1] = ord("-")
    heads[:, 1, 2:7] = heads[:, 0, 1:6]
    return np.ascontiguousarray(heads.view(np.uint32).reshape(-1, 2).T)


def _exponents() -> np.ndarray:
    """Word e + _E0: the exponent e as "e+05" or "e-12". Only |e| <= 99 is
    read; a longer exponent's word holds its last two digits."""
    e = np.arange(-_E0, _E0 + 1)
    words = np.empty((len(e), 4), np.uint8)
    words[:, 0] = ord("e")
    words[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    words[:, 2:] = _DIGITS[np.abs(e), 2:]
    return words.view(np.uint32).ravel()


def _scale_factors() -> tuple[np.ndarray, np.ndarray]:
    """Two tables (F1, F2) whose entries e + _E0 split 10^p, p = 11 - e,
    into two factors, 10^p = F1 F2, for |p| <= 44; F1 is NaN beyond. Each
    factor is an exact power of ten from 10^0 to 10^22, or the correctly
    rounded reciprocal of one (Python divides its ints with one rounding).
    Each table is its own contiguous array, so that a lookup reads one
    table."""

    def power(q: int) -> float:
        return float(10**q) if q >= 0 else 1 / 10**-q

    first, second = np.full(2 * _E0 + 1, math.nan), np.ones(2 * _E0 + 1)
    for p in range(-44, 45):
        f = min(max(p, -22), 22)
        first[11 + _E0 - p], second[11 + _E0 - p] = power(f), power(p - f)
    return first, second


def _cell_words(texts) -> np.ndarray:
    """Each ASCII text as the five words of one zero-padded cell."""
    data = "".join(t.ljust(_CELL, "\0") for t in texts).encode("ascii")
    return np.frombuffer(data, np.uint32).reshape(-1, _CELL // 4)


def _integer_words() -> np.ndarray:
    """Word n: the digits of the integer n < 10^4, its leading zeros zero
    bytes. An integer's cell is ``_COMMA_WORDS`` with this word second."""
    digits = _DIGITS.copy()
    for j, power in enumerate((1000, 100, 10)):
        digits[:power, j] = 0
    return digits.view(np.uint32).ravel()


_HEADS_1, _HEADS_2 = _heads()
_EXPONENTS = _exponents()
_F1, _F2 = _scale_factors()
_INTEGER_WORDS = _integer_words()
_BOOL_WORDS = _cell_words((",false", ",true"))
_COMMA_WORDS = _cell_words((",",))[0]


def _scale(a: np.ndarray, i: np.ndarray) -> np.ndarray:
    """a * 10^(11 - e) for the table index i = e + _E0, with at most four
    roundings: two gathers and two products in place."""
    m = _F1[i]
    m *= a
    m *= _F2[i]
    return m


def _float_words(columns: tuple[np.ndarray, ...], words: np.ndarray) -> None:
    """Write the cell of every value of ``columns``, a comma and the
    ``_fmt`` text, as its five words ``words[row, column]``.

    The 12 digits of a value are rint(m) for m = |x| 10^(11 - e), where the
    exponent e starts from floor(log10 |x|) and exact comparisons of m
    with 10^11 and 10^12 correct it, so the last bits of log10 never reach
    the text. m carries at most four roundings (``_scale``: two factors,
    each exact or correctly rounded, and two products), a relative error
    below 4.5e-16 and so an error below 4.5e-4 on m < 10^12; rint(m) is
    the correctly rounded mantissa unless m lies within 1e-3 of a rounding
    tie. Such a value, one that needs a power of ten beyond 10^44 (a NaN
    m), NaN and +-inf, and any value whose corrected m still lies outside
    [10^11, 10^12) (a log10 off by more than one) are written by ``_fmt``.

    Each (rows, columns) array is freed or written over as soon as it is
    dead: at most four are live at once, which keeps a command's peak heap,
    and so its page faults, small.
    """
    a = np.array(columns).T
    negative = np.signbit(a)
    np.abs(a, out=a)
    nonzero = a != 0
    nonzero &= np.isfinite(a)
    with np.errstate(all="ignore"):
        i = np.where(nonzero, a, 1.0)
        np.log10(i, out=i)
        np.floor(i, out=i)
        i = i.astype(np.intp)
        i += _E0
        m = _scale(a, i)
        off = (m < 1e11) | (m >= 1e12)
        off &= nonzero
        if off.any():
            i[off] += np.where(m[off] < 1e11, -1, 1)
            fixed = _scale(a[off], i[off])
            fixed[(fixed < 1e11) | (fixed >= 1e12)] = math.nan
            m[off] = fixed
        d = np.rint(m)
        m -= d
        np.abs(m, out=m)
        fast = m < 0.499
        del m
        # A NaN d, a value written by _fmt, becomes a number to split.
        np.fmin(d, 1e12, out=d)
        carry = d == 1e12
        d[carry] = 1e11
        i += carry
    words[..., 4] = _EXPONENTS[i]
    del i
    # The digits split in place, by floor division by a constant, not
    # np.divmod: numpy divides an integer array by a scalar with a
    # multiply and a shift.
    low = d.astype(np.int64)
    del d
    middle = low // 10**4
    low -= middle * 10**4
    words[..., 3] = _WORDS[low]
    high = np.floor_divide(middle, 10**4, out=low)
    middle -= high * 10**4
    words[..., 2] = _WORDS[middle]
    del middle
    high *= 2
    high += negative
    words[..., 0] = _HEADS_1[high]
    words[..., 1] = _HEADS_2[high]
    if not fast.all():
        slow = (~fast).nonzero()
        values = a[slow]
        np.negative(values, out=values, where=negative[slow])
        words[slow] = _cell_words("," + _fmt(v) for v in values.tolist())


def _write(data: bytes | bytearray, path: str | Path | None) -> None:
    """Write ``data``, bytes of text, to ``path``, or to stdout when
    ``path`` is None. A short write is followed by another until every
    byte is out."""
    if path is None:
        sys.stdout.write(data.decode())
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | _O_BINARY, 0o666)
    try:
        done = os.write(fd, data)
        while done < len(data):
            done += os.write(fd, memoryview(data)[done:])
    finally:
        os.close(fd)


def _write_lines(lines: list[str], path: str | Path | None) -> None:
    """Write a header and its rows as LF-terminated lines to ``path``, or
    to stdout when ``path`` is None. No timestamps: the bytes are a pure
    function of the lines."""
    _write(("\n".join(lines) + "\n").encode(), path)


def _write_csv(header: str, columns: tuple[np.ndarray, ...], path: str | Path) -> None:
    """Write ``columns`` under ``header`` as CSV, one row per index: a
    float as ``_fmt`` writes it, an integer in 0..9999 in decimal (the
    only integer column is K, at most 2^6), a bool as true/false.

    The file is built in one zero-filled buffer: the header, padded to a
    word boundary, then a (rows, columns) matrix of cells (see ``_CELL``),
    each led by its separator, then a newline word that ends the last row.
    Every column is formatted as floats by one ``_float_words`` call, and
    the integer and bool cells are written over theirs from word tables;
    the newlines of the first column replace its commas. The buffer's zero
    bytes are dropped by ``bytearray.translate``, which costs a command
    less than a boolean mask's gather, and the result is written at once.
    """
    rows = len(columns[0])
    if rows == 0:
        raise ValidationError("no rows to emit")
    head = header.encode()
    start = -(-len(head) // 4)
    buf = bytearray(4 * start + rows * len(columns) * _CELL + 4)
    buf[: len(head)] = head
    words = np.frombuffer(buf, np.uint32)
    words[-1] = ord("\n")
    cells = words[start:-1].reshape(rows, len(columns), _CELL // 4)
    _float_words(columns, cells)
    for i, column in enumerate(columns):
        if column.dtype.kind == "b":
            cells[:, i] = _BOOL_WORDS[column.view(np.uint8)]
        elif column.dtype.kind in "iu":
            cells[:, i] = _COMMA_WORDS
            cells[:, i, 1] = _INTEGER_WORDS[column]
    cells.view(np.uint8)[:, 0, 0] = ord("\n")
    _write(buf.translate(None, b"\0"), path)


SWEEP_HEADER = "theta,k,x11,re_x1k,im_x1k,xkk_true,xkk_pred,abs_diff,fidelity,near_singular"


def emit_csv(s: Sweep, path: str | Path) -> None:
    """Write a sweep's rows as CSV with 12-significant-digit values."""
    _require("s", s, Sweep, "a Sweep")
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
    _require("s", s, Sweep, "a Sweep")
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
    values = parse_keyvals(_read_text(path), _HEATMAP_KEYS, "heatmap")
    params = {
        "dim_n": read_number(values, "n", 4, int),
        "index_k": read_number(values, "k", 2, int),
        "lam_kk": read_number(values, "lam_kk", 0.0),
        "im_lam1k": read_number(values, "im_lam1k", 0.0),
        "out": values.get("out"),
    }
    axes = ("lam11", "re_lam1k")
    steps = [read_number(values, f"{axis}_steps", 21, int) for axis in axes]
    for axis, num in zip(axes, steps):
        if num < 1:
            raise ValidationError(f"{axis}_steps = {num} is below 1")
    _check_size(f"lam11_steps * re_lam1k_steps = {steps[0]} * {steps[1]}", steps[0] * steps[1])
    for axis, num in zip(axes, steps):
        params[axis] = _grid(
            read_number(values, f"{axis}_start", -3.0),
            read_number(values, f"{axis}_stop", 3.0),
            num,
            axis,
        )
    return params


def emit_heatmap_csv(scan, path: str | Path) -> None:
    """Write the ``heatmap_scan`` columns (lam11, lam1K, x11, x1K) as CSV."""
    lam11, lam1k, x11, x1k = scan
    _write_csv(HEATMAP_HEADER, (lam11, lam1k.real, lam1k.imag, x11, x1k.real, x1k.imag), path)


def _cmd_reconstruct(args) -> int:
    completed, ls = solve_record(load_record(_read_text(args.record)))
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
    """The config with the command line's --seed and --out; without
    either it is ``cfg`` itself, not validated again."""
    if args.seed is None and args.out is None:
        return cfg
    copy = dataclasses.replace(
        cfg,
        seed=cfg.seed if args.seed is None else args.seed,
        output_path=cfg.output_path if args.out is None else args.out,
    )
    # The same circuit_path, so the same text.
    object.__setattr__(copy, "circuit_text", cfg.circuit_text)
    return copy


def _median(values: np.ndarray) -> float:
    """The median of a non-empty, NaN-free column, from one sort: the
    middle value, or the mean of the two middle ones, as ``np.median``
    gives it, without its Python wrapper."""
    s = np.sort(values)
    m = len(s) // 2
    return float(s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2)


def _cmd_sweep(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    sweep = run_sweep(cfg)
    out = cfg.output_path or "sweep.csv"
    emit_csv(sweep, out)
    diffs = sweep.abs_diff
    diffs = diffs[~np.isnan(diffs)]
    median = _median(diffs) if diffs.size else math.nan
    print(f"wrote {len(sweep)} rows to {out} (median abs_diff {median:.3e})")
    return 0


def _cmd_caseab(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    sweep = run_case_ab(cfg)
    out = cfg.output_path or "caseab.csv"
    emit_caseab_csv(sweep, out)
    median = _median(sweep.abs_diff)
    print(
        f"wrote {len(sweep)} rows to {out} (median abs_diff {median:.3e}, "
        f"min fidelity {min(sweep.fidelity.tolist()):.6f})"
    )
    return 0


def _cmd_heatmap(args) -> int:
    params = load_heatmap_config(args.config)
    scan = heatmap_scan(
        params["lam11"],
        params["re_lam1k"],
        lam_kk=params["lam_kk"],
        im_lam1k=params["im_lam1k"],
        dim_n=params["dim_n"],
        index_k=params["index_k"],
    )
    out = args.out or params["out"] or "heatmap.csv"
    emit_heatmap_csv(scan, out)
    print(f"wrote {len(scan[0])} rows to {out}")
    return 0


def _cmd_decompose(args) -> int:
    terms = decompose_ketbra(args.i, args.j, args.n)
    if args.format == "csv":
        lines = ["string,re_coeff,im_coeff"]
        for ps, coeff in terms.items():
            lines.append(f"{ps},{coeff.real!r},{coeff.imag!r}")
    else:
        width = max(len(str(ps)) for ps in terms)
        lines = [f"|{args.i}><{args.j}| on {args.n} qubit(s):"]
        for ps, coeff in terms.items():
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
