"""Shot-based measurement backends with readout noise and mitigation.

A measured outcome distribution is a length-2^n vector indexed by basis
state - 1. The readout model is the calibration matrix M of independent
per-qubit flips: a state with populations p is read as M p, exactly in
the exact mode and as the tally of one ``multinomial(shots, M p)`` draw
in the sampled mode (the tally of i.i.d. outcomes with independent
per-shot flips has that law). All randomness flows through numpy's
default PCG64 generator seeded explicitly.

Every estimator takes a state vector and ``shots=None, noise=None,
seed=0, calibration=None``; ``shots=None`` selects the exact mode.
``estimate_paulis`` rotates and samples each measurement basis once:
strings that differ only in I vs Z share a basis. ``estimate_coherence``
measures |i><j| through a plan built once per (i, j, n): its bases, the
parity signs of the strings each reads, and their coefficients.

One sampling kernel, ``_Readout``, serves every estimator and the sweep.
It validates shots, noise and calibration once, then works on arrays.
``distribution(states)`` reads a (T, 2^n) stack of states, or a
(bases, T, 2^n) block of such stacks, through M and normalizes it, as
one product per stack. ``draw(dists, seed)`` is
one ``default_rng(seed).multinomial(shots, dists)`` call, which has the
bits of drawing its rows one at a time from that generator; with a
calibration, every row is then mitigated. A lone row
(``sample_counts``, ``estimate_populations``, ``mitigate``) keeps the
bytes of a one-vector draw and matvec.

A measurement basis is its index sum(d_q 3^q), with digit d_q 0 for I
or Z on qubit q, 1 for X and 2 for Y. Its rotations (``_basis_reads``)
are made level by level over the stack, each level's prefixes sorted by
index and so by their digit on its qubit q: one gather of their
parents, then one RZ(-pi/2) call on every wanted prefix that takes Y
there and one H call on every one that takes X or Y. So a sweep makes
at most 2n gate calls, and only the prefixes of the bases it draws are
built. Each row has the bytes of the same gates applied to it alone by
``apply_gates``. One distribution call reads every wanted basis as one
block, in a sweep the Z basis (index 0) too. The rotated rows are not
checked: the norm and population sum of each state are checked before
its rotations (``circuit._sweep_states``), and a unitary rotation moves
them by rounding only. The rotated stacks of the wanted bases, about
T |bases| 2^n 16 bytes, are alive at the last level, with half as much
again of distributions.

``_sweep_values`` measures a sweep, exact or sampled. A sampled sweep
draws one matrix P, one gather of the block, from one generator seeded
with the config seed. Its rows run
theta outer; per theta, per K, the Z basis and then each basis of K's
plan in plan order. P has about T (K + 3^n - 1) 2^n 8 bytes, and the
tallies and frequencies as much again. A draw mitigates its
frequencies unchecked, since each row is a distribution and so passes
the one-row check ``mitigate`` gives the frequencies it is handed
(``_check_frequencies``): a tally over shots is >= 0 and sums to 1
within 2^n ulps, and the exact p M^T of a screened state, M
column-stochastic with entries >= 0, sums to 1 within about 1e-10.
Each |i><j| is recombined for every theta at once: the string parities
as one product with the plan's signs, then one with its coefficients.

M is built once per noise model, its condition number and inverse on
first use. Mitigation applies the cached M^-1 to every row in one
product, and replaces each row left with a negative entry by its
Euclidean projection onto the probability simplex (sort, threshold,
clip; Smolin, Gambetta & Smith, PRL 108, 070502, 2012, also used by M3,
Nation et al., PRX Quantum 2, 040326, 2021).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .circuit import _FIXED_1Q, _apply_1q, _coherence, _state_vector, populations
from .errors import DomainError, ValidationError
from .linalg import MAX_QUBITS, _integer, _reals, _require, _shown
from .pauli import PauliString, decompose_ketbra

_COLUMN_SUM_ATOL = 1e-12  # the slack of a calibration column's sum
_FREQUENCY_SUM_ATOL = 1e-9  # the slack of the sum of frequencies to mitigate
_CONDITION_LIMIT = 1e12  # a calibration's largest condition number


@dataclass(frozen=True)
class ReadoutNoise:
    """Independent per-qubit readout flips.

    p01[q] is P(read 1 | true 0) and p10[q] is P(read 0 | true 1) on
    qubit q; both must lie in [0, 0.5].
    """

    p01: tuple[float, ...]
    p10: tuple[float, ...]

    def __post_init__(self):
        for name in ("p01", "p10"):
            object.__setattr__(self, name, tuple(_reals(name, getattr(self, name)).tolist()))
        if len(self.p01) != len(self.p10):
            raise ValidationError("p01 and p10 must cover the same qubits")
        for p in self.p01 + self.p10:
            if not np.isfinite(p):
                raise ValidationError(f"flip probability {p} is not finite")
            if not 0.0 <= p <= 0.5:
                raise ValidationError(f"flip probability {p} outside [0, 0.5]")

    @classmethod
    def uniform(cls, p01: float, p10: float, num_qubits: int) -> "ReadoutNoise":
        _integer("num_qubits", num_qubits, 0)
        return cls((p01,) * num_qubits, (p10,) * num_qubits)

    @property
    def num_qubits(self) -> int:
        return len(self.p01)


@dataclass(frozen=True)
class CalibrationMatrix:
    """Column-stochastic readout confusion matrix M[r, t] = P(read r | true t)."""

    num_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        _integer("num_qubits", self.num_qubits, 1, MAX_QUBITS)
        # A private read-only copy, so the cached condition number and
        # inverse stay valid.
        try:
            entries = np.array(self.entries, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"entries = {_shown(self.entries)} is not a matrix of real numbers"
            ) from None
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        dim = 2**self.num_qubits
        if entries.shape != (dim, dim):
            raise ValidationError(f"expected shape {(dim, dim)}, got {entries.shape}")
        bad = np.argwhere(~np.isfinite(entries))
        if bad.size:
            r, t = bad[0]
            raise ValidationError(
                f"calibration entry [{r}, {t}] = {entries[r, t]} is not finite"
            )
        if entries.min() < 0:
            raise ValidationError("calibration entries must be non-negative")
        col_sums = entries.sum(axis=0)
        if np.abs(col_sums - 1.0).max() > _COLUMN_SUM_ATOL:
            raise ValidationError("calibration columns must sum to 1")

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    @cached_property
    def condition(self) -> float:
        """2-norm condition number (one SVD per matrix)."""
        return float(np.linalg.cond(self.entries))

    @cached_property
    def inverse(self) -> np.ndarray:
        """M^-1, read-only, computed once per matrix. ``mitigate`` reads
        it only after ``condition`` has ruled out a singular M."""
        inverse = np.linalg.inv(self.entries)
        inverse.flags.writeable = False
        return inverse


def _noise_matrix_1q(p01: float, p10: float) -> np.ndarray:
    return np.array([[1 - p01, p10], [p01, 1 - p10]])


def _state_qubits(sv: np.ndarray) -> int:
    """Qubit count of a state vector, a 1-D numeric array whose length
    must be 2^n for n in [1, MAX_QUBITS]."""
    size = _state_vector(sv).shape[0]
    if size < 2 or size & (size - 1):
        raise ValidationError(
            f"state vector of shape {sv.shape} is not 2^n amplitudes for n >= 1"
        )
    num_qubits = size.bit_length() - 1
    _integer("qubit count of sv", num_qubits, 1, MAX_QUBITS)
    return num_qubits


# A multinomial draw takes its shot count as a C long.
_MAX_SHOTS = 2**63 - 1


def _check_frequencies(freqs: np.ndarray) -> None:
    """The check of frequencies given to ``mitigate``: a distribution,
    >= 0 and summing to 1. A draw's own rows pass it."""
    # Non-finite entries fail too: a NaN makes the min NaN, a -inf the min
    # -inf, a +inf the sum non-finite, and +inf and -inf a reported NaN sum.
    with np.errstate(invalid="ignore"):
        low, total = freqs.min(), freqs.sum()
    if not (low >= 0 and abs(total - 1) <= _FREQUENCY_SUM_ATOL):
        raise ValidationError(
            f"frequencies must be >= 0 and sum to 1, got min {low}, sum {total}"
        )


def _check_condition(cal: CalibrationMatrix) -> None:
    if cal.condition > _CONDITION_LIMIT:
        raise DomainError("calibration matrix is singular or ill-conditioned")


class _Readout:
    """The sampling kernel: a readout of n-qubit states, validated once.

    The constructor checks ``shots`` (None selects the exact mode), the
    noise model's type and qubit count and the mitigating calibration's
    type, shape and condition. ``distribution`` and ``draw`` then work on
    plain arrays. The states are the caller's to check: a sweep's stack
    is screened by ``circuit._sweep_states``, a lone state by
    ``populations``.
    """

    __slots__ = ("shots", "matrix", "inverse")

    def __init__(
        self,
        num_qubits: int,
        shots: int | None,
        noise: ReadoutNoise | None,
        calibration: CalibrationMatrix | None,
    ):
        if shots is not None:
            _integer("shots", shots, 1, _MAX_SHOTS)
        self.shots = shots
        self.matrix = None if noise is None else build_calibration(noise, num_qubits).entries
        self.inverse = None
        if calibration is not None:
            _require("calibration", calibration, CalibrationMatrix, "a CalibrationMatrix")
            dim = 2**num_qubits
            if calibration.dim != dim:
                raise ValidationError(
                    f"calibration covers {calibration.dim} outcomes, "
                    f"frequencies have shape {(dim,)}"
                )
            _check_condition(calibration)
            self.inverse = calibration.inverse

    def distribution(self, states: np.ndarray) -> np.ndarray:
        """|a_i|^2 of each row of a (T, 2^n) stack of states, or of a
        (bases, T, 2^n) block of stacks, read through the noise model's
        matrix and normalized for a draw in the sampled mode. A block's
        noise product is batched, one product per stack, which has the
        bits of a call on each stack."""
        probs = np.abs(states) ** 2
        if self.matrix is not None:
            probs = probs @ self.matrix.T
        if self.shots is not None:
            probs = probs / np.add.reduce(probs, axis=-1, keepdims=True)
        return probs

    def tally(self, dists: np.ndarray, seed: int) -> np.ndarray:
        """A multinomial tally of each row of ``dists``, from one generator."""
        return np.random.default_rng(seed).multinomial(self.shots, dists)

    def draw(self, dists: np.ndarray, seed: int) -> np.ndarray:
        """The frequencies of ``tally``'s draw of ``dists`` (``dists`` itself
        in the exact mode), mitigated with a calibration."""
        freqs = dists if self.shots is None else self.tally(dists, seed) / self.shots
        return freqs if self.inverse is None else _unmix(self.inverse, freqs)


def sample_counts(
    sv: np.ndarray,
    shots: int,
    noise: ReadoutNoise | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Tally of ``shots`` noisy readouts of a state vector: one multinomial
    draw, an int array of length 2^n indexed by basis state - 1."""
    # Checked here as well as by the readout, for which None is the
    # exact mode: a tally needs shots.
    _integer("shots", shots, 1, _MAX_SHOTS)
    _integer("seed", seed, 0)
    sv = np.asarray(sv)
    readout = _Readout(_state_qubits(sv), shots, noise, None)
    populations(sv)
    return readout.tally(readout.distribution(sv[None])[0], seed)


def estimate_populations(
    sv: np.ndarray,
    shots: int | None = None,
    noise: ReadoutNoise | None = None,
    seed: int = 0,
    calibration: CalibrationMatrix | None = None,
) -> np.ndarray:
    """Outcome distribution of a state vector, indexed by basis state - 1.

    ``shots=None`` gives the exact probabilities, with the noise model
    applied as its calibration matrix if one is given; otherwise the
    frequencies of ``shots`` seeded draws. A calibration matrix, when
    supplied, then corrects the distribution.
    """
    _integer("seed", seed, 0)
    sv = np.asarray(sv)
    num_qubits = _state_qubits(sv)
    readout = _Readout(num_qubits, shots, noise, calibration)
    return _lone_draw(sv, num_qubits, (0,), readout, seed)[0]


# At most 126 read-only arrays: num_qubits <= 6 and mask < 2^num_qubits.
@lru_cache(maxsize=None)
def _parity_signs(num_qubits: int, mask: int) -> np.ndarray:
    idx = np.arange(2**num_qubits)
    bits = idx & mask
    parity = np.zeros(idx.size, dtype=int)
    for q in range(num_qubits):
        parity ^= (bits >> q) & 1
    signs = 1.0 - 2.0 * parity
    signs.flags.writeable = False
    return signs


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of v onto {p >= 0, sum(p) = 1}:
    max(v - tau, 0) with the row's threshold tau that makes it sum to 1."""
    rows, dim = v.shape
    u = np.sort(v, axis=1)[:, ::-1]
    excess = np.cumsum(u, axis=1) - 1.0
    # Each row's last sorted entry above its prefix's threshold (the first is).
    above = u * np.arange(1, dim + 1) > excess
    last = dim - 1 - np.argmax(above[:, ::-1], axis=1)
    return np.maximum(v - (excess[np.arange(rows), last] / (last + 1))[:, None], 0.0)


def _unmix(inverse: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """M^-1 f of each row f of ``freqs`` where it is >= 0, else its
    projection onto the simplex."""
    unmixed = freqs @ inverse.T
    negative = ~(unmixed.min(axis=1, initial=np.inf) >= 0.0)
    if negative.any():
        unmixed[negative] = _project_simplex(unmixed[negative])
    return unmixed


def mitigate(freqs: np.ndarray, cal: CalibrationMatrix) -> np.ndarray:
    """Readout-corrected outcome probabilities for observed frequencies,
    which must be a distribution: finite, >= 0 and summing to 1.

    Returns M^-1 f from the calibration's cached inverse when it is >= 0,
    else its Euclidean projection onto the probability simplex (Smolin,
    Gambetta & Smith, PRL 108, 070502, 2012).
    """
    _require("cal", cal, CalibrationMatrix, "a CalibrationMatrix")
    try:
        freqs = np.asarray(freqs, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"freqs = {_shown(freqs)} is not an array of real numbers"
        ) from None
    if freqs.shape != (cal.dim,):
        raise ValidationError(
            f"calibration covers {cal.dim} outcomes, frequencies have shape {freqs.shape}"
        )
    _check_frequencies(freqs)
    _check_condition(cal)
    return _unmix(cal.inverse, freqs[None])[0]


def build_calibration(noise: ReadoutNoise, num_qubits: int) -> CalibrationMatrix:
    """Calibration matrix of a readout-noise model: the tensor product of
    the per-qubit confusion matrices, built once per model (memoized)."""
    # Checked before the cache, which hashes its arguments first.
    _require("noise", noise, ReadoutNoise, "a ReadoutNoise")
    _integer("num_qubits", num_qubits, 1, MAX_QUBITS)
    return _calibration(noise, num_qubits)


@lru_cache(maxsize=64)
def _calibration(noise: ReadoutNoise, num_qubits: int) -> CalibrationMatrix:
    if noise.num_qubits != num_qubits:
        raise ValidationError(
            f"noise covers {noise.num_qubits} qubit(s), asked for {num_qubits}"
        )
    singles = [
        _noise_matrix_1q(noise.p01[q], noise.p10[q]) for q in range(num_qubits)
    ]
    return CalibrationMatrix(num_qubits, reduce(np.kron, reversed(singles)))


# The gates that read a Pauli letter in the Z basis, in order, by the
# letter's digit of a basis index: none for I and Z (0), H for X (1), and
# RZ(-pi/2) then H for Y (2), the phase dagger then Hadamard up to a
# global phase.
_H, _RZ = _FIXED_1Q["h", None], _FIXED_1Q["rz", -math.pi / 2]
_DIGITS = {"I": 0, "Z": 0, "X": 1, "Y": 2}


def _group_bases(strings: tuple, num_qubits: int) -> dict:
    """The (string position, parity signs) pairs of each measurement basis,
    keyed by its index in the order of its first string: strings that
    differ only in I vs Z share one.

    A string's basis index is sum(d_q 3^q) over its letters' digits
    (``_DIGITS``). It is read in the Z basis after the gates of its
    digits, in qubit order, and its mean is that of
    (-1)^(parity of the outcome's bits on the qubits where it is not I).
    The all-identity string is rejected.
    """
    groups: dict[int, list] = {}
    for position, p in enumerate(strings):
        if not isinstance(p, PauliString):
            hint = f"; write PauliString(tuple({p!r}))" if isinstance(p, str) else ""
            raise ValidationError(f"{p!r} is not a PauliString{hint}")
        if p.num_qubits != num_qubits:
            raise ValidationError(
                f"string acts on {p.num_qubits} qubit(s), state has {num_qubits}"
            )
        if p.is_identity:
            raise ValidationError("all-identity string has mean 1 by definition")
        index, mask = 0, 0
        for q, letter in enumerate(p.letters):
            index += _DIGITS[letter] * 3**q
            if letter != "I":
                mask |= 1 << q
        groups.setdefault(index, []).append(
            (position, _parity_signs(num_qubits, mask))
        )
    return groups


# The plan of |i><j|: its basis indices, the (bases, 2^n, strings per
# basis) parity signs of the strings each reads and their coefficients in
# the same order, flattened. A 6-qubit sweep over every K keeps 63.
@lru_cache(maxsize=256)
def _ketbra_plan(i: int, j: int, num_qubits: int):
    terms = decompose_ketbra(i, j, num_qubits)
    coeffs = tuple(terms.values())
    groups = _group_bases(tuple(terms), num_qubits)
    # Each of the 2^d bases reads 2^(n - d) strings (d bits of i-1, j-1 differ).
    signs = np.array([[s for _, s in reads] for reads in groups.values()]).transpose(0, 2, 1)
    weights = np.array([coeffs[p] for reads in groups.values() for p, _ in reads])
    signs.flags.writeable = weights.flags.writeable = False
    return tuple(groups), signs, weights


def _draw_rows(k_targets, num_qubits: int) -> int:
    """The rows per theta that a sampled sweep draws (``_sweep_values``):
    each K's Z row and its plan's bases."""
    return sum(1 + len(_ketbra_plan(k, 1, num_qubits)[0]) for k in k_targets)


def _recombine(plan, freqs: np.ndarray) -> np.ndarray:
    """The mean of a |i><j| on each row of ``freqs``, the (T, bases, 2^n)
    frequencies of its plan's bases: the parity of every string, then one
    product with the coefficients."""
    _, signs, coeffs = plan
    means = np.einsum("tbi,bis->tbs", freqs, signs)
    return means.reshape(len(freqs), coeffs.size) @ coeffs


def _basis_reads(
    states: np.ndarray, num_qubits: int, bases: Iterable[int], readout: _Readout
) -> tuple[list, np.ndarray]:
    """The distributions of a (T, 2^n) stack of states rotated into each
    basis of ``bases`` (basis indices): the sorted indices, and the
    (indices, T, 2^n) block of their distributions in that order.

    The rotations are made level by level. Level q + 1 holds one rotated
    stack per wanted prefix, the index of a wanted basis modulo 3^(q+1),
    sorted, which orders them by their digit on qubit q. It is one gather
    of their parent prefixes at level q; then, in place, one RZ(-pi/2)
    call rotates the prefixes that take Y there and one H call those that
    take X or Y, each over all their rows: at most 2n gate calls. One
    distribution call then reads the leaves as one block. The rotations
    are unitary, so the rows are not checked again: the caller screens
    the unrotated stack.
    """
    wanted = set(bases)
    keys, stack = [0], states[None]
    for q in range(num_qubits):
        unit = 3**q
        level = sorted({b % (3 * unit) for b in wanted})
        stack = stack[[bisect_left(keys, key % unit) for key in level]]
        # The Y prefixes, then the X and Y prefixes.
        for start, u in ((bisect_left(level, 2 * unit), _RZ), (bisect_left(level, unit), _H)):
            if start < len(level):
                part = stack[start:]
                part[...] = _apply_1q(
                    part.reshape(-1, states.shape[-1]), u, q, num_qubits
                ).reshape(part.shape)
        keys = level
    return keys, readout.distribution(stack)


def _sweep_values(
    states: np.ndarray, num_qubits: int, k_targets: list, readout: _Readout, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The measured (x11, x1K, xKK) of every point of a sweep over
    ``states``, theta outer and K inner, as arrays.

    In the exact mode (``readout.shots`` None), point (theta i, K) reads
    row i: x11 and xKK from one distribution call of the stack, and x1K,
    rho[1, K] = a_0 conj(a_{K-1}), for every K and theta in one product.
    A sampled sweep reads one ``_basis_reads`` block that holds the Z
    basis and every basis of every K's plan. The matrix of rows to draw
    is one gather of it, and one ``readout.draw`` draws every row from
    one generator seeded with ``seed``. Each K reads x11 and xKK from its
    Z row and recombines x1K from its plan's rows.
    """
    if readout.shots is None:
        dists = readout.distribution(states)
        return (
            dists[:, 0].repeat(len(k_targets)),
            _coherence(states, np.array(k_targets), 1).ravel(),
            dists[:, [k - 1 for k in k_targets]].ravel(),
        )
    plans = [_ketbra_plan(k, 1, num_qubits) for k in k_targets]
    keys, block = _basis_reads(
        states, num_qubits, {0}.union(*(plan[0] for plan in plans)), readout
    )
    # One theta's rows: per K, the Z leaf, then its plan's bases.
    slots = np.searchsorted(keys, [b for plan in plans for b in (0, *plan[0])])
    count, dim = states.shape
    rows = (slots * count + np.arange(count)[:, None]).ravel()
    freqs = readout.draw(block.reshape(-1, dim)[rows], seed).reshape(count, len(slots), dim)
    starts = (slots == 0).nonzero()[0]
    x1k = np.array(
        [_recombine(plan, freqs[:, s + 1 : s + 1 + len(plan[0])]) for plan, s in zip(plans, starts)]
    ).T.ravel()
    return (
        freqs[:, starts, 0].ravel(), x1k,
        freqs[:, starts, [k - 1 for k in k_targets]].ravel(),
    )


def _lone_draw(sv: np.ndarray, num_qubits: int, bases, readout: _Readout, seed: int):
    """The (bases, 2^n) frequencies of ``bases`` (basis indices) on one
    state, whose population sum is checked first, as every lone-state
    estimator checks it."""
    populations(sv)
    if not bases:
        return np.empty((0, 0))
    keys, block = _basis_reads(sv[None], num_qubits, bases, readout)
    return readout.draw(block[np.searchsorted(keys, bases), 0], seed)


def estimate_paulis(
    sv: np.ndarray,
    strings: Iterable[PauliString],
    shots: int | None = None,
    noise: ReadoutNoise | None = None,
    seed: int = 0,
    calibration: CalibrationMatrix | None = None,
) -> dict[PauliString, float]:
    """Estimate <P> on a state vector for each string, one outcome
    distribution per measurement basis.

    Strings with equal basis rotations (they differ only in I vs Z) share
    a basis. Each basis rotates ``sv`` (from ``simulate``) once and takes
    its distribution as ``estimate_populations`` does; the bases draw in
    the order of their first strings from one generator seeded with
    ``seed``, and each string reads its parity there.
    """
    sv = np.asarray(sv)
    num_qubits = _state_qubits(sv)
    _require("strings", strings, Iterable, "an iterable of PauliStrings")
    strings = tuple(strings)
    groups = _group_bases(strings, num_qubits)
    _integer("seed", seed, 0)
    readout = _Readout(num_qubits, shots, noise, calibration)
    freqs = _lone_draw(sv, num_qubits, tuple(groups), readout, seed)
    return {
        strings[position]: float(signs @ f)
        for reads, f in zip(groups.values(), freqs)
        for position, signs in reads
    }


def estimate_coherence(
    sv: np.ndarray,
    i: int,
    j: int,
    shots_per_setting: int | None = None,
    noise: ReadoutNoise | None = None,
    seed: int = 0,
    calibration: CalibrationMatrix | None = None,
) -> complex:
    """Estimate the mean of |i><j| on a state vector by measuring its
    Pauli expansion as ``estimate_paulis`` does.

    |i><j| has 2^n strings in 2^d bases, d the number of bits where i - 1
    and j - 1 differ; each basis draws ``shots_per_setting`` shots. The
    statistical error of the recombined value scales as 1 / sqrt(shots).
    """
    sv = np.asarray(sv)
    num_qubits = _state_qubits(sv)
    _integer("basis index i", i, 1, 2**num_qubits)
    _integer("basis index j", j, 1, 2**num_qubits)
    if i == j:
        raise ValidationError("use populations for diagonal entries")
    # i != j, so every string has an X or a Y and none is the identity.
    plan = _ketbra_plan(i, j, num_qubits)
    _integer("seed", seed, 0)
    readout = _Readout(num_qubits, shots_per_setting, noise, calibration)
    freqs = _lone_draw(sv, num_qubits, plan[0], readout, seed)
    return complex(_recombine(plan, freqs[None])[0])
