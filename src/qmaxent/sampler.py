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
calibration, every row is then checked and mitigated. A lone row
(``sample_counts``, ``estimate_populations``, ``mitigate``) keeps the
bytes of a one-vector draw and matvec.

A measurement basis is its index sum(d_q 3^q), with digit d_q 0 for I
or Z on qubit q, 1 for X and 2 for Y. Its rotations (``_basis_reads``)
are made level by level over the stack: at qubit q, one H call rotates
every wanted prefix that takes X there, and one RZ(-pi/2) call then one
H call every prefix that takes Y, so a sweep makes at most 3n gate
calls, and only the prefixes of the bases it draws are built. Each row
has the bytes of the same gates applied to it alone by ``apply_gates``.
One distribution call reads every wanted basis. The rotated rows are
not checked: the norm and population sum of each state are checked
before its rotations (``circuit._sweep_states``, ``_population_failure``),
and a unitary rotation moves them by rounding only. The rotated stacks
of the wanted bases, about T |bases| 2^n 16 bytes, are alive at the
last level, with half as much again of distributions.

``_draw_slots`` interleaves the distributions into one matrix P of rows
to draw, theta outer: a sweep's rows per theta are, per K, its
populations and then each basis of its plan in plan order. P has about
T (K + 3^n - 1) 2^n 8 bytes, and the tallies and frequencies as much
again. A drawn row that fails the frequency check ends the rows: its
error is raised in the draw's place, after the rows before it.
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
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Iterable

import numpy as np

from .circuit import _FIXED_1Q, _apply_1q, _check_norm, _screen_rows, populations
from .errors import DomainError, ValidationError
from .linalg import _raise
from .pauli import PauliString, _check_basis_index, decompose_ketbra


@dataclass(frozen=True)
class ReadoutNoise:
    """Independent per-qubit readout flips.

    p01[q] is P(read 1 | true 0) and p10[q] is P(read 0 | true 1) on
    qubit q; both must lie in [0, 0.5].
    """

    p01: tuple[float, ...]
    p10: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "p01", tuple(float(p) for p in self.p01))
        object.__setattr__(self, "p10", tuple(float(p) for p in self.p10))
        if len(self.p01) != len(self.p10):
            raise ValidationError("p01 and p10 must cover the same qubits")
        for p in self.p01 + self.p10:
            if not np.isfinite(p):
                raise ValidationError(f"flip probability {p} is not finite")
            if not 0.0 <= p <= 0.5:
                raise ValidationError(f"flip probability {p} outside [0, 0.5]")

    @classmethod
    def uniform(cls, p01: float, p10: float, num_qubits: int) -> "ReadoutNoise":
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
        # A private read-only copy, so the cached condition number and
        # inverse stay valid.
        entries = np.array(self.entries, dtype=float)
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
        if np.abs(col_sums - 1.0).max() > 1e-12:
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
    """Qubit count of a state vector whose length must be a power of two."""
    size = sv.shape[0] if sv.ndim == 1 else -1
    if size < 2 or size & (size - 1):
        raise ValidationError(
            f"state vector of shape {sv.shape} is not 2^n amplitudes for n >= 1"
        )
    return size.bit_length() - 1


def _check_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")


# A multinomial draw takes its shot count as a C long.
_MAX_SHOTS = 2**63 - 1


def _check_shots(shots) -> None:
    if not isinstance(shots, (int, np.integer)) or shots < 1:
        raise ValidationError(f"shots must be an integer >= 1, got {shots!r}")
    if shots > _MAX_SHOTS:
        raise ValidationError(f"shots = {shots} is above the draw's limit 2^63 - 1")


def _frequency_failure(freqs: np.ndarray):
    """The first row of ``freqs`` that is not a distribution (>= 0 and
    summing to 1), as (index, ValidationError), or None."""
    # Non-finite entries fail too: a NaN makes the min NaN, a -inf the min
    # -inf, a +inf the sum non-finite, and +inf and -inf a reported NaN sum.
    with np.errstate(invalid="ignore"):
        low, total = freqs.min(axis=1, initial=np.inf), freqs.sum(axis=1)
    bad = np.flatnonzero(~((low >= 0) & (np.abs(total - 1) <= 1e-9)))
    if not bad.size:
        return None
    i = int(bad[0])
    return i, ValidationError(
        f"frequencies must be >= 0 and sum to 1, got min {low[i]}, sum {total[i]}"
    )


def _check_condition(cal: CalibrationMatrix) -> None:
    if cal.condition > 1e12:
        raise DomainError("calibration matrix is singular or ill-conditioned")


class _Readout:
    """The sampling kernel: a readout of n-qubit states, validated once.

    The constructor checks ``shots`` (None selects the exact mode), the
    noise model's qubit count and the mitigating calibration's shape and
    condition. ``distribution`` and ``draw`` then work on plain arrays;
    ``draw`` re-checks the frequencies before mitigation. The population
    sums of the states are the caller's to screen (``_population_failure``).
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
            _check_shots(shots)
        self.shots = shots
        self.matrix = None if noise is None else build_calibration(noise, num_qubits).entries
        self.inverse = None
        if calibration is not None:
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
            probs = probs / probs.sum(axis=-1, keepdims=True)
        return probs

    def tally(self, dists: np.ndarray, seed: int) -> np.ndarray:
        """A multinomial tally of each row of ``dists``, from one generator."""
        return np.random.default_rng(seed).multinomial(self.shots, dists)

    def draw(self, dists: np.ndarray, seed: int):
        """The frequencies of ``tally``'s draw of ``dists`` (``dists`` itself
        in the exact mode), mitigated with a calibration, and the first row
        that fails the frequency check as (index, ValidationError), or
        None. Only the rows before that one are returned."""
        freqs = dists if self.shots is None else self.tally(dists, seed) / self.shots
        if self.inverse is None:
            return freqs, None
        failure = _frequency_failure(freqs)
        if failure is not None:
            freqs = freqs[: failure[0]]
        return _unmix(self.inverse, freqs), failure


def _population_failure(states: np.ndarray):
    """The first row of a (T, 2^n) stack of states whose populations fail
    the sum check of ``circuit.populations``, as (index, ValidationError),
    or None. A unitary rotation moves the sum by rounding only, so the
    rotated rows of a screened stack are not screened again."""
    return _screen_rows((np.abs(states) ** 2).sum(axis=1), populations, states)


def _distribution(readout: _Readout, sv: np.ndarray) -> np.ndarray:
    """``readout.distribution`` of one state, its sum check raised."""
    _raise(_population_failure(sv[None]))
    return readout.distribution(sv[None])[0]


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
    _check_shots(shots)
    _check_seed(seed)
    sv = np.asarray(sv)
    readout = _Readout(_state_qubits(sv), shots, noise, None)
    return readout.tally(_distribution(readout, sv), seed)


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
    _check_seed(seed)
    sv = np.asarray(sv)
    readout = _Readout(_state_qubits(sv), shots, noise, calibration)
    freqs, failure = readout.draw(_distribution(readout, sv)[None], seed)
    _raise(failure)
    return freqs[0]


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
    freqs = np.asarray(freqs, dtype=float)
    if freqs.shape != (cal.dim,):
        raise ValidationError(
            f"calibration covers {cal.dim} outcomes, frequencies have shape {freqs.shape}"
        )
    _raise(_frequency_failure(freqs[None]))
    _check_condition(cal)
    return _unmix(cal.inverse, freqs[None])[0]


@lru_cache(maxsize=64)
def build_calibration(noise: ReadoutNoise, num_qubits: int) -> CalibrationMatrix:
    """Calibration matrix of a readout-noise model: the tensor product of
    the per-qubit confusion matrices, built once per model (memoized)."""
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
_H = _FIXED_1Q["h", None]
_DIGIT_GATES = ((), (_H,), (_FIXED_1Q["rz", -math.pi / 2], _H))
_DIGITS = {"I": 0, "Z": 0, "X": 1, "Y": 2}


def _group_bases(strings: tuple, num_qubits: int) -> dict:
    """The (string position, parity signs) pairs of each measurement basis,
    keyed by its index in the order of its first string: strings that
    differ only in I vs Z share one.

    A string's basis index is sum(d_q 3^q) over its letters' digits
    (``_DIGITS``). It is read in the Z basis after the gates of its
    digits (``_DIGIT_GATES``), in qubit order, and its mean is that of
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
    decomposition = decompose_ketbra(i, j, num_qubits)
    coeffs = tuple(decomposition.terms.values())
    groups = _group_bases(tuple(decomposition.terms), num_qubits)
    # Each of the 2^d bases reads 2^(n - d) strings (d bits of i-1, j-1 differ).
    signs = np.array([[s for _, s in reads] for reads in groups.values()]).transpose(0, 2, 1)
    weights = np.array([coeffs[p] for reads in groups.values() for p, _ in reads])
    signs.flags.writeable = weights.flags.writeable = False
    return tuple(groups), signs, weights


def _recombine(plan, freqs: np.ndarray) -> np.ndarray:
    """The mean of a |i><j| on each row of ``freqs``, the (T, bases, 2^n)
    frequencies of its plan's bases: the parity of every string, then one
    product with the coefficients."""
    _, signs, coeffs = plan
    means = np.einsum("tbi,bis->tbs", freqs, signs)
    return means.reshape(len(freqs), coeffs.size) @ coeffs


def _basis_reads(
    states: np.ndarray, num_qubits: int, bases: Iterable[int], readout: _Readout
) -> dict:
    """The distributions of a (T, 2^n) stack of states rotated into each
    basis of ``bases`` (basis indices), keyed by the basis.

    The rotations are made level by level. Level q + 1 holds one rotated
    stack per wanted prefix, the index of a wanted basis modulo 3^(q+1):
    each is its parent prefix at level q, rotated by the gates of its
    digit on qubit q. Every prefix that takes X at qubit q is rotated by
    one H call, and every one that takes Y by one RZ(-pi/2) call then one
    H call, each over all their rows: at most 3n gate calls. One
    distribution call then reads the leaves as one block. The rotations
    are unitary, so the rows are not checked again: the caller screens
    the unrotated stack.
    """
    wanted = set(bases)
    keys, stack = [0], states[None]
    for q in range(num_qubits):
        unit = 3**q
        level = sorted({b % (3 * unit) for b in wanted})
        parent = {key: i for i, key in enumerate(keys)}
        rotated = np.empty((len(level),) + states.shape, states.dtype)
        for digit, gates in enumerate(_DIGIT_GATES):
            at = [i for i, key in enumerate(level) if key // unit == digit]
            if not at:
                continue
            part = stack[[parent[level[i] - digit * unit] for i in at]]
            for u in gates:
                part = _apply_1q(part.reshape(-1, states.shape[-1]), u, q, num_qubits)
            rotated[at] = part.reshape(len(at), *states.shape)
        keys, stack = level, rotated
    return dict(zip(keys, readout.distribution(stack)))


def _draw_slots(readout: _Readout, slots: list, seed: int):
    """Draw every row of each of ``slots``, (count, 2^n) distribution
    stacks, in one ``readout.draw``: row i of slot s is draw
    i * len(slots) + s. A row that fails the frequency check ends the
    draws before it. Returns the (count, len(slots), 2^n) frequencies,
    zero from the first draw not made, the number of draws made, and the
    error that ended them, or None."""
    probs = np.stack(slots, axis=1)
    flat = probs.reshape(-1, probs.shape[2])
    drawn, failure = readout.draw(flat, seed)
    freqs = np.zeros_like(flat)
    freqs[: len(drawn)] = drawn
    end, error = failure or (len(flat), None)
    return freqs.reshape(probs.shape), end, error


def _lone_draw(sv: np.ndarray, num_qubits: int, bases, readout: _Readout, seed: int):
    """The (bases, 2^n) frequencies of ``bases`` (basis indices) on one
    state, whose norm and population sum are checked; failures raised."""
    _check_norm(sv)
    _raise(_population_failure(sv[None]))
    if not bases:
        return np.empty((0, 0))
    reads = _basis_reads(sv[None], num_qubits, bases, readout)
    freqs, _, error = _draw_slots(readout, [reads[r] for r in bases], seed)
    if error is not None:
        raise error
    return freqs[0]


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
    strings = tuple(strings)
    groups = _group_bases(strings, num_qubits)
    _check_seed(seed)
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
    _check_basis_index("i", i, 2**num_qubits)
    _check_basis_index("j", j, 2**num_qubits)
    if i == j:
        raise ValidationError("use populations for diagonal entries")
    # i != j, so every string has an X or a Y and none is the identity.
    plan = _ketbra_plan(i, j, num_qubits)
    _check_seed(seed)
    readout = _Readout(num_qubits, shots_per_setting, noise, calibration)
    freqs = _lone_draw(sv, num_qubits, plan[0], readout, seed)
    return complex(_recombine(plan, freqs[None])[0])
