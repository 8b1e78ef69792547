"""Shot-based measurement backends with readout noise and mitigation.

Sampling draws i.i.d. bitstrings from the squared amplitudes and then
applies independent per-qubit readout flips. All randomness flows through
numpy's default PCG64 generator seeded explicitly; multi-setting
estimators derive sub-seeds as seed + setting index, so results do not
depend on evaluation order. Passing ``shots=None`` to the estimators
selects the exact (infinite-shot) mode, which runs the same code path on
exact outcome probabilities.

The estimators take a prepared state vector, so a circuit is simulated
once per parameter value and each Pauli setting applies only its basis
rotations to that state. A calibration matrix is built once and reused:
its condition number is computed on first use. Mitigation solves
``M p = f`` directly and, when that leaves negative entries, solves
``min ||M p - f||^2`` over the probability simplex exactly with a small
active-set method (the constrained treatment of Smolin, Gambetta & Smith,
PRL 108, 070502, 2012, on the dense N <= 64 problems of M3, Nation et
al., PRX Quantum 2, 040326, 2021).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Mapping

import numpy as np

from .circuit import Circuit, Gate, apply_gates, populations, simulate
from .errors import DomainError, ParseError, TomographyError, ValidationError
from .pauli import PauliString, decompose_ketbra, expectation_from_paulis, measurement_settings


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
            if not 0.0 <= p <= 0.5:
                raise ValidationError(f"flip probability {p} outside [0, 0.5]")

    @classmethod
    def uniform(cls, p01: float, p10: float, num_qubits: int) -> "ReadoutNoise":
        return cls((p01,) * num_qubits, (p10,) * num_qubits)

    @property
    def num_qubits(self) -> int:
        return len(self.p01)


@dataclass(frozen=True)
class CountsTable:
    """Bitstring counts from one measured setting (qubit 0 rightmost)."""

    num_qubits: int
    shots: int
    counts: Mapping[str, int]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "counts", dict(self.counts))
        if self.shots < 1:
            raise ValidationError("shots must be >= 1")
        for key, value in self.counts.items():
            if len(key) != self.num_qubits or set(key) - {"0", "1"}:
                raise ValidationError(f"bad bitstring key {key!r}")
            if value < 0:
                raise ValidationError(f"negative count for {key!r}")
        if sum(self.counts.values()) != self.shots:
            raise ValidationError("counts do not sum to shots")


@dataclass(frozen=True)
class CalibrationMatrix:
    """Column-stochastic readout confusion matrix M[r, t] = P(read r | true t)."""

    num_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        # A private read-only copy, so the cached condition number stays valid.
        entries = np.array(self.entries, dtype=float)
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        dim = 2**self.num_qubits
        if entries.shape != (dim, dim):
            raise ValidationError(f"expected shape {(dim, dim)}, got {entries.shape}")
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


def sample_counts(
    sv: np.ndarray,
    shots: int,
    noise: ReadoutNoise | None = None,
    seed: int = 0,
) -> CountsTable:
    """Draw ``shots`` bitstrings from |a_i|^2, then apply readout flips."""
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    sv = np.asarray(sv)
    num_qubits = _state_qubits(sv)
    probs = populations(sv)
    if noise is not None and noise.num_qubits != num_qubits:
        raise ValidationError(
            f"noise covers {noise.num_qubits} qubit(s), state has {num_qubits}"
        )
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(probs.size, size=shots, p=probs / probs.sum())
    if noise is not None:
        for q in range(num_qubits):
            # P(flip) is p01 where bit q reads 0 and p10 where it reads 1.
            flip_prob = np.array([noise.p01[q], noise.p10[q]])[(outcomes >> q) & 1]
            outcomes[rng.random(shots) < flip_prob] ^= 1 << q
    tallies = np.bincount(outcomes, minlength=probs.size).tolist()
    counts = {
        format(v, f"0{num_qubits}b"): c for v, c in enumerate(tallies) if c
    }
    return CountsTable(num_qubits, shots, counts, seed)


def estimate_populations(ct: CountsTable) -> np.ndarray:
    """Observed frequency of each basis state, indexed by basis state - 1."""
    freqs = np.zeros(2**ct.num_qubits)
    for key, value in ct.counts.items():
        freqs[int(key, 2)] = value / ct.shots
    return freqs


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


def _simplex_least_squares(m: np.ndarray, f: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Exact minimiser of ||M p - f||^2 over p >= 0, sum(p) = 1.

    A primal active-set method started from ``start`` clipped to the
    simplex. Each step solves the KKT system of the equality-constrained
    problem on the free set

        [G_FF  1] [p_F]   [t_F]
        [1^T   0] [eta] = [ 1 ],    G = M^T M,  t = M^T f,

    and either moves towards its solution until a free entry reaches zero
    (that entry joins the zero set) or, when the solution is feasible,
    frees the zero-set entry with the most negative multiplier
    (G p - t)_i + eta. It stops when every such multiplier is >= 0.
    """
    gram = m.T @ m
    target = m.T @ f
    # sum(start) = sum(f) = 1 for a column-stochastic M, so the clipped
    # start has a positive sum.
    p = np.maximum(start, 0.0)
    p /= p.sum()
    free = p > 0.0
    tol = 1e-14 * max(1.0, float(np.abs(target).max()))
    for _ in range(10 * f.size + 10):
        idx = np.flatnonzero(free)
        size = idx.size
        kkt = np.ones((size + 1, size + 1))
        kkt[:size, :size] = gram[np.ix_(idx, idx)]
        kkt[size, size] = 0.0
        solution = np.linalg.solve(kkt, np.append(target[idx], 1.0))
        x, eta = solution[:size], solution[size]
        if x.min() >= 0.0:
            p = np.zeros(f.size)
            p[idx] = x
            multipliers = gram @ p - target + eta
            multipliers[free] = np.inf
            release = int(np.argmin(multipliers))
            if multipliers[release] >= -tol:
                return p
            free[release] = True
            continue
        current = p[idx]
        blocking = x < 0.0
        ratios = current[blocking] / (current[blocking] - x[blocking])
        step = ratios.min()
        p[idx] = current + step * (x - current)
        hit = idx[blocking][ratios == step]
        p[hit] = 0.0
        free[hit] = False
    raise TomographyError("constrained mitigation solve did not converge")


def _mitigation_solve(freqs: np.ndarray, cal: CalibrationMatrix) -> np.ndarray:
    if cal.condition > 1e12:
        raise DomainError("calibration matrix is singular or ill-conditioned")
    direct = np.linalg.solve(cal.entries, freqs)
    if direct.min() >= 0.0:
        return direct
    return _simplex_least_squares(cal.entries, freqs, direct)


def mitigate(ct: CountsTable, cal: CalibrationMatrix) -> np.ndarray:
    """Readout-corrected outcome probabilities for a counts table."""
    if cal.num_qubits != ct.num_qubits:
        raise ValidationError(
            f"calibration covers {cal.num_qubits} qubit(s), counts have {ct.num_qubits}"
        )
    return _mitigation_solve(estimate_populations(ct), cal)


def build_calibration(
    noise: ReadoutNoise,
    num_qubits: int,
    shots: int | None = None,
    seed: int = 0,
) -> CalibrationMatrix:
    """Calibration matrix of a readout-noise model.

    With ``shots=None`` the exact tensor product of the per-qubit confusion
    matrices is returned. Otherwise each basis state is prepared (X gates
    on its set bits) and sampled, and the observed frequencies become the
    matrix columns.
    """
    if noise.num_qubits != num_qubits:
        raise ValidationError(
            f"noise covers {noise.num_qubits} qubit(s), asked for {num_qubits}"
        )
    if shots is None:
        singles = [
            _noise_matrix_1q(noise.p01[q], noise.p10[q]) for q in range(num_qubits)
        ]
        entries = reduce(np.kron, reversed(singles))
        return CalibrationMatrix(num_qubits, entries)
    dim = 2**num_qubits
    entries = np.zeros((dim, dim))
    for true_state in range(dim):
        gates = tuple(
            Gate("x", (q,)) for q in range(num_qubits) if (true_state >> q) & 1
        )
        sv = simulate(Circuit(num_qubits, gates))
        table = sample_counts(sv, shots, noise, seed + true_state)
        entries[:, true_state] = estimate_populations(table)
    return CalibrationMatrix(num_qubits, entries)


def estimate_pauli(
    sv: np.ndarray,
    p: PauliString,
    shots: int | None = None,
    noise: ReadoutNoise | None = None,
    seed: int = 0,
    calibration: CalibrationMatrix | None = None,
) -> float:
    """Estimate <P> on a state vector by rotating it into the Z basis and
    reading the parity of the outcomes.

    Only the setting's basis rotations are applied to ``sv`` (from
    ``simulate``). ``shots=None`` uses exact outcome probabilities (with
    the noise model applied as its calibration matrix, if given);
    otherwise probabilities come from seeded sampling. A calibration
    matrix, when supplied, corrects the outcome distribution before the
    parity average.
    """
    sv = np.asarray(sv)
    num_qubits = _state_qubits(sv)
    if p.num_qubits != num_qubits:
        raise ValidationError(
            f"string acts on {p.num_qubits} qubit(s), state has {num_qubits}"
        )
    setting = measurement_settings(p)
    rotated = apply_gates(sv, setting.rotations, num_qubits)
    if shots is None:
        freqs = populations(rotated)
        if noise is not None:
            freqs = build_calibration(noise, num_qubits).entries @ freqs
    else:
        freqs = estimate_populations(sample_counts(rotated, shots, noise, seed))
    if calibration is not None:
        freqs = _mitigation_solve(freqs, calibration)
    return float(_parity_signs(num_qubits, setting.parity_mask) @ freqs)


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
    Pauli expansion.

    Each non-identity string is estimated with its own sub-seeded stream
    (seed + setting index); the statistical error of the recombined value
    scales as 1 / sqrt(shots).
    """
    if i == j:
        raise ValidationError("use populations for diagonal entries")
    sv = np.asarray(sv)
    decomposition = decompose_ketbra(i, j, _state_qubits(sv))
    means: dict[PauliString, float] = {}
    for offset, ps in enumerate(decomposition.terms):
        if ps.is_identity:
            continue
        means[ps] = estimate_pauli(
            sv, ps, shots_per_setting, noise, seed + offset, calibration
        )
    return expectation_from_paulis(decomposition, means)


# Flat text form: header lines "shots <n>" and "seed <s>", then one
# "<bitstring> <count>" line per observed outcome, qubit 0 rightmost.

def dump_counts(ct: CountsTable) -> str:
    lines = [f"shots {ct.shots}", f"seed {ct.seed}"]
    lines.extend(f"{key} {ct.counts[key]}" for key in sorted(ct.counts))
    return "\n".join(lines) + "\n"


def load_counts(text: str) -> CountsTable:
    shots = seed = None
    counts: dict[str, int] = {}
    seen: set[str] = set()
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two fields, got {raw!r}", lineno)
        key, value = parts
        try:
            number = int(value)
        except ValueError:
            raise ParseError(f"bad integer {value!r}", lineno) from None
        if key in seen:
            raise ParseError(f"duplicate {key!r} line", lineno)
        seen.add(key)
        if key == "shots":
            shots = number
        elif key == "seed":
            seed = number
        else:
            if set(key) - {"0", "1"}:
                raise ParseError(f"bad bitstring {key!r}", lineno)
            if width is None:
                width = len(key)
            elif len(key) != width:
                raise ParseError("inconsistent bitstring widths", lineno)
            counts[key] = number
    if shots is None or seed is None or width is None:
        raise ParseError("counts text needs 'shots', 'seed' and at least one row")
    return CountsTable(width, shots, counts, seed)
