"""Shot-based measurement backends with readout noise and mitigation.

A measured outcome distribution is a length-2^n vector indexed by basis
state - 1. Sampling draws i.i.d. outcomes from the squared amplitudes,
applies independent per-qubit readout flips and tallies them. All
randomness flows through numpy's default PCG64 generator seeded
explicitly; multi-setting estimators derive sub-seeds as seed + setting
index, so results do not depend on evaluation order.

Every estimator takes a state vector and ``shots=None, noise=None,
seed=0, calibration=None``, and ``estimate_populations`` alone turns the
state into a distribution: ``shots=None`` selects the exact mode.
``estimate_pauli`` applies only a setting's basis rotations, so a circuit
is simulated once per parameter value. A calibration matrix is built once
and reused; its condition number is computed on first use. Mitigation
solves ``M p = f`` directly and, when that leaves negative entries,
solves ``min ||M p - f||^2`` over the probability simplex exactly with a
small active-set method (the constrained treatment of Smolin, Gambetta &
Smith, PRL 108, 070502, 2012, on the dense N <= 64 problems of M3, Nation
et al., PRX Quantum 2, 040326, 2021).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .circuit import apply_gates, populations
from .errors import DomainError, TomographyError, ValidationError
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
) -> np.ndarray:
    """Tally of ``shots`` outcomes drawn from |a_i|^2 after readout flips:
    an int array of length 2^n, indexed by basis state - 1."""
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
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
    return np.bincount(outcomes, minlength=probs.size)


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
    sv = np.asarray(sv)
    num_qubits = _state_qubits(sv)
    if shots is None:
        freqs = populations(sv)
        if noise is not None:
            freqs = build_calibration(noise, num_qubits).entries @ freqs
    else:
        freqs = sample_counts(sv, shots, noise, seed) / shots
    if calibration is not None:
        freqs = mitigate(freqs, calibration)
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


def mitigate(freqs: np.ndarray, cal: CalibrationMatrix) -> np.ndarray:
    """Readout-corrected outcome probabilities for observed frequencies."""
    freqs = np.asarray(freqs, dtype=float)
    if freqs.shape != (cal.dim,):
        raise ValidationError(
            f"calibration covers {cal.dim} outcomes, frequencies have shape {freqs.shape}"
        )
    if cal.condition > 1e12:
        raise DomainError("calibration matrix is singular or ill-conditioned")
    direct = np.linalg.solve(cal.entries, freqs)
    if direct.min() >= 0.0:
        return direct
    return _simplex_least_squares(cal.entries, freqs, direct)


def build_calibration(noise: ReadoutNoise, num_qubits: int) -> CalibrationMatrix:
    """Calibration matrix of a readout-noise model: the tensor product of
    the per-qubit confusion matrices."""
    if noise.num_qubits != num_qubits:
        raise ValidationError(
            f"noise covers {noise.num_qubits} qubit(s), asked for {num_qubits}"
        )
    singles = [
        _noise_matrix_1q(noise.p01[q], noise.p10[q]) for q in range(num_qubits)
    ]
    return CalibrationMatrix(num_qubits, reduce(np.kron, reversed(singles)))


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
    ``simulate``); the outcome distribution of the rotated state comes
    from ``estimate_populations`` with the same arguments.
    """
    sv = np.asarray(sv)
    num_qubits = _state_qubits(sv)
    if p.num_qubits != num_qubits:
        raise ValidationError(
            f"string acts on {p.num_qubits} qubit(s), state has {num_qubits}"
        )
    setting = measurement_settings(p)
    rotated = apply_gates(sv, setting.rotations, num_qubits)
    freqs = estimate_populations(rotated, shots, noise, seed, calibration)
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
