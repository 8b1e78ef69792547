"""Pauli decomposition of basis coherence operators and measurement settings.

A basis transfer operator |i><j| factors qubit-wise into the four
single-qubit operators

    |0><0| = (I + Z)/2      |0><1| = (X + iY)/2
    |1><1| = (I - Z)/2      |1><0| = (X - iY)/2

so its expansion over Pauli strings has exactly 2^n nonzero terms, each of
magnitude 2^-n. Strings are written qubit 0 first ("XZ" is X on qubit 0,
Z on qubit 1).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Mapping

from .circuit import MAX_QUBITS, Gate
from .errors import IncompleteDataError, ValidationError

_LETTERS = ("I", "X", "Y", "Z")


@dataclass(frozen=True)
class PauliString:
    letters: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if not self.letters:
            raise ValidationError("empty Pauli string")
        bad = [l for l in self.letters if l not in _LETTERS]
        if bad:
            raise ValidationError(f"bad Pauli letters {bad}")

    @property
    def num_qubits(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return all(l == "I" for l in self.letters)

    def __str__(self) -> str:
        return "".join(self.letters)


@dataclass(frozen=True)
class PauliDecomposition:
    num_qubits: int
    terms: Mapping["PauliString", complex]

    def __post_init__(self):
        for ps in self.terms:
            if ps.num_qubits != self.num_qubits:
                raise ValidationError(
                    f"string {ps} does not act on {self.num_qubits} qubit(s)"
                )


@dataclass(frozen=True)
class MeasurementSetting:
    """Pre-rotations mapping a Pauli string onto a Z-basis parity readout."""

    rotations: tuple[Gate, ...]
    parity_mask: int  # bit q set when qubit q enters the parity product


def _check_basis_index(idx: int, dim: int) -> None:
    if not 1 <= idx <= dim:
        raise ValidationError(f"basis index {idx} out of range [1, {dim}]")


# (bit of i-1, bit of j-1) -> the two contributing 1-qubit factors
_FACTORS = {
    (0, 0): (("I", 0.5), ("Z", 0.5)),
    (1, 1): (("I", 0.5), ("Z", -0.5)),
    (0, 1): (("X", 0.5), ("Y", 0.5j)),
    (1, 0): (("X", 0.5), ("Y", -0.5j)),
}


def decompose_ketbra(i: int, j: int, num_qubits: int) -> PauliDecomposition:
    """Expand |i><j| (1-based basis indices) over Pauli strings."""
    # The expansion has 2^n terms, so n is bounded like a circuit's.
    if not isinstance(num_qubits, numbers.Integral) or not 1 <= num_qubits <= MAX_QUBITS:
        raise ValidationError(
            f"num_qubits = {num_qubits!r} is not an integer in [1, {MAX_QUBITS}]"
        )
    dim = 2**num_qubits
    _check_basis_index(i, dim)
    _check_basis_index(j, dim)
    per_qubit = []
    for q in range(num_qubits):
        bits = ((i - 1) >> q & 1, (j - 1) >> q & 1)
        per_qubit.append(_FACTORS[bits])
    terms: dict[PauliString, complex] = {}
    for combo in itertools.product(*per_qubit):
        letters = tuple(letter for letter, _ in combo)
        coeff = math.prod((c for _, c in combo), start=complex(1.0))
        terms[PauliString(letters)] = coeff
    return PauliDecomposition(num_qubits, terms)


def expectation_from_paulis(
    d: PauliDecomposition, pauli_means: Mapping[PauliString, float]
) -> complex:
    """Recombine measured string means into the operator's expectation.

    The all-identity string contributes mean 1 and need not be supplied.
    Raises IncompleteDataError listing any other strings that are missing.
    """
    total = complex(0.0)
    missing = []
    for ps, coeff in d.terms.items():
        if ps.is_identity:
            mean = 1.0
        elif ps in pauli_means:
            mean = pauli_means[ps]
        else:
            missing.append(str(ps))
            continue
        total += coeff * mean
    if missing:
        raise IncompleteDataError(f"missing Pauli means for: {', '.join(sorted(missing))}")
    return total


def measurement_settings(p: PauliString) -> MeasurementSetting:
    """Pre-rotations and parity mask to estimate <P> from Z-basis counts.

    X on qubit q becomes H(q); Y becomes RZ(-pi/2) then H (the phase
    dagger followed by Hadamard, up to a global phase); Z and I need no
    rotation. The estimator is the mean of (-1)^(parity of masked bits)
    over observed bitstrings.
    """
    if p.is_identity:
        raise ValidationError("all-identity string has mean 1 by definition")
    rotations: list[Gate] = []
    mask = 0
    for q, letter in enumerate(p.letters):
        if letter == "X":
            rotations.append(Gate("h", (q,)))
        elif letter == "Y":
            rotations.append(Gate("rz", (q,), -math.pi / 2))
            rotations.append(Gate("h", (q,)))
        if letter != "I":
            mask |= 1 << q
    return MeasurementSetting(tuple(rotations), mask)
