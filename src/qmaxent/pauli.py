"""Pauli decomposition of basis coherence operators.

A basis transfer operator |i><j| factors qubit-wise into the four
single-qubit operators

    |0><0| = (I + Z)/2      |0><1| = (X + iY)/2
    |1><1| = (I - Z)/2      |1><0| = (X - iY)/2

so its expansion over Pauli strings has exactly 2^n nonzero terms, each of
magnitude 2^-n. ``decompose_ketbra`` returns it as a plain
{PauliString: coefficient} dict. Strings are written qubit 0 first ("XZ"
is X on qubit 0, Z on qubit 1).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import ValidationError
from .linalg import MAX_QUBITS, _integer, _require

_LETTERS = ("I", "X", "Y", "Z")


@dataclass(frozen=True)
class PauliString:
    letters: tuple[str, ...]

    def __post_init__(self):
        _require("letters", self.letters, Iterable, "an iterable of Pauli letters")
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


# (bit of i-1, bit of j-1) -> the two contributing 1-qubit factors
_FACTORS = {
    (0, 0): (("I", 0.5), ("Z", 0.5)),
    (1, 1): (("I", 0.5), ("Z", -0.5)),
    (0, 1): (("X", 0.5), ("Y", 0.5j)),
    (1, 0): (("X", 0.5), ("Y", -0.5j)),
}


def decompose_ketbra(i: int, j: int, num_qubits: int) -> dict[PauliString, complex]:
    """Expand |i><j| (1-based basis indices) over Pauli strings: the
    coefficient of each of its 2^n strings, in the order of
    ``itertools.product`` over the qubits' factors."""
    # The expansion has 2^n terms, so n is bounded like a circuit's.
    _integer("num_qubits", num_qubits, 1, MAX_QUBITS)
    dim = 2**num_qubits
    _integer("basis index i", i, 1, dim)
    _integer("basis index j", j, 1, dim)
    per_qubit = []
    for q in range(num_qubits):
        bits = ((i - 1) >> q & 1, (j - 1) >> q & 1)
        per_qubit.append(_FACTORS[bits])
    terms: dict[PauliString, complex] = {}
    for combo in itertools.product(*per_qubit):
        letters = tuple(letter for letter, _ in combo)
        coeff = math.prod((c for _, c in combo), start=complex(1.0))
        terms[PauliString(letters)] = coeff
    return terms
