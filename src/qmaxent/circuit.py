"""Circuit text format and exact statevector simulation.

Amplitude ordering: basis index i (0-based) is read as a bitstring with
qubit 0 in the least significant bit, so for two qubits |q1 q0> = |01> is
index 1. Basis states are numbered 1..2^n elsewhere in the package, with
state 1 = |0...0| and the rest ascending in binary.

The text format is one gate per line after a ``qubits <n>`` header:

    h q | x q | cx control target | cz a b | rx(<expr>) q | ry(<expr>) q | rz(<expr>) q

``<expr>`` is a product/quotient chain of real literals, ``pi`` and
``theta`` (bound at parse time), e.g. ``pi/2`` or ``2*theta``. ``#``
starts a comment. Angles must be finite.

``simulate`` is ``apply_gates`` on ``zero_state``; a caller that needs
the same state under several extra gate sequences (basis rotations, for
instance) simulates once and applies each sequence to the result.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, TomographyError, ValidationError

GATE_KINDS = ("h", "x", "cx", "cz", "rx", "ry", "rz")
_ROTATIONS = ("rx", "ry", "rz")
_TWO_QUBIT = ("cx", "cz")
MAX_QUBITS = 6


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValidationError(f"unknown gate kind {self.kind!r}")
        want = 2 if self.kind in _TWO_QUBIT else 1
        if len(self.targets) != want:
            raise ValidationError(
                f"gate {self.kind} takes {want} qubit(s), got {self.targets}"
            )
        if self.kind in _TWO_QUBIT and self.targets[0] == self.targets[1]:
            raise ValidationError(f"gate {self.kind} needs two distinct qubits")
        if (self.angle is not None) != (self.kind in _ROTATIONS):
            raise ValidationError(
                f"gate {self.kind}: angle must be present exactly for rx/ry/rz"
            )


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValidationError(
                f"num_qubits must be in [1, {MAX_QUBITS}], got {self.num_qubits}"
            )
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q < 0 or q >= self.num_qubits for q in g.targets):
                raise ValidationError(
                    f"gate {g.kind} targets {g.targets} out of range for "
                    f"{self.num_qubits} qubit(s)"
                )


_GATE_RE = re.compile(r"^(rx|ry|rz)\((.*)\)$")


def _eval_factor(tok: str, theta: float | None, line: int) -> float:
    sign = 1.0
    if tok.startswith("-"):
        sign, tok = -1.0, tok[1:]
    if tok == "pi":
        return sign * math.pi
    if tok == "theta":
        if theta is None:
            raise ParseError("angle uses 'theta' but no binding was supplied", line)
        if not math.isfinite(theta):
            raise ParseError(f"angle uses 'theta' bound to {theta!r}", line)
        return sign * theta
    try:
        value = float(tok)
    except ValueError:
        raise ParseError(f"bad angle factor {tok!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"angle factor {tok!r} is not finite", line)
    return sign * value


def _eval_angle(expr: str, theta: float | None, line: int) -> float:
    expr = expr.strip()
    if not expr:
        raise ParseError("missing angle expression", line)
    parts = re.split(r"([*/])", expr.replace(" ", ""))
    value = _eval_factor(parts[0], theta, line)
    for op, tok in zip(parts[1::2], parts[2::2]):
        factor = _eval_factor(tok, theta, line)
        if op == "*":
            value *= factor
        else:
            if factor == 0:
                raise ParseError("division by zero in angle expression", line)
            value /= factor
    if not math.isfinite(value):
        raise ParseError(f"angle expression {expr!r} overflows", line)
    return value


def _parse_qubit(tok: str, num_qubits: int, line: int) -> int:
    try:
        q = int(tok)
    except ValueError:
        raise ParseError(f"bad qubit index {tok!r}", line) from None
    if not 0 <= q < num_qubits:
        raise ParseError(
            f"qubit index {q} out of range for {num_qubits} qubit(s)", line
        )
    return q


def parse_circuit(text: str, theta: float | None = None) -> Circuit:
    """Parse circuit text, substituting ``theta`` into angle expressions."""
    num_qubits = None
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if num_qubits is None:
            if tokens[0] != "qubits" or len(tokens) != 2:
                raise ParseError("expected header 'qubits <n>'", lineno)
            try:
                num_qubits = int(tokens[1])
            except ValueError:
                raise ParseError(f"bad qubit count {tokens[1]!r}", lineno) from None
            if not 1 <= num_qubits <= MAX_QUBITS:
                raise ParseError(
                    f"qubit count must be in [1, {MAX_QUBITS}]", lineno
                )
            continue

        head = tokens[0]
        rot = _GATE_RE.match(head)
        if rot:
            kind, expr = rot.group(1), rot.group(2)
            if len(tokens) != 2:
                raise ParseError(f"{kind} takes one qubit", lineno)
            angle = _eval_angle(expr, theta, lineno)
            gates.append(Gate(kind, (_parse_qubit(tokens[1], num_qubits, lineno),), angle))
        elif head in _ROTATIONS:
            raise ParseError(f"{head} is missing its angle, write {head}(<expr>) q", lineno)
        elif head in ("h", "x"):
            if len(tokens) != 2:
                raise ParseError(f"{head} takes one qubit", lineno)
            gates.append(Gate(head, (_parse_qubit(tokens[1], num_qubits, lineno),)))
        elif head in _TWO_QUBIT:
            if len(tokens) != 3:
                raise ParseError(f"{head} takes two qubits", lineno)
            a = _parse_qubit(tokens[1], num_qubits, lineno)
            b = _parse_qubit(tokens[2], num_qubits, lineno)
            if a == b:
                raise ParseError(f"{head} needs two distinct qubits", lineno)
            gates.append(Gate(head, (a, b)))
        else:
            raise ParseError(f"unknown gate mnemonic {head!r}", lineno)
    if num_qubits is None:
        raise ParseError("empty circuit text, expected 'qubits <n>' header")
    return Circuit(num_qubits, tuple(gates))


def _matrix_1q(gate: Gate) -> np.ndarray:
    if gate.kind == "h":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if gate.kind == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    t = gate.angle / 2
    if gate.kind == "rx":
        return np.array(
            [[math.cos(t), -1j * math.sin(t)], [-1j * math.sin(t), math.cos(t)]]
        )
    if gate.kind == "ry":
        return np.array(
            [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]], dtype=complex
        )
    # rz
    return np.array([[np.exp(-1j * t), 0], [0, np.exp(1j * t)]])


def _apply_1q(state: np.ndarray, u: np.ndarray, qubit: int, n: int) -> np.ndarray:
    psi = state.reshape([2] * n)
    axis = n - 1 - qubit
    psi = np.moveaxis(psi, axis, -1)
    psi = psi @ u.T
    return np.moveaxis(psi, -1, axis).reshape(-1)


def _apply_2q(state: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    psi = state.reshape([2] * n).copy()
    a, b = (n - 1 - q for q in gate.targets)

    def sel(va, vb):
        idx = [slice(None)] * n
        idx[a], idx[b] = va, vb
        return tuple(idx)

    if gate.kind == "cx":
        psi[sel(1, 0)], psi[sel(1, 1)] = psi[sel(1, 1)].copy(), psi[sel(1, 0)].copy()
    else:  # cz
        psi[sel(1, 1)] = -psi[sel(1, 1)]
    return psi.reshape(-1)


def zero_state(num_qubits: int) -> np.ndarray:
    """Amplitude vector of |0...0> on ``num_qubits`` qubits."""
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def apply_gates(state: np.ndarray, gates: tuple[Gate, ...], n: int) -> np.ndarray:
    """Apply ``gates`` in order to an n-qubit amplitude vector.

    The input is not modified; with no gates it is returned as it is,
    after the same norm check every returned state gets.
    """
    state = np.asarray(state)
    if state.shape != (2**n,):
        raise ValidationError(f"expected {2**n} amplitudes, got shape {state.shape}")
    for gate in gates:
        if not all(0 <= q < n for q in gate.targets):
            raise ValidationError(
                f"gate {gate.kind} targets {gate.targets} out of range for {n} qubit(s)"
            )
        if gate.kind in _TWO_QUBIT:
            state = _apply_2q(state, gate, n)
        else:
            state = _apply_1q(state, _matrix_1q(gate), gate.targets[0], n)
    norm = np.linalg.norm(state)
    # Written so that a NaN norm fails too.
    if not abs(norm - 1.0) <= 1e-10:
        raise TomographyError(f"statevector norm drifted to {norm!r}")
    return state


def simulate(c: Circuit) -> np.ndarray:
    """Run the circuit on |0...0> and return the final amplitude vector."""
    return apply_gates(zero_state(c.num_qubits), c.gates, c.num_qubits)


def populations(sv: np.ndarray) -> np.ndarray:
    """Probabilities of the basis states, indexed by basis state - 1."""
    p = np.abs(np.asarray(sv)) ** 2
    if not abs(p.sum() - 1.0) <= 1e-10:
        raise ValidationError(f"state is not normalized: sum |a|^2 = {p.sum()!r}")
    return p


def coherence(sv: np.ndarray, i: int, j: int) -> complex:
    """Mean value of |i><j| on a pure state: conj(a_{i-1}) * a_{j-1}.

    Basis indices are 1-based. coherence(i, i) equals the population of
    state i; coherence(j, i) is the complex conjugate of coherence(i, j).
    """
    sv = np.asarray(sv)
    dim = sv.shape[0]
    for idx in (i, j):
        if not 1 <= idx <= dim:
            raise ValidationError(f"basis index {idx} out of range [1, {dim}]")
    return complex(np.conj(sv[i - 1]) * sv[j - 1])
