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

Each text is tokenized once (the last 64 texts are kept): the gates that
do not use theta are built then, and the factors of each angle before
its first ``theta`` are multiplied out. ``parse_circuit(text, theta)``
binds theta into that parse. An angle is computed with the same float
operations in the same order whether or not its parse was kept, and
errors come in line order with the same messages: a line that fails
whatever theta is raises only after every earlier line has been bound.

``simulate`` is ``apply_gates`` on ``zero_state``; a caller that needs
the same state under several extra gate sequences (basis rotations, for
instance) simulates once and applies each sequence to the result. Gates
apply one at a time, so the state after a shared prefix of two sequences
is the same bytes in both, and a caller may apply the prefix once and
continue each sequence from it: a theta sweep simulates
``theta_free_prefix(text)`` once and simulates the rest of each bound
circuit from its state. A one-qubit gate is one matrix product over the
amplitude tensor with the target axis last; the axis orders per (qubit,
n) and the matrices of the parameter-free gates and of the basis
rotation rz(-pi/2) are built once.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import takewhile
from typing import NamedTuple

import numpy as np

from .errors import ParseError, TomographyError, ValidationError

GATE_KINDS = ("h", "x", "cx", "cz", "rx", "ry", "rz")
_ROTATIONS = ("rx", "ry", "rz")
_TWO_QUBIT = ("cx", "cz")
MAX_QUBITS = 6
_INTEGERS = (int, np.integer)


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
        if not all(isinstance(q, _INTEGERS) for q in self.targets):
            raise ValidationError(
                f"gate {self.kind}: targets {self.targets} are not integers"
            )
        if self.kind in _TWO_QUBIT and self.targets[0] == self.targets[1]:
            raise ValidationError(f"gate {self.kind} needs two distinct qubits")
        if (self.angle is not None) != (self.kind in _ROTATIONS):
            raise ValidationError(
                f"gate {self.kind}: angle must be present exactly for rx/ry/rz"
            )
        if self.angle is not None:
            if not isinstance(self.angle, (int, float, np.integer, np.floating)):
                raise ValidationError(
                    f"gate {self.kind}: angle {self.angle!r} is not a real number"
                )
            if not math.isfinite(self.angle):
                raise ValidationError(
                    f"gate {self.kind}: angle = {self.angle!r} is not finite"
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


def _uses_theta(tok: str) -> bool:
    return (tok[1:] if tok.startswith("-") else tok) == "theta"


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


def _eval_terms(
    value: float | None, terms: tuple[tuple[str, str], ...], theta: float | None, line: int
) -> float | None:
    """Fold (op, factor) terms into ``value`` left to right; the first
    term of an expression starts it (``value`` None)."""
    for op, tok in terms:
        factor = _eval_factor(tok, theta, line)
        if value is None:
            value = factor
        elif op == "*":
            value *= factor
        else:
            if factor == 0:
                raise ParseError("division by zero in angle expression", line)
            value /= factor
    return value


class _Angle(NamedTuple):
    """An angle expression cut before its first ``theta`` factor: ``head``
    is the value of the factors before it (None when there are none) and
    ``tail`` the (op, factor) terms from it on."""

    expr: str
    head: float | None
    tail: tuple[tuple[str, str], ...]

    def bind(self, theta: float | None, line: int) -> float:
        value = _eval_terms(self.head, self.tail, theta, line)
        if not math.isfinite(value):
            raise ParseError(f"angle expression {self.expr!r} overflows", line)
        return value


def _compile_angle(expr: str, line: int) -> _Angle:
    """Split an angle expression at its first ``theta`` factor and
    evaluate the factors before it, raising their errors."""
    expr = expr.strip()
    if not expr:
        raise ParseError("missing angle expression", line)
    parts = re.split(r"([*/])", expr.replace(" ", ""))
    terms = tuple(zip(["*", *parts[1::2]], parts[0::2]))
    cut = next((i for i, (_, tok) in enumerate(terms) if _uses_theta(tok)), len(terms))
    return _Angle(expr, _eval_terms(None, terms[:cut], None, line), terms[cut:])


class _Rotation(NamedTuple):
    """A rotation whose angle uses theta, bound per parse. ``qubit`` is
    None on a line whose qubit fails after the angle: the angle is still
    evaluated, so a theta error on that line comes first."""

    kind: str
    qubit: int | None
    angle: _Angle
    line: int


class _Parsed(NamedTuple):
    """The theta-free parse of a circuit text: its gates in order, each a
    Gate or a _Rotation, and the (reason, line) of the first line that
    fails whatever theta is, raised once every earlier gate is bound."""

    num_qubits: int | None
    gates: tuple[Gate | _Rotation, ...]
    error: tuple[str, int | None] | None


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


def _parse_header(tokens: list[str], line: int) -> int:
    if tokens[0] != "qubits" or len(tokens) != 2:
        raise ParseError("expected header 'qubits <n>'", line)
    try:
        num_qubits = int(tokens[1])
    except ValueError:
        raise ParseError(f"bad qubit count {tokens[1]!r}", line) from None
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ParseError(f"qubit count must be in [1, {MAX_QUBITS}]", line)
    return num_qubits


def _parse_gate(tokens: list[str], num_qubits: int, line: int, gates: list) -> None:
    """Append the gate of one line to ``gates``, or raise its error."""
    head = tokens[0]
    rot = _GATE_RE.match(head)
    if rot:
        kind, expr = rot.group(1), rot.group(2)
        if len(tokens) != 2:
            raise ParseError(f"{kind} takes one qubit", line)
        angle = _compile_angle(expr, line)
        if not angle.tail:
            value = angle.bind(None, line)
            gates.append(Gate(kind, (_parse_qubit(tokens[1], num_qubits, line),), value))
            return
        try:
            qubit = _parse_qubit(tokens[1], num_qubits, line)
        except ParseError:
            gates.append(_Rotation(kind, None, angle, line))
            raise
        gates.append(_Rotation(kind, qubit, angle, line))
    elif head in _ROTATIONS:
        raise ParseError(f"{head} is missing its angle, write {head}(<expr>) q", line)
    elif head in ("h", "x"):
        if len(tokens) != 2:
            raise ParseError(f"{head} takes one qubit", line)
        gates.append(Gate(head, (_parse_qubit(tokens[1], num_qubits, line),)))
    elif head in _TWO_QUBIT:
        if len(tokens) != 3:
            raise ParseError(f"{head} takes two qubits", line)
        a = _parse_qubit(tokens[1], num_qubits, line)
        b = _parse_qubit(tokens[2], num_qubits, line)
        if a == b:
            raise ParseError(f"{head} needs two distinct qubits", line)
        gates.append(Gate(head, (a, b)))
    else:
        raise ParseError(f"unknown gate mnemonic {head!r}", line)


@lru_cache(maxsize=64)
def _parse_text(text: str) -> _Parsed:
    """Tokenize a circuit text once, up to its first theta-free error."""
    num_qubits = None
    gates: list[Gate | _Rotation] = []
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if num_qubits is None:
                num_qubits = _parse_header(tokens, lineno)
            else:
                _parse_gate(tokens, num_qubits, lineno, gates)
    except ParseError as exc:
        return _Parsed(num_qubits, tuple(gates), (exc.reason, exc.line))
    if num_qubits is None:
        return _Parsed(None, (), ("empty circuit text, expected 'qubits <n>' header", None))
    return _Parsed(num_qubits, tuple(gates), None)


def parse_circuit(text: str, theta: float | None = None) -> Circuit:
    """Parse circuit text, substituting ``theta`` into angle expressions."""
    parsed = _parse_text(text)
    gates = []
    for gate in parsed.gates:
        if isinstance(gate, _Rotation):
            angle = gate.angle.bind(theta, gate.line)
            if gate.qubit is None:
                break
            gate = Gate(gate.kind, (gate.qubit,), angle)
        gates.append(gate)
    if parsed.error is not None:
        raise ParseError(*parsed.error)
    return Circuit(parsed.num_qubits, tuple(gates))


def theta_free_prefix(text: str) -> Circuit:
    """The gates of ``text`` before its first gate that uses theta: the
    same in every circuit ``parse_circuit(text, theta)`` returns. Raises
    the first theta-free parse error of ``text``, if it has one."""
    parsed = _parse_text(text)
    if parsed.error is not None:
        raise ParseError(*parsed.error)
    gates = takewhile(lambda g: isinstance(g, Gate), parsed.gates)
    return Circuit(parsed.num_qubits, tuple(gates))


def _build_matrix_1q(gate: Gate) -> np.ndarray:
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


# The fixed gates, the Pauli basis rotations among them, built once. No
# key is a zero angle, so a -0.0 angle (whose sign reaches the amplitudes)
# never meets a cached +0.0 matrix.
_FIXED_1Q = {
    (g.kind, g.angle): _build_matrix_1q(g)
    for g in (Gate("h", (0,)), Gate("x", (0,)), Gate("rz", (0,), -math.pi / 2))
}


def _matrix_1q(gate: Gate) -> np.ndarray:
    fixed = _FIXED_1Q.get((gate.kind, gate.angle))
    return _build_matrix_1q(gate) if fixed is None else fixed


@lru_cache(maxsize=None)
def _axis_orders(qubit: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Tensor shape and the two axis orders of ``_apply_1q``: the
    transposes ``np.moveaxis(psi, axis, -1)`` and ``np.moveaxis(psi, -1,
    axis)`` make, for axis = n - 1 - qubit."""
    axis = n - 1 - qubit
    to_last = tuple(a for a in range(n) if a != axis) + (axis,)
    from_last = tuple(range(axis)) + (n - 1,) + tuple(range(axis, n - 1))
    return (2,) * n, to_last, from_last


def _apply_1q(state: np.ndarray, u: np.ndarray, qubit: int, n: int) -> np.ndarray:
    shape, to_last, from_last = _axis_orders(qubit, n)
    psi = state.reshape(shape).transpose(to_last) @ u.T
    return psi.transpose(from_last).reshape(-1)


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
    _check_norm(state)
    return state


def _check_norm(state: np.ndarray) -> None:
    """The norm check of every state ``apply_gates`` returns."""
    norm = float(np.linalg.norm(state))
    # Written so that a NaN norm fails too.
    if not abs(norm - 1.0) <= 1e-10:
        raise TomographyError(f"statevector norm drifted to {norm!r}")


def simulate(c: Circuit, state: np.ndarray | None = None) -> np.ndarray:
    """Run the circuit on |0...0>, or on ``state`` when one is given (the
    state after a shared prefix, say), and return the final amplitude
    vector."""
    if state is None:
        state = zero_state(c.num_qubits)
    return apply_gates(state, c.gates, c.num_qubits)


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
    for name, idx in (("i", i), ("j", j)):
        if not isinstance(idx, _INTEGERS):
            raise ValidationError(f"basis index {name} = {idx!r} is not an integer")
        if not 1 <= idx <= dim:
            raise ValidationError(f"basis index {idx} out of range [1, {dim}]")
    return complex(np.conj(sv[i - 1]) * sv[j - 1])
