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

Each text is tokenized once (the last 64 texts are kept), and every
error that does not depend on theta is raised then, the first in line
order, whatever theta is and through every entry point (``qubit_count``,
``parse_circuit``, the sweep): a bad header, gate or qubit, a bad or
non-finite literal, a division by a literal zero, a theta-free angle
that overflows. The gates that do not use theta are built then, and
each other angle is kept as its (op, sign, factor) terms, the literals
already floats. Binding raises only what theta decides, in line order:
an unbound or non-finite theta (at the first rotation that uses it), a
division by a theta that is zero, an angle that overflows.
``parse_circuit(text, theta)`` binds one theta and raises those errors.
A sweep's binding (``_bind``) binds a whole list of thetas at once,
unchecked: each angle is a float64 array over the thetas, folded with
the ``*`` and ``/`` of the expression in the same order, which round as
Python's floats do. A theta fails its parse exactly when it is not
finite or leaves an angle that is not, so those thetas screen as
suspects, and the first suspect raises the error ``parse_circuit``
raises for it (see ``linalg``), before any gate is applied.

One set of gate kernels applies gates to a state, which is an amplitude
vector or a (T, 2^n) stack of them, one row per theta. A one-qubit gate
on n >= 2 qubits is one BLAS product: the amplitude tensor is copied
with the target axis last, an (M, 2) matrix of amplitude pairs, and
multiplied by u^T; a rotation bound to T angles is one batched
(T, M/T, 2) @ u^T product, one matrix per row. Each pair's product does
not depend on M, so every row gets the bytes of a lone vector. One
qubit keeps each row a (1, 2) vector of a batch, as a lone vector is:
a flat (T, 2) product rounds differently. cx and cz swap or negate
slices. ``simulate`` is ``apply_gates`` on ``zero_state``, the
kernels on one vector; a caller that needs the same state under several
extra gate sequences (basis rotations, for instance) simulates once and
applies each sequence to the result. A theta sweep (``_sweep_states``)
starts a stack with |0...0> in every row and applies each gate once to
the whole stack. Its one state screen sums each row's populations in
numpy and gives each suspect row the one-state check (``_check_state``):
the norm check, then the population-sum check; the first row that
fails raises. A rotation's T matrices are built as arrays, their bits
fixed by formulas written on the real and imaginary parts
(``_rotation_matrices``).
The matrices of the parameter-free gates and of the basis rotation
rz(-pi/2) are built once.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ParseError, TomographyError, ValidationError
from .linalg import MAX_QUBITS, _INTEGERS, _REALS, _check, _integer, _raised, _require

GATE_KINDS = ("h", "x", "cx", "cz", "rx", "ry", "rz")
_ROTATIONS = ("rx", "ry", "rz")
_TWO_QUBIT = ("cx", "cz")


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValidationError(f"unknown gate kind {self.kind!r}")
        _require("targets", self.targets, tuple, "a tuple")
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
            _require("angle", self.angle, _REALS, "a real number")
            if not math.isfinite(self.angle):
                raise ValidationError(
                    f"gate {self.kind}: angle = {self.angle!r} is not finite"
                )


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        _integer("num_qubits", self.num_qubits, 1, MAX_QUBITS)
        object.__setattr__(self, "gates", _gate_tuple(self.gates))
        for g in self.gates:
            if any(q < 0 or q >= self.num_qubits for q in g.targets):
                raise ValidationError(
                    f"gate {g.kind} targets {g.targets} out of range for "
                    f"{self.num_qubits} qubit(s)"
                )


def _gate_tuple(gates) -> tuple[Gate, ...]:
    """``gates`` as a tuple; anything but an iterable of Gates raises a
    ValidationError naming the argument."""
    out = tuple(gates) if isinstance(gates, Iterable) else None
    if out is None or not all(isinstance(g, Gate) for g in out):
        raise ValidationError(f"gates = {gates!r} is not a sequence of Gates")
    return out


_GATE_RE = re.compile(r"^(rx|ry|rz)\((.*)\)$")
# The tolerance of the norm check and of the population-sum check.
_NORM_ATOL = 1e-10


def _eval_terms(terms, theta, line: int | None = None):
    """Fold an angle's (op, sign, factor) terms left to right, the first
    term starting the value; a None factor is ``theta``, a float or a
    float64 array of thetas. With a ``line``, a division by a theta that
    is zero is raised on it; without one, the value is left to show it:
    once it is not finite, no later (finite) factor makes it finite.
    Python's float ``*`` and ``/`` round as numpy's do."""
    value = None
    for op, sign, factor in terms:
        if factor is None:
            if line is not None and op == "/" and theta == 0:
                raise ParseError("division by zero in angle expression", line)
            factor = theta
        factor = sign * factor
        if value is None:
            value = factor
        elif op == "*":
            value = value * factor
        else:
            value = value / factor
    return value


class _Angle(NamedTuple):
    """An angle expression that uses theta: its text and its (op, sign,
    factor) terms, each factor a float or None for theta."""

    expr: str
    terms: tuple[tuple[str, float, float | None], ...]


def _finite(value: float, expr: str, line: int) -> float:
    """The last check of an angle: its value must be finite."""
    if not math.isfinite(value):
        raise ParseError(f"angle expression {expr!r} overflows", line)
    return value


def _compile_angle(expr: str, line: int) -> float | _Angle:
    """An angle expression's value, or its ``_Angle`` when it uses theta.
    Every error that does not depend on theta is raised, factor by
    factor: a bad literal or one that is not finite, then a division by
    a literal zero; an expression without theta must also be finite."""
    expr = expr.strip()
    if not expr:
        raise ParseError("missing angle expression", line)
    parts = re.split(r"([*/])", expr.replace(" ", ""))
    terms = []
    for op, tok in zip(["*", *parts[1::2]], parts[0::2]):
        sign = 1.0
        if tok.startswith("-"):
            sign, tok = -1.0, tok[1:]
        if tok == "theta":
            factor = None
        elif tok == "pi":
            factor = math.pi
        else:
            try:
                factor = float(tok)
            except ValueError:
                raise ParseError(f"bad angle factor {tok!r}", line) from None
            if not math.isfinite(factor):
                raise ParseError(f"angle factor {tok!r} is not finite", line)
            if op == "/" and factor == 0:
                raise ParseError("division by zero in angle expression", line)
        terms.append((op, sign, factor))
    if any(factor is None for _, _, factor in terms):
        return _Angle(expr, tuple(terms))
    return _finite(_eval_terms(terms, None), expr, line)


class _Rotation(NamedTuple):
    """A rotation whose angle uses theta, bound per parse."""

    kind: str
    qubit: int
    angle: _Angle
    line: int


class _Parsed(NamedTuple):
    """The theta-free parse of a circuit text: its qubit count and its
    gates in order, each a Gate or a _Rotation."""

    num_qubits: int
    gates: tuple[Gate | _Rotation, ...]


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


def _parse_gate(tokens: list[str], num_qubits: int, line: int) -> Gate | _Rotation:
    """The gate of one line, or its error."""
    head = tokens[0]
    rot = _GATE_RE.match(head)
    if rot:
        kind, expr = rot.group(1), rot.group(2)
        if len(tokens) != 2:
            raise ParseError(f"{kind} takes one qubit", line)
        angle = _compile_angle(expr, line)
        qubit = _parse_qubit(tokens[1], num_qubits, line)
        if isinstance(angle, _Angle):
            return _Rotation(kind, qubit, angle, line)
        return Gate(kind, (qubit,), angle)
    if head in _ROTATIONS:
        raise ParseError(f"{head} is missing its angle, write {head}(<expr>) q", line)
    if head in ("h", "x"):
        if len(tokens) != 2:
            raise ParseError(f"{head} takes one qubit", line)
        return Gate(head, (_parse_qubit(tokens[1], num_qubits, line),))
    if head in _TWO_QUBIT:
        if len(tokens) != 3:
            raise ParseError(f"{head} takes two qubits", line)
        a = _parse_qubit(tokens[1], num_qubits, line)
        b = _parse_qubit(tokens[2], num_qubits, line)
        if a == b:
            raise ParseError(f"{head} needs two distinct qubits", line)
        return Gate(head, (a, b))
    raise ParseError(f"unknown gate mnemonic {head!r}", line)


@lru_cache(maxsize=64)
def _parse_text(text: str) -> _Parsed:
    """Tokenize a circuit text once, raising its first error that does
    not depend on theta."""
    num_qubits = None
    gates: list[Gate | _Rotation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if num_qubits is None:
            num_qubits = _parse_header(tokens, lineno)
        else:
            gates.append(_parse_gate(tokens, num_qubits, lineno))
    if num_qubits is None:
        raise ParseError("empty circuit text, expected 'qubits <n>' header")
    return _Parsed(num_qubits, tuple(gates))


def _thetas(thetas: list) -> np.ndarray:
    """The float64 array of ``thetas``, each multiplied by a float first.
    When that fails, on a string say, the first theta that is not a real
    number raises a ValidationError naming it, in a sweep as in
    ``parse_circuit``."""
    try:
        return np.array([1.0 * t for t in thetas], dtype=float)
    except TypeError:
        for t in thetas:
            _require("theta", t, _REALS, "a real number")
        raise


def _bind(parsed: _Parsed, thetas: list):
    """The sweep's angle binding: every theta of ``thetas`` bound at once,
    unchecked, into a parse that has no theta-free error.

    Returns the gates in order, each a Gate or, for a rotation that uses
    theta, a (kind, qubit, angles) triple with one float64 angle per
    theta, and the bool mask of the suspects: once a rotation uses
    theta, each theta that is not finite or gives an angle that is not.
    A theta fails its one-theta parse exactly when it is a suspect (see
    ``_eval_terms``).
    """
    gates, theta = [], None
    suspects = np.zeros(len(thetas), dtype=bool)
    with np.errstate(all="ignore"):
        for gate in parsed.gates:
            if isinstance(gate, _Rotation):
                if theta is None:
                    theta = _thetas(thetas)
                    suspects = ~np.isfinite(theta)
                angles = _eval_terms(gate.angle.terms, theta)
                suspects |= ~np.isfinite(angles)
                gate = (gate.kind, gate.qubit, angles)
            gates.append(gate)
    return gates, suspects


def parse_circuit(text: str, theta: float | None = None) -> Circuit:
    """Parse circuit text, substituting ``theta`` into angle expressions.

    The text's first error that does not depend on theta is raised
    before any binding. Then each rotation that uses theta is bound in
    line order, raising the errors theta decides: an unbound or
    non-finite theta (at the first such rotation), a division by a theta
    that is zero, an angle that overflows. A ``text`` that is not a str
    raises ValidationError, and so does a ``theta`` that is not a real
    number once a rotation uses it (``_thetas``)."""
    _require("text", text, str, "a str")
    parsed = _parse_text(text)
    gates, bound = [], None
    for gate in parsed.gates:
        if isinstance(gate, _Rotation):
            angle, line = gate.angle, gate.line
            if bound is None:
                if theta is None:
                    raise ParseError("angle uses 'theta' but no binding was supplied", line)
                bound = _thetas([theta]).item()
                if not math.isfinite(bound):
                    raise ParseError(f"angle uses 'theta' bound to {theta!r}", line)
            value = _finite(_eval_terms(angle.terms, bound, line), angle.expr, line)
            gate = Gate(gate.kind, (gate.qubit,), value)
        gates.append(gate)
    return Circuit(parsed.num_qubits, tuple(gates))


def qubit_count(text: str) -> int:
    """The qubit count of ``text``, read without binding a theta. Raises
    the first theta-free parse error of ``text``, if it has one."""
    _require("text", text, str, "a str")
    return _parse_text(text).num_qubits


def _rotation_matrices(kind: str, angles: np.ndarray) -> np.ndarray:
    """The (T, 2, 2) matrices of a rotation at each of T angles, for
    t = angle / 2: cos t and sin t by Python's math, rx's off-diagonal
    entries (0.0, -sin t), and rz's entries numpy's exp of (0.0, -t) and
    (0.0 * t - 0.0, 0.0 + t).

    The bits are fixed by these formulas, signs of zeros included, on
    every Python version. They are the parts CPython before 3.14 gives
    for the complex products -1j * t and 1j * t; from 3.14 on, a complex
    times a float rounds by C99 Annex G and differs from them in the
    signs of zeros. No Python complex is built."""
    half = angles / 2
    u = np.zeros((len(half), 2, 2), dtype=complex)
    if kind == "rz":
        z = np.empty((2, len(half)), dtype=complex)
        z.real[0], z.imag[0] = 0.0, -half
        z.real[1], z.imag[1] = 0.0 * half - 0.0, 0.0 + half
        u[:, 0, 0], u[:, 1, 1] = np.exp(z)
        return u
    half = half.tolist()
    cos = np.fromiter(map(math.cos, half), float, len(half))
    sin = np.fromiter(map(math.sin, half), float, len(half))
    u.real[:, 0, 0] = u.real[:, 1, 1] = cos
    if kind == "rx":
        u.imag[:, 0, 1] = u.imag[:, 1, 0] = -sin
    else:  # ry
        u.real[:, 0, 1] = -sin
        u.real[:, 1, 0] = sin
    return u


def _build_matrix_1q(gate: Gate) -> np.ndarray:
    if gate.kind == "h":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if gate.kind == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    return _rotation_matrices(gate.kind, np.array([gate.angle], dtype=float))[0]


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


def _apply_1q(state: np.ndarray, u: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """``u`` on ``qubit`` of every row of ``state``, an amplitude vector
    (one row) or a (T, 2^n) stack; ``u`` is one 2x2 matrix, or a (T, 2, 2)
    stack of one matrix per row.

    The amplitudes of a row are a (2^(n-1-qubit), 2, 2^qubit) tensor, the
    target's axis in the middle; seen with the target axis last, and
    copied contiguous, the amplitude pairs for n >= 2 are one (M, 2)
    matrix: a fixed gate is one (M, 2) @ u^T product and a per-row one a
    single batched (T, M/T, 2) @ u^T product, whatever T is. One qubit's
    rows stay (1, 2) vectors of a batch, each the product of a lone
    vector."""
    psi = state.reshape(-1, 2 ** (n - 1 - qubit), 2, 2**qubit).transpose(0, 1, 3, 2)
    if u.ndim == 3:
        out = psi.reshape(len(u), -1, 2) @ u.transpose(0, 2, 1)
    elif n == 1:
        out = psi.reshape(-1, 1, 2) @ u.T
    else:
        out = psi.reshape(-1, 2) @ u.T
    return out.reshape(psi.shape).transpose(0, 1, 3, 2).reshape(state.shape)


def _apply_2q(state: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """A cx or cz on every row of ``state``: slices swapped or negated."""
    psi = state.reshape((-1,) + (2,) * n).copy()
    a, b = (n - q for q in gate.targets)

    def sel(va, vb):
        idx = [slice(None)] * (n + 1)
        idx[a], idx[b] = va, vb
        return tuple(idx)

    if gate.kind == "cx":
        psi[sel(1, 0)], psi[sel(1, 1)] = psi[sel(1, 1)].copy(), psi[sel(1, 0)].copy()
    else:  # cz
        psi[sel(1, 1)] = -psi[sel(1, 1)]
    return psi.reshape(state.shape)


def _apply(state: np.ndarray, gates, n: int) -> np.ndarray:
    """The gate kernels: apply ``gates`` in order to every row of
    ``state``. A gate is a Gate or a bound (kind, qubit, angles) rotation
    with one angle per row."""
    for gate in gates:
        if not isinstance(gate, Gate):
            kind, qubit, angles = gate
            state = _apply_1q(state, _rotation_matrices(kind, angles), qubit, n)
        elif gate.kind in _TWO_QUBIT:
            state = _apply_2q(state, gate, n)
        else:
            state = _apply_1q(state, _matrix_1q(gate), gate.targets[0], n)
    return state


def zero_state(num_qubits: int) -> np.ndarray:
    """Amplitude vector of |0...0> on ``num_qubits`` qubits."""
    _integer("num_qubits", num_qubits, 1, MAX_QUBITS)
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def apply_gates(state: np.ndarray, gates: tuple[Gate, ...], n: int) -> np.ndarray:
    """Apply ``gates`` in order to an n-qubit amplitude vector.

    The input is not modified; with no gates it is returned as it is,
    after the same norm check every returned state gets.
    """
    _integer("n", n, 1, MAX_QUBITS)
    state = np.asarray(state)
    if state.shape != (2**n,):
        raise ValidationError(f"expected {2**n} amplitudes, got shape {state.shape}")
    gates = _gate_tuple(gates)
    for gate in gates:
        if not all(0 <= q < n for q in gate.targets):
            raise ValidationError(
                f"gate {gate.kind} targets {gate.targets} out of range for {n} qubit(s)"
            )
    state = _apply(state, gates, n)
    _check_norm(state)
    return state


def _check_norm(state: np.ndarray) -> None:
    """The norm check of every state ``apply_gates`` returns."""
    norm = float(np.linalg.norm(state))
    # Written so that a NaN norm fails too.
    if not abs(norm - 1.0) <= _NORM_ATOL:
        raise TomographyError(f"statevector norm drifted to {norm!r}")


def simulate(c: Circuit) -> np.ndarray:
    """Run the circuit on |0...0> and return the final amplitude vector."""
    _require("c", c, Circuit, "a Circuit")
    return apply_gates(zero_state(c.num_qubits), c.gates, c.num_qubits)


def _sweep_states(text: str, thetas: list):
    """The final amplitudes of ``text`` at every theta of ``thetas``, one
    row per theta of a (T, 2^n) stack.

    The text's theta-free errors are raised at once, then the first
    binding suspect's one-theta parse error, before any gate is applied.
    Every row starts as |0...0> and each gate applies once to the whole
    stack. A row of a stack may sum differently from a lone vector, so
    each row's population sum only screens: a row off 1 by more than half
    the tolerance gets the one-state check, its norm and then its
    population sum, and the first that fails raises. A row that passes
    the screen passes both, since a norm off 1 by d puts the sum off by
    about 2d.
    """
    n = qubit_count(text)
    gates, suspects = _bind(_parse_text(text), thetas)
    _check(suspects, lambda i: _raised(parse_circuit, text, thetas[i]))
    states = np.zeros((len(thetas), 2**n), dtype=complex)
    states[:, 0] = 1.0
    states = _apply(states, gates, n)
    with np.errstate(all="ignore"):
        sums = np.add.reduce((states.conj() * states).real, axis=1)
    # Written so that a NaN sum is a suspect too.
    off = ~(np.abs(sums - 1.0) <= 0.5 * _NORM_ATOL)
    _check(off, lambda i: _raised(_check_state, states[i]))
    return states


def _check_state(sv: np.ndarray) -> None:
    """The check of a state before it is read: its norm, then the sum of
    its populations."""
    _check_norm(sv)
    populations(sv)


def _state_vector(sv) -> np.ndarray:
    """``sv`` as an array, which must be 1-D and numeric."""
    sv = np.asarray(sv)
    if sv.ndim != 1 or not np.issubdtype(sv.dtype, np.number):
        raise ValidationError(
            f"sv of shape {sv.shape} and dtype {sv.dtype} is not a 1-D numeric array"
        )
    return sv


def populations(sv: np.ndarray) -> np.ndarray:
    """Probabilities of the basis states, indexed by basis state - 1."""
    p = np.abs(_state_vector(sv)) ** 2
    if not abs(p.sum() - 1.0) <= _NORM_ATOL:
        raise ValidationError(f"state is not normalized: sum |a|^2 = {p.sum()!r}")
    return p


def coherence(sv: np.ndarray, i: int, j: int) -> complex:
    """Mean value of |i><j| on a pure state: conj(a_{i-1}) * a_{j-1}.

    Basis indices are 1-based. coherence(i, i) equals the population of
    state i; coherence(j, i) is the complex conjugate of coherence(i, j).
    """
    sv = _state_vector(sv)
    _integer("basis index i", i, 1, sv.shape[0])
    _integer("basis index j", j, 1, sv.shape[0])
    return complex(_coherence(sv, i, j))


def _coherence(states: np.ndarray, i, j: int) -> np.ndarray:
    """conj(a_{i-1}) * a_{j-1} of each row of ``states`` (an amplitude
    vector or a stack), written on the parts as a scalar complex product
    rounds; numpy's vector complex product can round differently. An
    array of indices ``i`` gives a column per index."""
    a, b = states[..., i - 1], states[..., j - 1]
    if a.ndim > b.ndim:
        b = b[..., None]
    out = np.empty(np.shape(a), dtype=complex)
    out.real = a.real * b.real + a.imag * b.imag
    out.imag = a.real * b.imag - a.imag * b.real
    return out
