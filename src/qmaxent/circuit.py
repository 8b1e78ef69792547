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
its first ``theta`` are multiplied out. One angle binding (``_bind``)
binds a whole list of thetas into that parse at once: each angle is a
float64 array over the thetas, computed with the ``*`` and ``/`` of the
expression in the same order, which round as Python's floats do.
``parse_circuit(text, theta)`` is its one-theta call. Each theta gets
the errors of binding it alone, in line order with the same messages: a
line that fails whatever theta is fails only after every earlier line
has been bound. The first failing theta is reported as (index, error)
(see ``linalg``), so that a sweep measures the thetas before it.

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
simulates ``theta_free_prefix(text)`` once, broadcasts its state to
every row and applies each later gate once to the whole stack; its norm
check screens the rows and gives each suspect row the one-vector check.
The axis orders per (qubit, n) and the matrices of the parameter-free
gates and of the basis rotation rz(-pi/2) are built once.
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
from .linalg import _earliest, _raise, _raised

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
# The tolerance of the norm check and of the population-sum check.
_NORM_ATOL = 1e-10


def _uses_theta(tok: str) -> bool:
    return (tok[1:] if tok.startswith("-") else tok) == "theta"


class _BindErrors:
    """The first error of each theta of a binding. ``add(mask, reason,
    line)`` gives (reason, line) to each theta in ``mask`` (a bool array,
    or True for every theta) that has no error yet; a reason may be a
    function of the theta's index."""

    __slots__ = ("codes", "errors")

    def __init__(self, size: int):
        self.codes = np.zeros(size, dtype=np.intp)
        self.errors: list = [None]

    def add(self, mask, reason, line: int | None) -> None:
        new = (self.codes == 0) & mask
        if new.any():
            self.codes[new] = len(self.errors)
            self.errors.append((reason, line))

    def first(self) -> tuple[int, ParseError] | None:
        """The first theta that has an error, with that error."""
        failed = np.flatnonzero(self.codes)
        if not failed.size:
            return None
        i = int(failed[0])
        reason, line = self.errors[self.codes[i]]
        return i, ParseError(reason(i) if callable(reason) else reason, line)


def _eval_terms(value, terms, thetas, theta, line: int, errors: _BindErrors):
    """Fold (op, factor) terms into ``value`` left to right; the first
    term of an expression starts it (``value`` None). ``theta`` is the
    float64 array of the bindings ``thetas`` (both None when theta is
    unbound); each failure goes to ``errors``, and a theta that has
    failed computes on garbage. Every value is a numpy float: its ``*``
    and ``/`` round as Python's do."""
    for op, tok in terms:
        sign = 1.0
        if tok.startswith("-"):
            sign, tok = -1.0, tok[1:]
        if tok == "theta":
            if theta is None:
                errors.add(True, "angle uses 'theta' but no binding was supplied", line)
                factor = np.float64(math.nan)
            else:
                errors.add(
                    ~np.isfinite(theta),
                    lambda i: f"angle uses 'theta' bound to {thetas[i]!r}",
                    line,
                )
                factor = sign * theta
        else:
            if tok == "pi":
                factor = math.pi
            else:
                try:
                    factor = float(tok)
                except ValueError:
                    errors.add(True, f"bad angle factor {tok!r}", line)
                    factor = math.nan
                else:
                    if not math.isfinite(factor):
                        errors.add(True, f"angle factor {tok!r} is not finite", line)
            factor = np.float64(sign * factor)
        if value is None:
            value = factor
        elif op == "*":
            value = value * factor
        else:
            errors.add(factor == 0, "division by zero in angle expression", line)
            value = value / factor
    return value


class _Angle(NamedTuple):
    """An angle expression cut before its first ``theta`` factor: ``head``
    is the value of the factors before it (None when there are none) and
    ``tail`` the (op, factor) terms from it on."""

    expr: str
    head: float | None
    tail: tuple[tuple[str, str], ...]


def _overflow(value, expr: str, line: int, errors: _BindErrors) -> None:
    """The last check of an angle: its value must be finite."""
    errors.add(~np.isfinite(value), f"angle expression {expr!r} overflows", line)


def _compile_angle(expr: str, line: int) -> _Angle:
    """Split an angle expression at its first ``theta`` factor and
    evaluate the factors before it, raising their errors; an expression
    without theta is checked whole."""
    expr = expr.strip()
    if not expr:
        raise ParseError("missing angle expression", line)
    parts = re.split(r"([*/])", expr.replace(" ", ""))
    terms = tuple(zip(["*", *parts[1::2]], parts[0::2]))
    cut = next((i for i, (_, tok) in enumerate(terms) if _uses_theta(tok)), len(terms))
    errors = _BindErrors(1)
    with np.errstate(all="ignore"):
        head = _eval_terms(None, terms[:cut], None, None, line, errors)
        if cut == len(terms):
            _overflow(head, expr, line, errors)
    _raise(errors.first())
    return _Angle(expr, head, terms[cut:])


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
            qubit = _parse_qubit(tokens[1], num_qubits, line)
            gates.append(Gate(kind, (qubit,), angle.head.item()))
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


def _bind(parsed: _Parsed, thetas: list | None):
    """The one angle binding: every theta of ``thetas`` (None binds none)
    bound into a parse at once.

    Returns the gates in order, each a Gate or, for a rotation that uses
    theta, a (kind, qubit, angles) triple with one float64 angle per
    theta, and the first theta whose binding fails, as (index,
    ParseError), or None. Each theta gets the error, line and message of
    binding it alone; a failed theta's angles are 0.0.
    """
    errors = _BindErrors(1 if thetas is None else len(thetas))
    theta = None
    gates = []
    with np.errstate(all="ignore"):
        for gate in parsed.gates:
            if isinstance(gate, _Rotation):
                if theta is None and thetas is not None:
                    # A product with a float rejects what the scalar
                    # parser's float arithmetic rejected, a string say.
                    theta = np.array([1.0 * t for t in thetas], dtype=float)
                angle = gate.angle
                value = _eval_terms(angle.head, angle.tail, thetas, theta, gate.line, errors)
                _overflow(value, angle.expr, gate.line, errors)
                if gate.qubit is None:
                    break
                gate = (gate.kind, gate.qubit, np.where(errors.codes == 0, value, 0.0))
            gates.append(gate)
    if parsed.error is not None:
        errors.add(True, *parsed.error)
    return gates, errors.first()


def parse_circuit(text: str, theta: float | None = None) -> Circuit:
    """Parse circuit text, substituting ``theta`` into angle expressions
    (a one-theta call of the angle binding)."""
    parsed = _parse_text(text)
    gates, failure = _bind(parsed, None if theta is None else [theta])
    _raise(failure)
    return Circuit(parsed.num_qubits, tuple(
        g if isinstance(g, Gate) else Gate(g[0], (g[1],), g[2].item()) for g in gates
    ))


def theta_free_prefix(text: str) -> Circuit:
    """The gates of ``text`` before its first gate that uses theta: the
    same in every circuit ``parse_circuit(text, theta)`` returns. Raises
    the first theta-free parse error of ``text``, if it has one."""
    parsed = _parse_text(text)
    if parsed.error is not None:
        raise ParseError(*parsed.error)
    gates = takewhile(lambda g: isinstance(g, Gate), parsed.gates)
    return Circuit(parsed.num_qubits, tuple(gates))


def _rotation_matrices(kind: str, angles: np.ndarray) -> np.ndarray:
    """The (T, 2, 2) matrices of a rotation at each of T angles, each one
    the bits of a one-angle build: cos and sin of angle / 2 by Python's
    math, -1j * sin a Python complex, and rz's entries numpy's exp of the
    Python complexes -+1j * angle / 2."""
    half = (angles / 2).tolist()
    u = np.empty((len(half), 2, 2), dtype=complex)
    if kind == "rz":
        u[:, 0, 0] = np.exp([-1j * t for t in half])
        u[:, 0, 1] = u[:, 1, 0] = 0
        u[:, 1, 1] = np.exp([1j * t for t in half])
        return u
    cos = [math.cos(t) for t in half]
    sin = [math.sin(t) for t in half]
    u[:, 0, 0] = u[:, 1, 1] = cos
    if kind == "rx":
        u[:, 0, 1] = u[:, 1, 0] = [-1j * s for s in sin]
    else:  # ry
        u[:, 0, 1] = [-s for s in sin]
        u[:, 1, 0] = sin
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


@lru_cache(maxsize=None)
def _axis_orders(qubit: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The amplitude tensor of a stack, rows first, and the two axis
    orders of ``_apply_1q``: the transposes ``np.moveaxis(psi, axis, -1)``
    and ``np.moveaxis(psi, -1, axis)`` make, for axis = n - qubit. One
    qubit's tensor is (rows, 1, 2), so that each row's product is the
    vector-matrix product of a lone vector."""
    if n == 1:
        return (-1, 1, 2), (0, 1, 2), (0, 1, 2)
    axis = n - qubit
    to_last = tuple(a for a in range(n + 1) if a != axis) + (axis,)
    from_last = tuple(range(axis)) + (n,) + tuple(range(axis, n))
    return (-1,) + (2,) * n, to_last, from_last


def _apply_1q(state: np.ndarray, u: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """``u`` on ``qubit`` of every row of ``state``, an amplitude vector
    (one row) or a (T, 2^n) stack; ``u`` is one 2x2 matrix, or a (T, 2, 2)
    stack of one matrix per row.

    For n >= 2 the amplitude pairs of the target, copied with its axis
    last and contiguous, are one (M, 2) matrix: a fixed gate is one
    (M, 2) @ u^T product and a per-row one a single batched
    (T, M/T, 2) @ u^T product, whatever T is. One qubit's rows stay
    (1, 2) vectors of a batch, each the product of a lone vector."""
    shape, to_last, from_last = _axis_orders(qubit, n)
    psi = state.reshape(shape).transpose(to_last)
    if n == 1:
        out = psi @ (u.T if u.ndim == 2 else u.transpose(0, 2, 1))
    elif u.ndim == 2:
        out = psi.reshape(-1, 2) @ u.T
    else:
        out = psi.reshape(len(u), 2 ** (n - 1), 2) @ u.transpose(0, 2, 1)
    return out.reshape(psi.shape).transpose(from_last).reshape(state.shape)


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
    gates = tuple(gates)
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


def simulate(c: Circuit, state: np.ndarray | None = None) -> np.ndarray:
    """Run the circuit on |0...0>, or on ``state`` when one is given (the
    state after a shared prefix, say), and return the final amplitude
    vector."""
    if state is None:
        state = zero_state(c.num_qubits)
    return apply_gates(state, c.gates, c.num_qubits)


def _sweep_states(text: str, thetas: list):
    """The final amplitudes of ``text`` at every theta of ``thetas``, one
    row per theta of a (T, 2^n) stack, and the first theta whose binding
    or norm check fails, as (index, error), or None; on a tie the binding
    error. Rows from that index on are not to be read.

    The theta-free prefix is simulated once, its errors raised at once,
    and its state broadcast to the rows; each later gate applies once to
    the whole stack.
    """
    prefix = theta_free_prefix(text)
    n = prefix.num_qubits
    gates, failure = _bind(_parse_text(text), thetas)
    states = np.broadcast_to(simulate(prefix), (len(thetas), 2**n))
    states = _apply(states, gates[len(prefix.gates):], n)
    with np.errstate(all="ignore"):
        norms = np.linalg.norm(states, axis=1)
    return states, _earliest(failure, _screen_rows(norms, _check_norm, states))


def _screen_rows(sums, check, states: np.ndarray):
    """The first row of ``states`` that fails ``check``, the one-row norm
    or population-sum check, as (index, error), or None. A row of a stack
    may sum differently from a lone vector, so its ``sums`` (norms or
    population sums) only screen: each row off 1 by more than half the
    tolerance gets the one-row check."""
    for i, total in enumerate(sums.tolist()):
        # Written so that a NaN sum is screened too.
        if not abs(total - 1.0) <= 0.5 * _NORM_ATOL:
            error = _raised(check, states[i])
            if error is not None:
                return i, error
    return None


def populations(sv: np.ndarray) -> np.ndarray:
    """Probabilities of the basis states, indexed by basis state - 1."""
    p = np.abs(np.asarray(sv)) ** 2
    if not abs(p.sum() - 1.0) <= _NORM_ATOL:
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
    return complex(_coherence(sv, i, j))


def _coherence(states: np.ndarray, i: int, j: int) -> np.ndarray:
    """conj(a_{i-1}) * a_{j-1} of each row of ``states`` (an amplitude
    vector or a stack), written on the parts as a scalar complex product
    rounds; numpy's vector complex product can round differently."""
    a, b = states[..., i - 1], states[..., j - 1]
    out = np.empty(np.shape(a), dtype=complex)
    out.real = a.real * b.real + a.imag * b.imag
    out.imag = a.real * b.imag - a.imag * b.real
    return out
