"""Shared independent oracles for the test suite.

These deliberately avoid the code paths they are used to check: the matrix
exponential is a scaled Taylor series (no eigendecomposition), entropy and
dense expectations are direct formulas, the multiplier inverse is a damped
Newton solve of the forward map on its own ``eigh`` kernel, and the
simplex-constrained least squares is scipy's general-purpose SLSQP. The
dense references build the full N x N exponent, its spectral exp/log and
the Kronecker matrices of Pauli strings, where the library works on the
2x2 block in closed form and on state vectors. The ``mp_`` oracles repeat
the dense matrix log, the density exp(A)/Z and the Uhlmann fidelity in
60-digit mpmath arithmetic, so they bound the library's float error.
``reference_parse_circuit`` is the circuit parser as it read when every
call tokenized its text, kept to check the parse-once parser bit for bit.

Every hypothesis property test runs under one profile: derandomized, with
no example database and no deadline, so a run is repeatable and a slow
machine cannot fail it.
"""

import math
import re
from functools import reduce

import mpmath
import numpy as np
from hypothesis import settings

from qmaxent import (
    POLICY,
    DomainError,
    LagrangeSet,
    MeasurementRecord,
    ParseError,
    TomographyError,
    ValidationError,
)
from qmaxent.circuit import MAX_QUBITS, Circuit, Gate

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

# Eigenvalues below -PSD_ATOL make matrix_log_psd raise.
PSD_ATOL = 1e-10

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def taylor_expm(a, terms: int = 40) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring of the Taylor series."""
    a = np.asarray(a, dtype=complex)
    norm = float(np.abs(a).sum(axis=1).max()) if a.size else 0.0
    scale = max(0, int(np.ceil(np.log2(norm))) + 2) if norm > 0 else 0
    x = a / 2**scale
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ x / k
        out = out + term
    for _ in range(scale):
        out = out @ out
    return out


def matrix_exp_hermitian(m) -> np.ndarray:
    """exp(m) for Hermitian m via eigendecomposition; Hermitian PD result."""
    w, v = np.linalg.eigh(m)
    out = (v * np.exp(w)) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def matrix_log_psd(m, floor: float = POLICY.log_floor) -> np.ndarray:
    """log(m) for Hermitian PSD m, flooring eigenvalues at ``floor``.

    Eigenvalues in [-PSD_ATOL, floor) are clamped up to ``floor`` before
    taking logarithms; anything below -PSD_ATOL is a domain error.
    """
    if floor <= 0:
        raise ValidationError(f"floor must be positive, got {floor}")
    w, v = np.linalg.eigh(m)
    if w.min() < -PSD_ATOL:
        raise DomainError(
            f"matrix has negative eigenvalue {w.min():.3e}; log undefined"
        )
    out = (v * np.log(np.maximum(w, floor))) @ v.conj().T
    return 0.5 * (out + out.conj().T)


MP_DPS = 60


def _mp_eigh(m):
    """Eigenvalues and eigenvectors of a Hermitian mpmath matrix."""
    return mpmath.eighe(0.5 * (m + m.transpose_conj()))


def _mp_spectral(m, fn) -> mpmath.matrix:
    w, q = _mp_eigh(m)
    return q * mpmath.diag([fn(x) for x in w]) * q.transpose_conj()


def mp_matrix_log_psd(m, floor: float = POLICY.log_floor) -> np.ndarray:
    """``matrix_log_psd`` of the float matrix ``m`` in 60-digit arithmetic,
    rounded to complex floats. Eigenvalues below ``floor`` are floored."""
    with mpmath.workdps(MP_DPS):
        out = _mp_spectral(
            mpmath.matrix(np.asarray(m, dtype=complex).tolist()),
            lambda x: mpmath.log(max(x, floor)),
        )
        return np.array(out.tolist(), dtype=complex)


def mp_density(ls) -> mpmath.matrix:
    """exp(A)/Z of a LagrangeSet in 60-digit arithmetic, from the dense
    exponent ``build_exponent(ls)``: the exact state of the float
    multipliers, before any rounding to floats."""
    with mpmath.workdps(MP_DPS):
        e = _mp_spectral(mpmath.matrix(build_exponent(ls).tolist()), mpmath.exp)
        return e / mpmath.fsum(e[i, i] for i in range(e.rows))


def mp_fidelity(rho, sigma) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in 60-digit
    arithmetic, of float arrays or of mpmath matrices. Eigenvalues below 0
    count as 0; at 60 digits the square roots of the eigenvalues of
    sqrt(rho) sigma sqrt(rho) still hold 30."""
    with mpmath.workdps(MP_DPS):
        r, s = (mpmath.matrix(np.asarray(m).tolist()) if isinstance(m, np.ndarray)
                else m for m in (rho, sigma))
        root = _mp_spectral(r, lambda x: mpmath.sqrt(max(x, 0)))
        w, _ = _mp_eigh(root * s * root)
        return float(mpmath.fsum(mpmath.sqrt(max(x, 0)) for x in w) ** 2)


def build_exponent(ls) -> np.ndarray:
    """N x N constraint exponent: zeros except the {1, K} block of -lambdas."""
    n, k = ls.dim_n, ls.index_k - 1
    a = np.zeros((n, n), dtype=complex)
    a[0, 0] = -ls.lam_11
    a[0, k] = -ls.lam_1k
    a[k, 0] = -ls.lam_1k.conjugate()
    a[k, k] = -ls.lam_kk
    return a


def to_matrix(p) -> np.ndarray:
    """Dense matrix of a Pauli string with qubit 0 as least significant bit."""
    return reduce(np.kron, (PAULI_MATRICES[l] for l in reversed(p.letters)))


def assemble(d) -> np.ndarray:
    """Dense matrix of a decomposition, sum of coefficient * string."""
    dim = 2**d.num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for ps, coeff in d.terms.items():
        out += coeff * to_matrix(ps)
    return out


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def random_psd(rng: np.random.Generator, dim: int, min_eig: float = 1e-3) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T + min_eig * np.eye(dim)


def random_feasible_record(
    rng: np.random.Generator, dim_n: int | None = None
) -> MeasurementRecord:
    """Record whose 2x2 constraint minor has eigenvalues >= 1e-6.

    One draw in five pushes the smaller eigenvalue down into [1e-6, 1e-3]
    to exercise the poorly conditioned end of the feasible set.
    """
    if dim_n is None:
        dim_n = int(rng.choice([4, 8]))
    index_k = int(rng.integers(2, dim_n + 1))
    trace_share = float(rng.uniform(0.15, 0.85))
    if rng.random() < 0.2:
        small = 10.0 ** rng.uniform(-6, -3)
        eigs = np.array([small, trace_share - small])
    else:
        frac = float(rng.uniform(0.05, 0.95))
        eigs = np.array([trace_share * frac, trace_share * (1.0 - frac)])
    angle = float(rng.uniform(0.0, np.pi / 2))
    phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    c, s = np.cos(angle), np.sin(angle)
    u = np.array([[c, -s * np.conj(phase)], [s * phase, c]])
    minor = (u * eigs) @ u.conj().T
    return MeasurementRecord(
        dim_n, index_k, minor[0, 0].real, complex(minor[0, 1]), minor[1, 1].real
    )


_DB = (
    np.array([[-1, 0], [0, 0]], dtype=complex),    # d/d lam_11
    np.array([[0, -1], [-1, 0]], dtype=complex),   # d/d Re lam_1k
    np.array([[0, -1j], [1j, 0]], dtype=complex),  # d/d Im lam_1k
    np.array([[0, 0], [0, -1]], dtype=complex),    # d/d lam_kk
)


def _residual_jacobian(n: int, u: np.ndarray, target: np.ndarray):
    """Residual of the forward map and its exact 4x4 Jacobian at u.

    u = (lam11, Re lam1K, Im lam1K, lamKK). The derivative of exp(B) along
    dB is V (G o (V* dB V)) V* with G the divided-difference table of exp
    over the eigenvalues.
    """
    l11, re1k, im1k, lkk = u
    block = np.array(
        [[-l11, -(re1k + 1j * im1k)], [-(re1k - 1j * im1k), -lkk]], dtype=complex
    )
    w, v = np.linalg.eigh(block)
    # Overflowing trial points produce non-finite residuals, which the
    # damped line search rejects; keep numpy quiet about them here.
    with np.errstate(over="ignore", invalid="ignore"):
        ew = np.exp(w)
        e = (v * ew) @ v.conj().T
        z = ew.sum() + (n - 2)
        x = np.array([e[0, 0].real, e[0, 1].real, e[0, 1].imag, e[1, 1].real]) / z
        resid = x - target

        gap = w[0] - w[1]
        if abs(gap) > 1e-14 * max(1.0, abs(w[0]), abs(w[1])):
            off = (ew[0] - ew[1]) / gap
        else:
            off = ew[0]
        g = np.array([[ew[0], off], [off, ew[1]]])

        jac = np.empty((4, 4))
        for col, db in enumerate(_DB):
            de = v @ (g * (v.conj().T @ db @ v)) @ v.conj().T
            dz = de[0, 0].real + de[1, 1].real
            for row, val in enumerate(
                (de[0, 0].real, de[0, 1].real, de[0, 1].imag, de[1, 1].real)
            ):
                num = x[row] * z  # the block entry itself
                jac[row, col] = (val * z - num * dz) / z**2
    return resid, jac


def newton_lagrange(mr: MeasurementRecord) -> LagrangeSet:
    """Multipliers of a complete record by damped Newton on the forward
    map, started from zero multipliers.

    Independent of the library's inverse and forward kernel: it evaluates
    exp of the 2x2 block through ``np.linalg.eigh`` and never calls
    ``spectrum`` or ``solve_lagrange``. Raises TomographyError when Newton
    stalls above a residual of 1e-9, as it does on boundary records whose
    multipliers run off to infinity.
    """
    target = np.array(
        [mr.x_11, mr.x_1k.real, mr.x_1k.imag, mr.x_kk], dtype=float
    )
    u = np.zeros(4)
    resid, jac = _residual_jacobian(mr.dim_n, u, target)
    for _ in range(200):
        if np.abs(resid).max() <= 1e-14:
            break
        try:
            step = np.linalg.solve(jac, -resid)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -resid, rcond=None)[0]
        norm0 = np.linalg.norm(resid)
        t = 1.0
        while t >= 1e-12:
            trial = u + t * step
            r2, j2 = _residual_jacobian(mr.dim_n, trial, target)
            if np.isfinite(r2).all() and np.linalg.norm(r2) < norm0:
                u, resid, jac = trial, r2, j2
                break
            t *= 0.5
        else:
            break  # no descent direction left
    err = float(np.abs(resid).max())
    if err > 1e-9:
        raise TomographyError(f"Newton solve stalled at residual {err:.3e}")
    return LagrangeSet(mr.dim_n, mr.index_k, u[0], complex(u[1], u[2]), u[3])


def vn_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -tr(rho log rho) from the eigenvalues."""
    w = np.linalg.eigvalsh(rho)
    w = np.clip(w.real, 1e-300, None)
    return float(-(w * np.log(w)).sum())


def dense_expectation(sv: np.ndarray, op: np.ndarray) -> complex:
    return complex(np.vdot(sv, op @ sv))


def slsqp_simplex_lstsq(m: np.ndarray, f: np.ndarray) -> np.ndarray:
    """min ||M p - f||^2 over p >= 0, sum p = 1, by scipy's SLSQP."""
    from scipy.optimize import minimize

    direct = np.linalg.solve(m, f)
    start = np.maximum(direct, 0.0)
    start /= start.sum()
    result = minimize(
        lambda p: float(np.sum((m @ p - f) ** 2)),
        start,
        jac=lambda p: 2.0 * m.T @ (m @ p - f),
        method="SLSQP",
        bounds=[(0.0, 1.0)] * f.size,
        constraints={
            "type": "eq",
            "fun": lambda p: p.sum() - 1.0,
            "jac": lambda p: np.ones((1, p.size)),
        },
        options={"ftol": 1e-14, "maxiter": 300},
    )
    assert result.success, result.message
    return np.maximum(result.x, 0.0)


def _reference_factor(tok: str, theta, line: int) -> float:
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


def _reference_angle(expr: str, theta, line: int) -> float:
    expr = expr.strip()
    if not expr:
        raise ParseError("missing angle expression", line)
    parts = re.split(r"([*/])", expr.replace(" ", ""))
    value = _reference_factor(parts[0], theta, line)
    for op, tok in zip(parts[1::2], parts[2::2]):
        factor = _reference_factor(tok, theta, line)
        if op == "*":
            value *= factor
        else:
            if factor == 0:
                raise ParseError("division by zero in angle expression", line)
            value /= factor
    if not math.isfinite(value):
        raise ParseError(f"angle expression {expr!r} overflows", line)
    return value


def _reference_qubit(tok: str, num_qubits: int, line: int) -> int:
    try:
        q = int(tok)
    except ValueError:
        raise ParseError(f"bad qubit index {tok!r}", line) from None
    if not 0 <= q < num_qubits:
        raise ParseError(
            f"qubit index {q} out of range for {num_qubits} qubit(s)", line
        )
    return q


def reference_parse_circuit(text: str, theta=None) -> Circuit:
    """Parse circuit text in one pass, tokenizing it on every call."""
    num_qubits = None
    gates = []
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
                raise ParseError(f"qubit count must be in [1, {MAX_QUBITS}]", lineno)
            continue
        head = tokens[0]
        rot = re.match(r"^(rx|ry|rz)\((.*)\)$", head)
        if rot:
            kind, expr = rot.group(1), rot.group(2)
            if len(tokens) != 2:
                raise ParseError(f"{kind} takes one qubit", lineno)
            angle = _reference_angle(expr, theta, lineno)
            gates.append(Gate(kind, (_reference_qubit(tokens[1], num_qubits, lineno),), angle))
        elif head in ("rx", "ry", "rz"):
            raise ParseError(f"{head} is missing its angle, write {head}(<expr>) q", lineno)
        elif head in ("h", "x"):
            if len(tokens) != 2:
                raise ParseError(f"{head} takes one qubit", lineno)
            gates.append(Gate(head, (_reference_qubit(tokens[1], num_qubits, lineno),)))
        elif head in ("cx", "cz"):
            if len(tokens) != 3:
                raise ParseError(f"{head} takes two qubits", lineno)
            a = _reference_qubit(tokens[1], num_qubits, lineno)
            b = _reference_qubit(tokens[2], num_qubits, lineno)
            if a == b:
                raise ParseError(f"{head} needs two distinct qubits", lineno)
            gates.append(Gate(head, (a, b)))
        else:
            raise ParseError(f"unknown gate mnemonic {head!r}", lineno)
    if num_qubits is None:
        raise ParseError("empty circuit text, expected 'qubits <n>' header")
    return Circuit(num_qubits, tuple(gates))
