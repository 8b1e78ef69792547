"""Shared independent oracles for the test suite.

These deliberately avoid the code paths they are used to check: the matrix
exponential is a scaled Taylor series (no eigendecomposition), entropy and
dense expectations are direct formulas, and the simplex-constrained least
squares is scipy's general-purpose SLSQP. The dense references build the
full N x N exponent, its spectral exp/log and the Kronecker matrices of
Pauli strings, where the library works on the 2x2 block in closed form
and on state vectors.
"""

from functools import reduce

import numpy as np

from qmaxent import POLICY, DomainError, MeasurementRecord, ValidationError
from qmaxent.linalg import hermitian_eig

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
    w, v = hermitian_eig(m)
    out = (v * np.exp(w)) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def matrix_log_psd(m, floor: float = POLICY.log_floor) -> np.ndarray:
    """log(m) for Hermitian PSD m, flooring eigenvalues at ``floor``.

    Eigenvalues in [-PSD_ATOL, floor) are clamped up to ``floor`` before
    taking logarithms; anything below -PSD_ATOL is a domain error.
    """
    if floor <= 0:
        raise ValidationError(f"floor must be positive, got {floor}")
    w, v = hermitian_eig(m)
    if w.min() < -PSD_ATOL:
        raise DomainError(
            f"matrix has negative eigenvalue {w.min():.3e}; log undefined"
        )
    out = (v * np.log(np.maximum(w, floor))) @ v.conj().T
    return 0.5 * (out + out.conj().T)


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
