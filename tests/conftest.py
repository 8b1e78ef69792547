"""Shared independent oracles for the test suite.

These deliberately avoid the code paths they are used to check: the matrix
exponential is a scaled Taylor series (no eigendecomposition), entropy and
dense expectations are direct formulas, the multiplier inverse is a damped
Newton solve of the forward map on its own ``eigh`` kernel, and the
projection onto the probability simplex finds its threshold by bisection
(no sort). The dense references build the full N x N exponent, its
spectral exp/log and the Kronecker matrices of Pauli strings, where the
library works on the 2x2 block in closed form and on state vectors. The
``mp_`` oracles repeat the dense matrix log, the density exp(A)/Z and the
Uhlmann fidelity in 60-digit mpmath arithmetic, so they bound the
library's float error; the ``mp_`` kernels do the same for each stage of
the library's array kernels, formula by formula.
``reference_parse_circuit`` is a circuit parser that tokenizes its text
on every call, in two passes (the errors that do not depend on theta,
then the binding), kept to check the parse-once parser bit for bit.
``reference_simulate`` is the simulator as it read before states were
stacked: one gate at a time on a lone vector, each matrix built from
Python floats, each one-qubit product through ``np.moveaxis``.
``reference_transposed_apply_1q`` is the one-qubit kernel as it read
with one tensor axis per qubit and two transposes per gate.
``reference_rotation_matrices`` builds a rotation's matrices from
per-angle lists of Python floats and complexes, to check the array
build of ``circuit._rotation_matrices`` bit for bit. Both references
write -1j * s and 1j * t as ``_times_minus_i`` and ``_times_i``: the
parts CPython before 3.14 gives them, which do not change with the
Python version.
The ``reference_`` completion and solve are the scalar float code of
one point at a time, and the ``reference_`` forward map is ``mp_forward``
rounded to floats, kept to check the error type and message of each
failing point of an array kernel's call.
``reference_sampled_sweep`` is the sampled measurement drawn one row at
a time from one generator, each state rotated from the start by its own
basis rotations (written out here, not taken from the library), read
through ``M``, and mitigated and recombined by the scalar code of one
draw; the sweep's batched draw must give the same tallies.
``reference_sweep_points`` is the sweep as it read when it built one
point at a time in a loop, kept to check the sweep's columns bit for
bit on sweeps that raise nothing. The ``reference_emit``
functions and ``reference_write_columns`` are the CSV emit as it read
when every row was one Python format call of a row template, kept to
check the buffer emit of whole files byte for byte.

Every hypothesis property test runs under one profile: derandomized, with
no example database and no deadline, so a run is repeatable and a slow
machine cannot fail it.
"""

import ast
import math
import re
import sys
from functools import lru_cache, reduce
from pathlib import Path

import mpmath
import numpy as np
from hypothesis import settings

from qmaxent import (
    DomainError,
    LagrangeSet,
    MeasurementRecord,
    ParseError,
    TomographyError,
    ValidationError,
)
from qmaxent import maxent
from qmaxent.circuit import (
    MAX_QUBITS,
    Circuit,
    Gate,
    _coherence,
    _sweep_states,
    apply_gates,
    qubit_count,
)
from qmaxent.pauli import decompose_ketbra
from qmaxent.errors import InfeasibleRecordError
from qmaxent.linalg import _number
from qmaxent.maxent import _check_record_values

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


def matrix_log_psd(m, floor: float = maxent._LOG_FLOOR) -> np.ndarray:
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


def mp_matrix_log_psd(m, floor: float = maxent._LOG_FLOOR) -> np.ndarray:
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


# The 60-digit kernels: each stage of the completion, the solve, the forward
# map, the prediction and the block fidelity, by its formula, on the float
# inputs of that stage and with its branches taken on the exact values.
# They return mpmath numbers, so a test measures the float kernels' own
# rounding. The tolerances are ``maxent``'s constants, read at call time.


def mp_project(x_11, x_1k, x_kk):
    """The estimates (x11, x1K, xKK) projected onto the feasible set."""
    with mpmath.workdps(MP_DPS):
        x11, x1k, xkk = mpmath.mpf(x_11), mpmath.mpc(x_1k), mpmath.mpf(x_kk)
        x11, xkk = (min(max(v, 0), 1) for v in (x11, xkk))
        if abs(x1k) > 1:
            x1k = x1k / abs(x1k)
        total = x11 + xkk
        if total > 1:
            x11, x1k, xkk = x11 / total, x1k / total, xkk / total
        bound = mpmath.sqrt(x11 * xkk)
        if abs(x1k) > bound:
            x1k = x1k * bound / abs(x1k)
        return x11, x1k, xkk


def mp_rescale(x_11, x_1k, x_kk):
    """A feasible record moved off x11 + xKK = 1 by (1 - 1e-9)/(x11 + xKK)."""
    with mpmath.workdps(MP_DPS):
        x11, x1k, xkk = mpmath.mpf(x_11), mpmath.mpc(x_1k), mpmath.mpf(x_kk)
        total = x11 + xkk
        if total < 1.0 - maxent._FEASIBILITY_ATOL:
            return x11, x1k, xkk
        c = (1.0 - 1e-9) / total
        return c * x11, c * x1k, c * xkk


def mp_solve(dim_n, x_11, x_1k, x_kk, near_singular):
    """The multipliers (lam_11, lam_1k, lam_kk) of a record whose minor the
    float solve flagged ``near_singular`` or not, and the condition of the
    solve: 1/(1 - x11 - xKK), plus w+/w- when w- is not floored."""
    with mpmath.workdps(MP_DPS):
        x11, x1k, xkk = mpmath.mpf(x_11), mpmath.mpc(x_1k), mpmath.mpf(x_kk)
        floor = maxent._LOG_FLOOR
        z = (dim_n - 2) / (1 - x11 - xkk)
        half_gap = (x11 - xkk) / 2
        r = mpmath.sqrt(half_gap**2 + abs(x1k) ** 2)
        w_hi = (x11 + xkk) / 2 + r
        w_lo = (x11 * xkk - abs(x1k) ** 2) / w_hi if w_hi > 0 else 0
        log_hi = mpmath.log(max(z * w_hi, floor))
        log_lo = mpmath.log(floor if near_singular else z * w_lo)
        if r == 0:
            g = 0
        elif near_singular:
            g = (log_hi - log_lo) / (2 * r)
        else:
            g = mpmath.log1p(2 * r / w_lo) / (2 * r)
        avg = (log_hi + log_lo) / 2
        lams = (-(avg + g * half_gap), -g * x1k, -(avg - g * half_gap))
        condition = 1 / (1 - x11 - xkk) + (0 if near_singular else w_hi / w_lo)
        return lams, condition


@lru_cache(maxsize=8192)
def _mp_block(l_11, l_1k, l_kk):
    """exp(A) on the block A = -[[l11, l1k], [l1k*, lkk]] of float
    multipliers, as (e11, e1k, ekk), by Sylvester's formula on the block's
    two eigenvalues at 60 digits (the Lagrange-interpolation method of
    Moler and Van Loan, SIAM Rev. 45, 2003; Higham, Functions of Matrices,
    SIAM 2008, ch. 10). With h = (lkk - l11)/2, c = |l1k|,
    r = sqrt(h^2 + c^2) and t = c^2/(r + |h|), the eigenvalues of A are
    taken from the multipliers, -max(l11, lkk) - t and -min(l11, lkk) + t:
    written as -m -+ r they would lose a small multiplier beside a huge
    one. With s = (hi - lo)/(2r), or exp(-(l11 + lkk)/2) sinh(r)/r while
    2r < 1, the smaller diagonal entry is lo + s t, the larger
    lo + s (r + |h|), and the (1, K) entry -s l1k.

    It shares the library's algebra, not its float arithmetic, so
    ``mp_block_expm`` referees it in the tests. Kept for repeated
    multipliers: a set's case B solve is its record's solve."""
    with mpmath.workdps(MP_DPS):
        l11, l1k, lkk = mpmath.mpf(l_11), mpmath.mpc(l_1k), mpmath.mpf(l_kk)
        h, c = (lkk - l11) / 2, abs(l1k)
        r = mpmath.sqrt(h * h + c * c)
        t = c * c / (r + abs(h)) if c else mpmath.mpf(0)
        lo = mpmath.exp(-max(l11, lkk) - t)
        hi = mpmath.exp(-min(l11, lkk) + t)
        if 2 * r >= 1:
            s = (hi - lo) / (2 * r)
        else:
            s = mpmath.exp(-(l11 + lkk) / 2) * (mpmath.sinh(r) / r if r else 1)
        small, large = lo + s * t, lo + s * (r + abs(h))
        e11, ekk = (small, large) if l11 >= lkk else (large, small)
        return e11, -s * l1k, ekk


def mp_block_expm(l_11, l_1k, l_kk):
    """``_mp_block`` by ``mpmath.expm``: a Taylor series with scaling and
    squaring, with no eigenvalues and nothing of the library's closed
    form. expm runs on the real block with c = |l1k| in place of l1k,
    which diag(1, conj(l1k)/c) carries to A, so e1k is its (1, 2) entry
    times l1k/c."""
    with mpmath.workdps(MP_DPS):
        l11, l1k, lkk = mpmath.mpf(l_11), mpmath.mpc(l_1k), mpmath.mpf(l_kk)
        c = abs(l1k)
        e = mpmath.expm(-mpmath.matrix([[l11, c], [c, lkk]]))
        return e[0, 0], e[0, 1] * l1k / c if c else mpmath.mpc(0), e[1, 1]


def mp_forward(dim_n, l_11, l_1k, l_kk):
    """The forward map of float multipliers: (z, (e11, e1k, ekk)), the z
    and block of ``maxent._exponent_spectrum``, from ``_mp_block``."""
    with mpmath.workdps(MP_DPS):
        e11, e1k, ekk = _mp_block(l_11, l_1k, l_kk)
        return e11 + ekk + dim_n - 2, (e11, e1k, ekk)


def mp_predict(x_11, x_1k):
    """|x1K|^2 / x11 clamped to [0, 1 - x11]."""
    with mpmath.workdps(MP_DPS):
        x11 = mpmath.mpf(x_11)
        return min(abs(mpmath.mpc(x_1k)) ** 2 / x11, max(0, 1 - x11))


def mp_block_fidelity(dim_n, lams_a, lams_b):
    """The block formula of ``block_fidelity`` on two float multiplier
    sets (lam_11, lam_1k, lam_kk) of one N and K."""
    with mpmath.workdps(MP_DPS):
        (za, (a11, a1k, akk)), (zb, (b11, b1k, bkk)) = (
            mp_forward(dim_n, *lams) for lams in (lams_a, lams_b)
        )
        overlap = a11 * b11 + akk * bkk + 2 * mpmath.re(a1k * mpmath.conj(b1k))
        lam_sum = sum(mpmath.mpf(v) for v in (lams_a[0], lams_a[2], lams_b[0], lams_b[2]))
        total = overlap + 2 * mpmath.exp(-lam_sum / 2)
        value = (mpmath.sqrt(max(total, 0)) + dim_n - 2) ** 2 / (za * zb)
        return min(max(value, 0), 1)


EPS = sys.float_info.epsilon
# The smallest normal float; a value below it has fewer than 53 bits.
TINY = sys.float_info.min

# The bound on each quantity's error over the inputs of the tests that
# check it (``test_sweep_kernel``'s, and the spectrum tests that call
# ``check_forward``), in units of EPS times the scale ``error`` is given,
# rounded up in the third decimal. The forward map's own bounds (block, z
# and expectation) are the closed-form kernel's largest error on those
# inputs; the others, fidelity included, are the largest error of the
# float code that came before.
BOUNDS = {
    "project": 1.047,
    "rescale": 0.912,
    "lam": 0.990,
    "block": 1.283,
    "z": 1.090,
    "expectation": 0.943,
    "prediction": 1.643,
    "fidelity": 3.755,
}


def error(got, want, scale) -> float:
    """|got - want| in units of EPS * scale: the float ``got`` against the
    mpmath ``want``, whose difference mpmath rounds once."""
    return float(abs(mpmath.mpmathify(got) - want)) / (EPS * float(scale))


def within(name: str, *errors: float) -> None:
    assert max(errors) <= BOUNDS[name], f"{name}: {max(errors):.3g} EPS"


def check_forward(dim_n, lams, got_z, got_block):
    """The forward map (z and the block (e11, e1k, ekk) of exp(A)) of float
    multipliers, component by component. An exponential magnifies an
    error of its argument by that argument's size, so with g = 1 + the
    largest multiplier modulus each block entry is measured against g
    times its own modulus, or TINY when that is smaller, and z against g z."""
    z, block = mp_forward(dim_n, *lams)
    g = 1 + max(abs(v) for v in lams)
    within("block", *(
        error(got, want, g * max(abs(want), TINY)) for got, want in zip(got_block, block)
    ))
    within("z", error(got_z, z, g * z))


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


def assemble(terms) -> np.ndarray:
    """Dense matrix of a decomposition, sum of coefficient * string."""
    dim = 2**next(iter(terms)).num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for ps, coeff in terms.items():
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


def bisection_simplex_projection(v: np.ndarray) -> tuple[np.ndarray, float]:
    """Euclidean projection of v onto the probability simplex and its
    threshold tau: max(v - tau, 0) sums to 1, with tau bisected to 1e-15."""
    # The sum is n + sum(v - min(v)) >= 1 at lo and 0 at hi, and falls in tau.
    lo, hi = float(v.min()) - 1.0, float(v.max())
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.maximum(v - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    return np.maximum(v - tau, 0.0), tau


# How far a sampled sweep's mitigated populations and recombined x1K may
# lie from ``reference_sampled_sweep`` on the same tallies: a product over
# many rows rounds differently from one row's matvec and from the
# sequential coeff * mean sum. Measured at most 0.75 eps on 21-theta
# sweeps of the four bundled models, every mode, seeds 0-29, 100 and
# 8192 shots.
SAMPLED_ATOL = 2 * np.finfo(float).eps


def _reference_reads(states, rotations, matrix, shots) -> np.ndarray:
    """The outcome distributions of a stack of states, each rotated by
    ``rotations`` from the start, read through ``matrix`` (None: no noise)
    as one product over the stack, as the sampler documents, and
    normalized for a draw."""
    n = states.shape[1].bit_length() - 1
    p = np.abs(np.array([apply_gates(sv, rotations, n) for sv in states])) ** 2
    if matrix is not None:
        p = p @ matrix.T
    return p if shots is None else p / p.sum(axis=1, keepdims=True)


def _reference_draw(rng, dist, shots, inverse, tallies: list) -> np.ndarray:
    """One draw of the one-generator reference: a multinomial tally of
    ``dist`` from ``rng`` (appended to ``tallies``), or ``dist`` itself
    when ``shots`` is None, then M^-1 f or its sort-and-threshold
    projection onto the simplex when ``inverse`` is given."""
    freqs = dist
    if shots is not None:
        tally = rng.multinomial(shots, dist)
        tallies.append(tally)
        freqs = tally / shots
    if inverse is None:
        return freqs
    assert freqs.min() >= 0 and abs(freqs.sum() - 1) <= 1e-9
    direct = inverse @ freqs
    if direct.min() >= 0.0:
        return direct
    u = np.sort(direct)[::-1]
    excess = np.cumsum(u) - 1.0
    last = np.flatnonzero(u * np.arange(1, u.size + 1) > excess)[-1]
    return np.maximum(direct - excess[last] / (last + 1), 0.0)


def reference_basis(p) -> tuple[tuple[Gate, ...], int]:
    """The pre-rotations that read a Pauli string in the Z basis, in qubit
    order, and the mask of the qubits whose parity is its value: S-dagger
    then H maps Y to Z, written as RZ(-pi/2) (S-dagger up to a global
    phase), and H maps X to Z."""
    rotations, mask = [], 0
    for q, letter in enumerate(p.letters):
        if letter == "X":
            rotations.append(Gate("h", (q,)))
        elif letter == "Y":
            rotations += [Gate("rz", (q,), -math.pi / 2), Gate("h", (q,))]
        if letter != "I":
            mask |= 1 << q
    return tuple(rotations), mask


def basis_gates(index: int, num_qubits: int) -> tuple[Gate, ...]:
    """The rotations of the basis with index ``index`` (``sampler._group_bases``):
    its base-3 digit on qubit q is 0 for I or Z (no gate), 1 for X (H)
    and 2 for Y (RZ(-pi/2) then H), in qubit order."""
    rotations = []
    for q in range(num_qubits):
        digit = index // 3**q % 3
        if digit == 2:
            rotations.append(Gate("rz", (q,), -math.pi / 2))
        if digit:
            rotations.append(Gate("h", (q,)))
    return tuple(rotations)


def reference_sampled_sweep(
    states, k_targets, shots, matrix, inverse, seed, populations: bool = True
):
    """The tallies, in draw order, and the (x11, x1K, xKK) of every point of
    a sampled sweep over a stack of ``states``, theta outer and K inner,
    drawn one row at a time from one ``default_rng(seed)``. Per point: its
    populations (unless ``populations`` is False, which leaves x11 and xKK
    NaN), then each basis of the Pauli expansion of |K><1| in the order of
    its first string; each string reads its parity in its basis, and x1K
    is coeff * mean summed in expansion order."""
    n = states.shape[1].bit_length() - 1
    reads = {}

    def draw(row, rotations):
        if rotations not in reads:
            reads[rotations] = _reference_reads(states, rotations, matrix, shots)
        return _reference_draw(rng, reads[rotations][row], shots, inverse, tallies)

    rng = np.random.default_rng(seed)
    tallies, values = [], []
    for row in range(len(states)):
        for k in k_targets:
            pops = draw(row, ()) if populations else np.full(2**n, math.nan)
            terms = decompose_ketbra(k, 1, n)
            basis_of = {p: reference_basis(p) for p in terms}
            freqs = {}
            for rotations, _ in basis_of.values():
                if rotations not in freqs:
                    freqs[rotations] = draw(row, rotations)
            x1k = complex(0.0)
            for p, coeff in terms.items():
                rotations, mask = basis_of[p]
                signs = np.array([(-1.0) ** bin(i & mask).count("1") for i in range(2**n)])
                x1k += coeff * float(signs @ freqs[rotations])
            values.append((float(pops[0]), x1k, float(pops[k - 1])))
    return tallies, values


# The theta of the first parse pass: not bound yet, so that pass raises
# only the errors that do not depend on theta.
_DEFERRED = object()


def _reference_factor(tok: str, theta, line: int) -> float | None:
    """The value of one angle factor; None for a deferred theta."""
    sign = 1.0
    if tok.startswith("-"):
        sign, tok = -1.0, tok[1:]
    if tok == "pi":
        return sign * math.pi
    if tok == "theta":
        if theta is _DEFERRED:
            return None
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


def _reference_angle(expr: str, theta, line: int) -> float | None:
    """The value of an angle expression; None once a deferred theta
    enters it, whose later literals are still checked."""
    expr = expr.strip()
    if not expr:
        raise ParseError("missing angle expression", line)
    parts = re.split(r"([*/])", expr.replace(" ", ""))
    value = _reference_factor(parts[0], theta, line)
    for op, tok in zip(parts[1::2], parts[2::2]):
        factor = _reference_factor(tok, theta, line)
        if op == "/" and factor == 0:
            raise ParseError("division by zero in angle expression", line)
        if value is None or factor is None:
            value = None
        elif op == "*":
            value *= factor
        else:
            value /= factor
    if value is not None and not math.isfinite(value):
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


def _reference_pass(text: str, theta):
    """One pass over a circuit text: its qubit count and the (kind,
    targets, angle) of each gate, or the first error of the pass."""
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
            gates.append((kind, (_reference_qubit(tokens[1], num_qubits, lineno),), angle))
        elif head in ("rx", "ry", "rz"):
            raise ParseError(f"{head} is missing its angle, write {head}(<expr>) q", lineno)
        elif head in ("h", "x"):
            if len(tokens) != 2:
                raise ParseError(f"{head} takes one qubit", lineno)
            gates.append((head, (_reference_qubit(tokens[1], num_qubits, lineno),)))
        elif head in ("cx", "cz"):
            if len(tokens) != 3:
                raise ParseError(f"{head} takes two qubits", lineno)
            a = _reference_qubit(tokens[1], num_qubits, lineno)
            b = _reference_qubit(tokens[2], num_qubits, lineno)
            if a == b:
                raise ParseError(f"{head} needs two distinct qubits", lineno)
            gates.append((head, (a, b)))
        else:
            raise ParseError(f"unknown gate mnemonic {head!r}", lineno)
    if num_qubits is None:
        raise ParseError("empty circuit text, expected 'qubits <n>' header")
    return num_qubits, gates


def reference_parse_circuit(text: str, theta=None) -> Circuit:
    """Parse circuit text in two passes, tokenizing it on each: the first
    raises the first error that does not depend on theta, in line order;
    the second binds theta and raises the first error it decides."""
    _reference_pass(text, _DEFERRED)
    num_qubits, gates = _reference_pass(text, theta)
    return Circuit(num_qubits, tuple(Gate(*g) for g in gates))


def _times_minus_i(s: float) -> complex:
    """-1j * s for a finite float s, as CPython before 3.14 rounds it
    (from 3.14 the real part is -0.0 * s)."""
    return complex(0.0, -s)


def _times_i(t: float) -> complex:
    """1j * t for a finite float t, as CPython before 3.14 rounds it
    (from 3.14 it is (0.0 * t, t))."""
    return complex(0.0 * t - 0.0, 0.0 + t)


def _reference_matrix(gate: Gate) -> np.ndarray:
    if gate.kind == "h":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if gate.kind == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    t = gate.angle / 2
    if gate.kind == "rx":
        s = _times_minus_i(math.sin(t))
        return np.array([[math.cos(t), s], [s, math.cos(t)]])
    if gate.kind == "ry":
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]], dtype=complex)
    return np.array([[np.exp(_times_minus_i(t)), 0], [0, np.exp(_times_i(t))]])


def reference_rotation_matrices(kind: str, angles: np.ndarray) -> np.ndarray:
    """The (T, 2, 2) matrices of a rotation at each of T angles, built
    from per-angle lists of Python floats and complexes, the reference
    for ``circuit._rotation_matrices``: for t = angle / 2, cos t and
    sin t by Python's math, rx's off-diagonal entries -1j * sin t, and
    rz's entries numpy's exp of -1j * t and 1j * t, each product one
    Python complex."""
    half = (angles / 2).tolist()
    u = np.empty((len(half), 2, 2), dtype=complex)
    if kind == "rz":
        u[:, 0, 0] = np.exp([_times_minus_i(t) for t in half])
        u[:, 0, 1] = u[:, 1, 0] = 0
        u[:, 1, 1] = np.exp([_times_i(t) for t in half])
        return u
    cos = [math.cos(t) for t in half]
    sin = [math.sin(t) for t in half]
    u[:, 0, 0] = u[:, 1, 1] = cos
    if kind == "rx":
        u[:, 0, 1] = u[:, 1, 0] = [_times_minus_i(s) for s in sin]
    else:  # ry
        u[:, 0, 1] = [-s for s in sin]
        u[:, 1, 0] = sin
    return u


def reference_simulate(c: Circuit) -> np.ndarray:
    """The final amplitudes of ``c`` on |0...0>, one gate at a time."""
    n = c.num_qubits
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    index = np.arange(2**n)
    for gate in c.gates:
        if gate.kind in ("cx", "cz"):
            # Exact moves: cx swaps the amplitude pairs of the target where
            # the control is 1, cz negates those with both bits 1.
            first, second = (1 << q for q in gate.targets)
            on = index & first != 0
            state = state.copy()
            if gate.kind == "cx":
                state[on] = state[index[on] ^ second]
            else:
                on &= index & second != 0
                state[on] = -state[on]
        else:
            axis = n - 1 - gate.targets[0]
            psi = np.moveaxis(state.reshape([2] * n), axis, -1) @ _reference_matrix(gate).T
            state = np.moveaxis(psi, -1, axis).reshape(-1)
    return state


def reference_transposed_apply_1q(state, u, qubit, n):
    """``circuit._apply_1q`` as it read when it viewed a stack as a
    (rows, 2, ..., 2) tensor, one axis per qubit, and moved the target's
    axis last and back by two transposes, kept to check the one fixed
    (rows, 2^(n-1-qubit), 2, 2^qubit) view bit for bit."""
    if n == 1:
        shape, to_last, from_last = (-1, 1, 2), (0, 1, 2), (0, 1, 2)
    else:
        axis = n - qubit
        shape = (-1,) + (2,) * n
        to_last = tuple(a for a in range(n + 1) if a != axis) + (axis,)
        from_last = tuple(range(axis)) + (n,) + tuple(range(axis, n))
    psi = state.reshape(shape).transpose(to_last)
    if n == 1:
        out = psi @ (u.T if u.ndim == 2 else u.transpose(0, 2, 1))
    elif u.ndim == 2:
        out = psi.reshape(-1, 2) @ u.T
    else:
        out = psi.reshape(len(u), 2 ** (n - 1), 2) @ u.transpose(0, 2, 1)
    return out.reshape(psi.shape).transpose(from_last).reshape(state.shape)


# The scalar completion, solve and forward map, one point per call. The
# tolerances are ``maxent``'s constants, read at call time.


def name_non_finite(**values) -> None:
    """Raise ``linalg._number``'s error for the first NaN or infinite
    value, by its name; a ``*_1k`` value is complex, the others real."""
    for name, value in values.items():
        if value is not None:
            _number(name, value, "complex" if name.endswith("_1k") else "real", finite=True)


def reference_project(x_11, x_1k, x_kk):
    """The estimates as floats, projected onto the feasible set."""
    x_11, x_1k = float(x_11), complex(x_1k)
    if x_kk is not None:
        x_kk = float(x_kk)
    if not math.isfinite(x_11 + abs(x_1k) + (x_kk or 0.0)):
        name_non_finite(x_11=x_11, x_1k=x_1k, x_kk=x_kk)
    x_11 = min(max(x_11, 0.0), 1.0)
    if abs(x_1k) > 1.0:
        x_1k *= 1.0 / abs(x_1k)
    if x_kk is not None:
        x_kk = min(max(x_kk, 0.0), 1.0)
        total = x_11 + x_kk
        if total > 1.0:
            x_11, x_kk, x_1k = x_11 / total, x_kk / total, x_1k / total
        bound = math.sqrt(x_11 * x_kk)
        if abs(x_1k) > bound:
            x_1k = x_1k * (bound / abs(x_1k)) if abs(x_1k) > 0 else complex(0.0)
    return x_11, x_1k, x_kk


def reference_saturation_scale(x_11, x_kk):
    total = x_11 + x_kk
    if total < 1.0 - maxent._FEASIBILITY_ATOL:
        return 1.0
    return (1.0 - 1e-9) / total


def reference_spectrum(n, l11, l1k, lkk):
    """The forward map (z, (e11, e1k, ekk)) of the multipliers
    (l11, l1k, lkk) in dimension n: ``mp_forward`` rounded to floats, or
    the DomainError of an exp(A) that leaves the float range."""
    z, (e11, e1k, ekk) = mp_forward(n, l11, l1k, lkk)
    if not math.isfinite(float(z)):
        raise DomainError(
            f"exp(A) overflows for multipliers lam_11 = {l11!r}, "
            f"lam_1k = {l1k!r}, lam_kk = {lkk!r}"
        )
    return float(z), (float(e11), complex(e1k), float(ekk))


# Each check of the completion and solve below is followed by a yield, so
# a generator of them runs one point a check at a time: the kernels run
# each check over every point before the next (``failing_step``).


def _finish(steps):
    """Run the generator ``steps`` to its end and return its value."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


def failing_step(steps):
    """The number of checks the generator ``steps`` passes before one
    raises, and that check's error; None when every check passes."""
    passed = 0
    while True:
        try:
            next(steps)
        except StopIteration:
            return None
        except TomographyError as exc:
            return passed, exc
        passed += 1


def reproduction_steps(spec, x_11, x_1k, x_kk):
    """The reproduction check of the forward values of ``spec``: the
    record check, then the deviation."""
    z, (e11, e1k, ekk) = spec
    f_11, f_1k, f_kk = e11 / z, e1k / z, ekk / z
    _check_record_values(f_11, f_1k, f_kk)
    yield
    dev = max(abs(f_11 - x_11), abs(f_1k - x_1k), abs(f_kk - x_kk))
    if dev > 1e-6:
        raise TomographyError(
            f"solver failed to reproduce the record (deviation {dev:.3e})"
        )


def reference_check_reproduction(spec, x_11, x_1k, x_kk):
    _finish(reproduction_steps(spec, x_11, x_1k, x_kk))


def solve_steps(dim_n, x_11, x_1k, x_kk):
    """The multipliers (lam_11, lam_1k, lam_kk), near_singular and the
    spectrum of the reproduction check of a valid record's values, one
    check at a time."""
    if x_11 + x_kk >= 1.0 - maxent._FEASIBILITY_ATOL:
        raise InfeasibleRecordError(
            f"x_11 + x_kk = {x_11 + x_kk} saturates 1; the partition "
            "function diverges (rescale the record first)"
        )
    yield
    z = (dim_n - 2) / (1.0 - x_11 - x_kk)
    mid = 0.5 * (x_11 + x_kk)
    half_gap = 0.5 * (x_11 - x_kk)
    r = math.hypot(half_gap, abs(x_1k))
    w_hi = mid + r
    det = x_11 * x_kk - (x_1k.real ** 2 + x_1k.imag ** 2)
    w_lo = det / w_hi if w_hi > 0 else 0.0
    if w_lo < -maxent._RECORD_ATOL:
        raise InfeasibleRecordError(
            f"constraint minor has negative eigenvalue {w_lo:.3e}"
        )
    yield
    if w_lo <= 8 * sys.float_info.epsilon * w_hi:
        w_lo = 0.0
    floor = maxent._LOG_FLOOR
    near_singular = z * w_lo <= floor
    log_hi = math.log(max(z * max(w_hi, 0.0), floor))
    log_lo = math.log(max(z * w_lo, floor))
    if r == 0.0:
        g = 0.0
    elif near_singular:
        g = (log_hi - log_lo) / (2 * r)
    else:
        g = math.log1p(2 * r / w_lo) / (2 * r)
    avg = 0.5 * (log_hi + log_lo)
    lam_11 = -(avg + g * half_gap)
    lam_1k = -(g * x_1k + 0j)
    lam_kk = -(avg - g * half_gap)
    if not math.isfinite(lam_11 + abs(lam_1k) + lam_kk):
        name_non_finite(lam_11=lam_11, lam_1k=lam_1k, lam_kk=lam_kk)
    yield
    spec = reference_spectrum(dim_n, lam_11, lam_1k, lam_kk)
    yield
    yield from reproduction_steps(spec, x_11, x_1k, x_kk)
    return (lam_11, lam_1k, lam_kk), near_singular, spec


def reference_solve(dim_n, x_11, x_1k, x_kk):
    return _finish(solve_steps(dim_n, x_11, x_1k, x_kk))


def completion_steps(dim_n, x_11, x_1k, x_kk):
    """The projected (x_11, x_1k, x_kk), before any rescale, and
    ``solve_steps`` of the rescaled values, one check at a time."""
    completed = reference_project(x_11, x_1k, x_kk)
    yield
    x_11, x_1k, x_kk = completed
    c = reference_saturation_scale(x_11, x_kk)
    if c != 1.0:
        x_11, x_1k, x_kk = c * x_11, c * x_1k, c * x_kk
    return (completed, *(yield from solve_steps(dim_n, x_11, x_1k, x_kk)))


def reference_complete_and_solve(dim_n, x_11, x_1k, x_kk):
    return _finish(completion_steps(dim_n, x_11, x_1k, x_kk))


def reference_sweep_points(cfg):
    """The rows of a sweep as they were built before the sweep returned
    columns: the same measurement and one call of each array kernel, then
    one row of Python values per point in a loop over the points, a floor
    row with NaN prediction, fidelity and multipliers. The rows are
    returned as the columns of a ``Sweep``. It reads the circuit from
    ``cfg.circuit_path``. Each kernel call raises where it runs, case A's
    completion before case B's: a sweep that raises is not its input."""
    from qmaxent.cli import Sweep, _k_targets, resolve_circuit
    from qmaxent.sampler import _Readout, _sweep_values, build_calibration

    circuit_text = resolve_circuit(cfg.circuit_path)
    num_qubits = qubit_count(circuit_text)
    dim_n = 2**num_qubits
    k_targets = _k_targets(cfg.k_targets, dim_n)
    if cfg.theta_steps == 1:
        thetas = [float(cfg.theta_start)]
    else:
        thetas = np.linspace(cfg.theta_start, cfg.theta_stop, cfg.theta_steps).tolist()
    shots = None if cfg.backend == "exact" else cfg.shots
    calibration = build_calibration(cfg.noise, num_qubits) if cfg.mitigate else None
    readout = _Readout(num_qubits, shots, cfg.noise, calibration)
    # The stack's checks cover each state's norm and population sum.
    states = _sweep_states(circuit_text, thetas)
    if shots is None:
        pops = readout.distribution(states)
        x11 = np.repeat(pops[:, 0], len(k_targets))
        x1k = np.stack([_coherence(states, k, 1) for k in k_targets], axis=1).ravel()
        xkk_true = pops[:, [k - 1 for k in k_targets]].ravel()
    else:
        x11, x1k, xkk_true = _sweep_values(states, num_qubits, k_targets, readout, cfg.seed)
    solved = x11 > maxent._POPULATION_FLOOR
    x11_s, x1k_s = x11[solved], x1k[solved]
    maxent._check_records(x11_s, x1k_s)
    modulus = maxent._modulus(x1k_s)
    xkk = maxent._predict_population(x11_s, modulus)[0]
    (_, _, xkk_pred), lams_a, near_a, (z_a, block_a) = (
        maxent._complete_and_solve(dim_n, x11_s, x1k_s, xkk, modulus)
    )
    _, lams_b, near_b, (z_b, block_b) = maxent._complete_and_solve(
        dim_n, x11_s, x1k_s, xkk_true[solved], modulus
    )
    fidelity = maxent._block_fidelity(dim_n, lams_a, z_a, block_a, lams_b, z_b, block_b)
    results = zip(
        xkk_pred.tolist(), fidelity.tolist(),
        *(v.tolist() for v in lams_a), near_a.tolist(),
        *(v.tolist() for v in lams_b), near_b.tolist(),
    )
    floor = (math.nan, math.nan) + (math.nan, complex(math.nan), math.nan, False) * 2
    rows = []
    measured = zip(x11.tolist(), x1k.tolist(), xkk_true.tolist(), solved.tolist())
    for p, (x11, x1k, xkk_true, is_solved) in enumerate(measured):
        theta, k = thetas[p // len(k_targets)], k_targets[p % len(k_targets)]
        values = next(results) if is_solved else floor
        rows.append((theta, k, x11, x1k, xkk_true, *values, is_solved))
    dtypes = (float, int, float, complex, float, float, float) + (float, complex, float, bool) * 2
    c = [np.array(column, dtype) for column, dtype in zip(zip(*rows), dtypes + (bool,))]
    return Sweep(*c[:7], tuple(c[7:10]), c[10], tuple(c[11:14]), c[14], c[15])


def case_sets(sweep, dim_n: int) -> list:
    """The (case A, case B) multiplier sets of each row of a solved sweep,
    built from its columns, for the oracles that take a ``LagrangeSet``."""
    k = sweep.k.tolist()
    cases = (
        [LagrangeSet(dim_n, *row) for row in zip(k, *(v.tolist() for v in lams), near.tolist())]
        for lams, near in ((sweep.lams_a, sweep.near_a), (sweep.lams_b, sweep.near_b))
    )
    return list(zip(*cases))


def sweep_bits(sweep) -> dict:
    """Every column of a sweep, and its ``abs_diff`` and ``near_singular``,
    by name as (dtype, bytes): equal sweeps have equal bits, NaN and -0.0
    included."""
    columns = {
        name: getattr(sweep, name)
        for name in ("theta", "k", "x11", "x1k", "xkk_true", "xkk_pred", "fidelity",
                     "near_a", "near_b", "solved", "abs_diff", "near_singular")
    }
    for case in ("a", "b"):
        for name, column in zip(("lam_11", "lam_1k", "lam_kk"), getattr(sweep, f"lams_{case}")):
            columns[f"{name}_{case}"] = column
    return {name: (c.dtype.str, c.tobytes()) for name, c in columns.items()}


def sweep_rows(sweep, mask):
    """The rows ``mask`` selects, as a sweep of their own: each column,
    and each multiplier of a case, indexed by ``mask``."""
    from dataclasses import fields

    from qmaxent.cli import Sweep

    return Sweep(*(
        tuple(v[mask] for v in column) if isinstance(column, tuple) else column[mask]
        for column in (getattr(sweep, f.name) for f in fields(sweep))
    ))


def _row_format(*fields: str) -> str:
    """One format string for a CSV row: "e" is a 12-significant-digit
    value as ``'%.11e'`` writes it, "s" a field written as it is."""
    return ",".join("{:.11e}" if f == "e" else "{}" for f in fields)


_SWEEP_ROW = _row_format("e", "s", "e", "e", "e", "e", "e", "e", "e", "s")
_CASEAB_ROW = _row_format("e", "s", *"e" * 12)
_HEATMAP_ROW = _row_format(*"e" * 6)


def _reference_write_csv(header: str, rows: list[str], path) -> None:
    if not rows:
        raise ValidationError("no rows to emit")
    Path(path).write_text("\n".join([header, *rows]) + "\n", newline="\n")


def reference_write_columns(header: str, columns, path) -> None:
    """Write ``columns`` under ``header`` with a row template: a float
    column as ``'%.11e'`` writes it, an integer as ``str``, a bool as
    true/false."""
    fields = ["e" if c.dtype.kind == "f" else "s" for c in columns]
    columns = [np.where(c, "true", "false") if c.dtype.kind == "b" else c for c in columns]
    rows = list(map(_row_format(*fields).format, *(c.tolist() for c in columns)))
    _reference_write_csv(header, rows, path)


def reference_emit_csv(s, path) -> None:
    from qmaxent.cli import SWEEP_HEADER

    columns = (
        s.theta, s.k, s.x11, s.x1k.real, s.x1k.imag, s.xkk_true, s.xkk_pred,
        s.abs_diff, s.fidelity, np.where(s.near_singular, "true", "false"),
    )
    rows = list(map(_SWEEP_ROW.format, *(c.tolist() for c in columns)))
    _reference_write_csv(SWEEP_HEADER, rows, path)


def reference_emit_caseab_csv(s, path) -> None:
    from qmaxent.cli import CASEAB_HEADER

    (a11, a1k, akk), (b11, b1k, bkk) = s.lams_a, s.lams_b
    columns = (
        s.theta, s.k, s.xkk_true, s.xkk_pred, s.abs_diff, s.fidelity,
        a11, a1k.real, a1k.imag, akk, b11, b1k.real, b1k.imag, bkk,
    )
    rows = list(map(_CASEAB_ROW.format, *(c.tolist() for c in columns)))
    _reference_write_csv(CASEAB_HEADER, rows, path)


def reference_emit_heatmap_csv(scan, path) -> None:
    from qmaxent.cli import HEATMAP_HEADER

    lines = [
        _HEATMAP_ROW.format(lam11, lam1k.real, lam1k.imag, x11, x1k.real, x1k.imag)
        for lam11, lam1k, x11, x1k in zip(*(column.tolist() for column in scan))
    ]
    _reference_write_csv(HEATMAP_HEADER, lines, path)


def tolerance_literal(node) -> bool:
    """Whether the ast ``node`` is a float literal of size below 1e-3 or
    above 1e3, zero aside: a tolerance's size, which the package writes
    only as the value of a module-level constant."""
    return (
        isinstance(node, ast.Constant) and type(node.value) is float and node.value != 0.0
        and not 1e-3 <= abs(node.value) <= 1e3
    )
