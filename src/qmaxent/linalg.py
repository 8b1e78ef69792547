"""Hermitian matrix checks and eigendecomposition, plus the tolerance policy.

Eigendecomposition uses a deterministic phase convention and validates
hermiticity up front; tolerances come from the module-wide ``POLICY``
record so callers and tests share one set of knobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class NumericPolicy:
    """Single source of truth for numerical tolerances."""

    hermitian_atol: float = 1e-12    # allowed |m[i,j] - conj(m[j,i])|
    log_floor: float = 1e-12         # default eigenvalue floor inside logs
    phase_atol: float = 1e-12        # component treated as zero when fixing phases
    lam_zero_atol: float = 1e-14     # |lam_1k| below this takes the diagonal branch
    population_floor: float = 1e-12  # x11 below this makes the prediction undefined
    feasibility_atol: float = 1e-12  # x11 + xkk within this of 1 is infeasible
    record_atol: float = 1e-9        # slack on measurement-record invariants


POLICY = NumericPolicy()


class EigenSystem(NamedTuple):
    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # orthonormal columns, one per eigenvalue


def require_hermitian(m, atol: float = POLICY.hermitian_atol) -> np.ndarray:
    """Validate that ``m`` is square, finite and Hermitian; return its
    Hermitian part.

    Raises ValidationError naming the first non-finite entry or the worst
    offending entry pair.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    dev = np.abs(a - a.conj().T)
    worst = float(dev.max())
    # A NaN or infinite entry makes its deviation NaN or infinite too, so
    # the finiteness check costs nothing on valid input.
    if not worst <= atol:
        finite = np.isfinite(a)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise ValidationError(f"matrix entry ({i},{j}) is {a[i, j]!r}, not finite")
        i, j = np.unravel_index(int(dev.argmax()), dev.shape)
        raise ValidationError(
            f"matrix is not Hermitian: entries ({i},{j}) and ({j},{i}) "
            f"differ by {worst:.3e} (tolerance {atol:.1e})"
        )
    return 0.5 * (a + a.conj().T)


def hermitian_eig(m) -> EigenSystem:
    """Eigendecompose a Hermitian matrix.

    Eigenvalues are returned in ascending order. Each eigenvector is
    rescaled so its first component of magnitude above the phase
    tolerance is real and positive, which makes the output reproducible.
    """
    h = require_hermitian(m)
    w, v = np.linalg.eigh(h)
    v = v.copy()
    for col in range(v.shape[1]):
        lead = np.flatnonzero(np.abs(v[:, col]) > POLICY.phase_atol)
        if lead.size:
            pivot = v[lead[0], col]
            v[:, col] *= pivot.conjugate() / abs(pivot)
    return EigenSystem(w, v)
