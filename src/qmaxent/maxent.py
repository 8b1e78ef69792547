"""Maximal-entropy reconstruction of an N-level density matrix from one
population, one coherence, and an optionally unknown second population.

Constraints are the mean values x11 = rho[1,1], x1K = rho[1,K] and
xKK = rho[K,K] (basis states numbered 1..N). The entropy-maximizing state
consistent with them is

    rho = exp(A) / Z,   Z = tr exp(A),

where A is zero outside the 2x2 block on indices {1, K} that holds the
(negated) Lagrange multipliers. Everything here follows from the closed
form of that block's spectrum:

    eps_{3,4} = -(lam11 + lamKK)/2 -+ sqrt(4|lam1K|^2 + (lam11-lamKK)^2)/2

with unnormalized eigenvectors (k, 1), k = -(eps + lamKK)/conj(lam1K).
Each eigenvector contributes weight exp(eps)/(|k|^2 + 1) to the block, and
the N-2 unconstrained basis states each carry probability 1/Z.

Because exp and log are mutually inverse on the block, the multipliers are
recovered from a complete record in closed form: Z = (N-2)/(1-x11-xKK) and
the exponent block is the matrix log of Z times the constraint minor, taken
on scalars from the minor's two eigenvalues (no eigensolver). That closed
form is the one inverse; the test suite checks it against an independent
damped Newton solve of the forward map.

Two such states share their N-2 unconstrained levels, so their Uhlmann
fidelity also follows from the two 2x2 blocks (``block_fidelity``); the
dense ``fidelity`` is kept for arbitrary density matrices.

``_complete_and_solve`` holds the one completion and saturation policy,
on plain floats: estimates are projected onto the feasible set, moved off
the x11 + xKK = 1 boundary and solved, and the solve's reproduction check
runs the one forward kernel, ``_exponent_spectrum``, whose result the
multiplier set keeps. ``feasible_record``, ``saturation_rescale``,
``solve_lagrange`` and ``solve_record`` are record wrappers around the
same float helpers, and the sweep calls ``_complete_and_solve`` directly
on values it has checked once. A complete record from the caller is
solved as given.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    InfeasibleRecordError,
    ParseError,
    TomographyError,
    ValidationError,
)
from .linalg import POLICY, require_hermitian

_SOURCES = ("measured", "predicted")


_INTEGERS = (int, np.integer)


def _check_dims(dim_n: int, index_k: int) -> None:
    if not isinstance(dim_n, _INTEGERS):
        raise ValidationError(f"dim_n must be an integer, got {dim_n!r}")
    if not isinstance(index_k, _INTEGERS):
        raise ValidationError(f"index_k must be an integer, got {index_k!r}")
    if dim_n < 4 or dim_n & (dim_n - 1):
        raise ValidationError(f"dim_n must be a power of two >= 4, got {dim_n}")
    if not 2 <= index_k <= dim_n:
        raise ValidationError(
            f"index_k must lie in [2, {dim_n}], got {index_k}"
        )


def _name_non_finite(**values) -> None:
    """Raise for the first NaN or infinite value, by its name.

    Callers first test one sum of the values, which is finite whenever
    every value is, and call this only when it is not: the sum can also
    overflow, in which case this raises nothing.
    """
    for name, value in values.items():
        if value is not None and not cmath.isfinite(value):
            raise ValidationError(f"{name} = {value!r} is not finite")


def _check_record_values(x_11: float, x_1k: complex, x_kk: float | None) -> None:
    """The invariants of a record's values: finite, populations in
    [0, 1], |x1K| <= 1 and, with x_kk, x11 + xKK <= 1 and a positive
    semidefinite minor, each within ``POLICY.record_atol``."""
    if not math.isfinite(x_11 + abs(x_1k) + (x_kk or 0.0)):
        _name_non_finite(x_11=x_11, x_1k=x_1k, x_kk=x_kk)
    tol = POLICY.record_atol
    if not -tol <= x_11 <= 1 + tol:
        raise ValidationError(f"x_11 = {x_11} outside [0, 1]")
    if abs(x_1k) > 1 + tol:
        raise ValidationError(f"|x_1k| = {abs(x_1k)} exceeds 1")
    if x_kk is not None:
        if not -tol <= x_kk <= 1 + tol:
            raise ValidationError(f"x_kk = {x_kk} outside [0, 1]")
        if x_11 + x_kk > 1 + tol:
            raise ValidationError(f"x_11 + x_kk = {x_11 + x_kk} exceeds 1")
        if abs(x_1k) ** 2 > x_11 * x_kk + tol:
            raise ValidationError(
                "|x_1k|^2 exceeds x_11 * x_kk; the constraint minor is "
                "not positive semidefinite"
            )


@dataclass(frozen=True)
class LagrangeSet:
    """Multipliers attached to the x11 / x1K / xKK constraints.

    ``near_singular`` marks sets recovered from a rank-deficient minor: the
    smaller eigenvalue of Z times the minor was at or below the log floor,
    so the multipliers carry log(floor) in its place and reproduce the
    record only to rounding. It is bookkeeping, not part of the value.
    """

    dim_n: int
    index_k: int
    lam_11: float
    lam_1k: complex
    lam_kk: float
    near_singular: bool = field(default=False, compare=False)

    def __post_init__(self):
        _check_dims(self.dim_n, self.index_k)
        object.__setattr__(self, "lam_11", float(self.lam_11))
        object.__setattr__(self, "lam_1k", complex(self.lam_1k))
        object.__setattr__(self, "lam_kk", float(self.lam_kk))
        if not math.isfinite(self.lam_11 + abs(self.lam_1k) + self.lam_kk):
            _name_non_finite(
                lam_11=self.lam_11, lam_1k=self.lam_1k, lam_kk=self.lam_kk
            )

    @cached_property
    def _spectrum(self) -> ExponentSpectrum:
        return _exponent_spectrum(self.dim_n, self.lam_11, self.lam_1k, self.lam_kk)

    @classmethod
    def _solved(cls, dim_n, index_k, lam_11, lam_1k, lam_kk, near_singular, spec):
        """A set from ``_solve``, which has checked the dimensions and the
        multipliers already, with its spectrum attached."""
        ls = object.__new__(cls)
        ls.__dict__.update(
            dim_n=dim_n, index_k=index_k, lam_11=lam_11, lam_1k=lam_1k,
            lam_kk=lam_kk, near_singular=near_singular, _spectrum=spec,
        )
        return ls


@dataclass(frozen=True)
class ExponentSpectrum:
    """Spectral data of the constraint exponent.

    eps holds the N eigenvalues (the N-2 structural zeros first), k3/k4 the
    eigenvector slopes of the constrained block, a/b the spectral weights
    those eigenvectors contribute to the (1,1) entry, and z the partition
    function. k3 is infinite on the diagonal branch (lam_1k = 0), where the
    eigenvectors are the basis vectors themselves. block holds the entries
    (1,1), (1,K), (K,K) of exp(A) on the constrained block.
    """

    eps: tuple[float, ...]
    k3: complex
    k4: complex
    a: float
    b: float
    z: float
    block: tuple[float, complex, float]


@dataclass(frozen=True)
class MeasurementRecord:
    """Measured or predicted mean values for one (1, K) constraint pair.

    ``x_1k`` stores the (1, K) entry of the density matrix; for a pure
    state with amplitudes a_i that is a_0 * conj(a_{K-1}). ``source``
    records whether x_kk was measured or filled in by prediction.
    """

    dim_n: int
    index_k: int
    x_11: float
    x_1k: complex
    x_kk: float | None = None
    source: str = "measured"

    def __post_init__(self):
        _check_dims(self.dim_n, self.index_k)
        if self.source not in _SOURCES:
            raise ValidationError(f"source must be one of {_SOURCES}")
        object.__setattr__(self, "x_11", float(self.x_11))
        object.__setattr__(self, "x_1k", complex(self.x_1k))
        if self.x_kk is not None:
            object.__setattr__(self, "x_kk", float(self.x_kk))
        _check_record_values(self.x_11, self.x_1k, self.x_kk)

    @property
    def complete(self) -> bool:
        return self.x_kk is not None


def spectrum(ls: LagrangeSet) -> ExponentSpectrum:
    """Closed-form spectrum of the constraint exponent, computed once per
    LagrangeSet and shared by every later call on it.

    When |lam_1k| is below the zero threshold the block is diagonal and the
    eigenvector-slope parametrization degenerates; that branch reports
    k3 = inf, k4 = 0 with weights a = exp(eps3), b = 0. Multipliers whose
    exp(A) leaves the float range raise DomainError.
    """
    return ls._spectrum


def _exponent_spectrum(n: int, l11: float, l1k: complex, lkk: float) -> ExponentSpectrum:
    """The one forward kernel: the spectrum of the exponent of the
    multipliers (l11, l1k, lkk) in dimension n, on plain floats."""
    try:
        if abs(l1k) < POLICY.lam_zero_atol:
            eps3, eps4 = -l11, -lkk
            k3, k4 = complex(math.inf), complex(0.0)
            a, b = math.exp(eps3), 0.0
            block = (math.exp(eps3), complex(0.0), math.exp(eps4))
        else:
            gap = l11 - lkk
            quad = 4 * abs(l1k) ** 2
            root = math.sqrt(quad + gap**2)
            eps3 = -0.5 * (l11 + lkk + root)
            eps4 = -0.5 * (l11 + lkk - root)
            # eps + lkk = -+(root +- gap)/2; when |gap| dominates, the smaller
            # of the two cancels catastrophically, so rewrite it through
            # (root - |gap|)(root + |gap|) = quad.
            if gap >= 0:
                shift3 = -0.5 * (root + gap)
                shift4 = 0.5 * quad / (root + gap) if root + gap else 0.0
            else:
                shift3 = -0.5 * quad / (root - gap)
                shift4 = 0.5 * (root - gap)
            conj = l1k.conjugate()
            k3 = -shift3 / conj
            k4 = -shift4 / conj
            m3, m4 = abs(k3) ** 2, abs(k4) ** 2
            a = m3 * math.exp(eps3) / (m3 + 1)
            b = m4 * math.exp(eps4) / (m4 + 1)
            # Written multiplicatively (a / conj(k) = k exp(eps) / (|k|^2 +
            # 1)) so a vanishing slope cannot divide by zero.
            w3 = math.exp(eps3) / (m3 + 1)
            w4 = math.exp(eps4) / (m4 + 1)
            block = (a + b, k3 * w3 + k4 * w4, w3 + w4)
        z = math.exp(eps3) + math.exp(eps4) + (n - 2)
    except OverflowError:
        z = math.inf
    if not math.isfinite(z) or not math.isfinite(a + b):
        raise DomainError(
            f"exp(A) overflows for multipliers lam_11 = {l11!r}, "
            f"lam_1k = {l1k!r}, lam_kk = {lkk!r}"
        )
    return ExponentSpectrum(
        eps=(0.0,) * (n - 2) + (eps3, eps4), k3=k3, k4=k4, a=a, b=b, z=z,
        block=block,
    )


def density_from_lagrange(ls: LagrangeSet) -> np.ndarray:
    """The maximal-entropy density matrix exp(A)/Z for the given multipliers.

    Every diagonal entry outside the {1, K} block equals 1/Z.
    """
    s = spectrum(ls)
    e00, e01, e11 = s.block
    n, k = ls.dim_n, ls.index_k - 1
    rho = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(rho, 1.0 / s.z)
    rho[0, 0] = e00 / s.z
    rho[0, k] = e01 / s.z
    rho[k, 0] = e01.conjugate() / s.z
    rho[k, k] = e11 / s.z
    return rho


def forward_expectations(ls: LagrangeSet) -> MeasurementRecord:
    """Map multipliers to the mean values (x11, x1K, xKK) they generate."""
    s = spectrum(ls)
    e00, e01, e11 = s.block
    return MeasurementRecord(
        dim_n=ls.dim_n,
        index_k=ls.index_k,
        x_11=e00 / s.z,
        x_1k=e01 / s.z,
        x_kk=e11 / s.z,
        source="predicted",
    )


def predict_population(x_11: float, x_1k: complex) -> float:
    """Predicted unknown population |x1K|^2 / x11.

    Exact when the underlying state is pure. The result is clamped to
    [0, 1 - x11]; a RuntimeWarning is emitted when the clamp removes more
    than ``POLICY.feasibility_atol``, which can happen for noisy inputs
    (a smaller excess is rounding on exact pure-state data). A NaN or
    infinite input raises ValidationError.
    """
    if not math.isfinite(x_11 + abs(x_1k)):
        _name_non_finite(x_11=x_11, x_1k=x_1k)
    if x_11 <= POLICY.population_floor:
        raise DomainError(
            f"x_11 = {x_11} is at or below the floor "
            f"{POLICY.population_floor}; prediction undefined"
        )
    value = abs(x_1k) ** 2 / x_11
    ceiling = max(0.0, 1.0 - x_11)
    if value - ceiling > POLICY.feasibility_atol:
        warnings.warn(
            f"predicted population {value:.6g} clamped to 1 - x_11 = "
            f"{ceiling:.6g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return min(value, ceiling)


def _project(
    x_11: float, x_1k: complex, x_kk: float | None
) -> tuple[float, complex, float | None]:
    """The estimates as floats, projected onto the feasible set as
    ``feasible_record`` describes. A NaN or infinite estimate raises
    ValidationError naming it; it is never clipped."""
    x_11, x_1k = float(x_11), complex(x_1k)
    if x_kk is not None:
        x_kk = float(x_kk)
    if not math.isfinite(x_11 + abs(x_1k) + (x_kk or 0.0)):
        _name_non_finite(x_11=x_11, x_1k=x_1k, x_kk=x_kk)
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


def feasible_record(
    dim_n: int,
    index_k: int,
    x_11: float,
    x_1k: complex,
    x_kk: float | None = None,
    source: str = "measured",
) -> MeasurementRecord:
    """Build a valid record from raw estimates, projecting onto feasibility.

    Shot-noise estimates can leave the physical set: populations are
    clipped to [0, 1] and rescaled if they sum past 1, and the coherence is
    shrunk onto the boundary of the positive-semidefinite minor. Exact
    inputs pass through unchanged. A NaN or infinite estimate raises
    ValidationError.
    """
    return MeasurementRecord(dim_n, index_k, *_project(x_11, x_1k, x_kk), source)


def _saturation_scale(x_11: float, x_kk: float) -> float:
    """The factor ``saturation_rescale`` applies to the minor: 1 unless
    x11 + xKK lies within ``POLICY.feasibility_atol`` of 1."""
    total = x_11 + x_kk
    if total < 1.0 - POLICY.feasibility_atol:
        return 1.0
    return (1.0 - 1e-9) / total


def saturation_rescale(mr: MeasurementRecord) -> MeasurementRecord:
    """Shrink a record whose populations saturate x11 + xKK = 1.

    Rank-one (pure-state) records sit exactly on that boundary, where the
    partition function diverges. Scaling the whole minor by
    (1 - 1e-9)/(x11 + xKK) restores feasibility while perturbing each
    component by at most 1e-9.
    """
    if not mr.complete:
        raise ValidationError("record has no x_kk; nothing to rescale")
    c = _saturation_scale(mr.x_11, mr.x_kk)
    if c == 1.0:
        return mr
    return replace(mr, x_11=c * mr.x_11, x_1k=c * mr.x_1k, x_kk=c * mr.x_kk)


def _check_reproduction(
    s: ExponentSpectrum, x_11: float, x_1k: complex, x_kk: float
) -> None:
    """Check that the forward values of the spectrum ``s`` are a valid
    record within 1e-6 of (x_11, x_1k, x_kk) per component."""
    e11, e1k, ekk = s.block
    f_11, f_1k, f_kk = e11 / s.z, e1k / s.z, ekk / s.z
    _check_record_values(f_11, f_1k, f_kk)
    dev = max(abs(f_11 - x_11), abs(f_1k - x_1k), abs(f_kk - x_kk))
    if dev > 1e-6:
        raise TomographyError(
            f"solver failed to reproduce the record (deviation {dev:.3e})"
        )


# A minor eigenvalue at or below this share of the larger one is rounding
# of a rank-one minor and counts as zero.
_RANK_ONE_SHARE = 8 * sys.float_info.epsilon


def _solve(
    dim_n: int, index_k: int, x_11: float, x_1k: complex, x_kk: float
) -> LagrangeSet:
    """``solve_lagrange`` on the values of a valid record whose
    dimensions the caller has checked."""
    if x_11 + x_kk >= 1.0 - POLICY.feasibility_atol:
        raise InfeasibleRecordError(
            f"x_11 + x_kk = {x_11 + x_kk} saturates 1; the partition "
            "function diverges (rescale the record first)"
        )
    z = (dim_n - 2) / (1.0 - x_11 - x_kk)
    mid = 0.5 * (x_11 + x_kk)
    half_gap = 0.5 * (x_11 - x_kk)
    r = math.hypot(half_gap, abs(x_1k))
    w_hi = mid + r
    det = x_11 * x_kk - (x_1k.real ** 2 + x_1k.imag ** 2)
    w_lo = det / w_hi if w_hi > 0 else 0.0
    if w_lo < -POLICY.record_atol:
        raise InfeasibleRecordError(
            f"constraint minor has negative eigenvalue {w_lo:.3e}"
        )
    if w_lo <= _RANK_ONE_SHARE * w_hi:
        w_lo = 0.0
    floor = POLICY.log_floor
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
    # Adding 0j makes a zero part +0.0 before the negation, so a zero
    # multiplier is -0.0 whatever the signs of the zeros in x1K.
    lam_1k = -(g * x_1k + 0j)
    lam_kk = -(avg - g * half_gap)
    if not math.isfinite(lam_11 + abs(lam_1k) + lam_kk):
        _name_non_finite(lam_11=lam_11, lam_1k=lam_1k, lam_kk=lam_kk)
    spec = _exponent_spectrum(dim_n, lam_11, lam_1k, lam_kk)
    _check_reproduction(spec, x_11, x_1k, x_kk)
    return LagrangeSet._solved(
        dim_n, index_k, lam_11, lam_1k, lam_kk, near_singular, spec
    )


def solve_lagrange(mr: MeasurementRecord) -> LagrangeSet:
    """Recover the multipliers that reproduce a complete record, in closed
    form: Z = (N-2)/(1 - x11 - xKK), and the exponent block is the matrix
    log of Z times the constraint minor M = [[x11, x1K], [x1K*, xKK]].

    The log is taken on scalars. M has eigenvalues w+- = m +- r, with
    m = (x11 + xKK)/2, h = (x11 - xKK)/2 and r = hypot(h, |x1K|); w- is
    evaluated as det(M)/w+, which is m - r without its cancellation when
    w- << w+ (as LAPACK does for a 2x2 block). Then

        log(Z M) = avg I + g (M - m I),

    where avg = (L+ + L-)/2, L+- = log(max(Z w+-, floor)) and
    g = (L+ - L-)/(2r), taken as log1p(2r/w-)/(2r) when neither eigenvalue
    is floored (stable as r -> 0) and as 0 when r = 0.

    A smaller eigenvalue at or below 8 ulps of the larger is rounding of a
    rank-one minor and is set to 0 before the scaling by Z (which is about
    1e9 after ``saturation_rescale`` and would lift that residue over the
    floor). When Z w- is at or below ``POLICY.log_floor`` the eigenvalue is
    floored and the set is flagged ``near_singular``.

    The result reproduces the record to 1e-6 per component, which is
    checked, or this raises; the spectrum of that check is kept on the
    set. A minor with an eigenvalue below -``POLICY.record_atol``, or a
    record that saturates x11 + xKK = 1, raises InfeasibleRecordError.
    """
    if not mr.complete:
        raise ValidationError("record is incomplete: x_kk is absent")
    return _solve(mr.dim_n, mr.index_k, mr.x_11, mr.x_1k, mr.x_kk)


def _complete_and_solve(
    dim_n: int, index_k: int, x_11: float, x_1k: complex, x_kk: float
) -> tuple[tuple[float, complex, float], LagrangeSet]:
    """The one completion and saturation policy, on plain floats.

    The estimates are projected onto the feasible set (``feasible_record``),
    moved off the x11 + xKK = 1 boundary, on which pure-state data sits
    (``saturation_rescale``), and solved (``solve_lagrange``). The
    dimensions are the caller's to check. Returns the projected values
    (x_11, x_1k, x_kk), before any rescale, and the multipliers.
    """
    completed = _project(x_11, x_1k, x_kk)
    x_11, x_1k, x_kk = completed
    c = _saturation_scale(x_11, x_kk)
    if c != 1.0:
        x_11, x_1k, x_kk = c * x_11, c * x_1k, c * x_kk
    return completed, _solve(dim_n, index_k, x_11, x_1k, x_kk)


def solve_record(
    mr: MeasurementRecord, x_kk: float | None = None
) -> tuple[MeasurementRecord, LagrangeSet]:
    """Complete a record and recover its multipliers.

    A complete record is the caller's and is solved as given; if it
    saturates x11 + xKK = 1 that raises InfeasibleRecordError. An
    incomplete one is completed with ``x_kk``, an estimate from elsewhere,
    or else with ``predict_population``, by ``_complete_and_solve``.
    Returns the completed record, before any rescale, and the multipliers.
    """
    if mr.complete:
        if x_kk is not None:
            raise ValidationError("record already has x_kk")
        return mr, solve_lagrange(mr)
    source = "measured"
    if x_kk is None:
        x_kk, source = predict_population(mr.x_11, mr.x_1k), "predicted"
    completed, ls = _complete_and_solve(
        mr.dim_n, mr.index_k, mr.x_11, mr.x_1k, x_kk
    )
    return MeasurementRecord(mr.dim_n, mr.index_k, *completed, source), ls


def reconstruct(mr: MeasurementRecord) -> tuple[np.ndarray, MeasurementRecord]:
    """Complete a record (predicting x_KK if absent) and reconstruct rho.

    Returns the density matrix and the completed record; see
    ``solve_record`` for the saturation policy.
    """
    completed, ls = solve_record(mr)
    return density_from_lagrange(ls), completed


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in [0, 1],
    evaluated as the squared nuclear norm ||sqrt(rho) sqrt(sigma)||_1^2
    (the sum of singular values). On near-singular states, such as the
    floored reconstructions, the eigenvalues of sqrt(rho) sigma sqrt(rho)
    lose about half their digits; the singular values do not."""
    checked = []
    for name, m in (("rho", rho), ("sigma", sigma)):
        try:
            m = require_hermitian(m, atol=1e-8)
        except ValidationError as exc:
            raise ValidationError(f"{name}: {exc}") from None
        if abs(np.trace(m).real - 1.0) > 1e-8:
            raise ValidationError(f"{name} is not trace one")
        checked.append(m)
    r, s = checked
    if r.shape != s.shape:
        raise ValidationError(f"dimension mismatch: {r.shape} vs {s.shape}")
    singular = np.linalg.svd(_psd_sqrt(r) @ _psd_sqrt(s), compute_uv=False)
    value = float(singular.sum() ** 2)
    return min(max(value, 0.0), 1.0)


def block_fidelity(a: LagrangeSet, b: LagrangeSet) -> float:
    """Uhlmann fidelity of the states exp(A)/Z of two multiplier sets with
    the same N and K, from their 2x2 blocks E = exp(A) on {1, K}.

    Both states are E/Z on the block and 1/Z on each of the other N - 2
    levels, so ||sqrt(rho_a) sqrt(rho_b)||_1 splits over the two parts. On
    the block the two singular values s1, s2 of sqrt(E_a) sqrt(E_b) give
    (s1 + s2)^2 = tr(E_a E_b) + 2 sqrt(det E_a det E_b), and
    det E = exp(tr A) = exp(-(lam_11 + lam_kk)) comes from the spectrum,
    so no term cancels:

        F = (sqrt(tr(E_a E_b) + 2 exp(-(lam11_a + lamKK_a + lam11_b
             + lamKK_b)/2)) + N - 2)^2 / (Z_a Z_b).

    Sets whose N or K differ raise ValidationError.
    """
    if (a.dim_n, a.index_k) != (b.dim_n, b.index_k):
        raise ValidationError(
            f"multiplier sets differ: (N, K) = ({a.dim_n}, {a.index_k}) vs "
            f"({b.dim_n}, {b.index_k})"
        )
    sa, sb = spectrum(a), spectrum(b)
    a11, a1k, akk = sa.block
    b11, b1k, bkk = sb.block
    overlap = a11 * b11 + akk * bkk + 2 * (a1k * b1k.conjugate()).real
    det_root = math.exp(-0.5 * (a.lam_11 + a.lam_kk + b.lam_11 + b.lam_kk))
    root = math.sqrt(max(overlap + 2 * det_root, 0.0))
    value = (root + a.dim_n - 2) ** 2 / (sa.z * sb.z)
    return min(max(value, 0.0), 1.0)


def heatmap_scan(
    lam11_values,
    re_lam1k_values,
    *,
    lam_kk: float = 0.0,
    im_lam1k: float = 0.0,
    dim_n: int = 4,
    index_k: int = 2,
) -> list[tuple[float, complex, float, complex]]:
    """Forward map evaluated over a (lam11, Re lam1K) grid.

    Rows come out in row-major order: lam11 outer, Re lam1K inner. Each
    row is (lam11, lam1K, x11, x1K).
    """
    rows = []
    for l11 in lam11_values:
        for re1k in re_lam1k_values:
            ls = LagrangeSet(
                dim_n, index_k, float(l11), complex(float(re1k), im_lam1k), lam_kk
            )
            fwd = forward_expectations(ls)
            rows.append((float(l11), ls.lam_1k, fwd.x_11, fwd.x_1k))
    return rows


def parse_keyvals(text: str, known, what: str) -> dict[str, str]:
    """The values of flat ``key value`` text (records and configs).

    ``#`` starts a comment and blank lines are skipped. A line that is not
    ``key value``, a key outside ``known`` or a repeated key raises a
    ParseError naming the line; ``what`` names the kind of text.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(maxsplit=1)
        if len(parts) != 2:
            raise ParseError(f"expected 'key value', got {raw!r}", lineno)
        key, value = parts
        if key not in known:
            raise ParseError(f"unknown {what} key {key!r}", lineno)
        if key in values:
            raise ParseError(f"duplicate key {key!r}", lineno)
        values[key] = value
    return values


def read_number(values: dict[str, str], key: str, default, kind=float):
    """The value of ``key`` in ``parse_keyvals`` output as a finite
    ``kind`` (float or int), or ``default`` when it is absent. A bad value
    raises a ValidationError that names the key."""
    if key not in values:
        return default
    try:
        value = kind(values[key])
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValidationError(f"{key} = {values[key]!r} is not {what}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{key} = {values[key]} is not finite")
    return value


# Flat text serialization of records: keys n, k, x11, re_x1k, im_x1k, xkk.

_RECORD_KEYS = ("n", "k", "x11", "re_x1k", "im_x1k")


def dump_record(mr: MeasurementRecord) -> str:
    lines = [
        f"n {mr.dim_n}",
        f"k {mr.index_k}",
        f"x11 {mr.x_11!r}",
        f"re_x1k {mr.x_1k.real!r}",
        f"im_x1k {mr.x_1k.imag!r}",
    ]
    if mr.complete:
        lines.append(f"xkk {mr.x_kk!r}")
    return "\n".join(lines) + "\n"


def load_record(text: str) -> MeasurementRecord:
    values = parse_keyvals(text, _RECORD_KEYS + ("xkk",), "record")
    missing = [k for k in _RECORD_KEYS if k not in values]
    if missing:
        raise ParseError(f"record is missing keys: {', '.join(missing)}")
    dim_n, index_k = (read_number(values, key, None, int) for key in ("n", "k"))
    x11, re_x1k, im_x1k, xkk = (
        read_number(values, key, None) for key in ("x11", "re_x1k", "im_x1k", "xkk")
    )
    x1k = complex(re_x1k, im_x1k)
    return MeasurementRecord(dim_n, index_k, x11, x1k, xkk, source="measured")
