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
the exponent block is the matrix log of Z times the constraint minor.
A damped Newton solver started from zero multipliers is kept as an
independent cross-check of that inverse.

``solve_record`` holds the one completion and saturation policy: a
complete record from the caller is solved as given, while a record
completed from estimates is projected onto the feasible set and moved off
the x11 + xKK = 1 boundary before the solve.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DomainError,
    InfeasibleRecordError,
    ParseError,
    TomographyError,
    ValidationError,
)
from .linalg import POLICY, hermitian_eig, require_hermitian

_SOURCES = ("measured", "predicted")


def _check_dims(dim_n: int, index_k: int) -> None:
    if dim_n < 4 or dim_n & (dim_n - 1):
        raise ValidationError(f"dim_n must be a power of two >= 4, got {dim_n}")
    if not 2 <= index_k <= dim_n:
        raise ValidationError(
            f"index_k must lie in [2, {dim_n}], got {index_k}"
        )


def _name_non_finite(obj, names: tuple[str, ...]) -> None:
    """Raise for the first NaN or infinite field among ``names``.

    Callers first test one sum of the fields, which is finite whenever
    every field is, and call this only when it is not: the sum can also
    overflow, in which case this raises nothing.
    """
    for name in names:
        value = getattr(obj, name)
        if value is not None and not cmath.isfinite(value):
            raise ValidationError(f"{name} = {value!r} is not finite")


@dataclass(frozen=True)
class LagrangeSet:
    """Multipliers attached to the x11 / x1K / xKK constraints.

    ``near_singular`` marks sets recovered from rank-deficient data via the
    eigenvalue floor; it is bookkeeping, not part of the value.
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
            _name_non_finite(self, ("lam_11", "lam_1k", "lam_kk"))


@dataclass(frozen=True)
class ExponentSpectrum:
    """Spectral data of the constraint exponent.

    eps holds the N eigenvalues (the N-2 structural zeros first), k3/k4 the
    eigenvector slopes of the constrained block, a/b the spectral weights
    those eigenvectors contribute to the (1,1) entry, and z the partition
    function. k3 is infinite on the diagonal branch (lam_1k = 0), where the
    eigenvectors are the basis vectors themselves.
    """

    eps: tuple[float, ...]
    k3: complex
    k4: complex
    a: float
    b: float
    z: float


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
        object.__setattr__(self, "x_11", float(self.x_11))
        object.__setattr__(self, "x_1k", complex(self.x_1k))
        if self.x_kk is not None:
            object.__setattr__(self, "x_kk", float(self.x_kk))
        if not math.isfinite(self.x_11 + abs(self.x_1k) + (self.x_kk or 0.0)):
            _name_non_finite(self, ("x_11", "x_1k", "x_kk"))
        if self.source not in _SOURCES:
            raise ValidationError(f"source must be one of {_SOURCES}")
        tol = POLICY.record_atol
        if not -tol <= self.x_11 <= 1 + tol:
            raise ValidationError(f"x_11 = {self.x_11} outside [0, 1]")
        if abs(self.x_1k) > 1 + tol:
            raise ValidationError(f"|x_1k| = {abs(self.x_1k)} exceeds 1")
        if self.x_kk is not None:
            if not -tol <= self.x_kk <= 1 + tol:
                raise ValidationError(f"x_kk = {self.x_kk} outside [0, 1]")
            if self.x_11 + self.x_kk > 1 + tol:
                raise ValidationError(
                    f"x_11 + x_kk = {self.x_11 + self.x_kk} exceeds 1"
                )
            if abs(self.x_1k) ** 2 > self.x_11 * self.x_kk + tol:
                raise ValidationError(
                    "|x_1k|^2 exceeds x_11 * x_kk; the constraint minor is "
                    "not positive semidefinite"
                )

    @property
    def complete(self) -> bool:
        return self.x_kk is not None


def spectrum(ls: LagrangeSet) -> ExponentSpectrum:
    """Closed-form spectrum of the constraint exponent.

    When |lam_1k| is below the zero threshold the block is diagonal and the
    eigenvector-slope parametrization degenerates; that branch reports
    k3 = inf, k4 = 0 with weights a = exp(eps3), b = 0. Multipliers whose
    exp(A) leaves the float range raise DomainError.
    """
    n = ls.dim_n
    l11, l1k, lkk = ls.lam_11, ls.lam_1k, ls.lam_kk
    try:
        if abs(l1k) < POLICY.lam_zero_atol:
            eps3, eps4 = -l11, -lkk
            k3, k4 = complex(math.inf), complex(0.0)
            a, b = math.exp(eps3), 0.0
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
        z = math.exp(eps3) + math.exp(eps4) + (n - 2)
    except OverflowError:
        z = math.inf
    if not math.isfinite(z) or not math.isfinite(a + b):
        raise DomainError(
            f"exp(A) overflows for multipliers lam_11 = {l11!r}, "
            f"lam_1k = {l1k!r}, lam_kk = {lkk!r}"
        )
    return ExponentSpectrum(
        eps=(0.0,) * (n - 2) + (eps3, eps4), k3=k3, k4=k4, a=a, b=b, z=z
    )


def _block_entries(s: ExponentSpectrum) -> tuple[float, complex, float]:
    """Entries (1,1), (1,K), (K,K) of exp(A) restricted to the block.

    Written multiplicatively (a / conj(k) = k exp(eps) / (|k|^2 + 1)) so a
    vanishing slope cannot divide by zero.
    """
    eps3, eps4 = s.eps[-2], s.eps[-1]
    if math.isinf(abs(s.k3)):
        return math.exp(eps3), complex(0.0), math.exp(eps4)
    w3 = math.exp(eps3) / (abs(s.k3) ** 2 + 1)
    w4 = math.exp(eps4) / (abs(s.k4) ** 2 + 1)
    e00 = s.a + s.b
    e01 = s.k3 * w3 + s.k4 * w4
    e11 = w3 + w4
    return e00, e01, e11


def density_from_lagrange(ls: LagrangeSet) -> np.ndarray:
    """The maximal-entropy density matrix exp(A)/Z for the given multipliers.

    Every diagonal entry outside the {1, K} block equals 1/Z.
    """
    s = spectrum(ls)
    e00, e01, e11 = _block_entries(s)
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
    e00, e01, e11 = _block_entries(s)
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
    (a smaller excess is rounding on exact pure-state data).
    """
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
    inputs pass through unchanged.
    """
    x_11 = min(max(float(x_11), 0.0), 1.0)
    x_1k = complex(x_1k)
    if abs(x_1k) > 1.0:
        x_1k *= 1.0 / abs(x_1k)
    if x_kk is not None:
        x_kk = min(max(float(x_kk), 0.0), 1.0)
        total = x_11 + x_kk
        if total > 1.0:
            x_11, x_kk, x_1k = x_11 / total, x_kk / total, x_1k / total
        bound = math.sqrt(x_11 * x_kk)
        if abs(x_1k) > bound:
            x_1k = x_1k * (bound / abs(x_1k)) if abs(x_1k) > 0 else complex(0.0)
    return MeasurementRecord(dim_n, index_k, x_11, x_1k, x_kk, source)


def saturation_rescale(mr: MeasurementRecord) -> MeasurementRecord:
    """Shrink a record whose populations saturate x11 + xKK = 1.

    Rank-one (pure-state) records sit exactly on that boundary, where the
    partition function diverges. Scaling the whole minor by
    (1 - 1e-9)/(x11 + xKK) restores feasibility while perturbing each
    component by at most 1e-9.
    """
    if not mr.complete:
        raise ValidationError("record has no x_kk; nothing to rescale")
    total = mr.x_11 + mr.x_kk
    if total < 1.0 - POLICY.feasibility_atol:
        return mr
    c = (1.0 - 1e-9) / total
    return replace(mr, x_11=c * mr.x_11, x_1k=c * mr.x_1k, x_kk=c * mr.x_kk)


def _require_solvable(mr: MeasurementRecord) -> None:
    if not mr.complete:
        raise ValidationError("record is incomplete: x_kk is absent")
    if mr.x_11 + mr.x_kk >= 1.0 - POLICY.feasibility_atol:
        raise InfeasibleRecordError(
            f"x_11 + x_kk = {mr.x_11 + mr.x_kk} saturates 1; the partition "
            "function diverges (rescale the record first)"
        )


def _check_reproduction(ls: LagrangeSet, mr: MeasurementRecord) -> None:
    fwd = forward_expectations(ls)
    dev = max(
        abs(fwd.x_11 - mr.x_11),
        abs(fwd.x_1k - mr.x_1k),
        abs(fwd.x_kk - mr.x_kk),
    )
    if dev > 1e-6:
        raise TomographyError(
            f"solver failed to reproduce the record (deviation {dev:.3e})"
        )


def _solve_closed_form(mr: MeasurementRecord) -> LagrangeSet:
    n = mr.dim_n
    z = (n - 2) / (1.0 - mr.x_11 - mr.x_kk)
    minor = np.array(
        [[mr.x_11, mr.x_1k], [mr.x_1k.conjugate(), mr.x_kk]], dtype=complex
    )
    w, v = hermitian_eig(minor)
    if w.min() < -POLICY.record_atol:
        raise InfeasibleRecordError(
            f"constraint minor has negative eigenvalue {w.min():.3e}"
        )
    # The log of z * minor is applied spectrally: z can be enormous for
    # boundary records and must not amplify dense-reconstruction rounding.
    floor = POLICY.log_floor
    scaled = np.maximum(z * np.maximum(w, 0.0), floor)
    near_singular = bool(scaled.min() <= floor)
    block = (v * np.log(scaled)) @ v.conj().T
    block = 0.5 * (block + block.conj().T)
    ls = LagrangeSet(
        dim_n=n,
        index_k=mr.index_k,
        lam_11=-block[0, 0].real,
        lam_1k=-block[0, 1],
        lam_kk=-block[1, 1].real,
        near_singular=near_singular,
    )
    _check_reproduction(ls, mr)
    return ls


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


def _solve_newton(mr: MeasurementRecord) -> LagrangeSet:
    """Damped Newton on the forward map, started from zero multipliers."""
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
        # Boundary records push the multipliers to infinity; fall back to
        # the floored closed form, which flags them.
        fallback = _solve_closed_form(mr)
        if fallback.near_singular:
            return fallback
        raise TomographyError(
            f"Newton solve stalled at residual {err:.3e}"
        )
    ls = LagrangeSet(mr.dim_n, mr.index_k, u[0], complex(u[1], u[2]), u[3])
    _check_reproduction(ls, mr)
    return ls


def solve_lagrange(mr: MeasurementRecord, method: str = "closed_form") -> LagrangeSet:
    """Recover the multipliers that reproduce a complete record.

    Methods: ``closed_form`` (matrix log of the scaled minor, the primary
    path) and ``newton`` (damped Newton from zero multipliers, an
    independent cross-check). Either reproduces the record to 1e-6 per
    component, which is checked, or raises; records whose minor is rank
    deficient are handled through the eigenvalue floor and flagged
    near-singular. A record that saturates x11 + xKK = 1 raises
    InfeasibleRecordError.
    """
    _require_solvable(mr)
    if method == "closed_form":
        return _solve_closed_form(mr)
    if method == "newton":
        return _solve_newton(mr)
    raise ValidationError(f"unknown solve method {method!r}")


def solve_record(
    mr: MeasurementRecord, x_kk: float | None = None
) -> tuple[MeasurementRecord, LagrangeSet]:
    """Complete a record and recover its multipliers: the one completion
    and saturation policy.

    A complete record is the caller's and is solved as given; if it
    saturates x11 + xKK = 1 that raises InfeasibleRecordError. An
    incomplete one is completed with ``x_kk``, an estimate from elsewhere,
    or else with ``predict_population``; ``feasible_record`` builds that
    completion and ``saturation_rescale`` moves it off the boundary, on
    which pure-state data sits. Returns the completed record, before any
    rescale, and the multipliers.
    """
    if mr.complete:
        if x_kk is not None:
            raise ValidationError("record already has x_kk")
        return mr, solve_lagrange(mr)
    source = "measured"
    if x_kk is None:
        x_kk, source = predict_population(mr.x_11, mr.x_1k), "predicted"
    completed = feasible_record(
        mr.dim_n, mr.index_k, mr.x_11, mr.x_1k, x_kk, source
    )
    return completed, solve_lagrange(saturation_rescale(completed))


def reconstruct(mr: MeasurementRecord) -> tuple[np.ndarray, MeasurementRecord]:
    """Complete a record (predicting x_KK if absent) and reconstruct rho.

    Returns the density matrix and the completed record; see
    ``solve_record`` for the saturation policy.
    """
    completed, ls = solve_record(mr)
    return density_from_lagrange(ls), completed


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in [0, 1]."""
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
    w, v = np.linalg.eigh(r)
    sqrt_r = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    mid = sqrt_r @ s @ sqrt_r
    w2 = np.linalg.eigvalsh(0.5 * (mid + mid.conj().T))
    value = float(np.sqrt(np.maximum(w2, 0.0)).sum() ** 2)
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
    try:
        dim_n = int(values["n"])
        index_k = int(values["k"])
        x11 = float(values["x11"])
        x1k = complex(float(values["re_x1k"]), float(values["im_x1k"]))
        xkk = float(values["xkk"]) if "xkk" in values else None
    except ValueError as exc:
        raise ParseError(f"bad record value: {exc}") from None
    return MeasurementRecord(dim_n, index_k, x11, x1k, xkk, source="measured")
