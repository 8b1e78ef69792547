"""Maximal-entropy reconstruction of an N-level density matrix from one
population, one coherence, and an optionally unknown second population.

Constraints are the mean values x11 = rho[1,1], x1K = rho[1,K] and
xKK = rho[K,K] (basis states numbered 1..N). The entropy-maximizing state
consistent with them is

    rho = exp(A) / Z,   Z = tr exp(A),

where A is zero outside the 2x2 block on indices {1, K} that holds the
(negated) Lagrange multipliers, A = -L with
L = [[lam11, lam1K], [lam1K*, lamKK]]. L has the eigenvalues m +- r, with
m = (lam11 + lamKK)/2, h = (lam11 - lamKK)/2 and r = hypot(h, |lam1K|), so

    exp(A) = e^-m [cosh r I - (sinh r / r)(L - m I)]

on the block, taken on scalars from e^(-m -+ r) with no eigensolver
(``_exponent_spectrum``), and the N-2 unconstrained basis states each
carry probability 1/Z.

The inverse is the mirror of that closed form: Z = (N-2)/(1-x11-xKK), and
the exponent block is the matrix log of Z times the constraint minor,
taken on scalars from the minor's two eigenvalues. It is the one inverse;
the test suite checks it against an independent damped Newton solve of
the forward map, and the forward map against mpmath's matrix exponential.

Two such states share their N-2 unconstrained levels, so their Uhlmann
fidelity also follows from the two 2x2 blocks (``block_fidelity``); the
dense ``fidelity`` is kept for arbitrary density matrices.

The completion, the solve, the forward map, the prediction and the block
fidelity are array kernels in plain numpy, one element per point, exact
to rounding (see the note above ``_check_records``). Each modulus is
taken once and shared, each branch runs only on the points that take it,
and the screens of the checks compare squared moduli.
``_complete_and_solve`` holds the one completion and saturation policy:
estimates are projected onto the feasible set
(``_project``), moved off the x11 + xKK = 1 boundary (``_rescale``) and
solved (``_solve``), and the solve's reproduction check runs the one
forward kernel, ``_exponent_spectrum``. A sweep makes one call of each
kernel over all its points, in ``_reconstruct_points``. ``solve_lagrange``, ``solve_record``,
``predict_population``, ``density_from_lagrange`` and ``block_fidelity``
call the same kernels on one point, for ``qmaxent reconstruct`` and
library users. ``heatmap_scan`` makes one forward call over its grid and
returns its columns. A complete record from the caller is solved as given.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    InfeasibleRecordError,
    ParseError,
    TomographyError,
    ValidationError,
)
from .linalg import (
    _DENSITY_ATOL, _INTEGERS, _check, _integer, _number, _raised, _reals, _require,
    _shown, require_hermitian,
)

_SOURCES = ("measured", "predicted")

_RECORD_ATOL = 1e-9  # the slack of each invariant of a record's values
_POPULATION_FLOOR = 1e-12  # x11 at or below it has no predicted xKK
_FEASIBILITY_ATOL = 1e-12  # x11 + xKK within it of 1 saturates
_RESCALE_TARGET = 1.0 - 1e-9  # the x11 + xKK a saturated estimate is scaled to
_LOG_FLOOR = 1e-12  # Z w- at or below it is floored: near_singular


def _check_dims(dim_n: int, index_k: int) -> None:
    _require("dim_n", dim_n, _INTEGERS, "an integer")
    if dim_n < 4 or dim_n & (dim_n - 1):
        raise ValidationError(f"dim_n must be a power of two >= 4, got {_shown(dim_n, str)}")
    _integer("index_k", index_k, 2, dim_n)


def _check_record_values(x_11, x_1k, x_kk) -> tuple[float, complex, float | None]:
    """A record's values as a float, a complex and a float or None, each
    a finite number (``_number``) in turn; then the invariants:
    populations in [0, 1], |x1K| <= 1 and, with x_kk, x11 + xKK <= 1 and
    a positive semidefinite minor, each within ``_RECORD_ATOL``."""
    x_11 = _number("x_11", x_11, finite=True)
    x_1k = _number("x_1k", x_1k, "complex", finite=True)
    if x_kk is not None:
        x_kk = _number("x_kk", x_kk, finite=True)
    tol = _RECORD_ATOL
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
    return x_11, x_1k, x_kk


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
        for name, kind in (("lam_11", "real"), ("lam_1k", "complex"), ("lam_kk", "real")):
            object.__setattr__(self, name, _number(name, getattr(self, name), kind, finite=True))


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
        values = _check_record_values(self.x_11, self.x_1k, self.x_kk)
        for name, value in zip(("x_11", "x_1k", "x_kk"), values):
            object.__setattr__(self, name, value)

    @property
    def complete(self) -> bool:
        return self.x_kk is not None


# The kernels below take one array element per point and compute each
# element's formula with numpy's arithmetic, to within a few units of
# rounding (tests/test_sweep_kernel.py bounds each stage against 60-digit
# arithmetic). The last bits depend on numpy's build: it picks its exp and
# log loops by CPU. Moduli are np.hypot of the parts, as abs() of a
# Python complex is, which the scalar record checks use; numpy's complex
# abs rounds differently on some inputs. A hypot costs about ten times
# the other ufuncs, so each modulus is taken once: the prediction and
# the projection take |x1K| from their caller (``modulus``, see
# ``_modulus``), and the projection takes it again only for the points
# it moved. A branch that only some points take runs on those points
# alone (``_where``). A screen that only picks suspects for a scalar
# check compares squared moduli, re^2 + im^2, against a bound shrunk to
# stay on the safe side of the hypot test it stands for
# (``_SQUARE_SHARE``, ``_SQUARE_FLOOR``): it marks every point that test
# marks, and the check decides. Each check raises where it runs, for
# the first point that fails it (``_check``), with the type and message
# of the scalar check of that element's Python floats. The kernels
# silence numpy's floating-point warnings: a branch not taken, or a
# point about to fail a check, may divide by zero or overflow.

# A squared modulus re^2 + im^2 is within 3 ulps of |z|^2, and np.hypot
# within one ulp of |z|, but for a few subnormal steps where they
# underflow. So a squared modulus at or below (1 - 2^-48) b - 2^-1022,
# 32 ulps and far more than those steps short of a bound b, keeps the
# hypot's square within b: a screen on squares against that bound marks
# every point that a screen on hypots against b marks.
_SQUARE_SHARE = 1.0 - 2.0**-48
_SQUARE_FLOOR = 2.0**-1022


def _modulus(x1k):
    """|x1K| of each point, np.hypot of its parts."""
    with np.errstate(all="ignore"):
        return np.hypot(x1k.real, x1k.imag)


def _squared_modulus(x1k):
    """|x1K|^2 of each point as re^2 + im^2, with no hypot."""
    return x1k.real * x1k.real + x1k.imag * x1k.imag


def _where(mask, branch, default, *args):
    """np.where(mask, branch(*args), default) with ``branch`` run on the
    points of ``mask`` alone: on every point when all are marked, on none
    when none is, else on the marked points' elements of ``args``."""
    count = np.count_nonzero(mask)
    if count == len(mask):
        return branch(*args)
    if not count:
        return default
    out = default.copy()
    out[mask] = branch(*(a[mask] for a in args))
    return out


def _record_suspects(x11, x1k, xkk=None):
    """The mask of the points that may fail ``_check_record_values``:
    every failing point and, within rounding of the bounds on |x1K|,
    perhaps a few more. The squares of the moduli are tested (see the
    kernel note)."""
    tol = _RECORD_ATOL
    with np.errstate(all="ignore"):
        square = _squared_modulus(x1k)
        # A range test fails a NaN or infinite value.
        ok = (
            (-tol <= x11) & (x11 <= 1 + tol)
            & (square <= (1 + tol) * (1 + tol) * _SQUARE_SHARE)
        )
        if xkk is not None:
            ok &= (
                (-tol <= xkk) & (xkk <= 1 + tol) & (x11 + xkk <= 1 + tol)
                & (square <= (x11 * xkk + 0.5 * tol) * _SQUARE_SHARE - _SQUARE_FLOOR)
            )
    return ~ok


def _check_records(x11, x1k, xkk=None):
    """Raise the error of the first point whose values fail
    ``_check_record_values``; without ``xkk``, the check of measured
    (x11, x1K) alone. ``_record_suspects`` picks the candidates; the
    scalar check on each candidate's Python floats decides."""
    _check(_record_suspects(x11, x1k, xkk), lambda i: _raised(
        _check_record_values, x11[i].item(), x1k[i].item(),
        None if xkk is None else xkk[i].item(),
    ))


def _exp_sum(a, b):
    """exp(a + b) free of the rounding of the sum: with s = a + b rounded
    and e = (a + b) - s, exact by Knuth's two-sum, exp(s) (1 + e). The
    rounding e is up to half an ulp of s, so exp(s) alone would be off by
    up to |a + b| EPS/2 relative."""
    s = a + b
    v = s - a
    return np.exp(s) * (1.0 + ((a - (s - v)) + (b - v)))


def _exponent_spectrum(dim_n: int, l11, l1k, lkk):
    """The one forward kernel: z and the block (e11, e1k, ekk) of exp(A)
    for the multipliers (l11, l1k, lkk) of each point in dimension
    ``dim_n``. The first point where exp(A) leaves the float range
    raises a DomainError naming its multipliers.

    This is the mirror of ``_solve``'s log. With A = -L on the block,
    m = (l11 + lkk)/2, h = (l11 - lkk)/2, c = |l1k| and r = hypot(h, c),

        exp(A) = e^-m [cosh r I - (sinh r / r)(L - m I)],

    taken from its eigenvalues lo = e^(-m-r) and hi = e^(-m+r) and
    s = e^-m sinh r / r (Moler and Van Loan, SIAM Rev. 45, 3, 2003).
    r - |h| = c^2/(r + |h|) = t, so the exponents are -max(l11, lkk) - t
    and -min(l11, lkk) + t, which do not cancel when |h| >> c. Both go
    through ``_exp_sum``: rounded, each sum would put its own error of up
    to |m| EPS/2 on lo and hi, which the block and z carry in different
    shares, and ``block_fidelity`` would see the mismatch. s is
    lo expm1(2r)/(2r) while 2r < 1 and (hi - lo)/(2r) beyond. The smaller
    diagonal entry is lo + s t and the larger lo + s (r + |h|); (1,1) is
    the smaller one when h >= 0. An overflow leaves z infinite or NaN, so
    that one test finds every overflow.
    """
    with np.errstate(all="ignore"):
        c = np.hypot(l1k.real, l1k.imag)
        h = 0.5 * (l11 - lkk)
        r = np.hypot(h, c)
        outer = r + np.abs(h)
        q = np.where(r > 0.0, c / outer, 0.0)
        t = c * q
        lo = _exp_sum(-np.maximum(l11, lkk), -t)
        hi = _exp_sum(-np.minimum(l11, lkk), t)
        two_r = 2.0 * r
        s = _where(
            two_r < 1.0,
            lambda lo, two_r: lo * np.where(two_r > 0.0, np.expm1(two_r) / two_r, 1.0),
            (hi - lo) / two_r, lo, two_r,
        )
        # s t as (s c) q: t underflows first.
        small, large = lo + (s * c) * q, lo + s * outer
        up = h >= 0.0
        # The + 0.0 makes a zero part +0.0, whatever the signs in l1k.
        block = (np.where(up, small, large), -(s * l1k) + 0.0, np.where(up, large, small))
        z = lo + hi + float(dim_n - 2)
        domain = ~np.isfinite(z)
    _check(domain, lambda i: DomainError(
        f"exp(A) overflows for multipliers lam_11 = {l11[i].item()!r}, "
        f"lam_1k = {l1k[i].item()!r}, lam_kk = {lkk[i].item()!r}"
    ))
    return z, block


def _expectations(spec):
    """The mean values (x11, x1K, xKK) = block / z of each point."""
    z, (e11, e1k, ekk) = spec
    # x1K part by part: numpy divides a complex by multiplying by 1/z.
    x1k = np.empty_like(e1k)
    with np.errstate(all="ignore"):
        x1k.real, x1k.imag = e1k.real / z, e1k.imag / z
        return e11 / z, x1k, ekk / z


def _arrays(*values) -> tuple[np.ndarray, ...]:
    """Each value as a one-point array, for the kernels."""
    return tuple(np.array([v]) for v in values)


def _forward(ls: LagrangeSet):
    """The multipliers of ``ls`` as one-point arrays and their forward
    map (``_exponent_spectrum``); an exp(A) that leaves the float range
    raises DomainError."""
    lams = _arrays(ls.lam_11, ls.lam_1k, ls.lam_kk)
    return lams, _exponent_spectrum(ls.dim_n, *lams)


def density_from_lagrange(ls: LagrangeSet) -> np.ndarray:
    """The maximal-entropy density matrix exp(A)/Z for the given multipliers.

    Every diagonal entry outside the {1, K} block equals 1/Z, and the
    block holds the mean values (x11, x1K, xKK) the multipliers generate,
    the forward map of the solve's reproduction check. Multipliers whose
    exp(A) leaves the float range raise DomainError.
    """
    _require("ls", ls, LagrangeSet, "a LagrangeSet")
    spec = _forward(ls)[1]
    x11, x1k, xkk = (v.item() for v in _expectations(spec))
    n, k = ls.dim_n, ls.index_k - 1
    rho = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(rho, 1.0 / spec[0].item())
    rho[0, 0] = x11
    rho[0, k] = x1k
    rho[k, 0] = x1k.conjugate()
    rho[k, k] = xkk
    return rho


def _above_floor(x11):
    """Whether each x11 has a predicted xKK: the points a sweep solves."""
    return x11 > _POPULATION_FLOOR


def _predict_population(x11, modulus):
    """|x1K|^2 / x11 of each point clamped to [0, 1 - x11], the value
    before the clamp, and the clamp's ceiling max(0, 1 - x11); ``modulus``
    is |x1K| of each point (``_modulus``)."""
    with np.errstate(all="ignore"):
        value = modulus * modulus / x11
        ceiling = 1.0 - x11
        ceiling = np.where(ceiling > 0.0, ceiling, 0.0)
        return np.where(ceiling < value, ceiling, value), value, ceiling


def predict_population(x_11: float, x_1k: complex) -> float:
    """Predicted unknown population |x1K|^2 / x11.

    Exact when the underlying state is pure. The result is clamped to
    [0, 1 - x11]; a RuntimeWarning is emitted when the clamp removes more
    than ``_FEASIBILITY_ATOL``, which can happen for noisy inputs
    (a smaller excess is rounding on exact pure-state data). A NaN or
    infinite input, or one that is not a number, raises ValidationError.
    """
    x_11 = _number("x_11", x_11, finite=True)
    x_1k = _number("x_1k", x_1k, "complex", finite=True)
    if not _above_floor(x_11):
        raise DomainError(
            f"x_11 = {x_11} is at or below the floor {_POPULATION_FLOOR}; prediction undefined"
        )
    x11, x1k = _arrays(x_11, x_1k)
    predicted, value, ceiling = (v.item() for v in _predict_population(x11, _modulus(x1k)))
    if value - ceiling > _FEASIBILITY_ATOL:
        warnings.warn(
            f"predicted population {value:.6g} clamped to 1 - x_11 = "
            f"{ceiling:.6g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return predicted


def _project(x11, x1k, xkk, modulus):
    """The estimates of each point projected onto the feasible set. The
    first NaN or infinite estimate raises ValidationError naming it, and
    none is clipped. ``modulus`` is |x1K| of each point (``_modulus``).

    Shot-noise estimates can leave the physical set: populations are
    clipped to [0, 1] and rescaled if they sum past 1, and the coherence is
    shrunk onto the boundary of the positive-semidefinite minor. Exact
    inputs pass through unchanged. Each rescaling runs on the points it
    moves, and |x1K| is taken again only for the points moved before the
    last one.
    """
    with np.errstate(all="ignore"):
        finite = np.isfinite(x11) & np.isfinite(x1k) & np.isfinite(xkk)
        # The record check's first statements, ``_number`` of each value,
        # raise for exactly these points: ValidationError naming a
        # non-finite estimate, or one whose modulus passes the float range.
        _check(~finite | np.isinf(modulus), lambda i: _raised(
            _check_record_values, x11[i].item(), x1k[i].item(), xkk[i].item(),
        ))
        x11 = np.clip(x11, 0.0, 1.0)
        long = modulus > 1.0
        x1k = _where(long, lambda x1k, modulus: x1k * (1.0 / modulus), x1k, x1k, modulus)
        xkk = np.clip(xkk, 0.0, 1.0)
        total = x11 + xkk
        over = total > 1.0
        x11 = _where(over, np.divide, x11, x11, total)
        xkk = _where(over, np.divide, xkk, xkk, total)
        x1k = _where(over, np.divide, x1k, x1k, total)
        bound = np.sqrt(x11 * xkk)
        modulus = _where(long | over, _modulus, modulus, x1k)
        x1k = _where(
            modulus > bound, lambda x1k, bound, modulus: x1k * (bound / modulus),
            x1k, x1k, bound, modulus,
        )
    return x11, x1k, xkk


def _rescale(x11, x1k, xkk):
    """(x11, x1K, xKK) of each point with the minors whose x11 + xKK lies
    within ``_FEASIBILITY_ATOL`` of 1 scaled by
    ``_RESCALE_TARGET``/(x11 + xKK), and the mask of those points.

    Rank-one (pure-state) records sit exactly on that boundary, where the
    partition function diverges. The scaling restores feasibility while
    perturbing each component by at most 1e-9. Only the points it moves
    are multiplied.
    """
    with np.errstate(all="ignore"):
        total = x11 + xkk
        c = _RESCALE_TARGET / total
        fired = ~(total < 1.0 - _FEASIBILITY_ATOL) & (c != 1.0)
        rescaled = (
            _where(fired, np.multiply, x11, c, x11), _where(fired, np.multiply, x1k, x1k, c),
            _where(fired, np.multiply, xkk, c, xkk),
        )
    return rescaled, fired


def _deviation(f11, f1k, fkk, x11, x1k, xkk):
    """The deviation of the reproduction check of each point: the largest
    of |f11 - x11|, |f1k - x1k| and |fkk - xkk|, taken term by term as
    where(b > a, b, a): a NaN first term makes it NaN, and a NaN later
    term is passed over."""
    with np.errstate(all="ignore"):
        d11 = np.abs(f11 - x11)
        d1k = np.hypot(f1k.real - x1k.real, f1k.imag - x1k.imag)
        dkk = np.abs(fkk - xkk)
        dev = np.where(d1k > d11, d1k, d11)
        return np.where(dkk > dev, dkk, dev)


# The tolerance of the reproduction check, and the bound of its screen
# on the squared deviation of x1K (see the kernel note).
_REPRODUCTION_ATOL = 1e-6
_REPRODUCTION_SQUARE = _REPRODUCTION_ATOL**2 * _SQUARE_SHARE


def _deviation_suspects(forward, x11, x1k, xkk):
    """The mask of the points whose ``_deviation`` from the forward values
    ``forward`` may pass ``_REPRODUCTION_ATOL``: every such point and,
    within rounding of the bound on x1K, perhaps a few more."""
    f11, f1k, fkk = forward
    with np.errstate(all="ignore"):
        return (
            (np.abs(f11 - x11) > _REPRODUCTION_ATOL) | (np.abs(fkk - xkk) > _REPRODUCTION_ATOL)
            | (_squared_modulus(f1k - x1k) > _REPRODUCTION_SQUARE)
        )


def _check_reproduction(spec, x11, x1k, xkk):
    """Check that the forward values of each point, from the spectrum
    ``spec``, are a valid record within 1e-6 of (x11, x1k, xkk) per
    component: the record check of every point, then the deviation of
    every point, each raising for its first failing point. Both screens
    compare squared moduli; the record check and ``_deviation`` of each
    suspect decide."""
    forward = _expectations(spec)
    values = (*forward, x11, x1k, xkk)

    def deviation(i):
        dev = _deviation(*(v[i : i + 1] for v in values)).item()
        if dev > _REPRODUCTION_ATOL:
            return TomographyError(
                f"solver failed to reproduce the record (deviation {dev:.3e})"
            )
        return None

    _check_records(*forward)
    _check(_deviation_suspects(forward, x11, x1k, xkk), deviation)


# A minor eigenvalue at or below this share of the larger one is rounding
# of a rank-one minor and counts as zero.
_RANK_ONE_SHARE = 8 * sys.float_info.epsilon


def _solve(dim_n: int, x11, x1k, xkk):
    """``solve_lagrange`` on the values of valid records whose dimensions
    the caller has checked, one per point.

    Returns the multipliers (lam_11, lam_1k, lam_kk), the near_singular
    mask and the spectrum of the reproduction check
    (``_exponent_spectrum``). Its checks raise in ``solve_lagrange``'s
    order, each for its first failing point.
    """
    with np.errstate(all="ignore"):
        total = x11 + xkk
        _check(
            total >= 1.0 - _FEASIBILITY_ATOL,
            lambda i: InfeasibleRecordError(
                f"x_11 + x_kk = {total[i].item()} saturates 1; the partition "
                "function diverges (rescale the record first)"
            ),
        )
        z = float(dim_n - 2) / (1.0 - x11 - xkk)
        mid = 0.5 * total
        half_gap = 0.5 * (x11 - xkk)
        r = np.hypot(half_gap, np.hypot(x1k.real, x1k.imag))
        w_hi = mid + r
        det = x11 * xkk - (x1k.real * x1k.real + x1k.imag * x1k.imag)
        w_lo = np.where(w_hi > 0, det / w_hi, 0.0)
        _check(
            w_lo < -_RECORD_ATOL,
            lambda i: InfeasibleRecordError(
                f"constraint minor has negative eigenvalue {w_lo[i].item():.3e}"
            ),
        )
        w_lo = np.where(w_lo <= _RANK_ONE_SHARE * w_hi, 0.0, w_lo)
        z_hi = z * np.where(0.0 > w_hi, 0.0, w_hi)
        z_lo = z * w_lo
        near_singular = z_lo <= _LOG_FLOOR
        log_hi = np.log(np.where(_LOG_FLOOR > z_hi, _LOG_FLOOR, z_hi))
        log_lo = np.log(np.where(_LOG_FLOOR > z_lo, _LOG_FLOOR, z_lo))
        two_r = 2.0 * r
        g = _where(
            ~near_singular, lambda two_r, w_lo: np.log1p(two_r / w_lo) / two_r,
            (log_hi - log_lo) / two_r, two_r, w_lo,
        )
        g = np.where(r == 0.0, 0.0, g)
        avg = 0.5 * (log_hi + log_lo)
        lam_11 = -(avg + g * half_gap)
        # The + 0.0 makes a zero part +0.0 before the negation, so a zero
        # multiplier is -0.0 whatever the signs of the zeros in x1K.
        lam_1k = -(g * x1k + 0.0)
        lam_kk = -(avg - g * half_gap)
        finite = np.isfinite(lam_11) & np.isfinite(lam_1k) & np.isfinite(lam_kk)
    # The multipliers' own check, ``LagrangeSet``'s; K = 2 suits every N.
    _check(~finite, lambda i: _raised(
        LagrangeSet, dim_n, 2, lam_11[i].item(), lam_1k[i].item(), lam_kk[i].item(),
    ))
    spec = _exponent_spectrum(dim_n, lam_11, lam_1k, lam_kk)
    _check_reproduction(spec, x11, x1k, xkk)
    return (lam_11, lam_1k, lam_kk), near_singular, spec


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
    1e9 after the saturation rescale and would lift that residue over the
    floor). When Z w- is at or below ``_LOG_FLOOR`` the eigenvalue is
    floored and the set is flagged ``near_singular``.

    The result reproduces the record to 1e-6 per component, which is
    checked, or this raises. A minor with an eigenvalue below -``_RECORD_ATOL``, or a
    record that saturates x11 + xKK = 1, raises InfeasibleRecordError.
    """
    _require("mr", mr, MeasurementRecord, "a MeasurementRecord")
    if not mr.complete:
        raise ValidationError("record is incomplete: x_kk is absent")
    lams, near_singular, _ = _solve(mr.dim_n, *_arrays(mr.x_11, mr.x_1k, mr.x_kk))
    return LagrangeSet(mr.dim_n, mr.index_k, *(v.item() for v in lams), near_singular.item())


def _complete_and_solve(dim_n: int, x11, x1k, xkk, modulus):
    """The one completion and saturation policy, on arrays of points.

    The estimates are projected onto the feasible set (``_project``, which
    takes ``modulus``, |x1K| of each point), moved off the x11 + xKK = 1
    boundary, on which pure-state data sits (``_rescale``), and solved
    (``_solve``), each step raising for its first failing point. The
    dimensions are the caller's to check. Returns the projected
    (x11, x1K, xKK), before any rescale, the multipliers, the
    near_singular mask and the spectrum.
    """
    completed = _project(x11, x1k, xkk, modulus)
    rescaled, _ = _rescale(*completed)
    return (completed, *_solve(dim_n, *rescaled))


def _reconstruct_points(dim_n: int, x11, x1k, xkk_true):
    """Predict and reconstruct every measured point of a sweep in
    dimension ``dim_n``, which the caller has checked: case A completes a
    point with its predicted xKK, case B with ``xkk_true``.

    Returns the ``solved`` mask, the points whose x11 is above the floor,
    and the solved points' columns in ``Sweep`` field order: (x11, x1K,
    xKK true, xKK predicted, fidelity, case A multipliers, case A
    near_singular, case B multipliers, case B near_singular).

    The solved points' measured (x11, x1K) are checked once, as arrays,
    screened and then attributed in point order (``linalg._check``);
    |x1K| is taken once, for the prediction and the projection. Then one
    call of each array kernel covers them all: the prediction, the
    completion and solve of both cases side by side (row 2i of the one
    ``_complete_and_solve`` call is point i's case A, row 2i + 1 its case
    B) and the fidelity. A prediction above 1 - x11 is clamped without a
    warning, to xkk_pred = 1 - x11. No record is built and no multiplier
    set is validated again. Each step raises for its first failing row,
    so a solve error comes before any fidelity error.
    """
    solved = _above_floor(x11)
    x11_s, x1k_s = x11[solved], x1k[solved]
    _check_records(x11_s, x1k_s)
    xkk_true_s, modulus = xkk_true[solved], _modulus(x1k_s)
    xkk = _predict_population(x11_s, modulus)[0]
    completed, lams, near, (z, block) = _complete_and_solve(
        dim_n, x11_s.repeat(2), x1k_s.repeat(2),
        np.array([xkk, xkk_true_s]).T.ravel(), modulus.repeat(2),
    )
    lams_a, lams_b = (tuple(v[i::2] for v in lams) for i in (0, 1))
    block_a, block_b = (tuple(v[i::2] for v in block) for i in (0, 1))
    fidelity = _block_fidelity(dim_n, lams_a, z[::2], block_a, lams_b, z[1::2], block_b)
    return solved, (
        x11_s, x1k_s, xkk_true_s, completed[2][::2], fidelity,
        lams_a, near[::2], lams_b, near[1::2],
    )


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
    _require("mr", mr, MeasurementRecord, "a MeasurementRecord")
    if mr.complete:
        if x_kk is not None:
            raise ValidationError("record already has x_kk")
        return mr, solve_lagrange(mr)
    source = "measured"
    if x_kk is None:
        x_kk, source = predict_population(mr.x_11, mr.x_1k), "predicted"
    x11, x1k, xkk = _arrays(mr.x_11, mr.x_1k, _number("x_kk", x_kk))
    completed, lams, near_singular, _ = _complete_and_solve(
        mr.dim_n, x11, x1k, xkk, _modulus(x1k)
    )
    record = MeasurementRecord(mr.dim_n, mr.index_k, *(v.item() for v in completed), source)
    ls = LagrangeSet(mr.dim_n, mr.index_k, *(v.item() for v in lams), near_singular.item())
    return record, ls


def reconstruct(mr: MeasurementRecord) -> tuple[np.ndarray, MeasurementRecord]:
    """Complete a record (predicting x_KK if absent) and reconstruct rho.

    Returns the density matrix and the completed record; see
    ``solve_record`` for the saturation policy.
    """
    completed, ls = solve_record(mr)
    return density_from_lagrange(ls), completed


def _psd_sqrt(name: str, m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    if w[0] < -_DENSITY_ATOL:
        raise ValidationError(
            f"{name} is not positive semidefinite: smallest eigenvalue {w[0]:.3e}"
        )
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in [0, 1],
    evaluated as the squared nuclear norm ||sqrt(rho) sqrt(sigma)||_1^2
    (the sum of singular values). On near-singular states, such as the
    floored reconstructions, the eigenvalues of sqrt(rho) sigma sqrt(rho)
    lose about half their digits; the singular values do not.

    Each matrix must be Hermitian, of trace one and positive semidefinite,
    each within ``_DENSITY_ATOL``; a smaller eigenvalue below
    -``_DENSITY_ATOL`` raises ValidationError naming the matrix."""
    checked = []
    for name, m in (("rho", rho), ("sigma", sigma)):
        try:
            m = require_hermitian(m)
        except ValidationError as exc:
            raise ValidationError(f"{name}: {exc}") from None
        if abs(np.trace(m).real - 1.0) > _DENSITY_ATOL:
            raise ValidationError(f"{name} is not trace one")
        checked.append(m)
    r, s = checked
    if r.shape != s.shape:
        raise ValidationError(f"dimension mismatch: {r.shape} vs {s.shape}")
    singular = np.linalg.svd(_psd_sqrt("rho", r) @ _psd_sqrt("sigma", s), compute_uv=False)
    value = float(singular.sum() ** 2)
    return min(max(value, 0.0), 1.0)


def _block_fidelity(dim_n: int, lams_a, z_a, block_a, lams_b, z_b, block_b):
    """``block_fidelity`` of each point's two multiplier sets, from their
    multipliers (lam_11, lam_1k, lam_kk), partition functions and blocks
    (e11, e1k, ekk) of exp(A). The first point where exp of minus half
    the multiplier sum overflows raises a DomainError."""
    (a11, a1k, akk), (b11, b1k, bkk) = block_a, block_b
    with np.errstate(all="ignore"):
        # The real part of a1k * conj(b1k).
        cross = a1k.real * b1k.real + a1k.imag * b1k.imag
        overlap = a11 * b11 + akk * bkk + 2.0 * cross
        lam_sum = lams_a[0] + lams_a[2] + lams_b[0] + lams_b[2]
        det_root = np.exp(-0.5 * lam_sum)
        total = overlap + 2.0 * det_root
        root = np.sqrt(np.where(0.0 > total, 0.0, total)) + float(dim_n) - 2.0
        value = np.clip(root * root / (z_a * z_b), 0.0, 1.0)
    _check(np.isinf(det_root) & np.isfinite(lam_sum), lambda i: DomainError(
        f"block fidelity overflows: lam11_a + lamKK_a + lam11_b + lamKK_b "
        f"= {lam_sum[i].item()!r}, and exp of minus half of it leaves the float range"
    ))
    return value


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

    Sets whose N or K differ raise ValidationError, and sets whose
    multiplier sum makes that exp leave the float range DomainError.
    """
    _require("a", a, LagrangeSet, "a LagrangeSet")
    _require("b", b, LagrangeSet, "a LagrangeSet")
    if (a.dim_n, a.index_k) != (b.dim_n, b.index_k):
        raise ValidationError(
            f"multiplier sets differ: (N, K) = ({a.dim_n}, {a.index_k}) vs "
            f"({b.dim_n}, {b.index_k})"
        )
    (lams_a, (z_a, block_a)), (lams_b, (z_b, block_b)) = _forward(a), _forward(b)
    return _block_fidelity(a.dim_n, lams_a, z_a, block_a, lams_b, z_b, block_b).item()


def heatmap_scan(
    lam11_values,
    re_lam1k_values,
    *,
    lam_kk: float = 0.0,
    im_lam1k: float = 0.0,
    dim_n: int = 4,
    index_k: int = 2,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward map evaluated over a (lam11, Re lam1K) grid, in one call of
    the forward kernel.

    Returns the columns (lam11, lam1K, x11, x1K), one row per grid point
    in row-major order: lam11 outer, Re lam1K inner. Each axis is a
    sequence or a 1-D array of real numbers, and ``lam_kk`` and
    ``im_lam1k`` are real numbers; another type raises a ValidationError
    naming the argument. Then the first point whose multipliers
    ``LagrangeSet`` rejects raises its error; then the first whose exp(A)
    overflows, then the first whose forward values fail the record check.
    """
    _check_dims(dim_n, index_k)
    lam11, re1k = _reals("lam11_values", lam11_values), _reals("re_lam1k_values", re_lam1k_values)
    lam_kk, im = _number("lam_kk", lam_kk), _number("im_lam1k", im_lam1k)
    shape = (len(lam11), len(re1k))
    l11, l1k = np.empty(shape), np.empty(shape, complex)
    l11[...] = lam11[:, None]
    l1k.real, l1k.imag = re1k, im
    l11, l1k = l11.ravel(), l1k.ravel()
    lkk = np.full(l11.size, lam_kk)
    with np.errstate(all="ignore"):
        valid = np.isfinite(l11) & np.isfinite(np.hypot(l1k.real, l1k.imag)) & np.isfinite(lkk)
    _check(~valid, lambda i: _raised(
        LagrangeSet, dim_n, index_k, l11[i].item(), l1k[i].item(), lkk[i].item()
    ))
    x11, x1k, xkk = _expectations(_exponent_spectrum(dim_n, l11, l1k, lkk))
    _check_records(x11, x1k, xkk)
    return l11, l1k, x11, x1k


def parse_keyvals(text: str, known, what: str) -> dict[str, str]:
    """The values of flat ``key value`` text (records and configs).

    ``#`` starts a comment and blank lines are skipped. A line that is not
    ``key value``, a key outside ``known`` or a repeated key raises a
    ParseError naming the line; ``what`` names the kind of text, and a
    ``text`` that is not a str raises ValidationError.
    """
    _require("text", text, str, "a str")
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
    _require("mr", mr, MeasurementRecord, "a MeasurementRecord")
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
