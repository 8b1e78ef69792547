"""Hermitian matrix checks, the tolerance policy and the screen of the
array kernels.

Tolerances come from the module-wide ``POLICY`` record so callers and
tests share one set of knobs.

An array kernel (``maxent``'s solve and forward map, ``circuit``'s theta
stack) works on one element per point and raises each check's error
where the check runs: an array test screens the points, and ``_check``
gives each suspect, in index order, its error from the one-point check,
and raises the first. ``_raised`` catches a one-point check's error for
it. ``_INTEGERS`` and ``_REALS`` are the package's one test of an
integer and of a real argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TomographyError, ValidationError


@dataclass(frozen=True)
class NumericPolicy:
    """Single source of truth for numerical tolerances."""

    hermitian_atol: float = 1e-12    # allowed |m[i,j] - conj(m[j,i])|
    log_floor: float = 1e-12         # default eigenvalue floor inside logs
    population_floor: float = 1e-12  # x11 below this makes the prediction undefined
    feasibility_atol: float = 1e-12  # x11 + xkk within this of 1 is infeasible
    record_atol: float = 1e-9        # slack on measurement-record invariants


POLICY = NumericPolicy()

# The types an integer argument, and a real one, may have.
_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


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


def _raised(check, *args, **kwargs) -> Exception | None:
    """The error ``check(*args, **kwargs)`` raises, or None."""
    try:
        check(*args, **kwargs)
    except (TomographyError, ArithmeticError) as exc:
        return exc
    return None


def _check(mask: np.ndarray, error) -> None:
    """Raise the exception ``error(i)`` gives for the first index ``i`` of
    ``mask`` for which it gives one.

    ``mask`` screens: it marks the points that may fail, and only those
    are attributed an error, one ``error(i)`` call each in index order."""
    for i in mask.nonzero()[0].tolist():
        exc = error(i)
        if exc is not None:
            raise exc
