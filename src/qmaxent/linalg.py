"""The Hermitian check, the argument tests and the screen of the array
kernels. Each tolerance is a constant of the module whose check uses it.

An array kernel (``maxent``'s solve and forward map, ``circuit``'s theta
stack) works on one element per point and raises each check's error
where the check runs: an array test screens the points, and ``_check``
gives each suspect, in index order, its error from the one-point check,
and raises the first. ``_raised`` catches a one-point check's error for
it.

Every type and range check of an argument goes through two helpers,
each naming the argument: ``_require`` raises ``{name} = {value!r} is
not {what}``, and ``_integer`` requires an integer (``_INTEGERS``), then
raises ``{name} must be in [{low}, {high}], got {value}``, or ``{name}
must be >= {low}, got {value}`` with no upper bound. ``_REALS`` are the
types of a real, ``_reals`` the test of a sequence of reals, and
``MAX_QUBITS`` the bound of every qubit count, checked before any 2**n.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import TomographyError, ValidationError

# The slack of a density matrix's Hermitian, trace and PSD checks (``fidelity``).
_DENSITY_ATOL = 1e-8

# The types an integer argument, and a real one, may have.
_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)
MAX_QUBITS = 6


def _require(name: str, value, types, what: str) -> None:
    """Raise ValidationError naming ``name`` unless ``value`` is an
    instance of ``types``; ``what`` says what it must be."""
    if not isinstance(value, types):
        raise ValidationError(f"{name} = {value!r} is not {what}")


def _integer(name: str, value, low: int, high: int | None = None) -> None:
    """Raise ValidationError naming ``name`` unless ``value`` is an
    integer in [low, high], or >= low when ``high`` is None."""
    _require(name, value, _INTEGERS, "an integer")
    if high is None:
        if value < low:
            raise ValidationError(f"{name} must be >= {low}, got {value}")
    elif not low <= value <= high:
        raise ValidationError(f"{name} must be in [{low}, {high}], got {value}")


def _reals(name: str, values) -> np.ndarray:
    """``values`` as a float64 array; a ValidationError naming ``name``
    unless it is a sequence, or a 1-D array, of real numbers (``_REALS``)
    within the float range."""
    listed = isinstance(values, Sequence) or isinstance(values, np.ndarray) and values.ndim == 1
    if not listed or not all(isinstance(v, _REALS) for v in values):
        raise ValidationError(f"{name} = {values!r} is not a sequence of real numbers")
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        raise ValidationError(f"{name} = {values!r} holds a number past the float range") from None


def require_hermitian(m) -> np.ndarray:
    """Validate that ``m`` is square, finite and Hermitian within
    ``_DENSITY_ATOL``; return its Hermitian part.

    Raises ValidationError for a value that is not a numeric matrix, and
    naming the first non-finite entry or the worst offending entry pair.
    """
    try:
        a = np.asarray(m, dtype=complex)
    except (TypeError, ValueError):
        raise ValidationError(f"expected a numeric matrix, got {m!r}") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    dev = np.abs(a - a.conj().T)
    worst = float(dev.max())
    # A NaN or infinite entry makes its deviation NaN or infinite too, so
    # the finiteness check costs nothing on valid input.
    if not worst <= _DENSITY_ATOL:
        finite = np.isfinite(a)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise ValidationError(f"matrix entry ({i},{j}) is {a[i, j]!r}, not finite")
        i, j = np.unravel_index(int(dev.argmax()), dev.shape)
        raise ValidationError(
            f"matrix is not Hermitian: entries ({i},{j}) and ({j},{i}) "
            f"differ by {worst:.3e} (tolerance {_DENSITY_ATOL:.1e})"
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
