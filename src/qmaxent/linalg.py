"""The Hermitian check, the argument tests and the screen of the array
kernels. Each tolerance is a constant of the module whose check uses it.

An array kernel (``maxent``'s solve and forward map, ``circuit``'s theta
stack) works on one element per point and raises each check's error
where the check runs: an array test screens the points, and ``_check``
gives each suspect, in index order, its error from the one-point check,
and raises the first. ``_raised`` catches a one-point check's error for
it. ``_INTEGERS`` and ``_REALS`` are the package's one test of an
integer and of a real argument, ``_check_reals`` its test of a sequence
of reals and ``_check_text`` its test of a text.
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


def _check_reals(name: str, values) -> None:
    """Raise ValidationError naming ``name`` unless ``values`` is a
    sequence, or a 1-D array, of real numbers (``_REALS``)."""
    listed = isinstance(values, Sequence) or isinstance(values, np.ndarray) and values.ndim == 1
    if not listed or not all(isinstance(v, _REALS) for v in values):
        raise ValidationError(f"{name} = {values!r} is not a sequence of real numbers")


def _check_text(text) -> None:
    """Raise ValidationError unless ``text`` is a str."""
    if not isinstance(text, str):
        raise ValidationError(f"text = {text!r} is not a str")


def require_hermitian(m) -> np.ndarray:
    """Validate that ``m`` is square, finite and Hermitian within
    ``_DENSITY_ATOL``; return its Hermitian part.

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
