"""The Hermitian check, the argument tests and the screen of the array
kernels. Each tolerance is a constant of the module whose check uses it.

An array kernel (``maxent``'s solve and forward map, ``circuit``'s theta
stack) works on one element per point and raises each check's error
where the check runs: an array test screens the points, and ``_check``
gives each suspect, in index order, its error from the one-point check,
and raises the first. ``_raised`` catches a one-point check's error for
it.

Every check of an argument goes through one of three rules, each
raising a ValidationError that names the argument:

- ``_require(name, value, types, what)``, a type: ``{name} = {value!r}
  is not {what}``;
- ``_integer(name, value, low, high=None)``, an integer (``_INTEGERS``)
  in a range: ``{name} must be in [{low}, {high}], got {value}``, or
  ``{name} must be >= {low}, got {value}`` with no upper bound;
- ``_number(name, value, kind="real", finite=False)``, a real
  (``_REALS``) or complex (``_COMPLEX``) number, returned as a float or
  a complex: ``{name} = {value!r} is past the float range`` for an int
  too large to cast and, with ``finite``, ``{name} = {value!r} is not
  finite`` or ``... has a modulus past the float range``.

Each message shows an int too long for Python to print by its digit
count (``_shown``). ``_reals`` is the test of a sequence of
reals, and ``MAX_QUBITS`` the bound of every qubit count, checked
before any 2**n.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import TomographyError, ValidationError

# The slack of a density matrix's Hermitian, trace and PSD checks (``fidelity``).
_DENSITY_ATOL = 1e-8

# The types an integer argument, a real one and a complex one may have.
_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)
_COMPLEX = (*_REALS, complex, np.complexfloating)
MAX_QUBITS = 6


def _shown(value, form=repr) -> str:
    """``form(value)``, ``repr`` or ``str``, but an int of more digits
    than Python prints (``sys.get_int_max_str_digits``) is shown by its
    digit count, and a container that holds one by its type."""
    try:
        return form(value)
    except ValueError:
        if not isinstance(value, int):
            return f"a {type(value).__name__} with an int too long to print"
        size = abs(value)
        digits = int(size.bit_length() * math.log10(2)) + 1  # exact or one more
        digits -= size < 10 ** (digits - 1)
        return f"{'a negative' if value < 0 else 'an'} int of {digits} digits"


def _require(name: str, value, types, what: str) -> None:
    """Raise ValidationError naming ``name`` unless ``value`` is an
    instance of ``types``; ``what`` says what it must be."""
    if not isinstance(value, types):
        raise ValidationError(f"{name} = {_shown(value)} is not {what}")


def _integer(name: str, value, low: int, high: int | None = None) -> None:
    """Raise ValidationError naming ``name`` unless ``value`` is an
    integer in [low, high], or >= low when ``high`` is None."""
    _require(name, value, _INTEGERS, "an integer")
    if high is None:
        if value < low:
            raise ValidationError(f"{name} must be >= {low}, got {_shown(value, str)}")
    elif not low <= value <= high:
        raise ValidationError(f"{name} must be in [{low}, {high}], got {_shown(value, str)}")


def _number(name: str, value, kind: str = "real", finite: bool = False):
    """``value`` as a float (``kind`` "real") or a complex (``kind``
    "complex"). Another type, or an int past the float range, raises a
    ValidationError naming it; with ``finite``, so does a NaN or infinite
    value, or a complex one whose modulus passes the float range."""
    types, cast = (_COMPLEX, complex) if kind == "complex" else (_REALS, float)
    _require(name, value, types, f"a {kind} number")
    try:
        number = cast(value)
    except OverflowError:
        raise ValidationError(f"{name} = {_shown(value)} is past the float range") from None
    if finite:
        try:
            modulus = abs(number)
        except OverflowError:
            raise ValidationError(
                f"{name} = {number!r} has a modulus past the float range"
            ) from None
        if not math.isfinite(modulus):
            raise ValidationError(f"{name} = {number!r} is not finite")
    return number


def _reals(name: str, values) -> np.ndarray:
    """``values`` as a float64 array; a ValidationError naming ``name``
    unless it is a sequence, or a 1-D array, of real numbers (``_REALS``)
    within the float range."""
    listed = isinstance(values, Sequence) or isinstance(values, np.ndarray) and values.ndim == 1
    if not listed or not all(isinstance(v, _REALS) for v in values):
        raise ValidationError(f"{name} = {_shown(values)} is not a sequence of real numbers")
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        raise ValidationError(
            f"{name} = {_shown(values)} holds a number past the float range"
        ) from None


def require_hermitian(m) -> np.ndarray:
    """Validate that ``m`` is square, finite and Hermitian within
    ``_DENSITY_ATOL``; return its Hermitian part.

    Raises ValidationError for a value that is not a numeric matrix, and
    naming the first non-finite entry or the worst offending entry pair.
    """
    try:
        a = np.asarray(m, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"expected a numeric matrix, got {_shown(m)}") from None
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
