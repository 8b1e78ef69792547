"""Edges of ``maxent``'s array kernels, each stated as the property it
holds. The two screens compare squared moduli against bounds shrunk to
stay on the safe side of the tests they stand for: the record screen
marks every point that fails ``_check_record_values`` or the hypot test
of its bounds, and the deviation screen every point whose deviation
passes ``_REPRODUCTION_ATOL``, here on points a few ulps either side of
each bound. The other tests hold edges that only the removed bit-parity
layer checked, or that no test did (``MUTANTS.json``).
"""

import cmath
import hashlib
import math

import numpy as np

from qmaxent import InfeasibleRecordError, TomographyError, ValidationError, maxent


def arrays(points):
    """One array per place of the tuples ``points``."""
    return (np.array(v) for v in zip(*points))


def ulps_around(value, count):
    """``value`` and the ``count`` floats on either side of it."""
    out, up, down = [value], value, value
    for _ in range(count):
        up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
        out += [float(up), float(down)]
    return out


def first_error(check, count):
    """``raised`` of the first ``check(i)`` for i in range(count) to raise."""
    return next(filter(None, (raised(lambda i=i: check(i)) for i in range(count))), None)


def raised(call):
    """The type and message of the error ``call()`` raises, or None."""
    exc = maxent._raised(call)
    return None if exc is None else (type(exc), str(exc))


def test_squared_record_screen_marks_every_failing_point_at_its_bounds():
    # Moduli a few ulps either side of 1 + tol, and of the roots of the
    # minor's bounds x11 xKK + tol / 2 (the screen's) and x11 xKK + tol
    # (the check's), at several phases.
    tol = maxent._RECORD_ATOL
    records = []
    for x11, xkk in ((0.5, 0.5), (0.3, 0.2), (1e-9, 1e-9), (0.0, 0.7), (-tol / 2, 1.0)):
        bounds = [(1.0 + tol) ** 2, x11 * xkk + 0.5 * tol, x11 * xkk + tol]
        for root in [math.sqrt(b) for b in bounds if b >= 0]:
            for size in ulps_around(root, 40):
                for phase in (0.0, 0.7, math.pi / 4, 2.5):
                    records.append((x11, cmath.rect(size, phase), xkk))
    # x11, xKK and x11 + xKK a few ulps either side of their bounds, the
    # other values inside theirs.
    for v in ulps_around(-tol, 4) + ulps_around(1.0 + tol, 4):
        records += [(v, 0j, 0.0), (-1e-15, 0j, v), (0.5, 0j, v - 0.5)]
    x11, x1k, xkk = arrays(records)
    modulus = np.hypot(x1k.real, x1k.imag)
    for kkk in (None, xkk):
        def scalar(i):
            return maxent._check_record_values(
                x11[i].item(), x1k[i].item(), None if kkk is None else kkk[i].item()
            )

        fails = np.array([maxent._raised(scalar, i) is not None for i in range(len(x11))])
        # The hypot test the screen stands for: its bounds on |x1K|.
        hypot = modulus > 1 + tol
        if kkk is not None:
            hypot |= modulus * modulus > x11 * kkk + 0.5 * tol
        assert fails.any() and not fails.all() and hypot.any() and not hypot.all()
        assert not ((fails | hypot) & ~maxent._record_suspects(x11, x1k, kkk)).any()
        assert raised(lambda: maxent._check_records(x11, x1k, kkk)) == (
            first_error(scalar, len(x11))
        )


def test_squared_deviation_screen_marks_every_deviation_past_the_tolerance():
    # A spectrum with z = 1 has the forward values (0.3, e1K, 0.5) exactly.
    # With e1K = 0, each point's deviation is |x1K|, a few ulps either
    # side of the tolerance. The next two are past it, though re^2 + im^2
    # rounds to at most 1e-6 ** 2: a screen bound of the unshrunk square
    # misses them. Then x1K, x11 and xKK each moved off the forward values
    # by half the tolerance, twice it and a sign flip.
    atol, e1k = maxent._REPRODUCTION_ATOL, 0.1 + 0.2j
    points = [
        (0.3, size * cmath.exp(1j * phase), 0.5, 0j)
        for size in ulps_around(atol, 40) for phase in (0.0, 0.7, math.pi / 4, 2.5)
    ] + [
        (0.3, complex(float.fromhex(re), float.fromhex(im)), 0.5, 0j) for re, im in (
            ("-0x1.37a42194390b0p-22", "-0x1.00e16737993cbp-20"),
            ("0x1.0a3922d91a964p-20", "-0x1.1322c5d986455p-23"),
        )
    ]
    for d in (0.5, 2.0, -2.0):
        points += [(0.3, e1k * (1 + d), 0.5, e1k) if d < 0 else (0.3, e1k + d * atol, 0.5, e1k)]
        points += [(0.3 + d * (atol if d > 0 else 0.3), 0j, 0.5, 0j)]
        points += [(0.3, 0j, 0.5 + d * (atol if d > 0 else 0.5), 0j)]
    x11, x1k, xkk, e1k = arrays(points)
    n = len(x11)
    spec = (np.ones(n), (np.full(n, 0.3), e1k, np.full(n, 0.5)))
    forward = maxent._expectations(spec)
    # The largest deviation of the three values, taken on Python floats.
    dev = np.array([
        max(abs(f - x) for f, x in zip(fs, xs)) for fs, xs in zip(
            zip(*(v.tolist() for v in forward)), zip(x11.tolist(), x1k.tolist(), xkk.tolist())
        )
    ])
    past = dev > atol
    assert past.any() and not past.all()
    assert not (past & ~maxent._deviation_suspects(forward, x11, x1k, xkk)).any()

    def one(i):
        keep = slice(i, i + 1)
        maxent._check_reproduction(
            (spec[0][keep], tuple(v[keep] for v in spec[1])), x11[keep], x1k[keep], xkk[keep]
        )

    # Each point alone fails the check exactly when its deviation passes
    # the tolerance, and all of them at once fail it as the first one.
    for i in range(n):
        message = f"solver failed to reproduce the record (deviation {dev[i]:.3e})"
        assert raised(lambda: one(i)) == ((TomographyError, message) if past[i] else None)
    assert raised(lambda: maxent._check_reproduction(spec, x11, x1k, xkk)) == (
        first_error(one, n)
    )


def test_projection_bits_are_pinned():
    # Populations and coherences at and past each bound, signed zeros, a
    # subnormal and parts near the root of the float range, in every
    # combination. Only arithmetic, np.sqrt and np.hypot act, so the bits
    # do not depend on the CPU. Feasible values pass unchanged, signs of
    # zeros included.
    populations = (0.0, -0.0, 1e-310, 0.3, 0.5, 1.0 - 1e-12, 1.0, 1.2)
    x11, x1k, xkk = arrays([(a, c, b) for a in populations for b in populations for c in (
        0j, complex(-0.25, -0.0), 0.6 + 0.8j, 1.5 + 0j, 0.8 + 0.8j, complex(-1e-160, 1e-160),
        3.0 - 4.0j, complex(1e154, 1e154),
    )])
    projected = maxent._project(x11, x1k, xkk, maxent._modulus(x1k))
    digest = hashlib.sha256(b"".join(v.tobytes() for v in projected)).hexdigest()
    assert digest == "a205a063dd7bfa30be196d79668e3ec748eccf4b78ce8fb7b9d2b3fc8653201c"
    modulus = np.minimum(abs(x1k), 2.0)
    feasible = (x11 >= 0) & (xkk >= 0) & (x11 + xkk <= 1) & (modulus * modulus <= x11 * xkk)
    assert feasible.sum() > 20
    for got, given in zip(projected, (x11, x1k, xkk)):
        assert got[feasible].tobytes() == given[feasible].tobytes()


def test_near_singular_at_its_bounds():
    # Z w- equal to the log floor is floored, and one ulp of xKK more is
    # not: with x1K = 0 and x11 = 1/2, w- is xKK. A minor eigenvalue of
    # exactly 8 ulps of the larger, 2^-50 against 1/2, counts as zero and
    # one of 2^-49 does not; with N = 2^20, Z w- is far above the floor.
    tie = float.fromhex("0x1.19799812de065p-42")
    for dim_n, xkk, near in (
        (4, tie, True), (4, float(np.nextafter(tie, 1.0)), False),
        (2**20, 2.0**-50, True), (2**20, 2.0**-49, False),
    ):
        record = maxent.MeasurementRecord(dim_n, 2, 0.5, 0.0, xkk)
        assert maxent.solve_lagrange(record).near_singular is near


def test_non_finite_multipliers_raise_the_multiplier_check():
    # A NaN coherence, past the record checks, makes every multiplier NaN.
    nan_record = (np.array([0.3]), np.array([complex(math.nan, 0.0)]), np.array([0.2]))
    assert raised(lambda: maxent._solve(4, *nan_record)) == (
        ValidationError, "lam_11 = nan is not finite"
    )


def test_negative_minor_eigenvalue_at_the_slack():
    # With x11 = xKK = a and x1K = c, w- = det / w+ is exactly
    # -_RECORD_ATOL, within the slack; one ulp more of c is not.
    a, c = (float.fromhex(v) for v in ("0x1.73a56a10ff07dp-27", "0x1.960181e14cb50p-27"))
    assert maxent.solve_lagrange(maxent.MeasurementRecord(4, 2, a, c, a)).near_singular
    past = maxent.MeasurementRecord(4, 2, a, float(np.nextafter(c, 1.0)), a)
    assert raised(lambda: maxent.solve_lagrange(past)) == (
        InfeasibleRecordError, "constraint minor has negative eigenvalue -1.000e-09"
    )
