"""The array kernels of ``maxent`` take each modulus once, run each branch
on its own points and screen on squared moduli; the ``hypot_`` kernels
of ``conftest`` take every modulus afresh with np.hypot, screen on
moduli and compute both branches of every np.where on every point.
Every call here must give the same bits, or raise an error of the same
type and message, on hypothesis records and on fixed edge sets:
NaN and infinite parts, subnormal couplings, |x1K| > 1, x11 + xKK past
1 and within 1e-12 of it, rank-one minors, and multipliers from 1e154 to
1e300. Each squared screen must also mark every point its hypot screen
marks, on points a few ulps either side of each bound.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    hypot_check_records,
    hypot_check_reproduction,
    hypot_complete_and_solve,
    hypot_deviation_suspects,
    hypot_exponent_spectrum,
    hypot_predict_population,
    hypot_project,
    hypot_record_suspects,
    hypot_rescale,
    hypot_solve,
)
from qmaxent import TomographyError, maxent

INF, NAN = math.inf, math.nan
TINY = 5e-324
EDGES = (
    0.0, -0.0, TINY, -TINY, 1e-310, 2.2250738585072014e-308, 1e-160, 1e-154, 1e-12,
    0.25, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-9, 1.5, -0.5, 1e154, 1e300, -1e300, INF, -INF, NAN,
)
HUGE = (1e154, -1e154, 1.4e154, 1e200, -1e200, 1e300, -1e300, 1.7e308)


def bits(value):
    """A value's dtype, shape and bytes, or each part's, for a tuple."""
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if value is None:
        return None
    value = np.asarray(value)
    return value.dtype.str, value.shape, value.tobytes()


def outcome(call):
    """Whether ``call()`` passes, with the bits of its value or its
    error's type and message."""
    try:
        return True, bits(call())
    except TomographyError as exc:
        return False, type(exc), str(exc)


def same(got, want):
    """The calls ``got`` and ``want`` give the same bits, or raise the
    same error."""
    assert outcome(got) == outcome(want)


def same_each_point(kernel, reference, *arrays):
    """``kernel`` against ``reference`` on ``arrays``, one per argument
    (None is passed as it is): each point alone gives the same bits or
    the same error; one call over the points that pass alone gives the
    same bits; and one call over all of them gives the same bits or the
    same error. Returns the indices of the points that pass alone."""
    def take(keep):
        return [a if a is None else a[keep] for a in arrays]

    passing = []
    for i in range(len(arrays[0])):
        one = take(slice(i, i + 1))
        got = outcome(lambda: kernel(*one))
        assert got == outcome(lambda: reference(*one))
        if got[0]:
            passing.append(i)
    passing = np.array(passing, int)
    kept = take(passing)
    assert bits(kernel(*kept)) == bits(reference(*kept))
    same(lambda: kernel(*arrays), lambda: reference(*arrays))
    return passing


def columns(records):
    x11, re, im, xkk = (np.array(v, float) for v in zip(*records))
    x1k = np.empty(len(records), complex)
    x1k.real, x1k.imag = re, im
    return x11, x1k, xkk


def check_records(records):
    """Every record kernel on ``records``, (x11, Re x1K, Im x1K, xKK)
    tuples, against its hypot reference, point by point and in one call."""
    x11, x1k, xkk = columns(records)
    modulus = maxent._modulus(x1k)
    assert bits(modulus) == bits(np.hypot(x1k.real, x1k.imag))
    for kkk in (None, xkk):
        want = hypot_record_suspects(x11, x1k, kkk)
        assert not (want & ~maxent._record_suspects(x11, x1k, kkk)).any()
        same_each_point(maxent._check_records, hypot_check_records, x11, x1k, kkk)
    same_each_point(
        lambda x11, x1k, xkk: maxent._project(x11, x1k, xkk, maxent._modulus(x1k)),
        hypot_project, x11, x1k, xkk,
    )
    assert bits(maxent._predict_population(x11, modulus)) == (
        bits(hypot_predict_population(x11, x1k))
    )
    assert bits(maxent._rescale(x11, x1k, xkk)) == bits(hypot_rescale(x11, x1k, xkk))
    for dim_n in (4, 8):
        same_each_point(
            lambda *x: maxent._solve(dim_n, *x), lambda *x: hypot_solve(dim_n, *x), x11, x1k, xkk
        )
        same_each_point(
            lambda x11, x1k, xkk: maxent._complete_and_solve(
                dim_n, x11, x1k, xkk, maxent._modulus(x1k)
            ),
            lambda *x: hypot_complete_and_solve(dim_n, *x), x11, x1k, xkk,
        )


def check_multipliers(lams):
    """The forward kernel on ``lams``, (lam11, Re lam1K, Im lam1K, lamKK)
    tuples, point by point and in one call, and the reproduction check on
    the forward values of those whose exp(A) stays in the float range."""
    l11, l1k, lkk = columns(lams)
    for dim_n in (4, 8):
        kept = same_each_point(
            lambda *l: maxent._exponent_spectrum(dim_n, *l),
            lambda *l: hypot_exponent_spectrum(dim_n, *l), l11, l1k, lkk,
        )
        spec = maxent._exponent_spectrum(dim_n, l11[kept], l1k[kept], lkk[kept])
        forward = maxent._expectations(spec)
        assert not (hypot_record_suspects(*forward) & ~maxent._record_suspects(*forward)).any()
        # The forward values themselves, and moved by about the tolerance.
        for shift in ((0.0, 0j, 0.0), (1e-6, 0j, 0.0), (0.0, 1e-6 * (0.6 + 0.8j), -2e-6)):
            check_reproduction(spec, *(v + d for v, d in zip(forward, shift)))


def check_reproduction(spec, x11, x1k, xkk):
    forward = maxent._expectations(spec)
    want, _ = hypot_deviation_suspects(forward, x11, x1k, xkk)
    assert not (want & ~maxent._deviation_suspects(forward, x11, x1k, xkk)).any()
    same(
        lambda: maxent._check_reproduction(spec, x11, x1k, xkk),
        lambda: hypot_check_reproduction(spec, x11, x1k, xkk),
    )


def ulps_around(value, count=4):
    """``value`` and the ``count`` floats on either side of it."""
    out, up, down = [value], value, value
    for _ in range(count):
        up, down = np.nextafter(up, INF), np.nextafter(down, -INF)
        out += [float(up), float(down)]
    return out


PARTS = st.one_of(
    st.sampled_from(EDGES),
    st.floats(0.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(allow_nan=True, allow_infinity=True),
)
RECORD = st.tuples(PARTS, PARTS, PARTS, PARTS)


@st.composite
def rank_one(draw):
    """A pure-state record, x11 + xKK = 1 and |x1K|^2 = x11 xKK, or one
    moved off that boundary by less than 1e-12."""
    x11 = draw(st.floats(1e-12, 1.0))
    xkk = (1.0 - x11) - draw(st.sampled_from((0.0, 0.0, 1e-13, 5e-13, -1e-13)))
    phase = draw(st.floats(0.0, 2 * math.pi))
    size = math.sqrt(abs(x11 * xkk))
    return x11, size * math.cos(phase), size * math.sin(phase), xkk


@st.composite
def interior(draw):
    """A record well inside the feasible set, or a projection's input
    just past its bounds."""
    x11 = draw(st.floats(0.0, 1.0))
    xkk = draw(st.floats(0.0, 1.0)) * (1.0 - x11) * draw(st.sampled_from((1.0, 1.0, 1.2)))
    size = math.sqrt(x11 * xkk) * draw(st.floats(0.0, 1.1))
    phase = draw(st.floats(0.0, 2 * math.pi))
    return x11, size * math.cos(phase), size * math.sin(phase), xkk


MULTIPLIER = st.one_of(st.sampled_from(EDGES + HUGE), st.floats(-40.0, 40.0))


@given(st.lists(st.one_of(RECORD, rank_one(), interior()), min_size=1, max_size=12))
def test_hypothesis_records(records):
    check_records(records)


@given(st.lists(st.tuples(*[MULTIPLIER] * 4), min_size=1, max_size=12))
def test_hypothesis_multipliers(lams):
    check_multipliers(lams)


def test_non_finite_and_huge_parts():
    records = [
        (x11, re, im, xkk)
        for x11 in (0.4, NAN, INF, -INF)
        for re, im in ((0.1, 0.2), (NAN, 0.0), (0.0, INF), (-INF, NAN), (1e300, 1e300))
        for xkk in (0.3, NAN, -INF)
    ]
    check_records(records)
    check_records(records[::-1])


def test_subnormal_couplings():
    records = [
        (x11, re, im, xkk)
        for x11, xkk in ((0.5, 0.5), (0.3, 0.2), (1e-12, 1 - 1e-12), (0.0, 0.0), (TINY, TINY))
        for re, im in ((TINY, 0.0), (0.0, -TINY), (1e-310, 1e-310), (-1e-160, 1e-160), (-0.0, 0.0))
    ]
    check_records(records)
    check_multipliers(records)


def test_coherence_past_one():
    check_records([
        (0.5, re, im, xkk)
        for re, im in ((1.5, 0.0), (0.8, 0.8), (1.0 + 1e-9, 0.0), (0.0, -1.0 - 2e-9), (1e154, 1e154))
        for xkk in (0.2, 0.5)
    ])


def test_populations_past_one_and_near_it():
    check_records([
        (x11, 0.1, -0.2, 1.0 - x11 + gap)
        for x11 in (0.3, 0.5, 0.99)
        for gap in (-2e-12, -1e-12, -5e-13, -1e-16, 0.0, 1e-16, 5e-13, 1e-12, 0.1)
    ])


def test_rank_one_minors():
    records = []
    for x11, xkk in ((0.5, 0.5), (0.3, 0.7), (0.3, 0.2), (1e-6, 0.9), (0.9999, 1e-4)):
        for phase in (0.0, 0.3, math.pi / 2, 2.0, math.pi):
            size = math.sqrt(x11 * xkk)
            records.append((x11, size * math.cos(phase), size * math.sin(phase), xkk))
    check_records(records)


@pytest.mark.parametrize("size", HUGE)
def test_huge_multipliers(size):
    check_multipliers([
        (size, 0.0, 0.0, 0.0), (0.0, size, 0.0, 0.0), (-size, size, -size, size),
        (size, size, size, -size), (1.0, size / 3, 0.0, 1.0), (-30.0, 0.0, 0.0, 30.0),
    ])


def test_squared_record_screen_marks_the_hypot_marks_at_its_bounds():
    # Moduli a few ulps either side of 1 + tol, and of the root of the
    # minor's bound x11 xKK + tol / 2, at several phases.
    tol = maxent._RECORD_ATOL
    records = []
    for x11, xkk in ((0.5, 0.5), (0.3, 0.2), (1e-9, 1e-9), (0.0, 0.7), (-tol / 2, 1.0)):
        roots = [1.0 + tol]
        if x11 * xkk + 0.5 * tol >= 0:
            roots.append(math.sqrt(x11 * xkk + 0.5 * tol))
        for root in roots:
            for size in ulps_around(root, 40):
                for phase in (0.0, 0.7, math.pi / 4, 2.5):
                    records.append((x11, size * math.cos(phase), size * math.sin(phase), xkk))
    x11, x1k, xkk = columns(records)
    for kkk in (None, xkk):
        want = hypot_record_suspects(x11, x1k, kkk)
        assert want.any() and not want.all()
        assert not (want & ~maxent._record_suspects(x11, x1k, kkk)).any()
    check_records(records)


def test_squared_deviation_screen_marks_the_hypot_marks_at_its_bound():
    # A spectrum with z = 1 has the forward values (0.3, 0, 0.5) exactly,
    # so each point's deviation is |x1K|, a few ulps either side of the
    # tolerance.
    x1k = np.array([
        size * cmath.exp(1j * phase)
        for size in ulps_around(1e-6, 40) for phase in (0.0, 0.7, math.pi / 4, 2.5)
    ])
    n = len(x1k)
    x11, xkk = np.full(n, 0.3), np.full(n, 0.5)
    spec = (np.ones(n), (x11, np.zeros(n, complex), xkk))
    want, _ = hypot_deviation_suspects(maxent._expectations(spec), x11, x1k, xkk)
    assert want.any() and not want.all()
    check_reproduction(spec, x11, x1k, xkk)
    # Each point alone: the one-point check decides it as the hypot
    # screen does.
    for i in range(n):
        one = slice(i, i + 1)
        check_reproduction(
            (spec[0][one], tuple(v[one] for v in spec[1])), x11[one], x1k[one], xkk[one]
        )
