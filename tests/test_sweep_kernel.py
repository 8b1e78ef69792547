"""The array kernels compute their formulas to rounding, point by point.

``maxent._complete_and_solve``, ``_exponent_spectrum``,
``_predict_population`` and ``_block_fidelity`` take one array element per
point. Each stage of each element must lie within a few units of
rounding of the same formula in 60-digit arithmetic (the ``mp_`` kernels
of ``conftest``), taken on that stage's float inputs, whatever the other
points of the call. The bounds are in units of the float epsilon, scaled
by each quantity's size and its condition (see ``BOUNDS``). A call with
failing points must report the first failing point's error with the type
and message of the scalar reference in ``conftest``. The inputs reach
every branch of the completion, the solve and the forward map, one point
per call and mixed in one call.

A sweep measures every point before it solves any, so its errors are
ordered as the scalar loop ordered them: a point's case A before its case
B, and a solve error before the error of any later point's measurement.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from conftest import (
    EPS,
    MP_DPS,
    TINY,
    check_forward,
    error,
    mp_block_fidelity,
    mp_forward,
    mp_predict,
    mp_project,
    mp_rescale,
    mp_solve,
    reference_check_reproduction,
    reference_complete_and_solve,
    reference_project,
    reference_saturation_scale,
    reference_solve,
    reference_spectrum,
    within,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaxent import cli, maxent
from qmaxent.cli import ExperimentConfig, run_sweep
from qmaxent.errors import (
    DomainError,
    InfeasibleRecordError,
    ParseError,
    TomographyError,
    ValidationError,
)
from qmaxent.linalg import POLICY
from qmaxent.maxent import MeasurementRecord, heatmap_scan, solve_lagrange, solve_record

# The product of two values below this underflows.
UNDERFLOW = math.sqrt(sys.float_info.min)


def check_record(name, got, want):
    """Record values (x11, x1K, xKK), against the largest of them, or
    against UNDERFLOW when that is larger."""
    norm = max(*(abs(v) for v in want), UNDERFLOW)
    within(name, *(error(g, w, norm) for g, w in zip(got, want)))


def check_solve(dim_n, record, lams, near_singular):
    """Multipliers from the float record values, against the largest
    multiplier plus the solve's condition."""
    want, condition = mp_solve(dim_n, *record, near_singular)
    scale = 1 + max(abs(w) for w in want) + condition
    within("lam", *(error(g, w, scale) for g, w in zip(lams, want)))


def outcome(call):
    """A reference call's value, or its error's type and message."""
    try:
        return call()
    except TomographyError as exc:
        return type(exc), str(exc)


def error_of(failure):
    return None if failure is None else (type(failure[1]), str(failure[1]))


def points(records):
    """(x11, x1k, xkk) arrays of (x11, x1k, xkk) triples."""
    x11, x1k, xkk = zip(*records)
    return (
        np.array(x11, dtype=float), np.array(x1k, dtype=complex),
        np.array(xkk, dtype=float),
    )


def at(arrays, i):
    return [v[i].item() for v in arrays]


def check_complete_and_solve(dim_n, records):
    """One kernel call over ``records``, stage by stage against mpmath on
    each point the reference solves, and its first failure against the
    reference's."""
    completed, lams, near_singular, spec, failure = maxent._complete_and_solve(
        dim_n, *points(records)
    )
    rescaled, _ = maxent._rescale(*completed)
    first = None
    for i, (x11, x1k, xkk) in enumerate(records):
        want = outcome(lambda: reference_complete_and_solve(dim_n, x11, x1k, xkk))
        if isinstance(want[0], type):
            first = first or (i, *want)
            continue
        check_record("project", at(completed, i), mp_project(x11, x1k, xkk))
        check_record("rescale", at(rescaled, i), mp_rescale(*at(completed, i)))
        check_solve(dim_n, at(rescaled, i), at(lams, i), near_singular[i].item())
        check_forward(dim_n, at(lams, i), spec[0][i].item(), at(spec[1], i))
    assert (failure and (failure[0], *error_of(failure))) == first


def check_sweep_kernels(dim_n, records):
    """The prediction and the fidelity of one sweep's kernel calls against
    mpmath, on the points a sweep solves: x11 above the floor, measured
    values valid."""
    solved = [
        r for r in records
        if r[0] > POLICY.population_floor and maxent._raised(
            maxent._check_record_values, r[0], r[1], None
        ) is None
    ]
    if not solved:
        return
    x11, x1k, xkk_true = points(solved)
    predicted = maxent._predict_population(x11, x1k)[0]
    _, lams_a, _, (z_a, block_a), failure_a = maxent._complete_and_solve(
        dim_n, x11, x1k, predicted
    )
    _, lams_b, _, (z_b, block_b), failure_b = maxent._complete_and_solve(
        dim_n, x11, x1k, xkk_true
    )
    assert failure_a is None and failure_b is None
    fid, failure = maxent._block_fidelity(dim_n, lams_a, z_a, block_a, lams_b, z_b, block_b)
    assert failure is None
    for i, (x11_i, x1k_i, _) in enumerate(solved):
        want = mp_predict(x11_i, x1k_i)
        within("prediction", error(predicted[i].item(), want, max(abs(want), EPS)))
        want = mp_block_fidelity(dim_n, at(lams_a, i), at(lams_b, i))
        within("fidelity", error(fid[i].item(), want, 1.0))


# One record per branch of the completion, the solve and the forward
# map, as raw (x11, x1K, xKK) estimates; ``test_each_case_reaches_its_branch``
# shows that each reaches its branch.
BRANCH_CASES = {
    "coherence above 1": (0.5, 1.2 - 0.3j, 0.4),
    "populations above 1": (0.7, 0.1 + 0.1j, 0.6),
    "populations clipped": (-0.01, 0.05j, 1.02),
    "psd shrink": (0.3, 0.5 + 0.2j, 0.2),
    "zero coherence": (0.3, complex(0.0, 0.0), 0.2),
    "negative zero coherence": (0.3, complex(-0.0, -0.0), 0.6),
    "saturated rank one": (0.36, 0.48 - 0.0j, 0.64),
    "saturated full rank": (0.5, 0.1 + 0.2j, 0.5 - 1e-13),
    "rank-one floor": (0.28, math.sqrt(0.28 * 0.21) + 0j, 0.21),
    "near singular": (0.3, math.sqrt(0.3 * 0.2 - 1e-14) * 1j, 0.2),
    "tiny lam_1k": (0.3, 1e-20 + 1e-20j, 0.2),
    "lam_11 above lam_kk": (0.2, 0.1 - 0.05j, 0.5),
    "lam_11 below lam_kk": (0.5, -0.1 + 0.05j, 0.2),
    "equal populations": (0.3, 0.1 + 0.0j, 0.3),
    "scalar block": (0.3, 0j, 0.3),
}


def rescaled_reference(x11, x1k, xkk):
    x11, x1k, xkk = reference_project(x11, x1k, xkk)
    c = reference_saturation_scale(x11, xkk)
    return (c * x11, c * x1k, c * xkk) if c != 1.0 else (x11, x1k, xkk)


def test_each_case_reaches_its_branch():
    case = BRANCH_CASES
    assert abs(case["coherence above 1"][1]) > 1
    x11, _, xkk = case["populations above 1"]
    assert x11 + xkk > 1
    x11, _, xkk = case["populations clipped"]
    assert x11 < 0 and xkk > 1
    x11, x1k, xkk = case["psd shrink"]
    assert abs(x1k) ** 2 > x11 * xkk and x11 + xkk < 1
    assert case["zero coherence"][1] == 0 == case["negative zero coherence"][1]
    for name in ("saturated rank one", "saturated full rank"):
        x11, _, xkk = reference_project(*case[name])
        assert reference_saturation_scale(x11, xkk) != 1.0, name
    # The rank-one floor: the smaller eigenvalue of the minor is positive
    # rounding of zero, set to 0 before the scaling by Z. Near singular
    # without that floor: Z w- is below the log floor but not rounding.
    for name, rounding in (("rank-one floor", True), ("near singular", False)):
        x11, x1k, xkk = rescaled_reference(*case[name])
        w_hi = 0.5 * (x11 + xkk) + math.hypot(0.5 * (x11 - xkk), abs(x1k))
        w_lo = (x11 * xkk - (x1k.real ** 2 + x1k.imag ** 2)) / w_hi
        assert w_lo > 0 and (w_lo <= 8 * 2.0**-52 * w_hi) is rounding, name
    solved = {
        name: reference_complete_and_solve(4, *values) for name, values in case.items()
    }
    assert solved["rank-one floor"][2] and solved["near singular"][2]
    assert not solved["lam_11 above lam_kk"][2]

    # The forward map of the solved multipliers: (1,1) is the smaller
    # diagonal entry when h >= 0, s comes from expm1 while 2r < 1 and
    # from hi - lo beyond, and r = 0 is a multiple of the identity.
    def forward_branch(name):
        l11, l1k, lkk = solved[name][1]
        h = 0.5 * (l11 - lkk)
        return h, abs(l1k), math.hypot(h, abs(l1k))

    h, c, r = forward_branch("tiny lam_1k")
    assert h < 0 and 0 < c <= 1e-14 and 2 * r < 1
    h, c, r = forward_branch("negative zero coherence")
    assert h > 0 and c == 0 and 2 * r < 1
    for name, sign in (("lam_11 above lam_kk", 1), ("lam_11 below lam_kk", -1)):
        h, c, r = forward_branch(name)
        assert h * sign > 0 and c > 0 and 2 * r >= 1, name
    h, c, r = forward_branch("equal populations")
    assert h == 0 and 0 < 2 * r < 1
    assert forward_branch("scalar block")[2] == 0


@pytest.mark.parametrize("dim_n", [4, 8, 16])
def test_every_branch_alone_and_in_one_call(dim_n):
    cases = list(BRANCH_CASES.values())
    for record in cases:
        check_complete_and_solve(dim_n, [record])
    check_complete_and_solve(dim_n, cases)
    check_complete_and_solve(dim_n, cases[::-1])
    check_sweep_kernels(dim_n, cases)


# Raw estimates at and past every edge of the feasible set, with
# coherences down to subnormal, and the branch cases.
POPULATIONS = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(-0.05, 1.05),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-12, 1.0, -1e-9, 1 + 1e-12]),
)


@st.composite
def raw_estimates(draw):
    x11 = draw(POPULATIONS)
    if draw(st.booleans()):
        xkk = 1.0 - x11 + draw(st.sampled_from([0.0, 1e-13, -1e-13, 1e-10, -1e-16]))
    else:
        xkk = draw(POPULATIONS)
    edge = math.sqrt(max(x11 * xkk, 0.0))
    modulus = draw(st.one_of(
        st.floats(0.0, 1.5),
        st.sampled_from([edge, edge * (1 + 1e-16), edge * (1 - 1e-14), edge * (1 + 1e-9)]),
        st.sampled_from([0.0, 1e-300, 1e-20, 1e-16]),
    ))
    phase = draw(st.floats(0.0, 2 * math.pi))
    x1k = draw(st.sampled_from([
        complex(modulus * math.cos(phase), modulus * math.sin(phase)),
        complex(modulus, 0.0), complex(-modulus, -0.0), complex(-0.0, modulus),
    ]))
    return x11, x1k, xkk


RECORDS = st.one_of(raw_estimates(), st.sampled_from(list(BRANCH_CASES.values())))


@settings(max_examples=250)
@given(st.sampled_from([4, 8, 16]), RECORDS)
def test_one_point_matches_mpmath(dim_n, record):
    check_complete_and_solve(dim_n, [record])
    check_sweep_kernels(dim_n, [record])


@settings(max_examples=100)
@given(st.sampled_from([4, 8]), st.lists(RECORDS, min_size=2, max_size=12))
def test_mixed_calls_match_mpmath(dim_n, records):
    check_complete_and_solve(dim_n, records)
    check_sweep_kernels(dim_n, records)


def random_estimates(rng, size):
    """Raw estimates spread over the interior and the edges of the
    feasible set, where ulp-level differences of the arithmetic show."""
    x11 = rng.uniform(-0.02, 1.02, size)
    xkk = np.where(rng.random(size) < 0.3, 1.0 - x11, rng.uniform(-0.02, 1.02, size))
    edge = np.sqrt(np.clip(x11 * xkk, 0.0, None))
    modulus = np.where(
        rng.random(size) < 0.3, edge, edge * rng.uniform(0.0, 1.1, size) + 0.01 * rng.random(size)
    )
    phase = rng.uniform(0.0, 2 * np.pi, size)
    x1k = modulus * np.cos(phase) + 1j * (modulus * np.sin(phase))
    return list(zip(x11.tolist(), x1k.tolist(), xkk.tolist()))


@pytest.mark.parametrize("dim_n", [4, 16])
def test_random_records_in_one_call(dim_n):
    records = random_estimates(np.random.default_rng(dim_n), 2000)
    check_complete_and_solve(dim_n, records)
    check_sweep_kernels(dim_n, records)


MULTIPLIERS = st.one_of(
    st.floats(-40.0, 40.0),
    st.sampled_from([0.0, -0.0, 1e-15, -1e-300, 700.0, -705.0, -710.0, 1e200]),
)


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(
            MULTIPLIERS,
            st.one_of(
                st.builds(complex, MULTIPLIERS, MULTIPLIERS),
                st.sampled_from([0j, complex(-0.0, 0.0), 1e-15 + 0j, complex(0.0, -1e-300)]),
            ),
            MULTIPLIERS,
        ),
        min_size=1, max_size=10,
    )
)
def test_forward_kernel_matches_mpmath(lams):
    spec, failure = maxent._exponent_spectrum(8, *points(lams))
    first = None
    for i, values in enumerate(lams):
        want = outcome(lambda: reference_spectrum(8, *values))
        if isinstance(want[0], type):
            first = first or (i, *want)
            continue
        check_forward(8, values, spec[0][i].item(), at(spec[1], i))
    assert (failure and (failure[0], *error_of(failure))) == first


@pytest.mark.parametrize(("im_lam1k", "lam_kk"), [(0.0, 0.0), (-0.0, 1.5), (0.7, -2.0)])
def test_heatmap_rows_match_mpmath(im_lam1k, lam_kk):
    lam11 = [-3.0, -0.0, 0.0, 1e-15, 0.35, 2.9, 40.0]
    re1k = [-3.0, -1e-16, -0.0, 0.0, 1e-300, 0.61, 3.0]
    rows = heatmap_scan(lam11, re1k, lam_kk=lam_kk, im_lam1k=im_lam1k, dim_n=8, index_k=3)
    grid = [(l11, complex(re, im_lam1k)) for l11 in lam11 for re in re1k]
    # The multipliers come back as given, signed zeros included.
    assert [repr(row[:2]) for row in rows] == [repr(point) for point in grid]
    for (l11, l1k, x11, x1k) in rows:
        with mpmath.workdps(MP_DPS):
            z, (e11, e1k, _) = mp_forward(8, l11, l1k, lam_kk)
            want = (e11 / z, e1k / z)
        g = 1 + max(abs(l11), abs(l1k), abs(lam_kk))
        within("expectation", *(
            error(got, w, g * max(abs(w), TINY)) for got, w in zip((x11, x1k), want)
        ))


def reference_error(call):
    """The type and message of the error ``call`` raises."""
    with pytest.raises(TomographyError) as caught:
        call()
    return type(caught.value), str(caught.value)


class TestErrorOrder:
    """A call with two failing points reports the first one, with the
    reference's error; a later point's earlier step does not come first."""

    def test_a_saturated_sum(self):
        records = [(0.3, 0.1j, 0.2), (0.5, 0.1 + 0j, 0.5), (0.4, 0.0j, 0.6 + 1e-10)]
        failure = maxent._solve(4, *points(records))[-1]
        assert failure[0] == 1
        want = reference_error(lambda: reference_solve(4, *records[1]))
        assert want[0] is InfeasibleRecordError
        assert error_of(failure) == want

    def test_a_negative_minor_eigenvalue(self):
        # Two minors whose determinant is below -1e-9, then a saturated sum:
        # the first point's eigenvalue error comes first.
        records = [
            (0.3, 0.1j, 0.2), (0.1, 0.10000001 + 0j, 0.1), (0.1, 0.10000002j, 0.1),
            (0.5, 0j, 0.5),
        ]
        failure = maxent._solve(4, *points(records))[-1]
        assert failure[0] == 1
        want = reference_error(lambda: reference_solve(4, *records[1]))
        assert want[0] is InfeasibleRecordError
        assert want[1].startswith("constraint minor has negative eigenvalue -1.0")
        assert error_of(failure) == want

    def test_a_nan_estimate(self):
        records = [(0.3, 0.1j, 0.2), (0.3, complex(math.nan, 0.0), 0.2), (math.inf, 0j, 0.2)]
        failure = maxent._complete_and_solve(4, *points(records))[-1]
        assert failure[0] == 1
        want = reference_error(lambda: reference_complete_and_solve(4, *records[1]))
        assert want == (ValidationError, "x_1k = (nan+0j) is not finite")
        assert error_of(failure) == want

    def test_an_overflow_through_the_heatmap(self):
        want = reference_error(lambda: reference_spectrum(4, -800.0, 0j, 0.0))
        assert want[0] is DomainError
        with pytest.raises(DomainError) as caught:
            heatmap_scan([0.0, -800.0, -900.0], [0.0, 0.5], lam_kk=0.0)
        assert str(caught.value) == want[1]
        assert "lam_11 = -800.0, lam_1k = 0j, lam_kk = 0.0" in want[1]

    def test_a_rejected_multiplier_before_a_later_overflow(self):
        with pytest.raises(ValidationError, match=r"^lam_11 = nan is not finite$"):
            heatmap_scan([0.0, math.nan, -800.0], [0.0])
        with pytest.raises(DomainError, match="lam_11 = -800.0"):
            heatmap_scan([0.0, -800.0, math.nan], [0.0])

    def test_a_failed_reproduction(self, monkeypatch):
        # A forward kernel that is off by 0.1 in lam_11 from the second
        # point on: the second point fails, with the reference's message.
        compute = maxent._exponent_spectrum

        def off(n, l11, l1k, lkk):
            return compute(n, l11 + np.where(np.arange(l11.size) >= 1, 0.1, 0.0), l1k, lkk)

        monkeypatch.setattr(maxent, "_exponent_spectrum", off)
        records = [(0.3, 0.1j, 0.2), (0.4, 0.2 - 0.1j, 0.3), (0.2, 0.05 + 0j, 0.2)]
        failure = maxent._solve(8, *points(records))[-1]
        assert failure[0] == 1
        lams = reference_solve(8, *records[1])[0]
        shifted = reference_spectrum(8, lams[0] + 0.1, lams[1], lams[2])
        want = reference_error(lambda: reference_check_reproduction(shifted, *records[1]))
        assert want[0] is TomographyError and "failed to reproduce" in want[1]
        assert error_of(failure) == want

    def test_the_public_wrappers_raise_the_reference_errors(self):
        with pytest.raises(InfeasibleRecordError) as caught:
            solve_lagrange(MeasurementRecord(4, 2, 0.5, 0.1, 0.5))
        assert (type(caught.value), str(caught.value)) == reference_error(
            lambda: reference_solve(4, 0.5, 0.1 + 0j, 0.5)
        )
        with pytest.raises(ValidationError) as caught:
            solve_record(MeasurementRecord(4, 2, 0.3, 0.1), math.inf)
        assert str(caught.value) == "x_kk = inf is not finite"


class TestSweepErrorOrder:
    def test_a_solve_error_before_a_later_measurement_error(self, tmp_path, monkeypatch):
        circuit = tmp_path / "overflow.qc"
        circuit.write_text("qubits 2\nrx(theta*1e308) 0\n")
        cfg = ExperimentConfig(
            str(circuit), theta_start=0.0, theta_stop=2.0, theta_steps=3, k_targets=(2,)
        )
        # Unpatched, the last angle, 2e308, overflows while measuring.
        with pytest.raises(ParseError, match="overflows"):
            run_sweep(cfg)
        compute = maxent._exponent_spectrum

        # Point 0 is |00>, rescaled off x11 = 1, where the forward map is
        # flat; a shift of 50 in lam_11 moves x11 by far more than 1e-6.
        def off_at_point_0(n, l11, l1k, lkk):
            return compute(n, l11 + np.where(np.arange(l11.size) == 0, 50.0, 0.0), l1k, lkk)

        monkeypatch.setattr(maxent, "_exponent_spectrum", off_at_point_0)
        with pytest.raises(TomographyError, match="failed to reproduce"):
            run_sweep(cfg)

    @pytest.mark.parametrize(
        ("a_at", "b_at", "raised"), [(1, 0, "case B at 0"), (0, 0, "case A at 0"), (0, 1, "case A at 0")]
    )
    def test_case_a_before_case_b_before_the_next_point(self, monkeypatch, a_at, b_at, raised):
        # One completion call solves both cases, point first: point i's
        # case A is row 2i and its case B row 2i + 1, and the call reports
        # its earliest failing row.
        solve = cli._complete_and_solve

        def failing(*args):
            *values, _ = solve(*args)
            return (*values, min(
                (2 * a_at, TomographyError(f"case A at {a_at}")),
                (2 * b_at + 1, TomographyError(f"case B at {b_at}")),
                key=lambda failure: failure[0],
            ))

        monkeypatch.setattr(cli, "_complete_and_solve", failing)
        with pytest.raises(TomographyError, match=f"^{raised}$"):
            run_sweep(ExperimentConfig("twoq_a", theta_steps=3))

    @pytest.mark.parametrize(
        ("b_at", "fidelity_at", "raised"),
        [(1, 0, "fidelity at 0"), (0, 0, "case B at 0"), (0, 1, "case B at 0")],
    )
    def test_a_fidelity_error_in_point_order(self, monkeypatch, b_at, fidelity_at, raised):
        # A point's fidelity comes after its case B, before the next point.
        solve, fidelity = cli._complete_and_solve, cli._block_fidelity

        def failing_solve(*args):
            # Point b_at's case B is row 2 b_at + 1 of the one call.
            *values, _ = solve(*args)
            return (*values, (2 * b_at + 1, TomographyError(f"case B at {b_at}")))

        def failing_fidelity(*args):
            value, _ = fidelity(*args)
            return value, (fidelity_at, DomainError(f"fidelity at {fidelity_at}"))

        monkeypatch.setattr(cli, "_complete_and_solve", failing_solve)
        monkeypatch.setattr(cli, "_block_fidelity", failing_fidelity)
        with pytest.raises(TomographyError, match=f"^{raised}$"):
            run_sweep(ExperimentConfig("twoq_a", theta_steps=3))
