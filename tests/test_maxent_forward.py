import math

import numpy as np
import pytest
import mpmath
from conftest import (
    EPS,
    MP_DPS,
    _mp_block,
    build_exponent,
    check_forward,
    matrix_exp_hermitian,
    mp_block_expm,
    taylor_expm,
)

from qmaxent import DomainError, ValidationError, maxent
from qmaxent.maxent import (
    LagrangeSet,
    MeasurementRecord,
    block_fidelity,
    density_from_lagrange,
    fidelity,
    heatmap_scan,
)


def brute_force_density(ls: LagrangeSet) -> np.ndarray:
    e = matrix_exp_hermitian(build_exponent(ls))
    return e / np.trace(e).real


def random_lagrange(rng, dim_n=None, complex_1k=True) -> LagrangeSet:
    if dim_n is None:
        dim_n = int(rng.choice([4, 8]))
    k = int(rng.integers(2, dim_n + 1))
    lam_1k = complex(rng.uniform(-3, 3), rng.uniform(-3, 3) if complex_1k else 0.0)
    return LagrangeSet(dim_n, k, rng.uniform(-3, 3), lam_1k, rng.uniform(-3, 3))


class TestTypes:
    def test_dim_must_be_power_of_two(self):
        with pytest.raises(ValidationError):
            LagrangeSet(6, 2, 0.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            LagrangeSet(2, 2, 0.0, 0.0, 0.0)

    def test_index_k_range(self):
        with pytest.raises(ValidationError):
            LagrangeSet(4, 1, 0.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            LagrangeSet(4, 5, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("name", ["lam_11", "lam_1k", "lam_kk"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_multiplier_named(self, name, bad):
        values = {"lam_11": 0.1, "lam_1k": 0.2, "lam_kk": 0.3, name: bad}
        with pytest.raises(ValidationError, match=f"{name} = .* not finite"):
            LagrangeSet(4, 2, **values)

    def test_record_invariants(self):
        with pytest.raises(ValidationError):
            MeasurementRecord(4, 2, 1.2, 0.0)
        with pytest.raises(ValidationError):
            MeasurementRecord(4, 2, 0.6, 0.0, 0.6)  # populations sum past 1
        with pytest.raises(ValidationError):
            MeasurementRecord(4, 2, 0.3, 0.4, 0.3)  # minor not PSD
        with pytest.raises(ValidationError):
            MeasurementRecord(4, 2, 0.3, 0.1, 0.3, source="guessed")


class TestBuildExponent:
    def test_zero_multipliers(self):
        a = build_exponent(LagrangeSet(4, 2, 0.0, 0.0, 0.0))
        np.testing.assert_array_equal(a, np.zeros((4, 4)))

    def test_block_embedding(self):
        a = build_exponent(LagrangeSet(4, 2, 1.0, 0.5, 0.0))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0], expected[0, 1], expected[1, 0] = -1.0, -0.5, -0.5
        np.testing.assert_array_equal(a, expected)

    def test_complex_coupling_hermitian(self):
        a = build_exponent(LagrangeSet(8, 3, 0.2, 0.1j, 0.4))
        nz = {(i, j) for i, j in zip(*np.nonzero(a))}
        assert nz == {(0, 0), (0, 2), (2, 0), (2, 2)}
        assert a[0, 2] == -0.1j
        assert a[2, 0] == 0.1j  # -(0.1j)* on the mirrored entry
        np.testing.assert_array_equal(a, a.conj().T)


def lams_of(ls: LagrangeSet):
    return ls.lam_11, ls.lam_1k, ls.lam_kk


def forward(dim_n, sets):
    """One call of the forward kernel over multiplier triples: z and the
    block (e11, e1k, ekk) of each, as arrays. No triple may overflow."""
    l11, l1k, lkk = (np.array(v) for v in zip(*sets))
    return maxent._exponent_spectrum(dim_n, l11, l1k.astype(complex), lkk)


def at(arrays, i):
    return tuple(v[i].item() for v in arrays)


# Multiplier sets whose coupling is 1e-14 down to 1e-20 of their scale,
# or subnormal.
TINY_COUPLING = [
    (3.0, 3e-14, -2.0),
    (0.3, 1e-20 + 1e-20j, 0.2),
    (-1.5, -2e-18j, -1.5),
    (40.0, 4e-19 - 1e-19j, -0.5),
    (-700.0, 1e-300, -699.0),
    (0.7, 5e-324j, -0.1),
    (1e-15, complex(1e-310, -1e-310), -1e-300),
]
# Two sets whose |lam_11 - lam_kk| squared passes the float range
# although exp(A) does not (z = 3 for both).
WIDE_SPLIT = [(1e200, 1.0, 0.0), (2e154, 0.5j, 0.0)]


def random_blocks(count):
    """Random multiplier sets with couplings from 1e-300 to 40."""
    rng = np.random.default_rng(5)
    return [
        (float(rng.uniform(-40, 40)),
         complex(10 ** rng.uniform(-300, 1.6) * np.exp(2j * np.pi * rng.random())),
         float(rng.uniform(-40, 40)))
        for _ in range(count)
    ]


# The sets on which the 60-digit reference is refereed: the tiny couplings
# and wide splits above, sets that lose a small multiplier beside a huge
# one when the eigenvalues are taken as m -+ r, and random blocks.
REFEREE_SETS = {
    "tiny coupling": TINY_COUPLING,
    "wide split": WIDE_SPLIT,
    "lost multiplier": [(-705.0, 0j, 1e200), (700.0, 1.0, -5.0), (-705.0, 1e-15, 40.0)],
    "random": random_blocks(200),
}


@pytest.mark.parametrize("group", REFEREE_SETS)
def test_the_mpmath_reference_is_mpmath_expm(group):
    # ``_mp_block`` shares the library's algebra, so ``mpmath.expm`` of the
    # block, which shares none of it, referees it entry by entry.
    with mpmath.workdps(MP_DPS):
        for lams in REFEREE_SETS[group]:
            for got, want in zip(_mp_block(*lams), mp_block_expm(*lams)):
                assert abs(got - want) <= 1e-50 * abs(want), lams


class TestSpectrum:
    """The closed-form exp(A) (z and the block) of the forward kernel,
    component by component against 60-digit mpmath (``check_forward``)."""

    def test_reference_values(self):
        z, block = forward(4, [(1.0, 0.5, 0.0)])
        assert z[0] == pytest.approx(3.52918, abs=5e-5)
        assert at(block, 0) == pytest.approx((0.435411, -0.329177 + 0j, 1.093764), abs=5e-6)
        check_forward(4, (1.0, 0.5, 0.0), z[0], at(block, 0))

    def test_matches_generic_eigendecomposition(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            ls = random_lagrange(rng)
            z, block = forward(ls.dim_n, [lams_of(ls)])
            e = matrix_exp_hermitian(build_exponent(ls))
            k = ls.index_k - 1
            np.testing.assert_allclose(at(block, 0), (e[0, 0], e[0, k], e[k, k]), rtol=1e-12)
            assert z[0] == pytest.approx(np.trace(e).real, rel=1e-12)
            check_forward(ls.dim_n, lams_of(ls), z[0], at(block, 0))

    def test_zero_and_vanishing_coupling(self):
        z, block = forward(4, [(0.0, 0.0, 0.0), (1.0, complex(-0.0, -0.0), -2.0)])
        assert z[0] == 4.0 and at(block, 0) == (1.0, 0j, 1.0)
        assert block[1][1] == 0 and block[0][1] == math.exp(-1.0)
        z, block = forward(8, TINY_COUPLING)
        for i, lams in enumerate(TINY_COUPLING):
            # The coherence is -s lam_1k, never 0 for a nonzero lam_1k.
            assert block[1][i] != 0
            check_forward(8, lams, z[i], at(block, i))

    def test_widely_split_multipliers_stay_in_range(self):
        z, block = forward(4, WIDE_SPLIT)
        for i, lams in enumerate(WIDE_SPLIT):
            assert z[i] == 3.0 and block[2][i] == 1.0
            check_forward(4, lams, z[i], at(block, i))
        assert density_from_lagrange(LagrangeSet(4, 2, *WIDE_SPLIT[0]))[1, 1].real == 1 / 3

    def test_unconstrained_states_add_unit_weight(self):
        four, eight = (forward(n, [(1.0, 0.5, 0.0)]) for n in (4, 8))
        assert at(eight[1], 0) == at(four[1], 0)
        assert eight[0][0] - four[0][0] == pytest.approx(4.0, abs=1e-12)

    def test_structural_zeros_and_trace(self):
        # tr exp(A) = Z - (N-2), to the rounding of Z, and
        # det exp(A) = exp(tr A) on the block; the determinant cancels by
        # the ratio of the block's eigenvalues, so it is bounded against
        # e11 ekk. Outside the block rho is 1/Z on the diagonal and 0
        # elsewhere.
        rng = np.random.default_rng(8)
        for _ in range(100):
            ls = random_lagrange(rng)
            z, block = forward(ls.dim_n, [lams_of(ls)])
            z, (e11, e1k, ekk) = z[0], at(block, 0)
            g = 1 + max(abs(v) for v in lams_of(ls))
            assert e11 > 0 and ekk > 0 and z > 0
            assert e11 + ekk + (ls.dim_n - 2) == pytest.approx(z, rel=2 * EPS)
            det = e11 * ekk - (e1k.real**2 + e1k.imag**2)
            assert abs(det - math.exp(-(ls.lam_11 + ls.lam_kk))) <= 2 * g * EPS * e11 * ekk
            rho = density_from_lagrange(ls)
            k = ls.index_k - 1
            rest = [i for i in range(ls.dim_n) if i not in (0, k)]
            np.testing.assert_array_equal(np.diag(rho)[rest], 1 / z)
            off = rho - np.diag(np.diag(rho))
            off[0, k] = off[k, 0] = 0
            assert not off.any()


class TestDensity:
    def test_zero_multipliers_give_maximally_mixed(self):
        np.testing.assert_allclose(
            density_from_lagrange(LagrangeSet(4, 2, 0.0, 0.0, 0.0)),
            np.eye(4) / 4,
            atol=1e-14,
        )
        np.testing.assert_allclose(
            density_from_lagrange(LagrangeSet(8, 2, 0.0, 0.0, 0.0)),
            np.eye(8) / 8,
            atol=1e-14,
        )

    def test_reference_entries(self):
        # frozen from the brute-force exponential oracle
        rho = density_from_lagrange(LagrangeSet(4, 2, 1.0, 0.5, 0.0))
        assert rho[0, 0].real == pytest.approx(0.123375, abs=1e-6)
        assert rho[0, 1].real == pytest.approx(-0.093273, abs=1e-6)
        assert rho[1, 1].real == pytest.approx(0.309921, abs=1e-6)
        assert rho[2, 2].real == pytest.approx(0.283352, abs=1e-6)
        assert rho[3, 3].real == pytest.approx(0.283352, abs=1e-6)

    def test_against_taylor_oracle(self):
        ls = LagrangeSet(4, 2, 1.0, 0.5, 0.0)
        e = taylor_expm(build_exponent(ls))
        np.testing.assert_allclose(
            density_from_lagrange(ls), e / np.trace(e).real, atol=1e-10
        )

    def test_analytic_matches_brute_force_thousand(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            ls = random_lagrange(rng)
            np.testing.assert_allclose(
                density_from_lagrange(ls), brute_force_density(ls), atol=1e-10
            )

    def test_density_invariants(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            ls = random_lagrange(rng)
            rho = density_from_lagrange(ls)
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-10)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvalsh(rho).min() >= -1e-10

    def test_unconstrained_diagonal_uniform(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            ls = random_lagrange(rng)
            rho = density_from_lagrange(ls)
            z = forward(ls.dim_n, [lams_of(ls)])[0][0]
            for i in range(ls.dim_n):
                if i in (0, ls.index_k - 1):
                    continue
                assert rho[i, i].real == pytest.approx(1.0 / z, abs=1e-10)
                # off-diagonal entries outside the block vanish
                row = np.delete(rho[i], [i])
                assert np.abs(row).max() <= 1e-14


def block_values(ls: LagrangeSet):
    """The mean values (x11, x1K, xKK) the density of ``ls`` holds."""
    rho, k = density_from_lagrange(ls), ls.index_k - 1
    return rho[0, 0].real, complex(rho[0, k]), rho[k, k].real


class TestForward:
    def test_maximally_mixed(self):
        values = block_values(LagrangeSet(4, 2, 0.0, 0.0, 0.0))
        assert values == pytest.approx((0.25, 0.0, 0.25))

    def test_reference_values(self):
        x11, x1k, xkk = block_values(LagrangeSet(4, 2, 1.0, 0.5, 0.0))
        assert x11 == pytest.approx(0.123375, abs=1e-6)
        assert x1k == pytest.approx(-0.093273 + 0j, abs=1e-6)
        assert xkk == pytest.approx(0.309921, abs=1e-6)

    def test_block_log_inverse_example(self):
        # multipliers recovered by hand from exp(block) = 5 * [[.4,.2],[.2,.2]]
        ls = LagrangeSet(4, 2, -0.43040894096, -0.86081788193, 0.43040894096)
        x11, x1k, xkk = block_values(ls)
        assert x11 == pytest.approx(0.4, abs=1e-9)
        assert x1k == pytest.approx(0.2 + 0j, abs=1e-9)
        assert xkk == pytest.approx(0.2, abs=1e-9)

    @pytest.mark.parametrize(
        "ls",
        [
            LagrangeSet(4, 2, -710.0, 0.0, 0.0),
            LagrangeSet(4, 2, 0.0, 800.0, 0.0),
            # each exp is finite, their sum Z is not
            LagrangeSet(8, 3, -709.5, 0.0, -709.5),
        ],
    )
    def test_overflow_raises_domain_error_naming_multipliers(self, ls):
        for fn in (density_from_lagrange, lambda ls: block_fidelity(ls, ls)):
            with pytest.raises(DomainError, match=f"lam_11 = {ls.lam_11!r}"):
                fn(ls)

    def test_large_in_range_multipliers_still_map(self):
        x11, _, _ = block_values(LagrangeSet(4, 2, -700.0, 0.0, 0.0))
        assert x11 == pytest.approx(1.0, abs=1e-12)

    def test_density_block_is_the_kernels_expectations(self):
        # The density's block holds the forward kernel's mean values, the
        # values of the solve's reproduction check, bit for bit.
        rng = np.random.default_rng(14)
        for _ in range(300):
            ls = random_lagrange(rng)
            spec = forward(ls.dim_n, [lams_of(ls)])
            assert block_values(ls) == at(maxent._expectations(spec), 0)


class TestFidelity:
    def test_identical_states(self):
        rho = density_from_lagrange(LagrangeSet(4, 2, 0.7, 0.2 - 0.1j, -0.3))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed_pair(self):
        eye4 = np.eye(4) / 4
        assert fidelity(eye4, eye4) == pytest.approx(1.0, abs=1e-12)

    def test_pure_against_mixed(self):
        pure = np.zeros((4, 4), dtype=complex)
        pure[0, 0] = 1.0
        # for pure rho the fidelity reduces to tr(rho sigma)
        assert fidelity(pure, np.eye(4) / 4) == pytest.approx(0.25, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = density_from_lagrange(random_lagrange(rng, dim_n=4))
            b = density_from_lagrange(random_lagrange(rng, dim_n=4))
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)
            assert 0.0 <= fidelity(a, b) <= 1.0

    # inf - inf inside the hermiticity check warns before the error
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_operand_named(self):
        sigma = np.eye(4) / 4
        sigma[1, 2] = np.nan
        with pytest.raises(ValidationError, match=r"sigma: matrix entry \(1,2\)"):
            fidelity(np.eye(4) / 4, sigma)
        with pytest.raises(ValidationError, match="rho: .*not finite"):
            fidelity(np.full((4, 4), np.inf), np.eye(4) / 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            fidelity(np.eye(4) / 4, np.eye(8) / 8)


class TestHeatmap:
    def test_origin_has_no_coherence(self):
        lam11, lam1k, x11, x1k = heatmap_scan([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])
        (at_origin,) = np.flatnonzero((lam11 == 0.0) & (lam1k == 0.0))
        assert x1k[at_origin] == pytest.approx(0.0, abs=1e-15)
        assert x11[at_origin] == pytest.approx(0.25, abs=1e-12)

    def test_single_point_grid(self):
        (lam11,), (lam1k,), (x11,), (x1k,) = heatmap_scan([1.0], [0.5])
        assert (lam11, lam1k) == (1.0, 0.5 + 0j)
        assert x11 == pytest.approx(0.123375, abs=1e-6)
        assert x1k == pytest.approx(-0.093273 + 0j, abs=1e-6)

    def test_coherence_odd_in_coupling_when_diagonal_matches(self):
        grid = np.linspace(-2.0, 2.0, 9)
        _, lam1k, _, x1k = heatmap_scan([0.7], grid, lam_kk=0.7)
        by_re = {round(l.real, 12): x for l, x in zip(lam1k.tolist(), x1k.tolist())}
        for re in grid:
            assert by_re[round(re, 12)] == pytest.approx(
                -by_re[round(-re, 12)], abs=1e-12
            )

    def test_row_major_order(self):
        lam11, lam1k, _, _ = heatmap_scan([0.0, 1.0], [2.0, 3.0])
        assert list(zip(lam11.tolist(), lam1k.real.tolist())) == [
            (0.0, 2.0), (0.0, 3.0), (1.0, 2.0), (1.0, 3.0),
        ]

    @pytest.mark.parametrize(
        "dims, message",
        [((3, 2), r"^dim_n must be a power of two >= 4, got 3$"),
         ((2**1100, 2), r"^dim_n must be at most 2\*\*53, got \d{332}$"),
         ((4, 9), r"^index_k must be in \[2, 4\], got 9$")],
    )
    @pytest.mark.parametrize("grid", [([], []), ([1.0], [0.5])])
    def test_bad_dimensions_raise_on_any_grid(self, dims, message, grid):
        dim_n, index_k = dims
        with pytest.raises(ValidationError, match=message):
            heatmap_scan(*grid, dim_n=dim_n, index_k=index_k)


class TestSizeCap:
    """``heatmap_scan`` and ``density_from_lagrange`` refuse a call whose
    estimated peak memory is past ``linalg._MAX_BYTES`` before they
    allocate: the allocator is patched to fail if called, so a call at the
    limit reaches it and one past it does not."""

    @pytest.fixture
    def refuse(self, monkeypatch):
        def patch(name):
            def refuse(*args, **kwargs):
                raise AssertionError(f"np.{name} was called")

            monkeypatch.setattr(np, name, refuse)

        return patch

    def test_heatmap_grid_past_the_limit_is_refused(self, refuse):
        axis, long = [0.0] * 1036, np.arange(10**5, dtype=float)
        refuse("empty")
        with pytest.raises(AssertionError, match="^np.empty was called$"):
            heatmap_scan(axis, axis)
        for lam11, re1k, mib in ((axis + [0.0], axis, 1025), (long, long, 9536744)):
            with pytest.raises(ValidationError) as caught:
                heatmap_scan(lam11, re1k)
            assert str(caught.value) == (
                f"len(lam11_values) * len(re_lam1k_values) = {len(lam11)} * {len(re1k)} "
                f"would need about {mib} MiB, past the 1024 MiB one command may use"
            )

    def test_density_matrix_past_the_limit_is_refused(self, refuse):
        refuse("zeros")
        with pytest.raises(AssertionError, match="^np.zeros was called$"):
            density_from_lagrange(LagrangeSet(2**13, 2, 0.0, 0.0, 0.0))
        for dim_n, mib in ((2**14, 4096), (2**20, 16777216)):
            with pytest.raises(ValidationError) as caught:
                density_from_lagrange(LagrangeSet(dim_n, 2, 0.0, 0.0, 0.0))
            assert str(caught.value) == (
                f"a density matrix of dim_n = {dim_n} would need about {mib} MiB, "
                "past the 1024 MiB one command may use"
            )
