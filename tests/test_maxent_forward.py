import math

import numpy as np
import pytest
from conftest import build_exponent, matrix_exp_hermitian, taylor_expm

from qmaxent import DomainError, ValidationError
from qmaxent.maxent import (
    LagrangeSet,
    MeasurementRecord,
    density_from_lagrange,
    fidelity,
    forward_expectations,
    heatmap_scan,
    spectrum,
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


class TestSpectrum:
    def test_reference_values(self):
        s = spectrum(LagrangeSet(4, 2, 1.0, 0.5, 0.0))
        root = math.sqrt(2.0)
        assert s.eps[-2] == pytest.approx(-(1 + root) / 2, abs=1e-12)
        assert s.eps[-1] == pytest.approx(-(1 - root) / 2, abs=1e-12)
        assert s.eps[-2:] == pytest.approx((-1.2071, 0.2071), abs=5e-5)
        assert s.z == pytest.approx(3.52918, abs=5e-5)

    def test_matches_generic_eigendecomposition(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            ls = random_lagrange(rng)
            s = spectrum(ls)
            w = np.linalg.eigvalsh(build_exponent(ls))
            np.testing.assert_allclose(sorted(s.eps), w, atol=1e-10)
            assert s.z == pytest.approx(np.exp(w).sum(), rel=1e-12)

    def test_zero_coupling_branch(self):
        s = spectrum(LagrangeSet(4, 2, 0.0, 0.0, 0.0))
        assert s.eps == (0.0, 0.0, 0.0, 0.0)
        assert s.z == pytest.approx(4.0)
        assert math.isinf(abs(s.k3))

    def test_unconstrained_states_add_unit_weight(self):
        four = spectrum(LagrangeSet(4, 2, 1.0, 0.5, 0.0))
        eight = spectrum(LagrangeSet(8, 2, 1.0, 0.5, 0.0))
        assert eight.eps[-2:] == pytest.approx(four.eps[-2:], abs=1e-14)
        assert eight.z - four.z == pytest.approx(4.0, abs=1e-12)

    def test_structural_zeros_and_trace(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            ls = random_lagrange(rng)
            s = spectrum(ls)
            assert len(s.eps) == ls.dim_n
            assert all(e == 0.0 for e in s.eps[: ls.dim_n - 2])
            assert s.eps[-2] + s.eps[-1] == pytest.approx(
                -(ls.lam_11 + ls.lam_kk), abs=1e-12 * max(1, abs(ls.lam_11 + ls.lam_kk))
            )
            assert s.a >= 0 and s.b >= 0 and s.z > 0


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
            z = spectrum(ls).z
            for i in range(ls.dim_n):
                if i in (0, ls.index_k - 1):
                    continue
                assert rho[i, i].real == pytest.approx(1.0 / z, abs=1e-10)
                # off-diagonal entries outside the block vanish
                row = np.delete(rho[i], [i])
                assert np.abs(row).max() <= 1e-14


class TestForward:
    def test_maximally_mixed(self):
        mr = forward_expectations(LagrangeSet(4, 2, 0.0, 0.0, 0.0))
        assert (mr.x_11, mr.x_1k, mr.x_kk) == pytest.approx((0.25, 0.0, 0.25))

    def test_reference_values(self):
        mr = forward_expectations(LagrangeSet(4, 2, 1.0, 0.5, 0.0))
        assert mr.x_11 == pytest.approx(0.123375, abs=1e-6)
        assert mr.x_1k == pytest.approx(-0.093273 + 0j, abs=1e-6)
        assert mr.x_kk == pytest.approx(0.309921, abs=1e-6)

    def test_block_log_inverse_example(self):
        # multipliers recovered by hand from exp(block) = 5 * [[.4,.2],[.2,.2]]
        ls = LagrangeSet(4, 2, -0.43040894096, -0.86081788193, 0.43040894096)
        mr = forward_expectations(ls)
        assert mr.x_11 == pytest.approx(0.4, abs=1e-9)
        assert mr.x_1k == pytest.approx(0.2 + 0j, abs=1e-9)
        assert mr.x_kk == pytest.approx(0.2, abs=1e-9)

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
        for fn in (forward_expectations, density_from_lagrange):
            with pytest.raises(DomainError, match=f"lam_11 = {ls.lam_11!r}"):
                fn(ls)

    def test_large_in_range_multipliers_still_map(self):
        mr = forward_expectations(LagrangeSet(4, 2, -700.0, 0.0, 0.0))
        assert mr.x_11 == pytest.approx(1.0, abs=1e-12)

    def test_matches_density_entries(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            ls = random_lagrange(rng)
            mr = forward_expectations(ls)
            rho = density_from_lagrange(ls)
            k = ls.index_k - 1
            assert mr.x_11 == pytest.approx(rho[0, 0].real, abs=1e-12)
            assert mr.x_1k == pytest.approx(complex(rho[0, k]), abs=1e-12)
            assert mr.x_kk == pytest.approx(rho[k, k].real, abs=1e-12)


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
        rows = heatmap_scan([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])
        at_origin = [r for r in rows if r[0] == 0.0 and r[1] == 0.0]
        assert len(at_origin) == 1
        assert at_origin[0][3] == pytest.approx(0.0, abs=1e-15)
        assert at_origin[0][2] == pytest.approx(0.25, abs=1e-12)

    def test_single_point_grid(self):
        ((lam11, lam1k, x11, x1k),) = heatmap_scan([1.0], [0.5])
        assert (lam11, lam1k) == (1.0, 0.5 + 0j)
        assert x11 == pytest.approx(0.123375, abs=1e-6)
        assert x1k == pytest.approx(-0.093273 + 0j, abs=1e-6)

    def test_coherence_odd_in_coupling_when_diagonal_matches(self):
        grid = np.linspace(-2.0, 2.0, 9)
        rows = heatmap_scan([0.7], grid, lam_kk=0.7)
        by_re = {round(r[1].real, 12): r[3] for r in rows}
        for re in grid:
            assert by_re[round(re, 12)] == pytest.approx(
                -by_re[round(-re, 12)], abs=1e-12
            )

    def test_row_major_order(self):
        rows = heatmap_scan([0.0, 1.0], [2.0, 3.0])
        assert [(r[0], r[1].real) for r in rows] == [
            (0.0, 2.0), (0.0, 3.0), (1.0, 2.0), (1.0, 3.0),
        ]
