"""The per-point reconstruct kernel on scalars.

``solve_lagrange`` takes the matrix log of Z times the 2x2 constraint
minor in closed form, and ``block_fidelity`` takes the Uhlmann fidelity of
two reconstructions from their 2x2 blocks. Both are checked here against
LAPACK (``matrix_log_psd``), the dense ``fidelity`` and 60-digit mpmath
oracles, on the edges of the feasible set: near-degenerate, diagonal,
floored and rescaled saturated minors, and every row of the pinned
configs.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    matrix_log_psd,
    mp_density,
    mp_fidelity,
    mp_matrix_log_psd,
    random_feasible_record,
    random_psd,
)

import qmaxent.cli as cli
import qmaxent.linalg as linalg
import qmaxent.maxent as maxent
from qmaxent import InfeasibleRecordError, ValidationError
from qmaxent.cli import ExperimentConfig, load_config, run_case_ab, run_sweep
from qmaxent.maxent import (
    LagrangeSet,
    MeasurementRecord,
    block_fidelity,
    density_from_lagrange,
    fidelity,
    forward_expectations,
    saturation_rescale,
    solve_lagrange,
    solve_record,
    spectrum,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PINNED_CONFIGS = ("sweep_exact.txt", "sweep_noisy_mitigated.txt", "caseab_shots.txt")


def scaled_minor(mr: MeasurementRecord) -> np.ndarray:
    """Z times the constraint minor, the matrix whose log is the block."""
    z = (mr.dim_n - 2) / (1.0 - mr.x_11 - mr.x_kk)
    return z * np.array([[mr.x_11, mr.x_1k], [mr.x_1k.conjugate(), mr.x_kk]])


def exponent_block(ls: LagrangeSet) -> np.ndarray:
    return -np.array([[ls.lam_11, ls.lam_1k], [ls.lam_1k.conjugate(), ls.lam_kk]])


# Minors at the edges the closed form branches on, each solved as given,
# with whether the solve floors an eigenvalue.
NEAR_DEGENERATE = [  # r -> 0: g from log1p, or g = 0 at r = 0
    MeasurementRecord(4, 2, 0.3, 0.0, 0.3),
    MeasurementRecord(4, 2, 0.3, 1e-13, 0.3),
    MeasurementRecord(8, 5, 0.2, 3e-12j, 0.2 - 1e-12),
    MeasurementRecord(4, 3, 0.3, 1e-9 + 1e-9j, 0.3 + 2e-9),
    MeasurementRecord(8, 2, 0.1, -2e-7 + 1e-7j, 0.1 + 1e-7),
]
DIAGONAL = [  # x1K = 0: the eigenvalues are x11 and xKK
    MeasurementRecord(4, 2, 0.3, 0.0, 0.2),
    MeasurementRecord(4, 4, 0.05, 0.0, 0.6),
    MeasurementRecord(8, 7, 1e-6, 0.0, 0.5),
]
FLOORED = [  # an eigenvalue exactly 0: Z w- is floored
    MeasurementRecord(4, 2, 0.25, 0.25, 0.25),
    MeasurementRecord(4, 3, 0.25, 0.25j, 0.25),
    MeasurementRecord(8, 4, 0.5, -0.25, 0.125),
    MeasurementRecord(4, 2, 0.3, 0.0, 0.0),
    MeasurementRecord(4, 2, 0.0, 0.0, 0.4),
]
SATURATED_RANK_ONE = [  # x11 + xKK = 1 moved off the boundary: Z ~ 1e9
    saturation_rescale(MeasurementRecord(4, 4, 0.5, 0.5, 0.5)),
    saturation_rescale(MeasurementRecord(8, 3, 0.5, 0.5j, 0.5)),
]
SATURATED_FULL_RANK = [
    saturation_rescale(MeasurementRecord(4, 2, 0.6, 0.0, 0.4)),
    saturation_rescale(MeasurementRecord(4, 2, 0.7, 0.1 - 0.2j, 0.3)),
]
EDGES = [
    (mr, flagged)
    for records, flagged in (
        (NEAR_DEGENERATE, False), (DIAGONAL, False), (FLOORED, True),
        (SATURATED_RANK_ONE, True), (SATURATED_FULL_RANK, False),
    )
    for mr in records
]


class TestScalarInverse:
    def test_matches_lapack_and_mpmath_logs_on_random_records(self):
        # LAPACK's own log is off by up to ~3e-12 relative here; the scalar
        # one by ~6e-13.
        rng = np.random.default_rng(2024)
        for _ in range(300):
            mr = random_feasible_record(rng)
            block = exponent_block(solve_lagrange(mr))
            lapack = matrix_log_psd(scaled_minor(mr))
            np.testing.assert_allclose(block, lapack, rtol=0, atol=1e-10)
            reference = mp_matrix_log_psd(scaled_minor(mr))
            scale = max(1.0, float(np.abs(reference).max()))
            assert np.abs(block - reference).max() <= 2e-12 * scale

    @pytest.mark.parametrize(("mr", "flagged"), EDGES, ids=repr)
    def test_matches_mpmath_log_at_the_edges(self, mr, flagged):
        ls = solve_lagrange(mr)
        reference = mp_matrix_log_psd(scaled_minor(mr))
        np.testing.assert_allclose(exponent_block(ls), reference, rtol=1e-14, atol=1e-13)
        assert ls.near_singular == flagged

    @pytest.mark.parametrize("mr", NEAR_DEGENERATE[1:], ids=repr)
    def test_near_degenerate_coupling_keeps_its_relative_digits(self, mr):
        # lam_1k = -g x1K with g = log1p(2r/w-)/(2r): no cancellation as r -> 0
        reference = -mp_matrix_log_psd(scaled_minor(mr))[0, 1]
        assert abs(solve_lagrange(mr).lam_1k - reference) <= 1e-13 * abs(reference)

    @pytest.mark.parametrize(
        "x1k",
        [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)],
        ids=repr,
    )
    def test_zero_multipliers_are_negative_zeros(self, x1k):
        # The dense log gave -0.0 for every zero multiplier; the caseab CSV
        # prints that sign.
        for x11, xkk in ((0.3, 0.2), (0.2, 0.3), (0.25, 0.25)):
            lam_1k = solve_lagrange(MeasurementRecord(4, 2, x11, x1k, xkk)).lam_1k
            assert lam_1k == 0
            assert math.copysign(1.0, lam_1k.real) == -1.0
            assert math.copysign(1.0, lam_1k.imag) == -1.0
        mixed = solve_lagrange(MeasurementRecord(4, 2, 0.25, x1k, 0.25))
        assert mixed.lam_11 == 0 and math.copysign(1.0, mixed.lam_11) == -1.0
        assert mixed.lam_kk == 0 and math.copysign(1.0, mixed.lam_kk) == -1.0

    def test_zero_part_of_a_coupling_is_a_negative_zero(self):
        real = solve_lagrange(MeasurementRecord(4, 2, 0.3, 0.2, 0.2)).lam_1k
        imag = solve_lagrange(MeasurementRecord(4, 2, 0.3, 0.2j, 0.2)).lam_1k
        assert math.copysign(1.0, real.imag) == -1.0
        assert math.copysign(1.0, imag.real) == -1.0

    def test_negative_eigenvalue_is_infeasible(self):
        # |x1K|^2 exceeds x11 xKK by less than the record slack of 1e-9,
        # but the minor's eigenvalue -4e-6 is far below -1e-9.
        mr = MeasurementRecord(4, 2, 1e-4, 1.04e-4, 1e-4)
        with pytest.raises(InfeasibleRecordError, match="negative eigenvalue -4"):
            solve_lagrange(mr)


class TestRankOne:
    def test_rounding_residue_of_a_pure_state_is_flagged(self):
        # A rescaled pure-state minor whose smaller eigenvalue is only
        # rounding; Z ~ 2e9 used to lift it over the log floor.
        mr = MeasurementRecord(
            4, 2, 0.2919265814345023, 0.24564774797129324 - 0.38257370023457266j,
            0.7080734175654978,
        )
        ls = solve_lagrange(mr)
        assert ls.near_singular
        deviation = forward_expectations(ls).x_1k - mr.x_1k
        assert abs(deviation) <= 1e-8

    def test_every_exact_pinned_sweep_row_is_flagged(self):
        # Pure-state data is rank one at every point, theta = pi, K = 4 too.
        rows = run_sweep(load_config(CONFIGS / "sweep_exact.txt"))
        (row,) = [r for r in rows if r.k == 4 and r.theta == pytest.approx(math.pi)]
        assert row.near_singular
        assert all(r.near_singular for r in rows)


class TestBlockFidelity:
    def test_matches_dense_fidelity_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.choice([4, 8, 16]))
            k = int(rng.integers(2, n + 1))
            a, b = (
                LagrangeSet(
                    n, k, rng.uniform(-4, 4),
                    complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(-4, 4),
                )
                for _ in range(2)
            )
            dense = fidelity(density_from_lagrange(a), density_from_lagrange(b))
            assert block_fidelity(a, b) == pytest.approx(dense, abs=1e-12)
            assert block_fidelity(a, b) == pytest.approx(block_fidelity(b, a), abs=1e-15)

    def test_identical_sets(self):
        for ls in (
            LagrangeSet(4, 2, 0.0, 0.0, 0.0),
            LagrangeSet(8, 5, 1.5, 0.3 - 2j, -0.7),
            solve_lagrange(FLOORED[0]),
        ):
            assert block_fidelity(ls, ls) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("config", PINNED_CONFIGS)
    def test_within_1e10_of_mpmath_on_every_pinned_row(self, config):
        for row in run_case_ab(load_config(CONFIGS / config)):
            a, b = row.lagrange_a, row.lagrange_b
            reference = mp_fidelity(mp_density(a), mp_density(b))
            assert abs(row.fidelity - reference) <= 1e-10, (row.theta, row.k)

    @pytest.mark.parametrize(("n", "k"), [(4, 3), (8, 2)])
    def test_sets_of_different_shape_are_rejected(self, n, k):
        with pytest.raises(ValidationError, match="differ"):
            block_fidelity(LagrangeSet(4, 2, 0.0, 0.0, 0.0), LagrangeSet(n, k, 0.0, 0.0, 0.0))

    def test_spectrum_is_computed_once_per_set(self, monkeypatch):
        calls = []
        compute = maxent._exponent_spectrum
        monkeypatch.setattr(
            maxent, "_exponent_spectrum", lambda ls: calls.append(ls) or compute(ls)
        )
        mr = MeasurementRecord(8, 5, 0.3, 0.1 - 0.2j)
        _, a = solve_record(mr)
        _, b = solve_record(mr, 0.2)
        block_fidelity(a, b)
        forward_expectations(a)
        assert spectrum(b) is spectrum(b)
        assert calls == [a, b]

    def test_sweeps_build_no_dense_matrix_per_point(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("dense per-point path called")

        for module, name in (
            (maxent, "density_from_lagrange"), (cli, "density_from_lagrange"),
            (maxent, "fidelity"), (maxent, "require_hermitian"),
            (linalg, "require_hermitian"),
            (np.linalg, "eigh"), (np.linalg, "eigvalsh"), (np.linalg, "svd"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        assert len(run_sweep(load_config(CONFIGS / "sweep_exact.txt"))) == 63
        shots = ExperimentConfig("twoq_b", theta_steps=3, backend="shots", shots=256)
        assert len(run_case_ab(shots)) > 0


class TestDenseFidelity:
    def test_random_states_match_mpmath(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.choice([2, 4, 8]))
            a, b = (random_psd(rng, n, min_eig=0.0) for _ in range(2))
            a, b = a / np.trace(a).real, b / np.trace(b).real
            assert fidelity(a, b) == pytest.approx(mp_fidelity(a, b), abs=1e-12)

    def test_near_singular_reconstructions_match_mpmath(self):
        for row in run_case_ab(load_config(CONFIGS / "sweep_noisy_mitigated.txt")):
            a = density_from_lagrange(row.lagrange_a)
            b = density_from_lagrange(row.lagrange_b)
            assert fidelity(a, b) == pytest.approx(mp_fidelity(a, b), abs=1e-10)
