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
    EPS,
    case_sets,
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
from qmaxent import DomainError, InfeasibleRecordError, ValidationError
from qmaxent.circuit import qubit_count
from qmaxent.cli import ExperimentConfig, load_config, run_case_ab, run_sweep
from qmaxent.maxent import (
    LagrangeSet,
    MeasurementRecord,
    block_fidelity,
    density_from_lagrange,
    fidelity,
    solve_lagrange,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PINNED_CONFIGS = ("sweep_exact.txt", "sweep_noisy_mitigated.txt", "caseab_shots.txt")


def dim_of(cfg) -> int:
    return 2 ** qubit_count(cfg.circuit_text)


def scaled_minor(mr: MeasurementRecord) -> np.ndarray:
    """Z times the constraint minor, the matrix whose log is the block."""
    z = (mr.dim_n - 2) / (1.0 - mr.x_11 - mr.x_kk)
    return z * np.array([[mr.x_11, mr.x_1k], [mr.x_1k.conjugate(), mr.x_kk]])


def rescaled(records) -> list:
    """Saturated records moved off x11 + xKK = 1 by one call of the
    completion's rescale, ``maxent._rescale``."""
    x11, x1k, xkk = (np.array(v) for v in zip(*((r.x_11, r.x_1k, r.x_kk) for r in records)))
    values, fired = maxent._rescale(x11, x1k, xkk)
    assert fired.all()
    return [
        MeasurementRecord(r.dim_n, r.index_k, *point)
        for r, point in zip(records, zip(*(v.tolist() for v in values)))
    ]


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
SATURATED_RANK_ONE = rescaled([  # x11 + xKK = 1 moved off the boundary: Z ~ 1e9
    MeasurementRecord(4, 4, 0.5, 0.5, 0.5),
    MeasurementRecord(8, 3, 0.5, 0.5j, 0.5),
])
SATURATED_FULL_RANK = rescaled([
    MeasurementRecord(4, 2, 0.6, 0.0, 0.4),
    MeasurementRecord(4, 2, 0.7, 0.1 - 0.2j, 0.3),
])
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
        deviation = density_from_lagrange(ls)[0, 1] - mr.x_1k
        assert abs(deviation) <= 1e-8

    def test_every_exact_pinned_sweep_row_is_flagged(self):
        # Pure-state data is rank one at every point, theta = pi, K = 4 too.
        sweep = run_sweep(load_config(CONFIGS / "sweep_exact.txt"))
        (row,) = np.flatnonzero((sweep.k == 4) & (np.abs(sweep.theta - math.pi) < 1e-12))
        assert sweep.near_singular[row]
        assert sweep.near_singular.all()


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
        cfg = load_config(CONFIGS / config)
        sweep = run_case_ab(cfg)
        for i, (a, b) in enumerate(case_sets(sweep, dim_of(cfg))):
            reference = mp_fidelity(mp_density(a), mp_density(b))
            assert abs(sweep.fidelity[i] - reference) <= 1e-10, (sweep.theta[i], sweep.k[i])

    @pytest.mark.parametrize(("n", "k"), [(4, 3), (8, 2)])
    def test_sets_of_different_shape_are_rejected(self, n, k):
        with pytest.raises(ValidationError, match="differ"):
            block_fidelity(LagrangeSet(4, 2, 0.0, 0.0, 0.0), LagrangeSet(n, k, 0.0, 0.0, 0.0))

    def test_overflowing_multiplier_sum_is_a_domain_error(self):
        # z = 2.03e304 is finite, but the cross term exp(-(sum)/2) is
        # exp(1400); the error names the multiplier sum.
        ls = LagrangeSet(4, 2, -700.0, 0.0, -700.0)
        assert math.isfinite(density_from_lagrange(ls)[1, 1].real)
        with pytest.raises(DomainError, match=r"lamKK_b = -2800\.0, and exp"):
            block_fidelity(ls, ls)

    def test_the_kernel_raises_its_first_overflow(self):
        # Like every array kernel, the fidelity kernel raises the first
        # overflowing point's error, block_fidelity's for that point.
        sets = [
            LagrangeSet(4, 2, 0.1, 0.2j, 0.3),
            LagrangeSet(4, 2, -705.0, 0.0, -700.0),
            LagrangeSet(4, 2, -700.0, 0.0, -700.0),
        ]
        lams = tuple(np.array([getattr(s, f) for s in sets]) for f in ("lam_11", "lam_1k", "lam_kk"))
        z, block = maxent._exponent_spectrum(4, *lams)
        with pytest.raises(DomainError) as want:
            block_fidelity(sets[1], sets[1])
        with pytest.raises(DomainError) as got:
            maxent._block_fidelity(4, lams, z, block, lams, z, block)
        assert str(got.value) == str(want.value)
        first = tuple(v[:1] for v in lams), z[:1], tuple(v[:1] for v in block)
        assert maxent._block_fidelity(4, *first, *first)[0] == block_fidelity(sets[0], sets[0])

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


def fidelity_conditioning(a: np.ndarray, b: np.ndarray, f: float) -> float:
    """How far a float evaluation of the fidelity f of the states a and b
    can be from the exact one. A float eigensolver moves each eigenvalue
    lam of either state by up to delta = N eps max(lam), so sqrt(lam) moves
    by sqrt(lam + delta) - sqrt(lam): sqrt(delta) for an eigenvalue below
    rounding, delta / (2 sqrt(lam)) above it. That moves
    tr|sqrt(a) sqrt(b)| by at most the change times ||sqrt(b) v||, the
    weight of the other state on the eigenvector v, and f by 2 sqrt(f)
    times the sum; N eps more covers the rounding of f itself."""
    n = a.shape[0]
    change = 0.0
    for x, y in ((a, b), (b, a)):
        w, v = np.linalg.eigh(x)
        w_y, v_y = np.linalg.eigh(y)
        root_y = (v_y * np.sqrt(np.maximum(w_y, 0.0))) @ v_y.conj().T
        w = np.maximum(w, 0.0)
        delta = n * EPS * w.max()
        weight = np.linalg.norm(root_y @ v, axis=0)
        change += float(np.sum((np.sqrt(w + delta) - np.sqrt(w)) * weight))
    return 2.0 * math.sqrt(f) * change + n * EPS


class TestDenseFidelity:
    def test_random_states_match_mpmath(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.choice([2, 4, 8]))
            a, b = (random_psd(rng, n, min_eig=0.0) for _ in range(2))
            a, b = a / np.trace(a).real, b / np.trace(b).real
            assert fidelity(a, b) == pytest.approx(mp_fidelity(a, b), abs=1e-12)

    def test_near_singular_reconstructions_match_mpmath(self):
        # Each row within the conditioning of its own fidelity: a floored
        # eigenvalue near 1e-21 is below rounding, so its square root is
        # known to about 1.5e-8 only, and the error is that times the
        # weight of the other state on its eigenvector.
        cfg = load_config(CONFIGS / "sweep_noisy_mitigated.txt")
        sweep = run_case_ab(cfg)
        for i, sets in enumerate(case_sets(sweep, dim_of(cfg))):
            a, b = (density_from_lagrange(ls) for ls in sets)
            want = mp_fidelity(a, b)
            assert abs(fidelity(a, b) - want) <= fidelity_conditioning(a, b, want), sweep.theta[i]

    @pytest.mark.parametrize(
        ("rho", "sigma", "name", "eigenvalue"),
        [
            (np.diag([1.5, -0.5]), np.diag([0.5, 0.5]), "rho", "-5.000e-01"),
            (np.diag([0.5, 0.5]), np.diag([1.5, -0.5]), "sigma", "-5.000e-01"),
            (np.diag([1.0 + 1e-6, -1e-6]), np.eye(2) / 2, "rho", "-1.000e-06"),
        ],
    )
    def test_a_negative_eigenvalue_is_rejected(self, rho, sigma, name, eigenvalue):
        # Hermitian and trace one, but not a state: the square root would
        # clip the negative eigenvalue and return a fidelity (0.75 for the
        # first pair) of no state.
        with pytest.raises(
            ValidationError,
            match=f"^{name} is not positive semidefinite: smallest eigenvalue {eigenvalue}$",
        ):
            fidelity(rho, sigma)

    def test_rounding_below_zero_is_accepted(self):
        # An eigenvalue above -1e-8, the tolerance of the Hermitian and
        # trace checks, is rounding of a positive semidefinite matrix.
        rho = np.diag([1.0 + 1e-9, -1e-9])
        assert fidelity(rho, np.diag([1.0, 0.0])) == pytest.approx(1.0, abs=1e-8)
