import itertools
import math

import numpy as np
import pytest
from conftest import dense_expectation, slsqp_simplex_lstsq, to_matrix

from qmaxent import DomainError, ValidationError
from qmaxent.circuit import parse_circuit, populations, simulate
from qmaxent.pauli import PauliString
from qmaxent.sampler import (
    CalibrationMatrix,
    ReadoutNoise,
    build_calibration,
    estimate_coherence,
    estimate_pauli,
    estimate_populations,
    mitigate,
    sample_counts,
)

BELL = parse_circuit("qubits 2\nh 0\ncx 0 1")
BELL_SV = simulate(BELL)
PLUS = parse_circuit("qubits 1\nh 0")


class TestSampleCounts:
    def test_ground_state_all_zero_string(self):
        sv = simulate(parse_circuit("qubits 1"))
        tally = sample_counts(sv, 100, seed=1)
        assert tally.tolist() == [100, 0]

    def test_bell_frequencies_within_binomial_bound(self):
        shots = 40000
        tally = sample_counts(BELL_SV, shots, seed=2)
        assert tally[1] == tally[2] == 0
        bound = 5 / math.sqrt(shots)
        for index in (0, 3):
            assert abs(tally[index] / shots - 0.5) <= bound

    def test_readout_flip_rate(self):
        sv = simulate(parse_circuit("qubits 1"))
        shots = 100000
        noise = ReadoutNoise.uniform(0.1, 0.0, 1)
        tally = sample_counts(sv, shots, noise, seed=3)
        sigma = math.sqrt(0.1 * 0.9 / shots)
        assert abs(tally[1] / shots - 0.1) <= 3 * sigma

    def test_deterministic_given_seed(self):
        a = sample_counts(BELL_SV, 5000, ReadoutNoise.uniform(0.05, 0.02, 2), seed=9)
        b = sample_counts(BELL_SV, 5000, ReadoutNoise.uniform(0.05, 0.02, 2), seed=9)
        assert np.array_equal(a, b)
        c = sample_counts(BELL_SV, 5000, ReadoutNoise.uniform(0.05, 0.02, 2), seed=10)
        assert not np.array_equal(a, c)

    def test_noise_probability_range_enforced(self):
        with pytest.raises(ValidationError):
            ReadoutNoise.uniform(0.7, 0.0, 1)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_noise_rate_rejected(self, rate):
        with pytest.raises(ValidationError, match="not finite"):
            ReadoutNoise.uniform(rate, 0.0, 1)

    def test_tally_is_an_int_vector_summing_to_shots(self):
        sv = simulate(parse_circuit("qubits 3\nh 0\nry(0.7) 1\ncx 1 2"))
        tally = sample_counts(sv, 777, ReadoutNoise.uniform(0.05, 0.1, 3), seed=5)
        assert tally.shape == (8,)
        assert np.issubdtype(tally.dtype, np.integer)
        assert tally.min() >= 0
        assert tally.sum() == 777

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            sample_counts(BELL_SV, 10, seed=-1)


class TestEstimatePopulations:
    def test_single_outcome(self):
        sv = simulate(parse_circuit("qubits 1"))
        np.testing.assert_allclose(estimate_populations(sv, 100, seed=0), [1.0, 0.0])

    def test_bell_split(self):
        # Seed 7 draws 50 of each outcome in 100 shots.
        assert sample_counts(BELL_SV, 100, seed=7).tolist() == [50, 0, 0, 50]
        np.testing.assert_allclose(
            estimate_populations(BELL_SV, 100, seed=7), [0.5, 0.0, 0.0, 0.5]
        )

    def test_estimates_partition_unity(self):
        rng = np.random.default_rng(4)
        for seed in range(20):
            amplitudes = rng.normal(size=8) + 1j * rng.normal(size=8)
            sv = amplitudes / np.linalg.norm(amplitudes)
            shots = int(rng.integers(1, 400))
            freqs = estimate_populations(sv, shots, seed=seed)
            np.testing.assert_array_equal(freqs, sample_counts(sv, shots, seed=seed) / shots)
            assert freqs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_exact_mode_is_the_state_populations(self):
        np.testing.assert_array_equal(estimate_populations(BELL_SV), populations(BELL_SV))

    def test_exact_noisy_mode_applies_the_calibration_matrix(self):
        sv = simulate(parse_circuit("qubits 2\nry(0.8) 0\nrx(1.3) 1\ncx 0 1"))
        noise = ReadoutNoise.uniform(0.02, 0.04, 2)
        cal = build_calibration(noise, 2)
        np.testing.assert_array_equal(
            estimate_populations(sv, noise=noise), cal.entries @ populations(sv)
        )

    def test_convergence_to_exact_populations(self):
        shots = 100000
        truth = populations(BELL_SV)
        for seed in range(20):
            estimate = estimate_populations(BELL_SV, shots, seed=seed)
            for p, p_hat in zip(truth, estimate):
                sigma = math.sqrt(max(p * (1 - p), 1e-12) / shots)
                assert abs(p_hat - p) <= max(3 * sigma, 1e-12)


class TestEstimatePauli:
    def test_z_on_ground_state_is_exact(self):
        c = parse_circuit("qubits 1")
        for shots in (1, 7, 100):
            assert estimate_pauli(simulate(c), PauliString(("Z",)), shots, seed=5) == 1.0

    def test_x_eigenstate_is_exact(self):
        assert estimate_pauli(simulate(PLUS), PauliString(("X",)), 10000, seed=6) == 1.0

    def test_bell_zz(self):
        value = estimate_pauli(simulate(BELL), PauliString(("Z", "Z")), 10000, seed=7)
        assert value == pytest.approx(1.0, abs=0.02)

    def test_exact_mode_matches_dense(self):
        rng = np.random.default_rng(31)
        c = parse_circuit("qubits 2\nry(0.8) 0\nrx(1.3) 1\ncx 0 1\nrz(0.4) 1")
        sv = simulate(c)
        for letters in itertools.product("IXYZ", repeat=2):
            ps = PauliString(letters)
            if ps.is_identity:
                continue
            exact = dense_expectation(sv, to_matrix(ps)).real
            assert estimate_pauli(simulate(c), ps) == pytest.approx(exact, abs=1e-10)

    def test_exact_noisy_mode_mitigates_back_to_exact(self):
        sv = simulate(parse_circuit("qubits 2\nry(0.8) 0\nrx(1.3) 1\ncx 0 1\nrz(0.4) 1"))
        noise = ReadoutNoise.uniform(0.02, 0.04, 2)
        cal = build_calibration(noise, 2)
        for letters in itertools.product("IXYZ", repeat=2):
            ps = PauliString(letters)
            if ps.is_identity:
                continue
            mitigated = estimate_pauli(sv, ps, noise=noise, calibration=cal)
            assert abs(mitigated - estimate_pauli(sv, ps)) <= 1e-12

    def test_sampled_converges_to_dense(self):
        c = parse_circuit("qubits 2\nry(0.8) 0\nrx(1.3) 1\ncx 0 1")
        ps = PauliString(("X", "Y"))
        exact = estimate_pauli(simulate(c), ps)
        sampled = estimate_pauli(simulate(c), ps, shots=100000, seed=8)
        assert sampled == pytest.approx(exact, abs=3 / math.sqrt(100000) + 1e-12)


class TestEstimateCoherence:
    def test_bell_exact_mode(self):
        value = estimate_coherence(simulate(BELL), 1, 4)
        assert value == pytest.approx(0.5 + 0j, abs=1e-12)

    def test_bell_sampled(self):
        value = estimate_coherence(simulate(BELL), 1, 4, shots_per_setting=10000, seed=11)
        assert value == pytest.approx(0.5 + 0j, abs=0.03)

    def test_plus_state_sampled(self):
        value = estimate_coherence(simulate(PLUS), 1, 2, shots_per_setting=10000, seed=12)
        assert value == pytest.approx(0.5 + 0j, abs=0.02)

    def test_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            estimate_coherence(simulate(BELL), 2, 2, shots_per_setting=10)

    def test_exact_mode_matches_statevector_everywhere(self):
        from qmaxent.circuit import coherence

        c = parse_circuit("qubits 2\nry(1.1) 0\ncx 0 1\nrz(0.7) 1\nh 1")
        sv = simulate(c)
        for i in range(1, 5):
            for j in range(1, 5):
                if i == j:
                    continue
                assert estimate_coherence(simulate(c), i, j) == pytest.approx(
                    coherence(sv, i, j), abs=1e-10
                )

    def test_error_halves_when_shots_quadruple(self):
        seeds = range(50)
        def spread(shots):
            values = [
                estimate_coherence(simulate(BELL), 1, 4, shots_per_setting=shots, seed=s)
                for s in seeds
            ]
            values = np.array(values)
            return float(np.sqrt(np.mean(np.abs(values - values.mean()) ** 2)))

        ratio = spread(2500) / spread(10000)
        assert 1.4 <= ratio <= 2.6


class TestCalibration:
    def test_zero_noise_gives_identity(self):
        cal = build_calibration(ReadoutNoise.uniform(0.0, 0.0, 2), 2)
        np.testing.assert_allclose(cal.entries, np.eye(4), atol=1e-15)

    def test_single_qubit_symmetric_noise(self):
        cal = build_calibration(ReadoutNoise.uniform(0.1, 0.1, 1), 1)
        np.testing.assert_allclose(cal.entries, [[0.9, 0.1], [0.1, 0.9]], atol=1e-15)

    def test_two_qubit_tensor_structure(self):
        noise = ReadoutNoise.uniform(0.1, 0.05, 2)
        cal = build_calibration(noise, 2)
        single = np.array([[0.9, 0.05], [0.1, 0.95]])
        np.testing.assert_allclose(cal.entries, np.kron(single, single), atol=1e-15)
        np.testing.assert_allclose(cal.entries.sum(axis=0), np.ones(4), atol=1e-15)

    def test_column_sum_validation(self):
        with pytest.raises(ValidationError):
            CalibrationMatrix(1, np.array([[0.9, 0.0], [0.2, 1.0]]))


class TestMitigate:
    def test_identity_calibration_returns_frequencies(self):
        cal = CalibrationMatrix(1, np.eye(2))
        np.testing.assert_array_equal(mitigate(np.array([7, 3]) / 10, cal), [0.7, 0.3])

    def test_exact_unmixing(self):
        cal = CalibrationMatrix(1, np.array([[0.9, 0.1], [0.1, 0.9]]))
        np.testing.assert_allclose(mitigate(np.array([9, 1]) / 10, cal), [1.0, 0.0], atol=1e-12)

    def test_noisy_bell_recovery(self):
        noise = ReadoutNoise.uniform(0.02, 0.04, 2)
        cal = build_calibration(noise, 2)
        corrected = estimate_populations(BELL_SV, 100000, noise, seed=14, calibration=cal)
        np.testing.assert_allclose(corrected, [0.5, 0, 0, 0.5], atol=0.01)
        assert corrected.min() >= 0.0
        assert corrected.sum() == pytest.approx(1.0, abs=1e-8)

    def test_singular_calibration_rejected(self):
        with pytest.raises(DomainError):
            cal = CalibrationMatrix(1, np.array([[0.5, 0.5], [0.5, 0.5]]))
            mitigate(np.array([1, 1]) / 2, cal)

    def test_wrong_length_rejected(self):
        cal = build_calibration(ReadoutNoise.uniform(0.02, 0.04, 2), 2)
        with pytest.raises(ValidationError, match="4 outcomes"):
            mitigate(np.array([0.5, 0.5]), cal)

    def test_mitigated_closer_than_raw(self):
        noise = ReadoutNoise.uniform(0.02, 0.04, 2)
        cal = build_calibration(noise, 2)
        truth = populations(BELL_SV)
        shots = 10000
        wins = 0
        trials = 40
        for seed in range(trials):
            raw = estimate_populations(BELL_SV, shots, noise, seed=seed)
            corrected = mitigate(raw, cal)
            if np.abs(corrected - truth).sum() < np.abs(raw - truth).sum():
                wins += 1
        assert wins >= 0.95 * trials


def _constrained_problem(rng, num_qubits):
    """A random tensored calibration and sampled frequencies of a sparse
    distribution, which often leave the direct solve negative."""
    noise = ReadoutNoise(
        tuple(rng.uniform(0.01, 0.1, num_qubits)),
        tuple(rng.uniform(0.01, 0.1, num_qubits)),
    )
    cal = build_calibration(noise, num_qubits)
    truth = np.zeros(cal.dim)
    support = rng.choice(cal.dim, size=max(1, cal.dim // 4), replace=False)
    truth[support] = rng.dirichlet(np.ones(support.size))
    freqs = rng.multinomial(2000, cal.entries @ truth) / 2000
    return cal, freqs


class TestSimplexSolve:
    @pytest.mark.parametrize(("num_qubits", "draws"), [(1, 30), (2, 30), (3, 30), (6, 6)])
    def test_kkt_conditions_and_oracle_objective(self, num_qubits, draws):
        rng = np.random.default_rng(40 + num_qubits)
        constrained = 0
        for _ in range(draws):
            cal, freqs = _constrained_problem(rng, num_qubits)
            m = cal.entries
            if np.linalg.solve(m, freqs).min() >= 0.0:
                continue
            constrained += 1
            p = mitigate(freqs, cal)
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) <= 1e-12
            grad = m.T @ (m @ p - freqs)
            free = p > 0.0
            # Stationarity: the gradient is the same on every free entry,
            # minus the multiplier eta of the sum constraint.
            eta = -grad[free].mean()
            assert np.abs(grad[free] + eta).max() <= 1e-12
            # Zero-set multipliers are non-negative.
            assert (grad[~free] + eta).min(initial=0.0) >= -1e-12
            oracle = slsqp_simplex_lstsq(m, freqs)
            objective = np.sum((m @ p - freqs) ** 2)
            # Only rounding (about 1e-18 here) may put it above the oracle.
            assert objective <= np.sum((m @ oracle - freqs) ** 2) + 1e-15
        assert constrained >= draws // 3

    def test_singular_calibration_raises_domain_error(self):
        single = np.array([[0.5, 0.5], [0.5, 0.5]])
        cal = CalibrationMatrix(2, np.kron(single, np.eye(2)))
        with pytest.raises(DomainError):
            mitigate(np.array([0.7, 0.0, 0.3, 0.0]), cal)

    def test_calibration_entries_are_a_read_only_copy(self):
        source = np.eye(2)
        cal = CalibrationMatrix(1, source)
        source[0, 0] = 0.5
        assert cal.entries[0, 0] == 1.0
        with pytest.raises(ValueError):
            cal.entries[0, 0] = 0.5


class TestMalformedStates:
    def test_length_not_a_power_of_two_rejected(self):
        sv = np.ones(3) / math.sqrt(3)
        with pytest.raises(ValidationError, match="2\\^n"):
            sample_counts(sv, 10)
        with pytest.raises(ValidationError, match="2\\^n"):
            estimate_populations(sv)
        with pytest.raises(ValidationError, match="2\\^n"):
            estimate_pauli(sv, PauliString(("Z",)), 10)

    def test_nan_state_rejected(self):
        with pytest.raises(ValidationError, match="not normalized"):
            sample_counts(np.array([np.nan, 0.0]), 10)

    def test_string_width_must_match_state(self):
        with pytest.raises(ValidationError, match="state has 2"):
            estimate_pauli(BELL_SV, PauliString(("Z",)))

