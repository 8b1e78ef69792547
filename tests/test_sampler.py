import math

import numpy as np
import pytest
from conftest import dense_expectation, slsqp_simplex_lstsq

from qmaxent import DomainError, ParseError, ValidationError
from qmaxent.circuit import parse_circuit, populations, simulate
from qmaxent.pauli import PauliString, to_matrix
from qmaxent.sampler import (
    CalibrationMatrix,
    CountsTable,
    ReadoutNoise,
    build_calibration,
    dump_counts,
    estimate_coherence,
    estimate_pauli,
    estimate_populations,
    load_counts,
    mitigate,
    sample_counts,
    _mitigation_solve,
)

BELL = parse_circuit("qubits 2\nh 0\ncx 0 1")
BELL_SV = simulate(BELL)
PLUS = parse_circuit("qubits 1\nh 0")


class TestSampleCounts:
    def test_ground_state_all_zero_string(self):
        sv = simulate(parse_circuit("qubits 1"))
        ct = sample_counts(sv, 100, seed=1)
        assert ct.counts == {"0": 100}

    def test_bell_frequencies_within_binomial_bound(self):
        shots = 40000
        ct = sample_counts(BELL_SV, shots, seed=2)
        assert set(ct.counts) <= {"00", "11"}
        bound = 5 / math.sqrt(shots)
        for key in ("00", "11"):
            assert abs(ct.counts.get(key, 0) / shots - 0.5) <= bound

    def test_readout_flip_rate(self):
        sv = simulate(parse_circuit("qubits 1"))
        shots = 100000
        noise = ReadoutNoise.uniform(0.1, 0.0, 1)
        ct = sample_counts(sv, shots, noise, seed=3)
        sigma = math.sqrt(0.1 * 0.9 / shots)
        assert abs(ct.counts.get("1", 0) / shots - 0.1) <= 3 * sigma

    def test_deterministic_given_seed(self):
        a = sample_counts(BELL_SV, 5000, ReadoutNoise.uniform(0.05, 0.02, 2), seed=9)
        b = sample_counts(BELL_SV, 5000, ReadoutNoise.uniform(0.05, 0.02, 2), seed=9)
        assert a == b
        c = sample_counts(BELL_SV, 5000, ReadoutNoise.uniform(0.05, 0.02, 2), seed=10)
        assert a != c

    def test_noise_probability_range_enforced(self):
        with pytest.raises(ValidationError):
            ReadoutNoise.uniform(0.7, 0.0, 1)

    def test_counts_must_sum_to_shots(self):
        with pytest.raises(ValidationError):
            CountsTable(1, 10, {"0": 4, "1": 5}, seed=0)


class TestEstimatePopulations:
    def test_single_outcome(self):
        ct = CountsTable(1, 100, {"0": 100}, seed=0)
        np.testing.assert_allclose(estimate_populations(ct), [1.0, 0.0])

    def test_bell_split(self):
        ct = CountsTable(2, 100, {"00": 50, "11": 50}, seed=0)
        np.testing.assert_allclose(estimate_populations(ct), [0.5, 0.0, 0.0, 0.5])

    def test_estimates_partition_unity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            raw = rng.integers(0, 50, size=8)
            raw[0] += 1  # keep at least one shot
            ct = CountsTable(
                3,
                int(raw.sum()),
                {format(i, "03b"): int(c) for i, c in enumerate(raw) if c},
                seed=0,
            )
            assert estimate_populations(ct).sum() == pytest.approx(1.0, abs=1e-12)

    def test_convergence_to_exact_populations(self):
        shots = 100000
        truth = populations(BELL_SV)
        for seed in range(20):
            ct = sample_counts(BELL_SV, shots, seed=seed)
            estimate = estimate_populations(ct)
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
        import itertools

        for letters in itertools.product("IXYZ", repeat=2):
            ps = PauliString(letters)
            if ps.is_identity:
                continue
            exact = dense_expectation(sv, to_matrix(ps)).real
            assert estimate_pauli(simulate(c), ps) == pytest.approx(exact, abs=1e-10)

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

    def test_empirical_mode_approximates_exact(self):
        noise = ReadoutNoise.uniform(0.08, 0.03, 2)
        exact = build_calibration(noise, 2)
        empirical = build_calibration(noise, 2, shots=200000, seed=13)
        assert np.abs(empirical.entries - exact.entries).max() <= 0.005
        np.testing.assert_allclose(empirical.entries.sum(axis=0), np.ones(4), atol=1e-12)

    def test_column_sum_validation(self):
        with pytest.raises(ValidationError):
            CalibrationMatrix(1, np.array([[0.9, 0.0], [0.2, 1.0]]))


class TestMitigate:
    def test_identity_calibration_returns_frequencies(self):
        ct = CountsTable(1, 10, {"0": 7, "1": 3}, seed=0)
        cal = CalibrationMatrix(1, np.eye(2))
        np.testing.assert_array_equal(mitigate(ct, cal), [0.7, 0.3])

    def test_exact_unmixing(self):
        cal = CalibrationMatrix(1, np.array([[0.9, 0.1], [0.1, 0.9]]))
        ct = CountsTable(1, 10, {"0": 9, "1": 1}, seed=0)
        np.testing.assert_allclose(mitigate(ct, cal), [1.0, 0.0], atol=1e-12)

    def test_noisy_bell_recovery(self):
        noise = ReadoutNoise.uniform(0.02, 0.04, 2)
        cal = build_calibration(noise, 2)
        ct = sample_counts(BELL_SV, 100000, noise, seed=14)
        corrected = mitigate(ct, cal)
        np.testing.assert_allclose(corrected, [0.5, 0, 0, 0.5], atol=0.01)
        assert corrected.min() >= 0.0
        assert corrected.sum() == pytest.approx(1.0, abs=1e-8)

    def test_singular_calibration_rejected(self):
        with pytest.raises(DomainError):
            cal = CalibrationMatrix(1, np.array([[0.5, 0.5], [0.5, 0.5]]))
            mitigate(CountsTable(1, 2, {"0": 1, "1": 1}, seed=0), cal)

    def test_mitigated_closer_than_raw(self):
        noise = ReadoutNoise.uniform(0.02, 0.04, 2)
        cal = build_calibration(noise, 2)
        truth = populations(BELL_SV)
        shots = 10000
        wins = 0
        trials = 40
        for seed in range(trials):
            ct = sample_counts(BELL_SV, shots, noise, seed=seed)
            raw = estimate_populations(ct)
            corrected = mitigate(ct, cal)
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
            p = _mitigation_solve(freqs, cal)
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
            _mitigation_solve(np.array([0.7, 0.0, 0.3, 0.0]), cal)

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
            estimate_pauli(sv, PauliString(("Z",)), 10)

    def test_nan_state_rejected(self):
        with pytest.raises(ValidationError, match="not normalized"):
            sample_counts(np.array([np.nan, 0.0]), 10)

    def test_string_width_must_match_state(self):
        with pytest.raises(ValidationError, match="state has 2"):
            estimate_pauli(BELL_SV, PauliString(("Z",)))


class TestCountsIO:
    def test_roundtrip(self):
        ct = sample_counts(BELL_SV, 500, ReadoutNoise.uniform(0.01, 0.02, 2), seed=21)
        back = load_counts(dump_counts(ct))
        assert back == ct

    def test_text_layout(self):
        ct = CountsTable(2, 3, {"00": 2, "11": 1}, seed=5)
        assert dump_counts(ct) == "shots 3\nseed 5\n00 2\n11 1\n"

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            load_counts("shots 10\n00 10\n")  # missing seed

    @pytest.mark.parametrize(
        ("text", "line"),
        [
            ("shots 10\nseed 0\n0 4\n1 2\n0 8\n", 5),
            ("shots 10\nseed 0\nseed 3\n0 10\n", 3),
            ("shots 10\nseed 0\n0 10\nshots 10\n", 4),
        ],
    )
    def test_duplicate_lines_rejected(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}: duplicate") as info:
            load_counts(text)
        assert info.value.line == line
