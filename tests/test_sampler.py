import itertools
import math
import os
import re
import struct
import types

import numpy as np
import pytest
from conftest import (
    SAMPLED_ATOL,
    basis_gates,
    bisection_simplex_projection,
    dense_expectation,
    reference_sampled_sweep,
    to_matrix,
)

from qmaxent import DomainError, TomographyError, ValidationError, circuits
from qmaxent import circuit, sampler
from qmaxent.cli import ExperimentConfig, emit_caseab_csv, emit_csv, run_case_ab, run_sweep
from qmaxent.circuit import (
    MAX_QUBITS,
    Circuit,
    Gate,
    _matrix_1q,
    _sweep_states,
    apply_gates,
    parse_circuit,
    populations,
    qubit_count,
    simulate,
    zero_state,
)
from qmaxent.maxent import (
    LagrangeSet,
    MeasurementRecord,
    block_fidelity,
    density_from_lagrange,
    dump_record,
    fidelity,
    heatmap_scan,
    load_record,
    predict_population,
    reconstruct,
    solve_lagrange,
    solve_record,
)
from qmaxent.pauli import PauliString, decompose_ketbra
from qmaxent.sampler import (
    CalibrationMatrix,
    ReadoutNoise,
    build_calibration,
    estimate_coherence,
    estimate_paulis,
    estimate_populations,
    mitigate,
    sample_counts,
)

BELL = parse_circuit("qubits 2\nh 0\ncx 0 1")
BELL_SV = simulate(BELL)
PLUS = parse_circuit("qubits 1\nh 0")
X, Z = PauliString(("X",)), PauliString(("Z",))


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

    def test_noisy_tally_matches_the_exact_noisy_distribution(self):
        sv = simulate(parse_circuit("qubits 3\nh 0\nry(0.7) 1\ncx 1 2\nrx(2.1) 2"))
        noise = ReadoutNoise((0.02, 0.08, 0.15), (0.05, 0.01, 0.12))
        shots = 200000
        tally = sample_counts(sv, shots, noise, seed=21)
        expected = estimate_populations(sv, noise=noise)
        sigma = np.sqrt(expected * (1 - expected) / shots)
        assert np.all(np.abs(tally / shots - expected) <= 5 * sigma)

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

    @pytest.mark.parametrize("shots", [0, 2.5])
    def test_shots_must_be_a_positive_integer(self, shots):
        # A multinomial draw would truncate 2.5 to 2 shots.
        message = {
            0: r"^shots must be in \[1, 9223372036854775807\], got 0$",
            2.5: r"^shots = 2\.5 is not an integer$",
        }[shots]
        with pytest.raises(ValidationError, match=message):
            sample_counts(BELL_SV, shots)

    @pytest.mark.parametrize("shots", [2**63, 2**64 + 5, np.uint64(2**63)])
    def test_shots_beyond_the_draws_limit_rejected(self, shots):
        # A multinomial draw used to raise an untyped OverflowError.
        message = rf"^shots must be in \[1, 9223372036854775807\], got {shots}$"
        with pytest.raises(ValidationError, match=message):
            sample_counts(BELL_SV, shots)
        with pytest.raises(ValidationError, match=message):
            estimate_populations(BELL_SV, shots)
        with pytest.raises(ValidationError, match=message):
            estimate_coherence(BELL_SV, 4, 1, shots)

    def test_largest_shot_count_draws(self):
        tally = sample_counts(BELL_SV, 2**63 - 1, seed=4)
        assert tally[1] == tally[2] == 0
        assert int(tally[0]) + int(tally[3]) == 2**63 - 1

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            sample_counts(BELL_SV, 10, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, "3"])
    def test_non_integer_seed_rejected(self, seed):
        message = rf"^seed = {re.escape(repr(seed))} is not an integer$"
        with pytest.raises(ValidationError, match=message):
            sample_counts(BELL_SV, 10, seed=seed)
        with pytest.raises(ValidationError, match=message):
            estimate_populations(BELL_SV, 10, seed=seed)
        with pytest.raises(ValidationError, match=message):
            estimate_coherence(BELL_SV, 4, 1, 10, seed=seed)


class TestEstimatePopulations:
    def test_single_outcome(self):
        sv = simulate(parse_circuit("qubits 1"))
        np.testing.assert_allclose(estimate_populations(sv, 100, seed=0), [1.0, 0.0])

    def test_bell_split(self):
        # Seed 7 draws 55 and 45 of the two outcomes in 100 shots.
        assert sample_counts(BELL_SV, 100, seed=7).tolist() == [55, 0, 0, 45]
        np.testing.assert_allclose(
            estimate_populations(BELL_SV, 100, seed=7), [0.55, 0.0, 0.0, 0.45]
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
            assert estimate_paulis(simulate(c), [Z], shots, seed=5)[Z] == 1.0

    def test_x_eigenstate_is_exact(self):
        assert estimate_paulis(simulate(PLUS), [X], 10000, seed=6)[X] == 1.0

    def test_bell_zz(self):
        zz = PauliString(("Z", "Z"))
        value = estimate_paulis(simulate(BELL), [zz], 10000, seed=7)[zz]
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
            assert estimate_paulis(simulate(c), [ps])[ps] == pytest.approx(exact, abs=1e-10)

    def test_exact_noisy_mode_mitigates_back_to_exact(self):
        sv = simulate(parse_circuit("qubits 2\nry(0.8) 0\nrx(1.3) 1\ncx 0 1\nrz(0.4) 1"))
        noise = ReadoutNoise.uniform(0.02, 0.04, 2)
        cal = build_calibration(noise, 2)
        for letters in itertools.product("IXYZ", repeat=2):
            ps = PauliString(letters)
            if ps.is_identity:
                continue
            mitigated = estimate_paulis(sv, [ps], noise=noise, calibration=cal)[ps]
            assert abs(mitigated - estimate_paulis(sv, [ps])[ps]) <= 1e-12

    def test_sampled_converges_to_dense(self):
        c = parse_circuit("qubits 2\nry(0.8) 0\nrx(1.3) 1\ncx 0 1")
        ps = PauliString(("X", "Y"))
        exact = estimate_paulis(simulate(c), [ps])[ps]
        sampled = estimate_paulis(simulate(c), [ps], shots=100000, seed=8)[ps]
        assert sampled == pytest.approx(exact, abs=3 / math.sqrt(100000) + 1e-12)

    @pytest.mark.parametrize(
        ("strings", "message"),
        [
            (["XX"], r"^'XX' is not a PauliString; write PauliString\(tuple\('XX'\)\)$"),
            ([PauliString(("Z", "Z")), None], r"^None is not a PauliString$"),
        ],
    )
    def test_non_pauli_string_rejected(self, strings, message):
        # A plain str used to raise an untyped AttributeError.
        with pytest.raises(ValidationError, match=message):
            estimate_paulis(BELL_SV, strings, 100)

    def test_no_strings_no_draw(self):
        for shots in (None, 100):
            assert estimate_paulis(BELL_SV, [], shots) == {}

    def test_strings_sharing_a_basis_share_one_tally(self):
        sv = simulate(parse_circuit("qubits 2\nry(0.8) 0\nrx(1.3) 1\ncx 0 1"))
        xi, zz, iz = (PauliString(tuple(s)) for s in ("XI", "ZZ", "IZ"))
        shots, seed = 1000, 30
        means = estimate_paulis(sv, [xi, zz, iz], shots, seed=seed)

        def parity(tally, mask):
            signs = np.array([(-1.0) ** bin(i & mask).count("1") for i in range(4)])
            return float(signs @ (tally / shots))

        # The bases draw in the order of their first strings from one
        # generator: XI's, then the unrotated one that ZZ and IZ share.
        rng = np.random.default_rng(seed)
        rotated = populations(apply_gates(sv, (Gate("h", (0,)),), 2))
        first = rng.multinomial(shots, rotated / rotated.sum())
        shared = rng.multinomial(shots, populations(sv) / populations(sv).sum())
        assert means[xi] == parity(first, 0b01)
        assert means[zz] == parity(shared, 0b11)
        assert means[iz] == parity(shared, 0b10)


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

    @pytest.mark.parametrize(
        ("i", "j", "message"),
        [
            (2.0, 1, r"^basis index i = 2\.0 is not an integer$"),
            (1, 1.5, r"^basis index j = 1\.5 is not an integer$"),
            (np.float64(4.0), 1, r"^basis index i = np\.float64\(4\.0\) is not an integer$"),
        ],
    )
    def test_non_integer_index_rejected(self, i, j, message):
        # The message of circuit.coherence. An integral float used to hit
        # the plan cached for its integer, or raise an untyped TypeError.
        estimate_coherence(BELL_SV, 2, 1, shots_per_setting=10)
        for shots in (None, 10):
            with pytest.raises(ValidationError, match=message):
                estimate_coherence(BELL_SV, i, j, shots_per_setting=shots)

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

    def test_one_distribution_per_basis(self, monkeypatch):
        sv = simulate(parse_circuit("qubits 3\nh 0\nry(0.7) 1\ncx 1 2"))
        rows = []
        draw = sampler._Readout.draw

        def counting(self, dists, seed):
            rows.append(len(dists))
            return draw(self, dists, seed)

        monkeypatch.setattr(sampler._Readout, "draw", counting)
        for k in range(2, 9):
            estimate_coherence(sv, k, 1, shots_per_setting=100, seed=k)
        # One draw call per estimate; |K><1| has 2^3 strings but
        # 2^popcount(K-1) bases, one row each.
        assert rows == [2 ** bin(k - 1).count("1") for k in range(2, 9)]
        assert sum(rows) == 26

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


@pytest.fixture
def fresh_caches():
    """Empty the per-K plan cache, the one cache of the measurement path;
    the returned function empties it again."""
    sampler._ketbra_plan.cache_clear()
    yield sampler._ketbra_plan.cache_clear
    sampler._ketbra_plan.cache_clear()


def _random_state(rng, num_qubits):
    amplitudes = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return amplitudes / np.linalg.norm(amplitudes)


def _uncached_coherence(sv, k, shots, noise, seed, calibration):
    """Reference x1K from the one-generator reference: each basis rotates
    ``sv`` from the start and draws in plan order from ``default_rng(seed)``,
    with no population draw before them."""
    num_qubits = int(math.log2(sv.size))
    matrix = None if noise is None else build_calibration(noise, num_qubits).entries
    inverse = None if calibration is None else calibration.inverse
    _, values = reference_sampled_sweep(
        sv[None], (k,), shots, matrix, inverse, seed, populations=False
    )
    return values[0][1]


NOISE = ReadoutNoise((0.03, 0.08, 0.05), (0.06, 0.02, 0.1))
MODES = {
    "exact": (None, None, False),
    "shots": (700, None, False),
    "noisy": (700, NOISE, False),
    "mitigated": (700, NOISE, True),
}


def _bits(*values) -> bytes:
    """The bytes of floats and complex numbers, signed zeros and NaNs included."""
    parts = []
    for v in values:
        v = complex(v)
        parts.append(struct.pack("<dd", v.real, v.imag))
    return b"".join(parts)


class TestSharedMeasurementWork:
    @pytest.mark.parametrize("num_qubits", [2, 3])
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_sweep_over_k_equals_each_k_alone(self, fresh_caches, num_qubits, mode):
        shots, noise, mitigated = MODES[mode]
        if noise is not None:
            noise = ReadoutNoise(noise.p01[:num_qubits], noise.p10[:num_qubits])
        calibration = build_calibration(noise, num_qubits) if mitigated else None
        rng = np.random.default_rng(60 + num_qubits)
        for trial in range(3):
            sv = _random_state(rng, num_qubits)
            targets = range(2, 2**num_qubits + 1)
            seeds = {k: 100 * trial + 7 * k for k in targets}
            swept = {
                k: estimate_coherence(sv, k, 1, shots, noise, seeds[k], calibration)
                for k in targets
            }
            for k in targets:
                fresh_caches()
                alone = estimate_coherence(sv, k, 1, shots, noise, seeds[k], calibration)
                assert swept[k] == alone
                want = _uncached_coherence(sv, k, shots, noise, seeds[k], calibration)
                assert abs(swept[k].real - want.real) <= SAMPLED_ATOL
                assert abs(swept[k].imag - want.imag) <= SAMPLED_ATOL

    @pytest.mark.parametrize("num_qubits", [2, 3])
    @pytest.mark.parametrize("mode", ["shots", "noisy", "mitigated"])
    def test_sweep_points_are_the_one_generator_reference(
        self, monkeypatch, tmp_path, num_qubits, mode
    ):
        # The stream contract: a sampled sweep draws every row from one
        # generator seeded with the config seed, in the order (theta, K,
        # [populations, then each basis of K's plan]), each theta's state
        # simulated in full and rotated from the start.
        shots, noise, mitigated = MODES[mode]
        if noise is not None:
            noise = ReadoutNoise(noise.p01[:num_qubits], noise.p10[:num_qubits])
        # threeq_a's states give every string with an odd number of Y mean
        # 0, so a Y basis rotated the wrong way would read the same
        # distributions; two more phases give those strings means of up
        # to 0.87 at every theta.
        text = {
            2: circuits.load("twoq_a"),
            3: circuits.load("threeq_a") + "rz(pi/3) 0\nrx(0.7) 1\n",
        }[num_qubits]
        path = tmp_path / "model.qc"
        path.write_text(text)
        cfg = ExperimentConfig(
            circuit_path=str(path), theta_steps=5,
            backend=mode if mode != "mitigated" else "noisy",
            shots=shots, noise=noise, mitigate=mitigated, seed=17,
        )
        tallies = []
        tally = sampler._Readout.tally
        monkeypatch.setattr(
            sampler._Readout, "tally",
            lambda self, dists, seed: tallies.append(tally(self, dists, seed)) or tallies[-1],
        )
        sweep = run_sweep(cfg)
        targets = tuple(range(2, 2**num_qubits + 1))
        assert len(sweep) == 5 * len(targets)
        states = np.array([
            simulate(parse_circuit(text, theta)) for theta in dict.fromkeys(sweep.theta.tolist())
        ])
        calibration = build_calibration(noise, num_qubits) if noise is not None else None
        want_tallies, want = reference_sampled_sweep(
            states, targets, shots, None if noise is None else calibration.entries,
            calibration.inverse if mitigated else None, cfg.seed,
        )
        # One multinomial call, with the reference's tallies bit for bit.
        assert len(tallies) == 1
        assert tallies[0].tobytes() == np.array(want_tallies).tobytes()
        points = zip(sweep.x11.tolist(), sweep.x1k.tolist(), sweep.xkk_true.tolist())
        for (got_x11, got_x1k, got_xkk), (x11, x1k, xkk) in zip(points, want, strict=True):
            got = (got_x11, got_x1k.real, got_x1k.imag, got_xkk)
            if not mitigated:
                # Unmitigated populations are the tally over shots itself.
                assert _bits(got_x11, got_xkk) == _bits(x11, xkk)
            for a, b in zip(got, (x11, x1k.real, x1k.imag, xkk)):
                assert abs(a - b) <= SAMPLED_ATOL

    @pytest.mark.parametrize(
        ("model", "k_targets", "rows"),
        [
            # Every K: the Z basis and all 3^n - 1 others, so every prefix
            # is wanted: at qubit q, 3^q take Y and 2 3^q take X or Y.
            ("twoq_a", (), [1, 2, 3, 6]),
            ("threeq_a", (), [1, 2, 3, 6, 9, 18]),
            # K = 3 reads X or Y on qubit 1 alone: bases 3 and 6 beside the
            # Z basis 0, and no prefix takes X or Y on qubits 0 and 2.
            ("threeq_a", (3,), [1, 2]),
            # K = 3 and K = 8: qubits 0 and 2 rotate the prefixes of K = 8
            # alone (Y on one of two, then on four of eight), qubit 1 those
            # of both K (Y on 6 of K = 3 and 7, 8 of K = 8; X on 3 and 4, 5).
            ("threeq_a", (3, 8), [1, 2, 3, 6, 4, 8]),
            # K = 2 reads X or Y on qubit 0, K = 64 on every qubit: qubit
            # q >= 1 rotates the 2^(q+1) prefixes of K = 64 alone, half of
            # them Y, of the 3^(q+1) a walk over every basis would build.
            ("sixq", (2, 64), [1, 2, 2, 4, 4, 8, 8, 16, 16, 32, 32, 64]),
        ],
        ids=[
            "twoq_a-every_k", "threeq_a-every_k", "threeq_a-k3", "threeq_a-k3,8",
            "sixq-k2,64",
        ],
    )
    def test_rotations_apply_each_prefix_once(
        self, fresh_caches, monkeypatch, tmp_path, model, k_targets, rows
    ):
        applied = []
        apply_1q = sampler._apply_1q

        def counting(state, u, qubit, n):
            applied.append((qubit, len(state)))
            return apply_1q(state, u, qubit, n)

        monkeypatch.setattr(sampler, "_apply_1q", counting)
        if model == "sixq":
            model = tmp_path / "sixq.qc"
            model.write_text("qubits 6\nh 0\nry(theta) 1\ncx 0 2\nh 3\nrx(theta) 4\ncx 3 5\n")
        cfg = ExperimentConfig(
            circuit_path=str(model), theta_steps=7, k_targets=k_targets,
            backend="shots", shots=50,
        )
        run_sweep(cfg)
        # The rotations go level by level: at each qubit, one RZ(-pi/2)
        # call on every wanted prefix that takes Y there, then one H call
        # on every one that takes X or Y, each over all their thetas' rows.
        # So at most 2n calls, and each has 7 rows per prefix it rotates:
        # only the prefixes of the bases the sweep draws.
        assert [length for _, length in applied] == [7 * r for r in rows]
        assert [qubit for qubit, _ in applied] == sorted(qubit for qubit, _ in applied)

    def test_second_sweep_builds_no_plan(self, fresh_caches, monkeypatch):
        calls = {"decompose": 0, "bases": 0}

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        monkeypatch.setattr(
            sampler, "decompose_ketbra", counted("decompose", decompose_ketbra)
        )
        monkeypatch.setattr(sampler, "_group_bases", counted("bases", sampler._group_bases))
        rng = np.random.default_rng(71)
        for sweep in range(2):
            sv = _random_state(rng, 3)
            for k in range(2, 9):
                estimate_coherence(sv, k, 1, shots_per_setting=50, seed=k)
            if sweep == 0:
                # One plan per K: 7 decompositions of 8 strings each,
                # grouped into bases once each.
                assert calls == {"decompose": 7, "bases": 7}
                calls.update(decompose=0, bases=0)
        assert calls == {"decompose": 0, "bases": 0}


def _sampled_config(mitigate=True, noise=ReadoutNoise.uniform(0.02, 0.04, 2)):
    return ExperimentConfig(
        circuit_path="twoq_a", theta_steps=3, backend="noisy", shots=500,
        noise=noise, mitigate=mitigate, seed=2,
    )


# A normalized 8-qubit state: past MAX_QUBITS, so no estimator reads it.
EIGHT_QUBITS = np.full(2**8, 1 / 16, dtype=complex)
QUBIT_COUNT_OF_SV = "qubit count of sv must be in [1, 6], got 8"


class TestReadoutChecks:
    """Each check of the readout fires with its message, through the
    public estimators and through the sweep's kernel alike."""

    def test_basis_rotations_are_unitary(self):
        # The rotated rows are not checked again because every gate of a
        # basis is unitary to rounding: H and RZ(-pi/2), on any qubit.
        gates = {
            (gate.kind, gate.angle)
            for k in range(2, 9)
            for basis in sampler._ketbra_plan(k, 1, 3)[0]
            for gate in basis_gates(basis, 3)
        }
        assert gates == {("h", None), ("rz", -math.pi / 2)}
        h, rz = (_matrix_1q(Gate(kind, (0,), angle)) for kind, angle in sorted(gates))
        # The matrices the sampler applies are these bits.
        assert (sampler._H.tobytes(), sampler._RZ.tobytes()) == (h.tobytes(), rz.tobytes())
        for u in (h, rz):
            assert np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-15

    @pytest.mark.parametrize("model", circuits.names())
    def test_rotated_rows_keep_their_norm(self, model):
        # Every basis of every K of each bundled model at 401 thetas: the
        # norm of a rotated row moves by rounding only, far inside the
        # 1e-10 tolerance of the checks made before the rotations.
        text = circuits.load(model)
        states = _sweep_states(text, np.linspace(0.0, 2 * np.pi, 401).tolist())
        n = states.shape[1].bit_length() - 1
        bases = {b for k in range(2, 2**n + 1) for b in sampler._ketbra_plan(k, 1, n)[0]}
        norms = types.SimpleNamespace(distribution=lambda block: np.linalg.norm(block, axis=-1))
        keys, reads = sampler._basis_reads(states, n, bases, norms)
        assert keys == sorted(bases)
        assert float(np.abs(reads - 1.0).max()) <= 1e-14

    def test_population_sum(self):
        cal = build_calibration(ReadoutNoise.uniform(0.02, 0.04, 2), 2)
        # Every lone-state estimator checks the population sum alone.
        for shots in (None, 100):
            with pytest.raises(ValidationError, match="state is not normalized"):
                estimate_populations(1.1 * BELL_SV, shots, calibration=cal)
            with pytest.raises(ValidationError, match="state is not normalized"):
                estimate_coherence(1.1 * BELL_SV, 4, 1, shots, calibration=cal)
            with pytest.raises(ValidationError, match="state is not normalized"):
                estimate_paulis(1.1 * BELL_SV, [PauliString(("X", "X"))], shots, calibration=cal)
        # The check of a lone state is its norm, then its population sum.
        with pytest.raises(TomographyError, match="^statevector norm drifted"):
            circuit._check_state(1.1 * BELL_SV)
        with pytest.raises(ValidationError, match="^state is not normalized"):
            circuit._check_state((1 + 0.75e-10) * BELL_SV)

    def test_a_lone_state_within_the_norm_tolerance_fails_its_population_sum(self):
        # |a| off by 0.75e-10 passes the 1e-10 norm check, but sum |a|^2 is
        # off by 1.5e-10; the estimators check the unrotated state.
        sv = (1 + 0.75e-10) * BELL_SV
        for shots in (None, 100):
            with pytest.raises(ValidationError, match="state is not normalized"):
                estimate_coherence(sv, 4, 1, shots)
            with pytest.raises(ValidationError, match="state is not normalized"):
                estimate_paulis(sv, [PauliString(("X", "X"))], shots)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_drawn_frequencies_pass_the_frequency_check(self, n):
        # ``draw`` mitigates what it is given unchecked, because every row
        # it can be given is a distribution. A sampled row is a tally over
        # shots: >= 0, its sum within 2^n ulps of 1. An exact row is p M^T:
        # M is column-stochastic, and p is the populations of a state that
        # passed the population screen, here at its edges 1 +- _NORM_ATOL,
        # rotated into any measurement basis.
        rng = np.random.default_rng(n)
        noises = [None] + [ReadoutNoise.uniform(p, p, n) for p in (0.0, 0.5)] + [
            ReadoutNoise(tuple(rng.uniform(0, 0.5, n)), tuple(rng.uniform(0, 0.5, n)))
        ]
        amplitudes = rng.standard_normal((6, 2**n)) + 1j * rng.standard_normal((6, 2**n))
        states = amplitudes / np.linalg.norm(amplitudes, axis=1, keepdims=True)
        edge = circuit._NORM_ATOL * (1 - 2**-10)
        edges = np.concatenate([states * math.sqrt(1 - edge), states * math.sqrt(1 + edge)])
        for state in edges:
            circuit._check_state(state)
        sums = (np.abs(edges) ** 2).sum(axis=1) - 1
        assert np.abs(np.abs(sums) - edge).max() <= 1e-13
        # Each row gets mitigate's own check, which raises on one that fails.
        for noise in noises:
            readout = sampler._Readout(n, None, noise, None)
            _, reads = sampler._basis_reads(edges, n, range(3**n), readout)
            for row in reads.reshape(-1, 2**n):
                sampler._check_frequencies(row)
            for shots in (1, 7, 8192, 2**40):
                readout = sampler._Readout(n, shots, noise, None)
                tally = readout.tally(readout.distribution(states), seed=shots)
                for row in tally / shots:
                    sampler._check_frequencies(row)

    def test_ill_conditioned_calibration(self):
        singular = ReadoutNoise.uniform(0.5, 0.5, 2)
        cal = build_calibration(singular, 2)
        for shots in (None, 100):
            with pytest.raises(DomainError, match="singular or ill-conditioned"):
                estimate_populations(BELL_SV, shots, singular, calibration=cal)
            with pytest.raises(DomainError, match="singular or ill-conditioned"):
                estimate_coherence(BELL_SV, 4, 1, shots, singular, calibration=cal)
        with pytest.raises(DomainError, match="singular or ill-conditioned"):
            run_sweep(_sampled_config(noise=singular))

    def test_calibration_and_noise_widths(self):
        three = ReadoutNoise.uniform(0.02, 0.04, 3)
        with pytest.raises(ValidationError, match=r"covers 8 outcomes, frequencies have shape \(4,\)"):
            estimate_populations(BELL_SV, 100, calibration=build_calibration(three, 3))
        with pytest.raises(ValidationError, match=r"noise covers 3 qubit\(s\), asked for 2"):
            estimate_coherence(BELL_SV, 4, 1, 100, three)
        with pytest.raises(ValidationError, match=r"noise covers 3 qubit\(s\), asked for 2"):
            run_sweep(_sampled_config(mitigate=False, noise=three))

    @pytest.mark.parametrize(
        ("call", "message"),
        [
            (lambda: mitigate(np.full(4, 0.25), "x"), "cal = 'x' is not a CalibrationMatrix"),
            (
                lambda: estimate_populations(BELL_SV, shots=10, calibration="x"),
                "calibration = 'x' is not a CalibrationMatrix",
            ),
            (
                lambda: estimate_populations(BELL_SV, shots=10, noise="x"),
                "noise = 'x' is not a ReadoutNoise",
            ),
            (lambda: sample_counts(BELL_SV, 10, noise="x"), "noise = 'x' is not a ReadoutNoise"),
            (lambda: build_calibration("x", 2), "noise = 'x' is not a ReadoutNoise"),
            (lambda: build_calibration({}, 2), "noise = {} is not a ReadoutNoise"),
            (
                lambda: estimate_coherence(BELL_SV, 1, 4, 10, noise={}),
                "noise = {} is not a ReadoutNoise",
            ),
        ],
    )
    def test_a_noise_model_or_calibration_of_the_wrong_type_names_itself(self, call, message):
        with pytest.raises(ValidationError) as caught:
            call()
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        ("call", "message"),
        [
            (lambda: ReadoutNoise(0.1, 0.1), "p01 = 0.1 is not a sequence of real numbers"),
            (
                lambda: ReadoutNoise((0.1,), ("0.1",)),
                "p10 = ('0.1',) is not a sequence of real numbers",
            ),
            (lambda: CalibrationMatrix("2", np.eye(4)), "num_qubits = '2' is not an integer"),
            (lambda: CalibrationMatrix(2.0, np.eye(4)), "num_qubits = 2.0 is not an integer"),
            (lambda: Circuit(2.5), "num_qubits = 2.5 is not an integer"),
            (lambda: Circuit(2, ["h"]), "gates = ['h'] is not a sequence of Gates"),
            (lambda: apply_gates(zero_state(2), "h", 2), "gates = 'h' is not a sequence of Gates"),
            (
                lambda: Circuit(2, Gate("h", (0,))),
                "gates = Gate(kind='h', targets=(0,), angle=None) is not a sequence of Gates",
            ),
            (
                lambda: apply_gates(zero_state(2), Gate("h", (0,)), 2),
                "gates = Gate(kind='h', targets=(0,), angle=None) is not a sequence of Gates",
            ),
            (lambda: apply_gates(zero_state(2), (), 2.0), "n = 2.0 is not an integer"),
            (lambda: simulate("qubits 1"), "c = 'qubits 1' is not a Circuit"),
            (lambda: zero_state(2.0), "num_qubits = 2.0 is not an integer"),
            (lambda: zero_state(MAX_QUBITS + 1), "num_qubits must be in [1, 6], got 7"),
            (lambda: zero_state(-1), "num_qubits must be in [1, 6], got -1"),
            (lambda: apply_gates(np.ones(128), (), MAX_QUBITS + 1), "n must be in [1, 6], got 7"),
            (lambda: apply_gates(np.ones(1), (), -1), "n must be in [1, 6], got -1"),
            (
                lambda: CalibrationMatrix(MAX_QUBITS + 1, np.eye(128)),
                "num_qubits must be in [1, 6], got 7",
            ),
            (lambda: CalibrationMatrix(-1, np.eye(1)), "num_qubits must be in [1, 6], got -1"),
            (lambda: parse_circuit(5), "text = 5 is not a str"),
            (lambda: parse_circuit(b"qubits 1"), "text = b'qubits 1' is not a str"),
            (lambda: qubit_count(5), "text = 5 is not a str"),
            (lambda: qubit_count(["qubits 1"]), "text = ['qubits 1'] is not a str"),
            (lambda: load_record(5), "text = 5 is not a str"),
            (
                lambda: build_calibration(ReadoutNoise.uniform(0.1, 0.1, 1), "1"),
                "num_qubits = '1' is not an integer",
            ),
            (
                lambda: build_calibration(ReadoutNoise.uniform(0.1, 0.1, 7), MAX_QUBITS + 1),
                "num_qubits must be in [1, 6], got 7",
            ),
            (lambda: estimate_populations(EIGHT_QUBITS), QUBIT_COUNT_OF_SV),
            (lambda: estimate_paulis(EIGHT_QUBITS, ()), QUBIT_COUNT_OF_SV),
            (lambda: sample_counts(EIGHT_QUBITS, 10), QUBIT_COUNT_OF_SV),
            (lambda: estimate_coherence(EIGHT_QUBITS, 1, 2), QUBIT_COUNT_OF_SV),
            (lambda: predict_population("0.5", 0.1), "x_11 = '0.5' is not a real number"),
            (lambda: predict_population(0.5, "0.1"), "x_1k = '0.1' is not a complex number"),
            (
                lambda: heatmap_scan(["a"], [0.0]),
                "lam11_values = ['a'] is not a sequence of real numbers",
            ),
            (lambda: heatmap_scan(5, [0.0]), "lam11_values = 5 is not a sequence of real numbers"),
            (
                lambda: heatmap_scan(["1.5"], [0.0]),
                "lam11_values = ['1.5'] is not a sequence of real numbers",
            ),
            (
                lambda: heatmap_scan([0.0], np.zeros((1, 1))),
                "re_lam1k_values = array([[0.]]) is not a sequence of real numbers",
            ),
            (lambda: heatmap_scan([0.0], [0.0], lam_kk="1"), "lam_kk = '1' is not a real number"),
            (
                lambda: heatmap_scan([0.0], [0.0], im_lam1k=None),
                "im_lam1k = None is not a real number",
            ),
            (lambda: density_from_lagrange(5), "ls = 5 is not a LagrangeSet"),
            (lambda: block_fidelity(1, 2), "a = 1 is not a LagrangeSet"),
            (lambda: reconstruct(5), "mr = 5 is not a MeasurementRecord"),
            (lambda: solve_lagrange(5), "mr = 5 is not a MeasurementRecord"),
            (lambda: dump_record(5), "mr = 5 is not a MeasurementRecord"),
            (lambda: run_sweep(5), "cfg = 5 is not an ExperimentConfig"),
            (lambda: run_case_ab(5), "cfg = 5 is not an ExperimentConfig"),
            (lambda: emit_csv(5, os.devnull), "s = 5 is not a Sweep"),
            (lambda: emit_caseab_csv(5, os.devnull), "s = 5 is not a Sweep"),
            (
                lambda: parse_circuit("qubits 1\nrx(theta) 0", "1"),
                "theta = '1' is not a real number",
            ),
            (lambda: parse_circuit("qubits 1\nrx(theta) 0", 1j), "theta = 1j is not a real number"),
            (
                lambda: estimate_paulis(BELL_SV, 5),
                "strings = 5 is not an iterable of PauliStrings",
            ),
            (lambda: PauliString(5), "letters = 5 is not an iterable of Pauli letters"),
            (lambda: Gate("h", 0), "targets = 0 is not a tuple"),
            (lambda: ReadoutNoise.uniform(0.1, 0.1, "2"), "num_qubits = '2' is not an integer"),
            (lambda: ReadoutNoise.uniform(0.1, 0.1, -1), "num_qubits must be >= 0, got -1"),
            (
                lambda: mitigate("a", CalibrationMatrix(2, np.eye(4))),
                "freqs = 'a' is not an array of real numbers",
            ),
            (lambda: fidelity("a", np.eye(4) / 4), "rho: expected a numeric matrix, got 'a'"),
            (
                lambda: MeasurementRecord(4, 2, 10**400, 0),
                f"x_11 = {10**400} is past the float range",
            ),
            (
                lambda: LagrangeSet(4, 2, 10**400, 0, 0),
                f"lam_11 = {10**400} is past the float range",
            ),
            (lambda: predict_population(10**400, 0.1), f"x_11 = {10**400} is past the float range"),
            (
                lambda: heatmap_scan([10**400], [0.0]),
                f"lam11_values = [{10**400}] holds a number past the float range",
            ),
            (
                lambda: ReadoutNoise((10**400,), (0.1,)),
                f"p01 = ({10**400},) holds a number past the float range",
            ),
            (
                lambda: solve_record(MeasurementRecord(4, 2, 0.5, 0.1), "0.1"),
                "x_kk = '0.1' is not a real number",
            ),
            (
                lambda: parse_circuit("qubits 1\nrx(theta) 0", 10**400),
                f"theta = {10**400} is past the float range",
            ),
            (
                lambda: _sweep_states("qubits 1\nrx(theta) 0", [0.5, 10**400]),
                f"theta = {10**400} is past the float range",
            ),
            (
                lambda: ExperimentConfig("twoq_a", theta_start=10**400, theta_steps=2),
                f"theta_start = {10**400} is past the float range",
            ),
            (
                lambda: zero_state(10**5000),
                "num_qubits must be in [1, 6], got an int of 5001 digits",
            ),
            (
                lambda: MeasurementRecord(4, 2, 10**5000, 0),
                "x_11 = an int of 5001 digits is past the float range",
            ),
            (
                lambda: MeasurementRecord(4, 2, 0.5, -(10**5000)),
                "x_1k = a negative int of 5001 digits is past the float range",
            ),
            (
                lambda: heatmap_scan([10**5000], [0.0]),
                "lam11_values = a list with an int too long to print "
                "holds a number past the float range",
            ),
            (
                lambda: run_sweep(ExperimentConfig("twoq_a", theta_steps=2, k_targets=(10**5000,))),
                "k target an int of 5001 digits exceeds dimension 4",
            ),
            (lambda: Gate("rx", (0,), math.inf), "angle = inf is not finite"),
            (lambda: Gate("foo", (0,)), "unknown gate kind 'foo'"),
            (lambda: Gate("cx", (0,)), "gate cx takes 2 qubit(s), got (0,)"),
            (lambda: Gate("cx", (1, 1)), "gate cx needs two distinct qubits"),
            (
                lambda: Gate("h", (0,), 0.5),
                "gate h: angle must be present exactly for rx/ry/rz",
            ),
            (lambda: Gate("rx", (0,)), "gate rx: angle must be present exactly for rx/ry/rz"),
            (
                lambda: Circuit(1, (Gate("h", (1,)),)),
                "gate h targets (1,) out of range for 1 qubit(s)",
            ),
            (lambda: parse_circuit("qubits 1\nrx() 0"), "line 2: missing angle expression"),
            (lambda: parse_circuit("qubits 2\nrx(0.5) 0 1"), "line 2: rx takes one qubit"),
            (
                lambda: fidelity(np.ones((2, 3)), np.eye(4) / 4),
                "rho: expected a square matrix, got shape (2, 3)",
            ),
            (lambda: PauliString(()), "empty Pauli string"),
            (lambda: PauliString(("X", "A")), "bad Pauli letters ['A']"),
            (
                lambda: ReadoutNoise((0.1,), (0.1, 0.2)),
                "p01 and p10 must cover the same qubits",
            ),
            (lambda: CalibrationMatrix(1, np.eye(4)), "expected shape (2, 2), got (4, 4)"),
        ],
    )
    def test_an_argument_of_the_wrong_type_names_itself(self, call, message):
        with pytest.raises(ValidationError) as caught:
            call()
        assert str(caught.value) == message

    def test_flip_probabilities_may_be_a_numpy_array(self):
        noise = ReadoutNoise(np.array([0.1, 0.2]), np.array([0.0, 0.05]))
        assert noise == ReadoutNoise((0.1, 0.2), (0.0, 0.05))
        assert all(type(p) is float for p in noise.p01 + noise.p10)


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

    @pytest.mark.parametrize(
        ("value", "shown"), [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")]
    )
    def test_non_finite_entry_named(self, value, shown):
        entries = np.array([[0.9, 0.1], [0.1, 0.9]])
        entries[1, 0] = value
        with pytest.raises(ValidationError, match=rf"entry \[1, 0\] = {shown} is not finite"):
            CalibrationMatrix(1, entries)

    @pytest.mark.parametrize("num_qubits", range(1, 7))
    def test_inverse_inverts_the_built_matrix(self, num_qubits):
        rng = np.random.default_rng(30 + num_qubits)
        noise = ReadoutNoise(
            tuple(rng.uniform(0.0, 0.2, num_qubits)),
            tuple(rng.uniform(0.0, 0.2, num_qubits)),
        )
        cal = build_calibration(noise, num_qubits)
        assert np.abs(cal.inverse @ cal.entries - np.eye(cal.dim)).max() <= 1e-12

    def test_inverse_is_read_only_and_cached(self):
        cal = build_calibration(ReadoutNoise((0.02, 0.07), (0.05, 0.01)), 2)
        assert cal.inverse is cal.inverse
        with pytest.raises(ValueError):
            cal.inverse[0, 0] = 0.5


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

    @pytest.mark.parametrize(
        "freqs",
        [
            [math.nan, 0.5, 0.25, 0.25],
            [math.inf, 0.0, 0.0, 0.0],
            [-math.inf, 1.0, 0.0, 0.0],
            [math.inf, -math.inf, 0.5, 0.5],
            [-0.1, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [2.0, 0.0, 0.0, 0.0],
        ],
    )
    def test_non_distribution_rejected(self, freqs):
        cal = build_calibration(ReadoutNoise.uniform(0.02, 0.04, 2), 2)
        with pytest.raises(ValidationError, match=">= 0 and sum to 1"):
            mitigate(np.array(freqs), cal)

    def test_direct_path_is_the_inverse_matvec(self):
        rng = np.random.default_rng(21)
        cal = build_calibration(ReadoutNoise((0.02, 0.07, 0.03), (0.05, 0.01, 0.04)), 3)
        for _ in range(20):
            freqs = cal.entries @ rng.dirichlet(np.ones(cal.dim))
            p = mitigate(freqs, cal)
            assert p.min() >= 0.0
            assert np.array_equal(p, cal.inverse @ freqs)
            assert np.abs(p - np.linalg.solve(cal.entries, freqs)).max() <= 1e-12

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
    def test_matches_the_bisection_oracle(self, num_qubits, draws):
        rng = np.random.default_rng(40 + num_qubits)
        constrained = 0
        for _ in range(draws):
            cal, freqs = _constrained_problem(rng, num_qubits)
            direct = np.linalg.solve(cal.entries, freqs)
            if direct.min() >= 0.0:
                continue
            constrained += 1
            p = mitigate(freqs, cal)
            oracle, tau = bisection_simplex_projection(direct)
            assert np.abs(p - oracle).max() <= 1e-12
            assert abs(p.sum() - 1.0) <= 1e-12
            assert p.min() >= 0.0
            free = p > 0.0
            assert np.abs(p[free] - (direct[free] - tau)).max() <= 1e-12
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
            estimate_paulis(sv, [Z], 10)

    def test_nan_state_rejected(self):
        with pytest.raises(ValidationError, match="not normalized"):
            sample_counts(np.array([np.nan, 0.0]), 10)

    def test_string_width_must_match_state(self):
        with pytest.raises(ValidationError, match="state has 2"):
            estimate_paulis(BELL_SV, [Z])

