"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured figure of merit (run with -s to see them all).
"""

import time

import numpy as np
from conftest import (
    assemble,
    build_exponent,
    matrix_exp_hermitian,
    newton_lagrange,
    random_feasible_record,
)

from qmaxent.circuit import parse_circuit, populations, simulate
from qmaxent.cli import ExperimentConfig, run_sweep
from qmaxent.maxent import (
    LagrangeSet,
    density_from_lagrange,
    solve_lagrange,
)
from qmaxent.pauli import decompose_ketbra
from qmaxent.sampler import ReadoutNoise, estimate_coherence
from qmaxent import circuits

TWO_QUBIT_MODELS = ("twoq_a", "twoq_b", "twoq_c")
THREE_QUBIT_MODEL = "threeq_a"
CORPUS = TWO_QUBIT_MODELS + (THREE_QUBIT_MODEL,)


def _report(label: str, detail: str) -> None:
    print(f"[PASS] {label}: {detail}")


def _exact_config(circuit: str, k_targets) -> ExperimentConfig:
    return ExperimentConfig(
        circuit_path=circuit, theta_steps=21, k_targets=tuple(k_targets),
        backend="exact",
    )


def _sampling_config(circuit: str, backend: str, seed: int, mitigate: bool = False):
    num_qubits = parse_circuit(circuits.load(circuit), theta=0.0).num_qubits
    noise = (
        ReadoutNoise.uniform(0.02, 0.04, num_qubits) if backend == "noisy" else None
    )
    return ExperimentConfig(
        circuit_path=circuit,
        theta_steps=11,
        k_targets=tuple(range(2, 2**num_qubits + 1)),
        backend=backend,
        shots=8192,
        noise=noise,
        mitigate=mitigate,
        seed=seed,
    )


def test_criterion_1_prediction_accuracy_two_qubit():
    start = time.perf_counter()
    worst = 0.0
    for circuit in TWO_QUBIT_MODELS:
        sweep = run_sweep(_exact_config(circuit, (2, 3, 4)))
        assert len(sweep) == 63
        for theta, k, abs_diff in zip(sweep.theta, sweep.k, sweep.abs_diff.tolist()):
            assert abs_diff <= 1e-8, (circuit, theta, k, abs_diff)
            worst = max(worst, abs_diff)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        "criterion 1 (2-qubit prediction accuracy)",
        f"worst |pred - true| = {worst:.2e} <= 1e-8 over 3 models x 21 angles "
        f"x K in {{2,3,4}}, {elapsed:.2f}s < 1s",
    )


def test_criterion_2_prediction_accuracy_three_qubit():
    start = time.perf_counter()
    sweep = run_sweep(_exact_config(THREE_QUBIT_MODEL, range(2, 9)))
    assert len(sweep) == 21 * 7
    worst = float(sweep.abs_diff.max())
    assert worst <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(
        "criterion 2 (3-qubit prediction accuracy)",
        f"worst |pred - true| = {worst:.2e} <= 1e-8 over 21 angles x K in "
        f"{{2..8}}, {elapsed:.2f}s < 5s",
    )


def test_criterion_3_forward_inverse_roundtrip():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_roundtrip = 0.0
    worst_agreement = 0.0
    for _ in range(1000):
        mr = random_feasible_record(rng)
        closed = solve_lagrange(mr)
        newton = newton_lagrange(mr)
        k = mr.index_k - 1
        for solution in (closed, newton):
            rho = density_from_lagrange(solution)
            worst_roundtrip = max(
                worst_roundtrip,
                abs(rho[0, 0].real - mr.x_11),
                abs(rho[0, k] - mr.x_1k),
                abs(rho[k, k].real - mr.x_kk),
            )
        worst_agreement = max(
            worst_agreement,
            abs(closed.lam_11 - newton.lam_11),
            abs(closed.lam_1k - newton.lam_1k),
            abs(closed.lam_kk - newton.lam_kk),
        )
    assert worst_roundtrip <= 1e-8
    assert worst_agreement <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        "criterion 3 (forward/inverse roundtrip)",
        f"1000 records: worst reproduction {worst_roundtrip:.2e} <= 1e-8, "
        f"closed-form vs Newton {worst_agreement:.2e} <= 1e-6, "
        f"{elapsed:.2f}s < 10s",
    )


def test_criterion_4_maxent_structure():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(1000):
        dim_n = int(rng.choice([4, 8]))
        ls = LagrangeSet(
            dim_n,
            int(rng.integers(2, dim_n + 1)),
            rng.uniform(-3, 3),
            complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            rng.uniform(-3, 3),
        )
        rho = density_from_lagrange(ls)
        exp_a = matrix_exp_hermitian(build_exponent(ls))
        oracle = exp_a / np.trace(exp_a).real
        worst = max(worst, float(np.abs(rho - oracle).max()))
        assert np.abs(rho - oracle).max() <= 1e-10
        # type invariants
        assert np.abs(rho - rho.conj().T).max() <= 1e-10
        assert abs(np.trace(rho).real - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rho).min() >= -1e-10
        z = np.trace(exp_a).real
        for i in range(dim_n):
            if i not in (0, ls.index_k - 1):
                assert abs(rho[i, i].real - 1.0 / z) <= 1e-10
    _report(
        "criterion 4 (maxent structure)",
        f"1000 multiplier sets: analytic vs brute-force exp(A)/tr deviation "
        f"{worst:.2e} <= 1e-10; trace/hermiticity/positivity/uniformity hold",
    )


def test_criterion_5_pauli_decomposition_exactness():
    worst = 0.0
    for n in (1, 2, 3):
        dim = 2**n
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                target = np.zeros((dim, dim), dtype=complex)
                target[i - 1, j - 1] = 1.0
                back = assemble(decompose_ketbra(i, j, n))
                worst = max(worst, float(np.abs(back - target).max()))
                assert np.abs(back - target).max() <= 1e-12
    # the four single-qubit building blocks, bit for bit
    blocks = {
        (1, 1): np.array([[1, 0], [0, 0]], dtype=complex),
        (2, 2): np.array([[0, 0], [0, 1]], dtype=complex),
        (1, 2): np.array([[0, 1], [0, 0]], dtype=complex),
        (2, 1): np.array([[0, 0], [1, 0]], dtype=complex),
    }
    for (i, j), expected in blocks.items():
        np.testing.assert_array_equal(assemble(decompose_ketbra(i, j, 1)), expected)
    _report(
        "criterion 5 (Pauli decomposition exactness)",
        f"all |i><j| pairs at n <= 3 reassemble within {worst:.2e} <= 1e-12; "
        "1-qubit blocks exact",
    )


def test_criterion_6_shot_noise_scaling():
    start = time.perf_counter()
    bell = parse_circuit(circuits.load("bell"))
    shot_counts = (100, 1000, 10000)
    spreads = []
    for shots in shot_counts:
        values = np.array(
            [
                estimate_coherence(simulate(bell), 1, 4, shots_per_setting=shots, seed=seed)
                for seed in range(50)
            ]
        )
        spreads.append(float(np.sqrt(np.mean(np.abs(values - values.mean()) ** 2))))
    slope = float(np.polyfit(np.log(shot_counts), np.log(spreads), 1)[0])
    assert -0.6 <= slope <= -0.4
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        "criterion 6 (shot-noise scaling)",
        f"std over 50 seeds at shots {shot_counts}: "
        f"{', '.join(f'{s:.4f}' for s in spreads)}; log-log slope "
        f"{slope:.3f} within -0.5 +- 0.1, {elapsed:.1f}s < 60s",
    )


def test_criterion_7_backend_ordering_and_mitigation():
    start = time.perf_counter()
    exact_diffs = []
    for circuit in CORPUS:
        exact_diffs += run_sweep(_sampling_config(circuit, "exact", 0)).abs_diff.tolist()
    shot_diffs = []
    for seed in range(3):
        for circuit in CORPUS:
            shot_diffs += run_sweep(_sampling_config(circuit, "shots", seed)).abs_diff.tolist()
    noisy_by_seed = {}
    mitigated_by_seed = {}
    for seed in range(20):
        raw, corrected = [], []
        for circuit in CORPUS:
            raw += run_sweep(_sampling_config(circuit, "noisy", seed)).abs_diff.tolist()
            corrected += run_sweep(
                _sampling_config(circuit, "noisy", seed, mitigate=True)
            ).abs_diff.tolist()
        noisy_by_seed[seed] = raw
        mitigated_by_seed[seed] = corrected

    median_exact = float(np.median(exact_diffs))
    median_shots = float(np.median(shot_diffs))
    median_noisy = float(
        np.median([d for diffs in noisy_by_seed.values() for d in diffs])
    )
    assert median_exact <= median_shots <= median_noisy

    wins = sum(
        np.median(mitigated_by_seed[s]) < np.median(noisy_by_seed[s])
        for s in range(20)
    )
    assert wins >= 18  # >= 90% of 20 seeds
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    _report(
        "criterion 7 (backend ordering and mitigation)",
        f"median abs_diff exact {median_exact:.1e} <= shots "
        f"{median_shots:.1e} <= noisy {median_noisy:.1e}; mitigation beat "
        f"raw in {wins}/20 seeds (>= 18), {elapsed:.1f}s < 20s",
    )


def test_criterion_8_pure_state_relation():
    worst = 0.0
    checked = 0
    for circuit in CORPUS:
        text = circuits.load(circuit)
        for theta in np.linspace(0.0, 2 * np.pi, 21):
            sv = simulate(parse_circuit(text, theta=float(theta)))
            pops = populations(sv)
            for k in range(2, sv.size + 1):
                coherence_1k = np.conj(sv[0]) * sv[k - 1]
                gap = abs(abs(coherence_1k) ** 2 - pops[0] * pops[k - 1])
                worst = max(worst, float(gap))
                assert gap <= 1e-12
                checked += 1
    _report(
        "criterion 8 (pure-state relation)",
        f"|x1K|^2 = x11 xKK within {worst:.1e} <= 1e-12 over {checked} "
        "simulated (state, K) pairs",
    )
