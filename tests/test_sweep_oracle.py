"""A whole exact sweep against a dense pipeline of independent oracles.

Hypothesis writes 2-3 qubit circuits, some of whose rotations use
``theta``, a theta grid and K targets, and runs ``run_sweep`` on the
exact backend. Each row is checked against what the ``conftest`` oracles
make of the same point, with none of the library's kernels:

- the state is the product of dense 2^n x 2^n gate matrices, each the
  Taylor exponential of its Pauli generator (``taylor_expm``), on |0...0>;
- x11, x1K and xKK are read from the dense rho = |psi><psi|;
- |xKK - xKK_pred| is at most 1e-8, the paper's bound on exact data;
- the fidelity is within 1e-10 of ``mp_fidelity`` of the two 60-digit
  states ``mp_density`` gives for the case A and case B multipliers;
- each set of multipliers reproduces its completed record through the
  dense ``matrix_exp_hermitian`` of its exponent.

The sampled half runs the same circuits on the shots and the mitigated
backends. The sweep's one multinomial call has the tallies of
``reference_sampled_sweep`` bit for bit: one generator seeded with the
config seed, drawn one row at a time in the order (theta, K,
[populations, then each basis of K's plan]), each state simulated alone.
Each point's values lie within ``SAMPLED_ATOL`` of the reference's, its
populations within 5 sigma of the dense state's, a second run gives the
same bits, and a mitigated run gives a fidelity in [0, 1] on every solved
point or raises a TomographyError.
"""

import math
from functools import reduce

import numpy as np
import pytest
from conftest import (
    PAULI_MATRICES,
    SAMPLED_ATOL,
    build_exponent,
    case_sets,
    matrix_exp_hermitian,
    mp_density,
    mp_fidelity,
    reference_sampled_sweep,
    sweep_bits,
    sweep_rows,
    taylor_expm,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaxent import (
    ReadoutNoise,
    TomographyError,
    build_calibration,
    maxent,
    parse_circuit,
    sampler,
    simulate,
)
from qmaxent.cli import ExperimentConfig, run_sweep

I2, X, Y, Z = (PAULI_MATRICES[p] for p in "IXYZ")
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
GENERATORS = {"rx": X, "ry": Y, "rz": Z}
# theta times one of these, or a theta-free angle.
SCALES = (1.0, -1.0, 2.0, 0.5, -3.0)
FIXED = {"pi/2": math.pi / 2, "0.3": 0.3, "-1.1*pi": -1.1 * math.pi, "2/3": 2 / 3}

# abs_diff on exact data, the paper's prediction-accuracy bound.
ABS_DIFF_BOUND = 1e-8
# A sweep's x11, x1K and xKK against the dense state's.
STATE_ATOL = 1e-12
# A set's dense state against the record it was solved from: the
# saturation rescale moves a record by up to 1e-9 per component.
REPRODUCTION_ATOL = 2e-9
FIDELITY_ATOL = 1e-10


def embed(n: int, ops: dict) -> np.ndarray:
    """The kron product over qubits n-1 .. 0 of ``ops`` (identity elsewhere)."""
    return reduce(np.kron, (ops.get(q, I2) for q in reversed(range(n))))


def dense_gate(n: int, kind: str, targets, angle: float) -> np.ndarray:
    if kind in GENERATORS:
        return embed(n, {targets[0]: taylor_expm(-0.5j * angle * GENERATORS[kind])})
    if kind == "h":
        return embed(n, {targets[0]: (X + Z) / math.sqrt(2)})
    if kind == "x":
        return embed(n, {targets[0]: X})
    a, b = targets
    flipped = X if kind == "cx" else Z
    return embed(n, {a: P0}) + embed(n, {a: P1, b: flipped})


@st.composite
def sweeps(draw):
    """A circuit as text and as (kind, targets, angle of theta) gates, a
    theta grid and K targets."""
    n = draw(st.integers(2, 3))
    qubit = st.integers(0, n - 1)
    lines, gates = [f"qubits {n}"], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("h", "x", "cx", "cz", "rx", "ry", "rz")))
        if kind in ("cx", "cz"):
            targets = tuple(draw(st.lists(qubit, min_size=2, max_size=2, unique=True)))
            lines.append(f"{kind} {targets[0]} {targets[1]}")
            gates.append((kind, targets, lambda t: None))
        elif kind in ("h", "x"):
            targets = (draw(qubit),)
            lines.append(f"{kind} {targets[0]}")
            gates.append((kind, targets, lambda t: None))
        else:
            targets = (draw(qubit),)
            if draw(st.booleans()):
                scale = draw(st.sampled_from(SCALES))
                lines.append(f"{kind}({scale!r}*theta) {targets[0]}")
                gates.append((kind, targets, lambda t, s=scale: s * t))
            else:
                expr = draw(st.sampled_from(sorted(FIXED)))
                lines.append(f"{kind}({expr}) {targets[0]}")
                gates.append((kind, targets, lambda t, v=FIXED[expr]: v))
    start = draw(st.sampled_from([0.0, -1.0, 0.4]))
    stop = draw(st.floats(-4.0, 4.0))
    steps = draw(st.integers(1, 4))
    ks = draw(st.lists(st.integers(2, 2**n), min_size=1, max_size=3, unique=True))
    return n, "\n".join(lines) + "\n", gates, (start, stop, steps), tuple(ks)


def dense_state(n: int, gates, theta: float) -> np.ndarray:
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    for kind, targets, angle in gates:
        psi = dense_gate(n, kind, targets, angle(theta)) @ psi
    return psi


def reproduced(ls) -> tuple[float, complex, float]:
    """(x11, x1K, xKK) of the dense state exp(A)/Z of the multipliers."""
    rho = matrix_exp_hermitian(build_exponent(ls))
    rho = rho / np.trace(rho).real
    k = ls.index_k - 1
    return rho[0, 0].real, complex(rho[0, k]), rho[k, k].real


def assert_reproduces(ls, x11, x1k, xkk):
    r11, r1k, rkk = reproduced(ls)
    assert abs(r11 - x11) <= REPRODUCTION_ATOL
    assert abs(r1k - x1k) <= REPRODUCTION_ATOL
    assert abs(rkk - xkk) <= REPRODUCTION_ATOL


@settings(max_examples=25)
@given(sweeps())
def test_every_exact_row_matches_the_dense_pipeline(tmp_path_factory, sweep):
    n, text, gates, (start, stop, steps), ks = sweep
    path = tmp_path_factory.mktemp("circuit") / "sweep.qc"
    path.write_text(text)
    cfg = ExperimentConfig(
        str(path), theta_start=start, theta_stop=stop, theta_steps=steps, k_targets=ks
    )
    rows = run_sweep(cfg)
    thetas = [start] if steps == 1 else np.linspace(start, stop, steps).tolist()
    points = list(zip(rows.theta.tolist(), rows.k.tolist()))
    assert points == [(t, k) for t in thetas for k in ks]
    sets = iter(case_sets(sweep_rows(rows, rows.solved), 2**n))
    for i, (theta, k) in enumerate(points):
        x11, x1k, xkk_true = rows.x11[i], rows.x1k[i], rows.xkk_true[i]
        psi = dense_state(n, gates, theta)
        rho = np.outer(psi, psi.conj())
        k -= 1
        assert abs(x11 - rho[0, 0].real) <= STATE_ATOL
        assert abs(x1k - rho[0, k]) <= STATE_ATOL
        assert abs(xkk_true - rho[k, k].real) <= STATE_ATOL
        if x11 <= maxent._POPULATION_FLOOR:
            assert not rows.solved[i]
            assert all(np.isnan(v[i]) for v in (*rows.lams_a, *rows.lams_b))
            assert math.isnan(rows.xkk_pred[i]) and math.isnan(rows.fidelity[i])
            continue
        a, b = next(sets)
        assert rows.abs_diff[i] <= ABS_DIFF_BOUND
        assert_reproduces(a, x11, x1k, rows.xkk_pred[i])
        assert_reproduces(b, x11, x1k, xkk_true)
        want = mp_fidelity(mp_density(a), mp_density(b))
        assert abs(rows.fidelity[i] - want) <= FIDELITY_ATOL


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
def test_case_a_keeps_the_coherence_where_x11_rounds_to_one(tmp_path):
    """At theta = 1e-8, rx(theta) on qubit 0 measures x11 = 1.0 (rounded)
    and x1K = 5e-9j. The prediction |x1K|^2 / x11 = 2.5e-17 is clamped to
    1 - x11 = 0, and the projection then shrinks x1K to 0, so case A's
    multipliers reproduce x1K = 0 while case B's reproduce it. The
    examples of the dense pipeline test above miss this corner."""
    path = tmp_path / "rx.qc"
    path.write_text("qubits 2\nrx(1.0*theta) 0\n")
    rows = run_sweep(ExperimentConfig(
        str(path), theta_start=0.0, theta_stop=1e-8, theta_steps=2, k_targets=(2,)
    ))
    assert rows.x11[-1] == 1.0 and abs(rows.x1k[-1] - 5e-9j) <= 1e-20
    a, b = case_sets(sweep_rows(rows, rows.solved), 4)[-1]
    assert abs(reproduced(b)[1] - rows.x1k[-1]) <= REPRODUCTION_ATOL
    assert abs(reproduced(a)[1] - rows.x1k[-1]) <= REPRODUCTION_ATOL


SHOTS = 400
# Sampled populations against the dense state's, in standard deviations.
SIGMAS = 5.0


def sampled_sigma(p: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Standard deviation of each population estimate M^-1 f, f the
    frequencies of SHOTS draws from M p; M is the identity without
    noise. A simplex projection only moves an estimate towards the
    simplex. One shot's worth is added so that a population of 0 or 1
    keeps a width."""
    inverse = np.linalg.inv(matrix)
    read = matrix @ p
    variance = (inverse * inverse) @ read - p * p
    return np.sqrt(np.maximum(variance, 0.0) / SHOTS) + 1.0 / SHOTS


@settings(max_examples=40)
@given(
    sweeps(),
    st.sampled_from(["shots", "mitigated"]),
    st.integers(0, 2**20),
    st.sampled_from([(0.02, 0.04), (0.05, 0.01), (0.1, 0.15)]),
)
def test_every_sampled_row_is_the_one_generator_draw(
    tmp_path_factory, sweep, backend, seed, flips
):
    n, text, gates, (start, stop, steps), ks = sweep
    path = tmp_path_factory.mktemp("circuit") / "sweep.qc"
    path.write_text(text)
    noise = ReadoutNoise.uniform(*flips, n) if backend == "mitigated" else None
    cfg = ExperimentConfig(
        str(path), theta_start=start, theta_stop=stop, theta_steps=steps, k_targets=ks,
        backend="shots" if noise is None else "noisy", shots=SHOTS, noise=noise,
        mitigate=noise is not None, seed=seed,
    )
    tallies = []
    tally = sampler._Readout.tally
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            sampler._Readout, "tally",
            lambda self, dists, seed: tallies.append(tally(self, dists, seed)) or tallies[-1],
        )
        try:
            rows = run_sweep(cfg)
        except TomographyError as exc:
            assert noise is not None, exc
            with pytest.raises(type(exc)) as again:
                run_sweep(cfg)
            assert str(again.value) == str(exc)
            return
        assert sweep_bits(run_sweep(cfg)) == sweep_bits(rows)
    calibration = None if noise is None else build_calibration(noise, n)
    matrix = np.eye(2**n) if noise is None else calibration.entries
    thetas = [start] if steps == 1 else np.linspace(start, stop, steps).tolist()
    points = list(zip(rows.theta.tolist(), rows.k.tolist()))
    assert points == [(t, k) for t in thetas for k in ks]
    states = np.array([simulate(parse_circuit(text, t)) for t in thetas])
    want_tallies, want = reference_sampled_sweep(
        states, ks, SHOTS, None if noise is None else matrix,
        None if noise is None else calibration.inverse, seed,
    )
    # Two runs, one multinomial call each.
    assert len(tallies) == 2
    assert tallies[0].tobytes() == np.array(want_tallies).tobytes()
    for i, ((theta, k), (x11, x1k, xkk)) in enumerate(zip(points, want, strict=True)):
        got = (rows.x11[i], rows.x1k[i].real, rows.x1k[i].imag, rows.xkk_true[i])
        for a, b in zip(got, (x11, x1k.real, x1k.imag, xkk)):
            assert abs(a - b) <= SAMPLED_ATOL
        exact = np.abs(dense_state(n, gates, theta)) ** 2
        sigma = sampled_sigma(exact, matrix)
        assert abs(rows.x11[i] - exact[0]) <= SIGMAS * sigma[0]
        assert abs(rows.xkk_true[i] - exact[k - 1]) <= SIGMAS * sigma[k - 1]
        if noise is not None and rows.solved[i]:
            assert 0.0 <= rows.fidelity[i] <= 1.0
