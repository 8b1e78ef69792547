"""A theta sweep simulates every theta at once, with the bytes and the
errors of one theta at a time.

``circuit._sweep_states`` binds every theta of a sweep into the circuit
text at once and applies each gate once to the (T, 2^n) stack of states.
Each row has the bytes of ``simulate(parse_circuit(text, theta))`` and of
the simulator as it read before stacking (``reference_simulate``), and
its populations and coherences have those of the one-vector readouts.
The first theta that fails a check (its binding, its norm, its
population sum) reports the error of the one-theta path; a sweep
measures the thetas before it, and an earlier point's solve error still
comes first.
"""

import math

import numpy as np
import pytest
from conftest import reference_parse_circuit, reference_simulate
from hypothesis import given, settings
from hypothesis import strategies as st

import qmaxent.cli as cli
from qmaxent import ParseError, TomographyError, ValidationError, circuit, circuits, sampler
from qmaxent.circuit import coherence, parse_circuit, populations, simulate
from qmaxent.cli import ExperimentConfig, run_sweep
from qmaxent.sampler import ReadoutNoise, build_calibration

FACTORS = ("theta", "-theta", "pi", "-pi", "2", "0.5", "-1.5", "3", "1e-3", "7")
THETA_FREE = ("pi/2", "0.3", "-1.1*pi", "2/3", "1e5")
# Signed zeros, subnormals, +-pi and a large angle, among other floats.
GRID = (0.0, -0.0, 5e-324, -5e-324, -1e-300, math.pi, -math.pi, 1e12, -1e12, 0.7, -2.5)


@st.composite
def angles(draw) -> str:
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(THETA_FREE))
    factors = draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=4))
    count = len(factors) - 1
    ops = draw(st.lists(st.sampled_from("*/"), min_size=count, max_size=count))
    return factors[0] + "".join(op + f for op, f in zip(ops, factors[1:]))


@st.composite
def circuit_texts(draw) -> str:
    n = draw(st.integers(2, 6))
    qubit = st.integers(0, n - 1)
    lines = [f"qubits {n}"]
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(circuit.GATE_KINDS))
        if kind in ("cx", "cz"):
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            lines.append(f"{kind} {a} {b}")
        elif kind in ("h", "x"):
            lines.append(f"{kind} {draw(qubit)}")
        else:
            lines.append(f"{kind}({draw(angles())}) {draw(qubit)}")
    return "\n".join(lines)


theta_grids = st.lists(
    st.one_of(st.sampled_from(GRID), st.floats(-10.0, 10.0)), min_size=1, max_size=8
)


def one_theta(text: str, theta: float):
    """What the one-theta path makes of ``theta``: the bytes of the state,
    of its populations and of its coherences with basis state 1, or the
    error's type and message."""
    try:
        sv = simulate(parse_circuit(text, theta))
    except TomographyError as exc:
        return type(exc), str(exc)
    coherences = np.array([coherence(sv, k, 1) for k in range(1, sv.size + 1)])
    return sv.tobytes(), populations(sv).tobytes(), coherences.tobytes()


@given(circuit_texts(), theta_grids)
@settings(max_examples=300)
def test_every_row_has_the_bytes_of_one_theta(text, grid):
    want = [one_theta(text, theta) for theta in grid]
    stop = next((i for i, w in enumerate(want) if not isinstance(w[0], bytes)), len(grid))
    states, failure = circuit._sweep_states(text, grid)
    if stop < len(grid):
        index, error = failure
        assert index == stop
        assert (type(error), str(error)) == want[stop]
    else:
        assert failure is None
    n = states.shape[1].bit_length() - 1
    for state in states[:stop]:
        circuit._check_state(state)
    dists = sampler._Readout(n, None, None, None).distribution(states[:stop])
    coherences = np.array(
        [circuit._coherence(states[:stop], k, 1) for k in range(1, 2**n + 1)]
    ).T
    for i in range(stop):
        reference = reference_simulate(reference_parse_circuit(text, grid[i]))
        assert states[i].tobytes() == reference.tobytes()
        assert (states[i].tobytes(), dists[i].tobytes(), coherences[i].tobytes()) == want[i]


# Texts whose failing thetas the stack's screen must all find: a
# product that overflows past some theta, a division by a theta that is
# zero, 1 / theta (finite at theta = +-inf) and a theta that fails on a
# later rotation.
BLIND_SPOTS = (
    "rx(theta*1e308) 0",
    "rx(pi/theta) 0",
    "rz(1/theta) 0",
    "h 0\nrx(theta) 0\nrx(pi/theta) 1",
)
# Texts that fail whatever theta is: a literal divisor that is not
# finite, a division by a literal zero and a bad literal after theta.
# Each raises at parse, before any theta is bound.
THETA_FREE_ERRORS = (
    "rx(theta/1e999) 0",
    "ry(2*theta/-inf) 1",
    "rx(theta/0) 0",
    "rx(theta*foo) 0",
)
EDGE_GRID = (0.5, -0.0, 0.0, math.inf, -math.inf, math.nan, 1e308)


def reference_failure(text: str, grid):
    """The first theta of ``grid`` the reference parser rejects, as
    (index, error type, message), or None."""
    for i, theta in enumerate(grid):
        try:
            reference_parse_circuit(text, theta)
        except TomographyError as exc:
            return i, type(exc), str(exc)
    return None


@pytest.mark.parametrize("body", BLIND_SPOTS)
def test_the_screen_finds_every_failing_theta(body):
    text = "qubits 2\n" + body
    for start in range(len(EDGE_GRID)):
        grid = list(EDGE_GRID[start:])
        _, failure = circuit._sweep_states(text, grid)
        if failure is not None:
            failure = failure[0], type(failure[1]), str(failure[1])
        assert failure == reference_failure(text, grid)


@pytest.mark.parametrize("body", THETA_FREE_ERRORS)
def test_a_theta_free_error_is_raised_at_once(body):
    text = "qubits 2\n" + body
    for start in range(len(EDGE_GRID)):
        grid = list(EDGE_GRID[start:])
        index, kind, message = reference_failure(text, grid)
        assert index == 0
        with pytest.raises(kind) as caught:
            circuit._sweep_states(text, grid)
        assert str(caught.value) == message


@pytest.mark.parametrize("theta", ["x", [1.0]])
def test_a_theta_that_is_not_a_number_is_a_type_error(theta):
    text = "qubits 1\nrx(theta) 0"
    with pytest.raises(TypeError) as want:
        parse_circuit(text, theta)
    with pytest.raises(TypeError) as got:
        circuit._sweep_states(text, [0.5, theta])
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("shots", [None, 100])
def test_noisy_rows_are_read_as_one_product(shots):
    # The stack is read through M as one product, which rounds
    # differently from M p on each state, by at most an ulp or two; a
    # lone state's read keeps the bytes of M p.
    thetas = np.linspace(-3.0, 3.0, 41).tolist()
    states, failure = circuit._sweep_states(circuits.load("threeq_a"), thetas)
    assert failure is None
    noise = ReadoutNoise.uniform(0.02, 0.04, 3)
    matrix = build_calibration(noise, 3).entries
    readout = sampler._Readout(3, shots, noise, None)
    for state in states:
        circuit._check_state(state)
    dists = readout.distribution(states)
    assert len(dists) == len(thetas)
    product = np.abs(states) ** 2 @ matrix.T
    if shots is not None:
        product = product / product.sum(axis=1, keepdims=True)
    assert dists.tobytes() == product.tobytes()
    for state, dist in zip(states, dists):
        want = matrix @ populations(state)
        if shots is not None:
            want = want / want.sum()
        assert np.abs(dist - want).max() <= 2 * np.finfo(float).eps
        lone = readout.distribution(state[None])
        assert lone[0].tobytes() == want.tobytes()


PREP = "qubits 2\nry(0.7) 0\nry(1.1) 1\n"
# A failure at a mid-grid theta: (circuit text, theta_start, theta_stop,
# theta_steps, index of the failing theta).
CASES = {
    "overflow": (PREP + "rx(theta*1e308) 0", 0.0, 4.0, 9, 4),
    "division_by_zero": (PREP + "rx(pi/theta) 0", -1.0, 1.0, 5, 2),
    "norm_drift": (PREP + "rx(theta) 0", -1.0, 1.0, 5, 2),
    "population_sum": (PREP + "rx(theta) 0", -1.0, 1.0, 5, 2),
}


def failing_sweep(name, monkeypatch, tmp_path):
    """The config of case ``name``, the index of its failing theta, and
    the one-theta path's call for that theta, with the case's fault
    patched into both."""
    text, start, stop, steps, mid = CASES[name]
    path = tmp_path / f"{name}.qc"
    path.write_text(text)
    cfg = ExperimentConfig(
        circuit_path=str(path), theta_start=start, theta_stop=stop,
        theta_steps=steps, k_targets=(2, 3, 4),
    )
    theta = np.linspace(start, stop, steps).tolist()[mid]
    if name == "norm_drift":
        # The rotation at that theta scales the state by 1.5, in the
        # stack and on one theta alike.
        matrices = circuit._rotation_matrices

        def drifting(kind, angles):
            u = matrices(kind, angles)
            return np.where((angles == theta)[:, None, None], 1.5 * u, u)

        monkeypatch.setattr(circuit, "_rotation_matrices", drifting)
    if name == "population_sum":
        # The rotation at that theta scales the state by 1 + 6e-11, in the
        # stack and on one theta alike: its norm passes the 1e-10 check,
        # and its population sum, off by 1.2e-10, fails.
        matrices = circuit._rotation_matrices

        def scaled(kind, angles):
            u = matrices(kind, angles)
            return np.where((angles == theta)[:, None, None], (1 + 6e-11) * u, u)

        monkeypatch.setattr(circuit, "_rotation_matrices", scaled)
        return cfg, mid, lambda: populations(simulate(parse_circuit(text, theta)))
    if name in ("overflow", "division_by_zero"):
        return cfg, mid, lambda: parse_circuit(text, theta)
    return cfg, mid, lambda: simulate(parse_circuit(text, theta))


class TestErrorOrder:
    @pytest.mark.parametrize("name", CASES)
    def test_raises_the_one_theta_error_after_the_earlier_thetas(
        self, monkeypatch, tmp_path, name
    ):
        cfg, mid, one = failing_sweep(name, monkeypatch, tmp_path)
        with pytest.raises(TomographyError) as want:
            one()
        assert type(want.value) is {
            "overflow": ParseError, "division_by_zero": ParseError,
            "norm_drift": TomographyError, "population_sum": ValidationError,
        }[name]
        # The exact backend reads its points off the stack without a
        # draw; the prediction kernel gets every measured point.
        measured = []
        predict = cli._predict_population
        monkeypatch.setattr(
            cli, "_predict_population",
            lambda x11, x1k: measured.append(len(x11)) or predict(x11, x1k),
        )
        with pytest.raises(TomographyError) as got:
            run_sweep(cfg)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        # Every K of every theta before the failing one was measured.
        assert measured == [mid * len(cfg.k_targets)]

    @pytest.mark.parametrize("name", CASES)
    def test_an_earlier_solve_error_comes_first(self, monkeypatch, tmp_path, name):
        cfg, _, _ = failing_sweep(name, monkeypatch, tmp_path)
        solve = cli._complete_and_solve

        def failing(*args):
            *result, _ = solve(*args)
            return (*result, (0, TomographyError("solve of point 0 failed")))

        monkeypatch.setattr(cli, "_complete_and_solve", failing)
        with pytest.raises(TomographyError, match="^solve of point 0 failed$"):
            run_sweep(cfg)
