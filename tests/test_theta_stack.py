"""A theta sweep simulates every theta at once, with the bytes and the
errors of one theta at a time.

``circuit._sweep_states`` binds every theta of a sweep into the circuit
text at once and applies each gate once to the (T, 2^n) stack of states.
Each row has the bytes of ``simulate(parse_circuit(text, theta))`` and of
the simulator as it read before stacking (``reference_simulate``), and
its populations and coherences have those of the one-vector readouts.
A grid with a failing theta raises the one-theta path's error of its
first theta that fails its binding or, when none does, of its first
theta that fails its state check (its norm, its population sum). A sweep
raises it before any point is measured, so before the solve error of
any point.
"""

import dataclasses
import math

import numpy as np
import pytest
from conftest import reference_parse_circuit, reference_simulate
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaxent import ParseError, TomographyError, ValidationError, circuit, circuits, maxent, sampler
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


def binding_error(text: str, theta: float):
    """The type and message of the error ``parse_circuit`` raises for
    ``theta``, or None."""
    try:
        parse_circuit(text, theta)
    except ParseError as exc:
        return type(exc), str(exc)
    return None


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
    # A grid with a failing theta raises a binding error before a state
    # error; the thetas that pass make a grid of their own.
    want = [one_theta(text, theta) for theta in grid]
    passing = [i for i, w in enumerate(want) if isinstance(w[0], bytes)]
    if len(passing) < len(grid):
        bindings = [e for e in (binding_error(text, theta) for theta in grid) if e]
        errors = bindings or [w for w in want if not isinstance(w[0], bytes)]
        with pytest.raises(TomographyError) as caught:
            circuit._sweep_states(text, grid)
        assert (type(caught.value), str(caught.value)) == errors[0]
    if not passing:
        return
    states = circuit._sweep_states(text, [grid[i] for i in passing])
    n = states.shape[1].bit_length() - 1
    for state in states:
        circuit._check_state(state)
    dists = sampler._Readout(n, None, None, None).distribution(states)
    coherences = np.array([circuit._coherence(states, k, 1) for k in range(1, 2**n + 1)]).T
    for row, i in enumerate(passing):
        reference = reference_simulate(reference_parse_circuit(text, grid[i]))
        assert states[row].tobytes() == reference.tobytes()
        assert (
            states[row].tobytes(), dists[row].tobytes(), coherences[row].tobytes()
        ) == want[i]


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
        want = reference_failure(text, grid)
        if want is None:
            circuit._sweep_states(text, grid)
            continue
        with pytest.raises(want[1]) as caught:
            circuit._sweep_states(text, grid)
        assert str(caught.value) == want[2]


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
    with pytest.raises(ValidationError) as want:
        parse_circuit(text, theta)
    with pytest.raises(ValidationError) as got:
        circuit._sweep_states(text, [0.5, theta])
    assert str(want.value) == str(got.value) == f"theta = {theta!r} is not a real number"


@pytest.mark.parametrize("shots", [None, 100])
def test_noisy_rows_are_read_as_one_product(shots):
    # The stack is read through M as one product, which rounds
    # differently from M p on each state, by at most an ulp or two; a
    # lone state's read keeps the bytes of M p.
    thetas = np.linspace(-3.0, 3.0, 41).tolist()
    states = circuit._sweep_states(circuits.load("threeq_a"), thetas)
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


def earlier_thetas(cfg, mid):
    """``cfg`` cut to its thetas before index ``mid``, which pass."""
    thetas = np.linspace(cfg.theta_start, cfg.theta_stop, cfg.theta_steps).tolist()
    return dataclasses.replace(cfg, theta_stop=thetas[mid - 1], theta_steps=mid)


class TestErrorOrder:
    @pytest.mark.parametrize("backend", ["exact", "shots"])
    @pytest.mark.parametrize("name", CASES)
    def test_a_failing_theta_raises_before_any_point_is_measured(
        self, monkeypatch, tmp_path, name, backend
    ):
        cfg, mid, one = failing_sweep(name, monkeypatch, tmp_path)
        if backend == "shots":
            cfg = dataclasses.replace(cfg, backend="shots", shots=100)
        with pytest.raises(TomographyError) as want:
            one()
        assert type(want.value) is {
            "overflow": ParseError, "division_by_zero": ParseError,
            "norm_drift": TomographyError, "population_sum": ValidationError,
        }[name]
        # No point is predicted, and no multinomial draw is made.
        calls = []
        predict, tally = maxent._predict_population, sampler._Readout.tally
        monkeypatch.setattr(
            maxent, "_predict_population",
            lambda *args: calls.append("predict") or predict(*args),
        )
        monkeypatch.setattr(
            sampler._Readout, "tally",
            lambda self, *args: calls.append("tally") or tally(self, *args),
        )
        with pytest.raises(TomographyError) as got:
            run_sweep(cfg)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
        assert calls == []
        # The thetas before it are measured and predicted when alone.
        run_sweep(earlier_thetas(cfg, mid))
        assert calls == ["tally"] * (backend == "shots") + ["predict"]

    @pytest.mark.parametrize("name", CASES)
    def test_a_binding_or_state_error_before_an_earlier_solve_error(
        self, monkeypatch, tmp_path, name
    ):
        cfg, mid, one = failing_sweep(name, monkeypatch, tmp_path)

        def failing(*args):
            raise TomographyError("solve of point 0 failed")

        monkeypatch.setattr(maxent, "_complete_and_solve", failing)
        with pytest.raises(TomographyError) as want:
            one()
        with pytest.raises(TomographyError) as got:
            run_sweep(cfg)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
        with pytest.raises(TomographyError, match="^solve of point 0 failed$"):
            run_sweep(earlier_thetas(cfg, mid))
