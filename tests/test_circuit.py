import math

import numpy as np
import pytest
from conftest import reference_rotation_matrices, reference_transposed_apply_1q

from qmaxent import ParseError, TomographyError, ValidationError, circuit
from qmaxent.circuit import (
    Circuit,
    Gate,
    apply_gates,
    coherence,
    parse_circuit,
    populations,
    simulate,
    zero_state,
)

BELL = "qubits 2\nh 0\ncx 0 1"


class TestParse:
    def test_bell_prep(self):
        c = parse_circuit(BELL)
        assert c.num_qubits == 2
        assert c.gates == (Gate("h", (0,)), Gate("cx", (0, 1)))

    def test_rotation_with_pi(self):
        c = parse_circuit("qubits 1\nrx(pi) 0")
        assert c.gates == (Gate("rx", (0,), math.pi),)

    def test_theta_binding(self):
        c = parse_circuit("qubits 3\nrx(theta) 0\nry(theta) 2", theta=math.pi / 2)
        assert c.gates[0].angle == pytest.approx(1.5708, abs=1e-4)
        assert c.gates[1].angle == pytest.approx(math.pi / 2)

    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("pi/2", math.pi / 2),
            ("2*theta", 1.0),
            ("theta/2", 0.25),
            ("-pi/4", -math.pi / 4),
            ("0.75", 0.75),
            ("pi*theta/2", math.pi * 0.25),
        ],
    )
    def test_angle_expressions(self, expr, expected):
        c = parse_circuit(f"qubits 1\nrz({expr}) 0", theta=0.5)
        assert c.gates[0].angle == pytest.approx(expected, rel=1e-12)

    def test_comments_and_blank_lines(self):
        c = parse_circuit("# prep\n\nqubits 2\nh 0  # mix\n\ncx 0 1\n")
        assert len(c.gates) == 2

    def test_unknown_mnemonic_reports_line(self):
        with pytest.raises(ParseError, match="line 2.*foo"):
            parse_circuit("qubits 1\nfoo 0")

    def test_out_of_range_qubit_reports_line(self):
        with pytest.raises(ParseError, match="line 3.*out of range"):
            parse_circuit("qubits 2\nh 0\ncx 0 2")

    def test_missing_angle(self):
        with pytest.raises(ParseError, match="missing its angle"):
            parse_circuit("qubits 1\nrx 0")

    def test_unbound_theta(self):
        with pytest.raises(ParseError, match="theta"):
            parse_circuit("qubits 1\nrx(theta) 0")

    def test_malformed_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_circuit("qubits 2\ncx 0")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="qubits"):
            parse_circuit("h 0\n")

    def test_duplicate_target_rejected(self):
        with pytest.raises(ParseError, match="distinct"):
            parse_circuit("qubits 2\ncx 1 1")

    @pytest.mark.parametrize("expr", ["nan", "inf", "-inf", "pi*nan", "1e200*1e200"])
    def test_non_finite_angle_reports_line(self, expr):
        with pytest.raises(ParseError, match="line 3") as info:
            parse_circuit(f"qubits 1\nh 0\nrx({expr}) 0")
        assert info.value.line == 3

    def test_non_finite_theta_reports_line(self):
        with pytest.raises(ParseError, match="line 2.*theta"):
            parse_circuit("qubits 1\nry(2*theta) 0", theta=math.nan)


class TestSimulate:
    def test_hadamard(self):
        sv = simulate(parse_circuit("qubits 1\nh 0"))
        np.testing.assert_allclose(sv, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_bell_state(self):
        sv = simulate(parse_circuit(BELL))
        expected = np.array([1, 0, 0, 1]) / math.sqrt(2)
        np.testing.assert_allclose(sv, expected, atol=1e-12)

    def test_rx_pi(self):
        sv = simulate(parse_circuit("qubits 1\nrx(pi) 0"))
        np.testing.assert_allclose(sv, [0, -1j], atol=1e-12)

    def test_qubit_zero_is_least_significant_bit(self):
        sv = simulate(parse_circuit("qubits 2\nx 0"))
        np.testing.assert_allclose(sv, [0, 1, 0, 0], atol=1e-15)
        sv = simulate(parse_circuit("qubits 2\nx 1"))
        np.testing.assert_allclose(sv, [0, 0, 1, 0], atol=1e-15)

    def test_cx_control_is_first_target(self):
        sv = simulate(parse_circuit("qubits 2\nx 0\ncx 0 1"))
        np.testing.assert_allclose(sv, [0, 0, 0, 1], atol=1e-15)
        sv = simulate(parse_circuit("qubits 2\nx 0\ncx 1 0"))
        np.testing.assert_allclose(sv, [0, 1, 0, 0], atol=1e-15)

    def test_cz_phase(self):
        sv = simulate(parse_circuit("qubits 2\nx 0\nx 1\ncz 0 1"))
        np.testing.assert_allclose(sv, [0, 0, 0, -1], atol=1e-15)

    def test_norm_preserved_per_gate(self):
        rng = np.random.default_rng(5)
        text = "qubits 3\nh 0\nrx(0.7) 1\ncx 0 2\nry(1.3) 2\ncz 1 2\nrz(2.1) 0\nx 1"
        c = parse_circuit(text)
        for upto in range(1, len(c.gates) + 1):
            sv = simulate(Circuit(3, c.gates[:upto]))
            assert abs(np.vdot(sv, sv).real - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "forward,backward",
        [
            ("rx(0.8) 0", "rx(-0.8) 0"),
            ("ry(1.1) 1", "ry(-1.1) 1"),
            ("rz(2.5) 0", "rz(-2.5) 0"),
            ("h 1", "h 1"),
            ("cx 0 1", "cx 0 1"),
        ],
    )
    def test_gate_then_inverse_restores_state(self, forward, backward):
        prep = "qubits 2\nry(0.9) 0\nrx(0.4) 1\ncx 0 1\n"
        base = simulate(parse_circuit(prep))
        roundtrip = simulate(parse_circuit(prep + forward + "\n" + backward))
        np.testing.assert_allclose(roundtrip, base, atol=1e-12)


class TestObservables:
    def test_bell_populations(self):
        sv = simulate(parse_circuit(BELL))
        np.testing.assert_allclose(populations(sv), [0.5, 0, 0, 0.5], atol=1e-12)

    def test_ground_state_populations(self):
        sv = simulate(parse_circuit("qubits 3"))
        np.testing.assert_allclose(populations(sv), [1] + [0] * 7, atol=1e-15)

    def test_ry_populations_closed_form(self):
        sv = simulate(parse_circuit("qubits 1\nry(pi/3) 0"))
        expected = [math.cos(math.pi / 6) ** 2, math.sin(math.pi / 6) ** 2]
        np.testing.assert_allclose(populations(sv), expected, atol=1e-12)
        np.testing.assert_allclose(populations(sv), [0.75, 0.25], atol=1e-12)

    def test_populations_sum_to_one(self):
        sv = simulate(parse_circuit("qubits 2\nh 0\nry(0.3) 1\ncx 0 1"))
        assert populations(sv).sum() == pytest.approx(1.0, abs=1e-10)

    def test_bell_coherences(self):
        sv = simulate(parse_circuit(BELL))
        assert coherence(sv, 1, 4) == pytest.approx(0.5, abs=1e-12)
        assert coherence(sv, 1, 2) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_coherence_is_population(self):
        sv = simulate(parse_circuit("qubits 2\nry(0.7) 0\ncx 0 1\nh 1"))
        pops = populations(sv)
        for i in range(1, 5):
            assert coherence(sv, i, i) == pytest.approx(pops[i - 1], abs=1e-12)

    def test_conjugate_symmetry(self):
        sv = simulate(parse_circuit("qubits 2\nrx(0.4) 0\nry(1.2) 1\ncz 0 1"))
        for i in range(1, 5):
            for j in range(1, 5):
                assert coherence(sv, i, j) == pytest.approx(
                    np.conj(coherence(sv, j, i)), abs=1e-15
                )

    def test_matches_outer_product_density(self):
        sv = simulate(parse_circuit("qubits 2\nrx(0.9) 0\nh 1\ncx 1 0\nrz(0.5) 1"))
        rho = np.outer(sv, sv.conj())
        for i in range(1, 5):
            for j in range(1, 5):
                # <|i><j|> is the (j, i) entry of |psi><psi|
                assert coherence(sv, i, j) == pytest.approx(rho[j - 1, i - 1], abs=1e-12)

    def test_pure_state_relation(self):
        sv = simulate(parse_circuit("qubits 2\nry(0.8) 0\ncx 0 1\nrx(0.3) 1"))
        pops = populations(sv)
        for k in range(2, 5):
            lhs = abs(coherence(sv, 1, k)) ** 2
            assert lhs == pytest.approx(pops[0] * pops[k - 1], abs=1e-12)

    def test_index_out_of_range(self):
        sv = simulate(parse_circuit(BELL))
        with pytest.raises(ValidationError):
            coherence(sv, 0, 1)
        with pytest.raises(ValidationError):
            coherence(sv, 1, 5)

    def test_populations_of_a_non_numeric_state_name_it(self):
        with pytest.raises(ValidationError) as caught:
            populations(["a"])
        assert str(caught.value) == "sv of shape (1,) and dtype <U1 is not a 1-D numeric array"

    def test_coherence_of_a_matrix_names_it(self):
        with pytest.raises(ValidationError) as caught:
            coherence(np.eye(4), 1, 2)
        assert str(caught.value) == "sv of shape (4, 4) and dtype float64 is not a 1-D numeric array"


class TestApplyGates:
    def test_extra_gates_on_a_prepared_state(self):
        prep = parse_circuit("qubits 2\nry(0.7) 0\ncx 0 1")
        extra = (Gate("rz", (1,), -math.pi / 2), Gate("h", (1,)))
        np.testing.assert_array_equal(
            apply_gates(simulate(prep), extra, 2),
            simulate(Circuit(2, prep.gates + extra)),
        )

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError, match="expected 4 amplitudes"):
            apply_gates(np.ones(3) / math.sqrt(3), (), 2)

    def test_target_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            apply_gates(zero_state(1), (Gate("h", (1,)),), 1)

    def test_nan_state_fails_the_norm_check(self):
        with pytest.raises(TomographyError, match="norm"):
            apply_gates(np.array([np.nan, 0.0], dtype=complex), (Gate("h", (0,)),), 1)

    def test_nan_populations_rejected(self):
        with pytest.raises(ValidationError, match="not normalized"):
            populations(np.array([np.nan, 0.0]))


def _moveaxis_apply_1q(state, u, qubit, n):
    """The one-qubit kernel written with np.moveaxis, as it read before
    the transpose orders were cached."""
    psi = np.moveaxis(state.reshape([2] * n), n - 1 - qubit, -1)
    psi = psi @ u.T
    return np.moveaxis(psi, -1, n - 1 - qubit).reshape(-1)


def _same_bits(a, b):
    """Equal values and equal signs of every zero, real and imaginary."""
    return (
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


# Every gate kind with one qubit, both signed zero angles and the basis
# rotation rz(-pi/2) among the angles.
ONE_QUBIT_GATES = [Gate("h", (0,)), Gate("x", (0,))] + [
    Gate(kind, (0,), angle)
    for kind in ("rx", "ry", "rz")
    for angle in (0.0, -0.0, -math.pi / 2, math.pi, 0.731, -2.9)
]

# Signed zeros, multiples of pi, values near the tiniest and the largest
# finite floats: the angles where the signs and last bits of a rotation's
# entries are easiest to lose.
ROTATION_ANGLES = [
    0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, math.pi / 2, -math.pi / 2,
    1e-300, -1e-300, 5e-324, -5e-324, 2.2250738585072014e-308, 1e10, -1e10, 1e300,
    -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
]


class TestOneQubitKernel:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_bitwise_equal_to_the_moveaxis_kernel(self, n):
        rng = np.random.default_rng(50 + n)
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state /= np.linalg.norm(state)
        # Signed zeros in both parts, so their signs are compared too.
        state.real[::3] = -0.0
        state.imag[1::4] = 0.0
        state.imag[2::5] = -0.0
        for gate in ONE_QUBIT_GATES:
            u = circuit._matrix_1q(gate)
            assert _same_bits(u, circuit._build_matrix_1q(gate))
            for qubit in range(n):
                assert _same_bits(
                    circuit._apply_1q(state, u, qubit, n),
                    _moveaxis_apply_1q(state, u, qubit, n),
                )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bitwise_equal_to_the_transposed_kernel(self, n):
        # A lone vector and a stack of rows, each gate fixed and per row,
        # on every qubit; signed zeros in the amplitudes and the matrices.
        rng = np.random.default_rng(70 + n)
        rows = 5
        states = rng.normal(size=(rows, 2**n)) + 1j * rng.normal(size=(rows, 2**n))
        states.real[:, ::3] = -0.0
        states.imag[:, 1::4] = 0.0
        states.imag[:, 2::5] = -0.0
        angles = np.array([0.0, -0.0, -math.pi / 2, 0.731, -2.9])
        per_row = [circuit._rotation_matrices(kind, angles) for kind in ("rx", "ry", "rz")]
        fixed = [circuit._matrix_1q(gate) for gate in ONE_QUBIT_GATES]
        for qubit in range(n):
            for u in fixed:
                for state in (states[0], states):
                    assert _same_bits(
                        circuit._apply_1q(state, u, qubit, n),
                        reference_transposed_apply_1q(state, u, qubit, n),
                    )
            for u in per_row:
                assert _same_bits(
                    circuit._apply_1q(states, u, qubit, n),
                    reference_transposed_apply_1q(states, u, qubit, n),
                )

    @pytest.mark.parametrize("kind", ["rx", "ry", "rz"])
    def test_rotation_matrices_are_the_per_angle_build(self, kind):
        # The array build writes each complex product on its parts; every
        # bit, the signs of zeros included, must be the per-angle list
        # build's.
        angles = np.array(ROTATION_ANGLES + np.random.default_rng(7).uniform(-40, 40, 2000).tolist())
        got = circuit._rotation_matrices(kind, angles)
        assert got.shape == (len(angles), 2, 2)
        assert got.tobytes() == reference_rotation_matrices(kind, angles).tobytes()

    def test_signed_zero_angles_keep_their_matrices(self):
        plus = circuit._matrix_1q(Gate("rz", (0,), 0.0))
        minus = circuit._matrix_1q(Gate("rz", (0,), -0.0))
        assert np.array_equal(plus, minus)
        assert not _same_bits(plus, minus)


class TestTypedInputErrors:
    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_angle_names_the_angle(self, angle):
        with pytest.raises(ValidationError, match="angle .* is not finite"):
            Gate("rx", (0,), angle)

    def test_string_angle_names_the_angle(self):
        with pytest.raises(ValidationError, match=r"^angle = '0\.5' is not a real number$"):
            Gate("ry", (0,), "0.5")

    @pytest.mark.parametrize("targets", [(0.5,), ("0",), (None,)])
    def test_non_integer_targets_name_the_targets(self, targets):
        with pytest.raises(ValidationError, match="targets .* are not integers"):
            Gate("h", targets)

    def test_numpy_integer_targets_accepted(self):
        assert Gate("cx", (np.int64(0), 1)) == Gate("cx", (0, 1))

    @pytest.mark.parametrize(("i", "j", "name"), [(1.5, 1, "i"), (1, 2.0, "j")])
    def test_non_integer_basis_index_names_it(self, i, j, name):
        sv = simulate(parse_circuit(BELL))
        with pytest.raises(ValidationError, match=f"basis index {name} = .* not an integer"):
            coherence(sv, i, j)

    def test_norm_message_prints_a_plain_float(self):
        with pytest.raises(TomographyError, match=r"norm drifted to nan$"):
            apply_gates(np.array([np.nan, 0.0], dtype=complex), (Gate("h", (0,)),), 1)
