import math

import numpy as np
import pytest

from qmaxent import ParseError, TomographyError, ValidationError
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
