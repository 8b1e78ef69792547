import itertools

import numpy as np
import pytest
from conftest import assemble, dense_expectation, to_matrix

from qmaxent import IncompleteDataError, ValidationError
from qmaxent.circuit import MAX_QUBITS, Circuit, parse_circuit, simulate
from qmaxent.pauli import (
    PauliString,
    decompose_ketbra,
    expectation_from_paulis,
    measurement_settings,
)


def ketbra(i, j, n):
    out = np.zeros((2**n, 2**n), dtype=complex)
    out[i - 1, j - 1] = 1.0
    return out


class TestDecompose:
    def test_single_qubit_raising(self):
        # |1><2| on one qubit is (X + iY)/2
        d = decompose_ketbra(1, 2, 1)
        assert d.terms == {
            PauliString(("X",)): pytest.approx(0.5),
            PauliString(("Y",)): pytest.approx(0.5j),
        }

    def test_single_qubit_projectors(self):
        # |1><1| = (I + Z)/2 and |2><2| = (I - Z)/2
        top = decompose_ketbra(1, 1, 1)
        assert top.terms == {
            PauliString(("I",)): pytest.approx(0.5),
            PauliString(("Z",)): pytest.approx(0.5),
        }
        bottom = decompose_ketbra(2, 2, 1)
        assert bottom.terms == {
            PauliString(("I",)): pytest.approx(0.5),
            PauliString(("Z",)): pytest.approx(-0.5),
        }

    def test_single_qubit_lowering(self):
        d = decompose_ketbra(2, 1, 1)
        assert d.terms == {
            PauliString(("X",)): pytest.approx(0.5),
            PauliString(("Y",)): pytest.approx(-0.5j),
        }

    def test_one_qubit_matrices_are_exact(self):
        # the four 1-qubit building blocks, reassembled entrywise
        expected = {
            (1, 1): np.array([[1, 0], [0, 0]]),
            (2, 2): np.array([[0, 0], [0, 1]]),
            (1, 2): np.array([[0, 1], [0, 0]]),
            (2, 1): np.array([[0, 0], [1, 0]]),
        }
        for (i, j), matrix in expected.items():
            back = assemble(decompose_ketbra(i, j, 1))
            np.testing.assert_array_equal(back, matrix.astype(complex))

    def test_two_qubit_example_terms(self):
        # |1><2| on two qubits: quarter-weight X/Y on qubit 0 against I/Z
        # on qubit 1
        d = decompose_ketbra(1, 2, 2)
        expected = {
            PauliString(("X", "I")): 0.25,
            PauliString(("X", "Z")): 0.25,
            PauliString(("Y", "I")): 0.25j,
            PauliString(("Y", "Z")): 0.25j,
        }
        assert set(d.terms) == set(expected)
        for ps, coeff in expected.items():
            assert d.terms[ps] == pytest.approx(coeff)
        np.testing.assert_allclose(assemble(d), ketbra(1, 2, 2), atol=1e-15)

    def test_term_count_and_magnitude(self):
        for n in (1, 2, 3):
            for i, j in ((1, 2), (2, 2**n), (1, 1)):
                d = decompose_ketbra(i, j, n)
                assert len(d.terms) == 2**n
                for coeff in d.terms.values():
                    assert abs(coeff) == pytest.approx(2.0**-n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_reassembly_all_pairs(self, n):
        dim = 2**n
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                back = assemble(decompose_ketbra(i, j, n))
                assert np.abs(back - ketbra(i, j, n)).max() <= 1e-12

    def test_hermitian_pairing(self):
        for n in (1, 2, 3):
            for i, j in ((1, 2), (1, 2**n), (3, 2) if n > 1 else (2, 1)):
                d_ij = decompose_ketbra(i, j, n)
                d_ji = decompose_ketbra(j, i, n)
                assert set(d_ij.terms) == set(d_ji.terms)
                for ps, coeff in d_ij.terms.items():
                    assert d_ji.terms[ps] == pytest.approx(np.conj(coeff))

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError):
            decompose_ketbra(0, 1, 1)
        with pytest.raises(ValidationError):
            decompose_ketbra(1, 5, 2)

    @pytest.mark.parametrize("n", [-1, 0, MAX_QUBITS + 1, 16, 2.0, "2"])
    def test_qubit_count_out_of_range(self, n):
        with pytest.raises(ValidationError, match=f"num_qubits = {n!r} is not an integer"):
            decompose_ketbra(1, 1, n)

    def test_largest_qubit_count(self):
        d = decompose_ketbra(1, 2, MAX_QUBITS)
        assert len(d.terms) == 2**MAX_QUBITS


class TestExpectation:
    def test_projector_on_ground_state(self):
        d = decompose_ketbra(1, 1, 1)
        assert expectation_from_paulis(d, {PauliString(("Z",)): 1.0}) == pytest.approx(1.0)

    def test_plus_state_coherence(self):
        d = decompose_ketbra(1, 2, 1)
        means = {PauliString(("X",)): 1.0, PauliString(("Y",)): 0.0}
        assert expectation_from_paulis(d, means) == pytest.approx(0.5)

    def test_bell_coherence_from_enumerated_means(self):
        sv = simulate(parse_circuit("qubits 2\nh 0\ncx 0 1"))
        d = decompose_ketbra(1, 4, 2)
        means = {}
        for letters in itertools.product("IXYZ", repeat=2):
            ps = PauliString(letters)
            if not ps.is_identity:
                means[ps] = dense_expectation(sv, to_matrix(ps)).real
        assert expectation_from_paulis(d, means) == pytest.approx(0.5, abs=1e-12)

    def test_missing_strings_listed(self):
        d = decompose_ketbra(1, 2, 2)
        with pytest.raises(IncompleteDataError, match="XI"):
            expectation_from_paulis(d, {})

    def test_identity_tested_once_per_term_in_term_order(self, monkeypatch):
        d = decompose_ketbra(2, 2, 2)  # has the all-identity term
        means = {ps: 0.1 * (i + 1) for i, ps in enumerate(d.terms) if not ps.is_identity}
        expected = complex(0.0)
        for ps, coeff in d.terms.items():
            expected += coeff * means.get(ps, 1.0)
        seen = []
        is_identity = PauliString.is_identity.fget
        monkeypatch.setattr(
            PauliString, "is_identity",
            property(lambda ps: seen.append(ps) or is_identity(ps)),
        )
        assert expectation_from_paulis(d, means) == expected
        assert seen == list(d.terms)


class TestMeasurementSettings:
    def test_z_needs_no_rotation(self):
        setting = measurement_settings(PauliString(("Z",)))
        assert setting.rotations == ()
        assert setting.parity_mask == 0b1

    def test_x_on_second_qubit(self):
        setting = measurement_settings(PauliString(("I", "X")))
        assert len(setting.rotations) == 1
        assert setting.rotations[0].kind == "h"
        assert setting.rotations[0].targets == (1,)
        assert setting.parity_mask == 0b10

    def test_identity_rejected(self):
        with pytest.raises(ValidationError):
            measurement_settings(PauliString(("I", "I")))

    @staticmethod
    def _rotated_parity_mean(sv_circuit: Circuit, ps: PauliString) -> float:
        setting = measurement_settings(ps)
        rotated = simulate(
            Circuit(sv_circuit.num_qubits, sv_circuit.gates + setting.rotations)
        )
        probs = np.abs(rotated) ** 2
        idx = np.arange(probs.size)
        signs = np.ones(probs.size)
        for q in range(ps.num_qubits):
            if setting.parity_mask >> q & 1:
                signs *= 1.0 - 2.0 * ((idx >> q) & 1)
        return float(signs @ probs)

    def test_xy_string_matches_dense_expectation(self):
        c = parse_circuit("qubits 2\nry(0.8) 0\nrx(0.3) 1\ncx 0 1")
        ps = PauliString(("X", "Y"))
        sv = simulate(c)
        exact = dense_expectation(sv, to_matrix(ps)).real
        assert self._rotated_parity_mean(c, ps) == pytest.approx(exact, abs=1e-10)

    def test_all_two_qubit_strings_on_random_states(self):
        rng = np.random.default_rng(17)
        for trial in range(100):
            angles = rng.uniform(0, 2 * np.pi, size=4)
            c = parse_circuit(
                "qubits 2\n"
                f"ry({angles[0]}) 0\n"
                f"rx({angles[1]}) 1\n"
                "cx 0 1\n"
                f"rz({angles[2]}) 0\n"
                f"ry({angles[3]}) 1"
            )
            sv = simulate(c)
            for letters in itertools.product("IXYZ", repeat=2):
                ps = PauliString(letters)
                if ps.is_identity:
                    continue
                exact = dense_expectation(sv, to_matrix(ps)).real
                assert self._rotated_parity_mean(c, ps) == pytest.approx(
                    exact, abs=1e-10
                )

    def test_string_text_form(self):
        ps = PauliString(("X", "Z"))
        assert str(ps) == "XZ"
        assert ps.letters == ("X", "Z")
        np.testing.assert_allclose(
            to_matrix(ps),
            np.kron(np.diag([1, -1]), np.array([[0, 1], [1, 0]])),
            atol=1e-15,
        )
