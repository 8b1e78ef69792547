import itertools
import math

import numpy as np
import pytest
from conftest import assemble, basis_gates, dense_expectation, reference_basis, to_matrix

from qmaxent import ValidationError, sampler
from qmaxent.circuit import MAX_QUBITS, Circuit, Gate, parse_circuit, simulate
from qmaxent.pauli import PauliString, decompose_ketbra
from qmaxent.sampler import estimate_coherence, estimate_paulis, estimate_populations


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

    @pytest.mark.parametrize(
        ("i", "j", "message"),
        [
            (1.5, 2, r"^basis index i = 1\.5 is not an integer$"),
            (2.0, 1, r"^basis index i = 2\.0 is not an integer$"),
            (1, "2", r"^basis index j = '2' is not an integer$"),
            (1, None, r"^basis index j = None is not an integer$"),
        ],
    )
    def test_non_integer_index_rejected(self, i, j, message):
        # 1.5 >> q used to raise an untyped TypeError.
        with pytest.raises(ValidationError, match=message):
            decompose_ketbra(i, j, 2)

    @pytest.mark.parametrize("n", [-1, 0, MAX_QUBITS + 1, 16, 2.0, "2"])
    def test_qubit_count_out_of_range(self, n):
        with pytest.raises(ValidationError, match=f"num_qubits = {n!r} is not an integer"):
            decompose_ketbra(1, 1, n)

    def test_largest_qubit_count(self):
        d = decompose_ketbra(1, 2, MAX_QUBITS)
        assert len(d.terms) == 2**MAX_QUBITS


class TestRecombination:
    """The mean of |i><j| is its strings' means, each times its
    coefficient, summed."""

    def test_plus_state_coherence(self):
        assert estimate_coherence(simulate(parse_circuit("qubits 1\nh 0")), 1, 2) == (
            pytest.approx(0.5)
        )

    def test_bell_coherence_is_the_dense_expectation(self):
        sv = simulate(parse_circuit("qubits 2\nh 0\ncx 0 1"))
        want = dense_expectation(sv, ketbra(1, 4, 2))
        assert want == pytest.approx(0.5)
        assert estimate_coherence(sv, 1, 4) == pytest.approx(want, abs=1e-12)

    def test_diagonal_entries_are_populations(self):
        sv = simulate(parse_circuit("qubits 1"))
        with pytest.raises(ValidationError, match="use populations"):
            estimate_coherence(sv, 1, 1)
        assert estimate_populations(sv)[0] == 1.0

    @pytest.mark.parametrize(("i", "j", "n"), [(1, 2, 2), (3, 8, 3), (1, 64, 6)])
    def test_every_string_is_read_once(self, i, j, n):
        # Each string has one (basis, column) slot of the plan: its basis's
        # rotations, its parity signs and its coefficient.
        indices, signs_of, coeffs = sampler._ketbra_plan(i, j, n)
        rotations = [basis_gates(b, n) for b in indices]
        bases, dim, reads = signs_of.shape
        assert (bases, dim) == (len(rotations), 2**n)
        slots = []
        for p, coeff in decompose_ketbra(i, j, n).terms.items():
            basis_rotations, mask = reference_basis(p)
            basis = rotations.index(basis_rotations)
            signs = sampler._parity_signs(n, mask)
            (column,) = [c for c in range(reads) if (signs_of[basis, :, c] == signs).all()]
            assert coeffs[basis * reads + column] == coeff
            slots.append((basis, column))
        assert sorted(slots) == list(itertools.product(range(bases), range(reads)))

    def test_means_are_weighted_by_their_coefficients(self):
        # Any frequencies: the recombined value of each row is
        # sum coeff * (signs @ f) over the strings, to rounding.
        n = 3
        plan = sampler._ketbra_plan(2, 7, n)
        freqs = np.random.default_rng(5).random((4, len(plan[0]), 2**n))
        got = sampler._recombine(plan, freqs)
        rotations_of = [basis_gates(b, n) for b in plan[0]]
        for row, value in zip(freqs, got):
            want = complex(0.0)
            for p, coeff in decompose_ketbra(2, 7, n).terms.items():
                rotations, mask = reference_basis(p)
                f = row[rotations_of.index(rotations)]
                want += coeff * float(sampler._parity_signs(n, mask) @ f)
            assert abs(value - want) <= 1e-14


def parity_signs(n: int, mask: int) -> np.ndarray:
    idx = np.arange(2**n)
    signs = np.ones(idx.size)
    for q in range(n):
        if mask >> q & 1:
            signs *= 1.0 - 2.0 * ((idx >> q) & 1)
    return signs


class TestMeasurementBases:
    """The bases and parity masks ``sampler._group_bases`` gives the
    strings of a plan: a basis is its index sum(d_q 3^q), with digit 0
    for I or Z, 1 for X (read after H) and 2 for Y (RZ(-pi/2) then H)."""

    def test_z_needs_no_rotation(self):
        ((index, reads),) = sampler._group_bases((PauliString(("Z",)),), 1).items()
        assert index == 0 and basis_gates(index, 1) == ()
        assert reads[0][0] == 0 and (reads[0][1] == parity_signs(1, 0b1)).all()

    def test_x_and_y_on_the_second_qubit(self):
        # |1><3| on 2 qubits: I or Z on qubit 0, X or Y on qubit 1.
        indices, signs, _ = sampler._ketbra_plan(1, 3, 2)
        assert indices == (3, 6)
        h, rz = Gate("h", (1,)), Gate("rz", (1,), -math.pi / 2)
        assert [basis_gates(b, 2) for b in indices] == [(h,), (rz, h)]
        # Each basis reads the string with I (mask 0b10) and with Z (0b11).
        for basis in range(2):
            assert sorted(map(tuple, signs[basis].T)) == sorted(
                tuple(parity_signs(2, mask)) for mask in (0b10, 0b11)
            )

    def test_identity_rejected(self):
        identity = PauliString(("I", "I"))
        with pytest.raises(ValidationError, match="all-identity"):
            sampler._group_bases((identity,), 2)
        with pytest.raises(ValidationError, match="all-identity"):
            estimate_paulis(simulate(parse_circuit("qubits 2")), [identity])

    @staticmethod
    def _rotated_parity_mean(sv_circuit: Circuit, ps: PauliString) -> float:
        groups = sampler._group_bases((ps,), ps.num_qubits)
        ((index, ((_, signs),)),) = groups.items()
        rotations = basis_gates(index, ps.num_qubits)
        rotated = simulate(Circuit(sv_circuit.num_qubits, sv_circuit.gates + rotations))
        return float(signs @ np.abs(rotated) ** 2)

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
