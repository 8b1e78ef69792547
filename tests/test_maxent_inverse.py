import numpy as np
import pytest
from conftest import random_feasible_record, vn_entropy

import math
import warnings

from qmaxent import DomainError, InfeasibleRecordError, ValidationError
from qmaxent.maxent import (
    LagrangeSet,
    MeasurementRecord,
    density_from_lagrange,
    feasible_record,
    forward_expectations,
    predict_population,
    reconstruct,
    saturation_rescale,
    solve_lagrange,
    solve_record,
    spectrum,
)


def record_deviation(a: MeasurementRecord, b: MeasurementRecord) -> float:
    return max(abs(a.x_11 - b.x_11), abs(a.x_1k - b.x_1k), abs(a.x_kk - b.x_kk))


class TestPredict:
    def test_bell_values(self):
        assert predict_population(0.5, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_equal_superposition(self):
        assert predict_population(0.25, 0.25) == pytest.approx(0.25, abs=1e-15)

    def test_complex_coherence(self):
        assert predict_population(0.5, 0.3 + 0.4j) == pytest.approx(0.5, abs=1e-12)

    def test_matches_pure_state_truth(self):
        from qmaxent.circuit import coherence, parse_circuit, populations, simulate

        sv = simulate(parse_circuit("qubits 2\nry(0.9) 0\ncx 0 1\nrx(0.4) 1\nh 0"))
        pops = populations(sv)
        for k in range(2, 5):
            x1k = complex(sv[0] * np.conj(sv[k - 1]))
            assert predict_population(pops[0], x1k) == pytest.approx(
                pops[k - 1], abs=1e-9
            )
            # same value through the measured-coherence convention
            assert predict_population(pops[0], coherence(sv, 1, k)) == pytest.approx(
                pops[k - 1], abs=1e-9
            )

    def test_degenerate_input_rejected(self):
        with pytest.raises(DomainError):
            predict_population(0.0, 0.1)
        with pytest.raises(DomainError):
            predict_population(1e-13, 0.1)

    def test_clamped_with_warning(self):
        with pytest.warns(RuntimeWarning, match="clamped"):
            value = predict_population(0.6, 0.55)
        assert value == pytest.approx(0.4, abs=1e-12)

    def test_rounding_excess_clamped_without_warning(self):
        # A pure state (cos t, sin t): |x1K|^2 / x11 exceeds 1 - x11 by 2.7e-17.
        mr = MeasurementRecord(4, 2, 0.9999975351020253, 0.0015699974200726052)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = predict_population(mr.x_11, mr.x_1k)
            solve_record(mr)
        assert value == 1.0 - mr.x_11
        with pytest.warns(RuntimeWarning, match="clamped"):
            value = predict_population(0.5, 0.6)
        assert value == 0.5


class TestSolveClosedForm:
    def test_maximally_mixed(self):
        ls = solve_lagrange(MeasurementRecord(4, 2, 0.25, 0.0, 0.25))
        assert ls.lam_11 == pytest.approx(0.0, abs=1e-12)
        assert abs(ls.lam_1k) == pytest.approx(0.0, abs=1e-12)
        assert ls.lam_kk == pytest.approx(0.0, abs=1e-12)

    def test_hand_checked_record(self):
        # exp(block) = 5 * [[.4, .2], [.2, .2]]: multipliers from the log
        ls = solve_lagrange(MeasurementRecord(4, 2, 0.4, 0.2, 0.2))
        assert ls.lam_11 == pytest.approx(-0.4304, abs=1e-4)
        assert ls.lam_1k == pytest.approx(-0.8608 + 0j, abs=1e-4)
        assert ls.lam_kk == pytest.approx(0.4304, abs=1e-4)
        assert not ls.near_singular
        reproduced = forward_expectations(ls)
        assert record_deviation(reproduced, MeasurementRecord(4, 2, 0.4, 0.2, 0.2)) <= 1e-12

    def test_forward_reference_roundtrip(self):
        target = forward_expectations(LagrangeSet(4, 2, 1.0, 0.5, 0.0))
        mr = MeasurementRecord(4, 2, 0.1234, -0.0933, 0.3099)  # 4-digit inputs
        ls = solve_lagrange(mr)
        assert ls.lam_11 == pytest.approx(1.0, abs=1e-3 * 10)
        assert ls.lam_1k.real == pytest.approx(0.5, abs=1e-2)
        assert record_deviation(forward_expectations(ls), mr) <= 1e-8
        # exact inputs recover the multipliers tightly
        ls_exact = solve_lagrange(target)
        assert ls_exact.lam_11 == pytest.approx(1.0, abs=1e-9)
        assert ls_exact.lam_1k == pytest.approx(0.5 + 0j, abs=1e-9)
        assert ls_exact.lam_kk == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_saturated_record(self):
        with pytest.raises(InfeasibleRecordError):
            solve_lagrange(MeasurementRecord(4, 4, 0.5, 0.5, 0.5))

    def test_incomplete_record_rejected(self):
        with pytest.raises(ValidationError):
            solve_lagrange(MeasurementRecord(4, 2, 0.4, 0.2, None))

    def test_rank_deficient_record_flagged(self):
        mr = saturation_rescale(MeasurementRecord(4, 4, 0.5, 0.5, 0.5))
        ls = solve_lagrange(mr)
        assert ls.near_singular
        assert record_deviation(forward_expectations(ls), mr) <= 1e-8

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            solve_lagrange(MeasurementRecord(4, 2, 0.25, 0.0, 0.25), method="magic")


class TestSolverAgreement:
    def test_roundtrip_and_newton_agreement(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            mr = random_feasible_record(rng)
            cf = solve_lagrange(mr, method="closed_form")
            assert record_deviation(forward_expectations(cf), mr) <= 1e-8
            nt = solve_lagrange(mr, method="newton")
            assert record_deviation(forward_expectations(nt), mr) <= 1e-8
            assert abs(cf.lam_11 - nt.lam_11) <= 1e-6
            assert abs(cf.lam_1k - nt.lam_1k) <= 1e-6
            assert abs(cf.lam_kk - nt.lam_kk) <= 1e-6


class TestReconstruct:
    def test_bell_record(self):
        mr = MeasurementRecord(4, 4, 0.5, 0.5)  # x_kk unknown
        rho, completed = reconstruct(mr)
        assert completed.source == "predicted"
        assert completed.x_kk == pytest.approx(0.5, abs=1e-12)
        assert rho[0, 0].real == pytest.approx(0.5, abs=1e-8)
        assert rho[3, 3].real == pytest.approx(0.5, abs=1e-8)
        assert rho[0, 3].real == pytest.approx(0.5, abs=1e-8)
        assert rho[1, 1].real == pytest.approx(0.0, abs=1e-8)
        assert rho[2, 2].real == pytest.approx(0.0, abs=1e-8)
        # reconstruction reproduces the measured record
        assert rho[0, 0].real == pytest.approx(mr.x_11, abs=1e-8)
        assert complex(rho[0, 3]) == pytest.approx(mr.x_1k, abs=1e-8)

    def test_prediction_fills_missing_population(self):
        rho, completed = reconstruct(MeasurementRecord(4, 2, 0.4, 0.2))
        assert completed.x_kk == pytest.approx(0.1, abs=1e-12)
        assert rho[0, 0].real == pytest.approx(0.4, abs=1e-8)
        assert complex(rho[0, 1]) == pytest.approx(0.2 + 0j, abs=1e-8)
        assert rho[1, 1].real == pytest.approx(0.1, abs=1e-8)

    def test_saturated_complete_record_is_infeasible(self):
        # the caller's record is solved as given, never rescaled
        for mr in (
            MeasurementRecord(4, 4, 0.5, 0.5, 0.5),
            MeasurementRecord(4, 2, 0.6, 0.0, 0.4),
            MeasurementRecord(8, 3, 0.3, 0.1j, 0.7 - 5e-13),
        ):
            with pytest.raises(InfeasibleRecordError):
                reconstruct(mr)

    def test_complete_record_passes_through(self):
        mr = MeasurementRecord(4, 2, 0.3, 0.1 + 0.05j, 0.25)
        rho, completed = reconstruct(mr)
        assert completed is mr
        assert complex(rho[0, 1]) == pytest.approx(0.1 + 0.05j, abs=1e-8)


class TestSolveRecord:
    def test_estimated_population_is_projected_and_rescaled(self):
        # a Bell pair's true x_kk saturates the record, as in case B
        completed, ls = solve_record(MeasurementRecord(4, 4, 0.5, 0.5), 0.5)
        assert completed.source == "measured"
        assert (completed.x_11, completed.x_1k, completed.x_kk) == (0.5, 0.5, 0.5)
        assert ls.near_singular
        rescaled = saturation_rescale(completed)
        assert record_deviation(forward_expectations(ls), rescaled) <= 1e-8

    def test_noisy_estimate_is_projected(self):
        completed, _ = solve_record(MeasurementRecord(4, 2, 0.52, 0.53), 0.51)
        assert completed == feasible_record(4, 2, 0.52, 0.53, 0.51)

    def test_prediction_matches_reconstruct(self):
        mr = MeasurementRecord(8, 6, 0.3, 0.2 - 0.1j)
        completed, ls = solve_record(mr)
        rho, same = reconstruct(mr)
        assert completed == same and completed.source == "predicted"
        np.testing.assert_array_equal(rho, density_from_lagrange(ls))

    def test_complete_record_takes_no_second_population(self):
        with pytest.raises(ValidationError, match="already"):
            solve_record(MeasurementRecord(4, 2, 0.3, 0.1, 0.2), 0.2)


class TestNonFiniteRecords:
    @pytest.mark.parametrize(
        ("name", "values"),
        [
            ("x_11", (math.nan, 0.1, 0.3)),
            ("x_1k", (0.3, complex(math.nan, 0.0), 0.3)),
            ("x_1k", (0.3, complex(0.0, math.inf), None)),
            ("x_kk", (0.3, 0.1, math.nan)),
            ("x_kk", (0.3, 0.1, -math.inf)),
        ],
    )
    def test_field_is_named(self, name, values):
        with pytest.raises(ValidationError, match=f"{name} = .* not finite"):
            MeasurementRecord(4, 2, *values)


class TestProperties:
    def test_pure_state_records_satisfy_minor_equality(self):
        from qmaxent.circuit import parse_circuit, populations, simulate

        rng = np.random.default_rng(77)
        for _ in range(50):
            angles = rng.uniform(0, 2 * np.pi, size=3)
            text = (
                "qubits 2\n"
                f"ry({angles[0]}) 0\n"
                f"rx({angles[1]}) 1\n"
                "cx 0 1\n"
                f"rz({angles[2]}) 1"
            )
            sv = simulate(parse_circuit(text))
            pops = populations(sv)
            for k in range(2, 5):
                x1k = sv[0] * np.conj(sv[k - 1])
                assert abs(x1k) ** 2 == pytest.approx(
                    pops[0] * pops[k - 1], abs=1e-9
                )

    def test_reconstruction_maximizes_entropy_on_constraint_set(self):
        rng = np.random.default_rng(88)
        for _ in range(100):
            mr = random_feasible_record(rng)
            ls = solve_lagrange(mr)
            rho = density_from_lagrange(ls)
            base_entropy = vn_entropy(rho)
            n, k = mr.dim_n, mr.index_k - 1
            rest = [i for i in range(n) if i not in (0, k)]
            budget = 1.0 - mr.x_11 - mr.x_kk
            for _ in range(50):
                # same constraints, different state: redistribute the
                # unconstrained block
                g = rng.standard_normal((n - 2, n - 2)) + 1j * rng.standard_normal(
                    (n - 2, n - 2)
                )
                block = g @ g.conj().T
                block *= budget / np.trace(block).real
                perturbed = np.array(rho)
                perturbed[np.ix_(rest, rest)] = block
                assert vn_entropy(perturbed) <= base_entropy + 1e-9

    def test_saturation_rescale_changes_nothing_for_interior_records(self):
        mr = MeasurementRecord(4, 2, 0.3, 0.1, 0.2)
        assert saturation_rescale(mr) is mr

    def test_feasible_record_projects_noisy_estimates(self):
        raw = feasible_record(4, 2, 0.52, 0.53, 0.51)
        assert raw.x_11 + raw.x_kk <= 1.0 + 1e-12
        assert abs(raw.x_1k) ** 2 <= raw.x_11 * raw.x_kk + 1e-12
        clean = feasible_record(4, 2, 0.25, 0.1 + 0.1j, 0.25)
        assert clean.x_11 == 0.25 and clean.x_kk == 0.25
        assert clean.x_1k == 0.1 + 0.1j

    def test_spectrum_weights_reconstruct_partition_function(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            mr = random_feasible_record(rng)
            s = spectrum(solve_lagrange(mr))
            assert s.z == pytest.approx(np.exp(np.array(s.eps)).sum(), rel=1e-12)
