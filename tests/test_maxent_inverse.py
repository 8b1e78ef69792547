import numpy as np
import pytest
from conftest import (
    EPS,
    check_forward,
    newton_lagrange,
    random_feasible_record,
    vn_entropy,
)

import math
import warnings

from qmaxent import DomainError, InfeasibleRecordError, ValidationError, maxent
from qmaxent.maxent import (
    LagrangeSet,
    MeasurementRecord,
    density_from_lagrange,
    predict_population,
    reconstruct,
    solve_lagrange,
    solve_record,
)


def block_record(ls: LagrangeSet) -> MeasurementRecord:
    """The mean values (x11, x1K, xKK) the multipliers generate, read from
    the block of their density."""
    rho, k = density_from_lagrange(ls), ls.index_k - 1
    return MeasurementRecord(ls.dim_n, ls.index_k, rho[0, 0].real, rho[0, k], rho[k, k].real)


def record_deviation(ls: LagrangeSet, mr: MeasurementRecord) -> float:
    """How far the mean values the multipliers generate lie from a record."""
    a = block_record(ls)
    return max(abs(a.x_11 - mr.x_11), abs(a.x_1k - mr.x_1k), abs(a.x_kk - mr.x_kk))


def arrays(*values):
    return tuple(np.array([v]) for v in values)


def project(x11, x1k, xkk):
    """``maxent._project`` of one-point arrays, with |x1K| taken for it."""
    return maxent._project(x11, x1k, xkk, maxent._modulus(x1k))


def kernel_record(mr: MeasurementRecord, values) -> MeasurementRecord:
    """``mr`` with the one-point (x11, x1K, xKK) arrays of a kernel."""
    return MeasurementRecord(mr.dim_n, mr.index_k, *(v.item() for v in values))


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
        assert record_deviation(ls, MeasurementRecord(4, 2, 0.4, 0.2, 0.2)) <= 1e-12

    def test_forward_reference_roundtrip(self):
        target = block_record(LagrangeSet(4, 2, 1.0, 0.5, 0.0))
        mr = MeasurementRecord(4, 2, 0.1234, -0.0933, 0.3099)  # 4-digit inputs
        ls = solve_lagrange(mr)
        assert ls.lam_11 == pytest.approx(1.0, abs=1e-3 * 10)
        assert ls.lam_1k.real == pytest.approx(0.5, abs=1e-2)
        assert record_deviation(ls, mr) <= 1e-8
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
        saturated = MeasurementRecord(4, 4, 0.5, 0.5, 0.5)
        values, fired = maxent._rescale(*arrays(0.5, 0.5 + 0j, 0.5))
        assert fired[0]
        mr = kernel_record(saturated, values)
        ls = solve_lagrange(mr)
        assert ls.near_singular
        assert record_deviation(ls, mr) <= 1e-8


class TestSolverAgreement:
    def test_roundtrip_and_newton_agreement(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            mr = random_feasible_record(rng)
            cf = solve_lagrange(mr)
            assert record_deviation(cf, mr) <= 1e-8
            nt = newton_lagrange(mr)
            assert record_deviation(nt, mr) <= 1e-8
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
        values, fired = maxent._rescale(*arrays(0.5, 0.5 + 0j, 0.5))
        assert fired[0]
        assert record_deviation(ls, kernel_record(completed, values)) <= 1e-8

    def test_noisy_estimate_is_projected(self):
        completed, _ = solve_record(MeasurementRecord(4, 2, 0.52, 0.53), 0.51)
        projected = project(*arrays(0.52, 0.53 + 0j, 0.51))
        assert completed == kernel_record(completed, projected)
        assert (completed.x_11, completed.x_kk) != (0.52, 0.51)

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
        ("name", "values", "problem"),
        [
            ("x_11", (math.nan, 0.1, 0.3), "not finite"),
            ("x_1k", (0.3, complex(math.nan, 0.0), 0.3), "not finite"),
            ("x_1k", (0.3, complex(0.0, math.inf), None), "not finite"),
            ("x_kk", (0.3, 0.1, math.nan), "not finite"),
            ("x_kk", (0.3, 0.1, -math.inf), "not finite"),
            ("x_11", ("0.3", 0.1, 0.3), "not a real number"),
            ("x_11", (0.3 + 0j, 0.1, 0.3), "not a real number"),
            ("x_1k", (0.3, "x", None), "not a complex number"),
            ("x_1k", (0.3, None, 0.3), "not a complex number"),
            ("x_kk", (0.3, 0.1, [0.3]), "not a real number"),
            ("lam_11", ("1", 0.0, 0.0), "not a real number"),
            ("lam_1k", (0.0, b"1", 0.0), "not a complex number"),
            ("lam_kk", (0.0, 0.0, None), "not a real number"),
            ("lam_kk", (0.0, 0.0, np.complex128(1.0)), "not a real number"),
        ],
    )
    def test_field_is_named(self, name, values, problem):
        build = LagrangeSet if name.startswith("lam") else MeasurementRecord
        with pytest.raises(ValidationError, match=f"^{name} = .* is {problem}$"):
            build(4, 2, *values)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["x_11", "x_1k", "x_kk"])
    def test_infinite_estimate_is_named_not_clipped(self, name, bad):
        values = {"x_11": 0.3, "x_1k": 0.1, "x_kk": 0.2, name: bad}
        match = f"^{name} = .*inf.* is not finite$"
        with pytest.raises(ValidationError, match=match):
            project(*arrays(values["x_11"], complex(values["x_1k"]), values["x_kk"]))
        x_kk = values.pop("x_kk")
        # An infinite x_11 or x_1k is refused by the record solve_record takes.
        with pytest.raises(ValidationError, match=match):
            solve_record(MeasurementRecord(4, 2, **values), x_kk=x_kk)


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
        values = arrays(0.3, 0.1 + 0j, 0.2)
        rescaled, fired = maxent._rescale(*values)
        assert not fired[0]
        assert [v.tobytes() for v in rescaled] == [v.tobytes() for v in values]

    def test_projection_of_noisy_estimates_is_feasible(self):
        x11, x1k, xkk = project(*arrays(0.52, 0.53 + 0j, 0.51))
        assert x11[0] + xkk[0] <= 1.0 + 1e-12
        assert abs(x1k[0]) ** 2 <= x11[0] * xkk[0] + 1e-12
        x11, x1k, xkk = project(*arrays(0.25, 0.1 + 0.1j, 0.25))
        assert x11[0] == 0.25 and xkk[0] == 0.25
        assert x1k[0] == 0.1 + 0.1j

    def test_spectrum_weights_reconstruct_partition_function(self):
        # The forward z of the solved multipliers is the inverse's
        # Z = (N-2)/(1 - x11 - xKK), and the trace of the block plus the
        # N-2 unit weights of the unconstrained states; each block entry
        # is mpmath.expm's.
        rng = np.random.default_rng(123)
        for _ in range(100):
            mr = random_feasible_record(rng)
            lams, _, (z, block) = maxent._solve(mr.dim_n, *arrays(mr.x_11, mr.x_1k, mr.x_kk))
            z, (e11, e1k, ekk) = z[0].item(), (v[0].item() for v in block)
            assert z == pytest.approx(e11 + ekk + (mr.dim_n - 2), rel=2 * EPS)
            assert z == pytest.approx((mr.dim_n - 2) / (1 - mr.x_11 - mr.x_kk), rel=1e-13)
            check_forward(mr.dim_n, tuple(v[0].item() for v in lams), z, (e11, e1k, ekk))


class TestScalarInputErrors:
    @pytest.mark.parametrize(
        ("x11", "x1k", "name"),
        [
            (math.nan, 0.1, "x_11"),
            (math.inf, 0.1, "x_11"),
            (-math.inf, 0.1, "x_11"),
            (0.5, math.inf, "x_1k"),
            (0.5, complex(0.1, math.nan), "x_1k"),
        ],
    )
    def test_non_finite_prediction_inputs_name_the_input(self, x11, x1k, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"{name} = .* is not finite"):
                predict_population(x11, x1k)

    @pytest.mark.parametrize(
        "build",
        [
            lambda z: MeasurementRecord(4, 2, 0.5, z),
            lambda z: MeasurementRecord(4, 2, 0.5, z, 0.25),
            lambda z: predict_population(0.5, z),
            lambda z: project(*arrays(0.5, z, 0.25)),
            lambda z: LagrangeSet(4, 2, 0.5, z, 0.25),
        ],
    )
    def test_modulus_past_the_float_range_names_the_value(self, build):
        # Each part is finite, but abs() of the value overflows.
        huge = complex(1.5e308, 1.5e308)
        with pytest.raises(
            ValidationError, match=r"= \(1\.5e\+308\+1\.5e\+308j\) has a modulus past"
        ):
            build(huge)

    @pytest.mark.parametrize(
        ("dim_n", "index_k", "name"),
        [(4.0, 2, "dim_n"), (4, 2.0, "index_k"), ("4", 2, "dim_n"), (4, None, "index_k")],
    )
    def test_non_integer_dimensions_name_the_input(self, dim_n, index_k, name):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            MeasurementRecord(dim_n, index_k, 0.5, 0.1)
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            LagrangeSet(dim_n, index_k, 0.0, 0.0, 0.0)

    def test_numpy_integer_dimensions_accepted(self):
        mr = MeasurementRecord(np.int64(4), np.int64(2), 0.5, 0.1)
        assert (mr.dim_n, mr.index_k) == (4, 2)
