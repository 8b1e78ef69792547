"""Each numerical tolerance is one private constant of the module whose
check enforces it. Each is pinned here from both sides: a value just
inside passes and a value just outside raises, through the library and,
where a command reaches the check, through ``run_sweep``, ``run_case_ab``
or ``qmaxent reconstruct``. README's tolerance table is checked against
the constants.
"""

import ast
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import tolerance_literal

import qmaxent.errors
from qmaxent import (
    CalibrationMatrix,
    DomainError,
    InfeasibleRecordError,
    MeasurementRecord,
    ReadoutNoise,
    TomographyError,
    ValidationError,
    apply_gates,
    density_from_lagrange,
    fidelity,
    mitigate,
    populations,
    predict_population,
    solve_lagrange,
    solve_record,
)
from qmaxent import circuit, linalg, maxent, sampler
from qmaxent.cli import ExperimentConfig, main, run_case_ab, run_sweep

ROOT = Path(__file__).resolve().parents[1]
MODULES = {"circuit": circuit, "linalg": linalg, "maxent": maxent, "sampler": sampler}


def up(x):
    return math.nextafter(x, math.inf)


def down(x):
    return math.nextafter(x, -math.inf)


def arrays(*values):
    return tuple(np.array([v]) for v in values)


# The README table.


def tolerance_rows() -> list[list[str]]:
    """The cells of each row of README's tolerance table."""
    section = (ROOT / "README.md").read_text().split("\n## Tolerances\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


def value_of(text: str) -> float:
    """The number a table cell such as ``1 - 1e-9`` writes: numbers, +
    and - only."""
    def value(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return node.value
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            left, right = value(node.left), value(node.right)
            return left + right if isinstance(node.op, ast.Add) else left - right
        raise ValueError(f"{text!r} is not a sum of numbers")

    return value(ast.parse(text, mode="eval").body)


def tolerance_constants() -> set[str]:
    """The module-level constants of the package whose value holds a
    ``tolerance_literal``: its tolerances."""
    names = set()
    for name in MODULES:
        tree = ast.parse((ROOT / "src" / "qmaxent" / f"{name}.py").read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(map(tolerance_literal, ast.walk(node.value))):
                names.update(f"{name}.{t.id}" for t in node.targets)
    return names


def test_the_readme_table_states_each_tolerance_as_the_code_does():
    rows = tolerance_rows()
    named = [row[0].strip("`") for row in rows]
    assert sorted(named) == sorted(tolerance_constants())
    for (name, value, bounds, error) in rows:
        module, constant = name.strip("`").split(".")
        assert getattr(MODULES[module], constant) == value_of(value.strip("`")), name
        assert bounds
        raised = re.findall(r"`(\w+)`", error)
        assert raised or error == "none", name
        for kind in raised:
            assert issubclass(getattr(qmaxent.errors, kind), TomographyError), name


def test_a_table_value_is_read_as_written():
    assert value_of("1 - 1e-9") == 1.0 - 1e-9
    assert value_of("1e12") == 1e12
    with pytest.raises(ValueError):
        value_of("2 * 1e-9")


# maxent._RECORD_ATOL


def record_file(tmp_path, **values) -> str:
    path = tmp_path / "record.txt"
    path.write_text("".join(f"{key} {value!r}\n" for key, value in values.items()))
    return str(path)


@pytest.mark.parametrize(
    ("inside", "outside"),
    [(1 + maxent._RECORD_ATOL, up(1 + maxent._RECORD_ATOL)),
     (-maxent._RECORD_ATOL, down(-maxent._RECORD_ATOL))],
)
def test_a_population_may_leave_the_unit_interval_by_the_record_slack(inside, outside):
    assert MeasurementRecord(4, 2, inside, 0.0).x_11 == inside
    assert MeasurementRecord(4, 2, 0.0, 0.0, inside).x_kk == inside
    with pytest.raises(ValidationError, match="^x_11 = .* outside"):
        MeasurementRecord(4, 2, outside, 0.0)
    with pytest.raises(ValidationError, match="^x_kk = .* outside"):
        MeasurementRecord(4, 2, 0.0, 0.0, outside)


def test_a_record_sum_may_pass_one_by_the_record_slack(tmp_path, capsys):
    # A sum within the slack is a valid record that saturates: infeasible,
    # exit code 3. One ulp more is not a record: exit code 2.
    top = 1 + maxent._RECORD_ATOL
    inside, outside = top - 0.5, up(top) - 0.5
    assert 0.5 + inside == top and 0.5 + outside == up(top)
    with pytest.raises(InfeasibleRecordError, match="saturates 1"):
        solve_lagrange(MeasurementRecord(4, 2, 0.5, 0.0, inside))
    with pytest.raises(ValidationError, match="^x_11 \\+ x_kk = .* exceeds 1$"):
        MeasurementRecord(4, 2, 0.5, 0.0, outside)
    path = record_file(tmp_path, n=4, k=2, x11=0.5, re_x1k=0.0, im_x1k=0.0, xkk=inside)
    assert main(["reconstruct", path]) == 3
    path = record_file(tmp_path, n=4, k=2, x11=0.5, re_x1k=0.0, im_x1k=0.0, xkk=outside)
    assert main(["reconstruct", path]) == 2
    assert "exceeds 1" in capsys.readouterr().err


@pytest.mark.parametrize("share", [1 - 1e-6, 1 + 1e-6])
def test_a_minor_eigenvalue_may_be_negative_by_the_record_slack(share):
    # x11 = xKK = 0.25 and |x1K|^2 = 1/16 + d: w+ = 1/2 and w- = -2d.
    d = 0.5 * maxent._RECORD_ATOL * share
    record = MeasurementRecord(4, 2, 0.25, math.sqrt(0.0625 + d), 0.25)
    if share < 1:
        assert solve_lagrange(record).near_singular
    else:
        with pytest.raises(InfeasibleRecordError, match="negative eigenvalue -1.000e-09"):
            solve_lagrange(record)


# maxent._POPULATION_FLOOR


def test_the_prediction_is_undefined_at_the_floor_and_defined_one_ulp_above(tmp_path):
    floor = maxent._POPULATION_FLOOR
    assert not maxent._above_floor(floor) and maxent._above_floor(up(floor))
    with pytest.raises(DomainError, match="at or below the floor 1e-12"):
        predict_population(floor, 0.0)
    assert predict_population(up(floor), 0.0) == 0.0
    path = record_file(tmp_path, n=4, k=2, x11=floor, re_x1k=0.0, im_x1k=0.0)
    assert main(["reconstruct", path]) == 2
    path = record_file(tmp_path, n=4, k=2, x11=up(floor), re_x1k=0.0, im_x1k=0.0)
    assert main(["reconstruct", path]) == 0


def angle_of_sine(target: float) -> float:
    """A float x whose math.sin is ``target`` exactly."""
    x = math.asin(target)
    for _ in range(64):
        if math.sin(x) == target:
            return x
        x = up(x) if math.sin(x) < target else down(x)
    raise AssertionError(f"no float has the sine {target!r}")


@pytest.mark.parametrize("amplitude", [1e-6, up(1e-6)])
def test_a_sweep_leaves_a_point_at_the_floor_unsolved(tmp_path, amplitude):
    # ry(theta) on |1> has the amplitude -sin(theta / 2) on |00>, so x11 is
    # its square: the floor itself for 1e-6, and the next float a square
    # reaches, 2 ulps above it, for the next amplitude.
    path = tmp_path / "ry.qc"
    path.write_text("qubits 2\nx 0\nry(theta) 0\n")
    cfg = ExperimentConfig(
        str(path), theta_start=2 * angle_of_sine(amplitude), theta_steps=1, k_targets=(2,)
    )
    rows, kept = run_sweep(cfg), run_case_ab(cfg)
    assert rows.x11[0] == amplitude * amplitude
    assert rows.near_singular[0]
    if amplitude == 1e-6:
        assert rows.x11[0] == maxent._POPULATION_FLOOR
        assert not rows.solved[0]
        assert math.isnan(rows.xkk_pred[0]) and math.isnan(rows.fidelity[0])
        assert len(kept) == 0
    else:
        assert rows.x11[0] == up(up(maxent._POPULATION_FLOOR))
        assert rows.solved[0]
        assert math.isfinite(rows.xkk_pred[0]) and math.isfinite(rows.fidelity[0])
        assert len(kept) == 1


# maxent._FEASIBILITY_ATOL


def test_a_complete_record_saturates_within_the_feasibility_slack(tmp_path):
    boundary = 1.0 - maxent._FEASIBILITY_ATOL
    inside, outside = down(boundary) - 0.5, boundary - 0.5
    assert 0.5 + inside == down(boundary) and 0.5 + outside == boundary
    assert not solve_lagrange(MeasurementRecord(4, 2, 0.5, 0.0, inside)).near_singular
    with pytest.raises(InfeasibleRecordError, match="saturates 1"):
        solve_lagrange(MeasurementRecord(4, 2, 0.5, 0.0, outside))
    for xkk, code in ((inside, 0), (outside, 3)):
        path = record_file(tmp_path, n=4, k=2, x11=0.5, re_x1k=0.0, im_x1k=0.0, xkk=xkk)
        assert main(["reconstruct", path]) == code


def test_an_estimate_is_rescaled_within_the_feasibility_slack():
    boundary = 1.0 - maxent._FEASIBILITY_ATOL
    xkk = np.array([down(boundary) - 0.5, boundary - 0.5])
    (r11, _, rkk), fired = maxent._rescale(np.full(2, 0.5), np.zeros(2, complex), xkk)
    assert fired.tolist() == [False, True]
    assert r11[0] + rkk[0] == down(boundary)


@pytest.mark.parametrize("share", [1 - 1e-2, 1 + 1e-2])
def test_a_prediction_clamped_past_the_feasibility_slack_warns(share):
    # |x1K|^2 / x11 passes the ceiling 1 - x11 = 0.5 by share * 1e-12.
    excess = maxent._FEASIBILITY_ATOL * share
    x1k = math.sqrt(0.5 * (0.5 + excess))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert predict_population(0.5, x1k) == 0.5
    assert [str(w.message).startswith("predicted population") for w in caught] == (
        [] if share < 1 else [True]
    )


# maxent._RESCALE_TARGET


def test_a_saturated_estimate_is_scaled_to_the_rescale_target():
    assert maxent._RESCALE_TARGET == 1.0 - 1e-9
    (r11, _, rkk), fired = maxent._rescale(*arrays(0.5, 0.5 + 0j, 0.5))
    assert fired.all() and (r11 + rkk).item() == maxent._RESCALE_TARGET
    # The two unconstrained levels then share 1 - (1 - 1e-9): 1/Z = 5e-10.
    rho = density_from_lagrange(solve_record(MeasurementRecord(4, 2, 0.5, 0.5))[1])
    assert rho[2, 2].real == pytest.approx(0.5 * (1.0 - maxent._RESCALE_TARGET), rel=1e-6)


# maxent._LOG_FLOOR


@pytest.mark.parametrize("share", [1 - 1e-9, 1 + 1e-9])
def test_a_minor_eigenvalue_is_floored_at_the_log_floor(share):
    # x11 = 1/2, x1K = 0 and a small xKK: Z = 2/(1/2 - xKK) and
    # Z w- = Z xKK, which is the floor at xKK = floor / (4 + 2 floor).
    floor = maxent._LOG_FLOOR
    xkk = floor / (4 + 2 * floor) * share
    assert solve_lagrange(MeasurementRecord(4, 2, 0.5, 0.0, xkk)).near_singular == (share < 1)


# maxent._REPRODUCTION_ATOL


@pytest.mark.parametrize("part", [0, 1, 2])
@pytest.mark.parametrize("share", [1 - 1e-6, 1 + 1e-6])
def test_the_solve_reproduces_its_record_within_the_reproduction_slack(part, share):
    spec = maxent._exponent_spectrum(4, *arrays(0.3, 0.1 + 0.2j, -0.4))
    values = list(maxent._expectations(spec))
    offset = maxent._REPRODUCTION_ATOL * share
    values[part] = values[part] + (offset * (0.6 + 0.8j) if part == 1 else offset)
    if share < 1:
        maxent._check_reproduction(spec, *values)
    else:
        with pytest.raises(TomographyError, match="failed to reproduce the record"):
            maxent._check_reproduction(spec, *values)


# linalg._DENSITY_ATOL


def test_a_density_matrix_may_be_off_hermitian_by_the_density_slack():
    tol = linalg._DENSITY_ATOL
    rho = np.array([[0.5, tol], [0.0, 0.5]])
    assert fidelity(rho, np.eye(2) / 2) == pytest.approx(1.0)
    rho[0, 1] = up(tol)
    with pytest.raises(ValidationError, match=r"^rho: matrix is not Hermitian.*\(tolerance 1.0e-08\)$"):
        fidelity(rho, np.eye(2) / 2)


@pytest.mark.parametrize("share", [1 - 1e-6, 1 + 1e-6])
def test_a_density_matrix_trace_may_be_off_one_by_the_density_slack(share):
    sigma = np.diag([0.5, 0.5 + linalg._DENSITY_ATOL * share])
    if share < 1:
        assert fidelity(np.eye(2) / 2, sigma) == pytest.approx(1.0)
    else:
        with pytest.raises(ValidationError, match="^sigma is not trace one$"):
            fidelity(np.eye(2) / 2, sigma)


def test_a_density_matrix_eigenvalue_may_be_negative_by_the_density_slack():
    tol = linalg._DENSITY_ATOL
    assert fidelity(np.diag([1 + tol, -tol]), np.diag([1.0, 0.0])) == pytest.approx(1.0)
    with pytest.raises(ValidationError, match="^rho is not positive semidefinite"):
        fidelity(np.diag([1 + tol, down(-tol)]), np.diag([1.0, 0.0]))


# circuit._NORM_ATOL


@pytest.mark.parametrize("share", [1 - 1e-4, 1 + 1e-4])
def test_a_state_may_be_off_norm_one_by_the_norm_slack(share):
    off = circuit._NORM_ATOL * share
    state = np.array([1.0 + off, 0.0], dtype=complex)
    squared = np.array([math.sqrt(1.0 + off), 0.0])
    if share < 1:
        apply_gates(state, (), 1)
        populations(squared)
    else:
        with pytest.raises(TomographyError, match="norm drifted"):
            apply_gates(state, (), 1)
        with pytest.raises(ValidationError, match="not normalized"):
            populations(squared)


# sampler._COLUMN_SUM_ATOL, the sign of a calibration entry,
# sampler._FREQUENCY_SUM_ATOL and sampler._CONDITION_LIMIT


@pytest.mark.parametrize("share", [1 - 1e-3, 1 + 1e-3])
def test_a_calibration_column_may_sum_off_one_by_the_column_slack(share):
    entries = np.array([[0.9, 0.0], [0.1 + sampler._COLUMN_SUM_ATOL * share, 1.0]])
    if share < 1:
        CalibrationMatrix(1, entries)
    else:
        with pytest.raises(ValidationError, match="^calibration columns must sum to 1$"):
            CalibrationMatrix(1, entries)


def test_a_calibration_entry_below_zero_is_refused_however_small():
    CalibrationMatrix(1, np.array([[1.0, 0.0], [0.0, 1.0]]))
    tiny = math.ulp(0.0)
    with pytest.raises(ValidationError, match="^calibration entries must be non-negative$"):
        CalibrationMatrix(1, np.array([[1.0, 0.0], [-tiny, 1.0]]))


@pytest.mark.parametrize("share", [1 - 1e-3, 1 + 1e-3])
def test_frequencies_may_sum_off_one_by_the_frequency_slack(share):
    freqs = np.array([0.5, 0.5 + sampler._FREQUENCY_SUM_ATOL * share])
    cal = CalibrationMatrix(1, np.eye(2))
    if share < 1:
        np.testing.assert_array_equal(mitigate(freqs, cal), freqs)
    else:
        with pytest.raises(ValidationError, match="^frequencies must be >= 0 and sum to 1"):
            mitigate(freqs, cal)


@pytest.mark.parametrize("share", [1 - 1e-2, 1 + 1e-2])
def test_a_calibration_is_inverted_up_to_the_condition_limit(share):
    # [[1 - p, p], [p, 1 - p]] has the condition number 1/(1 - 2p).
    p = 0.5 - 0.5 / (sampler._CONDITION_LIMIT * share)
    cal = CalibrationMatrix(1, np.array([[1 - p, p], [p, 1 - p]]))
    noise = ReadoutNoise((p, 0.0), (p, 0.0))
    cfg = ExperimentConfig(
        "bell", theta_steps=1, k_targets=(2,), backend="noisy", shots=100, noise=noise,
        mitigate=True,
    )
    freqs = np.array([0.5, 0.5])
    if share < 1:
        mitigate(freqs, cal)
        assert len(run_sweep(cfg)) == 1
        run_case_ab(cfg)
    else:
        for call in (lambda: mitigate(freqs, cal), lambda: run_sweep(cfg), lambda: run_case_ab(cfg)):
            with pytest.raises(DomainError, match="^calibration matrix is singular or ill-conditioned$"):
                call()
