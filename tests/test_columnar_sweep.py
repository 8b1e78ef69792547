"""A sweep is columns from the kernels to the CSV.

- ``run_sweep`` returns one ``Sweep`` of columns with the bits and types
  of the loop that built one point at a time (``reference_sweep_points``).
  ``run_case_ab`` returns its solved rows. A ``Sweep`` is not a sequence
  of points.
- The ``sweep`` and ``caseab`` commands build no multiplier set, and read
  their config and a circuit file once each.
"""

import dataclasses
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_sweep_points, sweep_bits, sweep_rows

import qmaxent.cli as cli
from qmaxent.cli import (
    ExperimentConfig,
    Sweep,
    emit_caseab_csv,
    load_config,
    main,
    run_case_ab,
    run_sweep,
)
from qmaxent.errors import ValidationError
from qmaxent.maxent import LagrangeSet, MeasurementRecord, solve_lagrange

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BUNDLED = ["sweep_exact.txt", "sweep_noisy_mitigated.txt", "caseab_shots.txt"]
COMMANDS = {"sweep_exact.txt": "sweep", "sweep_noisy_mitigated.txt": "sweep",
            "caseab_shots.txt": "caseab"}

# x on qubit 0 keeps x11 at 0 for every theta; rx(theta) on qubit 0 puts
# it at the floor at theta = pi only, between solved rows.
FLIP = "qubits 2\nx 0\nry(theta) 1\n"
MIXED = "qubits 2\nh 1\nrx(theta) 0\n"


def configs(tmp_path) -> dict[str, ExperimentConfig]:
    """The bundled configs and three with floor rows: every row, one
    theta's exact rows, and the sampled rows of the mixed circuit."""
    (tmp_path / "flip.qc").write_text(FLIP)
    (tmp_path / "mixed.qc").write_text(MIXED)
    return {
        **{name: load_config(CONFIGS / name) for name in BUNDLED},
        "flip": ExperimentConfig(str(tmp_path / "flip.qc"), theta_steps=5),
        "mixed": ExperimentConfig(str(tmp_path / "mixed.qc"), theta_steps=5),
        "mixed_shots": ExperimentConfig(
            str(tmp_path / "mixed.qc"), theta_steps=5, backend="shots", shots=64, seed=4
        ),
    }


@pytest.mark.parametrize("name", [*BUNDLED, "flip", "mixed", "mixed_shots"])
def test_columns_are_the_point_loop_bit_for_bit(tmp_path, name):
    cfg = configs(tmp_path)[name]
    want = reference_sweep_points(cfg)
    sweep = run_sweep(cfg)
    assert isinstance(sweep, Sweep) and len(sweep) == len(want)
    assert sweep_bits(sweep) == sweep_bits(want)
    # The derived columns, row by row in Python floats.
    true, pred = want.xkk_true.tolist(), want.xkk_pred.tolist()
    assert sweep.abs_diff.tobytes() == np.array([abs(t - p) for t, p in zip(true, pred)]).tobytes()
    flags = zip(want.solved.tolist(), want.near_a.tolist(), want.near_b.tolist())
    assert sweep.near_singular.tolist() == [not s or a or b for s, a, b in flags]
    assert sweep_bits(run_case_ab(cfg)) == sweep_bits(sweep_rows(want, want.solved))
    if name in ("flip", "mixed"):
        assert int(want.solved.sum()) == {"flip": 0, "mixed": 12}[name]


def test_a_sweep_is_columns_not_a_sequence(tmp_path):
    sweep = run_sweep(configs(tmp_path)["mixed"])
    assert len(sweep) == 15 and not isinstance(sweep, Sequence)
    with pytest.raises(TypeError):
        sweep[0]


def test_caseab_csv_names_the_first_floor_row(tmp_path):
    sweep = run_sweep(configs(tmp_path)["mixed"])
    out = tmp_path / "out.csv"
    with pytest.raises(ValidationError, match=r"^point theta=3\.14159\S*, k=2 has no"):
        emit_caseab_csv(sweep, out)
    assert not out.exists()


def count_sets(monkeypatch) -> list:
    """Count ``LagrangeSet`` constructions."""
    built = []
    check = LagrangeSet.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(LagrangeSet, "__post_init__", counted)
    return built


@pytest.mark.parametrize("command", ["sweep", "caseab"])
@pytest.mark.parametrize("config", BUNDLED)
def test_commands_build_no_multiplier_set(tmp_path, monkeypatch, capsys, command, config):
    built = count_sets(monkeypatch)
    out = tmp_path / "out.csv"
    assert main(["--out", str(out), command, str(CONFIGS / config)]) == 0
    assert out.read_text().count("\n") > 1
    assert built == []
    # The counter counts: a one-point solve builds its set.
    solve_lagrange(MeasurementRecord(4, 2, 0.3, 0.1, 0.2))
    assert len(built) == 1


@pytest.mark.parametrize("command", ["sweep", "caseab"])
def test_commands_read_the_circuit_file_once(tmp_path, monkeypatch, capsys, command):
    circuit = tmp_path / "mine.qc"
    circuit.write_text(MIXED)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("circuit mine.qc\ntheta_start 0.5\ntheta_steps 4\n")
    reads = []
    read_text = cli._read_text

    def counted(path):
        reads.append(Path(path))
        return read_text(path)

    # Every input file is read through cli._read_text.
    monkeypatch.setattr(cli, "_read_text", counted)
    assert main(["--out", str(tmp_path / "out.csv"), command, str(cfg)]) == 0
    assert reads == [cfg, circuit]


def test_a_copy_with_another_circuit_runs_that_circuit(tmp_path):
    # The text load_config read belongs to its circuit_path: a copy made
    # by dataclasses.replace with another path sweeps the other circuit.
    (tmp_path / "cfg_a.txt").write_text("circuit twoq_a\ntheta_steps 5\n")
    (tmp_path / "cfg_b.txt").write_text("circuit twoq_b\ntheta_steps 5\n")
    loaded = load_config(tmp_path / "cfg_a.txt")
    copy = dataclasses.replace(loaded, circuit_path="twoq_b")
    want = sweep_bits(run_sweep(load_config(tmp_path / "cfg_b.txt")))
    assert sweep_bits(run_sweep(copy)) == want
    assert sweep_bits(run_sweep(loaded)) != want


def test_a_sweep_runs_the_text_load_config_read(tmp_path):
    # The file may change after the config is loaded; the sweep runs the
    # circuit that was read, as a hand-built config of that text does.
    circuit = tmp_path / "mine.qc"
    circuit.write_text(MIXED)
    (tmp_path / "cfg.txt").write_text("circuit mine.qc\ntheta_steps 5\n")
    cfg = load_config(tmp_path / "cfg.txt")
    hand_built = ExperimentConfig(str(circuit), theta_steps=5)
    want = sweep_bits(run_sweep(hand_built))
    circuit.write_text(FLIP)
    assert sweep_bits(run_sweep(cfg)) == want
    assert sweep_bits(run_sweep(hand_built)) != want
    circuit.unlink()
    assert sweep_bits(run_sweep(cfg)) == want
    with pytest.raises(ValidationError, match="cannot read circuit"):
        run_sweep(hand_built)
