"""A sweep is columns from the kernels to the CSV.

- ``run_sweep`` returns one ``Sweep`` of columns; its row view builds the
  ``SweepPoint`` of a row when asked, with the bits, types and multiplier
  sets of the loop that built one point at a time
  (``reference_sweep_points``). ``run_case_ab`` returns its solved rows.
- The ``sweep`` and ``caseab`` commands build no point and no multiplier
  set, and read a circuit file once.
- A list of points is formatted through the same columns as a sweep.
"""

from pathlib import Path

import pytest
from conftest import reference_sweep_points

from qmaxent.cli import (
    ExperimentConfig,
    Sweep,
    SweepPoint,
    emit_caseab_csv,
    emit_csv,
    load_config,
    main,
    run_case_ab,
    run_sweep,
)
from qmaxent.errors import ValidationError
from qmaxent.maxent import LagrangeSet

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BUNDLED = ["sweep_exact.txt", "sweep_noisy_mitigated.txt", "caseab_shots.txt"]
COMMANDS = {"sweep_exact.txt": "sweep", "sweep_noisy_mitigated.txt": "sweep",
            "caseab_shots.txt": "caseab"}

# x on qubit 0 keeps x11 at 0 for every theta; rx(theta) on qubit 0 puts
# it at the floor at theta = pi only, between solved rows.
FLIP = "qubits 2\nx 0\nry(theta) 1\n"
MIXED = "qubits 2\nh 1\nrx(theta) 0\n"


def bits(value):
    """A value's type and bits: floats by their hex, so NaN and -0.0
    compare too."""
    if isinstance(value, complex):
        return type(value).__name__, value.real.hex(), value.imag.hex()
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    return type(value).__name__, value


def point_bits(p: SweepPoint):
    """Every field of a point, its multiplier sets' and its properties'."""
    sets = [
        None if s is None else tuple(
            bits(getattr(s, name))
            for name in ("dim_n", "index_k", "lam_11", "lam_1k", "lam_kk", "near_singular")
        )
        for s in (p.lagrange_a, p.lagrange_b)
    ]
    fields = ("theta", "k", "x11", "x1k", "xkk_true", "xkk_pred", "fidelity",
              "abs_diff", "near_singular")
    return (*(bits(getattr(p, name)) for name in fields), *sets)


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
def test_row_view_is_the_point_loop_bit_for_bit(tmp_path, name):
    cfg = configs(tmp_path)[name]
    want = reference_sweep_points(cfg)
    sweep = run_sweep(cfg)
    assert isinstance(sweep, Sweep) and len(sweep) == len(want)
    assert [point_bits(p) for p in sweep] == [point_bits(p) for p in want]
    assert list(sweep) == want
    solved = [p for p in want if p.lagrange_a is not None]
    assert [point_bits(p) for p in run_case_ab(cfg)] == [point_bits(p) for p in solved]
    if name in ("flip", "mixed"):
        assert len(solved) == {"flip": 0, "mixed": 12}[name]


def test_row_view_indexes_as_a_sequence(tmp_path):
    sweep = run_sweep(configs(tmp_path)["mixed"])
    points = list(sweep)
    assert sweep[-1] == points[-1] and sweep[3] == points[3]
    assert sweep == run_sweep(configs(tmp_path)["mixed"])
    with pytest.raises(IndexError):
        sweep[len(points)]
    with pytest.raises(TypeError):
        sweep[1:3]


@pytest.mark.parametrize("name", [*BUNDLED, "mixed"])
def test_a_list_of_points_writes_the_bytes_of_its_sweep(tmp_path, name):
    # One formatting path: a list of points is turned into columns first.
    sweep = run_sweep(configs(tmp_path)[name])
    emit_csv(sweep, tmp_path / "columns.csv")
    emit_csv(list(sweep), tmp_path / "points.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "points.csv").read_bytes()
    solved = sweep._rows(sweep.solved)
    emit_caseab_csv(solved, tmp_path / "columns.csv")
    emit_caseab_csv(list(solved), tmp_path / "points.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "points.csv").read_bytes()


def test_caseab_csv_names_the_first_floor_row(tmp_path):
    sweep = run_sweep(configs(tmp_path)["mixed"])
    out = tmp_path / "out.csv"
    for points in (sweep, list(sweep)):
        with pytest.raises(ValidationError, match=r"^point theta=3\.14159\S*, k=2 has no"):
            emit_caseab_csv(points, out)
        assert not out.exists()


def count_point_work(monkeypatch) -> dict[str, int]:
    """Count ``SweepPoint`` constructions and ``LagrangeSet._solved`` calls."""
    calls = {"SweepPoint": 0, "LagrangeSet._solved": 0}
    init, solved = SweepPoint.__init__, LagrangeSet._solved

    def counted_init(self, *args, **kwargs):
        calls["SweepPoint"] += 1
        init(self, *args, **kwargs)

    def counted_solved(cls, *args, **kwargs):
        calls["LagrangeSet._solved"] += 1
        return solved(*args, **kwargs)

    monkeypatch.setattr(SweepPoint, "__init__", counted_init)
    monkeypatch.setattr(LagrangeSet, "_solved", classmethod(counted_solved))
    return calls


@pytest.mark.parametrize("command", ["sweep", "caseab"])
@pytest.mark.parametrize("config", BUNDLED)
def test_commands_build_no_point(tmp_path, monkeypatch, capsys, command, config):
    calls = count_point_work(monkeypatch)
    out = tmp_path / "out.csv"
    assert main(["--out", str(out), command, str(CONFIGS / config)]) == 0
    assert out.read_text().count("\n") > 1
    assert calls == {"SweepPoint": 0, "LagrangeSet._solved": 0}
    # The counters count: the row view builds one point per row.
    run_sweep(load_config(CONFIGS / config))[0]
    assert calls == {"SweepPoint": 1, "LagrangeSet._solved": 2}


@pytest.mark.parametrize("command", ["sweep", "caseab"])
def test_commands_read_the_circuit_file_once(tmp_path, monkeypatch, capsys, command):
    circuit = tmp_path / "mine.qc"
    circuit.write_text(MIXED)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("circuit mine.qc\ntheta_start 0.5\ntheta_steps 4\n")
    reads = []
    read_text = Path.read_text

    def counted(self, *args, **kwargs):
        reads.append(Path(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    assert main(["--out", str(tmp_path / "out.csv"), command, str(cfg)]) == 0
    assert reads.count(circuit) == 1


def test_a_sweep_runs_the_text_load_config_read(tmp_path):
    # The file may change after the config is loaded; the sweep runs the
    # circuit that was read, as a hand-built config of that text does.
    circuit = tmp_path / "mine.qc"
    circuit.write_text(MIXED)
    (tmp_path / "cfg.txt").write_text("circuit mine.qc\ntheta_steps 5\n")
    cfg = load_config(tmp_path / "cfg.txt")
    hand_built = ExperimentConfig(str(circuit), theta_steps=5)
    want = run_sweep(hand_built)
    circuit.write_text(FLIP)
    assert run_sweep(cfg) == want
    assert run_sweep(hand_built) != want
    circuit.unlink()
    assert run_sweep(cfg) == want
    with pytest.raises(ValidationError, match="cannot read circuit"):
        run_sweep(hand_built)
