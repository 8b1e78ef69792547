import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmaxent
import qmaxent.cli as cli
from qmaxent import circuits
from qmaxent.cli import (
    ExperimentConfig,
    SweepPoint,
    emit_csv,
    load_config,
    load_heatmap_config,
    main,
    resolve_circuit,
    run_case_ab,
    run_sweep,
)
from qmaxent.errors import ParseError, ValidationError
from qmaxent.maxent import dump_record, load_record
from qmaxent.sampler import ReadoutNoise


def exact_config(circuit="twoq_a", steps=21, k_targets=(2, 3, 4)):
    return ExperimentConfig(
        circuit_path=circuit, theta_steps=steps, k_targets=k_targets, backend="exact"
    )


class TestConfig:
    def test_load_full_config(self, tmp_path):
        text = (
            "circuit twoq_a\n"
            "theta_start 0\n"
            "theta_stop 3.14159\n"
            "theta_steps 5\n"
            "k_targets 2,4\n"
            "backend shots\n"
            "shots 2048\n"
            "seed 7\n"
            "out results.csv\n"
        )
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.theta_steps == 5
        assert cfg.k_targets == (2, 4)
        assert cfg.backend == "shots"
        assert cfg.shots == 2048
        assert cfg.seed == 7
        assert cfg.output_path == "results.csv"

    def test_defaults_and_all_k_targets(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("circuit bell\n")
        cfg = load_config(path)
        assert cfg.backend == "exact"
        assert cfg.k_targets == (2, 3, 4)
        assert cfg.theta_steps == 21

    def test_noisy_defaults(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("circuit bell\nbackend noisy\nshots 1024\n")
        cfg = load_config(path)
        assert cfg.noise is not None
        assert cfg.noise.p01 == (0.02, 0.02)
        assert cfg.noise.p10 == (0.04, 0.04)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            ExperimentConfig(circuit_path="bell", backend="shots", shots=10, seed=-1)

    def test_noise_settings_need_the_noisy_backend(self, tmp_path):
        noise = ReadoutNoise.uniform(0.02, 0.04, 2)
        with pytest.raises(ValidationError, match="mitigate"):
            ExperimentConfig(circuit_path="bell", backend="shots", shots=10, mitigate=True)
        with pytest.raises(ValidationError, match="noise"):
            ExperimentConfig(circuit_path="bell", backend="exact", noise=noise)
        path = tmp_path / "cfg.txt"
        path.write_text("circuit bell\nbackend shots\nshots 10\np10 0.1\n")
        with pytest.raises(ValidationError, match="p10"):
            load_config(path)

    def test_exact_backend_ignores_shots(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("circuit bell\nbackend exact\nshots 8192\n")
        assert load_config(path).shots == 8192

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("circuit bell\nbogus 1\n")
        with pytest.raises(ValidationError, match="bogus"):
            load_config(path)

    def test_shots_required_for_sampling_backends(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("circuit bell\nbackend shots\n")
        with pytest.raises(ValidationError, match="shots"):
            load_config(path)

    def test_k_target_beyond_dimension(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("circuit bell\nk_targets 5\n")
        with pytest.raises(ValidationError, match="exceeds"):
            load_config(path)

    def test_repeated_k_target_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("circuit bell\nk_targets 3,3\n")
        with pytest.raises(ValidationError, match="twice"):
            load_config(path)
        with pytest.raises(ValidationError, match="twice"):
            run_sweep(exact_config("bell", steps=1, k_targets=(2, 3, 2)))

    def test_k_target_below_two_rejected(self):
        with pytest.raises(ValidationError, match=">= 2"):
            run_sweep(exact_config("bell", steps=1, k_targets=(1,)))

    def test_circuit_path_relative_to_config(self, tmp_path):
        (tmp_path / "mine.qc").write_text("qubits 1\nh 0\n")
        path = tmp_path / "cfg.txt"
        path.write_text("circuit mine.qc\nk_targets 2\n")
        cfg = load_config(path)
        assert cfg.k_targets == (2,)
        assert cfg.circuit_path == str(tmp_path / "mine.qc")

    def test_bundled_and_absolute_circuit_paths_stored_as_given(self, tmp_path):
        (tmp_path / "mine.qc").write_text("qubits 2\nh 0\n")
        path = tmp_path / "cfg.txt"
        for value in ("bell", str(tmp_path / "mine.qc")):
            path.write_text(f"circuit {value}\n")
            assert load_config(path).circuit_path == value

    def test_relative_circuit_runs_from_another_directory(self, tmp_path, monkeypatch):
        (tmp_path / "bug").mkdir()
        (tmp_path / "bug" / "mine.qc").write_text("qubits 2\nh 0\ncx 0 1\nry(theta) 1\n")
        (tmp_path / "bug" / "cfg.txt").write_text("circuit mine.qc\ntheta_steps 3\n")
        monkeypatch.chdir(tmp_path)
        assert len(run_sweep(load_config("bug/cfg.txt"))) == 9

    def test_qubit_count_read_without_binding_theta(self, tmp_path, capsys):
        # No grid point has theta = 0, so pi/theta is defined at every one.
        (tmp_path / "inv.qc").write_text("qubits 2\nh 0\ncx 0 1\nrx(pi/theta) 0\n")
        cfg, out = tmp_path / "cfg.txt", tmp_path / "o.csv"
        cfg.write_text("circuit inv.qc\ntheta_start 1\ntheta_stop 2\ntheta_steps 3\n")
        assert main(["--out", str(out), "sweep", str(cfg)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 9
        out.unlink()
        cfg.write_text("circuit inv.qc\ntheta_start 0\ntheta_stop 2\ntheta_steps 3\n")
        assert main(["--out", str(out), "sweep", str(cfg)]) == 2
        assert "line 4: division by zero" in capsys.readouterr().err
        assert not out.exists()

    def test_bundled_names_resolve(self):
        for name in circuits.names():
            assert resolve_circuit(name).startswith(("#", "qubits"))


class TestRunSweep:
    def test_bell_single_point(self):
        cfg = ExperimentConfig(
            circuit_path="bell", theta_steps=1, k_targets=(4,), backend="exact"
        )
        (row,) = run_sweep(cfg)
        assert row.k == 4
        assert row.xkk_true == pytest.approx(0.5, abs=1e-12)
        assert row.xkk_pred == pytest.approx(0.5, abs=1e-12)
        assert row.abs_diff <= 1e-12
        assert row.near_singular  # pure-state record sits on the boundary

    def test_exact_backend_prediction_is_exact(self):
        rows = run_sweep(exact_config())
        assert len(rows) == 63
        assert max(r.abs_diff for r in rows) <= 1e-8
        assert min(r.fidelity for r in rows) >= 1 - 1e-8

    def test_rows_ordered_theta_outer_k_inner(self):
        rows = run_sweep(exact_config(steps=3, k_targets=(2, 3)))
        assert [(round(r.theta, 6), r.k) for r in rows] == [
            (0.0, 2), (0.0, 3),
            (round(math.pi, 6), 2), (round(math.pi, 6), 3),
            (round(2 * math.pi, 6), 2), (round(2 * math.pi, 6), 3),
        ]

    def test_shots_backend_deterministic(self):
        cfg = ExperimentConfig(
            circuit_path="twoq_b", theta_steps=3, k_targets=(2,),
            backend="shots", shots=512, seed=5,
        )
        first = run_sweep(cfg)
        second = run_sweep(cfg)
        assert first == second

    def test_degenerate_x11_emits_flagged_row(self, tmp_path):
        # |0...0> population is identically zero after a bit flip; the sweep
        # must keep going and mark the row
        circuit = tmp_path / "flip.qc"
        circuit.write_text("qubits 2\nx 0\n")
        cfg = ExperimentConfig(
            circuit_path=str(circuit), theta_steps=2, k_targets=(2,), backend="exact"
        )
        rows = run_sweep(cfg)
        assert len(rows) == 2
        for row in rows:
            assert row.near_singular
            assert math.isnan(row.xkk_pred)
            assert math.isnan(row.abs_diff)
            assert row.xkk_true == pytest.approx(1.0)

    def test_floor_point_has_no_prediction(self):
        point = SweepPoint(0.5, 2, 0.0, 0j, 1.0)
        assert math.isnan(point.xkk_pred) and math.isnan(point.fidelity)
        assert math.isnan(point.abs_diff)
        assert point.lagrange_a is None and point.lagrange_b is None
        assert point.near_singular

    def test_near_singular_if_either_case_is(self):
        from qmaxent.maxent import LagrangeSet

        plain = LagrangeSet(4, 2, 0.5, 0.1, 0.2)
        flagged = LagrangeSet(4, 2, 0.5, 0.1, 0.2, near_singular=True)
        for a, b, want in (
            (plain, plain, False), (flagged, plain, True), (plain, flagged, True),
        ):
            point = SweepPoint(0.5, 2, 0.4, 0.1j, 0.3, 0.25, 0.99, a, b)
            assert point.near_singular is want
            assert point.abs_diff == pytest.approx(0.05)

    def test_measured_record_matches_statevector(self):
        from qmaxent.circuit import parse_circuit, populations, simulate

        rows = run_sweep(exact_config("twoq_c", steps=4, k_targets=(3,)))
        for row in rows:
            sv = simulate(parse_circuit(circuits.load("twoq_c"), theta=row.theta))
            pops = populations(sv)
            assert row.x11 == pytest.approx(pops[0], abs=1e-12)
            assert row.xkk_true == pytest.approx(pops[2], abs=1e-12)
            x1k = complex(sv[0] * np.conj(sv[2]))
            assert row.x1k == pytest.approx(x1k, abs=1e-12)


class TestCaseAB:
    def test_exact_backend_cases_agree(self):
        points = run_case_ab(exact_config(steps=7))
        assert min(p.fidelity for p in points) >= 1 - 1e-8
        assert float(np.median([p.abs_diff for p in points])) <= 1e-8
        for row in points:
            # same multipliers with and without the predicted population
            assert row.lagrange_a.lam_11 == pytest.approx(
                row.lagrange_b.lam_11, abs=1e-5
            )

    def test_synthetic_maximally_mixed_record(self):
        from qmaxent.maxent import MeasurementRecord, reconstruct

        rho_b, _ = reconstruct(MeasurementRecord(4, 2, 0.25, 0.0, 0.25))
        np.testing.assert_allclose(rho_b, np.eye(4) / 4, atol=1e-10)
        # case A: drop x_kk and let the prediction fill it
        rho_a, completed = reconstruct(MeasurementRecord(4, 2, 0.25, 0.0))
        assert completed.x_kk == pytest.approx(0.0, abs=1e-12)
        # prediction says 0 for a zero coherence; block diagonal collapses
        assert rho_a[1, 1].real == pytest.approx(0.0, abs=1e-8)

    def test_shots_backend_fidelity(self):
        cfg = ExperimentConfig(
            circuit_path="twoq_a", theta_steps=5, k_targets=(2, 3, 4),
            backend="shots", shots=8192, seed=3,
        )
        fidelities = [p.fidelity for p in run_case_ab(cfg)]
        assert float(np.median(fidelities)) >= 0.99


class TestOnePointList:
    @pytest.mark.parametrize(
        "config", ["sweep_exact.txt", "caseab_shots.txt", "sweep_noisy_mitigated.txt"]
    )
    def test_case_ab_is_the_solved_points_of_the_sweep(self, monkeypatch, config):
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / config)
        solved = [p for p in run_sweep(cfg) if p.lagrange_a is not None]
        assert solved

        def forbidden(cfg):
            raise AssertionError("run_case_ab called run_sweep")

        # Each run is its own span in the benchmark, so neither calls the other.
        monkeypatch.setattr(cli, "run_sweep", forbidden)
        assert run_case_ab(cfg) == solved


class TestEmitCsv:
    def test_single_row_layout(self, tmp_path):
        row = SweepPoint(0.0, 4, 0.5, 0.5 + 0.0j, 0.5, 0.5, 1.0)
        path = tmp_path / "one.csv"
        emit_csv([row], path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "theta,k,x11,re_x1k,im_x1k,xkk_true,xkk_pred,abs_diff,fidelity,near_singular"
        )
        assert len(lines) == 2
        assert lines[1].endswith(",true")
        assert lines[1].split(",")[1] == "4"

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_csv([], tmp_path / "none.csv")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = ExperimentConfig(
            circuit_path="twoq_b", theta_steps=4, k_targets=(2, 4),
            backend="shots", shots=1024, seed=11,
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(cfg), p1)
        emit_csv(run_sweep(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert b"\r" not in p1.read_bytes()

    def test_twelve_significant_digits(self, tmp_path):
        row = SweepPoint(1 / 3, 2, 0.1, 0.2 + 0.3j, 0.4, 0.5, 0.9)
        path = tmp_path / "digits.csv"
        emit_csv([row], path)
        first = path.read_text().splitlines()[1].split(",")[0]
        assert first == "3.33333333333e-01"


class TestKeyValueText:
    # record, sweep config and heatmap config share one reader
    @staticmethod
    def _loaders(tmp_path):
        def from_file(load):
            def run(text):
                path = tmp_path / "in.txt"
                path.write_text(text)
                return load(path)
            return run
        return {
            "record": ("n 4\nk 2\nx11 0.4\nre_x1k 0.2\nim_x1k 0\n", load_record),
            "config": ("circuit bell\ntheta_steps 3\n", from_file(load_config)),
            "heatmap": ("n 4\nk 2\nlam_kk 0\n", from_file(load_heatmap_config)),
        }

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        for text, load in self._loaders(tmp_path).values():
            commented = "# header\n\n" + text.replace("\n", "  # note\n", 1)
            assert repr(load(commented)) == repr(load(text))

    def test_duplicate_key_names_line(self, tmp_path):
        for text, load in self._loaders(tmp_path).values():
            key = text.split()[0]
            with pytest.raises(ParseError, match=f"line 4: duplicate key '{key}'"):
                load(text.splitlines()[0] + "\n\n# c\n" + text)

    def test_unknown_key_names_line(self, tmp_path):
        for kind, (text, load) in self._loaders(tmp_path).items():
            with pytest.raises(ParseError, match=f"line 2: unknown {kind} key 'zz'"):
                load(text.splitlines()[0] + "\nzz 1\n")

    def test_malformed_line_names_line(self, tmp_path):
        for text, load in self._loaders(tmp_path).values():
            with pytest.raises(ParseError, match="line 3: expected 'key value'"):
                load("\n" + text.splitlines()[0] + "\nlonely\n")


class TestRecordIO:
    def test_roundtrip(self):
        from qmaxent.maxent import MeasurementRecord

        mr = MeasurementRecord(8, 5, 0.3, 0.1 - 0.2j, 0.25)
        back = load_record(dump_record(mr))
        assert back.dim_n == 8 and back.index_k == 5
        assert back.x_11 == mr.x_11
        assert back.x_1k == mr.x_1k
        assert back.x_kk == mr.x_kk

    def test_optional_xkk(self):
        back = load_record("n 4\nk 2\nx11 0.4\nre_x1k 0.2\nim_x1k 0\n")
        assert back.x_kk is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            load_record("n 4\nk 2\nx11 0.4\nre_x1k 0.2\nim_x1k 0\nzz 1\n")


class TestCommandLine:
    def test_sweep_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "rows.csv"
        cfg.write_text(
            f"circuit twoq_a\ntheta_steps 3\nk_targets 2\nbackend exact\nout {out}\n"
        )
        assert main(["sweep", str(cfg)]) == 0
        assert out.exists()
        assert "wrote 3 rows" in capsys.readouterr().out

    def test_caseab_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "ab.csv"
        cfg.write_text(
            f"circuit bell\ntheta_steps 1\nk_targets 4\nbackend exact\nout {out}\n"
        )
        assert main(["caseab", str(cfg)]) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("theta,k,xkk_true,xkk_pred")

    def test_heatmap_command(self, tmp_path):
        cfg = tmp_path / "hm.txt"
        out = tmp_path / "hm.csv"
        cfg.write_text(
            "n 4\nk 2\nlam11_start -1\nlam11_stop 1\nlam11_steps 3\n"
            "re_lam1k_start -1\nre_lam1k_stop 1\nre_lam1k_steps 3\n"
            f"out {out}\n"
        )
        assert main(["heatmap", str(cfg)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lam11,re_lam1k,im_lam1k,x11,re_x1k,im_x1k"
        assert len(lines) == 10

    def test_reconstruct_command(self, tmp_path, capsys):
        record = tmp_path / "rec.txt"
        record.write_text("n 4\nk 2\nx11 0.4\nre_x1k 0.2\nim_x1k 0\n")
        assert main(["reconstruct", str(record)]) == 0
        out = capsys.readouterr().out
        assert "xkk 0.1" in out
        assert "lam11" in out

    def test_decompose_command(self, capsys):
        assert main(["decompose", "1", "2", "2"]) == 0
        out = capsys.readouterr().out
        assert "XI" in out and "YZ" in out

    def test_reconstruct_stdout_matches_out_file(self, tmp_path, capsys):
        record = tmp_path / "rec.txt"
        record.write_text("n 8\nk 5\nx11 0.3\nre_x1k 0.1\nim_x1k -0.2\nxkk 0.25\n")
        for fmt in ("text", "csv"):
            out = tmp_path / f"out.{fmt}"
            assert main(["--format", fmt, "--out", str(out), "reconstruct", str(record)]) == 0
            capsys.readouterr()
            assert main(["--format", fmt, "reconstruct", str(record)]) == 0
            assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_non_finite_record_exit_code(self, tmp_path, capsys):
        rec = tmp_path / "nan.txt"
        rec.write_text("n 4\nk 2\nx11 0.4\nre_x1k nan\nim_x1k 0\n")
        assert main(["reconstruct", str(rec)]) == 2
        assert "re_x1k = nan is not finite" in capsys.readouterr().err

    def test_heatmap_overflow_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "hm.txt"
        cfg.write_text("lam11_start -800\nlam11_steps 3\nre_lam1k_steps 2\n")
        assert main(["--out", str(tmp_path / "hm.csv"), "heatmap", str(cfg)]) == 2
        assert "lam_11 = -800.0" in capsys.readouterr().err

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("n 4\nk 2\n")  # missing keys
        assert main(["reconstruct", str(bad)]) == 2

    def test_infeasible_record_exit_code(self, tmp_path):
        rec = tmp_path / "sat.txt"
        # populations saturate 1 with zero coherence: infeasible even
        # after prediction-free completion
        rec.write_text("n 4\nk 2\nx11 0.6\nre_x1k 0\nim_x1k 0\nxkk 0.4\n")
        assert main(["reconstruct", str(rec)]) == 3

    @pytest.mark.parametrize("backend", ["exact", "shots"])
    def test_non_finite_angle_exit_code(self, tmp_path, capsys, backend):
        (tmp_path / "nan.qc").write_text("qubits 2\nrx(nan) 0\ncx 0 1\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"circuit nan.qc\ntheta_steps 2\nbackend {backend}\nshots 64\n")
        assert main(["--out", str(tmp_path / "o.csv"), "sweep", str(cfg)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_finite_theta_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("circuit twoq_b\ntheta_start nan\ntheta_steps 2\n")
        assert main(["--out", str(tmp_path / "o.csv"), "sweep", str(cfg)]) == 2
        assert "theta_start" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("lines", "key"),
        [
            ("theta_stop inf\n", "theta_stop"),
            ("backend noisy\nshots 64\np01 nan\n", "p01"),
            ("backend noisy\nshots 64\np10 0.0x\n", "p10"),
            ("theta_steps 2.5\n", "theta_steps"),
            ("backend shots\nshots 1e3\n", "shots"),
            ("seed 1.0\n", "seed"),
            ("k_targets 2,three\n", "k_targets"),
            ("n x\nk 2\nx11 0.4\nre_x1k 0.2\nim_x1k 0\n", "n"),
            ("n 4\nk 2.5\nx11 0.4\nre_x1k 0.2\nim_x1k 0\n", "k"),
            ("n 4\nk 2\nx11 abc\nre_x1k 0.2\nim_x1k 0\n", "x11"),
            ("n 4\nk 2\nx11 0.4\nre_x1k 0.2\nim_x1k inf\n", "im_x1k"),
            ("n 4\nk 2\nx11 0.4\nre_x1k 0.2\nim_x1k 0\nxkk 1e999\n", "xkk"),
        ],
    )
    def test_bad_config_float_names_its_key(self, tmp_path, capsys, lines, key):
        # A case that starts with n is a whole record for `reconstruct`;
        # the others are added to a sweep config.
        command = "reconstruct" if lines.startswith("n ") else "sweep"
        path = tmp_path / "in.txt"
        path.write_text(lines if command == "reconstruct" else "circuit twoq_b\n" + lines)
        # Each case fails on load, before any point runs.
        assert main(["--out", str(tmp_path / "o.csv"), command, str(path)]) == 2
        assert f"{key} = " in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("lines", "key"),
        [
            ("backend shots\nshots 64\nmitigate true\np01 abc\n", "p01"),
            ("backend shots\nshots 64\nmitigate true\n", "mitigate"),
            ("backend exact\np10 0.1\n", "p10"),
        ],
    )
    def test_unread_backend_setting_exit_code(self, tmp_path, capsys, lines, key):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("circuit twoq_b\ntheta_steps 2\n" + lines)
        assert main(["--out", str(tmp_path / "o.csv"), "sweep", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        ("lines", "key"),
        [
            ("lam11_steps -1\n", "lam11_steps"),
            ("re_lam1k_steps 0\n", "re_lam1k_steps"),
            ("lam11_steps 2.5\n", "lam11_steps"),
            ("n 4.0\n", "n"),
        ],
    )
    def test_bad_heatmap_integer_names_its_key(self, tmp_path, capsys, lines, key):
        cfg = tmp_path / "hm.txt"
        cfg.write_text(lines)
        assert main(["--out", str(tmp_path / "hm.csv"), "heatmap", str(cfg)]) == 2
        assert f"{key} = " in capsys.readouterr().err

    def test_non_finite_heatmap_float_names_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "hm.txt"
        cfg.write_text("lam11_stop inf\nlam11_steps 3\nre_lam1k_steps 2\n")
        assert main(["--out", str(tmp_path / "hm.csv"), "heatmap", str(cfg)]) == 2
        assert "lam11_stop = inf is not finite" in capsys.readouterr().err

    def test_negative_config_seed_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("circuit twoq_b\ntheta_steps 2\nbackend shots\nshots 64\nseed -1\n")
        assert main(["--out", str(tmp_path / "o.csv"), "sweep", str(cfg)]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_negative_seed_override_exit_code(self, tmp_path, capsys):
        cfg = Path(__file__).resolve().parents[1] / "configs" / "caseab_shots.txt"
        args = ["--seed", "-3", "--out", str(tmp_path / "o.csv"), "caseab", str(cfg)]
        assert main(args) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["sweep", str(tmp_path / "nope.txt")]) == 2

    def test_seed_override(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg.write_text("circuit twoq_b\ntheta_steps 2\nk_targets 2\nbackend shots\nshots 256\nseed 1\n")
        assert main(["--out", str(out1), "sweep", str(cfg)]) == 0
        assert main(["--seed", "99", "--out", str(out2), "sweep", str(cfg)]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    @pytest.mark.parametrize(
        ("flag", "command", "readers"),
        [
            (("--seed", "3"), ("reconstruct", "rec.txt"), "sweep and caseab"),
            (("--seed", "3"), ("heatmap", "hm.txt"), "sweep and caseab"),
            (("--seed", "0"), ("decompose", "1", "2", "2"), "sweep and caseab"),
            (("--format", "csv"), ("sweep", "cfg.txt"), "reconstruct and decompose"),
            (("--format", "text"), ("caseab", "cfg.txt"), "reconstruct and decompose"),
            (("--format", "csv"), ("heatmap", "hm.txt"), "reconstruct and decompose"),
        ],
    )
    def test_unread_global_flag_exit_code(self, tmp_path, capsys, flag, command, readers):
        out = tmp_path / "o.csv"
        assert main([*flag, "--out", str(out), *command]) == 2
        err = capsys.readouterr().err
        assert f"{flag[0]} is read by {readers} only, not {command[0]!r}" in err
        assert not out.exists()

    def test_decompose_reads_the_format_flag(self, capsys):
        assert main(["--format", "csv", "decompose", "1", "2", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "string,re_coeff,im_coeff"

    @pytest.mark.parametrize("n", ["-1", "0", "7", "16"])
    def test_decompose_qubit_count_exit_code(self, tmp_path, capsys, n):
        out = tmp_path / "d.txt"
        assert main(["--out", str(out), "decompose", "1", "2", n]) == 2
        assert f"num_qubits = {n} is not an integer in [1, 6]" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_import_does_not_load_scipy(self):
        src = str(Path(qmaxent.__file__).resolve().parents[1])
        code = "import sys, qmaxent.cli; print('scipy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, env={"PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_csv_format_flag(self, capsys, tmp_path):
        record = tmp_path / "rec.txt"
        record.write_text("n 4\nk 2\nx11 0.4\nre_x1k 0.2\nim_x1k 0\n")
        assert main(["--format", "csv", "reconstruct", str(record)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "key,value"
        rho = [line.split(",") for line in out.splitlines() if line.startswith("rho_")]
        assert len(rho) == 16
        for _, value in rho:
            complex(value)
