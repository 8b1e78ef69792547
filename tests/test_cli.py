import math
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from conftest import sweep_bits, sweep_rows

import qmaxent
import qmaxent.cli as cli
import qmaxent.sampler as sampler
from qmaxent import circuits
from qmaxent.circuit import parse_circuit, qubit_count
from qmaxent.cli import (
    ExperimentConfig,
    Sweep,
    emit_caseab_csv,
    emit_csv,
    emit_heatmap_csv,
    load_config,
    load_heatmap_config,
    main,
    resolve_circuit,
    run_case_ab,
    run_sweep,
)
from qmaxent.errors import ParseError, ValidationError
from qmaxent.maxent import dump_record, heatmap_scan, load_record
from qmaxent.sampler import ReadoutNoise


def one_row(theta, k, x11, x1k, xkk_true, xkk_pred, fidelity, near=(False, False), solved=False):
    """A hand-built one-row sweep; an unsolved row has NaN multipliers."""
    def col(value, dtype=float):
        return np.array([value], dtype)

    lams = (col(0.5), col(0.1, complex), col(0.2)) if solved else (
        col(math.nan), col(math.nan, complex), col(math.nan)
    )
    return Sweep(
        col(theta), col(k, int), col(x11), col(x1k, complex), col(xkk_true), col(xkk_pred),
        col(fidelity), lams, col(near[0], bool), lams, col(near[1], bool), col(solved, bool),
    )


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

    def test_a_loaded_config_equals_the_config_of_its_fields(self, tmp_path):
        # The circuit text load_config keeps is a cache, not a setting.
        path = tmp_path / "cfg.txt"
        path.write_text("circuit twoq_a\ntheta_steps 5\n")
        loaded = load_config(path)
        built = ExperimentConfig("twoq_a", theta_steps=5, k_targets=(2, 3, 4))
        assert loaded.circuit_text is not None and built.circuit_text is None
        assert repr(loaded) == repr(built)
        assert loaded == built
        assert hash(loaded) == hash(built)

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

    @pytest.mark.parametrize("field", ["theta_steps", "seed", "shots"])
    def test_non_integer_count_names_its_field(self, field):
        with pytest.raises(ValidationError, match=f"^{field} = 2.5 is not an integer$"):
            ExperimentConfig(**{"circuit_path": "twoq_a", "backend": "shots", "shots": 8, field: 2.5})

    @pytest.mark.parametrize(
        ("fields", "message"),
        [
            ({"theta_start": "0"}, "theta_start = '0' is not a real number"),
            ({"theta_stop": None}, "theta_stop = None is not a real number"),
            ({"k_targets": 2}, "k_targets = 2 is not a sequence of integers"),
            ({"k_targets": ("2",)}, "k_targets = ('2',) is not a sequence of integers"),
            ({"circuit_path": 3}, "circuit_path = 3 is not a path"),
            ({"backend": "noisy", "shots": 64, "noise": "x"}, "noise = 'x' is not a ReadoutNoise"),
            ({"mitigate": "false"}, "mitigate = 'false' is not a bool"),
            ({"backend": "x"}, "backend must be one of ('exact', 'shots', 'noisy')"),
            ({"backend": "noisy", "shots": 64}, "noisy backend requires a noise model"),
        ],
    )
    def test_a_field_of_the_wrong_type_names_itself(self, fields, message):
        with pytest.raises(ValidationError) as caught:
            ExperimentConfig(**{"circuit_path": "twoq_a", **fields})
        assert str(caught.value) == message

    def test_k_targets_may_be_a_list(self):
        cfg = ExperimentConfig("twoq_a", theta_steps=2, k_targets=[2, 3])
        assert run_sweep(cfg).k.tolist() == [2, 3, 2, 3]

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

    def test_an_exact_config_with_shots_0_runs(self, tmp_path):
        # The readout's rule on shots holds for the sampling backends only:
        # the exact backend reads no shots, so a count of 0 changes nothing.
        csvs = []
        for name, shots in (("zero", "shots 0\n"), ("none", "")):
            cfg, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.csv"
            cfg.write_text(f"circuit bell\ntheta_steps 3\n{shots}")
            assert load_config(cfg).shots == (0 if shots else None)
            assert main(["--out", str(out), "sweep", str(cfg)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

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

    @pytest.mark.parametrize(
        ("body", "message"),
        [
            ("rx(1/theta) 0\nh 9", "line 3: qubit index 9 out of range for 2 qubit(s)"),
            ("rx(1/theta) 5", "line 2: qubit index 5 out of range for 2 qubit(s)"),
            ("rx(theta*foo) 0", "line 2: bad angle factor 'foo'"),
            ("rx(theta/0) 0", "line 2: division by zero in angle expression"),
            ("rx(theta) 0\nfoo 0", "line 3: unknown gate mnemonic 'foo'"),
        ],
    )
    def test_a_theta_free_error_has_one_message_everywhere(self, tmp_path, capsys, body, message):
        # The error that does not depend on theta comes first, whether
        # theta is unbound, zero (where 1/theta fails) or valid, and
        # through the library as through the command.
        text = "qubits 2\n" + body
        (tmp_path / "bad.qc").write_text(text)
        cfg, out = tmp_path / "cfg.txt", tmp_path / "o.csv"
        cfg.write_text("circuit bad.qc\ntheta_start 0\ntheta_stop 1\ntheta_steps 3\n")
        calls = [lambda theta=theta: parse_circuit(text, theta) for theta in (None, 0.0, 0.5)]
        for call in (*calls, lambda: qubit_count(text), lambda: load_config(cfg)):
            with pytest.raises(ParseError) as caught:
                call()
            assert str(caught.value) == message
        assert main(["--out", str(out), "sweep", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "caseab"])
    def test_shots_beyond_the_draws_limit_exit_2(self, tmp_path, capsys, command):
        # The multinomial draw used to die with an OverflowError, exit 1.
        cfg, out = tmp_path / "cfg.txt", tmp_path / "o.csv"
        cfg.write_text("circuit bell\ntheta_steps 2\nbackend shots\nshots 9223372036854775808\n")
        assert main(["--out", str(out), command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "error: shots must be in [1, 9223372036854775807], got 9223372036854775808\n"
        assert not out.exists()

    def test_bundled_names_resolve(self):
        for name in circuits.names():
            assert resolve_circuit(name).startswith(("#", "qubits"))

    def test_bundled_models_are_the_package_resources(self):
        # The listing and every text, looked up once per process, are
        # those a fresh importlib.resources lookup gives.
        files = resources.files("qmaxent.circuits")
        want = sorted(p.name[:-3] for p in files.iterdir() if p.name.endswith(".qc"))
        assert circuits.names() == tuple(want)
        for name in want:
            assert circuits.load(name) == (files / f"{name}.qc").read_text()

    def test_unknown_bundled_name_raises_key_error(self):
        with pytest.raises(KeyError) as info:
            circuits.load("nope")
        assert info.value.args == (f"no bundled circuit 'nope'; have {circuits.names()}",)


class TestRunSweep:
    def test_a_one_qubit_circuit_is_refused(self, tmp_path):
        (tmp_path / "one.qc").write_text("qubits 1\nrx(theta) 0\n")
        with pytest.raises(ValidationError) as caught:
            run_sweep(ExperimentConfig(str(tmp_path / "one.qc"), theta_steps=2))
        assert str(caught.value) == (
            "reconstruction needs at least 2 qubits (no unconstrained "
            "states remain in a 1-qubit system)"
        )

    def test_bell_single_point(self):
        cfg = ExperimentConfig(
            circuit_path="bell", theta_steps=1, k_targets=(4,), backend="exact"
        )
        sweep = run_sweep(cfg)
        assert len(sweep) == 1 and sweep.k[0] == 4
        assert sweep.xkk_true[0] == pytest.approx(0.5, abs=1e-12)
        assert sweep.xkk_pred[0] == pytest.approx(0.5, abs=1e-12)
        assert sweep.abs_diff[0] <= 1e-12
        assert sweep.near_singular[0]  # pure-state record sits on the boundary

    def test_exact_backend_prediction_is_exact(self):
        sweep = run_sweep(exact_config())
        assert len(sweep) == 63
        assert sweep.abs_diff.max() <= 1e-8
        assert sweep.fidelity.min() >= 1 - 1e-8

    def test_rows_ordered_theta_outer_k_inner(self):
        sweep = run_sweep(exact_config(steps=3, k_targets=(2, 3)))
        assert [(round(t, 6), k) for t, k in zip(sweep.theta.tolist(), sweep.k.tolist())] == [
            (0.0, 2), (0.0, 3),
            (round(math.pi, 6), 2), (round(math.pi, 6), 3),
            (round(2 * math.pi, 6), 2), (round(2 * math.pi, 6), 3),
        ]

    def test_shots_backend_deterministic(self):
        cfg = ExperimentConfig(
            circuit_path="twoq_b", theta_steps=3, k_targets=(2,),
            backend="shots", shots=512, seed=5,
        )
        assert sweep_bits(run_sweep(cfg)) == sweep_bits(run_sweep(cfg))

    def test_degenerate_x11_emits_flagged_row(self, tmp_path):
        # |0...0> population is identically zero after a bit flip; the sweep
        # must keep going and mark the row
        circuit = tmp_path / "flip.qc"
        circuit.write_text("qubits 2\nx 0\n")
        cfg = ExperimentConfig(
            circuit_path=str(circuit), theta_steps=2, k_targets=(2,), backend="exact"
        )
        sweep = run_sweep(cfg)
        assert len(sweep) == 2 and not sweep.solved.any()
        assert sweep.near_singular.all()
        assert np.isnan(sweep.xkk_pred).all() and np.isnan(sweep.fidelity).all()
        assert np.isnan(sweep.abs_diff).all()
        assert all(np.isnan(v).all() for v in (*sweep.lams_a, *sweep.lams_b))
        assert sweep.xkk_true == pytest.approx([1.0, 1.0])

    def test_caseab_csv_of_a_floor_point_is_a_typed_error(self, tmp_path):
        circuit = tmp_path / "flip.qc"
        circuit.write_text("qubits 2\nx 0\n")
        cfg = ExperimentConfig(
            circuit_path=str(circuit), theta_steps=2, k_targets=(2,), backend="exact"
        )
        out = tmp_path / "out.csv"
        with pytest.raises(ValidationError, match=r"theta=0\.0, k=2 .*run_case_ab"):
            emit_caseab_csv(run_sweep(cfg), out)
        assert not out.exists()

    @pytest.mark.parametrize(
        ("name", "fake", "message"),
        [
            (
                "coherence",
                lambda states, i, j: np.full((len(states), len(i)), complex(2.0)),
                r"^\|x_1k\| = 2.0 exceeds 1$",
            ),
            (
                "populations",
                lambda self, states: np.tile([1.5, 0.0, 0.0, 0.0], (len(states), 1)),
                r"^x_11 = 1.5 outside \[0, 1\]$",
            ),
        ],
    )
    def test_measured_values_are_validated(self, monkeypatch, name, fake, message):
        # The projection would clip these silently; the sweep checks the
        # measured (x11, x1K) before completing them. The exact backend
        # reads every theta's coherences and populations from the stack of
        # states, the populations through the sampler's kernel.
        if name == "coherence":
            monkeypatch.setattr(sampler, "_coherence", fake)
        else:
            monkeypatch.setattr(sampler._Readout, "distribution", fake)
        with pytest.raises(ValidationError, match=message):
            run_sweep(exact_config())

    def test_near_singular_if_a_floor_row_or_either_case_is(self):
        floor = one_row(0.5, 2, 0.0, 0j, 1.0, math.nan, math.nan)
        assert floor.near_singular.tolist() == [True] and np.isnan(floor.abs_diff).all()
        for near, want in (
            ((False, False), False), ((True, False), True), ((False, True), True),
        ):
            sweep = one_row(0.5, 2, 0.4, 0.1j, 0.3, 0.25, 0.99, near, solved=True)
            assert sweep.near_singular.tolist() == [want]
            assert sweep.abs_diff[0] == pytest.approx(0.05)

    def test_measured_record_matches_statevector(self):
        from qmaxent.circuit import parse_circuit, populations, simulate

        sweep = run_sweep(exact_config("twoq_c", steps=4, k_targets=(3,)))
        for i, theta in enumerate(sweep.theta.tolist()):
            sv = simulate(parse_circuit(circuits.load("twoq_c"), theta=theta))
            pops = populations(sv)
            assert sweep.x11[i] == pytest.approx(pops[0], abs=1e-12)
            assert sweep.xkk_true[i] == pytest.approx(pops[2], abs=1e-12)
            x1k = complex(sv[0] * np.conj(sv[2]))
            assert sweep.x1k[i] == pytest.approx(x1k, abs=1e-12)


class TestSizeCap:
    """A command whose estimated peak memory is past ``cli._MAX_BYTES`` is
    refused before ``_grid`` builds an axis: the grid is patched to fail
    if called, so a command at the limit reaches it and one past does not."""

    @pytest.fixture(autouse=True)
    def no_grid(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("_grid was called")

        monkeypatch.setattr(cli, "_grid", refuse)

    def test_theta_steps_past_the_cap_are_refused(self, tmp_path, capsys):
        message = (
            "theta_steps = 1000000000000 over 3 K target(s) on 2 qubits, backend exact, "
            "would need about 3105163575 MiB, past the 1024 MiB one command may use"
        )
        cfg = ExperimentConfig("twoq_a", theta_steps=10**12)  # K = 2, 3, 4
        for run in (run_sweep, run_case_ab):
            with pytest.raises(ValidationError) as caught:
                run(cfg)
            assert str(caught.value) == message
        path = tmp_path / "cfg.txt"
        path.write_text("circuit twoq_a\ntheta_steps 1000000000000\n")
        assert main(["--out", str(tmp_path / "o.csv"), "sweep", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        ("backend", "limit"),
        [
            # 3 points and 4 amplitudes per theta
            ("exact", 329773),
            # 3 points and 11 drawn rows of 4 outcomes per theta
            ("shots", 184618),
        ],
    )
    def test_a_sweep_at_the_limit_passes_and_one_more_theta_is_refused(self, backend, limit):
        cfg = ExperimentConfig("twoq_a", theta_steps=limit, backend=backend, shots=64)
        with pytest.raises(AssertionError, match="^_grid was called$"):
            run_sweep(cfg)
        with pytest.raises(ValidationError) as caught:
            run_sweep(ExperimentConfig("twoq_a", theta_steps=limit + 1, backend=backend, shots=64))
        assert str(caught.value) == (
            f"theta_steps = {limit + 1} over 3 K target(s) on 2 qubits, backend {backend}, "
            "would need about 1025 MiB, past the 1024 MiB one command may use"
        )

    def test_heatmap_steps_past_the_cap_are_refused(self, tmp_path, capsys):
        cfg = tmp_path / "hm.txt"
        cfg.write_text("lam11_steps 1036\nre_lam1k_steps 1036\n")
        with pytest.raises(AssertionError, match="^_grid was called$"):
            load_heatmap_config(cfg)
        message = (
            "lam11_steps * re_lam1k_steps = 10000000 * 10000000 would need about "
            "95367431641 MiB, past the 1024 MiB one command may use"
        )
        cfg.write_text("lam11_steps 10000000\nre_lam1k_steps 10000000\n")
        with pytest.raises(ValidationError) as caught:
            load_heatmap_config(cfg)
        assert str(caught.value) == message
        assert main(["--out", str(tmp_path / "hm.csv"), "heatmap", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCaseAB:
    def test_exact_backend_cases_agree(self):
        sweep = run_case_ab(exact_config(steps=7))
        assert sweep.fidelity.min() >= 1 - 1e-8
        assert float(np.median(sweep.abs_diff)) <= 1e-8
        # same multipliers with and without the predicted population
        assert np.abs(sweep.lams_a[0] - sweep.lams_b[0]).max() <= 1e-5

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
        assert float(np.median(run_case_ab(cfg).fidelity)) >= 0.99


class TestOnePointList:
    @pytest.mark.parametrize(
        "config", ["sweep_exact.txt", "caseab_shots.txt", "sweep_noisy_mitigated.txt"]
    )
    def test_case_ab_is_the_solved_points_of_the_sweep(self, monkeypatch, config):
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / config)
        sweep = run_sweep(cfg)
        assert sweep.solved.any()

        def forbidden(cfg):
            raise AssertionError("run_case_ab called run_sweep")

        # Each run is its own span in the benchmark, so neither calls the other.
        monkeypatch.setattr(cli, "run_sweep", forbidden)
        case_ab = run_case_ab(cfg)
        # Its columns are the sweep's under the solved mask, bit for bit.
        assert isinstance(case_ab, Sweep) and case_ab.solved.all()
        for name in ("theta", "k", "x11", "x1k", "xkk_true", "xkk_pred", "fidelity",
                     "near_a", "near_b"):
            want = getattr(sweep, name)[sweep.solved]
            assert getattr(case_ab, name).tobytes() == want.tobytes()
        for got, want in zip((*case_ab.lams_a, *case_ab.lams_b), (*sweep.lams_a, *sweep.lams_b)):
            assert got.tobytes() == want[sweep.solved].tobytes()


class TestEmitCsv:
    def test_single_row_layout(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv(one_row(0.0, 4, 0.5, 0.5 + 0.0j, 0.5, 0.5, 1.0), path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "theta,k,x11,re_x1k,im_x1k,xkk_true,xkk_pred,abs_diff,fidelity,near_singular"
        )
        assert len(lines) == 2
        assert lines[1].endswith(",true")
        assert lines[1].split(",")[1] == "4"

    def test_empty_rows_rejected(self, tmp_path):
        path = tmp_path / "none.csv"
        sweep = run_sweep(exact_config(steps=1))
        empty = sweep_rows(sweep, np.zeros(len(sweep), bool))
        no_scan = heatmap_scan([], [])
        cases = ((emit_csv, empty), (emit_caseab_csv, empty), (emit_heatmap_csv, no_scan))
        for emit, rows in cases:
            with pytest.raises(ValidationError, match="^no rows to emit$"):
                emit(rows, path)
            assert not path.exists()

    def test_caseab_of_a_sweep_all_at_the_floor_exits_2(self, tmp_path, capsys):
        # x on qubit 0 keeps x11 at 0: run_case_ab returns no rows.
        (tmp_path / "flip.qc").write_text("qubits 2\nx 0\nry(theta) 1\n")
        config = tmp_path / "config.txt"
        config.write_text("circuit flip.qc\ntheta_steps 3\n")
        out = tmp_path / "caseab.csv"
        assert main(["--out", str(out), "caseab", str(config)]) == 2
        assert capsys.readouterr().err == "error: no rows to emit\n"
        assert not out.exists()

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
        path = tmp_path / "digits.csv"
        emit_csv(one_row(1 / 3, 2, 0.1, 0.2 + 0.3j, 0.4, 0.5, 0.9), path)
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

    def test_overflowing_theta_range_exit_code(self, tmp_path, capsys):
        # Both ends are finite, their difference is not: numpy's linspace
        # warned and bound NaN and infinite thetas.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("circuit twoq_b\ntheta_start -1e308\ntheta_stop 1e308\ntheta_steps 3\n")
        assert main(["--out", str(tmp_path / "o.csv"), "sweep", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: theta_stop - theta_start = 1e+308 - -1e+308 is not finite\n"
        )

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
            ("k_targets ,\n", "k_targets"),
            ("k_targets 2,,3\n", "k_targets"),
            ("k_targets 2,3,\n", "k_targets"),
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

    @pytest.mark.parametrize("steps", [3, 1])
    def test_overflowing_heatmap_range_exit_code(self, tmp_path, capsys, steps):
        # Both ends are finite, their difference is not: the axis would
        # hold NaN and infinite points, one point included.
        cfg = tmp_path / "hm.txt"
        cfg.write_text(f"lam11_start -1e308\nlam11_stop 1e308\nlam11_steps {steps}\n")
        assert main(["--out", str(tmp_path / "hm.csv"), "heatmap", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: lam11_stop - lam11_start = 1e+308 - -1e+308 is not finite\n"
        )
        assert not (tmp_path / "hm.csv").exists()

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

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["sweep", "adir"], "[Errno 21] Is a directory: 'adir'"),
            (["sweep", "nofile.txt"], "[Errno 2] No such file or directory: 'nofile.txt'"),
            (["reconstruct", "adir"], "[Errno 21] Is a directory: 'adir'"),
            (["heatmap", "adir"], "[Errno 21] Is a directory: 'adir'"),
            (["--out", "adir", "sweep", "cfg.txt"], "[Errno 21] Is a directory: 'adir'"),
            (
                ["sweep", "cfgdir.txt"],
                "cannot read circuit 'adir': [Errno 21] Is a directory: 'adir'",
            ),
            (
                ["--out", "nodir/x.csv", "sweep", "cfg.txt"],
                "[Errno 2] No such file or directory: 'nodir/x.csv'",
            ),
        ],
        ids=["config-dir", "config-missing", "record-dir", "heatmap-dir", "out-dir",
             "circuit-dir", "out-missing-dir"],
    )
    def test_io_error_names_the_path(self, tmp_path, monkeypatch, capsys, argv, message):
        # A directory opens on Linux and fails its read, with no file name;
        # the message names the path as open() does.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        (tmp_path / "cfg.txt").write_text("circuit twoq_a\ntheta_steps 2\n")
        (tmp_path / "cfgdir.txt").write_text("circuit adir\n")
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        ("name", "data", "argv"),
        [
            ("cfg.txt", b"circuit twoq_a\n# caf\xe9\n", ["sweep", "cfg.txt"]),
            ("mine.qc", b"qubits 2\n# caf\xe9\nrx(theta) 0\n", ["sweep", "mine.txt"]),
            ("rec.txt", b"n 4\nk 2\n# caf\xe9\n", ["reconstruct", "rec.txt"]),
            ("hm.txt", b"n 4\n# caf\xe9\n", ["heatmap", "hm.txt"]),
        ],
        ids=["config", "circuit", "record", "heatmap"],
    )
    def test_a_file_that_is_not_utf8_exits_2(self, tmp_path, monkeypatch, capsys, name, data, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_bytes(data)
        (tmp_path / "mine.txt").write_text("circuit mine.qc\n")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: '{name}' is not UTF-8 text: byte {data.index(0xE9)} is b'\\xe9'\n"

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
        assert f"num_qubits must be in [1, 6], got {n}" in capsys.readouterr().err
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


def median_columns():
    """Columns of every kind the printed median reads: lengths 1 and 2,
    odd and even lengths, ties, subnormals and the column lengths of the
    bundled configs."""
    rng = np.random.default_rng(11)
    tiny = 5e-324 * np.arange(1, 8)
    columns = {
        "one": np.array([0.3]),
        "two": np.array([0.1, 0.2]),
        "two_subnormal": tiny[[0, 2]],
        "odd_subnormal": tiny[:5],
        "even_subnormal": tiny[:6],
        "mixed_subnormal": np.concatenate([tiny, [1e-300, 0.0, 2.0]]),
        "ties": np.array([0.5, 0.25, 0.5, 0.5, 0.25, 0.75]),
        "zeros": np.zeros(4),
    }
    for n in (3, 4, 49, 50, 63, 336, 1407):
        columns[f"random_{n}"] = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-17, 1, n)
        columns[f"ties_{n}"] = rng.integers(0, 4, n) / 8
    return columns


MEDIAN_COLUMNS = median_columns()


@pytest.mark.parametrize("name", MEDIAN_COLUMNS)
def test_median_has_the_bits_of_np_median(name):
    values = MEDIAN_COLUMNS[name]
    got = cli._median(values)
    assert isinstance(got, float)
    assert np.float64(got).tobytes() == np.median(values).tobytes()


GRID_CASES = {
    "default_sweep": (0.0, 2 * math.pi, 21),
    "bench_window": (1.1234567890123, 1.1234567890123 + 2 * math.pi, 201),
    "heatmap": (-3.0, 3.0, 41),
    "descending": (2.5, -0.1, 9),
    "equal_ends": (0.7, 0.7, 4),
    "no_samples": (0.0, 1.0, 0),
    "one_sample": (0.3, 5.0, 1),
    "negative_zero_start": (-0.0, 1.0, 5),
    "negative_zero_start_descending": (-0.0, -1.0, 3),
    "negative_zero_start_equal": (-0.0, -0.0, 3),
    "negative_zero_start_to_zero": (-0.0, 0.0, 4),
    "negative_zero_one_sample": (-0.0, 1.0, 1),
    "negative_zero_one_sample_descending": (-0.0, -1.0, 1),
    "subnormal_step": (0.0, 5e-324, 3),
    "subnormal_step_eleven_samples": (0.0, 5e-324, 11),
    "subnormal_step_descending": (-0.0, -1e-323, 7),
    "one_ulp_steps": (5e-324, -5e-324, 3),
    "subnormal_from_negative_zero": (-0.0, 4e-323, 9),
    "subnormal_step_normal_ends": (2.2250738585072014e-308, 2.2250738585072024e-308, 5),
    "overflowing_range": (-1e308, 1e308, 3),
    "overflowing_range_one_sample": (-1e308, 1e308, 1),
    "largest_range": (1.7976931348623157e308, -1.7976931348623157e308, 4),
    "near_the_top": (1e308, 1.7e308, 5),
    "two_huge_samples": (-1.7e308, 1.7e308, 2),
}


@pytest.mark.parametrize("name", GRID_CASES)
def test_grid_has_the_bits_of_np_linspace(name):
    start, stop, num = GRID_CASES[name]
    if not math.isfinite(stop - start):
        # np.linspace would give NaN and infinite points; the grid names
        # its axis's ends instead.
        with pytest.raises(ValidationError) as caught:
            cli._grid(start, stop, num, "x")
        assert str(caught.value) == f"x_stop - x_start = {stop!r} - {start!r} is not finite"
        return
    got = cli._grid(start, stop, num, "x")
    assert all(type(v) is float for v in got)
    with np.errstate(all="ignore"):
        want = np.linspace(start, stop, num)
    assert np.array(got, float).tobytes() == want.tobytes()
