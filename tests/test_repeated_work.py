"""The sweep does each piece of repeated work once, with the same bytes.

- A circuit text is tokenized once, and a sweep binds all its thetas at
  once; every angle has the bits, and every error the message and line,
  of a parser that tokenizes on every call (``reference_parse_circuit``).
- A sweep applies each gate once, to the stack of every theta's state
  started at |0...0>, and simulates no theta alone.
- A sweep emits no clamp warning, and leaves the warning filters as it
  found them, also when a point raises.
- The reproduction check runs inside the array solve kernel: it builds no
  record, and it still enforces the record invariants and the 1e-6
  deviation bound. A sweep builds no record and validates no multiplier
  set: it makes one prediction call, one completion-and-solve call (case
  A and case B side by side), running the forward kernel once, and one
  fidelity call, whatever its number of points. A heatmap makes one
  forward-kernel call.
- A ``sweep`` or ``caseab`` command builds no ``Circuit`` and calls no
  ``simulate``, and, given no --seed or --out, validates its config once.
- A sweep lists the bundled circuits at most once per process, and a
  mitigated sweep inverts and conditions each calibration matrix once,
  solving no linear system per basis.
- A sampled sweep validates its readout once and draws through the
  sampler's kernel: one generator per draw, one distribution call for
  the unrotated states of every theta, and no call of the public
  estimators.
"""

import math
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import check_forward, reference_parse_circuit

from qmaxent import (
    ParseError,
    TomographyError,
    ValidationError,
    circuit,
    circuits,
    cli,
    maxent,
    sampler,
)
from qmaxent.circuit import Circuit, parse_circuit, qubit_count
from qmaxent.cli import ExperimentConfig, load_config, run_case_ab, run_sweep
from qmaxent.maxent import (
    LagrangeSet,
    MeasurementRecord,
    density_from_lagrange,
    heatmap_scan,
    solve_lagrange,
    solve_record,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

THETAS = [
    0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -3 * math.pi, 0.5 * math.pi,
    1e-300, 5e-324, 0.7, -2.5, 1e6, -1e12, 1e300, -1.7e308,
]


def gate_bits(c):
    return c.num_qubits, tuple(
        (g.kind, g.targets, None if g.angle is None else struct.pack("<d", g.angle))
        for g in c.gates
    )


def parse_outcome(parse, text, theta):
    """What a parser makes of a text: the gates with their angle bits, or
    the error's type, message and line."""
    try:
        return gate_bits(parse(text, theta))
    except TomographyError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


class TestParseOnce:
    @pytest.mark.parametrize("model", sorted(circuits.names()))
    def test_angles_match_the_reference_bit_for_bit(self, model):
        text = circuits.load(model)
        for theta in THETAS:
            want = gate_bits(reference_parse_circuit(text, theta))
            assert gate_bits(parse_circuit(text, theta)) == want
            assert gate_bits(parse_circuit(text, theta)) == want

    def test_signed_zero_theta_keeps_its_sign(self):
        text = "qubits 1\nrx(theta) 0\nry(-theta) 0\nrz(theta/2) 0"
        for theta in (0.0, -0.0):
            angles = [g.angle for g in parse_circuit(text, theta).gates]
            want = [g.angle for g in reference_parse_circuit(text, theta).gates]
            assert [math.copysign(1, a) for a in angles] == [
                math.copysign(1, a) for a in want
            ]

    @pytest.mark.parametrize(
        "text",
        [
            "qubits 1\nfoo 0",
            "qubits 2\nh 0\ncx 0 2",
            "qubits 1\nrx 0",
            "qubits 1\nrx(theta) 0",
            "qubits 2\ncx 0",
            "h 0\n",
            "qubits 2\ncx 1 1",
            *(f"qubits 1\nh 0\nrx({e}) 0" for e in ("nan", "inf", "-inf", "pi*nan", "1e200*1e200")),
            "qubits 1\nry(2*theta) 0",
            # Two errors: the theta-free error of line 3 comes first, bound
            # or not.
            "qubits 1\nrx(theta) 0\nfoo 0",
            "qubits 1\nrx(theta) 0\nrx(1/0) 0",
            "qubits 1\nrx(theta*foo) 0",
            "qubits 1\nrx(theta) 3",
            "qubits 1\nrx(theta/theta) 0",
            "qubits 1\nrx(1/0*theta) 0",
            "qubits 1\nrx(1e200*1e200*theta) 0",
            "qubits 2\nrx(theta) 0\nqubits 2",
            "",
            "# only a comment",
            "qubits 9",
        ],
    )
    def test_errors_match_the_reference_on_every_call(self, text):
        circuit._parse_text.cache_clear()
        for theta in (None, 0.0, -0.0, 1.0, 1e308, math.nan, math.inf):
            want = parse_outcome(reference_parse_circuit, text, theta)
            for _ in range(2):
                assert parse_outcome(parse_circuit, text, theta) == want

    def test_two_error_text_reports_the_theta_free_error_first(self):
        text = "qubits 1\nrx(theta) 0\nfoo 0"
        for _ in range(2):
            for theta in (None, 0.5):
                with pytest.raises(ParseError, match="line 3: unknown gate mnemonic 'foo'"):
                    parse_circuit(text, theta)

    def test_a_sweep_tokenizes_its_text_once(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("circuit threeq_a\ntheta_steps 201\n")
        circuit._parse_text.cache_clear()
        rows = run_sweep(load_config(path))
        assert len(rows) == 201 * 7
        assert circuit._parse_text.cache_info().misses == 1


def count_gate_applications(monkeypatch) -> list[int]:
    """Wrap the gate kernels; the list gets the row count of the state of
    each application (1 for a lone vector)."""
    rows = []
    for name in ("_apply_1q", "_apply_2q"):
        original = getattr(circuit, name)

        def counted(*args, _original=original):
            state = args[0]
            rows.append(1 if state.ndim == 1 else len(state))
            return _original(*args)

        monkeypatch.setattr(circuit, name, counted)
    return rows


def count_calls(monkeypatch, owner, names) -> dict[str, int]:
    """Wrap ``owner.<name>`` for each name with a call counter."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestOneStack:
    def test_qubit_count_of_a_failing_text_raises(self):
        with pytest.raises(ParseError, match="line 3"):
            qubit_count("qubits 1\nh 0\nfoo 0")

    @pytest.mark.parametrize(("model", "gates"), [("threeq_a", 8), ("twoq_b", 5)])
    def test_gate_applications_per_sweep(self, monkeypatch, model, gates):
        rows = count_gate_applications(monkeypatch)
        per_theta = count_calls(monkeypatch, circuit, ("parse_circuit", "simulate"))
        run_sweep(ExperimentConfig(circuit_path=model, theta_steps=201))
        # Each gate, theta-free ones included, applies once to the stack of
        # all 201 thetas; no theta is parsed or simulated alone.
        assert rows == [201] * gates
        assert per_theta == {"parse_circuit": 0, "simulate": 0}


def clamping_config() -> ExperimentConfig:
    # 16 shots leave the coherence estimates noisy enough to clamp.
    return ExperimentConfig(
        circuit_path="twoq_a", theta_steps=11, backend="shots", shots=16, seed=3
    )


class TestClampWarningFilter:
    def test_a_sweep_hides_its_clamps_and_restores_the_filters(self):
        before = list(warnings.filters)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            inner = list(warnings.filters)
            sweep = run_sweep(clamping_config())
            assert list(warnings.filters) == inner
        assert list(warnings.filters) == before
        assert not [w for w in caught if "predicted population" in str(w.message)]
        rows = zip(sweep.x11.tolist(), sweep.x1k.tolist(), sweep.xkk_pred.tolist())
        clamped = [(x11, pred) for x11, x1k, pred in rows if abs(x1k) ** 2 / x11 > 1 - x11 + 1e-9]
        assert clamped and all(pred == max(0.0, 1 - x11) for x11, pred in clamped)

    @pytest.mark.parametrize("run", [run_sweep, run_case_ab])
    def test_filters_restored_when_a_point_raises(self, monkeypatch, run):
        def fail(*args):
            raise TomographyError("point failed")

        monkeypatch.setattr(maxent, "_block_fidelity", fail)
        before = list(warnings.filters)
        with pytest.raises(TomographyError, match="point failed"):
            run(clamping_config())
        assert list(warnings.filters) == before

    def test_filters_restored_after_case_ab(self):
        before = list(warnings.filters)
        run_case_ab(clamping_config())
        assert list(warnings.filters) == before

    def test_solve_record_outside_a_sweep_still_warns(self):
        run_sweep(clamping_config())
        with pytest.warns(RuntimeWarning, match="clamped"):
            solve_record(MeasurementRecord(4, 2, 0.5, 0.6))


def solved() -> tuple[MeasurementRecord, LagrangeSet]:
    mr = MeasurementRecord(8, 5, 0.3, 0.1 - 0.2j, 0.25)
    return mr, solve_lagrange(mr)


def forward(ls: LagrangeSet, l11_shift: float = 0.0):
    """The forward kernel's arrays for one multiplier set."""
    return maxent._exponent_spectrum(
        ls.dim_n, *maxent._arrays(ls.lam_11 + l11_shift, ls.lam_1k, ls.lam_kk)
    )


def record_arrays(mr: MeasurementRecord):
    return maxent._arrays(mr.x_11, mr.x_1k, mr.x_kk)


class TestReproductionCheck:
    def test_builds_no_record(self, monkeypatch):
        mr, ls = solved()
        built = count_calls(monkeypatch, MeasurementRecord, ("__post_init__",))
        maxent._check_reproduction(forward(ls), *record_arrays(mr))
        assert built == {"__post_init__": 0}

    def test_wrong_multipliers_raise(self):
        mr, ls = solved()
        with pytest.raises(TomographyError, match="failed to reproduce") as caught:
            maxent._check_reproduction(forward(ls, 0.1), *record_arrays(mr))
        assert type(caught.value) is TomographyError

    @pytest.mark.parametrize("solve", ["library", "sweep"])
    def test_every_solve_runs_the_check(self, monkeypatch, solve):
        # A forward kernel that is off by 0.1 in lam_11 must fail the solve,
        # through the library and through the sweep loop alike.
        compute = maxent._exponent_spectrum
        monkeypatch.setattr(
            maxent, "_exponent_spectrum",
            lambda n, l11, l1k, lkk: compute(n, l11 + 0.1, l1k, lkk),
        )
        with pytest.raises(TomographyError, match="failed to reproduce"):
            if solve == "library":
                solve_lagrange(MeasurementRecord(8, 5, 0.3, 0.1 - 0.2j, 0.25))
            else:
                run_sweep(load_config(CONFIGS / "sweep_exact.txt"))

    def test_forward_values_keep_the_record_invariants(self):
        mr, ls = solved()
        *rest, z, _ = forward(ls)
        # Forward values x11 = 2, x1K = 0, xKK = 0: x11 leaves [0, 1].
        broken = (*rest, z, (2 * z, np.zeros(1, complex), np.zeros(1)))
        with pytest.raises(ValidationError) as from_record:
            MeasurementRecord(mr.dim_n, mr.index_k, 2.0, complex(0.0), 0.0)
        with pytest.raises(ValidationError) as caught:
            maxent._check_reproduction(broken, *record_arrays(mr))
        assert str(caught.value) == str(from_record.value)

    @pytest.mark.parametrize(
        "config", ["sweep_exact.txt", "sweep_noisy_mitigated.txt", "caseab_shots.txt"]
    )
    def test_a_sweep_makes_one_call_per_kernel(self, monkeypatch, config):
        kernels = count_calls(
            monkeypatch, maxent,
            ("_predict_population", "_complete_and_solve", "_block_fidelity"),
        )
        forward_kernel = count_calls(monkeypatch, maxent, ("_exponent_spectrum",))
        public = count_calls(
            monkeypatch, maxent,
            ("predict_population", "solve_lagrange", "block_fidelity", "density_from_lagrange"),
        )
        records = count_calls(monkeypatch, MeasurementRecord, ("__post_init__",))
        sets = count_calls(monkeypatch, LagrangeSet, ("__post_init__",))
        assert run_sweep(load_config(CONFIGS / config)).solved.any()
        # One completion call solves case A and case B side by side.
        assert kernels == {
            "_predict_population": 1, "_complete_and_solve": 1, "_block_fidelity": 1,
        }
        # One forward kernel call, for the completion's reproduction
        # check; the fidelity reads its blocks.
        assert forward_kernel == {"_exponent_spectrum": 1}
        assert public == dict.fromkeys(public, 0)
        assert records == {"__post_init__": 0}
        assert sets == {"__post_init__": 0}

    def test_a_heatmap_makes_one_forward_call(self, monkeypatch):
        forward_kernel = count_calls(monkeypatch, maxent, ("_exponent_spectrum",))
        records = count_calls(monkeypatch, MeasurementRecord, ("__post_init__",))
        sets = count_calls(monkeypatch, LagrangeSet, ("__post_init__",))
        columns = heatmap_scan(np.linspace(-3, 3, 21), np.linspace(-3, 3, 21))
        assert [len(c) for c in columns] == [441] * 4
        assert forward_kernel == {"_exponent_spectrum": 1}
        assert records == {"__post_init__": 0}
        assert sets == {"__post_init__": 0}

    def test_block_entries_are_the_forward_map(self):
        # The spectrum of the solve's check is the forward kernel's on the
        # solved multipliers, entry for entry, and 60-digit mpmath's to
        # rounding; its block over z is the density's block, bit for bit.
        mr, ls = solved()
        spec = maxent._solve(mr.dim_n, *record_arrays(mr))[2]
        z, block = forward(ls)
        assert [v.tobytes() for v in (spec[0], *spec[1])] == [v.tobytes() for v in (z, *block)]
        z, block = z[0].item(), tuple(e[0].item() for e in block)
        check_forward(ls.dim_n, (ls.lam_11, ls.lam_1k, ls.lam_kk), z, block)
        x11, x1k, xkk = (e / z for e in block)
        assert np.isfinite([x11, x1k, xkk]).all()
        rho, k = density_from_lagrange(ls), ls.index_k - 1
        assert (rho[0, 0], rho[0, k], rho[k, k]) == (x11, x1k, xkk)


class TestOncePerCommand:
    @pytest.mark.parametrize("command", ["sweep", "caseab"])
    @pytest.mark.parametrize("config", ["sweep_exact.txt", "caseab_shots.txt"])
    def test_a_command_builds_no_circuit(self, monkeypatch, tmp_path, command, config):
        # The config load, the sweep and its theta stack read the text's
        # parse; the stack starts at |0...0>, not from a simulated circuit.
        circuit._parse_text.cache_clear()
        built = count_calls(monkeypatch, Circuit, ("__post_init__",))
        simulated = count_calls(monkeypatch, circuit, ("simulate",))
        assert cli.main(["--out", str(tmp_path / "o.csv"), command, str(CONFIGS / config)]) == 0
        assert built == {"__post_init__": 0}
        assert simulated == {"simulate": 0}

    @pytest.mark.parametrize("command", ["sweep", "caseab"])
    def test_a_command_without_flags_validates_its_config_once(self, monkeypatch, tmp_path, command):
        config = tmp_path / "cfg.txt"
        config.write_text(f"circuit twoq_a\ntheta_steps 3\nout {tmp_path / 'o.csv'}\n")
        validated = count_calls(monkeypatch, ExperimentConfig, ("__post_init__",))
        assert cli.main([command, str(config)]) == 0
        assert validated == {"__post_init__": 1}
        # A flag makes a copy of the config, validated in its turn.
        assert cli.main(["--seed", "5", command, str(config)]) == 0
        assert validated == {"__post_init__": 3}


class TestOncePerProcess:
    def test_sweep_lists_the_bundled_circuits_once(self, monkeypatch):
        circuits.names.cache_clear()
        listed = []
        iterdir = Path.iterdir
        monkeypatch.setattr(
            Path, "iterdir", lambda self: listed.append(self) or iterdir(self)
        )
        run_sweep(load_config(CONFIGS / "sweep_exact.txt"))
        # The cache starts empty, so its one fill is the one listing.
        assert len(listed) == 1

    def test_mitigated_sweep_inverts_each_calibration_once(self, monkeypatch):
        sampler._calibration.cache_clear()
        calls = count_calls(monkeypatch, np.linalg, ("solve", "inv", "cond"))
        run_sweep(load_config(CONFIGS / "sweep_noisy_mitigated.txt"))
        assert calls == {"solve": 0, "inv": 1, "cond": 1}


class TestSamplingKernel:
    def test_mitigated_sweep_draws_every_row_from_one_generator(self, monkeypatch):
        cfg = load_config(CONFIGS / "sweep_noisy_mitigated.txt")
        public = count_calls(
            monkeypatch, sampler,
            ("mitigate", "sample_counts", "estimate_populations", "estimate_coherence"),
        )
        generators = count_calls(monkeypatch, np.random, ("default_rng",))
        kernel = count_calls(
            monkeypatch, sampler._Readout, ("__init__", "distribution", "draw", "tally")
        )
        rows = []
        tally = sampler._Readout.tally
        monkeypatch.setattr(
            sampler._Readout, "tally",
            lambda self, dists, seed: rows.append(len(dists)) or tally(self, dists, seed),
        )
        rotations = count_calls(monkeypatch, sampler, ("_apply_1q",))
        sweep = run_sweep(cfg)
        assert len(sweep) == cfg.theta_steps * len(cfg.k_targets) == 63
        # One generator and one multinomial call per sweep, whose rows are
        # one population draw per point and one draw per basis of |K><1|
        # (231 generators, one per row, before).
        bases = [2 ** bin(k - 1).count("1") for k in sweep.k.tolist()]
        assert generators["default_rng"] == 1
        assert rows == [sum(1 + b for b in bases)] == [231]
        assert public == dict.fromkeys(public, 0)
        # One readout per sweep; one distribution call for the block of
        # the Z basis and every distinct basis of every K (1 + 2 + 2 + 4).
        assert kernel == {"__init__": 1, "distribution": 1, "draw": 1, "tally": 1}
        # Every K of a 2-qubit sweep: per qubit, one RZ(-pi/2) call for the
        # Y prefixes, then one H call for the X and Y prefixes, 2n = 4 calls.
        assert rotations["_apply_1q"] == 4

    def test_exact_sweep_reads_each_theta_once(self, monkeypatch):
        cfg = load_config(CONFIGS / "sweep_exact.txt")
        generators = count_calls(monkeypatch, np.random, ("default_rng",))
        kernel = count_calls(monkeypatch, sampler._Readout, ("distribution",))
        sweep = run_sweep(cfg)
        assert generators["default_rng"] == 0
        # One call reads the populations of the whole stack of states.
        assert len(sweep) == cfg.theta_steps * len(cfg.k_targets)
        assert kernel["distribution"] == 1
