"""The sweep does each piece of repeated work once, with the same bytes.

- A circuit text is tokenized once and bound per theta; every angle has
  the bits, and every error the message and line, of a parser that
  tokenizes on every call (``reference_parse_circuit``).
- The gates before the first theta-dependent one are simulated once per
  sweep, and each theta's state has the bits of a full simulation.
- The clamp-warning filter is entered once per run and always left.
- The reproduction check of a solve runs on scalars: it builds no
  record, and it still enforces the record invariants and the 1e-6
  deviation bound.
"""

import math
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import reference_parse_circuit

from qmaxent import ParseError, TomographyError, ValidationError, circuit, circuits, cli, maxent
from qmaxent.circuit import Circuit, parse_circuit, simulate, theta_free_prefix
from qmaxent.cli import ExperimentConfig, load_config, run_case_ab, run_sweep
from qmaxent.maxent import (
    LagrangeSet,
    MeasurementRecord,
    block_fidelity,
    solve_lagrange,
    solve_record,
)

MODELS = ("twoq_a", "twoq_b", "twoq_c", "threeq_a")
PREFIX_GATES = {"twoq_a": 2, "twoq_b": 0, "twoq_c": 3, "threeq_a": 3}
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
            # Two errors: the theta error of line 2 comes first when unbound.
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

    def test_two_error_text_reports_the_theta_error_first(self):
        text = "qubits 1\nrx(theta) 0\nfoo 0"
        for _ in range(2):
            with pytest.raises(ParseError, match="line 2: angle uses 'theta'"):
                parse_circuit(text)
            with pytest.raises(ParseError, match="line 3: unknown gate mnemonic 'foo'"):
                parse_circuit(text, theta=0.5)

    def test_a_sweep_tokenizes_its_text_once(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("circuit threeq_a\ntheta_steps 201\n")
        circuit._parse_text.cache_clear()
        rows = run_sweep(load_config(path))
        assert len(rows) == 201 * 7
        assert circuit._parse_text.cache_info().misses == 1


def count_gate_applications(monkeypatch) -> list[int]:
    count = [0]
    for name in ("_apply_1q", "_apply_2q"):
        original = getattr(circuit, name)

        def counted(*args, _original=original):
            count[0] += 1
            return _original(*args)

        monkeypatch.setattr(circuit, name, counted)
    return count


class TestThetaFreePrefix:
    @pytest.mark.parametrize("model", MODELS)
    def test_prefix_lengths(self, model):
        prefix = theta_free_prefix(circuits.load(model))
        assert len(prefix.gates) == PREFIX_GATES[model]

    @pytest.mark.parametrize("model", MODELS)
    def test_state_after_the_prefix_matches_a_full_simulation(self, model):
        text = circuits.load(model)
        prefix = theta_free_prefix(text)
        start = simulate(prefix)
        for theta in THETAS[:12]:
            c = parse_circuit(text, theta)
            assert c.gates[: len(prefix.gates)] == prefix.gates
            rest = Circuit(c.num_qubits, c.gates[len(prefix.gates):])
            assert simulate(rest, start).tobytes() == simulate(c).tobytes()

    def test_prefix_of_a_failing_text_raises(self):
        with pytest.raises(ParseError, match="line 3"):
            theta_free_prefix("qubits 1\nh 0\nfoo 0")

    @pytest.mark.parametrize(
        ("model", "gates"), [("threeq_a", 3 + 201 * 5), ("twoq_b", 201 * 5)]
    )
    def test_gate_applications_per_sweep(self, monkeypatch, model, gates):
        count = count_gate_applications(monkeypatch)
        run_sweep(ExperimentConfig(circuit_path=model, theta_steps=201))
        assert count[0] == gates


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
            rows = run_sweep(clamping_config())
            assert list(warnings.filters) == inner
        assert list(warnings.filters) == before
        assert not [w for w in caught if "predicted population" in str(w.message)]
        clamped = [
            r for r in rows
            if abs(r.x1k) ** 2 / r.x11 > 1 - r.x11 + 1e-9
        ]
        assert clamped and all(r.xkk_pred == max(0.0, 1 - r.x11) for r in clamped)

    @pytest.mark.parametrize("run", [run_sweep, run_case_ab])
    def test_filters_restored_when_a_point_raises(self, monkeypatch, run):
        def fail(a, b):
            raise TomographyError("point failed")

        monkeypatch.setattr(cli, "block_fidelity", fail)
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


class TestReproductionCheck:
    def test_builds_no_record(self, monkeypatch):
        mr, ls = solved()
        built = []
        original = MeasurementRecord.__post_init__

        def counted(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(MeasurementRecord, "__post_init__", counted)
        maxent._check_reproduction(ls, mr)
        assert built == []

    def test_wrong_multipliers_raise(self):
        mr, ls = solved()
        wrong = replace(ls, lam_11=ls.lam_11 + 0.1)
        with pytest.raises(TomographyError, match="failed to reproduce"):
            maxent._check_reproduction(wrong, mr)

    def test_forward_values_keep_the_record_invariants(self, monkeypatch):
        mr, ls = solved()
        s = maxent.spectrum(ls)
        # Forward values x11 = 2, x1K = 0, xKK = 0: x11 leaves [0, 1].
        broken = replace(s, block=(2 * s.z, complex(0.0), 0.0))
        monkeypatch.setattr(maxent, "spectrum", lambda _: broken)
        with pytest.raises(ValidationError) as from_record:
            MeasurementRecord(mr.dim_n, mr.index_k, 2.0, complex(0.0), 0.0)
        with pytest.raises(ValidationError) as from_check:
            maxent._check_reproduction(ls, mr)
        assert type(from_check.value) is type(from_record.value)
        assert str(from_check.value) == str(from_record.value)

    def test_each_set_computes_its_spectrum_once(self, monkeypatch):
        calls = []
        original = maxent._exponent_spectrum
        monkeypatch.setattr(
            maxent, "_exponent_spectrum", lambda ls: calls.append(ls) or original(ls)
        )
        measured = MeasurementRecord(4, 2, 0.4, 0.2 + 0.1j)
        _, ls_a = solve_record(measured)
        _, ls_b = solve_record(measured, 0.2)
        block_fidelity(ls_a, ls_b)
        block_fidelity(ls_a, ls_b)
        assert len(calls) == 2

    def test_block_entries_are_the_forward_map(self):
        _, ls = solved()
        s = maxent.spectrum(ls)
        fwd = maxent.forward_expectations(ls)
        x11, x1k, xkk = (e / s.z for e in s.block)
        assert (x11, x1k, xkk) == (fwd.x_11, fwd.x_1k, fwd.x_kk)
        assert np.isfinite([x11, x1k, xkk]).all()
