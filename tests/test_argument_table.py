"""One valid call of each public callable of ``qmaxent`` but the
exception types, and of the config entries ``cli.ExperimentConfig``,
``load_config``, ``run_sweep`` and ``run_case_ab``; every (row,
argument, wrong value) case replaces one argument with a value of the
wrong type or size, and only a ``TomographyError`` may escape. A public
name of ``dir(qmaxent)`` without a row fails the test.

The one other error a row may raise is the ``OSError`` of a path that
names no file, which ``load_config`` raises as ``open`` would
(``cli._read_text``).
"""

import math
from pathlib import Path

import numpy as np
import pytest

import qmaxent
from qmaxent import (
    CalibrationMatrix,
    Circuit,
    Gate,
    LagrangeSet,
    MeasurementRecord,
    PauliString,
    ReadoutNoise,
    TomographyError,
    apply_gates,
    block_fidelity,
    build_calibration,
    coherence,
    decompose_ketbra,
    density_from_lagrange,
    dump_record,
    estimate_coherence,
    estimate_paulis,
    estimate_populations,
    fidelity,
    heatmap_scan,
    load_record,
    mitigate,
    parse_circuit,
    populations,
    predict_population,
    reconstruct,
    sample_counts,
    simulate,
    solve_lagrange,
    solve_record,
    zero_state,
)
from qmaxent.cli import ExperimentConfig, load_config, run_case_ab, run_sweep

# Each replaces one argument of a valid call; a case names it by its key.
WRONG = {
    "str": "x", "None": None, "nan": math.nan, "inf": math.inf, "10**400": 10**400,
    "10**5000": 10**5000, "list": [1.0], "object": object(),
}

BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
NOISE = ReadoutNoise.uniform(0.02, 0.04, 2)
CAL = build_calibration(NOISE, 2)
LS = LagrangeSet(4, 2, 0.1, 0.05 + 0.02j, -0.1)
RECORD = MeasurementRecord(4, 2, 0.4, 0.1 + 0.1j)
COMPLETE = MeasurementRecord(4, 2, 0.4, 0.1 + 0.1j, 0.3)
RHO = density_from_lagrange(LS)
CIRCUIT = Circuit(2, (Gate("h", (0,)), Gate("cx", (0, 1))))
CONFIG = Path(__file__).resolve().parents[1] / "configs" / "sweep_exact.txt"
SWEEP = ExperimentConfig("twoq_a", theta_steps=2, k_targets=(2,))

# name -> (callable, positional arguments, keyword arguments)
ROWS = {
    "CalibrationMatrix": (CalibrationMatrix, (2, CAL.entries), {}),
    "Circuit": (Circuit, (2, CIRCUIT.gates), {}),
    "Gate": (Gate, ("rx", (0,), 0.5), {}),
    "LagrangeSet": (LagrangeSet, (4, 2, 0.1, 0.05 + 0.02j, -0.1), {"near_singular": False}),
    "MeasurementRecord": (MeasurementRecord, (4, 2, 0.4, 0.1 + 0.1j, 0.3), {"source": "measured"}),
    "PauliString": (PauliString, (("X", "Z"),), {}),
    "ReadoutNoise": (ReadoutNoise, ((0.02, 0.03), (0.04, 0.05)), {}),
    "apply_gates": (apply_gates, (zero_state(2), CIRCUIT.gates, 2), {}),
    "block_fidelity": (block_fidelity, (LS, LS), {}),
    "build_calibration": (build_calibration, (NOISE, 2), {}),
    "coherence": (coherence, (BELL, 1, 4), {}),
    "decompose_ketbra": (decompose_ketbra, (1, 4, 2), {}),
    "density_from_lagrange": (density_from_lagrange, (LS,), {}),
    "dump_record": (dump_record, (COMPLETE,), {}),
    "estimate_coherence": (
        estimate_coherence, (BELL, 1, 4, 64),
        {"noise": NOISE, "seed": 1, "calibration": CAL},
    ),
    "estimate_paulis": (
        estimate_paulis, (BELL, (PauliString(("X", "X")),), 64),
        {"noise": NOISE, "seed": 1, "calibration": CAL},
    ),
    "estimate_populations": (
        estimate_populations, (BELL, 64), {"noise": NOISE, "seed": 1, "calibration": CAL}
    ),
    "fidelity": (fidelity, (RHO, RHO), {}),
    "heatmap_scan": (
        heatmap_scan, ([0.0, 0.5], [0.0]),
        {"lam_kk": 0.0, "im_lam1k": 0.1, "dim_n": 4, "index_k": 2},
    ),
    "load_record": (load_record, (dump_record(COMPLETE),), {}),
    "mitigate": (mitigate, (np.array([0.5, 0.0, 0.0, 0.5]), CAL), {}),
    "parse_circuit": (parse_circuit, ("qubits 1\nrx(theta) 0", 0.5), {}),
    "populations": (populations, (BELL,), {}),
    "predict_population": (predict_population, (0.5, 0.1), {}),
    "reconstruct": (reconstruct, (RECORD,), {}),
    "sample_counts": (sample_counts, (BELL, 64), {"noise": NOISE, "seed": 1}),
    "simulate": (simulate, (CIRCUIT,), {}),
    "solve_lagrange": (solve_lagrange, (COMPLETE,), {}),
    "solve_record": (solve_record, (RECORD, 0.3), {}),
    "zero_state": (zero_state, (2,), {}),
    "cli.ExperimentConfig": (
        ExperimentConfig, (),
        {
            "circuit_path": "twoq_a", "theta_start": 0.0, "theta_stop": 1.0, "theta_steps": 3,
            "k_targets": (2,), "backend": "noisy", "shots": 64, "noise": NOISE,
            "mitigate": True, "seed": 0, "output_path": None,
        },
    ),
    "cli.load_config": (load_config, (CONFIG,), {}),
    "cli.run_sweep": (run_sweep, (SWEEP,), {}),
    "cli.run_case_ab": (run_case_ab, (SWEEP,), {}),
}


# Every (row, argument, wrong value) case.
CASES = [
    (name, slot, wrong)
    for name, (_, args, kwargs) in ROWS.items()
    for slot in [*range(len(args)), *kwargs]
    for wrong in WRONG
]


def test_every_public_callable_has_a_row():
    # The exception types are left out: they are built only to be raised.
    public = {
        name for name, value in vars(qmaxent).items()
        if not name.startswith("_") and callable(value)
        and not (isinstance(value, type) and issubclass(value, Exception))
    }
    assert public - set(ROWS) == set()


@pytest.mark.parametrize("name", ROWS)
def test_each_row_is_a_valid_call(name):
    call, args, kwargs = ROWS[name]
    call(*args, **kwargs)


@pytest.mark.parametrize(("name", "slot", "wrong"), CASES)
def test_one_wrong_argument_raises_only_a_tomography_error(name, slot, wrong):
    call, args, kwargs = ROWS[name]
    args, kwargs = list(args), dict(kwargs)
    if isinstance(slot, int):
        args[slot] = WRONG[wrong]
    else:
        kwargs[slot] = WRONG[wrong]
    allowed = (TomographyError, OSError) if call is load_config else TomographyError
    try:
        call(*args, **kwargs)
    except allowed:
        pass
