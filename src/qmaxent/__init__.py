"""Maximal-entropy quantum state reconstruction from partial measurements.

Modules:

- ``linalg``: Hermitian eigendecomposition, matrix exp/log kernel.
- ``maxent``: the reconstruction engine (multipliers, spectrum, density
  matrix, forward/inverse maps, population prediction, fidelity).
- ``circuit``: gate DSL parser and exact statevector simulator.
- ``pauli``: Pauli expansion of coherence operators and measurement settings.
- ``sampler``: seeded shot sampling, readout noise, calibration mitigation.
- ``cli``: sweep/experiment harness and the ``qmaxent`` command.
"""

from .circuit import (
    Circuit,
    Gate,
    apply_gates,
    coherence,
    parse_circuit,
    populations,
    simulate,
    zero_state,
)
from .errors import (
    DomainError,
    IncompleteDataError,
    InfeasibleRecordError,
    ParseError,
    TomographyError,
    ValidationError,
)
from .linalg import (
    POLICY,
    EigenSystem,
    NumericPolicy,
    hermitian_eig,
    matrix_exp_hermitian,
    matrix_log_psd,
)
from .maxent import (
    ExponentSpectrum,
    LagrangeSet,
    MeasurementRecord,
    build_exponent,
    density_from_lagrange,
    dump_record,
    feasible_record,
    fidelity,
    forward_expectations,
    heatmap_scan,
    load_record,
    predict_population,
    reconstruct,
    saturation_rescale,
    solve_lagrange,
    spectrum,
)
from .pauli import (
    MeasurementSetting,
    PauliDecomposition,
    PauliString,
    decompose_ketbra,
    expectation_from_paulis,
    measurement_settings,
)
from .sampler import (
    CalibrationMatrix,
    CountsTable,
    ReadoutNoise,
    build_calibration,
    dump_counts,
    estimate_coherence,
    estimate_pauli,
    estimate_populations,
    load_counts,
    mitigate,
    sample_counts,
)

__version__ = "0.1.0"
