"""Maximal-entropy quantum state reconstruction from partial measurements.

Modules:

- ``linalg``: Hermitian checks and the tolerance policy.
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
    InfeasibleRecordError,
    ParseError,
    TomographyError,
    ValidationError,
)
from .linalg import POLICY, NumericPolicy
from .maxent import (
    ExponentSpectrum,
    LagrangeSet,
    MeasurementRecord,
    block_fidelity,
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
    solve_record,
    spectrum,
)
from .pauli import (
    MeasurementSetting,
    PauliDecomposition,
    PauliString,
    decompose_ketbra,
    measurement_settings,
)
from .sampler import (
    CalibrationMatrix,
    ReadoutNoise,
    build_calibration,
    estimate_coherence,
    estimate_paulis,
    estimate_populations,
    mitigate,
    sample_counts,
)

__version__ = "0.1.0"
