"""Maximal-entropy quantum state reconstruction from partial measurements.

Modules:

- ``linalg``: the Hermitian check, the argument tests and the kernels' screen.
- ``maxent``: the reconstruction engine (the population prediction, the
  completion and multiplier solve, the density matrix, the fidelity).
- ``circuit``: gate DSL parser and exact statevector simulator.
- ``pauli``: Pauli expansion of coherence operators.
- ``sampler``: seeded shot sampling, readout noise, calibration mitigation,
  and the Pauli measurement bases.
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
from .maxent import (
    LagrangeSet,
    MeasurementRecord,
    block_fidelity,
    density_from_lagrange,
    dump_record,
    fidelity,
    heatmap_scan,
    load_record,
    predict_population,
    reconstruct,
    solve_lagrange,
    solve_record,
)
from .pauli import PauliString, decompose_ketbra
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
