"""Exact entanglement dynamics of two degenerate qubits with local oscillators.

Closed-form coherence and concurrence laws for vacuum, coherent, number and
thermal initial fields, cross-validated by an independent truncated
Fock-space propagator.
"""

__version__ = "0.1.0"

from .closedform import (
    concurrence_at_half_period,
    concurrence_closed,
    esd_concurrence_closed,
    evolve_spin_coherent,
    gamma,
    modulation_factor,
    single_qubit_coherence,
    two_qubit_offdiagonal,
)
from .entanglement import negativity
from .model import (
    BellState,
    Coherent,
    FieldSpec,
    ModelParams,
    Number,
    QubitBasis,
    QubitPairState,
    Thermal,
    Vacuum,
    bell_ket,
    make_bell,
    make_esd_mixture,
)
from .oracle import (
    FieldFieldWitness,
    OracleTrace,
    SubsystemPropagator,
    TruncationError,
    TruncationSpec,
    build_hamiltonian,
    coherent_fock_vector,
    concurrence_trace,
    default_ncut,
    field_field_witness,
    low_spectrum,
    propagate_state,
)
from .specialfn import (
    laguerre_roots,
    laguerre_scaled,
    thermal_weights,
)

__all__ = [
    "__version__",
    "BellState",
    "Coherent",
    "FieldFieldWitness",
    "FieldSpec",
    "ModelParams",
    "Number",
    "OracleTrace",
    "QubitBasis",
    "QubitPairState",
    "SubsystemPropagator",
    "Thermal",
    "TruncationError",
    "TruncationSpec",
    "Vacuum",
    "bell_ket",
    "build_hamiltonian",
    "coherent_fock_vector",
    "concurrence_at_half_period",
    "concurrence_closed",
    "concurrence_trace",
    "default_ncut",
    "esd_concurrence_closed",
    "evolve_spin_coherent",
    "field_field_witness",
    "gamma",
    "laguerre_roots",
    "laguerre_scaled",
    "low_spectrum",
    "make_bell",
    "make_esd_mixture",
    "modulation_factor",
    "negativity",
    "propagate_state",
    "single_qubit_coherence",
    "thermal_weights",
    "two_qubit_offdiagonal",
]
