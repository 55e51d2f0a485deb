"""The public surface of ``degjc``, written out so that any change to it
shows up in a diff."""

import degjc

PUBLIC = [
    "BellState", "Coherent", "ConcurrenceResult", "FieldFieldWitness", "FieldSpec",
    "GammaValue", "ModelParams", "Number", "OracleTrace", "QubitBasis", "QubitPairState",
    "SubsystemPropagator", "Thermal", "TruncationError", "TruncationSpec", "Vacuum",
    "__version__", "bell_ket", "build_hamiltonian", "change_basis",
    "characteristic_integral", "coherent_fock_vector", "coherent_overlap",
    "concurrence_at_half_period", "concurrence_closed", "concurrence_trace", "default_ncut",
    "esd_concurrence_closed", "evolve_spin_coherent", "evolved_vacuum_state_amplitude",
    "field_field_witness", "gamma", "laguerre", "laguerre_roots", "laguerre_scaled",
    "low_spectrum", "make_bell", "make_esd_mixture", "modulation_factor", "negativity",
    "propagate_state", "single_qubit_coherence", "thermal_weights", "two_qubit_offdiagonal",
    "wootters_concurrence",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(degjc.__all__) == PUBLIC
    assert len(set(degjc.__all__)) == len(degjc.__all__)
    missing = [name for name in degjc.__all__ if not hasattr(degjc, name)]
    assert not missing
