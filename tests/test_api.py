"""The public surface of ``degjc``, written out so that any change to it
shows up in a diff."""

import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import degjc

PUBLIC = [
    "BellState", "Coherent", "FieldFieldWitness", "FieldSpec", "ModelParams", "Number",
    "OracleTrace", "QubitBasis", "QubitPairState", "SubsystemPropagator", "Thermal",
    "TruncationError", "TruncationSpec", "Vacuum", "__version__", "bell_ket",
    "build_hamiltonian", "coherent_fock_vector", "concurrence_at_half_period",
    "concurrence_closed", "concurrence_trace", "default_ncut", "esd_concurrence_closed",
    "evolve_spin_coherent", "field_field_witness", "gamma", "laguerre_roots", "laguerre_scaled",
    "low_spectrum", "make_bell", "make_esd_mixture", "modulation_factor", "negativity",
    "propagate_state", "single_qubit_coherence", "thermal_weights", "two_qubit_offdiagonal",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(degjc.__all__) == PUBLIC
    assert len(set(degjc.__all__)) == len(degjc.__all__)
    missing = [name for name in degjc.__all__ if not hasattr(degjc, name)]
    assert not missing


def test_model_params_and_witness_signature_are_pinned():
    # beta and omega0 are in units of omega; the propagator carries its cutoff,
    # and the witness takes the grid and cutoff of concurrence_trace
    assert [f.name for f in dataclasses.fields(degjc.ModelParams)] == ["beta", "omega0"]
    assert [f.name for f in dataclasses.fields(degjc.SubsystemPropagator)] == [
        "trunc", "chains", "eigensolver"]
    assert list(inspect.signature(degjc.field_field_witness).parameters) == [
        "params", "field", "bell", "omega_ts", "trunc"]
    assert [f.name for f in dataclasses.fields(degjc.FieldFieldWitness)] == [
        "negativity", "qubit_purity", "field_purity", "support_dim", "ncut", "doubling_error",
        "tail_mass", "eigensolver", "sector_dim", "kept_modes", "components", "doubled_ncut"]


def test_readme_library_example_runs(capsys):
    # the Python block of the README's Library section, run as written
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    kappa_line, trace_line = capsys.readouterr().out.splitlines()
    assert float(kappa_line) <= 1e-14
    error, ncut, doubling = trace_line.split()
    assert float(error) <= 1e-8 and int(ncut) > 0 and float(doubling) <= 1e-8


PHI_PLUS = degjc.BellState.PHI_PLUS


@pytest.mark.parametrize("call, name", [
    (lambda z: degjc.concurrence_closed(PHI_PLUS, degjc.Vacuum(), z, 1.0), "beta"),
    (lambda z: degjc.concurrence_closed(PHI_PLUS, degjc.Vacuum(), 0.5, z), "omega_t"),
    (lambda z: degjc.concurrence_at_half_period(degjc.Number(3), z), "beta"),
    (lambda z: degjc.laguerre_scaled(3, z), "Laguerre argument"),
    (lambda z: degjc.concurrence_trace(
        degjc.ModelParams(0.3), degjc.Vacuum(),
        degjc.make_bell(PHI_PLUS, degjc.QubitBasis.SIGMA_X), np.atleast_1d(z)), "phase w t"),
    (lambda z: degjc.field_field_witness(
        degjc.ModelParams(0.3), degjc.Vacuum(), PHI_PLUS, np.atleast_1d(z)), "phase w t"),
], ids=["beta", "omega_t", "half-period", "laguerre", "oracle", "witness"])
@pytest.mark.parametrize("value", [
    np.array([0.5, 0.5j]), 0.5j, complex(0.5), np.array([1.0, 2.0], dtype=complex)],
    ids=["array", "scalar", "real-scalar", "real-array"])
def test_complex_inputs_rejected(call, name, value, no_allocation):
    # a float conversion would cut them to their real part: a concurrence
    # above 1 at beta = 0.5j, or the phase 0 at w t = 1j; the oracle
    # rejects them before allocating
    with pytest.raises(ValueError, match=f"^{name} must be real"):
        call(value)
