"""The public surface of ``degjc``, written out so that any change to it
shows up in a diff."""

import dataclasses
import inspect
import re
from pathlib import Path

import degjc

PUBLIC = [
    "BellState", "Coherent", "FieldFieldWitness", "FieldSpec", "ModelParams", "Number",
    "OracleTrace", "QubitBasis", "QubitPairState", "SubsystemPropagator", "Thermal",
    "TruncationError", "TruncationSpec", "Vacuum", "__version__", "bell_ket",
    "build_hamiltonian", "coherent_fock_vector", "concurrence_at_half_period",
    "concurrence_closed", "concurrence_trace", "default_ncut", "esd_concurrence_closed",
    "evolve_spin_coherent", "field_field_witness", "gamma", "laguerre", "laguerre_roots",
    "laguerre_scaled", "low_spectrum", "make_bell", "make_esd_mixture", "modulation_factor",
    "negativity", "propagate_state", "single_qubit_coherence", "thermal_weights",
    "two_qubit_offdiagonal",
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
