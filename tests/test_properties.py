"""Invariants of the closed forms and of the oracle over generated
parameters (hypothesis).

Every test is derandomized and bounded, so the suite stays deterministic.
"""

import math

import numpy as np
import pytest
from dense_reference import H4
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from degjc.closedform import (
    concurrence_at_half_period,
    concurrence_closed,
    esd_concurrence_closed,
    modulation_factor,
    single_qubit_coherence,
    two_qubit_offdiagonal,
)
from degjc.csvcells import csv_rows
from degjc.entanglement import wootters_concurrences
from degjc.model import (
    PSD_TOL,
    BellState,
    Coherent,
    ModelParams,
    Number,
    QubitBasis,
    Thermal,
    Vacuum,
    make_bell,
)
from degjc.oracle import (
    TruncationError,
    TruncationSpec,
    build_hamiltonian,
    coherent_fock_vector,
    concurrence_trace,
    field_field_witness,
    low_spectrum,
    propagate_state,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

finite = dict(allow_nan=False, allow_infinity=False)
betas = st.floats(0.0, 3.0, **finite)
phases = st.floats(-20.0, 20.0, **finite)
alphas = st.complex_numbers(max_magnitude=10.0, **finite)
bells = st.sampled_from(list(BellState))
fields = st.one_of(
    st.just(Vacuum()),
    st.builds(Coherent, alphas),
    st.builds(Number, st.integers(0, 60)),
    st.builds(Thermal, st.floats(0.0, 30.0, **finite)),
)


@PROPERTY
@given(bells, fields, st.floats(0.0, 10.0, **finite), phases)
def test_concurrence_in_unit_interval(bell, field, beta, omega_t):
    c = concurrence_closed(bell, field, beta, omega_t)
    assert 0.0 <= c <= 1.0


@PROPERTY
@given(fields, betas, st.floats(-4 * math.pi, 4 * math.pi, **finite))
def test_two_pi_periodic(field, beta, omega_t):
    # |gamma|^2 = 2 - 2 cos(w t) is periodic up to the rounding of w t + 2 pi
    c = concurrence_closed(BellState.PHI_PLUS, field, beta, omega_t)
    shifted = concurrence_closed(BellState.PHI_PLUS, field, beta, omega_t + 2 * math.pi)
    assert shifted == pytest.approx(c, abs=1e-12)


@PROPERTY
@given(fields, betas, phases)
def test_bell_equivalence(field, beta, omega_t):
    cs = [concurrence_closed(b, field, beta, omega_t) for b in BellState]
    assert cs.count(cs[0]) == len(cs)
    for b in BellState:
        off = 2.0 * abs(two_qubit_offdiagonal(b, field, beta, omega_t))
        assert off == pytest.approx(cs[0], rel=1e-12, abs=1e-300)


@PROPERTY
@given(alphas, betas, phases)
def test_alpha0_independence(alpha0, beta, omega_t):
    c = concurrence_closed(BellState.PHI_PLUS, Coherent(alpha0), beta, omega_t)
    assert c == concurrence_closed(BellState.PHI_PLUS, Vacuum(), beta, omega_t)
    coh = single_qubit_coherence(0.5, Coherent(alpha0), beta, omega_t)
    vac = single_qubit_coherence(0.5, Vacuum(), beta, omega_t)
    assert abs(coh) == pytest.approx(abs(vac), rel=1e-12, abs=1e-300)


@PROPERTY
@given(st.floats(0.0, 30.0, **finite), betas, phases)
def test_thermal_is_coherent_at_enhanced_coupling(nbar, beta, omega_t):
    # C_thermal(nbar, beta) = C_coherent(beta sqrt(1 + 2 nbar))
    thermal = concurrence_closed(BellState.PHI_PLUS, Thermal(nbar), beta, omega_t)
    coherent = concurrence_closed(
        BellState.PHI_PLUS, Vacuum(), beta * math.sqrt(1.0 + 2.0 * nbar), omega_t)
    assert thermal == pytest.approx(coherent, rel=1e-12, abs=1e-300)


@PROPERTY
@given(st.lists(st.floats(-0.05, 1.0, **finite), min_size=4, max_size=4),
       st.lists(st.floats(-1.0, 1.0, **finite), min_size=32, max_size=32))
def test_concurrence_needs_no_basis_change(spectrum, entries):
    # the per-qubit Hadamard commutes with the spin flip sy x sy, so a
    # sigma_x state and its Hadamard image in sigma_z have one concurrence
    # and one spectrum, and a negative eigenvalue fails both alike
    lowest = min(spectrum) / sum(spectrum) if sum(spectrum) > 0.1 else 0.0
    assume(sum(spectrum) > 0.1 and abs(lowest - PSD_TOL) > 1e-12)
    a = np.array(entries).reshape(2, 4, 4)
    u, _ = np.linalg.qr(a[0] + 1j * a[1])
    rho = (u * (np.array(spectrum) / sum(spectrum))) @ u.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    results = []
    for state, basis in ((rho, QubitBasis.SIGMA_X), (H4 @ rho @ H4, QubitBasis.SIGMA_Z)):
        try:
            results.append(wootters_concurrences(state[None], basis))
        except ValueError as exc:
            assert "not positive semidefinite" in str(exc)
            results.append(None)
    x, z = results
    assert (x is None) == (z is None) == (lowest < PSD_TOL)
    if x is not None:
        assert np.max(np.abs(x[0] - z[0])) <= 1e-14
        assert np.max(np.abs(x[1] - z[1])) <= 1e-14


half_period_fields = st.one_of(
    fields,
    st.sampled_from([Number(200), Number(1000)]),
)


@PROPERTY
@given(half_period_fields,
       st.lists(st.floats(0.0, 10.0, **finite), min_size=1, max_size=40))
def test_array_half_period_matches_scalar_calls(field, beta_list):
    beta = np.array(beta_list)
    together = concurrence_at_half_period(field, beta)
    assert together.shape == beta.shape
    one_by_one = np.array([concurrence_at_half_period(field, b) for b in beta])
    assert np.all(np.abs(together - one_by_one) <= 1e-15)


@PROPERTY
@given(st.floats(0.0, **finite), st.floats(0.0, **finite), phases)
def test_closed_forms_finite_or_rejected(beta, nbar, omega_t):
    # over the whole float range: a value in [0, 1], or ValueError exactly where
    # 16 (1 + 2 nbar) beta^2 overflows; |complex| may round a few ulps above 1
    real = [lambda: modulation_factor(beta, omega_t),
            lambda: esd_concurrence_closed(beta, nbar, omega_t),
            lambda: concurrence_at_half_period(Thermal(nbar), beta)]
    complex_ = []
    for f in (Vacuum(), Coherent(1.0 + 0.5j), Number(3), Thermal(nbar)):
        real.append(lambda f=f: concurrence_closed(BellState.PHI_MINUS, f, beta, omega_t))
        complex_ += [lambda f=f: 2.0 * two_qubit_offdiagonal(BellState.PHI_PLUS, f, beta, omega_t),
                     lambda f=f: 2.0 * single_qubit_coherence(0.5, f, beta, omega_t)]
    overflows = not math.isfinite(16.0 * (1.0 + 2.0 * nbar) * (beta * beta))
    for law, top in [(law, 1.0) for law in real] + [
            (lambda law=law: abs(law()), 1.0 + 1e-15) for law in complex_]:
        try:
            value = law()
        except ValueError:
            assert overflows
            continue
        assert math.isfinite(value) and 0.0 <= value <= top


ORACLE_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)

oracle_fields = st.one_of(
    st.just(Vacuum()),
    st.builds(Coherent, st.complex_numbers(max_magnitude=2.0, **finite)),
    st.builds(Number, st.integers(0, 5)),
    st.builds(Thermal, st.floats(0.0, 2.0, **finite)),
)


@ORACLE_PROPERTY
@given(bells, oracle_fields, st.floats(0.0, 0.75, **finite),
       st.lists(phases, min_size=1, max_size=6))
def test_oracle_matches_closed_form(bell, field, beta, omega_ts):
    # the oracle-grid tolerance of the acceptance criteria
    omega_ts = np.array(omega_ts)
    trace = concurrence_trace(
        ModelParams(beta), field, make_bell(bell, QubitBasis.SIGMA_X), omega_ts)
    closed = concurrence_closed(bell, field, beta, omega_ts)
    assert np.max(np.abs(trace.values - closed)) <= 1e-7


witness_fields = st.one_of(
    st.just(Vacuum()),
    st.builds(Number, st.integers(0, 5)),
    st.builds(Coherent, st.complex_numbers(max_magnitude=1.0, **finite)),
)


@ORACLE_PROPERTY
@given(bells, witness_fields, st.floats(0.0, 1.0, **finite),
       st.lists(st.floats(0.0, 4 * math.pi, **finite), min_size=1, max_size=6))
def test_degenerate_qubits_leave_their_fields_separable(bell, field, beta, omega_ts):
    # the paper's claim: at omega0 = 0 the fields stay PPT, each qubit stays
    # maximally mixed, and each field lives on the span of two rails
    witness = field_field_witness(ModelParams(beta), field, bell, omega_ts)
    assert np.max(witness.negativity) <= 1e-12
    assert np.max(np.abs(witness.qubit_purity - 0.5)) <= 1e-12
    assert np.all(witness.support_dim == 2)


def _call_oracle(entry, omega0, omega_t):
    """Call one oracle entry point with phase (or grid) ``omega_t``."""
    params, trunc = ModelParams(0.4, omega0=omega0), TruncationSpec(12)
    bell = BellState.PHI_PLUS
    if entry == "concurrence_trace":
        return concurrence_trace(params, Vacuum(), make_bell(bell, QubitBasis.SIGMA_X),
                                 omega_t, trunc=trunc).values
    if entry == "field_field_witness":
        return field_field_witness(params, Vacuum(), bell, omega_t, trunc=trunc).negativity
    prop = build_hamiltonian(params, trunc)
    return propagate_state(prop, np.eye(prop.dim)[:, :2], omega_t)


oracle_entries = st.sampled_from(["concurrence_trace", "propagate_state", "field_field_witness"])
bad_phases = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(oracle_entries, st.sampled_from([0.0, 0.7]), bad_phases, st.booleans())
def test_oracle_rejects_non_finite_and_empty_input(entry, omega0, bad, empty):
    if empty:
        omega_t = np.array([])
    else:
        omega_t = [0.5, bad] if entry != "propagate_state" else bad
    try:
        result = _call_oracle(entry, omega0, omega_t)
    except (ValueError, TruncationError) as exc:
        assert not isinstance(exc, np.linalg.LinAlgError)
        return
    # only an empty grid may pass, and it gives an empty result
    assert entry != "propagate_state" and empty
    assert result.shape == (0,)


@pytest.mark.parametrize("call", [
    lambda: TruncationSpec(2.5),
    lambda: TruncationSpec(True),
    lambda: TruncationSpec(np.float64(20.0)),
    lambda: concurrence_trace(ModelParams(0.4), Vacuum(),
                              make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X), [0.0, 1.0],
                              trunc=TruncationSpec(20.5)),
    lambda: low_spectrum(build_hamiltonian(ModelParams(0.4), TruncationSpec(12)), 0),
    lambda: low_spectrum(build_hamiltonian(ModelParams(0.4), TruncationSpec(12)), 2.5),
    lambda: low_spectrum(build_hamiltonian(ModelParams(0.4), TruncationSpec(12)), True),
    # the block has dimension 26; 100 levels gave 26 without an error
    lambda: low_spectrum(build_hamiltonian(ModelParams(0.4), TruncationSpec(12)), 100),
    lambda: coherent_fock_vector(0.5, -1),
    lambda: coherent_fock_vector(0.5, -5),
    lambda: coherent_fock_vector(0.5, 2.5),
], ids=["ncut-2.5", "ncut-bool", "ncut-float", "trace-ncut-20.5", "spectrum-0",
        "spectrum-2.5", "spectrum-bool", "spectrum-100", "fock-vector--1", "fock-vector--5",
        "fock-vector-2.5"])
def test_oracle_rejects_non_integral_cutoffs(call):
    with pytest.raises(ValueError, match="integer"):
        call()


def _percent_17g(values):
    return "".join("%.17g\n" % v for v in values).encode()


@PROPERTY
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_csv_cells_are_percent_17g(values):
    assert csv_rows([np.array(values, dtype=np.float64)]) == _percent_17g(values)


@PROPERTY
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_csv_cells_of_raw_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert csv_rows([values]) == _percent_17g(values.tolist())
