"""Domain types, basis bookkeeping, and initial-state constructors."""

import math

import numpy as np
import pytest

from conftest import random_pair_state, wootters
from dense_reference import H4, change_basis

from degjc.model import (
    HADAMARD2,
    BellState,
    Coherent,
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
from degjc.oracle import field_field_witness


def test_model_params_are_in_units_of_omega():
    p = ModelParams(0.5)
    assert (p.beta, p.omega0, p.degenerate) == (0.5, 0.0, True)
    assert not ModelParams(0.5, omega0=0.7).degenerate


def test_model_params_validation():
    for beta, omega0 in ((-1.0, 0.0), (0.5, -0.5), (math.nan, 0.0), (math.inf, 0.0),
                         (0.5, math.nan), (0.5, math.inf)):
        with pytest.raises(ValueError):
            ModelParams(beta, omega0)


@pytest.mark.parametrize("make, name", [
    (ModelParams, "beta"),
    (lambda z: ModelParams(0.3, omega0=z), "omega0"),
    (Thermal, "thermal occupation"),
    (Number, "Fock index"),
], ids=["beta", "omega0", "thermal", "number"])
@pytest.mark.parametrize("z", [np.complex128(2 + 1j), np.complex64(5), 2 + 0j], ids=repr)
def test_complex_parameters_rejected(make, name, z):
    # a complex numpy scalar used to pass with a ComplexWarning, cut to its
    # real part; a Python complex raised TypeError
    with pytest.raises(ValueError, match=f"^{name} must be real, got "):
        make(z)


def test_real_numpy_scalars_accepted():
    assert ModelParams(np.float64(0.3), np.float32(0.5)) == ModelParams(0.3, 0.5)
    assert Thermal(np.float64(2.0)) == Thermal(2.0) and str(Thermal(np.float64(2.0))) == (
        "thermal:nbar=2")
    for n in (np.int64(5), np.float64(5.0), np.uint8(5)):
        assert Number(n) == Number(5) and type(Number(n).n) is int


def test_field_spec_validation():
    with pytest.raises(ValueError):
        Number(-1)
    for bad in (float("inf"), float("-inf"), float("nan"), np.float64("nan")):
        with pytest.raises(ValueError, match="Fock index must be a nonnegative integer"):
            Number(bad)
    with pytest.raises(ValueError):
        Thermal(-0.1)
    with pytest.raises(ValueError):
        Coherent(complex("inf"))
    assert Number(3).n == 3
    assert str(Vacuum()) == "vacuum"


def test_bell_phi_plus_sigma_z_entries():
    rho = make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_Z).rho
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    np.testing.assert_allclose(rho, expected, atol=1e-15)


@pytest.mark.parametrize("variant", list(BellState))
def test_bell_states_are_maximally_entangled(variant):
    for basis in QubitBasis:
        state = make_bell(variant, basis)
        assert wootters(state)[0] == pytest.approx(1.0, abs=1e-12)
        # pure state
        assert np.trace(state.rho @ state.rho).real == pytest.approx(1.0, abs=1e-12)


def test_bell_conversion_matches_direct_construction():
    converted = change_basis(make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_Z), QubitBasis.SIGMA_X)
    direct = make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X)
    np.testing.assert_allclose(converted.rho, direct.rho, atol=1e-12)
    # and the sigma_x coordinates are the corner pattern (|uu>+|dd>)/sqrt(2)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    np.testing.assert_allclose(direct.rho, expected, atol=1e-15)


def _library_map(rho):
    """The per-qubit Hadamard that make_bell and the Wootters conjugation
    apply to change between sigma_z and sigma_x coordinates."""
    return HADAMARD2 @ rho @ HADAMARD2


@pytest.mark.parametrize("variant", list(BellState))
def test_change_basis_equals_hand_hadamard(variant, rng):
    state = make_bell(variant, QubitBasis.SIGMA_Z)
    converted = make_bell(variant, QubitBasis.SIGMA_X)
    np.testing.assert_allclose(converted.rho, H4 @ state.rho @ H4, atol=1e-14)
    random = random_pair_state(rng)
    np.testing.assert_allclose(_library_map(random.rho), H4 @ random.rho @ H4, atol=1e-14)


def test_change_basis_identity_fixed_point():
    np.testing.assert_allclose(_library_map(np.eye(4) / 4.0), np.eye(4) / 4.0, atol=1e-15)


def test_change_basis_round_trip(rng):
    for _ in range(20):
        state = random_pair_state(rng)
        np.testing.assert_allclose(_library_map(_library_map(state.rho)), state.rho, atol=1e-12)


def test_change_basis_preserves_eigenvalues(rng):
    state = random_pair_state(rng)
    before = np.sort(np.linalg.eigvalsh(state.rho))
    after = np.sort(np.linalg.eigvalsh(_library_map(state.rho)))
    np.testing.assert_allclose(before, after, atol=1e-12)


def test_concurrence_invariant_under_basis_change(rng):
    for _ in range(100):
        state = random_pair_state(rng)
        c_z = wootters(state)[0]
        c_x = wootters(change_basis(state, QubitBasis.SIGMA_X))[0]
        assert abs(c_z - c_x) <= 1e-10


def test_esd_mixture_shape():
    rho = make_esd_mixture().rho
    np.testing.assert_allclose(np.diag(rho).real, [3 / 8, 1 / 8, 1 / 8, 3 / 8], atol=1e-15)
    assert rho[0, 3] == pytest.approx(3 / 8, abs=1e-15)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)
    assert rho[1, 2] == 0.0


def test_esd_mixture_initial_concurrence():
    # 2 max(0, 3/8 - sqrt(1/64)) = 1/2, via the full eigen-solve
    c = wootters(make_esd_mixture())[0]
    assert c == pytest.approx(0.5, abs=1e-8)


def test_invalid_density_matrices_rejected():
    bad_trace = np.eye(4) * 0.3
    with pytest.raises(ValueError):
        QubitPairState(bad_trace, QubitBasis.SIGMA_Z)
    non_hermitian = np.eye(4) / 4.0 + 0.0j
    non_hermitian[0, 1] = 0.1
    with pytest.raises(ValueError):
        QubitPairState(non_hermitian, QubitBasis.SIGMA_Z)
    negative = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
    with pytest.raises(ValueError):
        QubitPairState(negative, QubitBasis.SIGMA_Z)
    with pytest.raises(ValueError):
        QubitPairState(np.eye(3) / 3.0, QubitBasis.SIGMA_Z)


def test_states_are_immutable():
    state = make_bell(BellState.PHI_PLUS)
    with pytest.raises(ValueError):
        state.rho[0, 0] = 1.0


@pytest.mark.parametrize("variant", ["phi+", None, 0], ids=repr)
def test_unsupported_bell_state_raises_type_error(variant, no_allocation):
    # a bare KeyError, where the closed forms raise this TypeError
    for build in (lambda: bell_ket(variant, QubitBasis.SIGMA_X), lambda: make_bell(variant),
                  lambda: field_field_witness(ModelParams(0.3), Vacuum(), variant, [1.0])):
        with pytest.raises(TypeError, match="unsupported Bell state"):
            build()


@pytest.mark.parametrize("basis", ["sigma_x", None, "SIGMA_Z"], ids=repr)
def test_unsupported_basis_raises_type_error(basis):
    # make_bell gave the sigma_z matrix tagged with the string "sigma_x"
    for build in (lambda: bell_ket(BellState.PHI_PLUS, basis),
                  lambda: make_bell(BellState.PHI_PLUS, basis),
                  lambda: QubitPairState(make_esd_mixture().rho, basis)):
        with pytest.raises(TypeError, match="unsupported qubit basis"):
            build()
