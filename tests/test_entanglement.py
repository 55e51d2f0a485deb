"""Entanglement measures against brute-force and closed-form references."""

import numpy as np
import pytest

from conftest import random_density_matrix, random_pair_state, random_unitary, random_x_state
from degjc.entanglement import negativity, wootters_concurrence
from degjc.model import (
    BellState,
    QubitBasis,
    QubitPairState,
    change_basis,
    make_bell,
    make_esd_mixture,
)

SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SYSY = np.kron(SY, SY)


def concurrence_brute(rho):
    """Independent route: eigenvalues of the non-Hermitian product rho rho~."""
    rho_tilde = SYSY @ rho.conj() @ SYSY
    vals = np.linalg.eigvals(rho @ rho_tilde)
    s = np.sort(np.sqrt(np.clip(vals.real, 0.0, None)))[::-1]
    return max(0.0, s[0] - s[1] - s[2] - s[3])


def concurrence_spectrum_sqrt(state):
    """Reference route: eigenvalues of sqrt(rho) rho~ sqrt(rho), descending."""
    rho = change_basis(state, QubitBasis.SIGMA_Z).rho
    vals, vecs = np.linalg.eigh(rho)
    rt = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    m = rt @ (SYSY @ rho.conj() @ SYSY) @ rt
    return np.sqrt(np.clip(np.linalg.eigvalsh(0.5 * (m + m.conj().T)), 0.0, None))[::-1]


def xstate_formula(rho):
    """Closed form for an X-shaped density matrix (Yu & Eberly, Quantum Inf.
    Comput. 7, 459 (2007)), in the state's own basis:
    C = 2 max(0, |rho14| - sqrt(rho22 rho33), |rho23| - sqrt(rho11 rho44))."""
    d = np.clip(np.real(np.diag(rho)), 0.0, None)
    corner, middle = abs(rho[0, 3]) - np.sqrt(d[1] * d[2]), abs(rho[1, 2]) - np.sqrt(d[0] * d[3])
    return 2.0 * max(0.0, corner, middle)


def werner(p):
    phi = make_bell(BellState.PHI_PLUS).rho
    return QubitPairState(p * phi + (1 - p) * np.eye(4) / 4.0, QubitBasis.SIGMA_Z)


class TestWootters:
    def test_bell_states(self):
        for variant in BellState:
            assert wootters_concurrence(make_bell(variant)).value == pytest.approx(
                1.0, abs=1e-12
            )

    def test_maximally_mixed(self):
        state = QubitPairState(np.eye(4) / 4.0, QubitBasis.SIGMA_Z)
        assert wootters_concurrence(state).value == 0.0

    def test_werner_states(self):
        # known closed form max(0, (3p-1)/2)
        assert wootters_concurrence(werner(0.5)).value == pytest.approx(0.25, abs=1e-10)
        assert wootters_concurrence(werner(1 / 3)).value == pytest.approx(0.0, abs=1e-8)
        assert wootters_concurrence(werner(0.2)).value == 0.0
        assert wootters_concurrence(werner(0.9)).value == pytest.approx(0.85, abs=1e-10)

    def test_against_brute_force(self, rng):
        for _ in range(200):
            state = random_pair_state(rng)
            assert wootters_concurrence(state).value == pytest.approx(
                concurrence_brute(state.rho), abs=1e-9
            )

    def test_agrees_with_sqrt_route_on_full_rank_states(self, rng):
        for _ in range(200):
            state = random_pair_state(rng)
            res = wootters_concurrence(state)
            s = concurrence_spectrum_sqrt(state)
            assert np.max(np.abs(res.spectrum - s)) <= 1e-13
            assert abs(res.value - max(0.0, s[0] - s[1] - s[2] - s[3])) <= 1e-13

    def test_rank_deficient_floor(self, rng):
        # pure product states: the sqrt(rho) route leaves ~1e-8 of roundoff
        for _ in range(50):
            a = random_unitary(rng)[:, 0]
            b = random_unitary(rng)[:, 0]
            psi = np.kron(a, b)
            state = QubitPairState(np.outer(psi, psi.conj()), QubitBasis.SIGMA_Z)
            res = wootters_concurrence(state)
            assert res.value <= 1e-14
            assert np.all(res.spectrum <= 1e-14)

    def test_spectrum_is_descending_and_consistent(self, rng):
        state = random_pair_state(rng)
        res = wootters_concurrence(state)
        s = res.spectrum
        assert np.all(np.diff(s) <= 1e-15)
        assert res.value == pytest.approx(max(0.0, s[0] - s[1] - s[2] - s[3]), abs=1e-15)

    def test_local_unitary_invariance(self, rng):
        for _ in range(200):
            state = random_pair_state(rng)
            u = np.kron(random_unitary(rng), random_unitary(rng))
            rotated = QubitPairState(u @ state.rho @ u.conj().T, QubitBasis.SIGMA_Z)
            assert abs(
                wootters_concurrence(rotated).value - wootters_concurrence(state).value
            ) <= 1e-10

    def test_range(self, rng):
        for _ in range(100):
            c = wootters_concurrence(random_pair_state(rng)).value
            assert 0.0 <= c <= 1.0 + 1e-12

    def test_sigma_x_tagged_input(self, rng):
        # conjugation basis is handled internally
        state = random_pair_state(rng, basis=QubitBasis.SIGMA_X)
        from degjc.model import change_basis

        same = change_basis(state, QubitBasis.SIGMA_Z)
        assert wootters_concurrence(state).value == pytest.approx(
            wootters_concurrence(same).value, abs=1e-12
        )


class TestXStateShortcut:
    """Wootters on X-shaped states against the X-state formula."""

    def test_pure_bell_corner_rule(self):
        state = make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X)
        assert xstate_formula(state.rho) == pytest.approx(2 * abs(state.rho[0, 3]), abs=1e-14)
        assert wootters_concurrence(state).value == pytest.approx(1.0, abs=1e-12)

    def test_esd_mixture(self):
        rho = make_esd_mixture().rho
        assert xstate_formula(rho) == pytest.approx(0.5, abs=1e-15)
        assert wootters_concurrence(make_esd_mixture()).value == pytest.approx(0.5, abs=1e-12)

    def test_agreement_with_general_method(self, rng):
        worst = 0.0
        for _ in range(1000):
            state = random_x_state(rng)
            worst = max(worst, abs(xstate_formula(state.rho) - wootters_concurrence(state).value))
        assert worst <= 1e-10


class TestNegativity:
    def test_product_state_is_zero(self, rng):
        a = random_density_matrix(rng, 2)
        b = random_density_matrix(rng, 2)
        assert negativity(np.kron(a, b), (2, 2)) <= 1e-12

    def test_bell_state_is_half(self):
        # partial-transpose eigenvalues are {1/2, 1/2, 1/2, -1/2}
        rho = make_bell(BellState.PHI_PLUS).rho
        pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(pt)), [-0.5, 0.5, 0.5, 0.5], atol=1e-12
        )
        assert negativity(rho, (2, 2)) == pytest.approx(0.5, abs=1e-12)

    def test_separable_mixture_is_zero(self, rng):
        rho = np.zeros((4, 4), dtype=complex)
        for _ in range(6):
            w = rng.uniform(0.1, 1.0)
            rho += w * np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
        rho /= np.trace(rho).real
        assert negativity(rho, (2, 2)) <= 1e-12

    def test_nonnegative(self, rng):
        for _ in range(50):
            assert negativity(random_density_matrix(rng, 4), (2, 2)) >= 0.0

    def test_asymmetric_dimensions(self, rng):
        rho = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 3))
        assert negativity(rho, (2, 3)) <= 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            negativity(random_density_matrix(rng, 4), (2, 3))
