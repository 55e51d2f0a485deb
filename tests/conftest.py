import numpy as np
import pytest

from degjc import oracle
from degjc.entanglement import wootters_concurrences
from degjc.model import QubitBasis, QubitPairState


@pytest.fixture
def rng():
    return np.random.default_rng(173905)


@pytest.fixture
def no_allocation(monkeypatch):
    """Replace the oracle stages that allocate O(F^2) or more, so a test of
    the memory guard fails instead of allocating if the guard lets it by."""

    def reached(*args, **kwargs):
        raise AssertionError("allocating stage reached past the memory guard")

    for name in ("field_components", "_tridiagonal_eigh"):
        monkeypatch.setattr(oracle, name, reached)


def wootters(state):
    """(concurrence, descending spectrum) of one ``QubitPairState``, as the
    one-matrix stack of ``wootters_concurrences``."""
    values, spectra = wootters_concurrences(state.rho[None], state.basis)
    return float(values[0]), spectra[0]


def random_density_matrix(rng, dim=4):
    """Full-rank random density matrix (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pair_state(rng, basis=QubitBasis.SIGMA_Z):
    return QubitPairState(random_density_matrix(rng), basis)


def random_x_state(rng):
    """Random positive-semidefinite X-shaped two-qubit state, full rank."""
    d = rng.uniform(0.05, 1.0, size=4)
    d /= d.sum()
    r14 = rng.uniform(0.0, 0.98) * np.sqrt(d[0] * d[3]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    r23 = rng.uniform(0.0, 0.98) * np.sqrt(d[1] * d[2]) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    rho = np.diag(d).astype(complex)
    rho[0, 3], rho[3, 0] = r14, np.conj(r14)
    rho[1, 2], rho[2, 1] = r23, np.conj(r23)
    return QubitPairState(rho, QubitBasis.SIGMA_Z)


def random_unitary(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
