"""Entanglement measures: Wootters concurrence and negativity."""

from dataclasses import dataclass

import numpy as np

from .model import HADAMARD2, QubitBasis

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYSY = np.kron(_SY, _SY)


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence value and the four descending square-rooted eigenvalues
    of rho rho-tilde."""

    value: float
    spectrum: np.ndarray


# Eigenvalues of rho below this fraction of the largest are dropped from
# the factor rho = X X'; they are roundoff, and keeping them lets it into
# the spectrum at its square root.
RANK_TOL = 1e-13


def wootters_concurrence(state):
    """Concurrence C = max(0, s1 - s2 - s3 - s4) of a two-qubit state.

    The s_i are the descending square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy).  This is the one-matrix case of
    :func:`wootters_concurrences`.
    """
    values, spectra = wootters_concurrences(state.rho[None], state.basis)
    return ConcurrenceResult(float(values[0]), spectra[0])


def wootters_concurrences(rhos, basis):
    """Concurrences (n,) and descending spectra s (n, 4) of a validated
    (n, 4, 4) stack of two-qubit density matrices in ``basis``.

    The complex conjugation is taken in the sigma_z product basis (the
    basis in which the spin flip sy x sy is defined), so the stack is
    converted there first; the result is invariant under local unitaries.
    With the rank-revealing factor rho = X X' (eigenvalues below RANK_TOL
    of the largest dropped) the s_i are the singular values of
    tau = X^T (sy x sy) X, padded with zeros to four (Wootters, PRL 80,
    2245 (1998)).  One stacked eigh covers the stack and one stacked svd
    each group of equal rank, so no dropped column is ever zero-padded
    into a product.
    """
    if basis is not QubitBasis.SIGMA_Z:
        rhos = HADAMARD2 @ rhos @ HADAMARD2  # change_basis, per-qubit Hadamard
    vals, vecs = np.linalg.eigh(rhos)
    # eigh sorts ascending, so the kept eigenvalues are the last ``rank``
    rank = np.count_nonzero(vals > RANK_TOL * vals[:, -1:], axis=1)
    s = np.zeros((len(rhos), 4))
    for r in np.unique(rank):
        group = np.flatnonzero(rank == r)
        x = vecs[group, :, 4 - r:] * np.sqrt(vals[group, None, 4 - r:])
        tau = x.swapaxes(-1, -2) @ _SYSY @ x
        s[group, :r] = np.linalg.svd(tau, compute_uv=False)
    margin = s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3]
    return np.where(margin > 0.0, margin, 0.0), s


def negativity(rho, dims):
    """Sum of |negative eigenvalues| of the partial transpose over part B.

    ``dims = (dA, dB)`` gives the bipartition of the density matrix; any
    separable state returns 0 (PPT is necessary for separability), so a
    value at numerical zero is the witness used for separability claims.
    """
    rho = np.asarray(rho, dtype=complex)
    da, db = dims
    if rho.shape != (da * db, da * db):
        raise ValueError(f"density matrix shape {rho.shape} does not match dims {dims}")
    pt = rho.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, da * db)
    vals = np.linalg.eigvalsh(0.5 * (pt + pt.conj().T))
    return float(-vals[vals < 0.0].sum())
