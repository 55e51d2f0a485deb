"""Entanglement measures: Wootters concurrence of a stack of two-qubit
states, and negativity."""

import numpy as np

from .model import validate_spectra

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYSY = np.kron(_SY, _SY)

# Eigenvalues of rho below this fraction of the largest are dropped from
# the factor rho = X X'; they are roundoff, and keeping them lets it into
# the spectrum at its square root.
RANK_TOL = 1e-13


def wootters_concurrences(rhos, basis):
    """Concurrences (n,) and descending spectra s (n, 4) of an (n, 4, 4)
    stack of Hermitian, unit-trace two-qubit matrices in ``basis``:
    C = min(1, max(0, s1 - s2 - s3 - s4)), with the s_i the descending
    square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy).  One
    state is the stack ``state.rho[None]``.  Positivity is checked on the
    eigenvalues of the one stacked eigh, by
    :func:`~degjc.model.validate_spectra`: a state with an eigenvalue below
    PSD_TOL raises the ValueError of
    :func:`~degjc.model.validate_density_matrices`.

    The spin flip is defined in the sigma_z product basis, and a state in
    the sigma_x basis needs no conversion: the per-qubit Hadamard h is real
    and h sy h = -sy, so (h x h)(sy x sy)(h x h) = sy x sy and the
    spin-flipped state, and with it the concurrence, is the same in either
    basis; ``basis`` does not enter.  With the rank-revealing factor rho =
    X X' (eigenvalues below RANK_TOL of the largest dropped) the s_i are
    the singular values of tau = X^T (sy x sy) X, padded with zeros to four
    (Wootters, PRL 80, 2245 (1998)).  One stacked eigh covers the stack and one stacked svd
    each group of equal rank, so no dropped column is ever zero-padded
    into a product.
    """
    vals, vecs = np.linalg.eigh(rhos)
    validate_spectra(vals)
    # eigh sorts ascending, so the kept eigenvalues are the last ``rank``
    rank = np.count_nonzero(vals > RANK_TOL * vals[:, -1:], axis=1)
    s = np.zeros((len(rhos), 4))
    for r in np.flatnonzero(np.bincount(rank)):  # each rank present, ascending
        group = np.flatnonzero(rank == r)
        x = vecs[group, :, 4 - r:] * np.sqrt(vals[group, None, 4 - r:])
        tau = x.swapaxes(-1, -2) @ _SYSY @ x
        s[group, :r] = np.linalg.svd(tau, compute_uv=False)
    margin = s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3]
    return np.where(margin > 0.0, np.minimum(margin, 1.0), 0.0), s


def negativity(rho, dims):
    """Sum of |negative eigenvalues| of the partial transpose over part B,
    a float for one density matrix and an array for a stack (..., d, d).

    ``dims = (dA, dB)`` gives the bipartition of the density matrices; any
    separable state returns 0 (PPT is necessary for separability), so a
    value at numerical zero is the witness used for separability claims.
    A PPT matrix gives +0.0.
    """
    rho = np.asarray(rho, dtype=complex)
    da, db = dims
    if rho.shape[-2:] != (da * db, da * db):
        raise ValueError(f"density matrix shape {rho.shape} does not match dims {dims}")
    pt = rho.reshape(rho.shape[:-2] + (da, db, da, db)).swapaxes(-3, -1).reshape(rho.shape)
    vals = np.linalg.eigvalsh(0.5 * (pt + pt.conj().swapaxes(-1, -2)))
    negs = np.sum(np.maximum(-vals, 0.0), axis=-1)
    return float(negs) if negs.ndim == 0 else negs
