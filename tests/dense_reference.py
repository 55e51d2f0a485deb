"""Dense references for the tests, too costly for the library.

The oracle never forms the 2F x 2F eigenvector matrix of a subsystem block
or the F^2 x F^2 field-field state, and ``laguerre_roots`` never forms the
n x n Jacobi matrix; the tests build all three here and compare the
library's parity chains, local-support witness and roots against them.
The eigenvector Grams V_s' X V_t, which the kernel builds from the even and
odd Fock rows, are formed here as the direct products, as are the field
Grams and the maps summed from them, and the coherent
amplitudes come from their recurrence without the exponent scaling.  The
basis change of a two-qubit state, the coherent-state overlap and the
unscaled Laguerre values, which the library does not use, are written out
here as references.  The mixture
components of a field are written here as the dense (F, K) matrix of their
columns, where the library names a run of unit Fock vectors by its rows.
"""

import itertools
import math

import numpy as np

from degjc import oracle, specialfn
from degjc.model import QubitBasis, QubitPairState, bell_ket
from degjc.oracle import field_components

# hand-built per-qubit basis-change map, independent of the implementation
H1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
H4 = np.kron(H1, H1)


def dense_modes(prop):
    """The orthonormal 2F x 2F eigenvector matrix of the block, ordered as
    ``prop.energies``, so that U(w t) = modes exp(-i energies w t) modes'."""
    (_, even), (_, odd) = prop.chains
    p = oracle._parity(prop.fock_dim)[:, None]
    return np.block([[even, odd], [p * even, -p * odd]]) / math.sqrt(2.0)


def rail_grams(modes):
    """The rail Grams V_s' X V_t of the chains ``modes`` (one at omega0 =
    0, else two), keyed (s, t, flip) with X = P where ``flip`` and X = I
    otherwise; a chain with itself takes X = P only, as V_s' V_s = I."""
    parity = oracle._parity(len(modes[0]))
    rails = {}
    for s, t in itertools.combinations_with_replacement(range(len(modes)), 2):
        for flip in (True,) if s == t else (False, True):
            rails[s, t, flip] = (modes[s].T * parity) @ modes[t] if flip else modes[s].T @ modes[t]
            rails[t, s, flip] = rails[s, t, flip].T
    return rails


def dense_components(field, trunc):
    """``field_components`` with the components as the columns of one
    (F, K) matrix: the unit Fock vectors of a run, ``np.eye(F)[:, rows]``,
    or a coherent field's column as it is.  It calls the function bound at
    import, so a test may put it in place of ``oracle.field_components``."""
    weights, components, tail = field_components(field, trunc)
    if isinstance(components, slice):
        components = np.eye(trunc.ncut + 1)[:, components]
    return weights, components, tail


def dense_maps(prop, field, omega_ts):
    """The conditional maps ops[:, i, k, p, q] = M_ik[p, q] on a grid as the
    dense sums of every chain-pair block, sum_st phi_s' S^st phi_t*, with
    S^st = s^([p = d] + [i = d]) t^([q = d] + [k = d]) (V_s' X V_t) o
    (Y^i_s W Y^k_t^H) / 4 formed as direct products over every eigenvector
    (X = I for p = q, P otherwise, and V_s' V_s = I; Y^u_s = V_s' C, Y^d_s =
    V_s' P C of the dense (F, K) components C).  At omega0 = 0 the two
    chains are one."""
    weights, vecs, _ = dense_components(field, prop.trunc)
    parity = oracle._parity(prop.fock_dim)
    modes = [v for _, v in prop.chains]
    phases = [np.exp(-1j * np.outer(energies, omega_ts)) for energies, _ in prop.chains]
    overlaps = [(v.T @ vecs, v.T @ (parity[:, None] * vecs)) for v in modes]
    ops = np.zeros((len(omega_ts), 2, 2, 2, 2), dtype=complex)
    # one chain pair at a time, so at most its two rail and four field Grams
    # are held; every entry still sums its blocks in (s, t) order
    for s, t in np.ndindex(2, 2):
        rails = [np.eye(prop.fock_dim) if s == t else modes[s].T @ modes[t],  # V_s' V_s = I
                 (modes[s].T * parity) @ modes[t]]
        grams = [[(overlaps[s][i] * weights) @ overlaps[t][k].conj().T for k in (0, 1)]
                 for i in (0, 1)]
        for i, k, p, q in np.ndindex(2, 2, 2, 2):
            block = (-1) ** (s * (p + i) + t * (q + k)) * rails[p != q] * grams[i][k] / 4
            ops[:, i, k, p, q] += np.sum(phases[s] * (block @ phases[t].conj()), axis=0)
    return ops


def evolved_rails(prop, field, omega_t):
    """Evolved rail components ``rails[p, r, :]`` = <r|U(w t)|p, phi> of a
    pure field phi, as a (2, 2, F) array: initial rail p, qubit out r."""
    _, vecs, _ = dense_components(field, prop.trunc)
    f = prop.fock_dim
    psi0 = np.zeros((prop.dim, 2), dtype=complex)
    psi0[:f, 0] = psi0[f:, 1] = vecs[:, 0]
    return oracle.propagate_state(prop, psi0, omega_t).T.reshape(2, 2, f)


def field_field_reduced(prop, bell, field, omega_t):
    """Reduced density matrix of the two fields, with both qubits traced out.

    The initial state is the Bell state ``bell`` with identical pure fields
    on both subsystems.  Returns the dense (F^2, F^2) matrix,
    trace-normalized; it costs O(F^4) memory.
    """
    rails = evolved_rails(prop, field, omega_t)
    c2 = bell_ket(bell, QubitBasis.SIGMA_X).astype(complex).reshape(2, 2)
    psi = np.einsum("pq,prm,qsn->rmsn", c2, rails, rails, optimize=True)
    f = prop.fock_dim
    rho = np.einsum("rmsn,rMsN->mnMN", psi, psi.conj(), optimize=True).reshape(f * f, f * f)
    rho /= np.trace(rho).real
    return rho


def coherent_fock_vector_unscaled(alpha, ncut):
    """``coherent_fock_vector`` with the recurrence started from c_0 =
    e^(-|alpha|^2 / 2) itself.  Past |alpha| = 37.64 that start is
    subnormal or 0 and the amplitudes lose their precision; below it the
    library must give these bits."""
    alpha = complex(alpha)
    c = np.empty(ncut + 1, dtype=complex)
    c[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(ncut):
        c[n + 1] = c[n] * alpha / math.sqrt(n + 1)
    return c, max(0.0, 1.0 - float(np.vdot(c, c).real))


def laguerre(n, x):
    """L_n(x) itself, as ``np.ldexp`` of the mantissa and exponent of
    ``laguerre_scaled``: the library keeps only the scaled form, whose
    unscaled value overflows past the float range."""
    return np.ldexp(*specialfn.laguerre_scaled(n, x))


def laguerre_roots_dense(n, x_max=None):
    """The roots of L_n from ``eigvalsh`` of the dense n x n Jacobi matrix
    (diagonal 2k+1, off-diagonal k), then the library's one Newton step."""
    if n == 0:
        return np.array([])
    k = np.arange(n, dtype=float)
    roots = np.linalg.eigvalsh(np.diag(2.0 * k + 1.0) + np.diag(k[1:], 1) + np.diag(k[1:], -1))
    ln, lnm1, _ = specialfn._recurrence(n, roots)
    roots = roots - roots * ln / (n * (ln - lnm1))
    return roots if x_max is None else roots[roots <= x_max]


def change_basis(state, target):
    """The two-qubit state re-expressed in the ``target`` basis."""
    if state.basis is target:
        return state
    return QubitPairState(H4 @ state.rho @ H4, target)


def coherent_overlap(a, b):
    """<a|b> = exp(-|a|^2/2 - |b|^2/2 + a* b) for coherent states |a>, |b>."""
    a, b = complex(a), complex(b)
    return np.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + np.conj(a) * b)
