"""Domain types, basis conventions and initial-state constructors.

Conventions used throughout the package:

* the qubit sigma_x eigenbasis is written (up, down) with
  sigma_x|up> = |up>, sigma_x|down> = -|down>; the sigma_z eigenbasis is
  (e, g) with sigma_z|e> = |e>, sigma_z|g> = -|g>;
* |up> = (|e> + |g>)/sqrt(2), so coordinates transform between the two
  bases by the (self-inverse) Hadamard map per qubit;
* two-qubit indices are ordered (qubit A, qubit B): in the sigma_x basis
  the product states are (up up, up down, down up, down down).

Bell states are defined in the sigma_z basis, Phi+- = (|ee> +- |gg>)/sqrt(2)
and Psi+- = (|eg> +- |ge>)/sqrt(2); a basis tag on every two-qubit density
matrix keeps the representation explicit.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
HADAMARD2 = np.kron(HADAMARD, HADAMARD)

# Density-matrix validation tolerances: ~100x machine-epsilon headroom for
# accumulated 4x4 algebra.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10


class QubitBasis(Enum):
    SIGMA_X = "sigma_x"
    SIGMA_Z = "sigma_z"


class BellState(Enum):
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


@dataclass(frozen=True)
class ModelParams:
    """Coupling beta = lambda/omega and qubit splitting omega0, both in
    units of the oscillator frequency omega, which sets the unit of energy
    (time enters only through the phase w t).

    Closed-form results are only valid in the degenerate regime
    omega0 == 0; the numerical propagator accepts any omega0 >= 0.
    """

    beta: float
    omega0: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta!r}")
        if not (math.isfinite(self.omega0) and self.omega0 >= 0):
            raise ValueError(f"omega0 must be finite and >= 0, got {self.omega0!r}")

    @property
    def degenerate(self):
        return self.omega0 == 0.0


@dataclass(frozen=True)
class Vacuum:
    def __str__(self):
        return "vacuum"


@dataclass(frozen=True)
class Coherent:
    alpha0: complex

    def __post_init__(self):
        a = complex(self.alpha0)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError(f"coherent amplitude must be finite, got {self.alpha0!r}")
        object.__setattr__(self, "alpha0", a)

    def __str__(self):
        return f"coherent:alpha={self.alpha0.real:g},{self.alpha0.imag:g}"


@dataclass(frozen=True)
class Number:
    n: int

    def __post_init__(self):
        if self.n != int(self.n) or self.n < 0:
            raise ValueError(f"Fock index must be a nonnegative integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))

    def __str__(self):
        return f"number:n={self.n}"


@dataclass(frozen=True)
class Thermal:
    nbar: float

    def __post_init__(self):
        if not (math.isfinite(self.nbar) and self.nbar >= 0):
            raise ValueError(f"thermal occupation must be finite and >= 0, got {self.nbar!r}")

    def __str__(self):
        return f"thermal:nbar={self.nbar:g}"


FieldSpec = Union[Vacuum, Coherent, Number, Thermal]


@dataclass(frozen=True)
class QubitPairState:
    """A validated 4x4 two-qubit density matrix with an explicit basis tag."""

    rho: np.ndarray
    basis: QubitBasis

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError(f"two-qubit density matrix must be 4x4, got shape {rho.shape}")
        validate_density_matrices(rho[None])
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)


def validate_density_matrices(rhos):
    """Raise ValueError unless every matrix of the (n, d, d) stack ``rhos``
    is Hermitian, of unit trace and positive semidefinite within
    HERMITICITY_TOL, TRACE_TOL and PSD_TOL (a NaN entry fails the first
    check); the message quotes the worst deviation (the first wrong trace)."""
    if len(rhos) == 0:
        return
    herm = np.max(np.abs(rhos - rhos.conj().swapaxes(-1, -2)))
    if not herm <= HERMITICITY_TOL:
        raise ValueError(f"density matrix not Hermitian: deviation {herm:.3e}")
    tr = np.trace(rhos, axis1=-2, axis2=-1)
    wrong = np.flatnonzero(np.abs(tr - 1.0) > TRACE_TOL)
    if wrong.size:
        raise ValueError(f"density matrix trace {tr[wrong[0]]!r} differs from 1")
    lo = np.linalg.eigvalsh(0.5 * (rhos + rhos.conj().swapaxes(-1, -2))).min()
    if lo < PSD_TOL:
        raise ValueError(f"density matrix not positive semidefinite: min eig {lo:.3e}")


_BELL_KETS_Z = {
    BellState.PHI_PLUS: np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0),
    BellState.PHI_MINUS: np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0),
    BellState.PSI_PLUS: np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0),
    BellState.PSI_MINUS: np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0),
}


def bell_ket(variant, basis):
    """State vector of a Bell state in the requested basis coordinates."""
    ket = _BELL_KETS_Z[variant]
    if basis is QubitBasis.SIGMA_X:
        ket = HADAMARD2 @ ket
    return ket


def make_bell(variant, basis=QubitBasis.SIGMA_Z):
    """Density matrix of a Bell state, expressed in the requested basis."""
    ket = bell_ket(variant, basis)
    return QubitPairState(np.outer(ket, ket.conj()), basis)


def make_esd_mixture():
    """Mixed two-qubit state 3/4 Phi+ + 1/8 |ud><ud| + 1/8 |du><du|.

    An X-shaped matrix in the sigma_x basis: diagonal (3/8, 1/8, 1/8, 3/8)
    with corner coherences 3/8.  Unlike pure Bell inputs it can lose all
    entanglement for a finite interval under thermal fields.
    """
    rho = np.diag([3.0 / 8.0, 1.0 / 8.0, 1.0 / 8.0, 3.0 / 8.0]).astype(complex)
    rho[0, 3] = rho[3, 0] = 3.0 / 8.0
    return QubitPairState(rho, QubitBasis.SIGMA_X)

