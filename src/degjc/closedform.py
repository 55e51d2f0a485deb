"""Closed-form dynamics of degenerate qubits coupled to local oscillators.

Everything here is an exact function of the dimensionless phase w*t (omega
times time).  The single time-dependent control variable is

    gamma(t) = exp(i w t) - 1,       |gamma|^2 = 2 - 2 cos(w t) in [0, 4],

a circle of radius 1 around -1 in the complex plane.  Every law comes from
one factor, the unit qubit coherence kappa = exp(-2 beta^2 |gamma|^2) I:
the field-independent envelope times the normally-ordered characteristic
function I of the initial field at -2 beta gamma.  Two-qubit sigma_x corner
coherences carry kappa^2 and middle ones |kappa|^2.

All functions accept scalar or array ``omega_t`` and are pure;
``concurrence_at_half_period`` also takes an array of ``beta``.  Each law
computes on an array of phases and reshapes its result once, so one phase
gives a numpy scalar with the bits of the matching grid element.  A NaN or
infinite ``beta``, ``nbar`` or ``omega_t`` raises ``ValueError``, and so
do a complex-typed ``beta`` or ``omega_t`` and a finite pair whose
exponent bound 16 (1 + 2 nbar) beta^2 overflows.
Number-state laws, exp(-p x/2) L_N(x)^p with x = 4 beta^2 |gamma|^2 and
p = 1 or 2, are bounded by 1 although L_N(x) alone may leave the float
range and exp(-x/2) alone may underflow; there the binary exponent of the
scaled Laguerre recurrence is folded into the exponential.
"""

import cmath
import math

import numpy as np

from .model import BellState, Coherent, Number, Thermal, Vacuum
from .specialfn import _real_array, laguerre_scaled

_LN2 = math.log(2.0)
_TINY = np.finfo(float).tiny


def _check_inputs(beta, omega_t, nbar=0.0):
    """The closed forms' shared argument check: ``nbar`` and every
    ``beta`` finite and >= 0, every ``omega_t`` finite, and every
    16 (1 + 2 nbar) beta^2, the largest exponent any law forms, finite.
    A complex-typed ``beta`` or ``omega_t`` raises ValueError.  Returns the
    phases as a float array of at least one dimension and the shape of the
    result, that of ``beta`` and ``omega_t`` broadcast."""
    b = _real_array(beta, "beta")
    hi = float(b.max(initial=0.0))  # a Python float: overflow gives inf, no warning
    if not (b.min(initial=math.inf) >= 0 and math.isfinite(hi)):
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ValueError(f"thermal occupation must be finite and >= 0, got {nbar!r}")
    if not math.isfinite(16.0 * (1.0 + 2.0 * float(nbar)) * (hi * hi)):
        raise ValueError(f"16 (1 + 2 nbar) beta^2 overflows (beta={beta!r}, nbar={nbar!r})")
    wt = _real_array(omega_t, "omega_t")
    if not np.isfinite(wt).all():
        raise ValueError("omega_t must be finite")
    return np.atleast_1d(wt), np.broadcast(b, wt).shape


def _shaped(value, shape):
    """A law's array result in ``shape``: a numpy scalar for shape ()."""
    return value.reshape(shape)[()]


def _abs2(wt):
    """|gamma|^2 = 2 - 2 cos(w t)."""
    return 2.0 - 2.0 * np.cos(wt)


def _number_fold(n, x, p):
    """exp(-p x/2) L_n(x)^p for x >= 0 and p = 1 or 2: the plain product
    where it is finite and it and the exponential are normal, else, unless
    0, the folded (m exp(e ln 2 - x/2))^p of L_n(x) = m 2^e, finite as
    |L_n(x)| <= e^{x/2}.  A subnormal exponential has lost bits even where
    the plain product is normal.  m = 0 may carry any exponent, so the
    folded argument is capped at 1; elsewhere it is below ln 2."""
    m, e = laguerre_scaled(n, x)
    env = np.exp(-0.5 * p * x)
    with np.errstate(over="ignore", invalid="ignore"):
        plain = env * np.ldexp(m, e) ** p
    folded = (m * np.exp(np.minimum(e * _LN2 - 0.5 * x, 1.0))) ** p
    lost = (np.abs(plain) < _TINY) | (env < _TINY)
    return np.where(~np.isfinite(plain) | (lost & (folded != 0)), folded, plain)


def _kappa(field, beta, wt):
    """kappa = exp(-2 beta^2 |gamma|^2) I(-2 beta gamma) on the phase array
    ``wt``; a number state takes the fold, finite where L_N is not."""
    x = 4.0 * beta**2 * _abs2(wt)
    if isinstance(field, Number):
        return _number_fold(field.n, x, 1).astype(complex)
    if isinstance(field, Vacuum):
        integral = np.ones_like(x, dtype=complex)
    elif isinstance(field, Coherent):
        integral = np.exp(4j * beta * np.imag(field.alpha0 * np.conj(np.exp(1j * wt) - 1.0)))
    elif isinstance(field, Thermal):
        integral = np.exp(-field.nbar * x).astype(complex)
    else:
        raise TypeError(f"unsupported field class: {field!r}")
    return np.exp(-0.5 * x) * integral


def gamma(omega_t):
    """The circulating displacement factor exp(i w t) - 1."""
    wt, shape = _check_inputs(0.0, omega_t)
    return _shaped(np.exp(1j * wt) - 1.0, shape)


def modulation_factor(beta, omega_t):
    """Field-independent single-qubit coherence envelope exp(-2 b^2 |gamma|^2)."""
    wt, shape = _check_inputs(beta, omega_t)
    return _shaped(np.exp(-2.0 * beta**2 * _abs2(wt)), shape)


def single_qubit_coherence(q0, field, beta, omega_t):
    """Evolved off-diagonal element of one qubit's reduced density matrix.

    Q_updown(t) = q0 * kappa, kappa = exp(-2 beta^2 |gamma|^2) I, where I,
    the normally-ordered characteristic function of the field at
    -2 beta gamma, is

    * Coherent(a0):  exp(4 i beta Im[a0 gamma*])   (pure phase),
    * Number(N):     L_N(4 beta^2 |gamma|^2)        (real),
    * Thermal(nbar): exp(-4 nbar beta^2 |gamma|^2)  (real Gaussian),
    * Vacuum:        1.

    A density-matrix coherence satisfies |q0| <= 1/2; q0 = 1 is accepted
    and returns kappa itself.  A q0 that is NaN or above 1 in modulus
    raises ``ValueError``.
    """
    if not abs(q0) <= 1.0 + 1e-12:
        raise ValueError(f"|q0| must be <= 1, got {abs(q0)!r}")
    wt, shape = _check_inputs(beta, omega_t, getattr(field, "nbar", 0.0))
    return _shaped(q0 * _kappa(field, beta, wt), shape)


def two_qubit_offdiagonal(bell, field, beta, omega_t):
    """The single nonvanishing off-diagonal element of the evolved pair state.

    In the sigma_x basis (up up, up down, down up, down down) Phi+- and
    Psi+- start with the element +1/2 or -1/2 in one place:

    * Phi+ (corner up-up/down-down):  (1/2) kappa^2,
    * Phi- (middle up-down/down-up):  (1/2) |kappa|^2,
    * Psi+ (corner):                 -(1/2) kappa^2,
    * Psi- (middle):                 -(1/2) |kappa|^2,

    with kappa = ``single_qubit_coherence(1, field, beta, omega_t)`` of the
    (identical) initial fields.
    """
    if not isinstance(bell, BellState):
        raise TypeError(f"unsupported Bell state: {bell!r}")
    wt, shape = _check_inputs(beta, omega_t, getattr(field, "nbar", 0.0))
    k = _kappa(field, beta, wt)
    half = 0.5 if bell in (BellState.PHI_PLUS, BellState.PHI_MINUS) else -0.5
    corner = bell in (BellState.PHI_PLUS, BellState.PSI_PLUS)
    return _shaped(half * (k * k if corner else np.abs(k) ** 2), shape)


def concurrence_closed(bell, field, beta, omega_t):
    """Concurrence of the evolved pair state, C = 2 |off-diagonal element|.

    Identical for all four Bell inputs.  Per field class:

    * Coherent / Vacuum:  exp(-4 beta^2 |gamma|^2), the thermal law at nbar = 0,
    * Number(N):          exp(-4 beta^2 |gamma|^2) L_N(4 beta^2 |gamma|^2)^2,
    * Thermal(nbar):      exp(-4 (1+2 nbar) beta^2 |gamma|^2).
    """
    if not isinstance(bell, BellState):
        raise TypeError(f"unsupported Bell state: {bell!r}")
    nbar = getattr(field, "nbar", 0.0)
    wt, shape = _check_inputs(beta, omega_t, nbar)
    abs2 = _abs2(wt)
    if isinstance(field, Number):
        val = _number_fold(field.n, 4.0 * beta**2 * abs2, 2)
    elif isinstance(field, (Vacuum, Coherent, Thermal)):
        val = np.exp(-4.0 * (1.0 + 2.0 * nbar) * beta**2 * abs2)
    else:
        raise TypeError(f"unsupported field class: {field!r}")
    return _shaped(val, shape)


def concurrence_at_half_period(field, beta):
    """Concurrence at w t = pi, where 4 beta^2 |gamma|^2 peaks at 16 beta^2.

    Coherent: exp(-16 b^2); Number(N): exp(-16 b^2) L_N(16 b^2)^2;
    Thermal(nbar): exp(-16 b^2 (1+2 nbar)).  ``beta`` is a scalar or an
    array; an array gives one value per element in one evaluation (one
    array Laguerre recurrence for a number state).  Coincides bit-for-bit
    with ``concurrence_closed`` at omega_t = pi because |gamma(pi)|^2 == 4.
    """
    # a scalar beta stays a scalar, whose beta**2 has the bits of a float's
    beta = _real_array(beta, "beta")[()]
    return concurrence_closed(BellState.PHI_PLUS, field, beta, math.pi)


def esd_concurrence_closed(beta, nbar, omega_t):
    """Concurrence of the evolved 3/4-Phi+ + 1/8 + 1/8 mixture, thermal fields.

    The diagonals stay at (3/8, 1/8, 1/8, 3/8) while the corner coherence
    follows the Phi+ thermal factor, giving the X-state value

        max(0, (3/4) C - 1/4),   C = exp(-4 (1+2 nbar) beta^2 |gamma|^2),

    the Phi+ concurrence, which vanishes on a finite interval iff
    16 (1+2 nbar) beta^2 >= ln 3.  Validated against the truncated-Fock
    propagator in the test suite.
    """
    c = concurrence_closed(BellState.PHI_PLUS, Thermal(nbar), beta, omega_t)
    return np.maximum(0.0, 0.75 * c - 0.25)


def evolve_spin_coherent(alpha, spin_up, beta, omega_t):
    """Exact evolution of |spin, alpha> in the degenerate regime.

    Returns ``(amplitude, phase)``: the evolved coherent amplitude and the
    accumulated unit-modulus phase factor, for real beta >= 0:

        spin up:   (alpha+beta) e^{-i w t} - beta,
                   e^{-i beta^2 sin w t} e^{ i beta Im[alpha gamma*(t)]},
        spin down: (alpha-beta) e^{-i w t} + beta,
                   e^{-i beta^2 sin w t} e^{ i beta Im[alpha* gamma(t)]}.

    alpha = -beta (spin up) sits at the center of its displacement circle
    and is a fixed point of the amplitude map; alpha = 0 gives the vacuum
    branch amplitude beta gamma*(t) (-beta gamma*(t) for spin down).

    The phases are for the convention in which the subsystem ground energy
    is shifted to zero.  The numerical propagator omits that constant
    (ground energy -beta^2 omega), so its states carry an extra global
    factor exp(i beta^2 w t); relative phases are convention-free.
    """
    wt, shape = _check_inputs(beta, omega_t)
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    g = np.exp(1j * wt) - 1.0
    rot = np.exp(-1j * wt)
    common = np.exp(-1j * beta**2 * np.sin(wt))
    if spin_up:
        amplitude = (alpha + beta) * rot - beta
        phase = common * np.exp(1j * beta * np.imag(alpha * np.conj(g)))
    else:
        amplitude = (alpha - beta) * rot + beta
        phase = common * np.exp(1j * beta * np.imag(np.conj(alpha) * g))
    return _shaped(amplitude, shape), _shaped(phase, shape)
