"""Closed-form dynamics of degenerate qubits coupled to local oscillators.

Everything here is an exact function of the dimensionless phase w*t (omega
times time).  The single time-dependent control variable is

    gamma(t) = exp(i w t) - 1,       |gamma|^2 = 2 - 2 cos(w t) in [0, 4],

a circle of radius 1 around -1 in the complex plane.  A qubit coherence
picks up the field-independent envelope exp(-2 beta^2 |gamma|^2) times the
normally-ordered characteristic function of the initial field evaluated at
-2 beta gamma; two-qubit corner coherences carry the doubled exponent
4 beta^2 |gamma|^2 and the characteristic factor squared.

All functions accept scalar or array ``omega_t`` and are pure;
``concurrence_at_half_period`` also takes an array of ``beta``.  Each law
computes on an array of phases and reshapes its result once, so one phase
gives a numpy scalar with the bits of the matching grid element.  A NaN or
infinite ``beta``, ``nbar`` or ``omega_t`` raises ``ValueError``, and so
does a finite pair whose exponent bound 16 (1 + 2 nbar) beta^2 overflows.
Number-state laws, exp(-x/2) L_N(x) and its square with
x = 4 beta^2 |gamma|^2, are bounded by 1 although L_N(x) alone may leave
the float range and exp(-x/2) alone may underflow; there the binary
exponent of the scaled Laguerre recurrence is folded into the exponential.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import BellState, Coherent, Number, Thermal, Vacuum
from .specialfn import laguerre, laguerre_scaled

_LN2 = math.log(2.0)
_TINY = np.finfo(float).tiny


def _check_inputs(beta, omega_t, nbar=0.0):
    """The closed forms' shared argument check: ``nbar`` and every
    ``beta`` finite and >= 0, every ``omega_t`` finite, and every
    16 (1 + 2 nbar) beta^2, the largest exponent any law forms, finite.
    Returns the phases as a float array of at least one dimension and the
    shape of the result, that of ``beta`` and ``omega_t`` broadcast."""
    b = np.asarray(beta)
    hi = float(b.max(initial=0.0))  # a Python float: overflow gives inf, no warning
    if not (b.min(initial=math.inf) >= 0 and math.isfinite(hi)):
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ValueError(f"thermal occupation must be finite and >= 0, got {nbar!r}")
    if not math.isfinite(16.0 * (1.0 + 2.0 * float(nbar)) * (hi * hi)):
        raise ValueError(f"16 (1 + 2 nbar) beta^2 overflows (beta={beta!r}, nbar={nbar!r})")
    wt = np.asarray(omega_t, dtype=float)
    if not np.isfinite(wt).all():
        raise ValueError("omega_t must be finite")
    return np.atleast_1d(wt), np.broadcast(b, wt).shape


def _shaped(value, shape):
    """A law's array result in ``shape``: a numpy scalar for shape ()."""
    return value.reshape(shape)[()]


def _number_terms(n, x):
    """``(L_n(x), exp(-x/2) L_n(x))`` for x >= 0.

    The first is inf where |L_n(x)| leaves the float range.  The second
    folds the exponent of L_n(x) = m 2^e into the exponential,
    m exp(e ln 2 - x/2), and stays finite: |L_n(x)| <= e^{x/2}.  m = 0 may
    carry any exponent, so the argument is capped at 1; elsewhere it is
    below ln 2.
    """
    m, e = laguerre_scaled(n, x)
    with np.errstate(over="ignore"):
        lag = np.ldexp(m, e)
    return lag, m * np.exp(np.minimum(e * _LN2 - 0.5 * x, 1.0))


def _plain_or_folded(plain, folded, env):
    """``plain``, the product of the exponential factor ``env`` and powers
    of L_n(x), where it is finite and both it and ``env`` are normal; else
    ``folded`` unless that is 0.  The plain product overflows with L_n(x);
    a subnormal ``env`` has lost bits even where the product is normal."""
    lost = (np.abs(plain) < _TINY) | (env < _TINY)
    return np.where(~np.isfinite(plain) | (lost & (folded != 0)), folded, plain)


@dataclass(frozen=True)
class GammaValue:
    """exp(i w t) - 1 together with |gamma|^2 = 2 - 2 cos(w t)."""

    omega_t: object
    gamma: object
    abs2: object


def _abs2(wt):
    """|gamma|^2 = 2 - 2 cos(w t) alone."""
    return 2.0 - 2.0 * np.cos(wt)


def gamma(omega_t):
    """The circulating displacement factor exp(i w t) - 1."""
    wt, shape = _check_inputs(0.0, omega_t)
    g = (wt, np.exp(1j * wt) - 1.0, _abs2(wt))
    return GammaValue(*(_shaped(v, shape) for v in g))


def modulation_factor(beta, omega_t):
    """Field-independent single-qubit coherence envelope exp(-2 b^2 |gamma|^2)."""
    wt, shape = _check_inputs(beta, omega_t)
    return _shaped(np.exp(-2.0 * beta**2 * _abs2(wt)), shape)


def characteristic_integral(field, beta, g):
    """Fourier transform of the field's diagonal coherent-state weight.

    Equals the normally-ordered characteristic function at -2 beta gamma:

    * Coherent(a0):  exp(4 i beta Im[a0 gamma*])   (pure phase),
    * Number(N):     L_N(4 beta^2 |gamma|^2)        (real),
    * Thermal(nbar): exp(-4 nbar beta^2 |gamma|^2)  (real Gaussian),
    * Vacuum:        1.

    Raises ``OverflowError`` where L_N leaves the float range.
    """
    _, shape = _check_inputs(beta, g.omega_t, getattr(field, "nbar", 0.0))
    gam, abs2 = np.atleast_1d(g.gamma, g.abs2)
    if isinstance(field, Vacuum):
        val = np.ones(shape, dtype=complex)
    elif isinstance(field, Coherent):
        val = np.exp(4j * beta * np.imag(field.alpha0 * np.conj(gam)))
    elif isinstance(field, Number):
        val = laguerre(field.n, 4.0 * beta**2 * abs2).astype(complex)
    elif isinstance(field, Thermal):
        val = np.exp(-4.0 * field.nbar * beta**2 * abs2).astype(complex)
    else:
        raise TypeError(f"unsupported field class: {field!r}")
    return _shaped(val, shape)


def single_qubit_coherence(q0, field, beta, omega_t):
    """Evolved off-diagonal element of one qubit's reduced density matrix.

    Q_updown(t) = q0 * exp(-2 beta^2 |gamma|^2) * characteristic_integral.
    A density-matrix coherence satisfies |q0| <= 1/2; q0 = 1 is accepted and
    returns the bare propagation factor.
    """
    if abs(q0) > 1.0 + 1e-12:
        raise ValueError(f"|q0| must be <= 1, got {abs(q0)!r}")
    wt, shape = _check_inputs(beta, omega_t)
    g = gamma(wt)
    env = np.exp(-2.0 * beta**2 * g.abs2)
    if isinstance(field, Number):
        lag, damped = _number_terms(field.n, 4.0 * beta**2 * g.abs2)
        with np.errstate(over="ignore", invalid="ignore"):
            plain = q0 * env * lag.astype(complex)
        return _shaped(_plain_or_folded(plain, q0 * damped, env), shape)
    return _shaped(q0 * env * characteristic_integral(field, beta, g), shape)


def two_qubit_offdiagonal(bell, field, beta, omega_t):
    """The single nonvanishing off-diagonal element of the evolved pair state.

    For Phi+ (sigma_x corner up-up/down-down):
        (1/2) exp(-4 beta^2 |gamma|^2) * I^2,
    for Phi- (sigma_x middle up-down/down-up):
        (1/2) exp(-4 beta^2 |gamma|^2) * |I|^2,
    with I the characteristic integral of the (identical) initial fields.
    Psi+- evolve into local-unitary images of Phi+- and are mapped to the
    same values; only the magnitude enters the concurrence.
    """
    if bell not in BellState:
        raise TypeError(f"unsupported Bell state: {bell!r}")
    wt, shape = _check_inputs(beta, omega_t)
    g = gamma(wt)
    env = np.exp(-4.0 * beta**2 * g.abs2)
    number = isinstance(field, Number)
    if number:
        lag, damped = _number_terms(field.n, 4.0 * beta**2 * g.abs2)
        ci = lag.astype(complex)
    else:
        ci = characteristic_integral(field, beta, g)
    with np.errstate(over="ignore", invalid="ignore"):
        if bell in (BellState.PHI_PLUS, BellState.PSI_PLUS):
            val = 0.5 * env * ci * ci
        else:
            val = 0.5 * env * (np.abs(ci) * np.abs(ci))
    return _shaped(_plain_or_folded(val, 0.5 * (damped * damped), env) if number else val, shape)


def concurrence_closed(bell, field, beta, omega_t):
    """Concurrence of the evolved pair state, C = 2 |off-diagonal element|.

    Identical for all four Bell inputs.  Per field class:

    * Coherent / Vacuum:  exp(-4 beta^2 |gamma|^2),
    * Number(N):          exp(-4 beta^2 |gamma|^2) L_N(4 beta^2 |gamma|^2)^2,
    * Thermal(nbar):      exp(-4 (1+2 nbar) beta^2 |gamma|^2).
    """
    if bell not in BellState:
        raise TypeError(f"unsupported Bell state: {bell!r}")
    wt, shape = _check_inputs(beta, omega_t, getattr(field, "nbar", 0.0))
    abs2 = _abs2(wt)
    if isinstance(field, (Vacuum, Coherent)):
        val = np.exp(-4.0 * beta**2 * abs2)
    elif isinstance(field, Number):
        lag, damped = _number_terms(field.n, 4.0 * beta**2 * abs2)
        env = np.exp(-4.0 * beta**2 * abs2)
        with np.errstate(over="ignore", invalid="ignore"):
            plain = env * (lag * lag)
        val = _plain_or_folded(plain, damped * damped, env)
    elif isinstance(field, Thermal):
        val = np.exp(-4.0 * (1.0 + 2.0 * field.nbar) * beta**2 * abs2)
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
    beta = np.asarray(beta, dtype=float)[()]
    return concurrence_closed(BellState.PHI_PLUS, field, beta, math.pi)


def esd_concurrence_closed(beta, nbar, omega_t):
    """Concurrence of the evolved 3/4-Phi+ + 1/8 + 1/8 mixture, thermal fields.

    The diagonals stay at (3/8, 1/8, 1/8, 3/8) while the corner coherence
    follows the Phi+ thermal factor, giving the X-state value

        max(0, (3/4) exp(-4 (1+2 nbar) beta^2 |gamma|^2) - 1/4),

    which vanishes on a finite interval iff 16 (1+2 nbar) beta^2 >= ln 3.
    Validated against the truncated-Fock propagator in the test suite.
    """
    wt, shape = _check_inputs(beta, omega_t, nbar)
    val = 0.75 * np.exp(-4.0 * (1.0 + 2.0 * nbar) * beta**2 * _abs2(wt)) - 0.25
    return _shaped(np.maximum(0.0, val), shape)


def evolved_vacuum_state_amplitude(beta, omega_t):
    """Coherent amplitude beta * gamma*(t) of the vacuum-field evolved branches.

    The Phi+ x vacuum x vacuum initial state evolves into
    (|up up, b(t), b(t)> + |down down, -b(t), -b(t)>)/sqrt(2) with
    b(t) = beta (exp(-i w t) - 1).
    """
    wt, shape = _check_inputs(beta, omega_t)
    return _shaped(beta * np.conj(gamma(wt).gamma), shape)


def evolve_spin_coherent(alpha, spin_up, beta, omega_t):
    """Exact evolution of |spin, alpha> in the degenerate regime.

    Returns ``(amplitude, phase)``: the evolved coherent amplitude and the
    accumulated unit-modulus phase factor, for real beta >= 0:

        spin up:   (alpha+beta) e^{-i w t} - beta,
                   e^{-i beta^2 sin w t} e^{ i beta Im[alpha gamma*(t)]},
        spin down: (alpha-beta) e^{-i w t} + beta,
                   e^{-i beta^2 sin w t} e^{ i beta Im[alpha* gamma(t)]}.

    alpha = -beta (spin up) sits at the center of its displacement circle
    and is a fixed point of the amplitude map.

    The phases are for the convention in which the subsystem ground energy
    is shifted to zero.  The numerical propagator omits that constant
    (ground energy -beta^2 omega), so its states carry an extra global
    factor exp(i beta^2 w t); relative phases are convention-free.
    """
    wt, shape = _check_inputs(beta, omega_t)
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    g = gamma(wt)
    rot = np.exp(-1j * wt)
    common = np.exp(-1j * beta**2 * np.sin(wt))
    if spin_up:
        amplitude = (alpha + beta) * rot - beta
        phase = common * np.exp(1j * beta * np.imag(alpha * np.conj(g.gamma)))
    else:
        amplitude = (alpha - beta) * rot + beta
        phase = common * np.exp(1j * beta * np.imag(np.conj(alpha) * g.gamma))
    return _shaped(amplitude, shape), _shaped(phase, shape)
