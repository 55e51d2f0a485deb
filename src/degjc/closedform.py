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
``concurrence_at_half_period`` also takes an array of ``beta``.  A NaN or
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


def _scalar(value):
    return isinstance(value, float) or np.ndim(value) == 0


def _check_inputs(beta, omega_t, nbar=0.0):
    """The closed forms' shared argument check: ``nbar`` and every
    ``beta`` finite and >= 0, every ``omega_t`` finite, and every
    16 (1 + 2 nbar) beta^2, the largest exponent any law forms, finite."""
    if not np.all(np.isfinite(beta) & (np.asarray(beta) >= 0)):
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ValueError(f"thermal occupation must be finite and >= 0, got {nbar!r}")
    b = float(np.max(beta, initial=0.0))  # Python floats: overflow gives inf, no warning
    if not math.isfinite(16.0 * (1.0 + 2.0 * float(nbar)) * (b * b)):
        raise ValueError(f"16 (1 + 2 nbar) beta^2 overflows (beta={beta!r}, nbar={nbar!r})")
    finite = math.isfinite(omega_t) if _scalar(omega_t) else np.all(np.isfinite(omega_t))
    if not finite:
        raise ValueError("omega_t must be finite")


def _number_terms(n, x):
    """``(L_n(x), exp(-x/2) L_n(x))`` for x >= 0.

    The first is inf where |L_n(x)| leaves the float range.  The second
    folds the exponent of L_n(x) = m 2^e into the exponential,
    m exp(e ln 2 - x/2), and stays finite: |L_n(x)| <= e^{x/2}.  m = 0 may
    carry any exponent, so the argument is capped at 1; elsewhere it is
    below ln 2.  The laws square both as products: a scalar ``** 2`` runs
    C ``pow``, which can differ from an array's ``x * x`` in the last bit.
    """
    m, e = laguerre_scaled(n, x)
    with np.errstate(over="ignore"):
        lag = np.ldexp(m, e)
    return lag, m * np.exp(np.minimum(e * _LN2 - 0.5 * x, 1.0))


def _plain_or_folded(plain, folded, env):
    """``plain``, the product of the exponential factor ``env`` and powers
    of L_n(x), where it is finite and both it and ``env`` are normal; else
    ``folded`` unless that is 0.  The plain product overflows with L_n(x);
    a subnormal ``env`` has lost bits even where the product is normal.
    A scalar stays a numpy scalar."""
    lost = (np.abs(plain) < _TINY) | (env < _TINY)
    fold = ~np.isfinite(plain) | (lost & (folded != 0))
    if isinstance(plain, np.generic):
        return type(plain)(folded) if fold else plain
    return np.where(fold, folded, plain)


@dataclass(frozen=True)
class GammaValue:
    """exp(i w t) - 1 together with |gamma|^2 = 2 - 2 cos(w t)."""

    omega_t: object
    gamma: object
    abs2: object


def _abs2(omega_t):
    """|gamma|^2 = 2 - 2 cos(w t) alone; a float for a scalar phase."""
    abs2 = 2.0 - 2.0 * np.cos(omega_t)
    return float(abs2) if _scalar(omega_t) else abs2


def gamma(omega_t):
    """The circulating displacement factor exp(i w t) - 1."""
    _check_inputs(0.0, omega_t)
    g = np.exp(1j * np.asarray(omega_t, dtype=float)) - 1.0
    abs2 = _abs2(omega_t)
    if _scalar(omega_t):
        return GammaValue(float(omega_t), complex(g), abs2)
    return GammaValue(np.asarray(omega_t, dtype=float), g, abs2)


def modulation_factor(beta, omega_t):
    """Field-independent single-qubit coherence envelope exp(-2 b^2 |gamma|^2)."""
    _check_inputs(beta, omega_t)
    return np.exp(-2.0 * beta**2 * _abs2(omega_t))


def characteristic_integral(field, beta, g):
    """Fourier transform of the field's diagonal coherent-state weight.

    Equals the normally-ordered characteristic function at -2 beta gamma:

    * Coherent(a0):  exp(4 i beta Im[a0 gamma*])   (pure phase),
    * Number(N):     L_N(4 beta^2 |gamma|^2)        (real),
    * Thermal(nbar): exp(-4 nbar beta^2 |gamma|^2)  (real Gaussian),
    * Vacuum:        1.

    Raises ``OverflowError`` where L_N leaves the float range.
    """
    _check_inputs(beta, g.omega_t, getattr(field, "nbar", 0.0))
    if isinstance(field, Vacuum):
        if _scalar(g.abs2):
            return 1.0 + 0.0j
        return np.ones_like(g.abs2, dtype=complex)
    if isinstance(field, Coherent):
        return np.exp(4j * beta * np.imag(field.alpha0 * np.conj(g.gamma)))
    if isinstance(field, Number):
        val = laguerre(field.n, 4.0 * beta**2 * g.abs2)
        return complex(val) if _scalar(val) else val.astype(complex)
    if isinstance(field, Thermal):
        val = np.exp(-4.0 * field.nbar * beta**2 * g.abs2)
        return complex(val) if _scalar(val) else val.astype(complex)
    raise TypeError(f"unsupported field class: {field!r}")


def single_qubit_coherence(q0, field, beta, omega_t):
    """Evolved off-diagonal element of one qubit's reduced density matrix.

    Q_updown(t) = q0 * exp(-2 beta^2 |gamma|^2) * characteristic_integral.
    A density-matrix coherence satisfies |q0| <= 1/2; q0 = 1 is accepted and
    returns the bare propagation factor.
    """
    if abs(q0) > 1.0 + 1e-12:
        raise ValueError(f"|q0| must be <= 1, got {abs(q0)!r}")
    _check_inputs(beta, omega_t)
    g = gamma(omega_t)
    env = np.exp(-2.0 * beta**2 * g.abs2)
    if isinstance(field, Number):
        lag, damped = _number_terms(field.n, 4.0 * beta**2 * g.abs2)
        with np.errstate(over="ignore", invalid="ignore"):
            plain = q0 * env * lag.astype(complex)
        return _plain_or_folded(plain, q0 * damped, env)
    return q0 * env * characteristic_integral(field, beta, g)


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
    _check_inputs(beta, omega_t)
    g = gamma(omega_t)
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
    return _plain_or_folded(val, 0.5 * (damped * damped), env) if number else val


def concurrence_closed(bell, field, beta, omega_t):
    """Concurrence of the evolved pair state, C = 2 |off-diagonal element|.

    Identical for all four Bell inputs.  Per field class:

    * Coherent / Vacuum:  exp(-4 beta^2 |gamma|^2),
    * Number(N):          exp(-4 beta^2 |gamma|^2) L_N(4 beta^2 |gamma|^2)^2,
    * Thermal(nbar):      exp(-4 (1+2 nbar) beta^2 |gamma|^2).
    """
    if bell not in BellState:
        raise TypeError(f"unsupported Bell state: {bell!r}")
    _check_inputs(beta, omega_t, getattr(field, "nbar", 0.0))
    abs2 = _abs2(omega_t)
    if isinstance(field, (Vacuum, Coherent)):
        return np.exp(-4.0 * beta**2 * abs2)
    if isinstance(field, Number):
        lag, damped = _number_terms(field.n, 4.0 * beta**2 * abs2)
        env = np.exp(-4.0 * beta**2 * abs2)
        with np.errstate(over="ignore", invalid="ignore"):
            plain = env * (lag * lag)
        return _plain_or_folded(plain, damped * damped, env)
    if isinstance(field, Thermal):
        return np.exp(-4.0 * (1.0 + 2.0 * field.nbar) * beta**2 * abs2)
    raise TypeError(f"unsupported field class: {field!r}")


def concurrence_at_half_period(field, beta):
    """Concurrence at w t = pi, where 4 beta^2 |gamma|^2 peaks at 16 beta^2.

    Coherent: exp(-16 b^2); Number(N): exp(-16 b^2) L_N(16 b^2)^2;
    Thermal(nbar): exp(-16 b^2 (1+2 nbar)).  ``beta`` is a scalar or an
    array; an array gives one value per element in one evaluation (one
    array Laguerre recurrence for a number state).  Coincides bit-for-bit
    with ``concurrence_closed`` at omega_t = pi because |gamma(pi)|^2 == 4.
    """
    if not _scalar(beta):
        beta = np.asarray(beta, dtype=float)
    return concurrence_closed(BellState.PHI_PLUS, field, beta, math.pi)


def esd_concurrence_closed(beta, nbar, omega_t):
    """Concurrence of the evolved 3/4-Phi+ + 1/8 + 1/8 mixture, thermal fields.

    The diagonals stay at (3/8, 1/8, 1/8, 3/8) while the corner coherence
    follows the Phi+ thermal factor, giving the X-state value

        max(0, (3/4) exp(-4 (1+2 nbar) beta^2 |gamma|^2) - 1/4),

    which vanishes on a finite interval iff 16 (1+2 nbar) beta^2 >= ln 3.
    Validated against the truncated-Fock propagator in the test suite.
    """
    _check_inputs(beta, omega_t, nbar)
    val = 0.75 * np.exp(-4.0 * (1.0 + 2.0 * nbar) * beta**2 * _abs2(omega_t)) - 0.25
    return np.maximum(0.0, val)


def evolved_vacuum_state_amplitude(beta, omega_t):
    """Coherent amplitude beta * gamma*(t) of the vacuum-field evolved branches.

    The Phi+ x vacuum x vacuum initial state evolves into
    (|up up, b(t), b(t)> + |down down, -b(t), -b(t)>)/sqrt(2) with
    b(t) = beta (exp(-i w t) - 1).
    """
    _check_inputs(beta, omega_t)
    return beta * np.conj(gamma(omega_t).gamma)


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
    _check_inputs(beta, omega_t)
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    g = gamma(omega_t)
    rot = np.exp(-1j * np.asarray(omega_t, dtype=float))
    common = np.exp(-1j * beta**2 * np.sin(omega_t))
    if spin_up:
        amplitude = (alpha + beta) * rot - beta
        phase = common * np.exp(1j * beta * np.imag(alpha * np.conj(g.gamma)))
    else:
        amplitude = (alpha - beta) * rot + beta
        phase = common * np.exp(1j * beta * np.imag(np.conj(alpha) * g.gamma))
    if _scalar(omega_t):
        return complex(amplitude), complex(phase)
    return amplitude, phase
