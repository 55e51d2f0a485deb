"""The acceptance check program: closed forms against the truncated-Fock oracle.

``validation_rows`` runs every check once and returns one ``CheckRow`` per
check, in report order; ``degjc validate`` writes them as its report and
the acceptance tests read the same rows.  ``convergence_tol`` sets the
cutoff-doubling tolerance of every oracle run the CLI makes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .closedform import (
    _abs2, concurrence_closed, esd_concurrence_closed, evolve_spin_coherent, modulation_factor)
from .entanglement import negativity
from .model import (
    BellState, Coherent, ModelParams, Number, QubitBasis, Thermal, Vacuum, make_bell,
    make_esd_mixture)
from .oracle import (
    TruncationSpec, build_hamiltonian, coherent_fock_vector, concurrence_trace,
    field_field_witness, low_spectrum, propagate_state, truncation)
from .specialfn import laguerre_roots, laguerre_scaled


@dataclass
class CheckRow:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self):
        return self.max_error <= self.tolerance


def _field_label(field):
    """Comma-free field tag for report row names."""
    if isinstance(field, Vacuum):
        return "vacuum"
    if isinstance(field, Coherent):
        return f"coherent{field.alpha0}"
    if isinstance(field, Number):
        return f"number({field.n})"
    return f"thermal({field.nbar:g})"


def convergence_tol(tolerance):
    """The cutoff-doubling tolerance of an oracle run checked at ``tolerance``."""
    return max(tolerance / 10.0, 1e-9)


def validation_rows(field=None, beta=None, steps=None, ncut=None, tolerance=1e-7):
    """Every acceptance check, one ``CheckRow`` each, in report order.

    ``field`` and ``beta`` replace the oracle grid's fields and couplings,
    ``steps`` its number of phases (and caps the 17 of the sudden-death
    grid), ``ncut`` the cutoff of every oracle run; ``tolerance`` is the
    oracle agreement tolerance.  ValueError for ``steps`` below 3: a
    2-point grid holds only the revival phases 0 and 2 pi, where no
    sudden death can show.
    """
    if steps is not None and steps < 3:
        raise ValueError(f"validate needs --steps >= 3, got {steps}: a 2-point grid "
                         "holds only the revival phases 0 and 2 pi")
    rows = []
    rng = np.random.default_rng(20240817)
    conv_tol = convergence_tol(tolerance)

    # Envelope minima and periodicity of all closed forms.
    err = max(
        abs(modulation_factor(0.75, math.pi) - math.exp(-4.5)),
        abs(modulation_factor(0.1, math.pi) - math.exp(-0.08)),
    )
    rows.append(CheckRow("envelope-minima", err, 1e-12))
    wt = np.linspace(0.0, 2.0 * math.pi, 199)
    err = max(
        float(np.max(np.abs(modulation_factor(b, wt + 2.0 * math.pi) - modulation_factor(b, wt))))
        for b in (0.75, 0.1)
    )
    rows.append(CheckRow("envelope-periodicity", err, 1e-12))

    # Closed form against the truncated-Fock oracle.
    fields = [field] if field is not None else [
        Vacuum(), Coherent(1.0 + 0.5j), Number(1), Number(5), Thermal(1.0), Thermal(2.0)]
    betas = [beta] if beta is not None else [0.1, 0.5]
    grid = np.linspace(0.0, 2.0 * math.pi, steps if steps is not None else 64)
    initial = make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X)
    revival_err = 0.0
    for f in fields:
        for b in betas:
            trace = concurrence_trace(
                ModelParams(b), f, initial, grid,
                trunc=truncation(f, b, ncut), convergence_tol=conv_tol,
            )
            closed = concurrence_closed(BellState.PHI_PLUS, f, b, grid)
            err = float(np.max(np.abs(trace.values - closed)))
            rows.append(CheckRow(f"oracle-grid:{_field_label(f)}:beta={b:g}", err, tolerance))
            revival_err = max(revival_err, abs(trace.values[-1] - 1.0))
    rows.append(CheckRow("oracle-revival", revival_err, tolerance))
    err = max(
        float(np.max(np.abs(concurrence_closed(BellState.PHI_PLUS, f, b, 2.0 * math.pi) - 1.0)))
        for f in fields
        for b in betas
    )
    rows.append(CheckRow("closed-revival", err, 1e-12))

    # Propagated spin-coherent branches against the analytic displaced states.
    err = 0.0
    for _ in range(16):
        alpha = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        b = rng.uniform(0.0, 0.8)
        wt_r = rng.uniform(0.0, 2.0 * math.pi)
        spin_up = bool(rng.integers(0, 2))
        err = max(err, analytic_propagation_error(alpha, spin_up, b, wt_r))
    rows.append(CheckRow("analytic-propagation", err, 1e-8))

    # Degenerate spectrum {0, 0, 1, 1, ...} after ground shift.
    target = np.repeat(np.arange(5, dtype=float), 2)
    err = 0.0
    for b in (0.25, 0.5, 1.0):
        prop = build_hamiltonian(ModelParams(b), TruncationSpec(60))
        err = max(err, float(np.max(np.abs(low_spectrum(prop, 10) - target))))
    rows.append(CheckRow("spectrum-degenerate", err, 1e-8))

    # Closed-form invariances on dense grids.
    dense = np.linspace(0.0, 2.0 * math.pi, 1000)
    base = concurrence_closed(BellState.PHI_PLUS, Vacuum(), 0.3, dense)
    err = max(
        float(np.max(np.abs(concurrence_closed(BellState.PHI_PLUS, Coherent(a), 0.3, dense) - base)))
        for a in (0.0, 1.0, 10.0 + 3.0j, 100.0)
    )
    rows.append(CheckRow("alpha0-independence", err, 1e-12))
    traces = [concurrence_closed(bell, Thermal(1.0), 0.4, dense) for bell in BellState]
    err = max(float(np.max(np.abs(t - traces[0]))) for t in traces[1:])
    rows.append(CheckRow("bell-equivalence", err, 1e-12))
    err = 0.0
    for b, nbar in ((0.1, 1.0), (0.3, 2.0), (0.5, 25.0)):
        th = concurrence_closed(BellState.PHI_PLUS, Thermal(nbar), b, dense)
        coh = concurrence_closed(
            BellState.PHI_PLUS, Vacuum(), b * math.sqrt(1.0 + 2.0 * nbar), dense)
        err = max(err, float(np.max(np.abs(th - coh))))
    rows.append(CheckRow("thermal-coupling-identity", err, 1e-12))
    # C_th = exp(-4 (1+2 nbar) b^2 |gamma|^2) is positive for every finite
    # exponent; assert strict float positivity wherever exp is representable.
    bad = 0.0
    for b in (0.1, 0.5, 1.0, 2.0):
        for nbar in (1.0, 5.0, 25.0):
            expo = 4.0 * (1.0 + 2.0 * nbar) * b**2 * _abs2(dense)
            vals = concurrence_closed(BellState.PHI_PLUS, Thermal(nbar), b, dense)
            if not np.all(np.isfinite(expo)) or np.any(vals[expo < 700.0] <= 0.0):
                bad = 1.0
    rows.append(CheckRow("thermal-no-esd", bad, 0.5))

    # ESD dichotomy of the mixed state, oracle-confirmed.
    esd_grid = np.linspace(0.0, 2.0 * math.pi, min(steps, 17) if steps is not None else 17)
    mixture = make_esd_mixture()
    for b, nbar in ((0.1, 25.0), (0.1, 2.0), (0.5, 2.0), (0.25, 1.0)):
        closed = np.asarray(esd_concurrence_closed(b, nbar, esd_grid))
        trace = concurrence_trace(
            ModelParams(b), Thermal(nbar), mixture, esd_grid,
            trunc=truncation(Thermal(nbar), b, ncut), convergence_tol=conv_tol,
        )
        err = float(np.max(np.abs(trace.values - closed)))
        rows.append(CheckRow(f"esd-oracle-agreement:beta={b:g}:nbar={nbar:g}", err, tolerance))
        should_die = 16.0 * (1.0 + 2.0 * nbar) * b**2 >= math.log(3.0)
        died = bool(np.any(trace.values <= tolerance))
        name = f"esd-dichotomy:beta={b:g}:nbar={nbar:g}"
        rows.append(CheckRow(name, float(died != should_die), 0.5))

    # Zero-crossing counts for number-state fields.
    for n in (1, 2, 5, 25):
        for b in (0.1, 0.5):
            counted = concurrence_zero_count(n, b)
            expected = len(laguerre_roots(n, 16.0 * b**2))
            bad = counted != 2 * expected or counted > 2 * n
            rows.append(CheckRow(f"zero-crossings:N={n}:beta={b:g}", float(bad), 0.5))

    # Field-field separability witness and its harness control.
    sep_grid = np.linspace(0.0, 2.0 * math.pi, 9)
    err = max(
        float(np.max(field_field_witness(
            ModelParams(b), f, BellState.PHI_PLUS, sep_grid, truncation(f, b, ncut)).negativity))
        for f in (Vacuum(), Number(1))
        for b in (0.3, 0.75)
    )
    rows.append(CheckRow("field-field-separability", err, 1e-9))
    bell_neg = negativity(make_bell(BellState.PHI_PLUS).rho, (2, 2))
    rows.append(CheckRow("negativity-control", abs(bell_neg - 0.5), 1e-12))

    return rows


def analytic_propagation_error(alpha, spin_up, beta, omega_t):
    """|<analytic|numeric> - 1| for the evolved |spin, alpha> state."""
    trunc = truncation(Coherent(alpha), beta)
    prop = build_hamiltonian(ModelParams(beta), trunc)
    f = prop.fock_dim
    vec0, _ = coherent_fock_vector(alpha, trunc.ncut)
    rail = slice(0, f) if spin_up else slice(f, 2 * f)
    psi0 = np.zeros(prop.dim, dtype=complex)
    psi0[rail] = vec0
    evolved = propagate_state(prop, psi0, omega_t)
    amp, phase = evolve_spin_coherent(alpha, spin_up, beta, omega_t)
    # The propagator omits the constant level shift; its states carry the
    # extra global factor exp(i beta^2 w t) relative to the analytic phases.
    phase *= np.exp(1j * beta**2 * omega_t)
    ref_field, _ = coherent_fock_vector(amp, trunc.ncut)
    ref = np.zeros(prop.dim, dtype=complex)
    ref[rail] = phase * ref_field
    return abs(np.vdot(ref, evolved) - 1.0)


def concurrence_zero_count(n, beta):
    """Zeros of the number-state concurrence in one period, located as roots
    of L_n(4 b^2 |gamma|^2) along the phase axis: the sign changes and zeros
    of the mantissas of :func:`laguerre_scaled`, which have the signs and
    zeros of L_n for every argument, however large |L_n| is."""
    wt = np.linspace(1e-9, 2.0 * math.pi - 1e-9, 8192)
    x = 4.0 * beta**2 * _abs2(wt)
    signs, _ = laguerre_scaled(n, x)
    return int(np.sum(signs[:-1] * signs[1:] < 0.0) + np.sum(signs == 0.0))
