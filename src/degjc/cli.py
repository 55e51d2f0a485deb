"""Scenario runner: produces the standard dynamics curves and validation reports.

Scenarios
---------
envelope            coherence envelope exp(-2 b^2 |gamma|^2) on a phase grid
concurrence-sweep   concurrence trace for one Bell state + field class
beta-sweep          concurrence at the half period versus coupling
esd                 the 3/4-1/8-1/8 mixture under thermal fields
separability        field-field negativity witness and reduced purities
validate            closed-form vs oracle acceptance grid, report + exit code

All time axes are the dimensionless phase w*t; ``--omega`` adds an
absolute-time column.  Output is deterministic CSV: '#'-prefixed metadata
lines (effective configuration, cutoff, tail mass, version), then a header
row, then ``%.17g``-formatted values.

Exit codes: 0 success, 1 validation failure, 2 bad configuration,
3 truncation or solver failure.
"""

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .closedform import (
    concurrence_at_half_period,
    concurrence_closed,
    esd_concurrence_closed,
    evolve_spin_coherent,
    modulation_factor,
)
from .entanglement import negativity
from .model import (
    BellState,
    Coherent,
    ModelParams,
    Number,
    QubitBasis,
    Thermal,
    Vacuum,
    make_bell,
    make_esd_mixture,
)
from .oracle import (
    TruncationError,
    TruncationSpec,
    build_hamiltonian,
    coherent_fock_vector,
    concurrence_trace,
    default_ncut,
    field_field_witness,
    low_spectrum,
    propagate_state,
)
from .specialfn import laguerre, laguerre_roots

SCENARIOS = ("envelope", "concurrence-sweep", "beta-sweep", "esd", "separability", "validate")

ESD_MIXTURE = "esd-mixture"

_BELL_NAMES = {
    "phi+": BellState.PHI_PLUS,
    "phi-": BellState.PHI_MINUS,
    "psi+": BellState.PSI_PLUS,
    "psi-": BellState.PSI_MINUS,
}


class ConfigError(Exception):
    """Invalid flag, config-file entry, or scenario precondition."""


def parse_field(text):
    """Parse vacuum | coherent:alpha=RE[,IM] | number:n=K | thermal:nbar=F."""
    text = text.strip()
    if text == "vacuum":
        return Vacuum()
    try:
        kind, _, arg = text.partition(":")
        key, _, val = arg.partition("=")
        if kind == "coherent" and key == "alpha":
            re_s, _, im_s = val.partition(",")
            return Coherent(complex(float(re_s), float(im_s) if im_s else 0.0))
        if kind == "number" and key == "n":
            return Number(int(val))
        if kind == "thermal" and key == "nbar":
            return Thermal(float(val))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad field spec {text!r}: {exc}") from exc
    raise ConfigError(
        f"bad field spec {text!r}; expected vacuum, coherent:alpha=RE[,IM], "
        f"number:n=K or thermal:nbar=F"
    )


def parse_bell(text):
    text = text.strip()
    if text == ESD_MIXTURE:
        return ESD_MIXTURE
    try:
        return _BELL_NAMES[text]
    except KeyError:
        raise ConfigError(
            f"bad bell spec {text!r}; expected one of {', '.join(_BELL_NAMES)} or {ESD_MIXTURE}"
        ) from None


def _field_label(field):
    """Comma-free field tag for report row names."""
    if isinstance(field, Vacuum):
        return "vacuum"
    if isinstance(field, Coherent):
        return f"coherent{field.alpha0}"
    if isinstance(field, Number):
        return f"number({field.n})"
    return f"thermal({field.nbar:g})"


@dataclass
class ScenarioConfig:
    """Resolved run configuration; ``None`` means scenario default."""

    scenario: str
    beta: Optional[float] = None
    omega0: float = 0.0
    omega: Optional[float] = None
    field: Optional[object] = None
    bell: Optional[object] = None
    omega_t_max: Optional[float] = None
    steps: Optional[int] = None
    ncut: Optional[int] = None
    compare_oracle: bool = False
    tolerance: float = 1e-7
    out: Optional[str] = None
    plot_script: bool = False

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        for name, value in (
            ("beta", self.beta),
            ("omega0", self.omega0),
            ("omega", self.omega),
            ("omega-t-max", self.omega_t_max),
        ):
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.steps is not None and self.steps < 2:
            raise ConfigError(f"steps must be >= 2, got {self.steps}")
        if self.omega_t_max is not None and not self.omega_t_max > 0:
            raise ConfigError(f"omega-t-max must be > 0, got {self.omega_t_max}")
        if not self.tolerance > 0:
            raise ConfigError(f"tolerance must be > 0, got {self.tolerance}")
        if self.beta is not None and self.beta < 0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if self.omega0 < 0:
            raise ConfigError(f"omega0 must be >= 0, got {self.omega0}")
        if self.omega is not None and not self.omega > 0:
            raise ConfigError(f"omega must be > 0, got {self.omega}")
        if self.ncut is not None and self.ncut < 1:
            raise ConfigError(f"ncut must be >= 1, got {self.ncut}")


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(out, metadata, columns):
    """Deterministic CSV: sorted '#' metadata, header, %.17g rows.

    Each column becomes Python objects once; every row is then formatted
    with one template, '%.17g' for a float column and '%s' for the
    ``_fmt`` strings of any other column.
    """
    lines = [f"# degjc {__version__}"]
    for key in sorted(metadata):
        lines.append(f"# {key}={_fmt(metadata[key])}")
    lines.append(",".join(name for name, _ in columns))
    specs, cells = [], []
    for _, column in columns:
        a = np.asarray(column)
        if a.dtype.kind == "f":
            specs.append("%.17g")
            cells.append(a.tolist())
        else:
            specs.append("%s")
            cells.append([_fmt(v) for v in a.tolist()])
    template = ",".join(specs)
    lines.extend(template % row for row in zip(*cells))
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {out!r}: {exc}") from exc
    return text


_PLOT_STUB = """\
#!/usr/bin/env python3
\"\"\"Plot the columns of {csv!r} (generated stub; edit freely).\"\"\"
import matplotlib.pyplot as plt
import numpy as np

rows = [l for l in open({csv!r}) if not l.startswith("#")]
names = rows[0].strip().split(",")
data = np.array([[float(v) for v in r.strip().split(",")] for r in rows[1:]])
for i, name in enumerate(names[1:], start=1):
    plt.plot(data[:, 0], data[:, i], label=name)
plt.xlabel(names[0])
plt.legend()
plt.show()
"""


def _maybe_plot_script(cfg):
    if cfg.plot_script and cfg.out:
        Path(cfg.out + ".plot.py").write_text(_PLOT_STUB.format(csv=cfg.out))


def _base_metadata(cfg, **extra):
    md = {
        "scenario": cfg.scenario,
        "omega0": cfg.omega0,
        "tolerance": cfg.tolerance,
        "truncation_policy": "library heuristic cutoff with cutoff-doubling check",
    }
    if cfg.omega is not None:
        md["omega"] = cfg.omega
    md.update(extra)
    return md


def _grid(cfg, default_max, default_steps):
    wt_max = cfg.omega_t_max if cfg.omega_t_max is not None else default_max
    steps = cfg.steps if cfg.steps is not None else default_steps
    return np.linspace(0.0, wt_max, steps)


def _time_columns(cfg, omega_ts):
    cols = [("omega_t", omega_ts)]
    if cfg.omega is not None:
        cols.append(("time", omega_ts / cfg.omega))
    return cols


def _require_degenerate(cfg):
    if cfg.omega0 != 0.0:
        raise ConfigError(
            f"scenario {cfg.scenario!r} evaluates closed forms, which require "
            f"omega0 == 0 (got {cfg.omega0:g}); nonzero omega0 is supported only "
            f"with --compare-oracle on concurrence-sweep"
        )


def _params(cfg, beta):
    omega = cfg.omega if cfg.omega is not None else 1.0
    return ModelParams(omega=omega, omega0=cfg.omega0 * omega, lam=beta * omega)


def _trunc(cfg, field, beta):
    ncut = cfg.ncut if cfg.ncut is not None else default_ncut(field, beta)
    return TruncationSpec(ncut)


def run_envelope(cfg):
    _require_degenerate(cfg)
    betas = [cfg.beta] if cfg.beta is not None else [0.75, 0.1]
    omega_ts = _grid(cfg, 4.0 * math.pi, 257)
    cols = _time_columns(cfg, omega_ts)
    for b in betas:
        cols.append((f"envelope_beta_{b:g}", modulation_factor(b, omega_ts)))
    md = _base_metadata(
        cfg,
        beta=",".join(f"{b:g}" for b in betas),
        steps=len(omega_ts),
        omega_t_max=omega_ts[-1],
    )
    return write_csv(cfg.out, md, cols)


def _initial_state(bell):
    if bell == ESD_MIXTURE:
        return make_esd_mixture()
    return make_bell(bell, QubitBasis.SIGMA_X)


def _oracle_columns(cfg, params, field, initial, omega_ts, closed):
    trunc = _trunc(cfg, field, params.beta)
    trace = concurrence_trace(
        params, field, initial, omega_ts, trunc=trunc,
        convergence_tol=max(cfg.tolerance / 10.0, 1e-9),
    )
    cols = [("concurrence_oracle", trace.values)]
    md = {
        "ncut": trace.ncut,
        "tail_mass": trace.tail_mass,
        "doubling_error": trace.doubling_error,
    }
    if closed is not None:
        cols.append(("abs_error", np.abs(trace.values - closed)))
        md["max_abs_error"] = float(np.max(np.abs(trace.values - closed)))
    return cols, md


def run_concurrence_sweep(cfg):
    beta = cfg.beta if cfg.beta is not None else 0.5
    field = cfg.field if cfg.field is not None else Vacuum()
    bell = cfg.bell if cfg.bell is not None else BellState.PHI_PLUS
    if bell == ESD_MIXTURE:
        raise ConfigError("use the esd scenario for the mixed initial state")
    omega_ts = _grid(cfg, 4.0 * math.pi, 257)
    params = _params(cfg, beta)
    closed = None
    cols = _time_columns(cfg, omega_ts)
    if params.degenerate:
        closed = concurrence_closed(bell, field, beta, omega_ts)
        cols.append(("concurrence_closed", closed))
    elif not cfg.compare_oracle:
        raise ConfigError(
            "omega0 != 0 has no closed form; pass --compare-oracle to run the "
            "numerical propagator alone"
        )
    md = _base_metadata(
        cfg,
        beta=beta,
        field=str(field),
        bell=bell.value if isinstance(bell, BellState) else bell,
        steps=len(omega_ts),
        omega_t_max=omega_ts[-1],
    )
    if cfg.compare_oracle:
        ocols, omd = _oracle_columns(cfg, params, field, _initial_state(bell), omega_ts, closed)
        cols.extend(ocols)
        md.update(omd)
    return write_csv(cfg.out, md, cols)


def run_beta_sweep(cfg):
    _require_degenerate(cfg)
    steps = cfg.steps if cfg.steps is not None else 101
    beta_max = cfg.beta if cfg.beta is not None else 1.0
    betas = np.linspace(0.0, beta_max, steps)
    number_n = cfg.field.n if isinstance(cfg.field, Number) else 1
    thermal_nbar = cfg.field.nbar if isinstance(cfg.field, Thermal) else 1.0
    cols = [
        ("beta", betas),
        ("coherent", concurrence_at_half_period(Vacuum(), betas)),
        ("number", concurrence_at_half_period(Number(number_n), betas)),
        ("thermal", concurrence_at_half_period(Thermal(thermal_nbar), betas)),
    ]
    md = _base_metadata(
        cfg, beta_max=beta_max, steps=steps, number_n=number_n, thermal_nbar=thermal_nbar
    )
    return write_csv(cfg.out, md, cols)


def run_esd(cfg):
    beta = cfg.beta if cfg.beta is not None else 0.1
    field = cfg.field if cfg.field is not None else Thermal(2.0)
    if not isinstance(field, Thermal):
        raise ConfigError(f"esd scenario requires a thermal field, got {field}")
    _require_degenerate(cfg)
    omega_ts = _grid(cfg, 2.0 * math.pi, 65)
    closed = np.asarray(esd_concurrence_closed(beta, field.nbar, omega_ts))
    cols = _time_columns(cfg, omega_ts) + [("concurrence_closed", closed)]
    zero = np.nonzero(closed == 0.0)[0]
    md = _base_metadata(
        cfg,
        beta=beta,
        field=str(field),
        steps=len(omega_ts),
        omega_t_max=omega_ts[-1],
        esd_threshold_quantity=16.0 * (1.0 + 2.0 * field.nbar) * beta**2,
        esd_threshold=math.log(3.0),
        esd_first_zero=omega_ts[zero[0]] if zero.size else "none",
        esd_last_zero=omega_ts[zero[-1]] if zero.size else "none",
    )
    if cfg.compare_oracle:
        params = _params(cfg, beta)
        ocols, omd = _oracle_columns(cfg, params, field, make_esd_mixture(), omega_ts, closed)
        cols.extend(ocols)
        md.update(omd)
    return write_csv(cfg.out, md, cols)


def run_separability(cfg):
    beta = cfg.beta if cfg.beta is not None else 0.75
    field = cfg.field if cfg.field is not None else Vacuum()
    if isinstance(field, Thermal):
        raise ConfigError("separability witness requires a pure field (vacuum/coherent/number)")
    bell = cfg.bell if cfg.bell is not None else BellState.PHI_PLUS
    if bell == ESD_MIXTURE:
        raise ConfigError("separability witness requires a pure Bell state")
    omega_ts = _grid(cfg, 2.0 * math.pi, 17)
    params = _params(cfg, beta)
    trunc = _trunc(cfg, field, beta)
    prop = build_hamiltonian(params, trunc)
    points = [field_field_witness(prop, bell, field, trunc, wt) for wt in omega_ts]
    negs = np.array([w.negativity for w in points])
    cols = _time_columns(cfg, omega_ts) + [
        ("negativity", negs),
        ("qubit_purity", np.array([w.qubit_purity for w in points])),
        ("field_purity", np.array([w.field_purity for w in points])),
    ]
    md = _base_metadata(
        cfg,
        beta=beta,
        field=str(field),
        bell=bell.value,
        steps=len(omega_ts),
        omega_t_max=omega_ts[-1],
        ncut=trunc.ncut,
        max_negativity=float(np.max(negs)),
    )
    return write_csv(cfg.out, md, cols)


# ---------------------------------------------------------------------------
# validate


@dataclass
class CheckRow:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self):
        return self.max_error <= self.tolerance


def _validate_rows(cfg):
    rows = []
    rng = np.random.default_rng(20240817)
    tol_oracle = cfg.tolerance

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
    fields = (
        [cfg.field]
        if cfg.field is not None
        else [Vacuum(), Coherent(1.0 + 0.5j), Number(1), Number(5), Thermal(1.0), Thermal(2.0)]
    )
    betas = [cfg.beta] if cfg.beta is not None else [0.1, 0.5]
    grid = np.linspace(0.0, 2.0 * math.pi, cfg.steps if cfg.steps is not None else 64)
    initial = make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X)
    revival_err = 0.0
    for field in fields:
        for beta in betas:
            params = ModelParams.from_beta(beta)
            trace = concurrence_trace(
                params,
                field,
                initial,
                grid,
                trunc=_trunc(cfg, field, beta),
                convergence_tol=max(tol_oracle / 10.0, 1e-9),
            )
            closed = concurrence_closed(BellState.PHI_PLUS, field, beta, grid)
            err = float(np.max(np.abs(trace.values - closed)))
            rows.append(CheckRow(f"oracle-grid:{_field_label(field)}:beta={beta:g}", err, tol_oracle))
            revival_err = max(revival_err, abs(trace.values[-1] - 1.0))
    rows.append(CheckRow("oracle-revival", revival_err, tol_oracle))
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
        beta = rng.uniform(0.0, 0.8)
        wt_r = rng.uniform(0.0, 2.0 * math.pi)
        spin_up = bool(rng.integers(0, 2))
        err = max(err, _analytic_propagation_error(alpha, spin_up, beta, wt_r))
    rows.append(CheckRow("analytic-propagation", err, 1e-8))

    # Degenerate spectrum {0, 0, 1, 1, ...} after ground shift.
    target = np.repeat(np.arange(5, dtype=float), 2)
    err = 0.0
    for beta in (0.25, 0.5, 1.0):
        prop = build_hamiltonian(ModelParams.from_beta(beta), TruncationSpec(60))
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
    field = Thermal(1.0)
    traces = [concurrence_closed(b, field, 0.4, dense) for b in BellState]
    err = max(float(np.max(np.abs(t - traces[0]))) for t in traces[1:])
    rows.append(CheckRow("bell-equivalence", err, 1e-12))
    err = 0.0
    for beta, nbar in ((0.1, 1.0), (0.3, 2.0), (0.5, 25.0)):
        th = concurrence_closed(BellState.PHI_PLUS, Thermal(nbar), beta, dense)
        coh = concurrence_closed(
            BellState.PHI_PLUS, Vacuum(), beta * math.sqrt(1.0 + 2.0 * nbar), dense
        )
        err = max(err, float(np.max(np.abs(th - coh))))
    rows.append(CheckRow("thermal-coupling-identity", err, 1e-12))
    # C_th = exp(-4 (1+2 nbar) b^2 |gamma|^2) is positive for every finite
    # exponent; assert strict float positivity wherever exp is representable.
    bad = 0.0
    for beta in (0.1, 0.5, 1.0, 2.0):
        for nbar in (1.0, 5.0, 25.0):
            expo = 4.0 * (1.0 + 2.0 * nbar) * beta**2 * (2.0 - 2.0 * np.cos(dense))
            vals = concurrence_closed(BellState.PHI_PLUS, Thermal(nbar), beta, dense)
            if not np.all(np.isfinite(expo)) or np.any(vals[expo < 700.0] <= 0.0):
                bad = 1.0
    rows.append(CheckRow("thermal-no-esd", bad, 0.5))

    # ESD dichotomy of the mixed state, oracle-confirmed.
    esd_grid = np.linspace(0.0, 2.0 * math.pi, min(cfg.steps, 17) if cfg.steps is not None else 17)
    mixture = make_esd_mixture()
    for beta, nbar in ((0.1, 25.0), (0.1, 2.0), (0.5, 2.0), (0.25, 1.0)):
        closed = np.asarray(esd_concurrence_closed(beta, nbar, esd_grid))
        trace = concurrence_trace(
            ModelParams.from_beta(beta),
            Thermal(nbar),
            mixture,
            esd_grid,
            trunc=_trunc(cfg, Thermal(nbar), beta),
            convergence_tol=max(tol_oracle / 10.0, 1e-9),
        )
        err = float(np.max(np.abs(trace.values - closed)))
        rows.append(CheckRow(f"esd-oracle-agreement:beta={beta:g}:nbar={nbar:g}", err, tol_oracle))
        should_die = 16.0 * (1.0 + 2.0 * nbar) * beta**2 >= math.log(3.0)
        died = bool(np.any(trace.values <= tol_oracle))
        rows.append(
            CheckRow(
                f"esd-dichotomy:beta={beta:g}:nbar={nbar:g}",
                0.0 if died == should_die else 1.0,
                0.5,
            )
        )

    # Zero-crossing counts for number-state fields.
    for n in (1, 2, 5, 25):
        for beta in (0.1, 0.5):
            counted = _count_concurrence_zeros(n, beta)
            expected = len(laguerre_roots(n, 16.0 * beta**2))
            bad = counted != 2 * expected or counted > 2 * n
            rows.append(
                CheckRow(f"zero-crossings:N={n}:beta={beta:g}", 0.0 if not bad else 1.0, 0.5)
            )

    # Field-field separability witness and its harness control.
    sep_grid = np.linspace(0.0, 2.0 * math.pi, 9)
    err = 0.0
    for field in (Vacuum(), Number(1)):
        for beta in (0.3, 0.75):
            trunc = _trunc(cfg, field, beta)
            prop = build_hamiltonian(ModelParams.from_beta(beta), trunc)
            for wt_s in sep_grid:
                witness = field_field_witness(prop, BellState.PHI_PLUS, field, trunc, wt_s)
                err = max(err, witness.negativity)
    rows.append(CheckRow("field-field-separability", err, 1e-9))
    bell_neg = negativity(make_bell(BellState.PHI_PLUS).rho, (2, 2))
    rows.append(CheckRow("negativity-control", abs(bell_neg - 0.5), 1e-12))

    return rows


def _analytic_propagation_error(alpha, spin_up, beta, omega_t):
    """|<analytic|numeric> - 1| for the evolved |spin, alpha> state."""
    params = ModelParams.from_beta(beta)
    trunc = TruncationSpec(default_ncut(Coherent(alpha), beta))
    prop = build_hamiltonian(params, trunc)
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


def _count_concurrence_zeros(n, beta):
    """Zeros of the number-state concurrence in one period, located as roots
    of L_n(4 b^2 |gamma|^2) along the phase axis."""
    wt = np.linspace(1e-9, 2.0 * math.pi - 1e-9, 8192)
    x = 4.0 * beta**2 * (2.0 - 2.0 * np.cos(wt))
    vals = laguerre(n, x)
    return int(np.sum(vals[:-1] * vals[1:] < 0.0) + np.sum(vals == 0.0))


def run_validate(cfg):
    rows = _validate_rows(cfg)
    ok = all(r.passed for r in rows)
    md = _base_metadata(cfg, checks=len(rows), passed=sum(r.passed for r in rows))
    cols = [
        ("check", np.array([r.name for r in rows])),
        ("max_error", np.array([r.max_error for r in rows])),
        ("tolerance", np.array([r.tolerance for r in rows])),
        ("pass", np.array([("true" if r.passed else "false") for r in rows])),
    ]
    write_csv(cfg.out, md, cols)
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} max_error={r.max_error:.3e} tolerance={r.tolerance:g}",
              file=sys.stderr)
    return ok


# ---------------------------------------------------------------------------
# argument handling

_RUNNERS = {
    "envelope": run_envelope,
    "concurrence-sweep": run_concurrence_sweep,
    "beta-sweep": run_beta_sweep,
    "esd": run_esd,
    "separability": run_separability,
}


def _add_common(p):
    p.add_argument("--beta", type=float, default=None, help="dimensionless coupling lambda/omega")
    p.add_argument("--omega0", type=float, default=None, help="qubit splitting in units of omega")
    p.add_argument("--omega", type=float, default=None, help="oscillator frequency; adds a time column")
    p.add_argument("--field", type=str, default=None,
                   help="vacuum | coherent:alpha=RE[,IM] | number:n=K | thermal:nbar=F")
    p.add_argument("--bell", type=str, default=None,
                   help="phi+ | phi- | psi+ | psi- | esd-mixture")
    p.add_argument("--omega-t-max", type=float, default=None, help="end of the phase grid")
    p.add_argument("--steps", type=int, default=None, help="number of grid points")
    p.add_argument("--ncut", type=int, default=None, help="Fock cutoff override")
    p.add_argument("--compare-oracle", action="store_true", default=None,
                   help="add truncated-Fock oracle columns")
    p.add_argument("--tolerance", type=float, default=None, help="oracle agreement tolerance")
    p.add_argument("--out", type=str, default=None, help="output CSV path (default stdout)")
    p.add_argument("--plot-script", action="store_true", default=None,
                   help="also write a matplotlib stub next to the CSV")
    p.add_argument("--config", type=str, default=None, help="key=value config file")


def _read_config_file(path):
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        values[key.strip().replace("-", "_")] = val.strip()
    return values

_CONFIG_PARSERS = {
    "beta": float,
    "omega0": float,
    "omega": float,
    "field": str,
    "bell": str,
    "omega_t_max": float,
    "steps": int,
    "ncut": int,
    "compare_oracle": lambda s: s.lower() in ("1", "true", "yes"),
    "tolerance": float,
    "out": str,
    "plot_script": lambda s: s.lower() in ("1", "true", "yes"),
}


def build_config(args):
    """Merge precedence: flags > config file > defaults."""
    merged = {}
    if args.config:
        raw = _read_config_file(args.config)
        for key, val in raw.items():
            if key == "scenario":
                continue
            if key not in _CONFIG_PARSERS:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                merged[key] = _CONFIG_PARSERS[key](val)
            except ValueError as exc:
                raise ConfigError(f"bad config value {key}={val!r}: {exc}") from exc
    for key in _CONFIG_PARSERS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val
    field = parse_field(merged["field"]) if isinstance(merged.get("field"), str) else merged.get("field")
    bell = parse_bell(merged["bell"]) if isinstance(merged.get("bell"), str) else merged.get("bell")
    return ScenarioConfig(
        scenario=args.scenario,
        beta=merged.get("beta"),
        omega0=merged.get("omega0") or 0.0,
        omega=merged.get("omega"),
        field=field,
        bell=bell,
        omega_t_max=merged.get("omega_t_max"),
        steps=merged.get("steps"),
        ncut=merged.get("ncut"),
        compare_oracle=bool(merged.get("compare_oracle")),
        tolerance=merged.get("tolerance") if merged.get("tolerance") is not None else 1e-7,
        out=merged.get("out"),
        plot_script=bool(merged.get("plot_script")),
    )


def make_parser():
    parser = argparse.ArgumentParser(
        prog="degjc",
        description="exact entanglement dynamics of degenerate qubits with local oscillators",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name)
        _add_common(p)
    return parser


@functools.cache
def _parser():
    """The parser, built once per process: parsing leaves it unchanged."""
    return make_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = build_config(args)
        if cfg.scenario == "validate":
            ok = run_validate(cfg)
            return 0 if ok else 1
        _RUNNERS[cfg.scenario](cfg)
        _maybe_plot_script(cfg)
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TruncationError as exc:
        print(f"truncation/solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
