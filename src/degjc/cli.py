"""Scenario runner: produces the standard dynamics curves and validation reports.

Scenarios
---------
envelope            coherence envelope exp(-2 b^2 |gamma|^2) on a phase grid
concurrence-sweep   concurrence trace for one Bell state + field class
beta-sweep          concurrence at the half period versus coupling
esd                 the 3/4-1/8-1/8 mixture under thermal fields
separability        field-field negativity witness and reduced purities
validate            the acceptance checks of ``degjc.validation``, report + exit code

Each scenario parses only the flags it reads: ``_READS`` names them in the
one flag table ``_FLAGS``, and every scenario also takes ``--out`` and
``--config``.  Any other flag, on the command line or as a ``--config``
key, is a configuration error before anything runs.  Only
concurrence-sweep and separability take ``--omega0``: the closed forms of
the others hold at omega0 = 0.

All time axes are the dimensionless phase w*t, and ``--beta`` and
``--omega0`` are in units of omega; ``--omega`` only adds an absolute-time
column.  Output is deterministic CSV: '#'-prefixed metadata lines
(effective configuration, cutoff, tail mass, version, and the tolerance and
truncation policy where a cutoff-doubling check ran), then a header row,
then ``%.17g``-formatted values.  ``degjc.csvcells`` prints the float
cells from numpy, a block at a time, with exactly the bytes of
``'%.17g' % v``.

Exit codes: 0 success, 1 validation failure (``validate`` only, when a check
breaches its tolerance), 2 bad configuration, 3 truncation, solver or memory failure.
"""

import argparse
import functools
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .closedform import (
    concurrence_at_half_period,
    concurrence_closed,
    esd_concurrence_closed,
    modulation_factor,
)
from .csvcells import csv_rows
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
    TruncationError, _require_memory, concurrence_trace, field_field_witness, truncation)
from .validation import convergence_tol, validation_rows


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
    try:
        return BellState(text.strip())
    except ValueError:
        expected = ", ".join(b.value for b in BellState)
        raise ConfigError(f"bad bell spec {text!r}; expected one of {expected}") from None


@dataclass
class ScenarioConfig:
    """Resolved run configuration; ``None`` means scenario default.  A field
    the scenario does not read (see ``_READS``) must keep its default."""

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
        reads = {"scenario", "out"}
        reads |= {flag.replace("-", "_") for flag in _READS[self.scenario].split()}
        for f in fields(self):
            if f.name not in reads and getattr(self, f.name) != f.default:
                raise ConfigError(f"{self.scenario} does not take {f.name.replace('_', '-')}")
        for name, value in (
            ("beta", self.beta),
            ("omega0", self.omega0),
            ("omega", self.omega),
            ("omega-t-max", self.omega_t_max),
            ("tolerance", self.tolerance),
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
        self.omega0 += 0.0  # -0 is recorded as 0
        if self.omega is not None and not self.omega > 0:
            raise ConfigError(f"omega must be > 0, got {self.omega}")
        if self.ncut is not None and self.ncut < 1:
            raise ConfigError(f"ncut must be >= 1, got {self.ncut}")
        if self.plot_script and self.out is None:
            raise ConfigError("--plot-script needs --out: the stub is written next to the CSV")


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

    A float column is printed by ``csvcells.csv_rows``, a block of cells at
    a time, with the bytes of ``'%.17g' % v`` for every value; any other
    column as the ``_fmt`` string of each value.  Returns the CSV as UTF-8
    bytes, written to ``out`` as they are, or to stdout as text.
    """
    lines = [f"# degjc {__version__}"]
    for key in sorted(metadata):
        lines.append(f"# {key}={_fmt(metadata[key])}")
    lines.append(",".join(name for name, _ in columns))
    cells = []
    for _, column in columns:
        a = np.asarray(column)
        cells.append(a.astype(np.float64, copy=False) if a.dtype.kind == "f"
                     else [_fmt(v) for v in a.tolist()])
    data = ("\n".join(lines) + "\n").encode() + csv_rows(cells)
    if out is None:
        sys.stdout.write(data.decode())
    else:
        _write_bytes(out, data)
    return data


def _write_bytes(path, data):
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path!r}: {exc}") from exc


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


# Metadata of a run checked by cutoff doubling: the oracle columns and validate.
_TRUNCATION_POLICY = "library heuristic cutoff with cutoff-doubling check"


def _base_metadata(cfg, **extra):
    md = {"scenario": cfg.scenario, "omega0": cfg.omega0}
    if cfg.omega is not None:
        md["omega"] = cfg.omega
    md.update(extra)
    return md


# Peak bytes per grid step of any scenario, its CSV included.  Between
# grids of 40001 and 80001 steps tracemalloc reads 146 B a step for the
# closed-form concurrence-sweep, 184 for envelope, 200 for beta-sweep, 264
# to 280 for the oracle columns and esd, and 289 to 313 for separability;
# validate, past its fixed 27 MB, 270 B between 200001 and 400001 steps.
_STEP_BYTES = 4096


def _grid(cfg, default_max, default_steps):
    wt_max = cfg.omega_t_max if cfg.omega_t_max is not None else default_max
    steps = cfg.steps if cfg.steps is not None else default_steps
    if cfg.omega is not None and not math.isfinite(wt_max / cfg.omega):
        raise ConfigError(f"--omega {cfg.omega:g} overflows the time column w t / omega")
    return np.linspace(0.0, wt_max, steps)


def _time_columns(cfg, omega_ts):
    cols = [("omega_t", omega_ts)]
    if cfg.omega is not None:
        cols.append(("time", omega_ts / cfg.omega))
    return cols


def run_envelope(cfg):
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


def _oracle_columns(cfg, params, field, initial, omega_ts, closed):
    trace = concurrence_trace(
        params, field, initial, omega_ts, trunc=truncation(field, params.beta, cfg.ncut),
        convergence_tol=convergence_tol(cfg.tolerance),
    )
    cols = [("concurrence_oracle", trace.values)]
    md = {
        "tolerance": cfg.tolerance,
        "truncation_policy": _TRUNCATION_POLICY,
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
    omega_ts = _grid(cfg, 4.0 * math.pi, 257)
    params = ModelParams(beta, cfg.omega0)
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
        bell=bell.value,
        steps=len(omega_ts),
        omega_t_max=omega_ts[-1],
    )
    if cfg.compare_oracle:
        initial = make_bell(bell, QubitBasis.SIGMA_X)
        ocols, omd = _oracle_columns(cfg, params, field, initial, omega_ts, closed)
        cols.extend(ocols)
        md.update(omd)
    return write_csv(cfg.out, md, cols)


def run_beta_sweep(cfg):
    steps = cfg.steps if cfg.steps is not None else 101
    beta_max = cfg.beta if cfg.beta is not None else 1.0
    if cfg.field is not None and not isinstance(cfg.field, (Number, Thermal)):
        raise ConfigError(f"beta-sweep --field takes number:n=K or thermal:nbar=F, got {cfg.field}")
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
        params = ModelParams(beta, cfg.omega0)
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
    omega_ts = _grid(cfg, 2.0 * math.pi, 17)
    witness = field_field_witness(
        ModelParams(beta, cfg.omega0), field, bell, omega_ts, truncation(field, beta, cfg.ncut))
    cols = _time_columns(cfg, omega_ts) + [
        ("negativity", witness.negativity),
        ("qubit_purity", witness.qubit_purity),
        ("field_purity", witness.field_purity),
    ]
    md = _base_metadata(
        cfg,
        beta=beta,
        field=str(field),
        bell=bell.value,
        steps=len(omega_ts),
        omega_t_max=omega_ts[-1],
        truncation_policy=_TRUNCATION_POLICY,
        ncut=witness.ncut,
        doubling_error=witness.doubling_error,
        max_negativity=float(np.max(witness.negativity)),
    )
    return write_csv(cfg.out, md, cols)


# ---------------------------------------------------------------------------
# validate


def run_validate(cfg):
    rows = validation_rows(cfg.field, cfg.beta, cfg.steps, cfg.ncut, cfg.tolerance)
    ok = all(r.passed for r in rows)
    narrowed = {"field": cfg.field, "beta": cfg.beta, "steps": cfg.steps, "ncut": cfg.ncut}
    md = _base_metadata(cfg, checks=len(rows), passed=sum(r.passed for r in rows),
                        tolerance=cfg.tolerance, truncation_policy=_TRUNCATION_POLICY,
                        **{key: value for key, value in narrowed.items() if value is not None})
    cols = [
        ("check", np.array([r.name for r in rows])),
        ("max_error", np.array([r.max_error for r in rows])),
        ("tolerance", np.array([r.tolerance for r in rows])),
        ("pass", np.array([r.passed for r in rows])),
    ]
    write_csv(cfg.out, md, cols)
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} max_error={r.max_error:.3e} tolerance={r.tolerance:g}",
              file=sys.stderr)
    return ok


# ---------------------------------------------------------------------------
# argument handling: one table of flags, and the flags each scenario reads

_FLAGS = {
    "beta": dict(type=float, help="dimensionless coupling lambda/omega"),
    "omega0": dict(type=float, help="qubit splitting in units of omega"),
    "omega": dict(type=float, help="oscillator frequency; adds a time column"),
    "field": dict(help="vacuum | coherent:alpha=RE[,IM] | number:n=K | thermal:nbar=F"),
    "bell": dict(help="phi+ | phi- | psi+ | psi-"),
    "omega-t-max": dict(type=float, help="end of the phase grid"),
    "steps": dict(type=int, help="number of grid points"),
    "ncut": dict(type=int, help="Fock cutoff override"),
    "compare-oracle": dict(action="store_true", help="add truncated-Fock oracle columns"),
    "tolerance": dict(type=float, help="oracle agreement tolerance"),
    "plot-script": dict(action="store_true", help="also write a matplotlib stub next to the CSV"),
    "out": dict(help="output CSV path (default stdout)"),
}

# Every scenario also reads --out and --config.
_READS = {
    "envelope": "beta omega omega-t-max steps plot-script",
    "concurrence-sweep": "beta omega0 omega field bell omega-t-max steps ncut compare-oracle "
                         "tolerance plot-script",
    "beta-sweep": "beta field steps plot-script",
    "esd": "beta omega field omega-t-max steps ncut compare-oracle tolerance plot-script",
    "separability": "beta omega0 omega field bell omega-t-max steps ncut plot-script",
    "validate": "field beta steps ncut tolerance",
}

SCENARIOS = tuple(_READS)

_RUNNERS = {
    "envelope": run_envelope,
    "concurrence-sweep": run_concurrence_sweep,
    "beta-sweep": run_beta_sweep,
    "esd": run_esd,
    "separability": run_separability,
}


def make_parser():
    """One subparser per scenario, holding only the flags it reads; a flag
    left unset is absent from the parsed namespace."""
    parser = argparse.ArgumentParser(
        prog="degjc",
        description="exact entanglement dynamics of degenerate qubits with local oscillators",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name, reads in _READS.items():
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for flag in reads.split() + ["out"]:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.add_argument("--config", help="key=value file of flags, read before the command line")
    return parser


@functools.cache
def _parser():
    """The parser, built once per process: parsing leaves it unchanged."""
    return make_parser()


def _config_flags(path, scenario):
    """The ``key=value`` lines of a config file as command-line flags.  A
    boolean key is set by 1, true or yes and left unset by any other value,
    unless the scenario does not read it: then its flag is passed on to be
    rejected like any other."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    flags = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, val = key.strip().replace("_", "-"), val.strip()
        if key == "scenario":
            continue
        if key not in _FLAGS:
            raise ConfigError(f"unknown config key {key!r}")
        if _FLAGS[key].get("action") != "store_true":
            flags.append(f"--{key}={val}")
        elif val.lower() in ("1", "true", "yes") or key not in _READS[scenario].split():
            flags.append(f"--{key}")
    return flags


def _parse(argv):
    """The flags given on ``argv``, with those of its ``--config`` file parsed
    ahead of it, so that the command line wins.  A flag the scenario does not
    read is a ConfigError."""
    args, unread = _parser().parse_known_args(argv)
    if "config" in args:
        at = argv.index(args.scenario) + 1
        flags = _config_flags(args.config, args.scenario)
        args, unread = _parser().parse_known_args(argv[:at] + flags + argv[at:])
    if unread:
        names = [arg.partition("=")[0] for arg in unread if arg.startswith("--")] or unread
        why = ("; its closed forms require omega0 == 0 (only concurrence-sweep and "
               "separability take --omega0)") if "--omega0" in names else ""
        raise ConfigError(f"{args.scenario} does not take {', '.join(names)}{why}")
    return args


def build_config(args):
    """The ScenarioConfig of parsed flags; a flag not given takes its default."""
    given = {key: value for key, value in vars(args).items() if key != "config"}
    for key, parse in (("field", parse_field), ("bell", parse_bell)):
        if key in given:
            given[key] = parse(given[key])
    return ScenarioConfig(**given)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = build_config(_parse(argv))
        _require_memory(_STEP_BYTES * (cfg.steps or 0), f"a grid of {cfg.steps} steps")
        if cfg.scenario == "validate":
            ok = run_validate(cfg)
            return 0 if ok else 1
        _RUNNERS[cfg.scenario](cfg)
        if cfg.plot_script:
            _write_bytes(cfg.out + ".plot.py", _PLOT_STUB.format(csv=cfg.out).encode())
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TruncationError as exc:
        print(f"truncation/solver error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # an allocation past what the estimates foresaw
        print(f"out of memory: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
