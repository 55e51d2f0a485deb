"""The operations of each benchmark workload.

A round runs every operation of its workload once, in order; a run repeats
whole rounds.  The configurations are fixed; only the rows the checks
sample depend on the seed.
"""

import contextlib
import io
import math
from dataclasses import dataclass, field
from typing import Callable

import degjc
import degjc.cli

import checks
from checks import Field, OpFailed

FOUR_PI = 4.0 * math.pi
TWO_PI = 2.0 * math.pi
FINE = 20001  # rows of a fine closed-form grid
SAMPLES = 8  # reference rows drawn per column and per draw kind
OMEGA0 = 0.7  # qubit splitting of the detuned workload, in units of omega


@dataclass
class Op:
    name: str
    run: Callable  # (out_dir) -> raw result
    check: Callable  # (raw, rng) -> largest error against a reference, or None


@dataclass
class Workload:
    name: str
    ops: list
    # (label, op names, function of their raw results) checked once a round
    group_checks: list = field(default_factory=list)


def cli_op(name, argv, check, ok_codes=(0,)):
    """One ``degjc <argv> --out <name>.csv`` call, in process.  An exit code
    outside ``ok_codes`` means the operation failed."""

    def run(out_dir):
        path = out_dir / f"{name}.csv"
        with contextlib.redirect_stderr(io.StringIO()):
            code = degjc.cli.main([str(a) for a in argv] + ["--out", str(path)])
        return code, path

    def verify(raw, rng):
        code, path = raw
        if code not in ok_codes:
            raise OpFailed(f"exit code {code}")
        return check(checks.parse_csv(path.read_text()), rng)

    return Op(name, run, verify)


def roots_op(n):
    return Op(
        f"laguerre-roots-{n}",
        lambda out_dir: degjc.laguerre_roots(n),
        lambda roots, rng: checks.check_roots(roots, n),
    )


def _column(raw, name):
    return checks.parse_csv(raw[1].read_text()).column(name)


# ---------------------------------------------------------------------------


def validate():
    return Workload("validate", [
        # Exit code 1 is a validation breach: the report is written and its
        # check reports the wrong output.
        cli_op("validate", ["validate"], lambda csv, rng: checks.check_validate_report(csv),
               ok_codes=(0, 1)),
    ])


def _sweep(name, field, beta, steps=FINE, bell=None):
    argv = ["concurrence-sweep", "--field", field.spec, "--beta", beta, "--steps", steps]
    if bell is not None:
        argv += ["--bell", bell]
    return cli_op(
        name, argv,
        lambda csv, rng: checks.check_concurrence_sweep(csv, field, beta, FOUR_PI, steps, rng, SAMPLES),
    )


def _beta_sweep(name, field_arg, number_n, thermal_nbar, beta_max, steps):
    argv = ["beta-sweep", "--steps", steps]
    if field_arg is not None:
        argv += ["--field", field_arg]
    if beta_max != 1.0:
        argv += ["--beta", beta_max]
    return cli_op(
        name, argv,
        lambda csv, rng: checks.check_beta_sweep(
            csv, number_n, thermal_nbar, beta_max, steps, rng, SAMPLES),
    )


def _esd(name, beta, nbar, steps):
    argv = ["esd", "--beta", beta, "--field", Field("thermal", nbar).spec, "--steps", steps]
    return cli_op(
        name, argv,
        lambda csv, rng: checks.check_esd(csv, beta, nbar, TWO_PI, steps, rng, SAMPLES),
    )


def _envelope(name, betas, extra=()):
    argv = ["envelope", "--steps", FINE, *extra]
    if len(betas) == 1:
        argv += ["--beta", betas[0]]
    return cli_op(
        name, argv,
        lambda csv, rng: checks.check_envelope(csv, betas, FOUR_PI, FINE, rng, SAMPLES),
    )


BELL_FIELD = Field("number", 5)
BELLS = ("phi+", "phi-", "psi+", "psi-")


def _same_closed_columns(raws):
    checks.check_same([_column(r, "concurrence_closed") for r in raws], "Bell equivalence")


def sweeps():
    ops = [
        _envelope("envelope-default", [0.75, 0.1]),
        _envelope("envelope-beta2-time", [2.0], ["--omega", 2.5]),
        _sweep("sweep-vacuum", Field("vacuum"), 0.5),
        _sweep("sweep-coherent", Field("coherent", 3 - 1j), 0.8, bell="psi-"),
        _sweep("sweep-number1", Field("number", 1), 0.5),
        _sweep("sweep-number25", Field("number", 25), 0.5),
        _sweep("sweep-number1000-b0.3", Field("number", 1000), 0.3),
        _sweep("sweep-number1000-b2", Field("number", 1000), 2.0),
        _sweep("sweep-thermal1", Field("thermal", 1.0), 0.5),
        _sweep("sweep-thermal25", Field("thermal", 25.0), 0.1),
    ]
    ops += [_sweep(f"sweep-bell-{b}", BELL_FIELD, 0.4, steps=4001, bell=b)
            for b in BELLS]
    ops += [
        _beta_sweep("beta-sweep-default", None, 1, 1.0, 1.0, 2001),
        _beta_sweep("beta-sweep-number1000", "number:n=1000", 1000, 1.0, 1.0, 2001),
        _beta_sweep("beta-sweep-number25-b3", "number:n=25", 25, 1.0, 3.0, 2001),
        _beta_sweep("beta-sweep-thermal25", "thermal:nbar=25", 1, 25.0, 1.0, 201),
        _esd("esd-default", 0.1, 2.0, 65),
        _esd("esd-thermal25", 0.1, 25.0, FINE),
        _esd("esd-alive", 0.05, 1.0, FINE),
    ]
    ops += [roots_op(n) for n in (10, 25, 50, 100)]
    # The unscaled Laguerre recurrence overflows on these two: the sweep
    # writes NaN rows and the beta sweep raises OverflowError.
    ops += [
        _sweep("sweep-number200-b10", Field("number", 200), 10.0, steps=257),
        _beta_sweep("beta-sweep-number200-b10", "number:n=200", 200, 1.0, 10.0, 101),
    ]
    names = [f"sweep-bell-{b}" for b in BELLS]
    return Workload("sweeps", ops, [("bell-equivalence", names, _same_closed_columns)])


def _oracle(name, field, beta, steps=257, bell=None):
    argv = ["concurrence-sweep", "--omega0", OMEGA0, "--compare-oracle",
            "--field", field.spec, "--beta", beta, "--steps", steps]
    if bell is not None:
        argv += ["--bell", bell]
    return cli_op(name, argv, lambda csv, rng: checks.check_oracle_sweep(csv, FOUR_PI, steps))


def _separability(name, field, beta, steps, stop=TWO_PI, bell="phi+"):
    argv = ["separability", "--omega0", OMEGA0, "--field", field.spec, "--beta", beta,
            "--steps", steps, "--omega-t-max", stop, "--bell", bell]
    return cli_op(
        name, argv,
        lambda csv, rng: checks.check_separability(csv, field, beta, OMEGA0, bell, stop, steps),
    )


def detuned():
    return Workload("detuned", [
        _oracle("oracle-vacuum", Field("vacuum"), 0.5),
        _oracle("oracle-coherent", Field("coherent", 1 + 0.5j), 0.5),
        _oracle("oracle-number5", Field("number", 5), 0.3),
        _oracle("oracle-thermal1", Field("thermal", 1.0), 0.3, bell="psi+"),
        _oracle("oracle-thermal5", Field("thermal", 5.0), 0.3, steps=33),
        _separability("witness-vacuum", Field("vacuum"), 0.75, 5),
        _separability("witness-coherent", Field("coherent", 0.5 + 0.25j), 0.5, 5),
        _separability("witness-number1", Field("number", 1), 0.3, 5, bell="psi-"),
        _separability("witness-number5", Field("number", 5), 0.5, 2, stop=3.0),
    ])


WORKLOADS = {"validate": validate, "detuned": detuned, "sweeps": sweeps}
