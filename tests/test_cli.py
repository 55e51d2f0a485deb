"""CLI scenarios: output format, determinism, config handling, exit codes."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
import typing
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degjc import __version__, cli, csvcells, oracle, specialfn, validation
from degjc.cli import (
    ConfigError,
    ScenarioConfig,
    main,
    parse_bell,
    parse_field,
)
from degjc.entanglement import negativity
from degjc.model import BellState, Coherent, FieldSpec, Number, Thermal, Vacuum

PI = math.pi


def read_csv(path):
    meta, names, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            if "=" in line:
                key, _, val = line[2:].partition("=")
                meta[key] = val
            continue
        if names is None:
            names = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, names, rows


class TestParsing:
    def test_field_specs(self):
        assert parse_field("vacuum") == Vacuum()
        assert parse_field("coherent:alpha=1,0.5") == Coherent(1.0 + 0.5j)
        assert parse_field("coherent:alpha=-2") == Coherent(-2.0 + 0.0j)
        assert parse_field("number:n=25") == Number(25)
        assert parse_field("thermal:nbar=2.5") == Thermal(2.5)

    def test_bad_field_specs(self):
        for bad in ("photon", "coherent:alpha=x", "number:n=1.5", "thermal:n=2"):
            with pytest.raises(ConfigError):
                parse_field(bad)

    def test_bell_specs(self):
        assert parse_bell("phi+") is BellState.PHI_PLUS
        assert parse_bell("psi-") is BellState.PSI_MINUS
        for bad in ("bell", "esd-mixture"):
            with pytest.raises(ConfigError):
                parse_bell(bad)

    def test_scenario_config_invariants(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="envelope", steps=1)
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="envelope", omega_t_max=0.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="validate", tolerance=0.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="nope")

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan])
    def test_tolerance_must_be_finite(self, tolerance):
        with pytest.raises(ConfigError, match="tolerance"):
            ScenarioConfig(scenario="validate", tolerance=tolerance)


class TestEnvelope:
    def test_default_betas_and_minima(self, tmp_path):
        out = tmp_path / "env.csv"
        rc = main(["envelope", "--steps", "257", "--omega-t-max", str(4 * PI), "--out", str(out)])
        assert rc == 0
        meta, names, rows = read_csv(out)
        assert names == ["omega_t", "envelope_beta_0.75", "envelope_beta_0.1"]
        # row at w t = pi (index 64 of 257 on [0, 4 pi])
        row = rows[64]
        assert float(row[0]) == pytest.approx(PI, abs=1e-15)
        assert float(row[1]) == pytest.approx(math.exp(-4.5), abs=1e-15)
        assert float(row[2]) == pytest.approx(math.exp(-0.08), abs=1e-15)
        # full revival rows
        assert float(rows[128][1]) == 1.0
        assert float(rows[0][1]) == 1.0

    def test_single_beta_flag(self, tmp_path):
        out = tmp_path / "env.csv"
        assert main(["envelope", "--beta", "0", "--steps", "16", "--out", str(out)]) == 0
        _, names, rows = read_csv(out)
        assert names == ["omega_t", "envelope_beta_0"]
        assert all(float(r[1]) == 1.0 for r in rows)

    def test_absolute_time_column(self, tmp_path):
        out = tmp_path / "env.csv"
        assert main(["envelope", "--omega", "2.0", "--steps", "9", "--out", str(out)]) == 0
        _, names, rows = read_csv(out)
        assert names[:2] == ["omega_t", "time"]
        assert float(rows[3][1]) == pytest.approx(float(rows[3][0]) / 2.0, rel=1e-15)


class TestOmegaIsTheUnit:
    """--beta and --omega0 are in units of omega, so --omega adds the time
    column and its metadata line and changes nothing else."""

    @pytest.mark.parametrize("argv", [
        ["concurrence-sweep", "--omega0", "0.7", "--compare-oracle", "--beta", "0.1"],
        ["esd", "--compare-oracle", "--beta", "0.1"],
        ["separability", "--omega0", "0.7"],
    ])
    def test_omega_changes_only_the_time_column(self, argv, tmp_path):
        plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
        assert main(argv + ["--steps", "9", "--out", str(plain)]) == 0
        assert main(argv + ["--steps", "9", "--omega", "3", "--out", str(timed)]) == 0
        lines = timed.read_text().splitlines()
        assert "# omega=3" in lines
        body = [line for line in lines if not line.startswith("#")]
        assert body[0].split(",")[1] == "time"
        without_time = [",".join(line.split(",")[:1] + line.split(",")[2:]) for line in body]
        meta = [line for line in lines if line.startswith("#") and line != "# omega=3"]
        assert meta + without_time == plain.read_text().splitlines()


class TestDeterminism:
    def test_envelope_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["envelope", "--steps", "101"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_oracle_sweep_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "concurrence-sweep", "--beta", "0.5", "--field", "number:n=1",
            "--steps", "9", "--omega-t-max", str(2 * PI), "--compare-oracle",
        ]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


    def test_validate_report_without_dstevd(self, tmp_path, monkeypatch):
        # the dense eigh fallback writes the same bytes as LAPACK dstevd
        solvers = []
        solve = specialfn._tridiagonal_eigh

        def spy(*args, **kwargs):
            solved = solve(*args, **kwargs)
            solvers.append(solved[2])
            return solved

        monkeypatch.setattr(specialfn, "_tridiagonal_eigh", spy)  # the Laguerre roots
        monkeypatch.setattr(oracle, "_tridiagonal_eigh", spy)  # the parity chains
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["validate", "--out", str(a)]) == 0
        assert set(solvers) == {"dstevd" if specialfn._lapack_dstevd() else "eigh"}
        solvers.clear()
        monkeypatch.setattr(specialfn, "_lapack_dstevd", lambda: None)
        assert main(["validate", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert set(solvers) == {"eigh"}


class TestParserOnce:
    def test_two_calls_build_one_parser(self, tmp_path, monkeypatch):
        built = []
        real = cli.make_parser

        def spy():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "make_parser", spy)
        cli._parser.cache_clear()
        try:
            a, b = tmp_path / "a.csv", tmp_path / "b.csv"
            args = ["envelope", "--steps", "33"]
            assert main(args + ["--out", str(a)]) == 0
            assert main(args + ["--out", str(b)]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [["envelope", "--steps", "x"], ["nonsense"], []])
    def test_bad_argument_exits_2(self, argv, capsys):
        for _ in range(2):  # the shared parser is unchanged by a failed parse
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "usage: degjc" in capsys.readouterr().err


def test_python_m_degjc_prints_what_main_prints(capsys):
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-m", "degjc", "envelope", "--steps", "3"],
                         capture_output=True, env={**os.environ, "PYTHONPATH": path},
                         check=True, timeout=60)
    assert main(["envelope", "--steps", "3"]) == 0
    assert run.stdout == capsys.readouterr().out.encode()


def test_oracle_scenarios_never_import_numpy_ma(tmp_path):
    # numpy's np.unique imports numpy.ma on its first call, some 8 ms of a
    # fresh interpreter's start; the oracle, the Wootters rank groups and
    # the Laguerre arguments find their distinct values by sorting instead
    script = "\n".join([
        "import sys",
        "from degjc import cli",
        f"out = {str(tmp_path)!r}",
        "assert cli.main(['concurrence-sweep', '--omega0', '0.7', '--beta', '0.3', '--field',",
        "                 'thermal:nbar=1', '--compare-oracle', '--steps', '9',",
        "                 '--out', out + '/sweep.csv']) == 0",
        "assert cli.main(['separability', '--omega0', '0.7', '--field', 'number:n=1',",
        "                 '--steps', '5', '--out', out + '/witness.csv']) == 0",
        "print('numpy.ma' in sys.modules)",
    ])
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


class TestConcurrenceSweep:
    def test_closed_and_oracle_columns(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main([
            "concurrence-sweep", "--beta", "0.5", "--field", "vacuum",
            "--steps", "17", "--omega-t-max", str(2 * PI), "--compare-oracle",
            "--out", str(out),
        ])
        assert rc == 0
        meta, names, rows = read_csv(out)
        assert names == ["omega_t", "concurrence_closed", "concurrence_oracle", "abs_error"]
        assert "ncut" in meta and "tail_mass" in meta and "doubling_error" in meta
        errs = [float(r[3]) for r in rows]
        assert max(errs) <= 1e-7
        # revival at the 2 pi endpoint
        assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-12)
        # minimum of the coherent/vacuum trace at pi is exp(-16 b^2) = exp(-4)
        assert float(rows[8][1]) == pytest.approx(math.exp(-4.0), rel=1e-12)

    def test_number_root_touch(self, tmp_path):
        # N=1, beta=0.5: concurrence touches zero where |gamma|^2 = 1,
        # at w t = pi/3 and 5 pi/3
        out = tmp_path / "c.csv"
        rc = main([
            "concurrence-sweep", "--beta", "0.5", "--field", "number:n=1",
            "--steps", "13", "--omega-t-max", str(2 * PI), "--out", str(out),
        ])
        assert rc == 0
        _, names, rows = read_csv(out)
        vals = {float(r[0]): float(r[1]) for r in rows}
        assert vals[min(vals, key=lambda t: abs(t - PI / 3))] <= 1e-25
        assert vals[min(vals, key=lambda t: abs(t - 5 * PI / 3))] <= 1e-25

    def test_nonzero_splitting_needs_oracle(self, tmp_path):
        rc = main(["concurrence-sweep", "--omega0", "0.2", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        out = tmp_path / "o.csv"
        rc = main([
            "concurrence-sweep", "--omega0", "0.2", "--beta", "0.3", "--steps", "5",
            "--omega-t-max", "3.0", "--compare-oracle", "--out", str(out),
        ])
        assert rc == 0
        _, names, _ = read_csv(out)
        assert "concurrence_closed" not in names
        assert "concurrence_oracle" in names

    def test_oracle_concurrence_at_most_one(self, tmp_path):
        # the Bell input at w t = 0 has concurrence 1, not 1 plus roundoff
        out = tmp_path / "o.csv"
        rc = main(["concurrence-sweep", "--omega0", "0.7", "--compare-oracle", "--beta", "0.1",
                   "--steps", "9", "--out", str(out)])
        assert rc == 0
        _, names, rows = read_csv(out)
        column = [r[names.index("concurrence_oracle")] for r in rows]
        assert column[0] == "1"
        assert all(0.0 <= float(v) <= 1.0 for v in column)


class TestBetaSweep:
    def test_values(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["beta-sweep", "--steps", "5", "--beta", "1.0", "--out", str(out)])
        assert rc == 0
        _, names, rows = read_csv(out)
        assert names == ["beta", "coherent", "number", "thermal"]
        vals = {float(r[0]): [float(v) for v in r[1:]] for r in rows}
        assert vals[0.5][0] == pytest.approx(math.exp(-4.0), rel=1e-12)
        assert vals[0.25][1] == 0.0  # L_1 root at 16 b^2 = 1
        assert vals[0.25][2] == pytest.approx(math.exp(-3.0), rel=1e-12)
        assert vals[0.0] == [1.0, 1.0, 1.0]


    def test_one_half_period_call_per_column(self, tmp_path, monkeypatch):
        betas = []
        original = cli.concurrence_at_half_period

        def spy(field, beta):
            betas.append(np.shape(beta))
            return original(field, beta)

        monkeypatch.setattr(cli, "concurrence_at_half_period", spy)
        out = tmp_path / "b.csv"
        assert main(["beta-sweep", "--steps", "2001", "--out", str(out)]) == 0
        assert betas == [(2001,)] * 3


class TestEsd:
    def test_interval_endpoints_reported(self, tmp_path):
        out = tmp_path / "esd.csv"
        rc = main([
            "esd", "--beta", "0.1", "--field", "thermal:nbar=25",
            "--steps", "65", "--out", str(out),
        ])
        assert rc == 0
        meta, names, rows = read_csv(out)
        first, last = float(meta["esd_first_zero"]), float(meta["esd_last_zero"])
        assert first < PI < last
        # the mixture revives to concurrence 1/2 at the end of the period
        assert float(rows[-1][1]) == pytest.approx(0.5, abs=1e-12)

    def test_no_esd_interval_when_subcritical(self, tmp_path):
        out = tmp_path / "esd.csv"
        rc = main(["esd", "--beta", "0.1", "--field", "thermal:nbar=2", "--out", str(out)])
        assert rc == 0
        meta, _, _ = read_csv(out)
        assert meta["esd_first_zero"] == "none"

    def test_requires_thermal(self, tmp_path):
        assert main(["esd", "--field", "vacuum", "--out", str(tmp_path / "x.csv")]) == 2


class TestSeparability:
    def test_negativity_and_purities(self, tmp_path):
        out = tmp_path / "sep.csv"
        rc = main([
            "separability", "--beta", "0.75", "--field", "vacuum",
            "--steps", "9", "--out", str(out),
        ])
        assert rc == 0
        meta, names, rows = read_csv(out)
        assert names == ["omega_t", "negativity", "qubit_purity", "field_purity"]
        assert float(meta["max_negativity"]) <= 1e-9
        for r in rows:
            assert float(r[2]) == pytest.approx(0.5, abs=1e-10)
        mid = rows[4]  # w t = pi
        assert float(mid[3]) == pytest.approx(0.5 + 0.5 * math.exp(-9.0), abs=1e-10)

    def test_rejects_thermal(self, tmp_path):
        rc = main(["separability", "--field", "thermal:nbar=1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_readme_example_writes_no_negative_zero(self, tmp_path):
        # a PPT point's negativity is +0.0; a -0.0 was once written as "-0"
        out = tmp_path / "sep.csv"
        assert main(["separability", "--beta", "0.75", "--field", "vacuum", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert "-0" not in {cell for r in rows for cell in r}

    def test_strong_coupling_fails_the_doubling_check(self, tmp_path, capsys):
        # number(5) at beta = 3: the rail Grams at ncut 88 and 176 differ by 9.8e-5
        out = tmp_path / "x.csv"
        rc = main(["separability", "--field", "number:n=5", "--beta", "3", "--out", str(out)])
        assert rc == 3
        assert "cutoff-doubling disagreement" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_precedence_flags_over_file_over_defaults(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("beta=0.3\nsteps=11\nfield=number:n=2\n")
        out = tmp_path / "o.csv"
        rc = main([
            "concurrence-sweep", "--config", str(cfgfile), "--beta", "0.6",
            "--out", str(out),
        ])
        assert rc == 0
        meta, _, rows = read_csv(out)
        assert meta["beta"] == "0.59999999999999998"  # flag wins
        assert meta["field"] == "number:n=2"  # file wins over default
        assert len(rows) == 11

    def test_bad_config_key(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("betta=0.3\n")
        assert main(["envelope", "--config", str(cfgfile)]) == 2

    def test_malformed_line(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("beta 0.3\n")
        assert main(["envelope", "--config", str(cfgfile)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["envelope", "--config", str(tmp_path / "absent.cfg")]) == 2


class TestExitCodes:
    def test_bad_field_is_config_error(self, tmp_path):
        assert main(["concurrence-sweep", "--field", "junk"]) == 2

    def test_unwritable_output(self):
        assert main(["envelope", "--steps", "4", "--out", "/nonexistent-dir/x.csv"]) == 2

    def test_unwritable_plot_script(self, tmp_path, capsys):
        # a 254-byte file name fits, the stub's 262-byte name does not
        out = tmp_path / ("a" * 250 + ".csv")
        assert main(["envelope", "--steps", "3", "--plot-script", "--out", str(out)]) == 2
        assert f"cannot write output file {str(out) + '.plot.py'!r}" in capsys.readouterr().err
        assert out.exists()

    def test_truncation_failure_surfaces(self, tmp_path):
        rc = main([
            "concurrence-sweep", "--beta", "0.1", "--field", "coherent:alpha=3",
            "--ncut", "2", "--steps", "5", "--compare-oracle",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 3

    def test_envelope_rejects_nonzero_splitting(self, tmp_path):
        assert main(["envelope", "--omega0", "0.5", "--out", str(tmp_path / "x.csv")]) == 2

    def test_validate_rejects_nonzero_splitting(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["validate", "--omega0", "0.7", "--out", str(out)]) == 2
        assert "omega0 == 0" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_needs_three_steps(self, tmp_path, capsys):
        # two steps are the revival phases 0 and 2 pi alone, so no sudden death shows
        out = tmp_path / "x.csv"
        assert main(["validate", "--steps", "2", "--out", str(out)]) == 2
        assert "--steps >= 3" in capsys.readouterr().err
        assert not out.exists()
        assert main(["validate", "--steps", "3", "--out", str(out)]) == 0

    @pytest.mark.parametrize("flags", [
        ["--bell", "psi-"], ["--omega-t-max", "1"], ["--compare-oracle"], ["--plot-script"],
    ])
    def test_validate_rejects_flags_it_does_not_use(self, tmp_path, capsys, monkeypatch, flags):
        def unreached(*args):
            raise AssertionError("checks ran")

        monkeypatch.setattr(cli, "validation_rows", unreached)
        out = tmp_path / "x.csv"
        assert main(["validate", "--out", str(out)] + flags) == 2
        assert f"does not take {flags[0]}" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "x.csv.plot.py").exists()

    def test_validate_records_the_flags_it_uses(self, tmp_path, monkeypatch):
        seen = []

        def rows(*args):
            seen.append(args)
            return [validation.CheckRow("stub", 0.0, 1.0)]

        monkeypatch.setattr(cli, "validation_rows", rows)
        out = tmp_path / "x.csv"
        argv = ["validate", "--field", "thermal:nbar=2", "--beta", "0.3", "--steps", "9",
                "--ncut", "70", "--out", str(out)]
        assert main(argv) == 0
        assert seen == [(Thermal(2.0), 0.3, 9, 70, 1e-7)]
        meta, _, _ = read_csv(out)
        assert (meta["field"], meta["beta"], meta["steps"], meta["ncut"]) == (
            "thermal:nbar=2", "0.29999999999999999", "9", "70")
        assert main(["validate", "--beta", "0.3", "--out", str(out)]) == 0
        meta, _, _ = read_csv(out)
        assert meta["beta"] == "0.29999999999999999"
        assert not {"field", "steps", "ncut"} & set(meta)

    @pytest.mark.parametrize(
        "argv",
        [
            ["envelope", "--beta", "nan"],
            ["esd", "--beta", "nan"],
            ["envelope", "--omega-t-max", "inf"],
            ["concurrence-sweep", "--beta", "nan"],
            ["concurrence-sweep", "--omega0", "nan", "--compare-oracle"],
            ["concurrence-sweep", "--omega", "inf"],
            # finite inputs whose exponent 16 (1 + 2 nbar) beta^2 overflows
            ["envelope", "--beta", "1e154"],
            ["esd", "--field", "thermal:nbar=1e308"],
            ["concurrence-sweep", "--field", "thermal:nbar=1e308"],
            ["envelope", "--beta", "1e200"],
            ["esd", "--beta", "1e200"],
            ["concurrence-sweep", "--beta", "1e200"],
            # a tolerance no cutoff-doubling disagreement can exceed
            ["concurrence-sweep", "--compare-oracle", "--tolerance", "inf"],
            ["esd", "--compare-oracle", "--tolerance", "inf"],
            ["validate", "--tolerance", "inf"],
            ["concurrence-sweep", "--compare-oracle", "--tolerance", "nan"],
        ],
    )
    def test_non_finite_inputs_are_config_errors(self, argv, tmp_path):
        out = tmp_path / "x.csv"
        assert main(argv + ["--steps", "5", "--out", str(out)]) == 2
        assert not out.exists()


# Every scenario/flag pair outside the flag table of ``cli``, written out by hand.
UNREAD = [
    ("envelope", "--omega0"), ("envelope", "--field"), ("envelope", "--bell"),
    ("envelope", "--ncut"), ("envelope", "--compare-oracle"), ("envelope", "--tolerance"),
    ("beta-sweep", "--omega0"), ("beta-sweep", "--omega"), ("beta-sweep", "--bell"),
    ("beta-sweep", "--omega-t-max"), ("beta-sweep", "--ncut"),
    ("beta-sweep", "--compare-oracle"), ("beta-sweep", "--tolerance"),
    ("esd", "--omega0"), ("esd", "--bell"),
    ("separability", "--compare-oracle"), ("separability", "--tolerance"),
    ("validate", "--omega0"), ("validate", "--omega"), ("validate", "--bell"),
    ("validate", "--omega-t-max"), ("validate", "--compare-oracle"), ("validate", "--plot-script"),
]

# A value each of those flags would accept where it is read.
FLAG_VALUES = {
    "--omega0": "0", "--omega": "2", "--field": "thermal:nbar=2", "--bell": "psi-",
    "--omega-t-max": "1", "--ncut": "5", "--tolerance": "1e-7",
}

# A value other than the default for each ScenarioConfig field a scenario may not read.
FIELD_VALUES = {
    "omega0": 0.5, "omega": 2.0, "field": Thermal(2.0), "bell": BellState.PSI_MINUS,
    "omega_t_max": 1.0, "ncut": 5, "compare_oracle": True, "tolerance": 1e-6, "plot_script": True,
}

FLAGS = ["--beta", "--omega0", "--omega", "--field", "--bell", "--omega-t-max", "--steps",
         "--ncut", "--compare-oracle", "--tolerance", "--plot-script"]


def subparser_options(scenario, capsys):
    """The long options of a scenario's ``--help``, without ``--help``."""
    with pytest.raises(SystemExit):
        cli.make_parser().parse_args([scenario, "--help"])
    return set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out)) - {"--help"}


class TestFlagTable:
    """A scenario parses only the flags it reads: any other flag, on the
    command line or as a config key, exits 2 before anything runs."""

    @pytest.fixture
    def nothing_runs(self, monkeypatch):
        def unreached(*args, **kwargs):
            raise AssertionError("a scenario ran")

        for name in cli._RUNNERS:
            monkeypatch.setitem(cli._RUNNERS, name, unreached)
        monkeypatch.setattr(cli, "validation_rows", unreached)
        monkeypatch.setattr(cli, "write_csv", unreached)

    @staticmethod
    def assert_rejected(argv, scenario, flag, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{scenario} does not take {flag}" in err
        if flag == "--omega0":
            assert "omega0 == 0" in err
        assert not out.exists() and not (tmp_path / "x.csv.plot.py").exists()

    @pytest.mark.parametrize("scenario, flag", UNREAD)
    def test_unread_flag_exits_2(self, scenario, flag, tmp_path, capsys, nothing_runs):
        argv = [scenario, flag] + ([FLAG_VALUES[flag]] if flag in FLAG_VALUES else [])
        self.assert_rejected(argv, scenario, flag, tmp_path, capsys)

    @pytest.mark.parametrize("scenario, line, flag", [
        ("envelope", "field=vacuum", "--field"),
        ("beta-sweep", "omega_t_max=1", "--omega-t-max"),
        ("esd", "omega0=0", "--omega0"),
        ("separability", "compare_oracle=false", "--compare-oracle"),
        ("validate", "plot-script=no", "--plot-script"),
    ])
    def test_unread_config_key_exits_2(self, scenario, line, flag, tmp_path, capsys,
                                       nothing_runs):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"steps=5\n{line}\n")
        self.assert_rejected([scenario, "--config", str(cfgfile)], scenario, flag, tmp_path,
                             capsys)

    @pytest.mark.parametrize("scenario, flag", UNREAD)
    def test_unread_config_field_is_rejected(self, scenario, flag):
        name = flag[2:].replace("-", "_")
        with pytest.raises(ConfigError, match=f"{scenario} does not take {flag[2:]}"):
            ScenarioConfig(scenario=scenario, **{name: FIELD_VALUES[name]})

    def test_every_flag_is_read_or_rejected(self, capsys):
        for scenario in cli.SCENARIOS:
            unread = {flag for name, flag in UNREAD if name == scenario}
            options = subparser_options(scenario, capsys)
            assert not unread & options
            assert unread | options == set(FLAGS) | {"--out", "--config"}

    def test_boolean_config_keys(self, tmp_path):
        cfgfile, out = tmp_path / "run.cfg", tmp_path / "o.csv"
        cfgfile.write_text("compare_oracle=true\nplot_script=yes\nsteps=5\n")
        assert main(["concurrence-sweep", "--config", str(cfgfile), "--out", str(out)]) == 0
        _, names, _ = read_csv(out)
        assert names == ["omega_t", "concurrence_closed", "concurrence_oracle", "abs_error"]
        assert "matplotlib" in (tmp_path / "o.csv.plot.py").read_text()
        cfgfile.write_text("compare-oracle=no\nsteps=5\n")
        assert main(["concurrence-sweep", "--config", str(cfgfile), "--out", str(out)]) == 0
        _, names, _ = read_csv(out)
        assert names == ["omega_t", "concurrence_closed"]


def readme_flag_lists():
    """Each scenario's flags in the README's CLI synopsis, and the flags it
    says every scenario also takes."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synopsis = text.split("## CLI", 1)[1].split("```", 2)[1]
    lists, scenario = {}, None
    for line in synopsis.splitlines():
        if line.startswith("degjc "):
            scenario = line.split()[1]
            lists[scenario] = set()
        elif not line.startswith(" "):
            scenario = None
        if scenario:
            lists[scenario] |= set(re.findall(r"--[a-z0-9-]+", line))
    common = re.search(r"every scenario also takes(.*)", synopsis).group(1)
    return lists, set(re.findall(r"--[a-z0-9-]+", common))


def test_readme_flag_lists_match_the_parser(capsys):
    lists, common = readme_flag_lists()
    assert list(lists) == list(cli.SCENARIOS)
    assert common == {"--out", "--config"}
    for scenario, flags in lists.items():
        assert flags | common == subparser_options(scenario, capsys), scenario


class TestInputThatWouldDoNothing:
    """Input that would print inf, fail under a name the user never gave,
    or change no output exits 2 with a message that names its flag."""

    @pytest.mark.parametrize("argv, flags", [
        (["envelope", "--omega", "1e-310", "--steps", "3"], ["--omega"]),
        (["envelope", "--plot-script"], ["--plot-script", "--out"]),
        (["beta-sweep", "--field", "vacuum"], ["--field"]),
        (["beta-sweep", "--field", "coherent:alpha=1"], ["--field"]),
    ])
    def test_exits_2_naming_the_flag(self, argv, flags, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert all(flag in captured.err for flag in flags), captured.err


# Every --bell name the CLI advertises, and one spec of each field kind.
BELL_NAMES = cli._FLAGS["bell"]["help"].split(" | ")
FIELD_KINDS = ("vacuum", "coherent:alpha=1,0.5", "number:n=2", "thermal:nbar=1")


class TestEveryValueRuns:
    """Every --bell name and every field kind runs to exit 0 in at least one
    scenario that reads its flag, and exits 2 in the others (``validate``
    needs three steps)."""

    def test_values_cover_every_bell_state_and_field_class(self):
        assert sorted(BELL_NAMES) == sorted(bell.value for bell in BellState)
        assert {type(parse_field(spec)) for spec in FIELD_KINDS} == set(typing.get_args(FieldSpec))

    @pytest.mark.parametrize("flag, value", [("bell", name) for name in BELL_NAMES]
                             + [("field", spec) for spec in FIELD_KINDS])
    def test_some_reading_scenario_runs_it(self, flag, value, tmp_path, capsys):
        codes = {
            scenario: main([scenario, f"--{flag}", value, "--steps", "2",
                            "--out", str(tmp_path / f"{scenario}.csv")])
            for scenario, reads in cli._READS.items() if flag in reads.split()
        }
        assert len(codes) >= 2
        assert 0 in codes.values(), codes
        assert set(codes.values()) <= {0, 2}, codes


class TestOracleLimits:
    @pytest.mark.parametrize("argv", [
        ["concurrence-sweep", "--field", "coherent:alpha=1e200", "--compare-oracle"],
        ["separability", "--field", "coherent:alpha=1e200"],
        ["concurrence-sweep", "--field", "thermal:nbar=1e300", "--compare-oracle"],
        ["concurrence-sweep", "--beta", "1e100", "--compare-oracle"],
    ])
    def test_unrepresentable_cutoff_exits_3(self, argv, tmp_path, capsys, no_allocation):
        out = tmp_path / "x.csv"
        assert main(argv + ["--steps", "3", "--out", str(out)]) == 3
        assert "truncation/solver error" in capsys.readouterr().err
        assert not out.exists()

    def test_separability_phase_roundoff_exits_2(self, tmp_path, capsys):
        # eps * max|E| * max|w t| = 12.6 at the doubled cutoff 46, far above 1e-8
        out = tmp_path / "x.csv"
        rc = main(["separability", "--beta", "0.75", "--omega0", "0.7", "--omega-t-max", "1e15",
                   "--steps", "3", "--out", str(out)])
        assert rc == 2
        assert "phase roundoff" in capsys.readouterr().err
        assert not out.exists()

    def test_phase_roundoff_exits_2(self, tmp_path, capsys, no_allocation):
        out = tmp_path / "x.csv"
        rc = main(["concurrence-sweep", "--beta", "0.3", "--omega-t-max", "1e9", "--steps", "3",
                   "--compare-oracle", "--out", str(out)])
        assert rc == 2
        assert "phase roundoff" in capsys.readouterr().err
        assert not out.exists()


class TestOverflowFreeSweeps:
    def test_number_sweep_beyond_float_range(self, tmp_path):
        out = tmp_path / "x.csv"
        rc = main(["concurrence-sweep", "--field", "number:n=200", "--beta", "10",
                   "--out", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        vals = [float(r[1]) for r in rows]
        assert len(vals) == 257
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_number_beta_sweep_beyond_float_range(self, tmp_path):
        out = tmp_path / "x.csv"
        rc = main(["beta-sweep", "--field", "number:n=200", "--beta", "10",
                   "--out", str(out)])
        assert rc == 0
        _, names, rows = read_csv(out)
        vals = [float(r[names.index("number")]) for r in rows]
        assert all(0.0 <= v <= 1.0 for v in vals)


class TestMemoryBudget:
    """The estimates are in petabytes, so these fail on any machine; the
    allocating stages are replaced, or the peak is traced, so that none is
    ever reached."""

    @pytest.mark.parametrize("argv", [[scenario] for scenario in cli.SCENARIOS]
                             + [["concurrence-sweep", "--compare-oracle"]])
    def test_grid_exits_3_before_allocating(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        tracemalloc.start()
        try:
            rc = main(argv + ["--steps", "1000000000000", "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 3
        assert peak < 1 << 20
        assert "a grid of 1000000000000 steps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, steps", [
        (["envelope", "--omega", "2.5"], 10001),
        (["concurrence-sweep", "--field", "number:n=1000", "--omega", "2.5"], 10001),
        (["concurrence-sweep", "--compare-oracle", "--beta", "0.02"], 10001),
        (["concurrence-sweep", "--compare-oracle", "--beta", "0.02", "--omega0", "0.7"], 10001),
        (["beta-sweep", "--field", "number:n=1000"], 10001),
        (["esd", "--compare-oracle", "--omega", "2.5"], 10001),
        (["separability", "--beta", "0.02", "--ncut", "3"], 10001),
        (["separability", "--omega0", "0.7", "--beta", "0.02", "--ncut", "3"], 10001),
        # validate's fixed 27 MB hides its grid below about 100000 steps
        pytest.param(["validate", "--field", "vacuum", "--beta", "0.02"], 100001,
                     marks=pytest.mark.slow),
    ], ids=["envelope", "sweep-number1000", "sweep-oracle", "sweep-oracle-omega0", "beta-sweep",
            "esd-oracle", "separability", "separability-omega0", "validate"])
    def test_peak_per_step_within_the_grid_guard(self, argv, steps, tmp_path, capsys):
        peaks = []
        for n in (steps, 2 * steps):
            tracemalloc.start()
            try:
                rc = main(argv + ["--steps", str(n), "--out", str(tmp_path / "x.csv")])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert rc == 0, capsys.readouterr().err
            peaks.append(peak)
        assert peaks[1] - peaks[0] <= cli._STEP_BYTES * steps
        assert peaks[1] <= cli._STEP_BYTES * 2 * steps

    def test_oracle_sweep_exits_3(self, tmp_path, capsys, no_allocation):
        rc = main(["concurrence-sweep", "--field", "thermal:nbar=1e6", "--compare-oracle",
                   "--steps", "5", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "physical memory" in capsys.readouterr().err

    def test_separability_exits_3(self, tmp_path, capsys, no_allocation):
        rc = main(["separability", "--omega0", "0.7", "--ncut", "1000000000",
                   "--steps", "3", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "physical memory" in capsys.readouterr().err

    def test_address_space_limit_exits_3_before_the_eigensolve(self, tmp_path):
        # a child process limits its own address space to its size plus
        # 1 GiB; the run at ncut 4000 (doubled 8000, about 6.2 GiB) fits in
        # physical memory but not in that limit, and must exit 3 without
        # reaching the eigensolve, which would exit 97
        script = "\n".join([
            "import resource, sys",
            "from degjc import cli, oracle",
            "oracle.build_hamiltonian = lambda *args: sys.exit(97)",
            "with open('/proc/self/statm') as statm:",
            "    size = int(statm.read().split()[0]) * resource.getpagesize()",
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)",
            "resource.setrlimit(resource.RLIMIT_AS, (size + 2**30, hard))",
            "sys.exit(cli.main(sys.argv[1:]))",
        ])
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1"}
        out = tmp_path / "x.csv"
        run = subprocess.run(
            [sys.executable, "-c", script, "concurrence-sweep", "--omega0", "0.5", "--beta", "0.1",
             "--field", "number:n=1", "--compare-oracle", "--ncut", "4000", "--steps", "3",
             "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 3, run.stderr
        assert "oracle run at ncut=4000" in run.stderr
        assert "address space left under RLIMIT_AS" in run.stderr
        assert len(run.stderr.splitlines()) == 1
        assert not out.exists()

    def test_escaping_memory_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # an allocation failure the estimates did not foresee is one line
        # and exit 3, not a traceback and exit 1
        def fail(*args):
            raise MemoryError("Unable to allocate 6.71 GiB for an array")

        monkeypatch.setattr(oracle, "build_hamiltonian", fail)
        rc = main(["concurrence-sweep", "--omega0", "0.5", "--field", "number:n=1",
                   "--compare-oracle", "--steps", "3", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == "out of memory: Unable to allocate 6.71 GiB for an array\n"
        assert not (tmp_path / "x.csv").exists()


class TestWitnessStaysLocal:
    """No scenario builds the dense F^2 x F^2 field-field matrix: every
    negativity is of a matrix of at most 16 x 16."""

    @pytest.fixture
    def dims(self, monkeypatch):
        seen = []

        def spy(rho, dims):
            # one entry per matrix of a stack (..., d, d)
            seen.extend([dims[0] * dims[1]] * math.prod(np.shape(rho)[:-2]))
            return negativity(rho, dims)

        monkeypatch.setattr(oracle, "negativity", spy)
        monkeypatch.setattr(validation, "negativity", spy)
        return seen

    def test_separability(self, tmp_path, dims):
        for omega0 in ("0", "0.7"):
            rc = main(["separability", "--omega0", omega0, "--field", "number:n=5",
                       "--steps", "5", "--out", str(tmp_path / "x.csv")])
            assert rc == 0
        assert len(dims) == 10 and max(dims) <= 16

    def test_validate(self, tmp_path, dims):
        rc = main(["validate", "--field", "vacuum", "--beta", "0.1", "--steps", "5",
                   "--out", str(tmp_path / "v.csv")])
        assert rc == 0
        # 4 configs x 9 points, plus the Bell-state control
        assert len(dims) == 37 and max(dims) <= 16


class TestMetadata:
    def test_header_lines(self, tmp_path):
        out = tmp_path / "o.csv"
        main(["envelope", "--steps", "4", "--out", str(out)])
        text = out.read_text()
        assert text.startswith("# degjc 0.1.0\n")
        assert "# scenario=envelope" in text
        assert "# truncation_policy=" not in text

    @pytest.mark.parametrize("argv, checked", [
        (["envelope"], False),
        (["concurrence-sweep"], False),
        (["concurrence-sweep", "--compare-oracle"], True),
        (["concurrence-sweep", "--omega0", "0.7", "--compare-oracle"], True),
        (["beta-sweep"], False),
        (["esd"], False),
        (["esd", "--compare-oracle"], True),
        (["separability"], False),
        (["validate", "--field", "vacuum", "--beta", "0.1"], True),
    ])
    def test_doubling_keys_only_where_a_doubling_check_ran(self, argv, checked, tmp_path):
        out = tmp_path / "o.csv"
        assert main(argv + ["--steps", "5", "--out", str(out)]) == 0
        keys = {line[2:].partition("=")[0] for line in out.read_text().splitlines()
                if line.startswith("# ") and "=" in line}
        # ``checked``: a doubling check at --tolerance ran; the witness of
        # separability runs its own at the library tolerance and reads no --tolerance
        doubled = checked or argv[0] == "separability"
        assert ("tolerance" in keys) == checked, keys
        assert ("truncation_policy" in keys) == doubled, keys
        assert ("doubling_error" in keys) == (doubled and argv[0] != "validate")

    def test_plot_script_stub(self, tmp_path):
        out = tmp_path / "o.csv"
        main(["envelope", "--steps", "4", "--out", str(out), "--plot-script"])
        stub = tmp_path / "o.csv.plot.py"
        assert stub.exists()
        assert "matplotlib" in stub.read_text()


def _fmt_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _per_cell_csv(metadata, columns):
    """The CSV bytes built one cell at a time by numpy-scalar indexing, the
    way earlier versions of ``write_csv`` built them."""
    lines = [f"# degjc {__version__}"]
    lines += [f"# {key}={_fmt_cell(metadata[key])}" for key in sorted(metadata)]
    arrays = [np.asarray(a) for _, a in columns]
    lines.append(",".join(name for name, _ in columns))
    for i in range(len(arrays[0])):
        lines.append(",".join(_fmt_cell(a[i]) for a in arrays))
    return ("\n".join(lines) + "\n").encode()


def _csv_layouts():
    """Column sets at the edges of the cell-row layout: rows wider than 48
    bytes, no float column, one column, no rows, blocks of _BLOCK_CELLS
    cells and one row either side, and fallback cells next to the newline."""
    grid = np.linspace(0.0, 4.0 * PI, 7)
    labels = np.array(["", "a" * 47, "b" * 48, "é" * 30, "c" * 60, "d", "e"])
    layouts = {
        "wide-text": [("x", grid), ("label", labels), ("y", -grid)],
        "wide-text-last": [("x", grid), ("label", labels)],
        "text-only": [("label", labels), ("pass", grid > 1.0), ("n", np.arange(7))],
        "one-float": [("x", grid)],
        "zero-rows-float": [("x", np.array([]))],
        "zero-rows-text": [("check", np.array([], dtype=str))],
        "zero-rows-wide": [("check", np.array([], dtype=str)), ("x", np.array([]))],
        "fallback-last": [("x", grid),
                          ("v", np.array([1.0, np.inf, 1e-300, -np.inf, -1e-300, 0.5, 1e300]))],
        "fallback-last-wide": [("label", labels), ("v", np.array([np.inf, 1e-300] * 3 + [1.0]))],
    }
    rng = np.random.default_rng(7)
    for ncol in (1, 3):
        block = csvcells._BLOCK_CELLS // ncol
        for rows in (block - 1, block, block + 1, 2 * block):
            floats = [(f"c{j}", rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20, rows))
                      for j in range(ncol)]
            layouts[f"block-{ncol}x{rows}"] = floats
            names = np.array([f"r{i}" for i in range(rows)])
            layouts[f"block-text-{ncol}x{rows}"] = floats[:-1] + [("t", names)]
    return layouts


class TestCsvWriter:
    """``write_csv`` prints float cells from numpy a block at a time; its
    bytes equal the per-cell reference and ``'%.17g' % v``."""

    META = {"scenario": "test", "beta": 0.1, "steps": 3, "flag": True}

    @staticmethod
    def _written(tmp_path, metadata, columns):
        out = tmp_path / "w.csv"
        data = cli.write_csv(str(out), metadata, columns)
        assert out.read_bytes() == data
        return data

    def test_special_floats(self, tmp_path):
        special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                            2.2250738585072014e-308, 1.7976931348623157e308,
                            -1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 123456789.0])
        grid = np.linspace(0.0, 4.0 * PI, special.size)
        columns = [("x", grid), ("special", special), ("neg", -special[::-1])]
        text = self._written(tmp_path, self.META, columns)
        assert text == _per_cell_csv(self.META, columns)
        cells = [line.split(b",")[1] for line in text.splitlines()[6:12]]
        assert cells == [b"-0", b"0", b"inf", b"-inf", b"nan", b"4.9406564584124654e-324"]

    def test_every_exponent(self, tmp_path):
        rng = np.random.default_rng(5)
        bits = rng.integers(-2**63, 2**63 - 1, size=4000, dtype=np.int64)
        columns = [("a", bits.view(np.float64)), ("b", np.linspace(-1.0, 1.0, bits.size)),
                   ("c", rng.standard_normal(bits.size).astype(np.float32))]
        assert self._written(tmp_path, {}, columns) == _per_cell_csv({}, columns)

    def test_mixed_columns_as_in_the_validate_report(self, tmp_path):
        columns = [
            ("check", np.array(["envelope", "oracle-grid", "separability"])),
            ("max_error", np.array([1.2e-16, 2.0336e-10, -0.0])),
            ("tolerance", np.array([1e-12, 1e-8, 1e-6])),
            ("pass", np.array(["true", "false", "true"])),
            ("passed", np.array([True, False, True])),
            ("count", np.array([3, -1, 2**40])),
            ("label", [Number(5), Vacuum(), 0.25]),
        ]
        assert self._written(tmp_path, self.META, columns) == _per_cell_csv(self.META, columns)

    def test_zero_rows(self, tmp_path):
        columns = [("check", np.array([], dtype=str)), ("max_error", np.array([]))]
        text = self._written(tmp_path, self.META, columns)
        assert text == _per_cell_csv(self.META, columns)
        assert text.endswith(b"\ncheck,max_error\n")

    @staticmethod
    def _edge_values():
        tens = np.array([float(f"1e{p}") for p in range(-323, 309)])
        edges = np.concatenate([
            # every power of ten, in and beyond the fast range, with both neighbours
            tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
            # every power of two
            np.ldexp(1.0, np.arange(-1074, 1024)),
            # exact decimal ties of the 18th digit
            [1000000000000000.25, 1000000000000000.75, 100000000000000.125, 0.5],
            # 17-digit roundings that carry to a power of ten, and a value whose
            # exponent is that of its truncated digits, not of their rounding
            [99999999999999999.0, 9.9999999999999999e-5, 1e-14, 1e98, 9.9999999999999995e-179],
            # the switches to scientific notation at k = -5/-4 and 16/17
            [1e-5, 9.9999999999999991e-6, 0.0001, 0.00012345678901234567, 9999999999999998.0,
             1e16, 12345678901234567.0, 1e17, 123456789012345678.0],
            # zero, subnormals, the largest double and the non-finite values
            [0.0, 5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, np.inf, np.nan],
        ])
        return np.concatenate([edges, -edges])

    def test_edge_table(self, tmp_path):
        # 1e-14 and 1e98 are doubles just below their power of ten
        assert Fraction(1e-14) < Fraction(1, 10**14) and Fraction(1e98) < 10**98
        edges = self._edge_values()
        labels = np.array([f"row{i}" for i in range(edges.size)])
        columns = [("v", edges), ("label", labels), ("w", edges[::-1])]
        text = self._written(tmp_path, {}, columns)
        assert text == _per_cell_csv({}, columns)
        assert [line.split(b",")[0] for line in text.splitlines()[2:]] == [
            b"%.17g" % v for v in edges.tolist()]

    def test_float32_columns(self, tmp_path):
        tens = np.array([np.float32(f"1e{p}") for p in range(-45, 39)], dtype=np.float32)
        edges = np.concatenate([
            tens, np.nextafter(tens, np.float32(0)), np.nextafter(tens, np.float32(np.inf)),
            np.ldexp(np.float32(1), np.arange(-149, 128)).astype(np.float32),
            np.array([0.0, 1.4e-45, 3.4028235e38, 0.1, np.inf, np.nan], dtype=np.float32),
        ])
        columns = [("f32", np.concatenate([edges, -edges]))]
        assert self._written(tmp_path, {}, columns) == _per_cell_csv({}, columns)

    @pytest.mark.parametrize("layout", list(_csv_layouts()))
    def test_row_layout(self, tmp_path, layout):
        columns = _csv_layouts()[layout]
        assert self._written(tmp_path, self.META, columns) == _per_cell_csv(self.META, columns)


class TestCsvFastPath:
    """The closed-form scenarios print every cell on the numpy path: the
    Python fallback would give the same bytes, only slower."""

    @pytest.fixture
    def fallback_cells(self, monkeypatch):
        seen = []
        exact = csvcells._exact

        def spy(values):
            seen.extend(values)
            return exact(values)

        monkeypatch.setattr(csvcells, "_exact", spy)
        return seen

    def test_sweep_and_envelope_need_no_fallback(self, tmp_path, fallback_cells):
        for argv in (["concurrence-sweep"], ["envelope"]):
            out = tmp_path / f"{argv[0]}.csv"
            assert main(argv + ["--steps", "20001", "--out", str(out)]) == 0
            assert len(out.read_text().splitlines()) > 20001
        assert fallback_cells == []

    def test_the_fallback_prints_what_numpy_cannot_certify(self, tmp_path, fallback_cells):
        values = [np.inf, 1e-300, 1000000000000000.25, 0.0, -0.0, 0.5, 1e-250]
        text = cli.write_csv(str(tmp_path / "f.csv"), {}, [("v", np.array(values))])
        assert text.splitlines()[2:] == [b"%.17g" % v for v in values]
        assert fallback_cells == [np.inf, 1e-300, 1000000000000000.25]


# any text without NUL, commas and multibyte characters included: 24
# characters of up to 4 bytes each run past the 47 bytes of a float cell
_TEXT_CELLS = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\0"),
                      max_size=24)


class TestCsvCells:
    """``csv_rows`` zero-fills every byte a cell does not keep and deletes
    the zeros a block at a time: a NUL in a text cell is refused, and any
    other text and any float bit pattern keep their bytes."""

    @pytest.mark.parametrize("cell", ["\0", "a\0", "\0b", "a,\0\u00e9"])
    def test_a_nul_in_a_text_cell_is_a_value_error(self, cell):
        with pytest.raises(ValueError, match="NUL"):
            csvcells.csv_rows([np.array([1.0, 2.0]), ["x", cell]])

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.data())
    def test_mixed_columns_match_the_per_cell_reference(self, data):
        text_columns = data.draw(st.lists(st.booleans(), min_size=1, max_size=4))
        # a few rows, and one to several blocks of 4096 cells
        rows = data.draw(st.one_of(st.integers(0, 9), st.integers(340, 1400),
                                   st.sampled_from([2731, 4097])))
        columns = []
        for j, is_text in enumerate(text_columns):
            if is_text:
                cells = data.draw(st.lists(_TEXT_CELLS, min_size=1, max_size=8))
                columns.append((f"t{j}", [cells[i % len(cells)] for i in range(rows)]))
            else:
                bits = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
                columns.append((f"f{j}", np.resize(np.array(bits, np.uint64), rows).view(np.float64)))
        reference = _per_cell_csv({}, columns).split(b"\n", 2)[2]
        assert csvcells.csv_rows([column for _, column in columns]) == reference

    @staticmethod
    def _traced(columns):
        tracemalloc.start()
        try:
            text = csvcells.csv_rows(columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return text, peak

    def test_peak_is_the_output_and_a_few_blocks(self):
        grid = np.linspace(0.0, 4.0 * PI, 20001)
        text, peak = self._traced([grid, np.cos(grid) ** 2])
        block = csvcells._BLOCK_CELLS * csvcells._WIDTH
        # While a block is printed, the text so far, less than the output,
        # sits beside the block's working set: the cells and their mask (two
        # 48-byte rows a cell) and thirteen 8-byte arrays a cell, 4.2 blocks
        # (3.6 measured).  The join then holds the parts, the output and the
        # last block's bytes.  Each term has most of a block to spare.
        assert peak <= max(len(text) + 5 * block, 2 * len(text) + 2 * block)

    def test_cells_are_released_before_the_text_is_cut(self, monkeypatch):
        cells = csvcells._float_cells

        def formed(x):
            chars = cells(x)
            tracemalloc.reset_peak()
            return chars

        monkeypatch.setattr(csvcells, "_float_cells", formed)
        grid = np.linspace(0.0, 4.0 * PI, csvcells._BLOCK_CELLS // 2)
        text, peak = self._traced([grid, np.cos(grid) ** 2])
        block = csvcells._BLOCK_CELLS * csvcells._WIDTH
        # From the moment the one block's cells are formed, the peak is the
        # cells, their stacked values and the bytes copied from them: 13/6
        # blocks, and 4 KiB for the Python objects around them.  Cut with
        # the cells still held, the block's text (0.4 block) would come on
        # top.
        assert peak <= 13 * block // 6 + 4096


@pytest.mark.slow
class TestValidate:
    def test_default_grid_passes(self, tmp_path):
        out = tmp_path / "report.csv"
        rc = main(["validate", "--out", str(out)])
        assert rc == 0
        meta, names, rows = read_csv(out)
        assert names == ["check", "max_error", "tolerance", "pass"]
        assert all(r[3] == "true" for r in rows)
        assert meta["checks"] == meta["passed"]

    def test_forced_tolerance_breach_fails(self, tmp_path):
        out = tmp_path / "report.csv"
        rc = main([
            "validate", "--tolerance", "1e-18", "--steps", "8", "--out", str(out),
        ])
        assert rc == 1
        _, _, rows = read_csv(out)
        failed = [r for r in rows if r[3] == "false"]
        assert failed  # harness detects breaches instead of passing silently

    def test_truncation_forced_small(self, tmp_path):
        rc = main([
            "validate", "--ncut", "2", "--field", "coherent:alpha=3",
            "--beta", "0.1", "--out", str(tmp_path / "r.csv"),
        ])
        assert rc == 3
