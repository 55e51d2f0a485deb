"""CLI scenarios: output format, determinism, config handling, exit codes."""

import math

import numpy as np
import pytest

from degjc import __version__, cli, oracle
from degjc.cli import (
    ConfigError,
    ScenarioConfig,
    main,
    parse_bell,
    parse_field,
)
from degjc.entanglement import negativity
from degjc.model import BellState, Coherent, Number, Thermal, Vacuum

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
        assert parse_bell("esd-mixture") == "esd-mixture"
        with pytest.raises(ConfigError):
            parse_bell("bell")

    def test_scenario_config_invariants(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="envelope", steps=1)
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="envelope", omega_t_max=0.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="envelope", tolerance=0.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="nope")


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
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["validate", "--out", str(a)]) == 0
        monkeypatch.setattr(oracle, "_lapack_dstevd", lambda: None)
        assert main(["validate", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


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

    def test_truncation_failure_surfaces(self, tmp_path):
        rc = main([
            "concurrence-sweep", "--beta", "0.1", "--field", "coherent:alpha=3",
            "--ncut", "2", "--steps", "5", "--compare-oracle",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 3

    def test_envelope_rejects_nonzero_splitting(self, tmp_path):
        assert main(["envelope", "--omega0", "0.5", "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["envelope", "--beta", "nan"],
            ["esd", "--beta", "nan"],
            ["envelope", "--omega-t-max", "inf"],
            ["concurrence-sweep", "--beta", "nan"],
            ["concurrence-sweep", "--omega0", "nan", "--compare-oracle"],
            ["concurrence-sweep", "--omega", "inf"],
        ],
    )
    def test_non_finite_inputs_are_config_errors(self, argv, tmp_path):
        out = tmp_path / "x.csv"
        assert main(argv + ["--steps", "5", "--out", str(out)]) == 2
        assert not out.exists()


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
    allocating stages are replaced so that none is ever reached."""

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


class TestWitnessStaysLocal:
    """No scenario builds the dense F^2 x F^2 field-field matrix: the dense
    reference is never called and every negativity is of a matrix of at
    most 16 x 16."""

    @pytest.fixture
    def dims(self, monkeypatch):
        seen = []

        def dense(*args, **kwargs):
            raise AssertionError("dense field-field matrix built on a CLI path")

        def spy(rho, dims):
            seen.append(dims[0] * dims[1])
            return negativity(rho, dims)

        monkeypatch.setattr(oracle, "field_field_reduced", dense)
        monkeypatch.setattr(oracle, "negativity", spy)
        monkeypatch.setattr(cli, "negativity", spy)
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
        assert "# truncation_policy=" in text

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
    """The CSV built one cell at a time by numpy-scalar indexing, the way
    earlier versions of ``write_csv`` built it."""
    lines = [f"# degjc {__version__}"]
    lines += [f"# {key}={_fmt_cell(metadata[key])}" for key in sorted(metadata)]
    arrays = [np.asarray(a) for _, a in columns]
    lines.append(",".join(name for name, _ in columns))
    for i in range(len(arrays[0])):
        lines.append(",".join(_fmt_cell(a[i]) for a in arrays))
    return "\n".join(lines) + "\n"


class TestCsvWriter:
    """``write_csv`` formats whole rows with one template; its bytes equal
    the per-cell reference."""

    META = {"scenario": "test", "beta": 0.1, "steps": 3, "flag": True}

    @staticmethod
    def _written(tmp_path, metadata, columns):
        out = tmp_path / "w.csv"
        text = cli.write_csv(str(out), metadata, columns)
        assert out.read_text() == text
        return text

    def test_special_floats(self, tmp_path):
        special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                            2.2250738585072014e-308, 1.7976931348623157e308,
                            -1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 123456789.0])
        grid = np.linspace(0.0, 4.0 * PI, special.size)
        columns = [("x", grid), ("special", special), ("neg", -special[::-1])]
        text = self._written(tmp_path, self.META, columns)
        assert text == _per_cell_csv(self.META, columns)
        cells = [line.split(",")[1] for line in text.splitlines()[6:12]]
        assert cells == ["-0", "0", "inf", "-inf", "nan", "4.9406564584124654e-324"]

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
        assert text.endswith("\ncheck,max_error\n")


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
