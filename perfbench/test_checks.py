"""The benchmark's checks accept correct outputs and refuse wrong ones.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import math

import numpy as np
import pytest

import checks
import run
import speed
import workloads
from checks import Field, OpFailed, WrongOutput
from degjc import cli


def _cli_csv(tmp_path, *argv):
    path = tmp_path / "out.csv"
    assert cli.main([str(a) for a in argv] + ["--out", str(path)]) == 0
    return checks.parse_csv(path.read_text())


def _set(csv, name, rows, fn):
    j = csv.names.index(name)
    for i in rows:
        csv.rows[i][j] = repr(fn(float(csv.rows[i][j])))


@pytest.fixture
def rng():
    return np.random.default_rng(7)


FIELD = Field("number", 5)
STEPS = 401


@pytest.fixture
def sweep(tmp_path):
    return _cli_csv(tmp_path, "concurrence-sweep", "--field", FIELD.spec, "--beta", 0.4,
                    "--steps", STEPS)


def _check_sweep(csv, rng):
    return checks.check_concurrence_sweep(csv, FIELD, 0.4, 4 * math.pi, STEPS, rng, 8)


def test_sweep_accepted(sweep, rng):
    assert _check_sweep(sweep, rng) < 1e-12


def test_sweep_perturbed_column(sweep, rng):
    _set(sweep, "concurrence_closed", range(STEPS), lambda v: v * (1 - 1e-6))
    with pytest.raises(WrongOutput, match="reference"):
        _check_sweep(sweep, rng)


def test_sweep_nan_row(sweep, rng):
    _set(sweep, "concurrence_closed", [17], lambda v: math.nan)
    with pytest.raises(OpFailed, match="non-finite"):
        _check_sweep(sweep, rng)


def test_sweep_leaves_unit_interval(sweep, rng):
    _set(sweep, "concurrence_closed", [0], lambda v: 1.0 + 1e-9)
    with pytest.raises(WrongOutput, match=r"\[0, 1\]"):
        _check_sweep(sweep, rng)


def test_sweep_broken_period(sweep, rng):
    _set(sweep, "concurrence_closed", [50], lambda v: v + 1e-6)
    with pytest.raises(WrongOutput, match="periodicity"):
        _check_sweep(sweep, rng)


def test_sweep_wrong_grid(sweep, rng):
    sweep.rows.pop()
    with pytest.raises(WrongOutput, match="rows"):
        _check_sweep(sweep, rng)


def test_bell_equivalence(sweep):
    col = sweep.column("concurrence_closed")
    checks.check_same([col, col.copy()], "bell")
    with pytest.raises(WrongOutput, match="differ"):
        checks.check_same([col, col + 1e-9], "bell")


def test_envelope(tmp_path, rng):
    csv = _cli_csv(tmp_path, "envelope", "--steps", STEPS)
    assert checks.check_envelope(csv, [0.75, 0.1], 4 * math.pi, STEPS, rng, 8) < 1e-12
    _set(csv, "envelope_beta_0.1", range(STEPS), lambda v: v + 1e-7)
    with pytest.raises(WrongOutput):
        checks.check_envelope(csv, [0.75, 0.1], 4 * math.pi, STEPS, rng, 8)


def test_beta_sweep(tmp_path, rng):
    csv = _cli_csv(tmp_path, "beta-sweep", "--field", "number:n=25", "--steps", 101)
    assert checks.check_beta_sweep(csv, 25, 1.0, 1.0, 101, rng, 8) < 1e-12
    _set(csv, "number", range(101), lambda v: v * (1 + 1e-6) + 1e-9)
    with pytest.raises(WrongOutput, match="number"):
        checks.check_beta_sweep(csv, 25, 1.0, 1.0, 101, rng, 8)


def test_esd_dichotomy(tmp_path, rng):
    csv = _cli_csv(tmp_path, "esd", "--beta", 0.1, "--field", "thermal:nbar=25.0")
    assert checks.check_esd(csv, 0.1, 25.0, 2 * math.pi, 65, rng, 8) < 1e-12
    csv.meta["esd_first_zero"] = "none"
    with pytest.raises(WrongOutput, match="death"):
        checks.check_esd(csv, 0.1, 25.0, 2 * math.pi, 65, rng, 8)


def test_roots():
    nodes = np.polynomial.laguerre.laggauss(25)[0]
    checks.check_roots(nodes, 25)
    with pytest.raises(WrongOutput, match="found 24 of 25"):
        checks.check_roots(nodes[1:], 25)
    with pytest.raises(WrongOutput, match="relative"):
        checks.check_roots(nodes * (1 + 1e-8), 25)
    with pytest.raises(OpFailed):
        checks.check_roots(np.append(nodes[:-1], np.nan), 25)


def _report(rows, checks_meta=None, passed_meta=None):
    lines = [f"# checks={checks_meta if checks_meta is not None else len(rows)}",
             f"# passed={passed_meta if passed_meta is not None else len(rows)}",
             "check,max_error,tolerance,pass"]
    lines += [",".join(r) for r in rows]
    return checks.parse_csv("\n".join(lines) + "\n")


def _good_rows():
    rows = []
    for family, tol in checks.VALIDATE_CEILINGS.items():
        err = "0" if family in checks.VALIDATE_BOOLEAN else repr(tol / 10)
        rows.append([f"{family}:x", err, repr(tol), "true"])
    return rows


def test_validate_report():
    rows = _good_rows()
    assert checks.check_validate_report(_report(rows)) == pytest.approx(1e-8)


@pytest.mark.parametrize("change, match", [
    (lambda rows: rows.pop(3), "lacks"),
    (lambda rows: rows[2].__setitem__(3, "false"), "against tolerance"),
    (lambda rows: rows[2].__setitem__(1, "1e-3"), "against tolerance"),
    (lambda rows: rows[2].__setitem__(2, "1e-3"), "above"),
    (lambda rows: rows[10].__setitem__(1, "0.25"), "boolean"),
])
def test_validate_report_refused(change, match):
    rows = _good_rows()
    change(rows)
    with pytest.raises(WrongOutput, match=match):
        checks.check_validate_report(_report(rows))


def test_validate_report_nan():
    rows = _good_rows()
    rows[2][1] = "nan"
    with pytest.raises(OpFailed):
        checks.check_validate_report(_report(rows))


def test_validate_report_metadata():
    with pytest.raises(WrongOutput, match="metadata"):
        checks.check_validate_report(_report(_good_rows(), passed_meta=3))


def test_oracle_sweep(tmp_path):
    csv = _cli_csv(tmp_path, "concurrence-sweep", "--omega0", 0.7, "--compare-oracle",
                   "--field", "vacuum", "--beta", 0.3, "--steps", 17)
    checks.check_oracle_sweep(csv, 4 * math.pi, 17)
    bad = checks.parse_csv((tmp_path / "out.csv").read_text())
    _set(bad, "concurrence_oracle", [5], lambda v: 1.0 + 1e-6)
    with pytest.raises(WrongOutput, match=r"\[0, 1\]"):
        checks.check_oracle_sweep(bad, 4 * math.pi, 17)
    csv.meta["doubling_error"] = "1e-6"
    with pytest.raises(WrongOutput, match="doubling"):
        checks.check_oracle_sweep(csv, 4 * math.pi, 17)
    _set(csv, "concurrence_oracle", [3], lambda v: math.nan)
    with pytest.raises(OpFailed):
        checks.check_oracle_sweep(csv, 4 * math.pi, 17)


@pytest.mark.parametrize("omega0, field, bell", [
    (0.7, Field("vacuum"), "phi+"),
    (0.7, Field("coherent", 0.5 + 0.25j), "psi-"),
    (0.0, Field("number", 1), "phi-"),
])
def test_witness_reference(tmp_path, omega0, field, bell):
    csv = _cli_csv(tmp_path, "separability", "--omega0", omega0, "--field", field.spec,
                   "--beta", 0.5, "--bell", bell, "--steps", 3)
    assert checks.check_separability(csv, field, 0.5, omega0, bell, 2 * math.pi, 3) < 1e-12
    _set(csv, "negativity", [1], lambda v: v + 1e-6)
    with pytest.raises(WrongOutput, match="witness"):
        checks.check_separability(csv, field, 0.5, omega0, bell, 2 * math.pi, 3)


def test_round_counts_failures_and_wrong_outputs(tmp_path, rng):
    def boom(out_dir):
        raise OverflowError("overflow")

    def wrong(raw, rng):
        raise WrongOutput("bad")

    wl = workloads.Workload("fake", [
        workloads.Op("ok", lambda out_dir: 1, lambda raw, rng: 1e-9),
        workloads.Op("raises", boom, lambda raw, rng: 0.0),
        workloads.Op("wrong", lambda out_dir: 1, wrong),
    ])
    tally = run.Tally()
    latencies = run.run_round(wl, tmp_path, rng, tally, checks,
                              speed.Pacer(speed.Calibration(np)))
    assert set(latencies) == {"ok", "raises", "wrong"}
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 1, 1)
    assert tally.max_error == 1e-9


def test_workload_names_unique():
    for make in workloads.WORKLOADS.values():
        names = [op.name for op in make().ops]
        assert len(names) == len(set(names))
