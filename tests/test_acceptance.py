"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``).
Criteria 2, 5, 7 and 9 read the rows of one run of the ``degjc validate``
check program, asserted at the tolerances stated here.
"""

import math
import time

import numpy as np
import pytest
from dense_reference import field_field_reduced

from degjc.cli import main
from degjc.closedform import concurrence_closed, modulation_factor, two_qubit_offdiagonal
from degjc.entanglement import negativity
from degjc.model import BellState, Coherent, ModelParams, Number, Thermal, Vacuum, make_bell
from degjc.oracle import TruncationSpec, build_hamiltonian, default_ncut, low_spectrum
from degjc.validation import analytic_propagation_error, validation_rows

PI = math.pi

# The report's check families in report order, with their row counts.
REPORT_FAMILIES = [
    ("envelope-minima", 1), ("envelope-periodicity", 1), ("oracle-grid", 12),
    ("oracle-revival", 1), ("closed-revival", 1), ("analytic-propagation", 1),
    ("spectrum-degenerate", 1), ("alpha0-independence", 1), ("bell-equivalence", 1),
    ("thermal-coupling-identity", 1), ("thermal-no-esd", 1), ("esd-oracle-agreement", 4),
    ("esd-dichotomy", 4), ("zero-crossings", 8), ("field-field-separability", 1),
    ("negativity-control", 1),
]


def report(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed {detail}"


@pytest.fixture(scope="session")
def validation_report():
    """The default ``degjc validate`` rows, computed once, and their seconds."""
    start = time.monotonic()
    rows = validation_rows()
    return rows, time.monotonic() - start


def family(rows, name):
    return [r for r in rows if r.name.split(":")[0] == name]


def test_criterion_1_envelope(tmp_path):
    start = time.monotonic()
    out = tmp_path / "envelope.csv"
    rc = main(["envelope", "--steps", "257", "--omega-t-max", str(4 * PI), "--out", str(out)])
    elapsed = time.monotonic() - start
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    at_pi = rows[64]
    err = max(
        abs(float(at_pi[1]) - math.exp(-4.5)),
        abs(float(at_pi[2]) - math.exp(-0.08)),
        abs(modulation_factor(0.75, PI) - math.exp(-4.5)),
        abs(modulation_factor(0.1, PI) - math.exp(-0.08)),
    )
    wt = np.linspace(0.0, 2.0 * PI, 257)
    per = max(
        float(np.max(np.abs(modulation_factor(b, wt + 2 * PI) - modulation_factor(b, wt))))
        for b in (0.75, 0.1)
    )
    ok = rc == 0 and err <= 1e-12 and per <= 1e-12 and elapsed < 1.0
    report(1, "envelope minima and periodicity", ok,
           f"(err={err:.2e}, periodicity={per:.2e}, {elapsed:.2f}s)")


def test_report_families(validation_report):
    rows, _ = validation_report
    families = [r.name.split(":")[0] for r in rows]
    assert len(rows) == 40
    assert [(f, families.count(f)) for f in dict.fromkeys(families)] == REPORT_FAMILIES


def test_criterion_2_oracle_grid(validation_report):
    rows, elapsed = validation_report
    grid = family(rows, "oracle-grid")
    worst = max(r.max_error for r in grid)
    ok = len(grid) == 12 and worst <= 1e-7 and elapsed < 120.0
    report(2, "closed form vs oracle on the field/coupling grid", ok,
           f"(max|dC|={worst:.2e} over {len(grid)} configs, {elapsed:.1f}s for the report)")


def test_criterion_3_analytic_propagation():
    rng = np.random.default_rng(981237)
    worst = 0.0
    for _ in range(16):
        alpha = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        beta = rng.uniform(0.0, 0.8)
        wt = rng.uniform(0.0, 2.0 * PI)
        spin_up = bool(rng.integers(0, 2))
        worst = max(worst, analytic_propagation_error(alpha, spin_up, beta, wt))
    ok = worst <= 1e-8  # |<ref|psi> - 1| <= 1e-8 implies fidelity >= 1 - 1e-8
    report(3, "propagated spin-coherent states match the analytic branches", ok,
           f"(max|overlap-1|={worst:.2e}, 16 random triples)")


def test_criterion_4_spectrum():
    target = np.repeat(np.arange(5, dtype=float), 2)
    worst = 0.0
    for beta in (0.25, 0.5, 1.0):
        prop = build_hamiltonian(ModelParams(beta), TruncationSpec(40))
        worst = max(worst, float(np.max(np.abs(low_spectrum(prop, 10) - target))))
    ok = worst <= 1e-8
    report(4, "degenerate low spectrum is {0,0,w,w,...} after ground shift", ok,
           f"(max dev={worst:.2e} in units of w)")


def test_criterion_5_revival(validation_report):
    rows, _ = validation_report
    (oracle_row,), (closed_row,) = family(rows, "oracle-revival"), family(rows, "closed-revival")
    worst_oracle, worst_closed = oracle_row.max_error, closed_row.max_error
    ok = worst_oracle <= 1e-7 and worst_closed <= 1e-12
    report(5, "complete revival at w t = 2 pi", ok,
           f"(oracle={worst_oracle:.2e}, closed={worst_closed:.2e})")


def test_criterion_6_invariances():
    wt = np.linspace(0.0, 2.0 * PI, 1000)
    base = concurrence_closed(BellState.PHI_PLUS, Vacuum(), 0.3, wt)
    err_alpha = max(
        float(np.max(np.abs(concurrence_closed(BellState.PHI_PLUS, Coherent(a), 0.3, wt) - base)))
        for a in (0.0, 1.0, 10.0 + 3.0j, 100.0)
    )
    err_bell = 0.0
    for field in (Coherent(0.8), Number(2), Thermal(1.5)):
        traces = [concurrence_closed(b, field, 0.4, wt) for b in BellState]
        mags = [2.0 * np.abs(two_qubit_offdiagonal(b, field, 0.4, wt)) for b in BellState]
        for t in traces[1:]:
            err_bell = max(err_bell, float(np.max(np.abs(t - traces[0]))))
        for m in mags[1:]:
            err_bell = max(err_bell, float(np.max(np.abs(m - mags[0]))))
    err_thermal = 0.0
    for beta, nbar in ((0.1, 1.0), (0.3, 2.0), (0.5, 25.0)):
        th = concurrence_closed(BellState.PHI_PLUS, Thermal(nbar), beta, wt)
        coh = concurrence_closed(BellState.PHI_PLUS, Vacuum(), beta * math.sqrt(1 + 2 * nbar), wt)
        err_thermal = max(err_thermal, float(np.max(np.abs(th - coh))))
    ok = max(err_alpha, err_bell, err_thermal) <= 1e-12
    report(6, "amplitude/Bell/thermal-coupling invariances", ok,
           f"(alpha0={err_alpha:.2e}, bell={err_bell:.2e}, thermal={err_thermal:.2e})")


def test_criterion_7_esd_dichotomy(validation_report):
    rows, _ = validation_report
    # pure Bell + thermal never dies: strict positivity wherever exp is
    # representable, finite exponent everywhere
    (no_esd,) = family(rows, "thermal-no-esd")
    no_esd_ok = no_esd.max_error == 0.0
    # the mixture dies iff 16 (1+2 nbar) b^2 >= ln 3, oracle-confirmed
    agreement, dichotomy = family(rows, "esd-oracle-agreement"), family(rows, "esd-dichotomy")
    dichotomy_ok = len(dichotomy) == 4 and all(r.max_error == 0.0 for r in dichotomy)
    worst = max(r.max_error for r in agreement)
    ok = no_esd_ok and dichotomy_ok and len(agreement) == 4 and worst <= 1e-7
    report(7, "no ESD for pure Bell inputs; mixture threshold oracle-confirmed", ok,
           f"(max|dC|={worst:.2e} at {len(agreement)} parameter points)")


def test_criterion_8_separability():
    grid = np.linspace(0.0, 2.0 * PI, 17)
    worst = 0.0
    for field in (Vacuum(), Number(1)):
        for beta in (0.3, 0.75):
            trunc = TruncationSpec(default_ncut(field, beta))
            prop = build_hamiltonian(ModelParams(beta), trunc)
            f = prop.fock_dim
            for wt in grid:
                rho = field_field_reduced(prop, BellState.PHI_PLUS, field, wt)
                worst = max(worst, negativity(rho, (f, f)))
    control = negativity(make_bell(BellState.PHI_PLUS).rho, (2, 2))
    ok = worst <= 1e-9 and abs(control - 0.5) <= 1e-12
    report(8, "field-field state stays PPT; Bell-state control returns 1/2", ok,
           f"(max negativity={worst:.2e}, control={control:.12f})")


def test_criterion_9_zero_crossings(validation_report):
    rows = family(validation_report[0], "zero-crossings")
    failed = [r.name for r in rows if r.max_error != 0.0]
    ok = len(rows) == 8 and not failed
    report(9, "concurrence zeros = 2 x (Laguerre roots below 16 b^2), at most 2N", ok,
           "; ".join(failed) if failed else f"({len(rows)} parameter pairs)")


def test_criterion_10_determinism(tmp_path):
    pairs = []
    for tag, args in (
        ("envelope", ["envelope", "--steps", "101"]),
        ("sweep", [
            "concurrence-sweep", "--beta", "0.5", "--field", "thermal:nbar=1",
            "--steps", "9", "--omega-t-max", str(2 * PI), "--compare-oracle",
        ]),
        ("esd", ["esd", "--beta", "0.25", "--field", "thermal:nbar=1", "--steps", "17"]),
    ):
        a, b = tmp_path / f"{tag}_a.csv", tmp_path / f"{tag}_b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        pairs.append(a.read_bytes() == b.read_bytes())
    ok = all(pairs)
    report(10, "repeated scenario runs are byte-identical", ok, f"({len(pairs)} scenarios)")
