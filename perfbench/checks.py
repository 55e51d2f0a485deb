"""Output checks of the degjc benchmark.

Every check reads what the program wrote and compares it with values this
file computes on its own: closed forms evaluated with mpmath at high
precision, Gauss-Laguerre nodes from numpy (Golub-Welsch), and a field-field
witness computed on the at most 4-dimensional local supports of the
four-party pure state.  Nothing is compared with a stored copy of an
earlier output.

A check raises ``OpFailed`` when the operation produced no usable result
(an exception, a nonzero exit code, a NaN or infinite value) and
``WrongOutput`` when a finite result disagrees with the reference.  Checks
that compare with a reference return the largest absolute error they saw;
the others return None.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np

# A concurrence may leave [0, 1] by a few rounding errors only.
UNIT_SLACK = 8 * np.finfo(float).eps
# Largest allowed |closed form - mpmath reference| on the sweeps.
CLOSED_TOL = 1e-9
# Bell-state equivalence: the same arithmetic on the same grid.
IDENTITY_TOL = 1e-12
# Oracle columns at omega0 != 0: cutoff-doubling error, the concurrence of
# the initial Bell pair, and the slack above 1 that the Wootters square-root
# route leaves (about 1e-8 today).
DOUBLING_TOL = 1e-8
ORACLE_TOL = 1e-7
# Field-field negativity and purities against the local-support reference.
WITNESS_TOL = 1e-9
# Laguerre roots against the Golub-Welsch nodes, relative.
ROOT_TOL = 1e-10
MP_DIGITS = 40

# Largest tolerance each validate check family may use (the documented
# acceptance tolerances); boolean checks report 0 or 1 against 0.5.
VALIDATE_CEILINGS = {
    "envelope-minima": 1e-12,
    "envelope-periodicity": 1e-12,
    "oracle-grid": 1e-7,
    "oracle-revival": 1e-7,
    "closed-revival": 1e-12,
    "analytic-propagation": 1e-8,
    "spectrum-degenerate": 1e-8,
    "alpha0-independence": 1e-12,
    "bell-equivalence": 1e-12,
    "thermal-coupling-identity": 1e-12,
    "thermal-no-esd": 0.5,
    "esd-oracle-agreement": 1e-7,
    "esd-dichotomy": 0.5,
    "zero-crossings": 0.5,
    "field-field-separability": 1e-9,
    "negativity-control": 1e-12,
}
VALIDATE_BOOLEAN = {"thermal-no-esd", "esd-dichotomy", "zero-crossings"}
VALIDATE_ORACLE = {"oracle-grid", "oracle-revival", "esd-oracle-agreement"}


class OpFailed(Exception):
    """The operation gave no usable result."""


class WrongOutput(Exception):
    """The operation's result disagrees with the reference."""


@dataclass(frozen=True)
class Field:
    """An initial field as the benchmark describes it to the CLI."""

    kind: str  # vacuum | coherent | number | thermal
    value: object = None

    @property
    def spec(self):
        if self.kind == "vacuum":
            return "vacuum"
        if self.kind == "coherent":
            a = complex(self.value)
            return f"coherent:alpha={a.real!r},{a.imag!r}"
        if self.kind == "number":
            return f"number:n={int(self.value)}"
        return f"thermal:nbar={float(self.value)!r}"


@dataclass
class Csv:
    meta: dict
    names: list
    rows: list

    def column(self, name):
        if name not in self.names:
            raise WrongOutput(f"column {name!r} missing; have {self.names}")
        j = self.names.index(name)
        try:
            return np.array([float(r[j]) for r in self.rows])
        except ValueError as exc:
            raise WrongOutput(f"column {name!r}: {exc}") from exc

    def finite(self, name):
        values = self.column(name)
        bad = np.nonzero(~np.isfinite(values))[0]
        if bad.size:
            raise OpFailed(f"column {name!r} has {bad.size} non-finite rows, first at row {bad[0]}")
        return values


def parse_csv(text):
    """Split degjc CSV text into '#' metadata, header and rows."""
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, sep, val = line[2:].partition("=")
            if sep:
                meta[key] = val
        elif line:
            body.append(line.split(","))
    if not body:
        raise OpFailed("no header row")
    names, rows = body[0], body[1:]
    for i, r in enumerate(rows):
        if len(r) != len(names):
            raise WrongOutput(f"row {i} has {len(r)} fields, header has {len(names)}")
    return Csv(meta, names, rows)


def check_unit_interval(values, what, slack=UNIT_SLACK):
    lo, hi = float(np.min(values)), float(np.max(values))
    if lo < -slack or hi > 1.0 + slack:
        raise WrongOutput(f"{what} leaves [0, 1]: min {lo!r}, max {hi!r}")


def check_grid(csv, name, stop, steps):
    values = csv.finite(name)
    expected = np.linspace(0.0, stop, steps)
    if values.shape != expected.shape:
        raise WrongOutput(f"{name}: {values.size} rows, expected {steps}")
    err = float(np.max(np.abs(values - expected)))
    if err > 1e-12 * max(1.0, stop):
        raise WrongOutput(f"{name} grid off by {err:.3e}")
    return values


def check_period(values, omega_ts, what):
    """C(w t + 2 pi) = C(w t) on a uniform grid whose step divides 2 pi.

    The two grid points are different floats, so the rows agree only to
    the accuracy each value must have on its own.
    """
    step = omega_ts[1] - omega_ts[0]
    shift = int(round(2.0 * math.pi / step))
    if shift >= len(values) or abs(shift * step - 2.0 * math.pi) > 1e-9:
        return
    err = float(np.max(np.abs(values[shift:] - values[:-shift])))
    if not err <= CLOSED_TOL:
        raise WrongOutput(f"{what}: 2 pi periodicity broken by {err:.3e}")


def check_same(columns, what):
    """Columns that the closed forms say are identical."""
    first = columns[0]
    for other in columns[1:]:
        if other.shape != first.shape:
            raise WrongOutput(f"{what}: row counts differ")
        err = float(np.max(np.abs(other - first)))
        if err > IDENTITY_TOL:
            raise WrongOutput(f"{what}: columns differ by {err:.3e}")


# ---------------------------------------------------------------------------
# high-precision closed forms


def _abs2(omega_t):
    return 2 - 2 * mpmath.cos(mpmath.mpf(float(omega_t)))


def ref_concurrence(field, beta, omega_t):
    """Concurrence of a Bell pair under identical fields (README table)."""
    with mpmath.workdps(MP_DIGITS):
        x = 4 * mpmath.mpf(beta) ** 2 * _abs2(omega_t)
        if field.kind in ("vacuum", "coherent"):
            val = mpmath.exp(-x)
        elif field.kind == "number":
            val = mpmath.exp(-x) * mpmath.laguerre(int(field.value), 0, x) ** 2
        else:
            val = mpmath.exp(-(1 + 2 * mpmath.mpf(field.value)) * x)
        return float(val)


def ref_envelope(beta, omega_t):
    with mpmath.workdps(MP_DIGITS):
        return float(mpmath.exp(-2 * mpmath.mpf(beta) ** 2 * _abs2(omega_t)))


def ref_esd(beta, nbar, omega_t):
    with mpmath.workdps(MP_DIGITS):
        x = 4 * (1 + 2 * mpmath.mpf(nbar)) * mpmath.mpf(beta) ** 2 * _abs2(omega_t)
        return float(max(mpmath.mpf(0), mpmath.mpf(3) / 4 * mpmath.exp(-x) - mpmath.mpf(1) / 4))


def sample_rows(rng, hardness, k):
    """k rows drawn uniformly plus k drawn log-uniformly in ``hardness``.

    ``hardness`` is |gamma|^2 (or beta^2) per row.  Cancellation and the
    Laguerre recurrence lose most near its small values, which a uniform
    draw over a fine grid rarely hits.
    """
    n = len(hardness)
    rows = set(rng.integers(0, n, k).tolist())
    positive = hardness[hardness > 0]
    if positive.size:
        order = np.argsort(hardness, kind="stable")
        targets = np.exp(rng.uniform(math.log(positive.min()), math.log(positive.max()), k))
        idx = np.clip(np.searchsorted(hardness[order], targets), 0, n - 1)
        rows.update(order[idx].tolist())
    return sorted(rows)


def compare_rows(values, rows, reference, what):
    """Largest |values[i] - reference(i)| over ``rows``."""
    err = 0.0
    for i in rows:
        e = abs(float(values[i]) - reference(i))
        if not e <= CLOSED_TOL:
            raise WrongOutput(f"{what}: row {i} differs from the reference by {e:.3e}")
        err = max(err, e)
    return err


# ---------------------------------------------------------------------------
# sweeps: closed-form scenarios


def check_envelope(csv, betas, stop, steps, rng, k):
    wt = check_grid(csv, "omega_t", stop, steps)
    hard = 4.0 * np.sin(0.5 * wt) ** 2
    err = 0.0
    for b in betas:
        name = f"envelope_beta_{b:g}"
        vals = csv.finite(name)
        check_unit_interval(vals, name)
        check_period(vals, wt, name)
        err = max(err, compare_rows(vals, sample_rows(rng, hard, k),
                                    lambda i: ref_envelope(b, wt[i]), name))
    return err


def check_concurrence_sweep(csv, field, beta, stop, steps, rng, k):
    wt = check_grid(csv, "omega_t", stop, steps)
    vals = csv.finite("concurrence_closed")
    check_unit_interval(vals, "concurrence_closed")
    check_period(vals, wt, "concurrence_closed")
    hard = 4.0 * np.sin(0.5 * wt) ** 2
    return compare_rows(vals, sample_rows(rng, hard, k),
                        lambda i: ref_concurrence(field, beta, wt[i]), "concurrence_closed")


def check_beta_sweep(csv, number_n, thermal_nbar, beta_max, steps, rng, k):
    betas = check_grid(csv, "beta", beta_max, steps)
    hard = betas**2
    fields = {
        "coherent": Field("vacuum"),
        "number": Field("number", number_n),
        "thermal": Field("thermal", thermal_nbar),
    }
    cols = {name: csv.finite(name) for name in fields}
    err = 0.0
    for name, field in fields.items():
        check_unit_interval(cols[name], name)
        err = max(err, compare_rows(cols[name], sample_rows(rng, hard, k),
                                    lambda i: ref_concurrence(field, betas[i], math.pi), name))
    return err


def check_esd(csv, beta, nbar, stop, steps, rng, k):
    wt = check_grid(csv, "omega_t", stop, steps)
    vals = csv.finite("concurrence_closed")
    check_unit_interval(vals, "concurrence_closed")
    check_period(vals, wt, "concurrence_closed")
    dies = 16.0 * (1.0 + 2.0 * nbar) * beta**2 >= math.log(3.0)
    reported = csv.meta.get("esd_first_zero", "none") != "none"
    # The dichotomy is decided at the half period; a grid that misses
    # w t = pi may miss a short dead interval, so only demand it there.
    if reported != dies and (reported or np.any(np.isclose(wt, math.pi))):
        raise WrongOutput(f"esd metadata says death={reported}, threshold says {dies}")
    hard = 4.0 * np.sin(0.5 * wt) ** 2
    return compare_rows(vals, sample_rows(rng, hard, k),
                        lambda i: ref_esd(beta, nbar, wt[i]), "esd concurrence_closed")


def check_roots(roots, n):
    """Roots of L_n against the Gauss-Laguerre nodes, in count and value.

    Returns None: root errors are relative and do not enter the closed-form
    accuracy."""
    roots = np.sort(np.asarray(roots, dtype=float))
    if not np.all(np.isfinite(roots)):
        raise OpFailed(f"laguerre_roots({n}) returned non-finite roots")
    nodes = np.polynomial.laguerre.laggauss(n)[0]
    if roots.size != nodes.size:
        raise WrongOutput(f"laguerre_roots({n}) found {roots.size} of {nodes.size} roots")
    rel = np.abs(roots - nodes) / nodes
    err = float(np.max(rel)) if rel.size else 0.0
    if not err <= ROOT_TOL:
        raise WrongOutput(f"laguerre_roots({n}) off by {err:.3e} relative")
    return None


# ---------------------------------------------------------------------------
# validate


def check_validate_report(csv):
    """All checks pass at no more than the documented tolerances; returns
    the largest oracle-versus-closed-form error."""
    if csv.names != ["check", "max_error", "tolerance", "pass"]:
        raise WrongOutput(f"unexpected report header {csv.names}")
    families = set()
    oracle_err = 0.0
    for name, max_error, tolerance, passed in csv.rows:
        family = name.split(":", 1)[0]
        if family not in VALIDATE_CEILINGS:
            continue
        families.add(family)
        err, tol = float(max_error), float(tolerance)
        if not math.isfinite(err):
            raise OpFailed(f"{name}: max_error {max_error}")
        if passed != "true" or not err <= tol:
            raise WrongOutput(f"{name}: max_error {err:.3e} against tolerance {tol:g} ({passed})")
        if tol > VALIDATE_CEILINGS[family]:
            raise WrongOutput(f"{name}: tolerance {tol:g} above {VALIDATE_CEILINGS[family]:g}")
        if family in VALIDATE_BOOLEAN and err != 0.0:
            raise WrongOutput(f"{name}: boolean check reports {err}")
        if family in VALIDATE_ORACLE:
            oracle_err = max(oracle_err, err)
    missing = sorted(set(VALIDATE_CEILINGS) - families)
    if missing:
        raise WrongOutput(f"report lacks check families {missing}")
    if csv.meta.get("checks") != str(len(csv.rows)) or csv.meta.get("passed") != str(len(csv.rows)):
        raise WrongOutput(f"report metadata checks={csv.meta.get('checks')} "
                          f"passed={csv.meta.get('passed')} for {len(csv.rows)} rows")
    return oracle_err


# ---------------------------------------------------------------------------
# detuned: oracle columns and the field-field witness


def check_oracle_sweep(csv, stop, steps):
    wt = check_grid(csv, "omega_t", stop, steps)
    vals = csv.finite("concurrence_oracle")
    check_unit_interval(vals, "concurrence_oracle", slack=ORACLE_TOL)
    if abs(vals[0] - 1.0) > ORACLE_TOL or wt[0] != 0.0:
        raise WrongOutput(f"initial Bell pair has oracle concurrence {vals[0]!r}")
    doubling = float(csv.meta.get("doubling_error", "nan"))
    if not doubling <= DOUBLING_TOL:
        raise WrongOutput(f"doubling_error {doubling!r} above {DOUBLING_TOL:g}")
    return None


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
# Bell states in the sigma_z product basis (e, g): coefficient matrices c[a, b].
_BELL_Z = {
    "phi+": np.array([[1.0, 0.0], [0.0, 1.0]]) / math.sqrt(2.0),
    "phi-": np.array([[1.0, 0.0], [0.0, -1.0]]) / math.sqrt(2.0),
    "psi+": np.array([[0.0, 1.0], [1.0, 0.0]]) / math.sqrt(2.0),
    "psi-": np.array([[0.0, 1.0], [-1.0, 0.0]]) / math.sqrt(2.0),
}


def _field_vector(field, f):
    v = np.zeros(f, dtype=complex)
    if field.kind == "vacuum":
        v[0] = 1.0
    elif field.kind == "number":
        v[int(field.value)] = 1.0
    elif field.kind == "coherent":
        a = complex(field.value)
        v[0] = math.exp(-0.5 * abs(a) ** 2)
        for k in range(1, f):
            v[k] = v[k - 1] * a / math.sqrt(k)
    else:
        raise ValueError(f"witness reference needs a pure field, got {field}")
    return v


def witness_reference(field, beta, omega0, bell, ncut, omega_ts):
    """Field-field negativity and qubit/field purities of the evolved
    four-party pure state, on the span of the evolved rail components.

    Each qubit-oscillator pair evolves under
    H/w = a'a + beta (a' + a) sigma_x + (omega0/2) sigma_z in C^2 x C^F,
    written in the sigma_x basis (up, down).  The state of one field lies
    in the span of the four vectors <r|U|p, phi> (p, r in {up, down}), so
    every quantity is computed on at most 4 x 4 x 2 x 2 coordinates; the
    negativity is unchanged by these local isometries.
    """
    f = ncut + 1
    n = np.arange(f, dtype=float)
    x = np.diag(np.sqrt(n[1:]), 1) + np.diag(np.sqrt(n[1:]), -1)
    h = np.zeros((2 * f, 2 * f))
    h[:f, :f] = np.diag(n) + beta * x
    h[f:, f:] = np.diag(n) - beta * x
    h[:f, f:] = h[f:, :f] = 0.5 * omega0 * np.eye(f)
    energies, modes = np.linalg.eigh(h)
    phi = _field_vector(field, f)
    psi0 = np.zeros((2 * f, 2), dtype=complex)
    psi0[:f, 0] = phi
    psi0[f:, 1] = phi
    overlap = modes.conj().T @ psi0
    c = _HADAMARD @ _BELL_Z[bell] @ _HADAMARD.T  # to the sigma_x basis
    out = []
    for wt in omega_ts:
        evolved = modes @ (np.exp(-1j * energies * wt)[:, None] * overlap)
        comps = evolved.T.reshape(2, 2, f)  # [initial rail p, qubit r, field]
        u, s, _ = np.linalg.svd(comps.reshape(4, f).T, full_matrices=False)
        basis = u[:, s > 1e-13 * s[0]]
        a = np.einsum("mi,prm->pri", basis.conj(), comps)
        psi = np.einsum("pq,pri,qsj->risj", c, a, a)
        psi /= np.linalg.norm(psi)
        k = basis.shape[1]
        rho = np.einsum("risj,rIsJ->ijIJ", psi, psi.conj())
        pt = rho.transpose(0, 3, 2, 1).reshape(k * k, k * k)
        ev = np.linalg.eigvalsh(0.5 * (pt + pt.conj().T))
        rho_q = np.einsum("risj,Risj->rR", psi, psi.conj())
        rho_f = np.einsum("risj,rIsj->iI", psi, psi.conj())
        out.append((
            float(-ev[ev < 0.0].sum()),
            float(np.trace(rho_q @ rho_q).real),
            float(np.trace(rho_f @ rho_f).real),
        ))
    return np.array(out)


def check_separability(csv, field, beta, omega0, bell, stop, steps):
    wt = check_grid(csv, "omega_t", stop, steps)
    got = np.column_stack([csv.finite(c) for c in ("negativity", "qubit_purity", "field_purity")])
    ncut = int(csv.meta.get("ncut", "0"))
    if ncut < 1:
        raise WrongOutput(f"separability metadata lacks ncut: {csv.meta.get('ncut')!r}")
    ref = witness_reference(field, beta, omega0, bell, ncut, wt)
    err = float(np.max(np.abs(got - ref)))
    if not err <= WITNESS_TOL:
        row = int(np.argmax(np.max(np.abs(got - ref), axis=1)))
        raise WrongOutput(f"witness differs from the reference by {err:.3e} at row {row}")
    return err
