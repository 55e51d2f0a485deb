"""Truncated-Fock propagator: invariants and closed-form cross-checks."""

import ast
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from conftest import wootters
from dense_reference import (
    coherent_fock_vector_unscaled, dense_components, dense_maps, dense_modes, evolved_rails,
    field_field_reduced, rail_grams)

from degjc import oracle, specialfn
from degjc.closedform import (
    concurrence_closed,
    esd_concurrence_closed,
    evolve_spin_coherent,
    single_qubit_coherence,
    two_qubit_offdiagonal,
)
from degjc.entanglement import negativity, wootters_concurrences
from degjc.model import (
    BellState,
    Coherent,
    ModelParams,
    Number,
    QubitBasis,
    QubitPairState,
    Thermal,
    Vacuum,
    bell_ket,
    make_bell,
    make_esd_mixture,
    validate_density_matrices,
)
from degjc.oracle import (
    TruncationError,
    TruncationSpec,
    build_hamiltonian,
    coherent_fock_vector,
    concurrence_trace,
    default_ncut,
    field_components,
    field_field_witness,
    low_spectrum,
    propagate_state,
    truncation,
)
from degjc.oracle import (
    _PHASE_BLOCK_BYTES,
    _MapKernel,
    _reduced_stack,
    _tridiagonal_eigh,
)

PI = math.pi


def _dense_block(params, trunc):
    """Energies and eigenvectors of the dense real 2F x 2F block, valid for
    any omega0: the reference the parity chains are checked against."""
    f = trunc.ncut + 1
    n = np.arange(f, dtype=float)
    x_op = np.diag(np.sqrt(n[1:]), 1) + np.diag(np.sqrt(n[1:]), -1)
    sx = np.diag([1.0, -1.0])  # sigma_x in its own eigenbasis
    sz = np.array([[0.0, 1.0], [1.0, 0.0]])  # sigma_z flips up <-> down
    h = (
        np.kron(np.eye(2), np.diag(n))
        + params.beta * np.kron(sx, x_op)
        + (params.omega0 / 2.0) * np.kron(sz, np.eye(f))
    )
    return np.linalg.eigh(h)


def _dense_propagate(dense, psi, omega_t):
    energies, modes = dense
    return modes @ (np.exp(-1j * energies * omega_t)[:, None] * (modes.T @ psi))


def _dense_maps(dense, field, trunc, omega_t):
    """ops[i, k, p, q] = M_ik[p, q] from the propagated mixture components."""
    f = trunc.ncut + 1
    weights, vecs, _ = dense_components(field, trunc)
    rails = []
    for i in (0, 1):
        psi0 = np.zeros((2 * f, vecs.shape[1]), dtype=complex)
        psi0[i * f:(i + 1) * f] = vecs
        rails.append(_dense_propagate(dense, psi0, omega_t).reshape(2, f, -1))
    rails = np.array(rails)  # [initial rail, qubit out, field out, component]
    return np.einsum("ipmn,kqmn,n->ikpq", rails, rails.conj(), weights)


def _spin_field_vector(prop, alpha, spin_up):
    f = prop.fock_dim
    vec, _ = coherent_fock_vector(alpha, prop.trunc.ncut)
    psi = np.zeros(prop.dim, dtype=complex)
    psi[0:f] = vec if spin_up else 0.0
    if not spin_up:
        psi[f:] = vec
    return psi


def test_oracle_never_reads_the_closed_forms():
    # the oracle is the independent check of the closed forms: its module
    # imports neither them nor the validation that compares the two, and
    # names neither anywhere
    tree = ast.parse(Path(oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "specialfn" in names  # the parse saw the module's own imports
    assert not names & {"closedform", "validation"}


class TestHamiltonian:
    def test_free_spectrum_doubly_degenerate(self):
        prop = build_hamiltonian(ModelParams(0.0), TruncationSpec(30))
        expected = np.repeat(np.arange(10, dtype=float), 2)
        np.testing.assert_allclose(np.sort(prop.energies)[:20], expected, atol=1e-12)

    def test_free_spectrum_with_splitting(self):
        prop = build_hamiltonian(ModelParams(0.0, omega0=0.4), TruncationSpec(30))
        lowest = np.sort(prop.energies)[:4]
        np.testing.assert_allclose(lowest, [-0.2, 0.2, 0.8, 1.2], atol=1e-12)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
    def test_degenerate_spectrum_is_equally_spaced(self, beta):
        prop = build_hamiltonian(ModelParams(beta), TruncationSpec(40))
        expected = np.repeat(np.arange(5, dtype=float), 2)
        np.testing.assert_allclose(low_spectrum(prop, 10), expected, atol=1e-8)

    def test_ground_energy_is_depth_of_displaced_well(self):
        beta = 0.5
        prop = build_hamiltonian(ModelParams(beta), TruncationSpec(40))
        assert np.min(prop.energies) == pytest.approx(-(beta**2), abs=1e-10)

    def test_cutoff_doubling_agreement(self):
        a = build_hamiltonian(ModelParams(0.5), TruncationSpec(40))
        b = build_hamiltonian(ModelParams(0.5), TruncationSpec(80))
        diff = np.abs(np.sort(a.energies)[:10] - np.sort(b.energies)[:10])
        assert np.max(diff) <= 1e-10

    def test_modes_are_unitary(self):
        prop = build_hamiltonian(ModelParams(0.7, omega0=0.3), TruncationSpec(25))
        modes = dense_modes(prop)
        gram = modes.conj().T @ modes
        assert np.max(np.abs(gram - np.eye(prop.dim))) <= 1e-10

    def test_sector_modes_and_energies_diagonalize_the_block(self):
        trunc = TruncationSpec(25)
        for omega0 in (0.0, 0.7):
            params = ModelParams(0.7, omega0=omega0)
            prop = build_hamiltonian(params, trunc)
            energies, modes = _dense_block(params, trunc)
            # at omega0 = 0 one chain is solved and held for both parities
            assert (prop.chains[0] is prop.chains[1]) == (omega0 == 0.0)
            assert len(prop.distinct_chains) == (1 if omega0 == 0.0 else 2)
            chain_modes = dense_modes(prop)
            assert np.max(np.abs(chain_modes.T @ chain_modes - np.eye(prop.dim))) <= 1e-10
            h = (modes * energies) @ modes.T
            rebuilt = (chain_modes * prop.energies) @ chain_modes.T
            assert np.max(np.abs(rebuilt - h)) <= 1e-12
            assert np.max(np.abs(np.sort(prop.energies) - energies)) <= 1e-12


class TestTridiagonalEigensolve:
    @staticmethod
    def _chain(f, beta):
        n = np.arange(f, dtype=float)
        return n, beta * np.sqrt(n[1:])

    @pytest.mark.parametrize("beta", [0.1, 0.5, 3.0])
    @pytest.mark.parametrize("f", [2, 5, 24, 26, 173, 618, 1235])
    def test_dstevd_equals_dense_eigh(self, f, beta, monkeypatch):
        # both routines give the same values in LAPACK's column-major layout
        if specialfn._lapack_dstevd() is None:
            pytest.skip("numpy's LAPACK exports no dstevd")
        diag, off = self._chain(f, beta)
        energies, modes, solver = _tridiagonal_eigh(diag, off)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        dense_energies, dense_modes = np.linalg.eigh(dense)
        assert solver == "dstevd"
        assert np.array_equal(energies, dense_energies)
        assert np.array_equal(modes, dense_modes)
        with monkeypatch.context() as patch:
            patch.setattr(specialfn, "_lapack_dstevd", lambda: None)
            fallback = _tridiagonal_eigh(diag, off)
        assert fallback[2] == "eigh"
        assert np.array_equal(fallback[0], energies)
        assert np.array_equal(fallback[1], modes)
        assert modes.flags.f_contiguous and fallback[1].flags.f_contiguous
        values, none, solver = _tridiagonal_eigh(diag, off, vectors=False)
        assert (none, solver) == (None, "dstevd")
        assert np.array_equal(values, np.linalg.eigvalsh(dense))

    def test_fallback_without_the_routine(self, monkeypatch):
        dense_calls = []
        eigh = np.linalg.eigh

        def counted_eigh(a):
            dense_calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(specialfn, "_lapack_dstevd", lambda: None)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        params = ModelParams(0.5)
        prop = build_hamiltonian(params, TruncationSpec(40))
        assert prop.eigensolver == "eigh"
        assert dense_calls == [(41, 41)]
        diag, off = self._chain(41, 0.5)
        energies, modes = eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        assert np.array_equal(prop.chains[0][0], energies)
        assert np.array_equal(prop.chains[0][1], modes)

    def test_solver_failure_is_truncation_error(self, monkeypatch):
        def failing(*args):
            args[10]._obj.value = 7  # INFO > 0: no convergence

        monkeypatch.setattr(specialfn, "_lapack_dstevd", lambda: failing)
        with pytest.raises(TruncationError, match="dstevd info=7"):
            build_hamiltonian(ModelParams(0.5), TruncationSpec(10))
        with pytest.raises(np.linalg.LinAlgError, match="dstevd info=7"):
            _tridiagonal_eigh(np.arange(3.0), np.ones(2), vectors=False)

    def test_peak_bytes_within_estimate(self):
        for omega0 in (0.0, 0.7):
            params, trunc = ModelParams(0.5, omega0=omega0), TruncationSpec(617)
            tracemalloc.start()
            build_hamiltonian(params, trunc)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert peak <= oracle._eigensolve_bytes(params, trunc.ncut)


class TestPropagation:
    def test_zero_time_is_identity(self, rng):
        prop = build_hamiltonian(ModelParams(0.4), TruncationSpec(15))
        psi = rng.normal(size=prop.dim) + 1j * rng.normal(size=prop.dim)
        psi /= np.linalg.norm(psi)
        np.testing.assert_allclose(propagate_state(prop, psi, 0.0), psi, atol=1e-12)

    def test_norm_preserved(self, rng):
        prop = build_hamiltonian(ModelParams(0.6, omega0=0.2), TruncationSpec(20))
        psi = rng.normal(size=prop.dim) + 1j * rng.normal(size=prop.dim)
        psi /= np.linalg.norm(psi)
        out = propagate_state(prop, psi, 3.7)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10

    def test_composition(self, rng):
        prop = build_hamiltonian(ModelParams(0.5), TruncationSpec(20))
        psi = rng.normal(size=prop.dim) + 1j * rng.normal(size=prop.dim)
        psi /= np.linalg.norm(psi)
        once = propagate_state(prop, psi, 1.1 + 2.3)
        twice = propagate_state(prop, propagate_state(prop, psi, 1.1), 2.3)
        assert np.max(np.abs(once - twice)) <= 1e-9

    def test_norm_drift_over_many_composed_steps(self, rng):
        prop = build_hamiltonian(ModelParams(0.5), TruncationSpec(8))
        psi = rng.normal(size=prop.dim) + 1j * rng.normal(size=prop.dim)
        psi /= np.linalg.norm(psi)
        for _ in range(10_000):
            psi = propagate_state(prop, psi, 0.01)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10

    def test_sigma_x_expectation_conserved(self, rng):
        prop = build_hamiltonian(ModelParams(0.45), TruncationSpec(25))
        f = prop.fock_dim
        sx_op = np.kron(np.diag([1.0, -1.0]), np.eye(f))
        psi = rng.normal(size=prop.dim) + 1j * rng.normal(size=prop.dim)
        psi /= np.linalg.norm(psi)
        ref = np.vdot(psi, sx_op @ psi).real
        for wt in (0.3, 1.9, 4.4, 11.0):
            out = propagate_state(prop, psi, wt)
            assert abs(np.vdot(out, sx_op @ out).real - ref) <= 1e-10

    def test_dimension_mismatch_rejected(self):
        prop = build_hamiltonian(ModelParams(0.4), TruncationSpec(10))
        with pytest.raises(ValueError):
            propagate_state(prop, np.zeros(7), 1.0)

    @pytest.mark.parametrize("spin_up", [True, False])
    def test_matches_analytic_displaced_state(self, spin_up, rng):
        # the propagator omits the constant level shift, hence the extra
        # global factor exp(i beta^2 w t) relative to the analytic phases
        params = ModelParams(0.3)
        trunc = TruncationSpec(default_ncut(Coherent(0.4), 0.3))
        prop = build_hamiltonian(params, trunc)
        f = prop.fock_dim
        alpha, wt = 0.4, 1.7
        psi0 = _spin_field_vector(prop, alpha, spin_up)
        evolved = propagate_state(prop, psi0, wt)
        amp, phase = evolve_spin_coherent(alpha, spin_up, 0.3, wt)
        phase *= np.exp(1j * 0.3**2 * wt)
        ref_field, _ = coherent_fock_vector(amp, trunc.ncut)
        ref = np.zeros(prop.dim, dtype=complex)
        if spin_up:
            ref[0:f] = phase * ref_field
        else:
            ref[f:] = phase * ref_field
        assert abs(np.vdot(ref, evolved) - 1.0) <= 1e-8


class TestFieldComponents:
    def test_vacuum_and_number(self):
        trunc = TruncationSpec(10)
        w, v, tail = dense_components(Vacuum(), trunc)
        assert w[0] == 1.0 and v[0, 0] == 1.0 and tail == 0.0
        w, v, tail = dense_components(Number(4), trunc)
        assert v[4, 0] == 1.0 and tail == 0.0

    def test_number_beyond_cutoff(self):
        with pytest.raises(TruncationError):
            field_components(Number(11), TruncationSpec(10))

    def test_coherent_norm_and_tail(self):
        trunc = TruncationSpec(40)
        w, v, tail = field_components(Coherent(1.2 + 0.3j), trunc)
        assert abs(np.vdot(v[:, 0], v[:, 0]).real + tail - 1.0) <= 1e-12
        assert tail <= trunc.tail_tol

    @pytest.mark.parametrize("bad", [complex("nan"), complex(1.0, math.inf), -math.inf])
    def test_coherent_vector_rejects_non_finite_amplitude(self, bad):
        # a NaN amplitude gave a NaN vector and a lost mass of 0.0
        with pytest.raises(ValueError, match="finite"):
            coherent_fock_vector(bad, 4)

    def test_coherent_vector_rejects_overflowing_amplitude(self):
        # |alpha|^2 overflowed in a bare OverflowError
        with pytest.raises(ValueError, match=r"1e\+200"):
            coherent_fock_vector(1e200, 4)

    def test_coherent_truncation_error(self):
        with pytest.raises(TruncationError):
            field_components(Coherent(3.0), TruncationSpec(2))

    def test_thermal_components_and_tail(self):
        trunc = TruncationSpec(80)
        w, v, tail = dense_components(Thermal(1.0), trunc)
        assert tail <= trunc.tail_tol
        assert w[0] == pytest.approx(0.5, rel=1e-14)
        assert v.shape[1] == len(w)

    def test_thermal_truncation_error(self):
        with pytest.raises(TruncationError):
            field_components(Thermal(5.0), TruncationSpec(10))

    @pytest.mark.parametrize("omega0", [0.0, 0.7])
    @pytest.mark.parametrize("field", [
        Vacuum(), Number(3), Thermal(2.0), Coherent(1.5), Coherent(complex(1.5, -0.0)),
        Coherent(1 + 0.5j)], ids=repr)
    def test_field_type_declares_the_run_and_the_word(self, field, omega0):
        # a slice of Fock rows exactly for the Fock-diagonal fields, a complex
        # column exactly off the real axis; every kernel factor is real
        trunc = TruncationSpec(default_ncut(field, 0.3))
        weights, components, _ = field_components(field, trunc)
        coherent = isinstance(field, Coherent)
        word = 16 if coherent and field.alpha0.imag != 0.0 else 8
        assert isinstance(components, slice) == (not coherent)
        if coherent:
            assert components.shape == (trunc.ncut + 1, 1)
            assert components.dtype.itemsize == word
        else:
            assert len(range(trunc.ncut + 1)[components]) == len(weights)
        kernel = _MapKernel(build_hamiltonian(ModelParams(0.3, omega0=omega0), trunc), field)
        # the one factor S at omega0 = 0, else one product per term of its
        # rail Gram (and a unit-Fock field's Gram): a column's Gram is in
        # the phases
        assert all(np.isrealobj(factor) for _, _, factor, *_ in kernel.terms)

    def test_thermal_run_holds_no_dense_matrix(self):
        # the doubled run of the README's ESD example, F = 1235 and K = 705:
        # a dense (F, K) identity slice took 6.66 MiB
        trunc = TruncationSpec(1234, 1e-12)
        field_components(Thermal(25.0), trunc)  # a first call's imports are not its memory
        tracemalloc.start()
        weights, components, _ = field_components(Thermal(25.0), trunc)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert components == slice(0, 705) and len(weights) == 705
        assert peak < 64 * 1024


def _maps(prop, field, omega_ts):
    """The (n, 2, 2, 2, 2) conditional maps ops[:, i, k, p, q] = M_ik[p, q]
    on a grid that fits one block, and the field's tail mass."""
    kernel = _MapKernel(prop, field)
    (ops,) = kernel.blocks(np.asarray(omega_ts, dtype=float))
    return ops, kernel.tail


class TestConditionalMaps:
    def test_zero_time_identity_maps(self):
        params = ModelParams(0.4)
        trunc = TruncationSpec(default_ncut(Thermal(1.0), 0.4))
        prop = build_hamiltonian(params, trunc)
        (ops,), tail = _maps(prop, Thermal(1.0), [0.0])
        norm = 1.0 - tail
        for i in range(2):
            for k in range(2):
                expected = np.zeros((2, 2))
                expected[i, k] = norm
                np.testing.assert_allclose(ops[i, k], expected, atol=1e-12)

    def test_structure_invariants(self, rng):
        params = ModelParams(0.35, omega0=0.15)
        field = Coherent(0.8)
        trunc = TruncationSpec(default_ncut(field, 0.35))
        prop = build_hamiltonian(params, trunc)
        stack, tail = _maps(prop, field, rng.uniform(0.0, 2 * PI, size=5))
        for ops in stack:
            m_uu, m_dd = ops[0, 0], ops[1, 1]
            assert np.max(np.abs(m_uu - m_uu.conj().T)) <= 1e-12
            assert np.max(np.abs(m_dd - m_dd.conj().T)) <= 1e-12
            assert np.trace(m_uu).real == pytest.approx(1.0 - tail, abs=1e-10)
            assert np.trace(m_dd).real == pytest.approx(1.0 - tail, abs=1e-10)
            np.testing.assert_allclose(ops[0, 1], ops[1, 0].conj().T, atol=1e-12)

    def test_degenerate_diagonal_maps_time_independent(self, rng):
        params = ModelParams(0.5)
        field = Number(2)
        trunc = TruncationSpec(default_ncut(field, 0.5))
        prop = build_hamiltonian(params, trunc)
        (ref,), _ = _maps(prop, field, [0.0])
        stack, _ = _maps(prop, field, rng.uniform(0.0, 2 * PI, size=5))
        for ops in stack:
            assert np.max(np.abs(ops[0, 0] - ref[0, 0])) <= 1e-10
            assert np.max(np.abs(ops[1, 1] - ref[1, 1])) <= 1e-10

    def test_coherent_entry_matches_closed_form(self):
        params = ModelParams(0.3)
        field = Coherent(1.0)
        trunc = TruncationSpec(default_ncut(field, 0.3))
        prop = build_hamiltonian(params, trunc)
        (ops,), _ = _maps(prop, field, [PI])
        closed = single_qubit_coherence(1.0, field, 0.3, PI)
        assert abs(ops[0, 1, 0, 1] - closed) <= 1e-8

    def test_thermal_entry_matches_closed_form(self):
        params = ModelParams(0.3)
        field = Thermal(1.0)
        trunc = TruncationSpec(60)
        prop = build_hamiltonian(params, trunc)
        grid = (0.9, PI, 4.0)
        stack, tail = _maps(prop, field, grid)
        assert tail <= 1e-10
        for ops, wt in zip(stack, grid):
            closed = single_qubit_coherence(1.0, field, 0.3, wt)
            assert abs(ops[0, 1, 0, 1] - closed) <= 1e-7

    @pytest.mark.parametrize(
        "field", [Vacuum(), Coherent(1.0 + 0.5j), Coherent(0.5j), Number(3), Thermal(1.0)],
        ids=str)
    def test_kappa_phase_matches_the_map(self, field):
        # M_ud[up, down] is kappa itself, phase included: a conjugated kappa
        # misses by order 1 for an amplitude off the real axis
        grid = np.linspace(0.4, 6.0, 7)
        trunc = TruncationSpec(default_ncut(field, 0.4))
        ops, _ = _maps(build_hamiltonian(ModelParams(0.4), trunc), field, grid)
        closed = single_qubit_coherence(1.0, field, 0.4, grid)
        assert np.max(np.abs(ops[:, 0, 1, 0, 1] - closed)) <= 1e-10


class TestMapKernel:
    @pytest.mark.parametrize(
        "field", [Vacuum(), Coherent(1.0 + 0.5j), Number(5), Thermal(2.0)], ids=str
    )
    def test_sigma_x_sectors_match_single_sector(self, field, rng):
        # the parity chains against the dense 2F block, at and off omega0 = 0
        trunc = TruncationSpec(default_ncut(field, 0.5))
        for omega0 in (0.0, 0.3, 0.7, 3.0):
            params = ModelParams(0.5, omega0=omega0)
            prop = build_hamiltonian(params, trunc)
            dense = _dense_block(params, trunc)
            psi = rng.normal(size=(prop.dim, 3)) + 1j * rng.normal(size=(prop.dim, 3))
            grid = rng.uniform(0.0, 2 * PI, size=4)
            stack, _ = _maps(prop, field, grid)
            for ops, wt in zip(stack, grid):
                assert np.max(np.abs(ops - _dense_maps(dense, field, trunc, wt))) <= 1e-12
                moved = propagate_state(prop, psi, wt) - _dense_propagate(dense, psi, wt)
                assert np.max(np.abs(moved)) <= 1e-12

    @pytest.mark.slow
    def test_chain_rails_match_mpmath_truth(self):
        # 40-digit eigendecomposition of the dense block, built from H alone;
        # the dense double-precision eigh is off by about 1.2e-14 here
        beta, omega0, ncut = 0.75, 0.7, 23
        f = ncut + 1
        with mpmath.workdps(40):
            h = mpmath.zeros(2 * f, 2 * f)
            for n in range(f):
                h[n, n] = h[f + n, f + n] = n
                h[n, f + n] = h[f + n, n] = mpmath.mpf(omega0) / 2
                if n + 1 < f:
                    x = mpmath.mpf(beta) * mpmath.sqrt(n + 1)
                    h[n, n + 1] = h[n + 1, n] = x
                    h[f + n, f + n + 1] = h[f + n + 1, f + n] = -x
            energies, modes = mpmath.eigsy(h)
            phases = [mpmath.expj(-2 * mpmath.pi * e) for e in energies]
            truth = np.array([
                [complex(mpmath.fsum(modes[r, a] * phases[a] * modes[p * f, a]
                                     for a in range(2 * f)))
                 for r in range(2 * f)]
                for p in (0, 1)
            ]).reshape(2, 2, f)
        params, trunc = ModelParams(beta, omega0=omega0), TruncationSpec(ncut)
        rails = evolved_rails(build_hamiltonian(params, trunc), Vacuum(), 2 * PI)
        assert np.max(np.abs(rails - truth)) <= 2e-15

    @staticmethod
    def _check_propagated_components(params, field, grid):
        # the maps against the weighted Grams of the propagated components
        trunc = TruncationSpec(default_ncut(field, params.beta))
        prop = build_hamiltonian(params, trunc)
        f = prop.fock_dim
        weights, vecs, _ = dense_components(field, trunc)
        stack, _ = _maps(prop, field, grid)
        for ops, wt in zip(stack, grid):
            rails = []
            for i in (0, 1):
                psi0 = np.zeros((prop.dim, vecs.shape[1]), dtype=complex)
                psi0[i * f:(i + 1) * f] = vecs
                rails.append(propagate_state(prop, psi0, wt).reshape(2, f, -1))
            rails = np.array(rails)  # [initial rail, qubit out, field out, component]
            ref = np.einsum("ipmn,kqmn,n->ikpq", rails, rails.conj(), weights)
            assert np.max(np.abs(ops - ref)) <= 1e-12

    def test_detuned_thermal_matches_propagated_components(self, rng):
        self._check_propagated_components(ModelParams(0.4, omega0=0.3), Thermal(2.0),
                                          rng.uniform(0.0, 2 * PI, size=3))

    @pytest.mark.parametrize("field", [Vacuum(), Number(5), Coherent(1 + 0.5j)], ids=str)
    def test_detuned_maps_match_propagated_components(self, field, rng):
        # every mirrored (1, 0) block against the propagated components
        self._check_propagated_components(ModelParams(0.4, omega0=0.7), field,
                                          rng.uniform(0.0, 2 * PI, size=3))

    @pytest.mark.parametrize("omega0", [0.0, 0.7])
    @pytest.mark.parametrize("field", [Coherent(1.5), Coherent(1 + 0.5j), Coherent(0.5j)],
                             ids=str)
    def test_coherent_maps_fold_the_gram_into_the_phases(self, field, omega0, rng):
        # the folded maps against the propagated components and against the
        # dense sums of the blocks S^st, whose field Grams the kernel never forms
        params, grid = ModelParams(0.4, omega0=omega0), rng.uniform(0.0, 2 * PI, size=3)
        self._check_propagated_components(params, field, grid)
        prop = build_hamiltonian(params, TruncationSpec(default_ncut(field, 0.4)))
        ops, _ = _maps(prop, field, grid)
        dense = dense_maps(prop, field, grid)
        assert np.max(np.abs(ops - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_long_grid_is_evaluated_in_bounded_blocks(self, monkeypatch):
        field = Thermal(2.0)
        trunc = TruncationSpec(617)
        prop = build_hamiltonian(ModelParams(0.1), trunc)
        kernel = _MapKernel(prop, field)
        assert kernel.block * kernel.energies.size * 16 <= _PHASE_BLOCK_BYTES
        sizes = []

        def spy(self, omega_ts):
            sizes.append(len(omega_ts))
            return np.zeros((len(omega_ts), 2, 2, 2, 2), dtype=complex)

        monkeypatch.setattr(_MapKernel, "_block_ops", spy)
        grid = np.linspace(0.0, 2 * PI, 20001)
        assert sum(len(ops) for ops in kernel.blocks(grid)) == len(grid)
        assert sum(sizes) == len(grid)
        assert max(sizes) == kernel.block < len(grid)

    @pytest.mark.parametrize("omega0, beta, ncut", [
        pytest.param(0.0, 0.3, None, id="0.0"),
        pytest.param(0.7, 0.3, None, id="0.7"),
        pytest.param(0.0, 0.1, 200, id="0.0-beta=0.1-ncut=200"),
    ])
    @pytest.mark.parametrize("field", [Vacuum(), Number(5), Thermal(2.0)], ids=str)
    def test_unit_fock_rows_give_the_bits_of_the_products(self, field, omega0, beta, ncut):
        # sliced overlaps, the signed Gram and the shared products against
        # the dense sums of every chain-pair block over the dense reference
        # components np.eye(F)[:, rows]: the sliced Grams sum the even and
        # odd Fock rows apart, a chain with itself mirrors its upper
        # triangle and every (1, 0) block is mirrored.  At beta = 0.1 and
        # ncut 200 each chain keeps only the eigenvectors whose support
        # meets the run (65, 65 and 116 of 201)
        trunc = TruncationSpec(ncut if ncut else default_ncut(field, beta))
        prop = build_hamiltonian(ModelParams(beta, omega0=omega0), trunc)
        grid = np.linspace(0.0, 2 * PI, 11)
        kernel = _MapKernel(prop, field)
        (sliced,) = kernel.blocks(grid)
        dense = dense_maps(prop, field, grid)
        assert np.max(np.abs(sliced - dense)) <= 1e-15 * np.max(np.abs(dense))
        if ncut:
            assert max(kernel.kept) < prop.fock_dim

    @pytest.mark.parametrize("solver", ["dstevd", "eigh"])
    @pytest.mark.parametrize("omega0", [0.0, 0.7])
    @pytest.mark.parametrize("f, tail_tol, beta", [
        pytest.param(22, 0.5, 0.3, id="22-0.5"),
        pytest.param(313, 1e-5, 0.3, id="313-1e-05"),
        pytest.param(1235, 1e-12, 0.3, id="1235-1e-12"),
        pytest.param(313, 1e-5, 0.1, id="313-1e-05-beta=0.1"),
        pytest.param(1235, 1e-12, 0.1, id="1235-1e-12-beta=0.1"),
        pytest.param(22, 0.5, 0.0, id="22-0.5-beta=0"),
        pytest.param(1235, 1e-12, 0.0, id="1235-1e-12-beta=0"),
    ])
    def test_split_grams_match_the_direct_products(self, f, tail_tol, beta, omega0, solver,
                                                   monkeypatch):
        # the factors from even and odd Fock rows against V' P V and the
        # four rail products formed directly; at F = 1235, K = 705 thermal
        # components as in the doubled run of the README's ESD example.
        # At beta = 0.1 most entries of the eigenvectors are exact zeros
        # (91 % at F = 1235), so the factors skip most products; at beta = 0
        # the eigenvectors are +-I and a chain with itself skips every one
        # off the diagonal
        if solver == "eigh":
            monkeypatch.setattr(specialfn, "_lapack_dstevd", lambda: None)
        elif specialfn._lapack_dstevd() is None:
            pytest.skip("numpy's LAPACK exports no dstevd")
        trunc = TruncationSpec(f - 1, tail_tol)
        prop = build_hamiltonian(ModelParams(beta, omega0=omega0), trunc)
        assert prop.eigensolver == solver
        rails = rail_grams([v for _, v in prop.distinct_chains])
        for field in [Vacuum(), Number(5), Thermal(25.0), Coherent(1 + 0.5j), Coherent(0.5j)]:
            kernel = _MapKernel(prop, field)
            self._check_factors(prop, field, kernel, rails)
            if beta == 0.0:
                assert all(np.array_equal(factor, np.diag(factor.diagonal()))
                           for s, t, factor, *_ in kernel.terms if s == t), field
            del kernel

    @staticmethod
    def _check_factors(prop, field, kernel, rails):
        """Each term's one factor of ``kernel`` against the direct products,
        with ``rails`` the rail Grams of :func:`rail_grams`.

        S^st = (V_s' X V_t) o (Y^i_s W Y^k_t^H) / 4: each factor against
        the rail Gram times, for a unit-Fock field, the direct field Gram
        (Y^u_s W P^(i + k) Y^u_t' from its even and odd Fock rows), and each
        (0, 1) factor, transposed, against the mirrored (1, 0) block; a
        coherent column's factors are the rail Grams alone.  At omega0 = 0
        the one factor is S = (V' P V) o G with G = Y^u W Y^d^H, without
        the 1/4.  A unit-Fock field keeps the columns of each chain that
        span its eigenvectors nonzero on the run: the factors are the kept
        block, and the direct Gram is exactly 0 in every dropped row and
        column.  A chain with itself gives an exactly symmetric factor."""
        f = prop.fock_dim
        modes = [v for _, v in prop.distinct_chains]
        one, unit = len(modes) == 1, not isinstance(field, Coherent)
        parity = oracle._parity(f)
        weights, vecs, _ = dense_components(field, prop.trunc)
        y = [(oracle._dot(v.T, vecs), oracle._dot(v.T, parity[:, None] * vecs)) for v in modes]
        spans = [slice(0, f)] * len(modes)
        if unit:
            run = field_components(field, prop.trunc)[1]
            spans = [slice(kept[0], kept[-1] + 1) for kept in (
                np.flatnonzero(np.any(v[run] != 0.0, axis=0)) for v in modes)]
        assert kernel.kept == tuple(span.stop - span.start for span in spans), field
        dropped = [np.ones(f, dtype=bool) for _ in spans]
        for out, span in zip(dropped, spans):
            out[span] = False
        grams = {}

        def direct(s, t, flip, gram):
            rail = rails[s, t, flip][spans[s], spans[t]]
            if not unit:
                return rail
            if (s, t, gram) not in grams:
                # the like-rail Gram (i = k = u) or the unlike-rail one
                full = ((y[s][0] * (weights if one else 0.25 * weights))
                        @ y[t][int(gram or one)].conj().T)
                assert not np.any(full[dropped[s]]) and not np.any(full[:, dropped[t]]), field
                grams[s, t, gram] = full[spans[s], spans[t]]
            return rail * grams[s, t, gram]

        def check(got, expected):
            error = np.subtract(got, expected)
            assert np.max(np.abs(error, out=error)) <= 1e-13 * np.max(np.abs(expected)), field

        keys = [key for key, _ in oracle._map_entries(one, unit)]
        assert len(kernel.terms) == len(keys) == (1 if one else 8 if unit else 4), field
        for (s, t, flip, gram), (s_, t_, factor, *_) in zip(keys, kernel.terms):
            assert (s, t) == (s_, t_) and np.isrealobj(factor), field
            check(factor, direct(s, t, flip, gram))
            if s != t:  # the mirrored (1, 0) block, S^ik_10 = (S^ki_01)^H
                check(factor.T, direct(t, s, flip, gram))
            else:
                assert np.array_equal(factor, factor.T), field

    @pytest.mark.parametrize("field", [Thermal(25.0), Coherent(1 + 0.5j)], ids=str)
    def test_factor_finds_supports_in_any_column_order(self, field, rng):
        # the eigenvectors in a random order, so the Fock rows each chunk
        # reaches are neither monotone nor banded: S still matches V' P V o G
        # on the kept span (V' P V for a coherent column, whose G is folded
        # into the phases)
        trunc = TruncationSpec(617)
        ((energies, v),) = build_hamiltonian(ModelParams(0.1), trunc).distinct_chains
        order = rng.permutation(len(energies))
        chain = (energies[order], v[:, order])
        prop = oracle.SubsystemPropagator(trunc, (chain, chain), "dstevd")
        self._check_factors(prop, field, _MapKernel(prop, field), rail_grams([chain[1]]))

    @classmethod
    def _check_banded_blocks(cls, prop, field):
        """The kernel's maps on a grid against the dense chain-pair sums
        sum_st phi_s' S^st phi_t* of ``dense_maps`` (at omega0 = 0 the two
        chains are one), and its factors as :meth:`_check_factors` checks
        them.  Returns the kernel."""
        grid = np.concatenate([np.linspace(0.0, 2 * PI, 9), [0.3, 1.7, 5.1]])
        kernel = _MapKernel(prop, field)
        (ops,) = kernel.blocks(grid)
        expected = dense_maps(prop, field, grid)
        assert np.max(np.abs(ops - expected)) <= 1e-13 * np.max(np.abs(expected)), field
        cls._check_factors(prop, field, kernel, rail_grams([v for _, v in prop.distinct_chains]))
        return kernel

    @pytest.mark.parametrize("solver", ["dstevd", "eigh"])
    @pytest.mark.parametrize("field, beta, ncut, tail_tol, omega0", [
        pytest.param(Vacuum(), 0.3, 21, 1e-10, 0.0, id="vacuum-22"),
        pytest.param(Number(5), 0.3, None, 1e-10, 0.0, id="number5"),
        pytest.param(Thermal(2.0), 0.1, 172, 1e-10, 0.0, id="thermal2-173"),
        pytest.param(Thermal(25.0), 0.1, 1234, 1e-12, 0.0, id="thermal25-1235"),
        pytest.param(Coherent(1 + 0.5j), 0.3, None, 1e-10, 0.0, id="coherent"),
        pytest.param(Vacuum(), 0.3, 21, 1e-10, 0.7, id="vacuum-22-omega0=0.7"),
        pytest.param(Number(5), 0.3, None, 1e-10, 0.7, id="number5-omega0=0.7"),
        pytest.param(Thermal(2.0), 0.1, 172, 1e-10, 0.7, id="thermal2-173-omega0=0.7"),
        pytest.param(Thermal(25.0), 0.1, 1234, 1e-12, 0.7, id="thermal25-1235-omega0=0.7",
                     marks=pytest.mark.slow),
        pytest.param(Coherent(1 + 0.5j), 0.3, None, 1e-10, 0.7, id="coherent-omega0=0.7"),
    ])
    def test_banded_blocks_match_the_dense_form(self, field, beta, ncut, tail_tol, omega0,
                                                solver, monkeypatch):
        # the factors are formed in chunks of max(F // 8, 128) rows; each
        # chunk keeps the columns its rows reach and the phase blocks
        # multiply only those
        if solver == "eigh":
            monkeypatch.setattr(specialfn, "_lapack_dstevd", lambda: None)
        elif specialfn._lapack_dstevd() is None:
            pytest.skip("numpy's LAPACK exports no dstevd")
        trunc = TruncationSpec(ncut if ncut else default_ncut(field, beta), tail_tol)
        prop = build_hamiltonian(ModelParams(beta, omega0=omega0), trunc)
        assert prop.eigensolver == solver
        kernel = self._check_banded_blocks(prop, field)
        f = prop.fock_dim
        if f <= 128:  # one chunk: one band per term, over the columns its rows reach
            assert all(len(bands) == 1 for _, _, _, bands, *_ in kernel.terms)
            if not omega0:
                assert kernel.terms[0][3] == [(slice(0, f), slice(0, f))]
        if isinstance(field, Thermal) and f == 1235:
            k = len(range(f)[field_components(field, trunc)[1]])
            assert k == 705
            # each chain keeps the eigenvectors whose support meets the run,
            # 795 of the 1235 at both omega0, and the bands of the
            # divide-and-conquer eigenvectors skip columns inside the kept span
            assert max(kernel.kept) < f
            if solver == "dstevd":
                assert any(cols.stop - cols.start < kernel.kept[t]
                           for _, t, _, bands, *_ in kernel.terms for _, cols in bands)

    @pytest.mark.parametrize("field, omega0", [
        pytest.param(Thermal(25.0), 0.0, id="thermal:nbar=25"),
        pytest.param(Coherent(1 + 0.5j), 0.0, id="coherent:alpha=1,0.5"),
        pytest.param(Thermal(25.0), 0.7, id="thermal:nbar=25-omega0=0.7"),
        pytest.param(Coherent(1 + 0.5j), 0.7, id="coherent:alpha=1,0.5-omega0=0.7"),
    ])
    def test_banded_blocks_in_any_column_order(self, field, omega0, rng):
        # the random column order of test_factor_finds_supports_in_any_column_order,
        # one order per chain
        trunc = TruncationSpec(617)
        chains = []
        for energies, v in build_hamiltonian(ModelParams(0.1, omega0=omega0),
                                             trunc).distinct_chains:
            order = rng.permutation(len(energies))
            chains.append((energies[order], v[:, order]))
        prop = oracle.SubsystemPropagator(trunc, (chains[0], chains[-1]), "dstevd")
        self._check_banded_blocks(prop, field)

    @pytest.mark.parametrize(
        "field, omega0, products",
        [(Thermal(2.0), 0.0, 1), (Coherent(1 + 0.5j), 0.0, 1),
         (Thermal(2.0), 0.7, 8), (Coherent(1 + 0.5j), 0.7, 4)],
        ids=str,
    )
    def test_entries_share_products(self, field, omega0, products, monkeypatch):
        # 28 signed block terms at omega0 != 0; for a unit-Fock field M_dd
        # takes every product of M_uu, every (1, 0) block is mirrored, not
        # multiplied, and a coherent field's products are its rail Grams,
        # each taking both of its overlaps at once (double width off
        # omega0 = 0).  Each term holds one real factor
        trunc = TruncationSpec(default_ncut(field, 0.3))
        prop = build_hamiltonian(ModelParams(0.3, omega0=omega0), trunc)
        kernel = _MapKernel(prop, field)
        assert len(kernel.terms) == products
        assert sum(len(targets) + len(mirrored) for *_, targets, mirrored in kernel.terms) == (
            1 if omega0 == 0 else 28)
        # the factors are the kernel's own: the eigenvectors can be released
        modes = [v for _, v in prop.distinct_chains]
        factors = [factor for _, _, factor, *_ in kernel.terms]
        assert all(np.isrealobj(factor) for factor in factors)
        assert not any(np.shares_memory(a, v) for a in factors for v in modes)
        # one product of a factor per term and phase block
        grid = np.linspace(0.0, 2 * PI, 7)
        shapes = []

        class Numpy:  # numpy, with a spy on the kernel's matrix products
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(a, b, **kwargs):
                shapes.append((a.shape, b.size // 2))  # b holds (re, im) pairs
                return np.matmul(a, b, **kwargs)

        monkeypatch.setattr(oracle, "np", Numpy())
        kernel._block_ops(grid)
        monkeypatch.undo()
        f = prop.fock_dim
        width = 2 if isinstance(field, Coherent) and omega0 else 1
        products_of_factors = [size for shape, size in shapes if shape[0] > 2]
        assert len(products_of_factors) == products
        if isinstance(field, Coherent):
            assert products_of_factors == [width * f * len(grid)] * products
            # the factors do not depend on the coherent amplitude
            other = _MapKernel(prop, Coherent(-0.3j))
            assert all(np.array_equal(a[2], b[2]) for a, b in zip(kernel.terms, other.terms))


class TestTrimmedChains:
    """At every omega0 a unit-Fock field's kernel keeps, of each distinct
    chain, the columns that span the eigenvectors nonzero on its run of
    Fock rows; ``OracleTrace.kept_modes`` says how many entered the maps."""

    @staticmethod
    def _trace(params, field, grid, trunc=None):
        return concurrence_trace(params, field, make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X),
                                 grid, trunc)

    @pytest.mark.parametrize("solver", ["dstevd", "eigh"])
    def test_trimmed_maps_match_the_untrimmed_sums(self, solver, monkeypatch):
        # thermal(5) at the doubled cutoff of the detuned workload, ncut 312
        # and K = 152: the column path multiplies V' C of the dense (F, K)
        # components and folds them into the phases, so it sums sum_st
        # phi_s' S^st phi_t* over every eigenvector of both chains, in
        # blocks of fewer points
        if solver == "eigh":
            monkeypatch.setattr(specialfn, "_lapack_dstevd", lambda: None)
        elif specialfn._lapack_dstevd() is None:
            pytest.skip("numpy's LAPACK exports no dstevd")
        field, trunc = Thermal(5.0), TruncationSpec(312, 1e-12)
        params = ModelParams(0.3, omega0=0.7)
        prop = build_hamiltonian(params, trunc)
        assert prop.eigensolver == solver
        grid = np.linspace(0.0, 2 * PI, 33)
        (trimmed,) = _MapKernel(prop, field).blocks(grid)
        trace = self._trace(params, field, grid[:1], trunc)
        assert trace.eigensolver == solver
        assert trace.components == 152 and max(trace.kept_modes) < trace.sector_dim
        monkeypatch.setattr(oracle, "field_components", dense_components)
        untrimmed = np.concatenate(list(_MapKernel(prop, field).blocks(grid)))
        assert np.max(np.abs(trimmed - untrimmed)) <= 1e-13 * np.max(np.abs(untrimmed))

    def test_uncoupled_number_state_keeps_one_eigenvector_per_chain(self):
        # at beta = 0 the eigenvectors are unit Fock vectors: each chain keeps
        # the one on Fock row 2, and the maps keep their unit trace
        params, field = ModelParams(0.0, omega0=0.7), Number(2)
        grid = np.linspace(0.0, 2 * PI, 9)
        trace = self._trace(params, field, grid)
        assert trace.kept_modes == (1, 1)
        assert np.max(np.abs(trace.values - 1.0)) <= 1e-12
        ops, tail = _maps(build_hamiltonian(params, TruncationSpec(trace.ncut)), field, grid)
        assert tail == 0.0
        for i in (0, 1):
            assert np.max(np.abs(np.trace(ops[:, i, i], axis1=1, axis2=2) - 1.0)) <= 1e-15

    def test_zero_occupation_thermal_is_a_run_of_one_row(self):
        params, grid = ModelParams(0.3, omega0=0.7), np.linspace(0.0, 2 * PI, 9)
        thermal, vacuum = (self._trace(params, field, grid, TruncationSpec(62))
                           for field in (Thermal(0.0), Vacuum()))
        assert thermal.components == 1
        assert thermal.kept_modes == vacuum.kept_modes
        assert max(vacuum.kept_modes) < vacuum.sector_dim
        assert np.array_equal(thermal.values, vacuum.values)

    def test_coherent_field_keeps_every_eigenvector(self):
        trace = self._trace(ModelParams(0.3, omega0=0.7), Coherent(1 + 0.5j),
                            np.linspace(0.0, 2 * PI, 5))
        assert trace.kept_modes == (trace.sector_dim, trace.sector_dim)

    def test_omega0_zero_records_its_one_chain(self):
        trace = self._trace(ModelParams(0.3), Thermal(1.0), np.linspace(0.0, 2 * PI, 5))
        assert trace.kept_modes == (trace.sector_dim,)
        # the one chain is trimmed as each chain is off omega0 = 0: 65 of 201
        trace = self._trace(ModelParams(0.1), Vacuum(), np.linspace(0.0, 2 * PI, 5),
                            TruncationSpec(200))
        assert len(trace.kept_modes) == 1 and trace.kept_modes[0] < trace.sector_dim == 201

    def test_witness_on_trimmed_chains(self, monkeypatch):
        # number(5) at ncut 62 keeps 90-92 % of each chain, as the witness
        # records; it matches the untrimmed column path
        params, field, trunc = ModelParams(0.5, omega0=0.7), Number(5), TruncationSpec(62)
        grid = np.linspace(0.0, 3.0, 5)
        witness = field_field_witness(params, field, BellState.PHI_PLUS, grid, trunc)
        assert witness.sector_dim == 63 and witness.doubled_ncut == 124
        assert witness.components == 1 and witness.tail_mass == 0.0
        assert witness.eigensolver in ("dstevd", "eigh")
        assert all(0.85 * 63 <= kept < 63 for kept in witness.kept_modes), witness.kept_modes
        assert np.max(witness.negativity) > 0.1
        monkeypatch.setattr(oracle, "field_components", dense_components)
        untrimmed = field_field_witness(params, field, BellState.PHI_PLUS, grid, trunc)
        for name in ("negativity", "qubit_purity", "field_purity"):
            assert np.max(np.abs(getattr(witness, name) - getattr(untrimmed, name))) <= 1e-13

    def test_empty_grid(self):
        params, field = ModelParams(0.3, omega0=0.7), Thermal(1.0)
        trace = self._trace(params, field, [], TruncationSpec(80))
        assert trace.values.shape == (0,) and trace.doubled_ncut == 0
        assert max(trace.kept_modes) < trace.sector_dim
        kernel = _MapKernel(build_hamiltonian(params, TruncationSpec(trace.ncut)), field)
        assert list(kernel.blocks(np.array([]))) == []
        assert kernel._block_ops(np.array([])).shape == (0, 2, 2, 2, 2)


class TestTwoQubitReduced:
    @staticmethod
    def _reduced(beta, field, initial, omega_ts):
        trunc = TruncationSpec(default_ncut(field, beta))
        ops, _ = _maps(build_hamiltonian(ModelParams(beta), trunc), field,
                       omega_ts)
        return _reduced_stack(ops, ops, initial)

    def test_corner_matches_closed_form(self, rng):
        initial = make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X)
        grid = rng.uniform(0.0, 2 * PI, size=4)
        for q, wt in zip(self._reduced(0.4, Vacuum(), initial, grid), grid):
            closed = two_qubit_offdiagonal(BellState.PHI_PLUS, Vacuum(), 0.4, wt)
            assert abs(q[0, 3] - closed) <= 1e-9

    @pytest.mark.parametrize(
        "field", [Vacuum(), Coherent(1.0 + 0.5j), Number(3), Thermal(1.0)], ids=str)
    def test_every_bell_element_matches_the_reconstruction(self, field):
        # Phi+ and Psi+ sit in the sigma_x corner, Phi- and Psi- in the middle
        grid = np.linspace(0.4, 6.0, 7)
        params = ModelParams(0.4)
        for bell in BellState:
            initial = make_bell(bell, QubitBasis.SIGMA_X)
            qmats, _, _ = oracle._run(params, field, grid, truncation(field, 0.4),
                                     lambda ops: _reduced_stack(ops, ops, initial))
            corner = bell in (BellState.PHI_PLUS, BellState.PSI_PLUS)
            element = qmats[:, 0, 3] if corner else qmats[:, 1, 2]
            closed = two_qubit_offdiagonal(bell, field, 0.4, grid)
            assert np.max(np.abs(element - closed)) <= 1e-10, bell

    def test_psi_plus_corner_magnitude(self):
        initial = make_bell(BellState.PSI_PLUS, QubitBasis.SIGMA_X)
        (q,) = self._reduced(0.4, Vacuum(), initial, [1.3])
        closed = two_qubit_offdiagonal(BellState.PSI_PLUS, Vacuum(), 0.4, 1.3)
        assert abs(abs(q[0, 3]) - abs(closed)) <= 1e-9

    def test_diagonal_constant_in_time(self, rng):
        initial = make_esd_mixture()
        for q in self._reduced(0.5, Coherent(0.7), initial, rng.uniform(0.0, 2 * PI, size=4)):
            np.testing.assert_allclose(np.diag(q).real, np.diag(initial.rho).real, atol=1e-10)

    def test_esd_mixture_validates_derived_formula(self):
        # the validation gate for the derived mixed-state concurrence law
        grid = np.linspace(0.0, 2 * PI, 17)
        trace = concurrence_trace(
            ModelParams(0.5), Thermal(2.0), make_esd_mixture(), grid
        )
        closed = np.asarray(esd_concurrence_closed(0.5, 2.0, grid))
        assert np.max(np.abs(trace.values - closed)) <= 1e-7

    def test_requires_sigma_x_basis(self, no_allocation):
        # checked before the ncut-617 eigensolve, and on an empty grid too
        initial = make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_Z)
        for grid in ([1.0], []):
            with pytest.raises(ValueError, match="sigma_x"):
                concurrence_trace(ModelParams(0.1), Thermal(25.0), initial, grid)

    def test_output_passes_state_invariants(self, rng):
        # _reduced_stack checks hermiticity and trace; positivity is checked
        # where the stack is diagonalized (TestOneEigensolvePerState)
        initial = make_bell(BellState.PHI_MINUS, QubitBasis.SIGMA_X)
        (q,) = self._reduced(0.6, Thermal(1.0), initial, [rng.uniform(0, 2 * PI)])
        assert abs(np.trace(q) - 1.0) <= 1e-12


class TestStackedReduction:
    """The per-block reduction and Wootters give the bits of a one-point
    ``_reduced_stack`` + one-matrix ``wootters_concurrences``."""

    CASES = [
        (Vacuum(), make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X), 0.5, 0.0),
        (Coherent(1 + 0.5j), make_bell(BellState.PSI_MINUS, QubitBasis.SIGMA_X), 0.5, 0.0),
        (Number(5), make_bell(BellState.PHI_MINUS, QubitBasis.SIGMA_X), 0.3, 0.0),
        (Thermal(2.0), make_bell(BellState.PSI_PLUS, QubitBasis.SIGMA_X), 0.3, 0.0),
        (Thermal(2.0), make_esd_mixture(), 0.5, 0.0),
        (Thermal(1.0), make_esd_mixture(), 0.3, 0.7),
    ]

    @staticmethod
    def _block(field, beta, omega0, grid):
        params = ModelParams(beta, omega0=omega0)
        trunc = TruncationSpec(default_ncut(field, beta))
        kernel = _MapKernel(build_hamiltonian(params, trunc), field)
        (ops,) = kernel.blocks(grid)
        return ops

    @pytest.mark.parametrize("field, initial, beta, omega0", CASES)
    def test_stack_equals_per_point(self, field, initial, beta, omega0):
        # w t = 0 and 2 pi give rank-1 states for the pure Bell inputs
        grid = np.concatenate([[0.0, 2 * PI], np.linspace(0.1, 6.0, 23)])
        ops = self._block(field, beta, omega0, grid)
        qmats = _reduced_stack(ops, ops, initial)
        values, spectra = wootters_concurrences(qmats, QubitBasis.SIGMA_X)
        for i in range(len(grid)):
            (q,) = _reduced_stack(ops[i:i + 1], ops[i:i + 1], initial)
            value, spectrum = wootters(QubitPairState(q, QubitBasis.SIGMA_X))
            assert np.array_equal(qmats[i], q)
            assert values[i] == value
            assert np.array_equal(spectra[i], spectrum)

    def test_one_point_and_empty_block(self):
        initial = make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X)
        ops = self._block(Thermal(1.0), 0.4, 0.0, np.array([0.0, 1.3]))
        one = _reduced_stack(ops[1:], ops[1:], initial)
        assert one.shape == (1, 4, 4)
        assert np.array_equal(one, _reduced_stack(ops, ops, initial)[1:])
        values, spectra = wootters_concurrences(one, QubitBasis.SIGMA_X)
        assert values.shape == (1,) and spectra.shape == (1, 4)
        empty = _reduced_stack(ops[:0], ops[:0], initial)
        assert empty.shape == (0, 4, 4)
        values, spectra = wootters_concurrences(empty, QubitBasis.SIGMA_X)
        assert values.shape == (0,) and spectra.shape == (0, 4)

    def test_concurrence_trace_uses_the_stack(self):
        field, initial, beta, _ = self.CASES[4]
        grid = np.linspace(0.0, 2 * PI, 17)
        trace = concurrence_trace(ModelParams(beta), field, initial, grid)
        ops = self._block(field, beta, 0.0, grid)
        expected, _ = wootters_concurrences(_reduced_stack(ops, ops, initial), QubitBasis.SIGMA_X)
        assert np.array_equal(trace.values, expected)

    @pytest.mark.parametrize("member", [0, 2])
    def test_stack_validation_matches_single_state(self, member):
        good = make_esd_mixture().rho
        negative = good.copy()
        negative[0, 3] = negative[3, 0] = 0.5  # eigenvalue 3/8 - 1/2 < 0
        bad = {
            "Hermitian": good + np.diag([0.0, 1e-9j, 0.0, 0.0]),
            "trace": good * 1.001,
            "positive": negative,
        }
        for word, rho in bad.items():
            stack = np.array([good, good, good])
            stack[member] = rho
            with pytest.raises(ValueError, match=word) as one:
                validate_density_matrices(rho[None])
            with pytest.raises(ValueError) as many:
                validate_density_matrices(stack)
            assert str(many.value) == str(one.value)
        # Wootters' formula checks positivity on its own eigh, with the message
        stack = np.array([good, good, good])
        stack[member] = negative
        with pytest.raises(ValueError) as measured:
            wootters_concurrences(stack, QubitBasis.SIGMA_X)
        assert str(measured.value) == str(one.value)


class TestOneEigensolvePerState:
    """A trace's states at its cutoff are diagonalized once, by Wootters'
    formula, which checks their positivity on that eigh before the
    doubled-cutoff re-run starts; the re-run's states go to
    ``validate_density_matrices``, and ``_reduced_stack`` checks every
    stack Hermitian (a NaN fails) and of unit trace."""

    PARAMS, FIELD, INITIAL = ModelParams(0.4), Thermal(1.0), make_esd_mixture()
    GRID = np.linspace(0.0, 2 * PI, 17)

    @staticmethod
    def _negative():
        rho = make_esd_mixture().rho.copy()
        rho[0, 3] = rho[3, 0] = 0.5  # Hermitian, unit trace, eigenvalue 3/8 - 1/2
        return rho

    @staticmethod
    def _count_solves(monkeypatch):
        """The cutoffs of the eigensolves the oracle starts, as they start."""
        solves = []
        build = oracle.build_hamiltonian

        def counting(params, trunc):
            solves.append(trunc.ncut)
            return build(params, trunc)

        monkeypatch.setattr(oracle, "build_hamiltonian", counting)
        return solves

    def _trace(self):
        return concurrence_trace(self.PARAMS, self.FIELD, self.INITIAL, self.GRID)

    @pytest.mark.parametrize("run", [1, 2], ids=["main", "doubled"])
    def test_non_positive_state_is_caught(self, run, monkeypatch):
        solves = self._count_solves(monkeypatch)
        reduce = oracle._reduced_stack

        def seeding(ops_a, ops_b, initial):
            q = reduce(ops_a, ops_b, initial)
            if len(solves) == run:
                q[1] = self._negative()
            return q

        monkeypatch.setattr(oracle, "_reduced_stack", seeding)
        with pytest.raises(ValueError) as expected:
            validate_density_matrices(self._negative()[None])
        with pytest.raises(ValueError) as caught:
            self._trace()
        assert str(caught.value) == str(expected.value)
        assert "positive semidefinite" in str(caught.value)
        ncut = truncation(self.FIELD, self.PARAMS.beta).ncut
        assert solves == [ncut, 2 * ncut][:run]  # the main run: before the doubled eigensolve

    @pytest.mark.parametrize("run", [1, 2], ids=["main", "doubled"])
    def test_nan_map_is_not_hermitian(self, run, monkeypatch):
        solves = self._count_solves(monkeypatch)
        block_ops = _MapKernel._block_ops

        def poisoned(kernel, omega_ts):
            ops = block_ops(kernel, omega_ts)
            if len(solves) == run:
                ops[0, 0, 1, 0, 1] = np.nan
            return ops

        monkeypatch.setattr(_MapKernel, "_block_ops", poisoned)
        with pytest.raises(ValueError, match="density matrix not Hermitian: deviation nan"):
            self._trace()
        assert len(solves) == run

    def test_one_hermitian_eigensolve_per_state(self, monkeypatch):
        # 257 main-run states take one stacked eigh, in one measured block, and
        # the 9 states of the re-run one stacked eigvalsh
        grid = np.linspace(0.0, 2 * PI, 257)
        solved = {"eigh": 0, "eigvalsh": 0}
        measured = []

        def counting(name):
            solve = getattr(np.linalg, name)

            def spy(a, *args, **kwargs):
                if a.ndim == 3 and a.shape[1:] == (4, 4):
                    solved[name] += len(a)
                return solve(a, *args, **kwargs)

            return spy

        for name in solved:
            monkeypatch.setattr(np.linalg, name, counting(name))
        measure = oracle.wootters_concurrences

        def spy(rhos, basis):
            measured.append(len(rhos))
            return measure(rhos, basis)

        monkeypatch.setattr(oracle, "wootters_concurrences", spy)
        trace = concurrence_trace(self.PARAMS, self.FIELD, self.INITIAL, grid)
        monkeypatch.undo()
        assert trace.doubling_points == 9
        assert solved == {"eigh": 257, "eigvalsh": 9}
        assert measured == [257]
        ops = TestStackedReduction._block(self.FIELD, self.PARAMS.beta, 0.0, grid)
        expected, _ = wootters_concurrences(_reduced_stack(ops, ops, self.INITIAL),
                                            QubitBasis.SIGMA_X)
        assert np.array_equal(trace.values, expected)

    @pytest.mark.parametrize("points, blocks", [(4097, [4096, 1]), (5, [5])])
    def test_long_trace_measured_in_bounded_blocks(self, points, blocks, monkeypatch):
        measured = []
        measure = oracle.wootters_concurrences

        def spy(rhos, basis):
            measured.append(len(rhos))
            return measure(rhos, basis)

        monkeypatch.setattr(oracle, "wootters_concurrences", spy)
        grid = np.linspace(0.0, 2 * PI, points)
        trace = concurrence_trace(ModelParams(0.5), Vacuum(), self.INITIAL, grid)
        assert measured == blocks
        assert trace.values.shape == (points,)
        assert oracle._WOOTTERS_POINT_BYTES * blocks[0] <= _PHASE_BLOCK_BYTES

    def test_witness_keeps_its_blocks(self, monkeypatch):
        measured = []
        measure = oracle._witness_values

        def spy(grams, rails, c2):
            measured.append(len(grams))
            return measure(grams, rails, c2)

        monkeypatch.setattr(oracle, "_witness_values", spy)
        grid = np.linspace(0.0, 2 * PI, 257)
        field_field_witness(ModelParams(0.75), Vacuum(), BellState.PHI_PLUS, grid)
        assert measured == [256, 1]


class TestConcurrenceTrace:
    def test_vacuum_grid_against_closed_form(self):
        grid = np.linspace(0.0, 2 * PI, 33)
        trace = concurrence_trace(
            ModelParams(0.5),
            Vacuum(),
            make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X),
            grid,
        )
        closed = concurrence_closed(BellState.PHI_PLUS, Vacuum(), 0.5, grid)
        assert np.max(np.abs(trace.values - closed)) <= 1e-7
        assert trace.doubling_error <= 1e-8

    def test_truncation_error_not_wrong_number(self):
        grid = np.linspace(0.0, 2 * PI, 5)
        with pytest.raises(TruncationError):
            concurrence_trace(
                ModelParams(0.1),
                Coherent(3.0),
                make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X),
                grid,
                trunc=TruncationSpec(2),
            )

    def test_doubling_check_detects_coarse_cutoff(self):
        # a cutoff that truncates real dynamics must be flagged, not silently used
        grid = np.linspace(0.0, 2 * PI, 5)
        with pytest.raises(TruncationError):
            concurrence_trace(
                ModelParams(1.0),
                Vacuum(),
                make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X),
                grid,
                trunc=TruncationSpec(3, tail_tol=0.5),
                convergence_tol=1e-10,
            )

    @pytest.mark.parametrize("nbar, beta, mixture", [
        (1.0, 0.1, False), (2.0, 0.5, False), (2.0, 0.5, True), (1.0, 0.25, True)])
    def test_doubling_error_sees_the_mixture_tail(self, nbar, beta, mixture):
        # The closed-form error of a thermal trace, about 2 x tail_mass,
        # comes from the truncated mixture.  A re-run with the same K
        # thermal components agreed to about 1e-16, 1e5 times below it.
        grid = np.linspace(0.0, 2 * PI, 64)
        if mixture:
            initial, closed = make_esd_mixture(), esd_concurrence_closed(beta, nbar, grid)
        else:
            initial = make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X)
            closed = concurrence_closed(BellState.PHI_PLUS, Thermal(nbar), beta, grid)
        trace = concurrence_trace(ModelParams(beta), Thermal(nbar), initial, grid)
        error = float(np.max(np.abs(trace.values - closed)))
        assert error > 1e-11
        assert trace.doubling_error >= error / 100


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected_before_eigensolve(self, bad, no_allocation):
        with pytest.raises(ValueError, match="finite"):
            concurrence_trace(
                ModelParams(0.3), Vacuum(),
                make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X), [0.0, bad, 1.0],
            )

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0])
    def test_bad_convergence_tol_rejected_before_eigensolve(self, tol, no_allocation):
        # an infinite tolerance would pass every cutoff-doubling check
        with pytest.raises(ValueError, match="convergence_tol"):
            concurrence_trace(
                ModelParams(0.3), Vacuum(),
                make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X), [0.0, 1.0],
                convergence_tol=tol,
            )

    @pytest.mark.parametrize("initial", ["phi+", None, make_esd_mixture().rho],
                             ids=["string", "None", "matrix"])
    @pytest.mark.parametrize("grid", [[1.0], []], ids=["grid", "empty"])
    def test_non_state_rejected_before_eigensolve(self, initial, grid, no_allocation):
        with pytest.raises(TypeError, match="QubitPairState"):
            concurrence_trace(ModelParams(0.3), Vacuum(), initial, grid)

    @pytest.mark.parametrize("field", ["vacuum", None, Number], ids=["string", "None", "class"])
    @pytest.mark.parametrize("trunc", [None, TruncationSpec(21)], ids=["default", "given"])
    def test_wrong_field_type_rejected_before_eigensolve(self, field, trunc, monkeypatch):
        # the string 'vacuum' got the default cutoff 21 and its eigensolve
        # before field_components raised
        solved = []
        monkeypatch.setattr(oracle, "build_hamiltonian", lambda *args: solved.append(args))
        initial = make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X)
        with pytest.raises(TypeError, match="unsupported field class"):
            concurrence_trace(ModelParams(0.3), field, initial, [1.0], trunc)
        with pytest.raises(TypeError, match="unsupported field class"):
            field_field_witness(ModelParams(0.3, omega0=0.7), field, BellState.PHI_PLUS, [1.0],
                                trunc)
        assert solved == []

    def test_empty_grid_gives_empty_trace(self):
        trace = concurrence_trace(
            ModelParams(0.3), Thermal(1.0), make_esd_mixture(), [])
        assert trace.omega_ts.shape == trace.values.shape == (0,)
        assert trace.doubling_points == 0 and trace.doubling_error == 0.0
        closed = concurrence_closed(BellState.PHI_PLUS, Thermal(1.0), 0.3, np.array([]))
        assert closed.shape == trace.values.shape

    @pytest.mark.parametrize("omega0", [0.0, 0.7])
    def test_trace_names_its_eigensolve(self, omega0, monkeypatch):
        # every omega0 solves F x F tridiagonal chains
        if specialfn._lapack_dstevd() is None:
            pytest.skip("numpy's LAPACK exports no dstevd")
        trace = concurrence_trace(
            ModelParams(0.3, omega0=omega0), Vacuum(),
            make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X), [0.0, 1.0],
            trunc=TruncationSpec(30),
        )
        assert (trace.eigensolver, trace.sector_dim) == ("dstevd", 31)
        monkeypatch.setattr(specialfn, "_lapack_dstevd", lambda: None)
        fallback = concurrence_trace(
            ModelParams(0.3, omega0=omega0), Vacuum(),
            make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X), [0.0, 1.0],
            trunc=TruncationSpec(30),
        )
        assert fallback.eigensolver == "eigh"
        assert np.array_equal(fallback.values, trace.values)

    def test_trace_records_components_and_doubled_cutoff(self):
        params, initial = ModelParams(0.3), make_esd_mixture()
        trunc = TruncationSpec(156)
        trace = concurrence_trace(params, Thermal(5.0), initial, [0.0, 1.0], trunc=trunc)
        k = oracle.thermal_component_count(5.0, trunc.tail_tol)
        assert (trace.components, trace.doubled_ncut) == (k + 1, 312) == (127, 312)
        empty = concurrence_trace(params, Vacuum(), initial, [], trunc=trunc)
        assert (empty.components, empty.doubled_ncut) == (1, 0)

    def test_doubled_spec(self):
        assert TruncationSpec(40, 1e-10).doubled() == TruncationSpec(80, 1e-12)
        # a hundredth of the smallest tolerances would round to 0
        assert TruncationSpec(40, 1e-323).doubled() == TruncationSpec(80, 5e-324)

    def test_phase_roundoff_rejected_before_allocating(self, no_allocation):
        # eps * max|E| * max|w t| at the doubled cutoff: about 1e-5 here
        with pytest.raises(ValueError, match="phase roundoff"):
            concurrence_trace(
                ModelParams(0.3), Vacuum(),
                make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X), [0.0, 5e8, 1e9],
            )

    def test_phase_bound_covers_every_eigenvalue(self):
        params, trunc = ModelParams(3.0, omega0=5.0), TruncationSpec(200)
        prop = build_hamiltonian(params, trunc)
        bound = trunc.ncut + 5.0 / 2.0 + 2.0 * 3.0 * math.sqrt(trunc.ncut)
        assert np.max(np.abs(prop.energies)) <= bound
        phase = 1e-8 / (np.finfo(float).eps * bound)
        oracle._require_phase_accuracy(params, trunc.ncut, np.array([-0.99 * phase]), 1e-8)
        with pytest.raises(ValueError, match="phase roundoff"):
            oracle._require_phase_accuracy(params, trunc.ncut, np.array([-1.01 * phase]), 1e-8)

    def test_long_grid_at_small_cutoff_within_estimate(self):
        # the per-point stacks of a block are bounded, not only its phases
        params, trunc = ModelParams(0.05), TruncationSpec(3, tail_tol=0.5)
        grid = np.linspace(0.0, 2 * PI, 40001)
        initial = make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X)
        tracemalloc.start()
        concurrence_trace(params, Vacuum(), initial, grid, trunc=trunc)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= oracle._trace_bytes(params, Vacuum(), trunc)


class TestFieldField:
    def _prop(self, beta, field):
        return build_hamiltonian(ModelParams(beta), TruncationSpec(default_ncut(field, beta)))

    def test_zero_time_product_state(self):
        prop = self._prop(0.5, Vacuum())
        f = prop.fock_dim
        rho = field_field_reduced(prop, BellState.PHI_PLUS, Vacuum(), 0.0)
        assert negativity(rho, (f, f)) <= 1e-12

    def test_separability_at_half_period(self):
        prop = self._prop(0.75, Vacuum())
        f = prop.fock_dim
        rho = field_field_reduced(prop, BellState.PHI_PLUS, Vacuum(), PI)
        assert negativity(rho, (f, f)) <= 1e-9

    def test_purities(self):
        witness = field_field_witness(ModelParams(0.75), Vacuum(), BellState.PHI_PLUS, [PI])
        assert witness.qubit_purity[0] == pytest.approx(0.5, abs=1e-12)
        # field branches +-b(t) with |b| = 2 beta: purity 1/2 + e^{-4|b|^2}/2
        assert witness.field_purity[0] == pytest.approx(0.5 + 0.5 * math.exp(-9.0), abs=1e-10)

    @staticmethod
    def _dense_purities(prop, bell, field, wt):
        """Qubit and field purities from the dense (2, F, 2, F) four-party
        state."""
        rails = evolved_rails(prop, field, wt)
        c2 = bell_ket(bell, QubitBasis.SIGMA_X).reshape(2, 2)
        psi = np.einsum("pq,prm,qsn->rmsn", c2, rails, rails)
        psi /= np.linalg.norm(psi)
        rho_q = np.einsum("rmsn,Rmsn->rR", psi, psi.conj())
        rho_f = np.einsum("rmsn,rMsn->mM", psi, psi.conj())
        return np.trace(rho_q @ rho_q).real, np.trace(rho_f @ rho_f).real

    @pytest.mark.parametrize(
        "field, beta, omega0, bell, support",
        [
            (Vacuum(), 0.75, 0.0, BellState.PHI_PLUS, 2),
            (Coherent(1.0 + 0.5j), 0.5, 0.0, BellState.PHI_MINUS, 2),
            (Number(1), 0.3, 0.0, BellState.PSI_MINUS, 2),
            (Vacuum(), 0.75, 0.7, BellState.PHI_PLUS, 4),
            (Number(1), 0.3, 0.7, BellState.PSI_MINUS, 4),
            (Coherent(0.5 + 0.25j), 0.5, 0.7, BellState.PSI_PLUS, 4),
        ],
    )
    def test_local_support_matches_dense(self, field, beta, omega0, bell, support):
        params = ModelParams(beta, omega0=omega0)
        trunc = TruncationSpec(default_ncut(field, beta))
        grid = np.linspace(0.0, 2 * PI, 7)
        witness = field_field_witness(params, field, bell, grid)
        assert witness.ncut == trunc.ncut
        assert np.all(witness.support_dim == support)
        prop = build_hamiltonian(params, trunc)
        f = prop.fock_dim
        for j, wt in enumerate(grid):
            rho = field_field_reduced(prop, bell, field, wt)
            qp, fp = self._dense_purities(prop, bell, field, wt)
            assert witness.negativity[j] == pytest.approx(negativity(rho, (f, f)), abs=1e-12)
            assert witness.qubit_purity[j] == pytest.approx(qp, abs=1e-12)
            assert witness.field_purity[j] == pytest.approx(fp, abs=1e-12)
        # the detuned fields do entangle; the degenerate ones stay PPT
        assert (np.max(witness.negativity) > 0.05) == (omega0 != 0.0)

    def test_raises_where_the_cutoff_does_not_converge(self):
        with pytest.raises(TruncationError, match="cutoff-doubling disagreement 9.8"):
            field_field_witness(ModelParams(3.0), Number(5), BellState.PHI_PLUS,
                                np.linspace(0.0, 2 * PI, 17))

    @pytest.mark.parametrize("field, beta, bell, grid", [
        (Vacuum(), 0.75, BellState.PHI_PLUS, np.linspace(0.0, 2 * PI, 5)),
        (Coherent(0.5 + 0.25j), 0.5, BellState.PSI_PLUS, np.linspace(0.0, 2 * PI, 5)),
        (Number(1), 0.3, BellState.PSI_MINUS, np.linspace(0.0, 2 * PI, 5)),
        (Number(5), 0.5, BellState.PHI_PLUS, np.linspace(0.0, 3.0, 2)),
    ], ids=["vacuum", "coherent", "number1", "number5"])
    def test_detuned_doubling_error(self, field, beta, bell, grid):
        witness = field_field_witness(ModelParams(beta, omega0=0.7), field, bell, grid)
        assert 0.0 < witness.doubling_error <= 1e-8

    def test_empty_grid_gives_empty_arrays(self):
        witness = field_field_witness(ModelParams(0.3), Number(1), BellState.PHI_PLUS, [])
        assert witness.ncut == default_ncut(Number(1), 0.3)
        for values in (witness.negativity, witness.qubit_purity, witness.field_purity,
                       witness.support_dim):
            assert values.shape == (0,)

    def test_mixed_field_rejected(self, no_allocation):
        with pytest.raises(ValueError, match="pure field"):
            field_field_witness(ModelParams(0.3), Thermal(1.0), BellState.PHI_PLUS, [1.0])

    @pytest.mark.parametrize("grid, match", [
        # eps * max|E| * max|w t| = 12.6 at the doubled cutoff 46, far above 1e-8
        ([0.0, 5e14, 1e15], "phase roundoff .* 1.255e\\+01 at ncut=46"),
        ([0.0, math.nan, 1.0], "finite"),
    ], ids=["roundoff", "nan"])
    def test_phase_checks(self, grid, match):
        params = ModelParams(0.75, omega0=0.7)
        with pytest.raises(ValueError, match=match):
            field_field_witness(params, Vacuum(), BellState.PHI_PLUS, grid, TruncationSpec(23))

    def test_memory_guard_answers_before_the_phase_check(self, no_allocation):
        with pytest.raises(TruncationError, match="physical memory"):
            field_field_witness(ModelParams(0.5, omega0=0.7), Vacuum(), BellState.PHI_PLUS,
                                [0.0, 1e15], TruncationSpec(10**9))


class TestMemoryBudget:
    """Inputs whose estimate is in petabytes: they fail on any machine, and
    the stages that would allocate are replaced so none is ever reached."""

    def test_trace_rejected_before_allocating(self, no_allocation):
        field = Thermal(1e6)
        with pytest.raises(TruncationError, match="physical memory"):
            concurrence_trace(
                ModelParams(0.1), field,
                make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X), np.array([0.0, 1.0]),
            )

    @pytest.mark.parametrize("omega0", [0.0, 0.7])
    def test_eigensolve_rejected_before_allocating(self, no_allocation, omega0):
        params = ModelParams(0.5, omega0=omega0)
        with pytest.raises(TruncationError, match="physical memory"):
            build_hamiltonian(params, TruncationSpec(10**9))

    def test_estimate_covers_the_doubled_run(self):
        params = ModelParams(0.1, omega0=0.7)
        trunc = TruncationSpec(1000)
        once = oracle._run_bytes(params, Thermal(5.0), trunc)
        both = oracle._trace_bytes(params, Thermal(5.0), trunc)
        assert both == oracle._run_bytes(params, Thermal(5.0), trunc.doubled())
        assert both > 3 * once

    @staticmethod
    def _peak(params, field, trunc):
        initial = make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X)
        # modules imported on a first call are not the oracle's memory
        concurrence_trace(params, Vacuum(), initial, [1.0])
        tracemalloc.start()
        concurrence_trace(params, field, initial, np.linspace(0.0, 2 * PI, 17), trunc=trunc)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    def test_degenerate_trace_holds_three_f_squared_words(self):
        # eigenvectors, the one factor S and a chunk of rows of 2 E at F = 313
        trunc = TruncationSpec(156)
        f = trunc.doubled().ncut + 1
        assert self._peak(ModelParams(0.3), Thermal(5.0), trunc) <= 3 * 8 * f * f

    def test_readme_esd_trace_peak(self):
        # thermal(25) at beta = 0.1: ncut 617, a doubled F = 1235 with
        # K = 705 components; the peak is the eigenvectors, S (which takes
        # each chunk's 2 E in place) and a chunk of F // 8 = 154 rows of G
        # with its weighted overlaps and the even rows of the eigenvectors
        # it multiplies.  The chunk's
        # products reach only the columns whose eigenvectors share a nonzero
        # Fock row with its own, a few hundred of the 1235 for the
        # divide-and-conquer eigenvectors, so the peak measures 2.09 F^2
        # words (2.33 with full-width chunks); the bound leaves 0.06 F^2
        params, field = ModelParams(0.1), Thermal(25.0)
        trunc = truncation(field, 0.1)
        f = trunc.doubled().ncut + 1
        assert f == 1235
        assert self._peak(params, field, trunc) <= 2.15 * 8 * f * f

    def test_coherent_run_holds_no_field_gram(self, monkeypatch):
        # Coherent(12 + 5j) at beta = 0.5 and omega0 = 0.7, F = 292, on 257
        # points in small phase blocks: the eigenvectors, the four real
        # rail-Gram factors and a chunk's copies of its window's rows,
        # 7.6 F^2 words (ten complex field Grams and their products took 29)
        monkeypatch.setattr(oracle, "_PHASE_BLOCK_BYTES", 1 << 16)
        params, field = ModelParams(0.5, omega0=0.7), Coherent(12 + 5j)
        trunc, grid = TruncationSpec(291), np.linspace(0.0, 2 * PI, 257)

        def run():
            oracle._run(params, field, grid, trunc, lambda ops: ops.reshape(len(ops), 4, 4))

        run()  # modules imported on a first call are not the oracle's memory
        tracemalloc.start()
        run()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= oracle._run_bytes(params, field, trunc)
        assert peak <= oracle._trace_bytes(params, field, trunc)
        assert peak < 16 * 8 * 292**2

    @pytest.mark.parametrize("field", [Thermal(5.0), Coherent(1 + 0.5j)], ids=str)
    def test_dense_eigenvectors_within_estimate(self, field, rng, monkeypatch):
        # a dense random orthogonal V at omega0 = 0, F = 601: no eigenvector
        # has an exact zero, so every chunk copies the even rows of the
        # whole window, the worst case of those copies (2.56 F^2 words with V
        # for the column, against an estimate of 2.65)
        monkeypatch.setattr(oracle, "_PHASE_BLOCK_BYTES", 1 << 16)
        params, trunc = ModelParams(0.3), TruncationSpec(600)
        f = trunc.ncut + 1
        q, r = np.linalg.qr(rng.normal(size=(f, f)))
        v = np.asfortranarray(q * np.sign(np.diag(r)))  # LAPACK's layout
        del q, r
        chain = (np.sort(rng.uniform(0.0, f, f)), v)
        prop = oracle.SubsystemPropagator(trunc, (chain, chain), "dstevd")
        grid = np.linspace(0.0, 2 * PI, 17)

        def run():
            kernel = _MapKernel(prop, field)
            for _ in kernel.blocks(grid):
                pass

        run()  # modules imported on a first call are not the oracle's memory
        tracemalloc.start()
        run()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak + v.nbytes <= oracle._run_bytes(params, field, trunc)

    @pytest.mark.parametrize("omega0", [0.0, 0.7])
    @pytest.mark.parametrize(
        "field", [Vacuum(), Number(5), Thermal(5.0), Coherent(1 + 0.5j)], ids=str)
    def test_trace_peak_within_estimate(self, field, omega0, monkeypatch):
        # small phase blocks, so the F x F factors dominate the estimate
        monkeypatch.setattr(oracle, "_PHASE_BLOCK_BYTES", 1 << 16)
        params, trunc = ModelParams(0.3, omega0=omega0), TruncationSpec(156)
        assert self._peak(params, field, trunc) <= oracle._trace_bytes(params, field, trunc)

    @staticmethod
    def _witness_peak(params, field, trunc, grid):
        # modules imported on a first call are not the oracle's memory
        field_field_witness(params, Vacuum(), BellState.PHI_PLUS, [1.0], trunc)
        tracemalloc.start()
        field_field_witness(params, field, BellState.PHI_PLUS, grid, trunc)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("omega0", [0.0, 0.7])
    @pytest.mark.parametrize("field", [Vacuum(), Number(5), Coherent(1 + 0.5j)], ids=str)
    def test_witness_peak_within_estimate(self, field, omega0, monkeypatch):
        monkeypatch.setattr(oracle, "_PHASE_BLOCK_BYTES", 1 << 16)
        params, trunc = ModelParams(0.3, omega0=omega0), TruncationSpec(156)
        peak = self._witness_peak(params, field, trunc, np.linspace(0.0, 2 * PI, 17))
        assert peak <= oracle._trace_bytes(params, field, trunc)

    @pytest.mark.parametrize("omega0", [0.0, 0.7])
    def test_long_witness_grid_at_small_cutoff_within_estimate(self, omega0):
        # the witness measures 16 x 16 partial transposes, about 24 kB a point
        params, trunc = ModelParams(0.02, omega0=omega0), TruncationSpec(3, tail_tol=0.5)
        peak = self._witness_peak(params, Vacuum(), trunc, np.linspace(0.0, 2 * PI, 40001))
        assert peak <= oracle._trace_bytes(params, Vacuum(), trunc)


class TestCoherentPastSubnormalStart:
    # e^(-|alpha|^2 / 2) is subnormal past |alpha| = 37.64 and 0 past 38.6;
    # started from it, |alpha| = 38.5 gave a vector of norm 1.035 with no
    # lost mass, and the cutoff rule fell back to the bare ceil(reach^2) + 20

    @staticmethod
    def _exact(alpha, ncut):
        """Amplitudes and norm of the truncated expansion, 30 digits."""
        with mpmath.workdps(30):
            a = mpmath.mpc(alpha)
            amps = [mpmath.exp(-abs(a) ** 2 / 2)]
            for n in range(ncut):
                amps.append(amps[-1] * a / mpmath.sqrt(n + 1))
            norm = float(mpmath.fsum(abs(c) ** 2 for c in amps))
        return np.array([complex(c) for c in amps]), norm

    @pytest.mark.parametrize("alpha", [37.7, 38.0, 38.5, 40.0, 45.0, 38.5j, -30 + 26j])
    def test_amplitudes_and_norm_match_mpmath(self, alpha):
        r = abs(alpha)
        ncut = math.ceil(r**2 + 10.0 * r) + 40
        c, tail = coherent_fock_vector(alpha, ncut)
        exact, norm = self._exact(alpha, ncut)
        bound = 1e-13 * np.abs(exact) + 4 * np.finfo(float).smallest_subnormal
        assert np.all(np.abs(c - exact) <= bound)
        assert abs(float(np.vdot(c, c).real) - norm) <= 1e-13
        assert tail <= 1e-13

    @pytest.mark.parametrize("reach", [37.7, 38.0, 38.5, 40.0, 45.0])
    def test_default_cutoff_holds_the_poisson_tail(self, reach):
        # the mass of Poisson(reach^2) beyond the cutoff, for a coherent
        # field of amplitude reach and for the vacuum at beta = reach / 2
        for ncut in (default_ncut(Coherent(reach), 0.0), default_ncut(Vacuum(), reach / 2)):
            with mpmath.workdps(30):
                beyond = mpmath.gammainc(ncut + 1, 0, mpmath.mpf(reach) ** 2, regularized=True)
            assert beyond <= 1e-10, ncut

    def test_bits_unchanged_where_the_start_is_normal(self, monkeypatch):
        reaches = [*np.linspace(0.0, 37.6, 189), 37.64]
        for r in reaches:
            ncut = math.ceil(r**2 + 10.0 * r) + 40
            for alpha in (r, -r, r * complex(math.cos(0.7), math.sin(0.7))):
                c, tail = coherent_fock_vector(alpha, ncut)
                c_ref, tail_ref = coherent_fock_vector_unscaled(alpha, ncut)
                assert np.array_equal(c, c_ref) and tail == tail_ref, alpha
        cutoffs = [(default_ncut(Coherent(r), 0.0), default_ncut(Vacuum(), r / 2)) for r in reaches]
        monkeypatch.setattr(oracle, "coherent_fock_vector", coherent_fock_vector_unscaled)
        assert cutoffs == [(default_ncut(Coherent(r), 0.0), default_ncut(Vacuum(), r / 2))
                           for r in reaches]


class TestDefaultNcut:
    def test_minimum(self):
        assert default_ncut(Vacuum(), 0.0) >= 1

    @pytest.mark.parametrize("beta", [math.nan, -1.0, -math.inf, math.inf])
    def test_rejects_beta_that_is_not_finite_and_nonnegative(self, beta):
        # NaN raised "cannot convert float NaN to integer"; -1.0 gave 24
        with pytest.raises(ValueError, match="beta must be finite and >= 0"):
            default_ncut(Vacuum(), beta)

    def test_lost_mass_rule_skipped_past_physical_memory(self, monkeypatch):
        # reach 1e4: one F x F array at the bare cutoff 1e8 + 20 takes 8e16
        # bytes, so no run can use it and the 1e8 amplitudes are not formed
        def unreachable(*args):
            raise AssertionError("coherent amplitudes formed")

        monkeypatch.setattr(oracle, "coherent_fock_vector", unreachable)
        assert default_ncut(Vacuum(), 5e3) == 10**8 + 20

    @pytest.mark.parametrize("field, beta", [(Vacuum(), 1.0), (Coherent(1.5j), 0.25)])
    def test_amplitudes_that_lose_mass_raise(self, monkeypatch, field, beta):
        # a Fock vector that never reaches unit mass has no cutoff to give
        def lossy(alpha, ncut):
            c, tail = coherent_fock_vector(alpha, ncut)
            return 0.9 * c, tail

        monkeypatch.setattr(oracle, "coherent_fock_vector", lossy)
        with pytest.raises(TruncationError, match=f"{field} at reach 2 lose"):
            default_ncut(field, beta)

    def test_scales_with_occupation(self):
        assert default_ncut(Thermal(25.0), 0.1) > default_ncut(Thermal(1.0), 0.1)
        assert default_ncut(Number(25), 0.1) > default_ncut(Number(1), 0.1)
        assert default_ncut(Coherent(3.0), 0.1) > default_ncut(Coherent(0.5), 0.1)

    @pytest.mark.parametrize("alpha", [3.0, -5.0, 10.0, 2j, 3j, 10j, 1 + 0.5j])
    @pytest.mark.parametrize("beta", [0.1, 0.5, 2.0])
    def test_coherent_default_passes_its_checks(self, alpha, beta):
        # the cutoff holds the tail of the field displaced to |alpha| + 2 beta,
        # off the real axis too
        grid = np.linspace(0.0, 2 * PI, 33)
        initial = make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X)
        trace = concurrence_trace(ModelParams(beta), Coherent(alpha), initial, grid)
        assert trace.ncut == default_ncut(Coherent(alpha), beta)
        assert trace.tail_mass <= 1e-10 and trace.doubling_error <= 1e-8
        closed = concurrence_closed(BellState.PHI_PLUS, Coherent(alpha), beta, grid)
        assert np.max(np.abs(trace.values - closed)) <= 1e-7

    def test_thermal_tail_fits(self):
        for nbar in (0.5, 1.0, 2.0, 25.0):
            ncut = default_ncut(Thermal(nbar), 0.1)
            r = nbar / (1.0 + nbar)
            assert r ** (ncut + 1) <= 1e-10
