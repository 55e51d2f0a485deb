"""Truncated-Fock propagator: invariants and closed-form cross-checks."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from degjc import oracle
from degjc.closedform import (
    concurrence_closed,
    esd_concurrence_closed,
    evolve_spin_coherent,
    single_qubit_coherence,
    two_qubit_offdiagonal,
)
from degjc.entanglement import negativity, wootters_concurrence, wootters_concurrences
from degjc.model import (
    BellState,
    Coherent,
    ModelParams,
    Number,
    QubitBasis,
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
    conditional_maps,
    default_ncut,
    field_components,
    field_field_reduced,
    field_field_witness,
    low_spectrum,
    propagate_state,
    two_qubit_reduced,
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
        + (params.omega0 / (2.0 * params.omega)) * np.kron(sz, np.eye(f))
    )
    return np.linalg.eigh(h)


def _dense_propagate(dense, psi, omega_t):
    energies, modes = dense
    return modes @ (np.exp(-1j * energies * omega_t)[:, None] * (modes.T @ psi))


def _dense_maps(dense, field, trunc, omega_t):
    """ops[i, k, p, q] = M_ik[p, q] from the propagated mixture components."""
    f = trunc.ncut + 1
    weights, vecs, _ = field_components(field, trunc)
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


class TestHamiltonian:
    def test_free_spectrum_doubly_degenerate(self):
        prop = build_hamiltonian(ModelParams(omega=1.0), TruncationSpec(30))
        expected = np.repeat(np.arange(10, dtype=float), 2)
        np.testing.assert_allclose(np.sort(prop.energies)[:20], expected, atol=1e-12)

    def test_free_spectrum_with_splitting(self):
        prop = build_hamiltonian(ModelParams(omega=1.0, omega0=0.4), TruncationSpec(30))
        lowest = np.sort(prop.energies)[:4]
        np.testing.assert_allclose(lowest, [-0.2, 0.2, 0.8, 1.2], atol=1e-12)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
    def test_degenerate_spectrum_is_equally_spaced(self, beta):
        prop = build_hamiltonian(ModelParams.from_beta(beta), TruncationSpec(40))
        expected = np.repeat(np.arange(5, dtype=float), 2)
        np.testing.assert_allclose(low_spectrum(prop, 10), expected, atol=1e-8)

    def test_ground_energy_is_depth_of_displaced_well(self):
        beta = 0.5
        prop = build_hamiltonian(ModelParams.from_beta(beta), TruncationSpec(40))
        assert np.min(prop.energies) == pytest.approx(-(beta**2), abs=1e-10)

    def test_cutoff_doubling_agreement(self):
        a = build_hamiltonian(ModelParams.from_beta(0.5), TruncationSpec(40))
        b = build_hamiltonian(ModelParams.from_beta(0.5), TruncationSpec(80))
        diff = np.abs(np.sort(a.energies)[:10] - np.sort(b.energies)[:10])
        assert np.max(diff) <= 1e-10

    def test_modes_are_unitary(self):
        prop = build_hamiltonian(ModelParams.from_beta(0.7, omega0=0.3), TruncationSpec(25))
        gram = prop.modes.conj().T @ prop.modes
        assert np.max(np.abs(gram - np.eye(prop.dim))) <= 1e-10

    def test_sector_modes_and_energies_diagonalize_the_block(self):
        trunc = TruncationSpec(25)
        for omega0 in (0.0, 0.7):
            params = ModelParams.from_beta(0.7, omega0=omega0)
            prop = build_hamiltonian(params, trunc)
            energies, modes = _dense_block(params, trunc)
            # at omega0 = 0 one chain is solved and held for both parities
            assert (prop.chains[0] is prop.chains[1]) == (omega0 == 0.0)
            assert len(prop.distinct_chains) == (1 if omega0 == 0.0 else 2)
            assert np.max(np.abs(prop.modes.T @ prop.modes - np.eye(prop.dim))) <= 1e-10
            h = (modes * energies) @ modes.T
            rebuilt = (prop.modes * prop.energies) @ prop.modes.T
            assert np.max(np.abs(rebuilt - h)) <= 1e-12
            assert np.max(np.abs(np.sort(prop.energies) - energies)) <= 1e-12


class TestTridiagonalEigensolve:
    @staticmethod
    def _chain(f, beta):
        n = np.arange(f, dtype=float)
        return n, beta * np.sqrt(n[1:])

    @pytest.mark.parametrize("beta", [0.1, 0.5, 3.0])
    @pytest.mark.parametrize("f", [2, 5, 24, 26, 173, 618, 1235])
    def test_dstevd_equals_dense_eigh(self, f, beta):
        if oracle._lapack_dstevd() is None:
            pytest.skip("numpy's LAPACK exports no dstevd")
        diag, off = self._chain(f, beta)
        energies, modes, solver = _tridiagonal_eigh(diag, off, ModelParams.from_beta(beta))
        dense_energies, dense_modes = np.linalg.eigh(
            np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        assert solver == "dstevd"
        assert modes.flags.c_contiguous
        assert np.array_equal(energies, dense_energies)
        assert np.array_equal(modes, dense_modes)

    def test_fallback_without_the_routine(self, monkeypatch):
        monkeypatch.setattr(oracle, "_lapack_dstevd", lambda: None)
        params = ModelParams.from_beta(0.5)
        prop = build_hamiltonian(params, TruncationSpec(40))
        assert prop.eigensolver == "eigh"
        diag, off = self._chain(41, 0.5)
        energies, modes = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        assert np.array_equal(prop.chains[0][0], energies)
        assert np.array_equal(prop.chains[0][1], modes)

    def test_solver_failure_is_truncation_error(self, monkeypatch):
        def failing(*args):
            args[10]._obj.value = 7  # INFO > 0: no convergence

        monkeypatch.setattr(oracle, "_lapack_dstevd", lambda: failing)
        with pytest.raises(TruncationError, match="dstevd info=7"):
            build_hamiltonian(ModelParams.from_beta(0.5), TruncationSpec(10))

    def test_peak_bytes_within_estimate(self):
        for omega0 in (0.0, 0.7):
            params, trunc = ModelParams.from_beta(0.5, omega0=omega0), TruncationSpec(617)
            tracemalloc.start()
            build_hamiltonian(params, trunc)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert peak <= oracle._eigensolve_bytes(params, trunc.ncut)


class TestPropagation:
    def test_zero_time_is_identity(self, rng):
        prop = build_hamiltonian(ModelParams.from_beta(0.4), TruncationSpec(15))
        psi = rng.normal(size=prop.dim) + 1j * rng.normal(size=prop.dim)
        psi /= np.linalg.norm(psi)
        np.testing.assert_allclose(propagate_state(prop, psi, 0.0), psi, atol=1e-12)

    def test_norm_preserved(self, rng):
        prop = build_hamiltonian(ModelParams.from_beta(0.6, omega0=0.2), TruncationSpec(20))
        psi = rng.normal(size=prop.dim) + 1j * rng.normal(size=prop.dim)
        psi /= np.linalg.norm(psi)
        out = propagate_state(prop, psi, 3.7)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10

    def test_composition(self, rng):
        prop = build_hamiltonian(ModelParams.from_beta(0.5), TruncationSpec(20))
        psi = rng.normal(size=prop.dim) + 1j * rng.normal(size=prop.dim)
        psi /= np.linalg.norm(psi)
        once = propagate_state(prop, psi, 1.1 + 2.3)
        twice = propagate_state(prop, propagate_state(prop, psi, 1.1), 2.3)
        assert np.max(np.abs(once - twice)) <= 1e-9

    def test_norm_drift_over_many_composed_steps(self, rng):
        prop = build_hamiltonian(ModelParams.from_beta(0.5), TruncationSpec(8))
        psi = rng.normal(size=prop.dim) + 1j * rng.normal(size=prop.dim)
        psi /= np.linalg.norm(psi)
        for _ in range(10_000):
            psi = propagate_state(prop, psi, 0.01)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10

    def test_sigma_x_expectation_conserved(self, rng):
        prop = build_hamiltonian(ModelParams.from_beta(0.45), TruncationSpec(25))
        f = prop.fock_dim
        sx_op = np.kron(np.diag([1.0, -1.0]), np.eye(f))
        psi = rng.normal(size=prop.dim) + 1j * rng.normal(size=prop.dim)
        psi /= np.linalg.norm(psi)
        ref = np.vdot(psi, sx_op @ psi).real
        for wt in (0.3, 1.9, 4.4, 11.0):
            out = propagate_state(prop, psi, wt)
            assert abs(np.vdot(out, sx_op @ out).real - ref) <= 1e-10

    def test_dimension_mismatch_rejected(self):
        prop = build_hamiltonian(ModelParams.from_beta(0.4), TruncationSpec(10))
        with pytest.raises(ValueError):
            propagate_state(prop, np.zeros(7), 1.0)

    @pytest.mark.parametrize("spin_up", [True, False])
    def test_matches_analytic_displaced_state(self, spin_up, rng):
        # the propagator omits the constant level shift, hence the extra
        # global factor exp(i beta^2 w t) relative to the analytic phases
        params = ModelParams.from_beta(0.3)
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
        w, v, tail = field_components(Vacuum(), trunc)
        assert w[0] == 1.0 and v[0, 0] == 1.0 and tail == 0.0
        w, v, tail = field_components(Number(4), trunc)
        assert v[4, 0] == 1.0 and tail == 0.0

    def test_number_beyond_cutoff(self):
        with pytest.raises(TruncationError):
            field_components(Number(11), TruncationSpec(10))

    def test_coherent_norm_and_tail(self):
        trunc = TruncationSpec(40)
        w, v, tail = field_components(Coherent(1.2 + 0.3j), trunc)
        assert abs(np.vdot(v[:, 0], v[:, 0]).real + tail - 1.0) <= 1e-12
        assert tail <= trunc.tail_tol

    def test_coherent_truncation_error(self):
        with pytest.raises(TruncationError):
            field_components(Coherent(3.0), TruncationSpec(2))

    def test_thermal_components_and_tail(self):
        trunc = TruncationSpec(80)
        w, v, tail = field_components(Thermal(1.0), trunc)
        assert tail <= trunc.tail_tol
        assert w[0] == pytest.approx(0.5, rel=1e-14)
        assert v.shape[1] == len(w)

    def test_thermal_truncation_error(self):
        with pytest.raises(TruncationError):
            field_components(Thermal(5.0), TruncationSpec(10))


class TestConditionalMaps:
    def test_zero_time_identity_maps(self):
        params = ModelParams.from_beta(0.4)
        trunc = TruncationSpec(default_ncut(Thermal(1.0), 0.4))
        prop = build_hamiltonian(params, trunc)
        maps = conditional_maps(prop, Thermal(1.0), trunc, 0.0)
        norm = 1.0 - maps.tail_mass
        for i in range(2):
            for k in range(2):
                expected = np.zeros((2, 2))
                expected[i, k] = norm
                np.testing.assert_allclose(maps.op(i, k), expected, atol=1e-12)

    def test_structure_invariants(self, rng):
        params = ModelParams.from_beta(0.35, omega0=0.15)
        field = Coherent(0.8)
        trunc = TruncationSpec(default_ncut(field, 0.35))
        prop = build_hamiltonian(params, trunc)
        for wt in rng.uniform(0.0, 2 * PI, size=5):
            maps = conditional_maps(prop, field, trunc, wt)
            m_uu, m_dd = maps.op(0, 0), maps.op(1, 1)
            assert np.max(np.abs(m_uu - m_uu.conj().T)) <= 1e-12
            assert np.max(np.abs(m_dd - m_dd.conj().T)) <= 1e-12
            assert np.trace(m_uu).real == pytest.approx(1.0 - maps.tail_mass, abs=1e-10)
            assert np.trace(m_dd).real == pytest.approx(1.0 - maps.tail_mass, abs=1e-10)
            np.testing.assert_allclose(maps.op(0, 1), maps.op(1, 0).conj().T, atol=1e-12)

    def test_degenerate_diagonal_maps_time_independent(self, rng):
        params = ModelParams.from_beta(0.5)
        field = Number(2)
        trunc = TruncationSpec(default_ncut(field, 0.5))
        prop = build_hamiltonian(params, trunc)
        ref = conditional_maps(prop, field, trunc, 0.0)
        for wt in rng.uniform(0.0, 2 * PI, size=5):
            maps = conditional_maps(prop, field, trunc, wt)
            assert np.max(np.abs(maps.op(0, 0) - ref.op(0, 0))) <= 1e-10
            assert np.max(np.abs(maps.op(1, 1) - ref.op(1, 1))) <= 1e-10

    def test_coherent_entry_matches_closed_form(self):
        params = ModelParams.from_beta(0.3)
        field = Coherent(1.0)
        trunc = TruncationSpec(default_ncut(field, 0.3))
        prop = build_hamiltonian(params, trunc)
        maps = conditional_maps(prop, field, trunc, PI)
        closed = single_qubit_coherence(1.0, field, 0.3, PI)
        assert abs(maps.op(0, 1)[0, 1] - closed) <= 1e-8

    def test_thermal_entry_matches_closed_form(self):
        params = ModelParams.from_beta(0.3)
        field = Thermal(1.0)
        trunc = TruncationSpec(60)
        prop = build_hamiltonian(params, trunc)
        for wt in (0.9, PI, 4.0):
            maps = conditional_maps(prop, field, trunc, wt)
            closed = single_qubit_coherence(1.0, field, 0.3, wt)
            assert maps.tail_mass <= 1e-10
            assert abs(maps.op(0, 1)[0, 1] - closed) <= 1e-7


class TestMapKernel:
    @pytest.mark.parametrize(
        "field", [Vacuum(), Coherent(1.0 + 0.5j), Number(5), Thermal(2.0)], ids=str
    )
    def test_sigma_x_sectors_match_single_sector(self, field, rng):
        # the parity chains against the dense 2F block, at and off omega0 = 0
        trunc = TruncationSpec(default_ncut(field, 0.5))
        for omega0 in (0.0, 0.3, 0.7, 3.0):
            params = ModelParams.from_beta(0.5, omega0=omega0)
            prop = build_hamiltonian(params, trunc)
            dense = _dense_block(params, trunc)
            psi = rng.normal(size=(prop.dim, 3)) + 1j * rng.normal(size=(prop.dim, 3))
            for wt in rng.uniform(0.0, 2 * PI, size=4):
                ops = conditional_maps(prop, field, trunc, wt).ops
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
        params, trunc = ModelParams.from_beta(beta, omega0=omega0), TruncationSpec(ncut)
        rails = oracle._evolved_rails(build_hamiltonian(params, trunc), Vacuum(), trunc, 2 * PI)
        assert np.max(np.abs(rails - truth)) <= 2e-15

    def test_detuned_thermal_matches_propagated_components(self, rng):
        params = ModelParams.from_beta(0.4, omega0=0.3)
        field = Thermal(2.0)
        trunc = TruncationSpec(default_ncut(field, 0.4))
        prop = build_hamiltonian(params, trunc)
        f = prop.fock_dim
        weights, vecs, _ = field_components(field, trunc)
        for wt in rng.uniform(0.0, 2 * PI, size=3):
            rails = []
            for i in (0, 1):
                psi0 = np.zeros((prop.dim, vecs.shape[1]), dtype=complex)
                psi0[i * f:(i + 1) * f] = vecs
                rails.append(propagate_state(prop, psi0, wt).reshape(2, f, -1))
            rails = np.array(rails)  # [initial rail, qubit out, field out, component]
            ref = np.einsum("ipmn,kqmn,n->ikpq", rails, rails.conj(), weights)
            ops = conditional_maps(prop, field, trunc, wt).ops
            assert np.max(np.abs(ops - ref)) <= 1e-12

    def test_long_grid_is_evaluated_in_bounded_blocks(self, monkeypatch):
        field = Thermal(2.0)
        trunc = TruncationSpec(617)
        prop = build_hamiltonian(ModelParams.from_beta(0.1), trunc)
        kernel = _MapKernel(prop, field, trunc)
        assert kernel.block * kernel.energies.size * 16 <= _PHASE_BLOCK_BYTES
        sizes = []

        def spy(self, omega_ts):
            sizes.append(len(omega_ts))
            return np.zeros((len(omega_ts), 2, 2, 2, 2), dtype=complex)

        monkeypatch.setattr(_MapKernel, "_block_ops", spy)
        grid = np.linspace(0.0, 2 * PI, 20001)
        assert sum(1 for _ in kernel.ops(grid)) == len(grid)
        assert sum(sizes) == len(grid)
        assert max(sizes) == kernel.block < len(grid)


class TestTwoQubitReduced:
    def _maps(self, beta, field, wt, ncut=None):
        params = ModelParams.from_beta(beta)
        trunc = TruncationSpec(ncut if ncut else default_ncut(field, beta))
        prop = build_hamiltonian(params, trunc)
        return conditional_maps(prop, field, trunc, wt)

    def test_corner_matches_closed_form(self, rng):
        initial = make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X)
        for wt in rng.uniform(0.0, 2 * PI, size=4):
            maps = self._maps(0.4, Vacuum(), wt)
            q = two_qubit_reduced(maps, maps, initial)
            closed = two_qubit_offdiagonal(BellState.PHI_PLUS, Vacuum(), 0.4, wt)
            assert abs(q.rho[0, 3] - closed) <= 1e-9

    def test_psi_plus_corner_magnitude(self):
        initial = make_bell(BellState.PSI_PLUS, QubitBasis.SIGMA_X)
        maps = self._maps(0.4, Vacuum(), 1.3)
        q = two_qubit_reduced(maps, maps, initial)
        closed = two_qubit_offdiagonal(BellState.PSI_PLUS, Vacuum(), 0.4, 1.3)
        assert abs(abs(q.rho[0, 3]) - abs(closed)) <= 1e-9

    def test_diagonal_constant_in_time(self, rng):
        initial = make_esd_mixture()
        for wt in rng.uniform(0.0, 2 * PI, size=4):
            maps = self._maps(0.5, Coherent(0.7), wt)
            q = two_qubit_reduced(maps, maps, initial)
            np.testing.assert_allclose(
                np.diag(q.rho).real, np.diag(initial.rho).real, atol=1e-10
            )

    def test_esd_mixture_validates_derived_formula(self):
        # the validation gate for the derived mixed-state concurrence law
        grid = np.linspace(0.0, 2 * PI, 17)
        trace = concurrence_trace(
            ModelParams.from_beta(0.5), Thermal(2.0), make_esd_mixture(), grid
        )
        closed = np.asarray(esd_concurrence_closed(0.5, 2.0, grid))
        assert np.max(np.abs(trace.values - closed)) <= 1e-7

    def test_requires_sigma_x_basis(self):
        maps = self._maps(0.3, Vacuum(), 1.0)
        with pytest.raises(ValueError):
            two_qubit_reduced(maps, maps, make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_Z))

    def test_output_passes_state_invariants(self, rng):
        # QubitPairState construction re-validates hermiticity/trace/psd
        maps = self._maps(0.6, Thermal(1.0), rng.uniform(0, 2 * PI))
        q = two_qubit_reduced(maps, maps, make_bell(BellState.PHI_MINUS, QubitBasis.SIGMA_X))
        assert abs(np.trace(q.rho) - 1.0) <= 1e-12


class TestStackedReduction:
    """The per-block reduction and Wootters give the bits of the per-point
    ``two_qubit_reduced`` + ``wootters_concurrence``."""

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
        params = ModelParams.from_beta(beta, omega0=omega0)
        trunc = TruncationSpec(default_ncut(field, beta))
        kernel = _MapKernel(build_hamiltonian(params, trunc), field, trunc)
        (ops,) = kernel.blocks(grid)
        return ops, kernel.tail

    @pytest.mark.parametrize("field, initial, beta, omega0", CASES)
    def test_stack_equals_per_point(self, field, initial, beta, omega0):
        # w t = 0 and 2 pi give rank-1 states for the pure Bell inputs
        grid = np.concatenate([[0.0, 2 * PI], np.linspace(0.1, 6.0, 23)])
        ops, tail = self._block(field, beta, omega0, grid)
        qmats = _reduced_stack(ops, ops, initial)
        values, spectra = wootters_concurrences(qmats, QubitBasis.SIGMA_X)
        for i, wt in enumerate(grid):
            maps = oracle.SubsystemConditionalMap(ops=ops[i], tail_mass=tail, omega_t=wt)
            q = two_qubit_reduced(maps, maps, initial)
            result = wootters_concurrence(q)
            assert np.array_equal(qmats[i], q.rho)
            assert values[i] == result.value
            assert np.array_equal(spectra[i], result.spectrum)

    def test_one_point_and_empty_block(self):
        initial = make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X)
        ops, _ = self._block(Thermal(1.0), 0.4, 0.0, np.array([0.0, 1.3]))
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
        trace = concurrence_trace(ModelParams.from_beta(beta), field, initial, grid)
        ops, _ = self._block(field, beta, 0.0, grid)
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


class TestConcurrenceTrace:
    def test_vacuum_grid_against_closed_form(self):
        grid = np.linspace(0.0, 2 * PI, 33)
        trace = concurrence_trace(
            ModelParams.from_beta(0.5),
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
                ModelParams.from_beta(0.1),
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
                ModelParams.from_beta(1.0),
                Vacuum(),
                make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X),
                grid,
                trunc=TruncationSpec(3, tail_tol=0.5),
                convergence_tol=1e-10,
            )


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected_before_eigensolve(self, bad, no_allocation):
        with pytest.raises(ValueError, match="finite"):
            concurrence_trace(
                ModelParams.from_beta(0.3), Vacuum(),
                make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X), [0.0, bad, 1.0],
            )

    def test_empty_grid_gives_empty_trace(self):
        trace = concurrence_trace(
            ModelParams.from_beta(0.3), Thermal(1.0), make_esd_mixture(), [])
        assert trace.omega_ts.shape == trace.values.shape == (0,)
        assert trace.doubling_points == 0 and trace.doubling_error == 0.0
        closed = concurrence_closed(BellState.PHI_PLUS, Thermal(1.0), 0.3, np.array([]))
        assert closed.shape == trace.values.shape

    @pytest.mark.parametrize("omega0", [0.0, 0.7])
    def test_trace_names_its_eigensolve(self, omega0, monkeypatch):
        # every omega0 solves F x F tridiagonal chains
        if oracle._lapack_dstevd() is None:
            pytest.skip("numpy's LAPACK exports no dstevd")
        trace = concurrence_trace(
            ModelParams.from_beta(0.3, omega0=omega0), Vacuum(),
            make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X), [0.0, 1.0],
            trunc=TruncationSpec(30),
        )
        assert (trace.eigensolver, trace.sector_dim) == ("dstevd", 31)
        monkeypatch.setattr(oracle, "_lapack_dstevd", lambda: None)
        fallback = concurrence_trace(
            ModelParams.from_beta(0.3, omega0=omega0), Vacuum(),
            make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X), [0.0, 1.0],
            trunc=TruncationSpec(30),
        )
        assert fallback.eigensolver == "eigh"
        assert np.array_equal(fallback.values, trace.values)

    def test_phase_roundoff_rejected_before_allocating(self, no_allocation):
        # eps * max|E| * max|w t| at the doubled cutoff: about 1e-5 here
        with pytest.raises(ValueError, match="phase roundoff"):
            concurrence_trace(
                ModelParams.from_beta(0.3), Vacuum(),
                make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X), [0.0, 5e8, 1e9],
            )

    def test_phase_bound_covers_every_eigenvalue(self):
        params, trunc = ModelParams.from_beta(3.0, omega0=5.0), TruncationSpec(200)
        prop = build_hamiltonian(params, trunc)
        bound = trunc.ncut + 5.0 / 2.0 + 2.0 * 3.0 * math.sqrt(trunc.ncut)
        assert np.max(np.abs(prop.energies)) <= bound
        phase = 1e-8 / (np.finfo(float).eps * bound)
        oracle._require_phase_accuracy(params, trunc.ncut, np.array([-0.99 * phase]), 1e-8)
        with pytest.raises(ValueError, match="phase roundoff"):
            oracle._require_phase_accuracy(params, trunc.ncut, np.array([-1.01 * phase]), 1e-8)

    def test_long_grid_at_small_cutoff_within_estimate(self):
        # the per-point stacks of a block are bounded, not only its phases
        params, trunc = ModelParams.from_beta(0.05), TruncationSpec(3, tail_tol=0.5)
        grid = np.linspace(0.0, 2 * PI, 40001)
        initial = make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X)
        tracemalloc.start()
        concurrence_trace(params, Vacuum(), initial, grid, trunc=trunc, check_convergence=False)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= oracle._trace_bytes(params, Vacuum(), trunc, check_convergence=False)


class TestFieldField:
    def _prop(self, beta, field):
        trunc = TruncationSpec(default_ncut(field, beta))
        return build_hamiltonian(ModelParams.from_beta(beta), trunc), trunc

    def test_zero_time_product_state(self):
        prop, trunc = self._prop(0.5, Vacuum())
        f = prop.fock_dim
        rho = field_field_reduced(prop, BellState.PHI_PLUS, Vacuum(), trunc, 0.0)
        assert negativity(rho, (f, f)) <= 1e-12

    def test_separability_at_half_period(self):
        prop, trunc = self._prop(0.75, Vacuum())
        f = prop.fock_dim
        rho = field_field_reduced(prop, BellState.PHI_PLUS, Vacuum(), trunc, PI)
        assert negativity(rho, (f, f)) <= 1e-9

    def test_purities(self):
        prop, trunc = self._prop(0.75, Vacuum())
        witness = field_field_witness(prop, BellState.PHI_PLUS, Vacuum(), trunc, PI)
        assert witness.qubit_purity == pytest.approx(0.5, abs=1e-12)
        # field branches +-b(t) with |b| = 2 beta: purity 1/2 + e^{-4|b|^2}/2
        assert witness.field_purity == pytest.approx(0.5 + 0.5 * math.exp(-9.0), abs=1e-10)

    @staticmethod
    def _dense_purities(prop, bell, field, trunc, wt):
        """Qubit and field purities from the dense (2, F, 2, F) four-party
        state."""
        rails = oracle._evolved_rails(prop, field, trunc, wt)
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
        params = ModelParams.from_beta(beta, omega0=omega0)
        trunc = TruncationSpec(default_ncut(field, beta))
        prop = build_hamiltonian(params, trunc)
        f = prop.fock_dim
        largest = 0.0
        for wt in np.linspace(0.0, 2 * PI, 7):
            witness = field_field_witness(prop, bell, field, trunc, wt)
            rho = field_field_reduced(prop, bell, field, trunc, wt)
            qp, fp = self._dense_purities(prop, bell, field, trunc, wt)
            assert witness.support_dim == support
            assert witness.negativity == pytest.approx(negativity(rho, (f, f)), abs=1e-12)
            assert witness.qubit_purity == pytest.approx(qp, abs=1e-12)
            assert witness.field_purity == pytest.approx(fp, abs=1e-12)
            largest = max(largest, witness.negativity)
        # the detuned fields do entangle; the degenerate ones stay PPT
        assert (largest > 0.05) == (omega0 != 0.0)

    def test_mixed_field_rejected(self):
        prop, trunc = self._prop(0.3, Vacuum())
        with pytest.raises(ValueError):
            field_field_reduced(prop, BellState.PHI_PLUS, Thermal(1.0), trunc, 1.0)
        with pytest.raises(ValueError):
            field_field_witness(prop, BellState.PHI_PLUS, Thermal(1.0), trunc, 1.0)


class TestMemoryBudget:
    """Inputs whose estimate is in petabytes: they fail on any machine, and
    the stages that would allocate are replaced so none is ever reached."""

    def test_trace_rejected_before_allocating(self, no_allocation):
        field = Thermal(1e6)
        with pytest.raises(TruncationError, match="physical memory"):
            concurrence_trace(
                ModelParams.from_beta(0.1), field,
                make_bell(BellState.PHI_PLUS, QubitBasis.SIGMA_X), np.array([0.0, 1.0]),
            )

    @pytest.mark.parametrize("omega0", [0.0, 0.7])
    def test_eigensolve_rejected_before_allocating(self, no_allocation, omega0):
        params = ModelParams.from_beta(0.5, omega0=omega0)
        with pytest.raises(TruncationError, match="physical memory"):
            build_hamiltonian(params, TruncationSpec(10**9))

    def test_estimate_covers_the_doubled_run(self):
        params = ModelParams.from_beta(0.1, omega0=0.7)
        trunc = TruncationSpec(1000)
        once = oracle._trace_bytes(params, Thermal(5.0), trunc, check_convergence=False)
        both = oracle._trace_bytes(params, Thermal(5.0), trunc)
        assert both == oracle._trace_bytes(params, Thermal(5.0), trunc.doubled(), False)
        assert both > 3 * once


class TestDefaultNcut:
    def test_minimum(self):
        assert default_ncut(Vacuum(), 0.0) >= 1

    def test_scales_with_occupation(self):
        assert default_ncut(Thermal(25.0), 0.1) > default_ncut(Thermal(1.0), 0.1)
        assert default_ncut(Number(25), 0.1) > default_ncut(Number(1), 0.1)
        assert default_ncut(Coherent(3.0), 0.1) > default_ncut(Coherent(0.5), 0.1)

    def test_thermal_tail_fits(self):
        for nbar in (0.5, 1.0, 2.0, 25.0):
            ncut = default_ncut(Thermal(nbar), 0.1)
            r = nbar / (1.0 + nbar)
            assert r ** (ncut + 1) <= 1e-10
