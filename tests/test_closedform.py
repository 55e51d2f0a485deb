"""Closed-form dynamics: frozen values and structural properties."""

import inspect
import math

import numpy as np
import pytest
from conftest import wootters
from dense_reference import coherent_overlap, laguerre

from degjc import closedform
from degjc.closedform import (
    concurrence_at_half_period,
    concurrence_closed,
    esd_concurrence_closed,
    evolve_spin_coherent,
    gamma,
    modulation_factor,
    single_qubit_coherence,
    two_qubit_offdiagonal,
)
from degjc.model import BellState, Coherent, Number, Thermal, Vacuum, make_esd_mixture
from degjc.specialfn import laguerre_roots

PI = math.pi


class TestGamma:
    def test_zero(self):
        assert gamma(0.0) == 0.0

    def test_half_period(self):
        assert gamma(PI) == pytest.approx(-2.0 + 0.0j, abs=1e-15)

    def test_full_period(self):
        assert abs(gamma(2.0 * PI)) < 1e-15

    def test_circle_around_minus_one(self, rng):
        wt = rng.uniform(0.0, 20.0, size=200)
        g = gamma(wt)
        np.testing.assert_allclose(np.abs(g + 1.0), 1.0, atol=1e-14)
        assert np.all(np.abs(g) <= 2.0 + 1e-14)

    def test_abs2_consistent_with_gamma(self, rng):
        wt = rng.uniform(0.0, 20.0, size=200)
        np.testing.assert_allclose(np.abs(gamma(wt)) ** 2, 2.0 - 2.0 * np.cos(wt), atol=1e-14)


class TestModulationFactor:
    def test_full_period_is_one(self):
        for beta in (0.0, 0.1, 0.75, 2.0):
            assert modulation_factor(beta, 2.0 * PI) == pytest.approx(1.0, abs=1e-14)

    def test_deep_dip(self):
        assert modulation_factor(0.75, PI) == pytest.approx(math.exp(-4.5), abs=1e-15)

    def test_shallow_dip(self):
        assert modulation_factor(0.1, PI) == pytest.approx(math.exp(-0.08), abs=1e-15)

    def test_zero_coupling_constant_one(self, rng):
        wt = rng.uniform(0.0, 20.0, size=50)
        np.testing.assert_allclose(modulation_factor(0.0, wt), 1.0, atol=0.0)

    def test_range(self, rng):
        wt = rng.uniform(0.0, 20.0, size=200)
        vals = modulation_factor(0.6, wt)
        assert np.all(vals > 0.0)
        assert np.all(vals <= 1.0)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            modulation_factor(-0.1, 1.0)


class TestCharacteristicIntegral:
    """The field's factor I(-2 beta gamma) in kappa: kappa over the envelope."""

    @staticmethod
    def _integral(field, beta, omega_t):
        return single_qubit_coherence(1, field, beta, omega_t) / modulation_factor(beta, omega_t)

    def test_coherent_is_pure_phase(self, rng):
        for _ in range(20):
            a0 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            val = self._integral(Coherent(a0), 0.4, rng.uniform(0, 2 * PI))
            assert abs(abs(val) - 1.0) < 1e-14

    def test_vacuum_and_number_zero(self):
        assert self._integral(Vacuum(), 0.5, 1.3) == 1.0 + 0.0j
        assert self._integral(Number(0), 0.5, 1.3) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_thermal_gaussian_value(self):
        # nbar=1, beta=0.5, wt=pi: exp(-4 * 1 * 0.25 * 4) = exp(-4)
        val = self._integral(Thermal(1.0), 0.5, PI)
        assert val.real == pytest.approx(math.exp(-4.0), rel=1e-14)
        assert val.imag == 0.0

    def test_number_is_laguerre(self):
        beta, wt = 0.35, 2.1
        val = self._integral(Number(4), beta, wt)
        assert val.real == pytest.approx(laguerre(4, 4 * beta**2 * abs(gamma(wt)) ** 2), rel=1e-14)


class TestSingleQubitCoherence:
    def test_full_revival(self, rng):
        q0 = 0.5 * np.exp(1j * 0.7)
        for field in (Vacuum(), Coherent(2.0 + 1.0j), Number(3), Thermal(1.5)):
            val = single_qubit_coherence(q0, field, 0.6, 2.0 * PI)
            assert val == pytest.approx(q0, abs=1e-13)

    def test_thermal_combined_exponent(self, rng):
        # q0 * exp(-2 (1+2 nbar) b^2 |gamma|^2)
        for _ in range(10):
            beta, nbar, wt = rng.uniform(0, 1), rng.uniform(0, 4), rng.uniform(0, 2 * PI)
            val = single_qubit_coherence(0.5, Thermal(nbar), beta, wt)
            expected = 0.5 * math.exp(-2 * (1 + 2 * nbar) * beta**2 * abs(gamma(wt)) ** 2)
            assert val == pytest.approx(expected, rel=1e-12)

    def test_real_coherent_amplitude_no_phase_at_half_period(self):
        # gamma*(pi) = -2 is real, so Im[a0 gamma*] = 0 for real a0
        beta = 0.3
        val = single_qubit_coherence(0.5, Coherent(1.7), beta, PI)
        assert val == pytest.approx(0.5 * math.exp(-8 * beta**2), rel=1e-13)
        assert val.imag == pytest.approx(0.0, abs=1e-15)

    def test_rejects_unphysical_magnitude(self):
        with pytest.raises(ValueError, match="q0"):
            single_qubit_coherence(1.5, Vacuum(), 0.3, 1.0)

    @pytest.mark.parametrize("q0", [float("nan"), complex("nan+1j")])
    def test_rejects_nan(self, q0):
        # a NaN q0 gave nan+nanj: abs(q0) > 1 is False for NaN
        with pytest.raises(ValueError, match="q0"):
            single_qubit_coherence(q0, Vacuum(), 0.3, 1.0)

    def test_magnitude_bounded_by_envelope_for_classical_fields(self, rng):
        # positive-P classes only; number states can exceed the envelope
        for _ in range(50):
            beta, wt = rng.uniform(0, 1.5), rng.uniform(0, 4 * PI)
            field = [Vacuum(), Coherent(1.0 + 1.0j), Thermal(2.0)][rng.integers(0, 3)]
            val = single_qubit_coherence(0.5, field, beta, wt) / 0.5
            assert abs(val) <= modulation_factor(beta, wt) + 1e-12

    def test_number_state_magnitude_stays_physical(self, rng):
        # |L_N(x)| <= e^{x/2} bounds the unit-coherence factor by 1
        for _ in range(100):
            beta, wt = rng.uniform(0, 1.5), rng.uniform(0, 4 * PI)
            val = single_qubit_coherence(0.5, Number(int(rng.integers(0, 30))), beta, wt) / 0.5
            assert abs(val) <= 1.0 + 1e-12


class TestTwoQubitOffdiagonal:
    def test_coherent_phase_and_envelope(self, rng):
        for _ in range(10):
            beta, wt = rng.uniform(0, 1), rng.uniform(0, 2 * PI)
            a0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            g = gamma(wt)
            expected = (
                0.5
                * np.exp(8j * beta * np.imag(a0 * np.conj(g)))
                * math.exp(-4 * beta**2 * abs(g) ** 2)
            )
            val = two_qubit_offdiagonal(BellState.PHI_PLUS, Coherent(a0), beta, wt)
            assert val == pytest.approx(expected, rel=1e-12)

    def test_revival_to_half(self):
        # Phi+- start at +1/2 and Psi+- at -1/2 in the sigma_x basis
        for bell in BellState:
            start = 0.5 if bell in (BellState.PHI_PLUS, BellState.PHI_MINUS) else -0.5
            for field in (Vacuum(), Coherent(1.0), Number(2), Thermal(0.7)):
                val = two_qubit_offdiagonal(bell, field, 0.8, 2.0 * PI)
                assert val == pytest.approx(start, abs=1e-12)

    def test_phi_minus_thermal_is_real_decay(self, rng):
        for _ in range(10):
            beta, nbar, wt = rng.uniform(0, 1), rng.uniform(0, 3), rng.uniform(0, 2 * PI)
            val = two_qubit_offdiagonal(BellState.PHI_MINUS, Thermal(nbar), beta, wt)
            expected = 0.5 * math.exp(-4 * (1 + 2 * nbar) * beta**2 * abs(gamma(wt)) ** 2)
            assert val == pytest.approx(expected, rel=1e-12)

    def test_psi_maps_to_phi(self, rng):
        # Psi+ is (up up - down down)/sqrt(2) and Psi- (down up - up down)/sqrt(2)
        # in the sigma_x basis: the Phi+ corner and Phi- middle, negated
        beta, wt = 0.45, 1.9
        field = Coherent(1.0 - 0.5j)
        phi_plus = two_qubit_offdiagonal(BellState.PHI_PLUS, field, beta, wt)
        phi_minus = two_qubit_offdiagonal(BellState.PHI_MINUS, field, beta, wt)
        assert abs(np.angle(phi_plus)) > 0.5  # the corner carries the phase of kappa^2
        assert two_qubit_offdiagonal(BellState.PSI_PLUS, field, beta, wt) == -phi_plus
        assert two_qubit_offdiagonal(BellState.PSI_MINUS, field, beta, wt) == -phi_minus

    @pytest.mark.parametrize("bell", ["phi+", None])
    @pytest.mark.parametrize("law", [two_qubit_offdiagonal, concurrence_closed])
    def test_rejects_what_is_no_bell_state(self, law, bell):
        with pytest.raises(TypeError, match="Bell state"):
            law(bell, Vacuum(), 0.3, 1.0)

    def test_concurrence_is_twice_magnitude(self, rng):
        for _ in range(20):
            beta, wt = rng.uniform(0, 1), rng.uniform(0, 2 * PI)
            field = [Vacuum(), Coherent(0.5 + 2.0j), Number(3), Thermal(1.2)][
                rng.integers(0, 4)
            ]
            for bell in BellState:
                c = concurrence_closed(bell, field, beta, wt)
                corner = two_qubit_offdiagonal(bell, field, beta, wt)
                assert c == pytest.approx(2 * abs(corner), rel=1e-11, abs=1e-13)


class TestConcurrenceClosed:
    def test_revival_all_classes(self):
        for k in range(6):
            for field in (Vacuum(), Coherent(3.0), Number(25), Thermal(25.0)):
                val = concurrence_closed(BellState.PHI_PLUS, field, 0.5, 2.0 * PI * k)
                assert val == pytest.approx(1.0, abs=1e-12)

    def test_number_one_touches_zero_at_laguerre_root(self):
        # x = 16 b^2 = 1 at b = 1/4 hits the single root of L_1
        val = concurrence_closed(BellState.PHI_PLUS, Number(1), 0.25, PI)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_thermal_frozen_value(self):
        val = concurrence_closed(BellState.PHI_PLUS, Thermal(1.0), 0.1, PI)
        assert val == pytest.approx(math.exp(-0.48), rel=1e-14)

    def test_class_unification_on_grid(self):
        wt = np.linspace(0.0, 2.0 * PI, 1000)
        beta = 0.37
        base = concurrence_closed(BellState.PHI_PLUS, Vacuum(), beta, wt)
        for field in (Coherent(1.3 - 0.4j), Number(0), Thermal(0.0)):
            other = concurrence_closed(BellState.PHI_PLUS, field, beta, wt)
            assert np.max(np.abs(other - base)) <= 1e-12

    def test_thermal_equals_enhanced_coupling(self):
        wt = np.linspace(0.0, 2.0 * PI, 1000)
        for beta, nbar in ((0.1, 1.0), (0.25, 2.0), (0.4, 25.0)):
            th = concurrence_closed(BellState.PHI_PLUS, Thermal(nbar), beta, wt)
            coh = concurrence_closed(
                BellState.PHI_PLUS, Vacuum(), beta * math.sqrt(1 + 2 * nbar), wt
            )
            assert np.max(np.abs(th - coh)) <= 1e-12

    def test_alpha0_invariance(self):
        wt = np.linspace(0.0, 2.0 * PI, 1000)
        beta = 0.3
        base = concurrence_closed(BellState.PHI_PLUS, Coherent(0.0), beta, wt)
        for a0 in (1.0, 10.0 + 3.0j, 100.0):
            other = concurrence_closed(BellState.PHI_PLUS, Coherent(a0), beta, wt)
            assert np.max(np.abs(other - base)) <= 1e-12

    def test_bell_equivalence(self):
        wt = np.linspace(0.0, 2.0 * PI, 1000)
        traces = [concurrence_closed(b, Number(2), 0.45, wt) for b in BellState]
        for t in traces[1:]:
            assert np.max(np.abs(t - traces[0])) <= 1e-12

    def test_periodicity(self, rng):
        wt = rng.uniform(0.0, 2.0 * PI, size=100)
        for field in (Vacuum(), Coherent(1.0), Number(3), Thermal(2.0)):
            a = concurrence_closed(BellState.PHI_PLUS, field, 0.6, wt)
            b = concurrence_closed(BellState.PHI_PLUS, field, 0.6, wt + 2.0 * PI)
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_single_to_two_qubit_exponent_ratio(self, rng):
        # the pair concurrence is the squared magnitude of the unit
        # single-qubit factor (2 b^2 vs 4 b^2 exponents, |I| vs |I|^2)
        for _ in range(30):
            beta, wt = rng.uniform(0, 1.2), rng.uniform(0, 2 * PI)
            field = [Vacuum(), Coherent(1.5), Number(4), Thermal(1.7)][rng.integers(0, 4)]
            single = abs(single_qubit_coherence(1.0, field, beta, wt))
            pair = concurrence_closed(BellState.PHI_PLUS, field, beta, wt)
            assert pair == pytest.approx(single**2, rel=1e-11, abs=1e-14)

    def test_hotter_thermal_field_decays_faster(self):
        # pointwise ordering away from the revival points
        wt = np.linspace(0.01, 2 * PI - 0.01, 500)
        hot = concurrence_closed(BellState.PHI_PLUS, Thermal(25.0), 0.1, wt)
        cool = concurrence_closed(BellState.PHI_PLUS, Thermal(1.0), 0.1, wt)
        assert np.all(hot <= cool)

    def test_zero_crossing_count_bounded(self):
        wt = np.linspace(1e-9, 2 * PI - 1e-9, 8192)
        for n in (1, 2, 5, 25):
            for beta in (0.1, 0.5):
                x = 4 * beta**2 * (2 - 2 * np.cos(wt))
                vals = laguerre(n, x)
                crossings = int(np.sum(vals[:-1] * vals[1:] < 0) + np.sum(vals == 0.0))
                expected = 2 * len(laguerre_roots(n, 16 * beta**2))
                assert crossings == expected
                assert crossings <= 2 * n


class TestHalfPeriod:
    def test_matches_concurrence_closed_exactly(self):
        for field in (Vacuum(), Coherent(5.0 + 2.0j), Number(25), Thermal(25.0)):
            for beta in (0.1, 0.3, 0.77):
                a = concurrence_at_half_period(field, beta)
                b = concurrence_closed(BellState.PHI_PLUS, field, beta, PI)
                assert a == b  # bit-for-bit: |gamma(pi)|^2 == 4.0

    def test_coherent_value_alpha_independent(self):
        assert concurrence_at_half_period(Coherent(5.0 + 2.0j), 0.3) == pytest.approx(
            math.exp(-1.44), rel=1e-14
        )
        assert concurrence_at_half_period(Vacuum(), 0.3) == pytest.approx(
            math.exp(-1.44), rel=1e-14
        )

    def test_number_value(self):
        expected = math.exp(-0.16) * laguerre(25, 0.16) ** 2
        assert concurrence_at_half_period(Number(25), 0.1) == pytest.approx(expected, rel=1e-13)

    def test_thermal_value(self):
        assert concurrence_at_half_period(Thermal(25.0), 0.1) == pytest.approx(
            math.exp(-8.16), rel=1e-13
        )

    def test_empty_beta_gives_empty_values(self):
        for field in (Vacuum(), Coherent(5.0 + 2.0j), Number(5), Thermal(25.0)):
            assert concurrence_at_half_period(field, []).shape == (0,)

    def test_number_root_zero(self):
        assert concurrence_at_half_period(Number(1), 0.25) == 0.0


class TestEsdClosed:
    def test_initial_value_is_half(self):
        assert esd_concurrence_closed(0.3, 2.0, 0.0) == pytest.approx(0.5, abs=1e-15)
        # and matches the eigen-solve on the constructed mixture
        assert wootters(make_esd_mixture())[0] == pytest.approx(0.5, abs=1e-8)

    def test_esd_reached_at_strong_thermal(self):
        assert esd_concurrence_closed(0.1, 25.0, PI) == 0.0

    def test_no_esd_at_weak_thermal(self):
        val = esd_concurrence_closed(0.1, 2.0, PI)
        assert val == pytest.approx(0.75 * math.exp(-0.8) - 0.25, rel=1e-13)
        assert val > 0.0

    def test_threshold_dichotomy(self):
        wt = np.linspace(0.0, 2.0 * PI, 3000)
        for beta, nbar in ((0.1, 25.0), (0.1, 2.0), (0.5, 2.0), (0.25, 1.0), (0.15, 3.0)):
            trace = np.asarray(esd_concurrence_closed(beta, nbar, wt))
            has_zero = bool(np.any(trace == 0.0))
            assert has_zero == (16 * (1 + 2 * nbar) * beta**2 >= math.log(3.0))

    def test_revival_to_initial(self):
        assert esd_concurrence_closed(0.4, 10.0, 2.0 * PI) == pytest.approx(0.5, abs=1e-12)


class TestEvolvedVacuumAmplitude:
    """The vacuum branch amplitude beta gamma*(t): the spin-up map at alpha = 0."""

    @staticmethod
    def _amplitude(beta, omega_t):
        return evolve_spin_coherent(0.0, True, beta, omega_t)[0]

    def test_zero_time(self):
        assert self._amplitude(0.6, 0.0) == 0.0

    def test_half_period(self):
        assert self._amplitude(0.6, PI) == pytest.approx(-1.2 + 0.0j, abs=1e-15)

    def test_branch_overlap_becomes_small(self):
        b = self._amplitude(0.75, PI)
        overlap = coherent_overlap(b, -b)
        assert abs(overlap) == pytest.approx(math.exp(-2 * abs(b) ** 2), rel=1e-13)
        assert abs(overlap) == pytest.approx(math.exp(-4.5), rel=1e-13)


class TestSpinCoherentEvolution:
    def test_center_is_fixed_point(self, rng):
        beta = 0.55
        for wt in rng.uniform(0.0, 4 * PI, size=20):
            amp, _ = evolve_spin_coherent(-beta, True, beta, wt)
            assert amp == pytest.approx(-beta, abs=1e-14)

    def test_vacuum_half_period(self):
        amp, _ = evolve_spin_coherent(0.0, True, 0.4, PI)
        assert amp == pytest.approx(-0.8 + 0.0j, abs=1e-15)

    def test_phase_is_unit_modulus(self, rng):
        for _ in range(30):
            alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            _, phase = evolve_spin_coherent(
                alpha, bool(rng.integers(0, 2)), rng.uniform(0, 1), rng.uniform(0, 2 * PI)
            )
            assert abs(phase) == pytest.approx(1.0, abs=1e-14)

    def test_down_spin_mirrors_up(self, rng):
        # down evolution with coupling b equals up evolution with -b
        alpha = 0.3 + 0.1j
        beta, wt = 0.5, 1.2
        amp_down, _ = evolve_spin_coherent(alpha, False, beta, wt)
        rot = np.exp(-1j * wt)
        assert amp_down == pytest.approx((alpha - beta) * rot + beta, abs=1e-14)


class TestNonFiniteInputs:
    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize(
        "call",
        [
            lambda b, wt: modulation_factor(b, wt),
            lambda b, wt: single_qubit_coherence(0.5, Number(3), b, wt),
            lambda b, wt: single_qubit_coherence(0.5, Vacuum(), b, wt),
            lambda b, wt: two_qubit_offdiagonal(BellState.PHI_PLUS, Thermal(1.0), b, wt),
            lambda b, wt: concurrence_closed(BellState.PHI_PLUS, Number(2), b, wt),
            lambda b, wt: concurrence_closed(BellState.PSI_MINUS, Coherent(1.0), b, wt),
            lambda b, wt: esd_concurrence_closed(b, 2.0, wt),
            lambda b, wt: evolve_spin_coherent(0.0, True, b, wt),
            lambda b, wt: evolve_spin_coherent(0.3, True, b, wt),
            lambda b, wt: two_qubit_offdiagonal(BellState.PSI_PLUS, Number(2), b, wt),
        ],
    )
    @pytest.mark.parametrize(
        "beta, omega_t",
        [
            (NAN, 1.0),
            (INF, 1.0),
            (-0.1, 1.0),
            (0.3, INF),
            (0.3, NAN),
            (0.3, np.array([0.0, 1.0, INF])),
        ],
    )
    def test_rejected(self, call, beta, omega_t):
        with pytest.raises(ValueError):
            call(beta, omega_t)

    @pytest.mark.parametrize("bad", [NAN, INF, -INF, -0.1])
    @pytest.mark.parametrize("field", [Vacuum(), Number(3), Thermal(1.0)])
    def test_array_beta_rejected(self, field, bad):
        with pytest.raises(ValueError):
            concurrence_at_half_period(field, np.array([0.0, 0.5, bad]))
        with pytest.raises(ValueError):
            concurrence_at_half_period(field, [bad])


class TestNumberStateOverflow:
    """e^{-x} L_N(x)^2 lies in [0, 1] although L_N(x) leaves the float range."""

    @staticmethod
    def _reference(n, beta, wt):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            x = 4 * mpmath.mpf(beta) ** 2 * (2 - 2 * mpmath.cos(mpmath.mpf(float(wt))))
            return float(mpmath.exp(-x) * mpmath.laguerre(n, 0, x) ** 2)

    def test_half_period_against_mpmath(self):
        for n, beta in ((200, 10.0), (1000, 10.0), (200, 3.0)):
            val = concurrence_at_half_period(Number(n), beta)
            assert isinstance(val, np.floating)
            assert val == pytest.approx(self._reference(n, beta, PI), rel=1e-12, abs=1e-300)

    def test_sweep_against_mpmath(self):
        wt = np.linspace(0.0, 4 * PI, 257)
        vals = concurrence_closed(BellState.PHI_PLUS, Number(200), 10.0, wt)
        assert np.all(np.isfinite(vals))
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        for i in range(0, 257, 16):
            assert vals[i] == pytest.approx(self._reference(200, 10.0, wt[i]), abs=1e-13)

    def test_largest_order_stays_finite(self):
        wt = np.linspace(0.0, 2 * PI, 65)
        vals = concurrence_closed(BellState.PHI_PLUS, Number(10_000), 20.0, wt)
        assert np.all(np.isfinite(vals))
        assert np.all((vals >= 0.0) & (vals <= 1.0 + 1e-12))

    def test_coherence_and_offdiagonal_fold_the_same_law(self):
        wt = np.linspace(0.1, 2 * PI - 0.1, 33)
        c = concurrence_closed(BellState.PHI_PLUS, Number(200), 10.0, wt)
        coh = single_qubit_coherence(0.5, Number(200), 10.0, wt)
        off = two_qubit_offdiagonal(BellState.PHI_MINUS, Number(200), 10.0, wt)
        assert np.all(np.isfinite(coh)) and np.all(np.isfinite(off))
        np.testing.assert_allclose(4.0 * np.abs(coh) ** 2, c, rtol=1e-11, atol=1e-15)
        np.testing.assert_allclose(2.0 * np.abs(off), c, rtol=1e-11, atol=1e-15)


class TestNumberStateUnderflow:
    """Where exp(-x/2) underflows or is subnormal while L_N(x) is finite, the
    plain product is 0, subnormal or short of bits; the folded form keeps
    every normal value to its relative accuracy."""

    @staticmethod
    def _references(n, beta, wt):
        """(Q_updown/q0, C = 2 |off-diagonal|) at 40 digits."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            x = 4 * mpmath.mpf(beta) ** 2 * (2 - 2 * mpmath.cos(mpmath.mpf(float(wt))))
            lag = mpmath.laguerre(n, 0, x)
            return float(mpmath.exp(-x / 2) * lag), float(mpmath.exp(-x) * lag**2)

    @pytest.mark.parametrize("n, beta", [(200, 10.0), (25, 8.0)])
    def test_three_laws_against_mpmath(self, n, beta):
        wt = np.linspace(0.05, 2 * PI - 0.05, 41)
        coh = single_qubit_coherence(0.5, Number(n), beta, wt) / 0.5
        off = {b: 2.0 * np.abs(two_qubit_offdiagonal(b, Number(n), beta, wt)) for b in BellState}
        c = concurrence_closed(BellState.PHI_PLUS, Number(n), beta, wt)
        for i, w in enumerate(wt):
            ref_coh, ref_c = self._references(n, beta, w)
            assert coh[i] == pytest.approx(ref_coh, rel=1e-10, abs=1e-300)
            for b in BellState:
                assert off[b][i] == pytest.approx(ref_c, rel=1e-10, abs=1e-300)
            assert c[i] == pytest.approx(ref_c, rel=1e-10, abs=1e-300)

    def test_scalar_points(self):
        # the plain products give 0j and 0j (true values 6.6e-94 and
        # 8.7e-187), and C = 9.4e-308 from a subnormal exp(-720)
        coh = single_qubit_coherence(0.5, Number(200), 10.0, 3.0) / 0.5
        off = 2.0 * two_qubit_offdiagonal(BellState.PHI_PLUS, Number(200), 10.0, 3.0)
        c = concurrence_at_half_period(Number(1), math.sqrt(45.0))
        ref_coh, ref_off = self._references(200, 10.0, 3.0)
        _, ref_c = self._references(1, math.sqrt(45.0), PI)
        for value, ref in ((coh, ref_coh), (off, ref_off), (c, ref_c)):
            assert isinstance(value, np.number)
            assert abs(value - ref) <= 1e-10 * abs(ref)


class TestScalarMatchesArray:
    """One phase gives the bits of the matching element of a phase grid.
    With its own scalar expressions (``math.exp`` and ``** 2``) the scalar
    law differed from the grid in up to 73 of these 4001 elements; with
    numpy's scalar complex multiply the coherent laws differed in up to
    1735."""

    LAWS = {
        "concurrence": lambda n, beta, wt: concurrence_closed(
            BellState.PHI_PLUS, Number(n), beta, wt),
        "coherence": lambda n, beta, wt: single_qubit_coherence(0.5, Number(n), beta, wt),
    }

    @pytest.mark.parametrize(
        "law, n, beta", [("concurrence", 200, 10.0), ("concurrence", 1000, 2.0),
                         ("coherence", 200, 10.0)])
    def test_number_state_bits(self, law, n, beta):
        grid = np.linspace(0.0, 2 * PI, 4001)
        grid_values = self.LAWS[law](n, beta, grid)
        point_values = np.array([self.LAWS[law](n, beta, wt) for wt in grid.tolist()])
        differ = np.flatnonzero(point_values != grid_values)
        assert differ.size == 0, f"{differ.size} of {grid.size} phases differ, first {differ[:5]}"

    # Every public law of degjc.closedform, as a tuple of its outputs for
    # (field, omega_t); laws without a field take their parameter from it.
    PUBLIC_LAWS = {
        "gamma": lambda f, wt: (gamma(wt),),
        "modulation_factor": lambda f, wt: (modulation_factor(0.3, wt),),
        "single_qubit_coherence": lambda f, wt: (single_qubit_coherence(0.5, f, 0.3, wt),),
        "two_qubit_offdiagonal": lambda f, wt: tuple(
            two_qubit_offdiagonal(b, f, 0.3, wt) for b in BellState),
        "concurrence_closed": lambda f, wt: (concurrence_closed(BellState.PHI_PLUS, f, 0.3, wt),),
        "esd_concurrence_closed": lambda f, wt: (
            esd_concurrence_closed(0.3, getattr(f, "nbar", 0.0), wt),),
        "evolve_spin_coherent": lambda f, wt: tuple(
            v for up in (True, False)
            for v in evolve_spin_coherent(getattr(f, "alpha0", 0.3 + 0.2j), up, 0.3, wt)),
    }

    @pytest.mark.parametrize(
        "field", [Vacuum(), Coherent(-2.3 + 0.1j), Number(5), Thermal(2.0)], ids=str)
    @pytest.mark.parametrize("law", sorted(PUBLIC_LAWS))
    def test_public_law_bits(self, law, field):
        grid = np.linspace(0.0, 2 * PI, 4001)
        every = 50  # 81 phases, both ends included
        grid_values = np.array(self.PUBLIC_LAWS[law](field, grid))[:, ::every]
        points = [self.PUBLIC_LAWS[law](field, wt) for wt in grid[::every].tolist()]
        assert all(isinstance(v, np.generic) for values in points for v in values)
        point_values = np.array(points).T
        bits = [np.ascontiguousarray(v).view(np.uint64) for v in (point_values, grid_values)]
        differ = np.flatnonzero(np.any(bits[0] != bits[1], axis=0))
        assert differ.size == 0, f"{differ.size} of {len(points)} differ, first {differ[:5]}"


    @pytest.mark.parametrize("law", sorted(PUBLIC_LAWS))
    def test_empty_grid_gives_empty_values(self, law):
        # the number-state laws raised a math domain error on an empty grid
        for grid in (np.array([]), np.empty((2, 0))):
            for values in self.PUBLIC_LAWS[law](Number(5), grid):
                assert values.shape == grid.shape


def test_every_phase_law_is_checked_point_by_point():
    # a new law that takes omega_t must join the table above, so that it
    # cannot bring back a scalar path of its own unseen
    laws = {
        name for name, fn in inspect.getmembers(closedform, inspect.isfunction)
        if fn.__module__ == closedform.__name__ and not name.startswith("_")
        and "omega_t" in inspect.signature(fn).parameters
    }
    assert len(laws) == 7
    assert laws == set(TestScalarMatchesArray.PUBLIC_LAWS)
