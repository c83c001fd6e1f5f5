"""Linear response: pole structure, Kubo assembly, and conductivity limits.

Oracles:
  * time-domain kernels Laplace-transformed by adaptive quadrature and
    compared with the closed-form frequency responses,
  * generic complex pole algebra recomputed with python complex numbers,
  * central finite differences for the Maxwell relation chi_EA = -dchi_AA/dt.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from cavity2deg import (
    CODATA2018,
    BroadenedFrequency,
    DerivedScales,
    DomainError,
    InstabilityError,
    ResponseKind,
    SystemConfig,
    UnitModeError,
    UnitsMode,
    absorption_rate,
    chi_aa_freq,
    chi_aa_time,
    chi_ea_freq,
    chi_ea_time,
    chi_jj_freq,
    chi_mixed_freq,
    dc_conductivity,
    drude_effective_mass,
    optical_conductivity,
    response_table,
    sigma0_dc,
)

RATIO_SCALES = DerivedScales(SystemConfig.from_ratio(0.5))
OMEGA_T_RATIO = math.sqrt(1.25)


def si_scales():
    return DerivedScales(
        SystemConfig.si(10**8, 1e-8, 1e-6, mode_frequency=2e13))


def laplace_oracle(kernel, w, eta, t_max):
    """Independent Laplace transform int_0^inf e^{i(w+i eta)t} kernel(t) dt.

    Truncating at t_max = 45/eta leaves an e^{-45} tail; the adaptive
    quadrature is pushed to roundoff (hence the suppressed warning).
    """
    re, _ = quad(lambda t: math.exp(-eta * t) * math.cos(w * t) * kernel(t),
                 0.0, t_max, limit=8000, epsabs=1e-13, epsrel=1e-12)
    im, _ = quad(lambda t: math.exp(-eta * t) * math.sin(w * t) * kernel(t),
                 0.0, t_max, limit=8000, epsabs=1e-13, epsrel=1e-12)
    return re, im


class TestTimeKernels:
    @given(st.floats(-100.0, -1e-9))
    def test_causal(self, tau):
        assert chi_aa_time(tau, RATIO_SCALES) == 0.0
        assert chi_ea_time(tau, RATIO_SCALES) == 0.0

    def test_equal_time_values(self):
        assert chi_aa_time(0.0, RATIO_SCALES) == 0.0
        assert chi_ea_time(0.0, RATIO_SCALES) == 1.0  # 1/(eps0 V) = 1 here

    def test_si_normalization(self):
        sc = si_scales()
        eps0_v = CODATA2018.eps0 * 1e-14
        tau = 0.3 / sc.omega_tilde
        assert chi_aa_time(tau, sc) == pytest.approx(
            -math.sin(sc.omega_tilde * tau) / (eps0_v * sc.omega_tilde),
            rel=1e-14)

    def test_maxwell_relation_second_order(self):
        # chi_EA = -d chi_AA / dtau, central differences, O(h^2) check
        tau = 1.1
        errs = []
        for h in (1e-4, 5e-5):
            fd = -(chi_aa_time(tau + h, RATIO_SCALES)
                   - chi_aa_time(tau - h, RATIO_SCALES)) / (2 * h)
            errs.append(abs(fd - chi_ea_time(tau, RATIO_SCALES)))
        assert errs[0] < 1e-8
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


class TestFrequencyResponses:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w, eta", [(1e200, 1.0), (1.0, 1e200),
                                        (np.array([1e13, 1e200]), 1e11)])
    def test_overflowing_probe_rejected(self, w, eta):
        # (w +- omega_t)^2 + eta^2 leaves the float range: a Python float
        # used to raise a bare OverflowError
        for func in (chi_aa_freq, chi_ea_freq, optical_conductivity):
            with pytest.raises(DomainError, match="overflows"):
                func(BroadenedFrequency(w, eta), si_scales())

    def test_broadening_required(self):
        with pytest.raises(DomainError):
            chi_aa_freq(BroadenedFrequency(1.0, 0.0), RATIO_SCALES)
        with pytest.raises(DomainError):
            BroadenedFrequency(1.0, -0.1)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_non_finite_broadening_rejected(self, eta):
        with pytest.raises(DomainError, match="finite"):
            BroadenedFrequency(1.0, eta)

    def test_complex_pole_algebra_oracle(self):
        # recompute the split closed forms with plain complex arithmetic
        for w in (-2.0, 0.0, 0.3, OMEGA_T_RATIO, 2.5):
            u = complex(w, 0.05)
            ref_aa = -(1 / (u + OMEGA_T_RATIO) - 1 / (u - OMEGA_T_RATIO)) / (
                2 * OMEGA_T_RATIO)
            ref_ea = 1j * (1 / (u + OMEGA_T_RATIO)
                           + 1 / (u - OMEGA_T_RATIO)) / 2
            f = BroadenedFrequency(w, 0.05)
            got_aa = chi_aa_freq(f, RATIO_SCALES)
            got_ea = chi_ea_freq(f, RATIO_SCALES)
            assert got_aa.re == pytest.approx(ref_aa.real, rel=1e-13)
            assert got_aa.im == pytest.approx(ref_aa.imag, rel=1e-13)
            assert got_ea.re == pytest.approx(ref_ea.real, rel=1e-13)
            assert got_ea.im == pytest.approx(ref_ea.imag, rel=1e-13)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_laplace_transform_oracle(self):
        eta = 0.05
        t_max = 45.0 / eta
        for w in (0.3, 0.9, OMEGA_T_RATIO, 2.5):
            f = BroadenedFrequency(w, eta)
            re, im = laplace_oracle(lambda t: chi_aa_time(t, RATIO_SCALES),
                                    w, eta, t_max)
            got = chi_aa_freq(f, RATIO_SCALES)
            assert got.re == pytest.approx(re, rel=1e-10, abs=1e-12)
            assert got.im == pytest.approx(im, rel=1e-10, abs=1e-12)
            re, im = laplace_oracle(lambda t: chi_ea_time(t, RATIO_SCALES),
                                    w, eta, t_max)
            got = chi_ea_freq(f, RATIO_SCALES)
            assert got.re == pytest.approx(re, rel=1e-10, abs=1e-12)
            assert got.im == pytest.approx(im, rel=1e-10, abs=1e-12)

    @given(st.floats(-5.0, 5.0), st.floats(1e-3, 1.0))
    def test_parity(self, w, eta):
        plus = chi_aa_freq(BroadenedFrequency(w, eta), RATIO_SCALES)
        minus = chi_aa_freq(BroadenedFrequency(-w, eta), RATIO_SCALES)
        assert plus.re == pytest.approx(minus.re, rel=1e-12, abs=1e-15)
        assert plus.im == pytest.approx(-minus.im, rel=1e-12, abs=1e-15)

    def test_ea_equals_iu_times_aa(self):
        # frequency image of the time derivative; no boundary term since
        # chi_AA(0) = 0
        for w in (-1.7, 0.2, 1.4):
            f = BroadenedFrequency(w, 0.08)
            u = complex(w, 0.08)
            ref = 1j * u * chi_aa_freq(f, RATIO_SCALES).as_complex
            got = chi_ea_freq(f, RATIO_SCALES).as_complex
            assert got == pytest.approx(ref, rel=1e-12)

    @given(st.floats(-4.0, 4.0))
    def test_spectral_weight_sign(self, w):
        # Im chi_AA(w) has the sign of -w (dissipation)
        f = BroadenedFrequency(w, 0.02)
        val = chi_aa_freq(f, RATIO_SCALES)
        assert val.im * w <= 0.0


class TestArraySweeps:
    """A BroadenedFrequency with an ndarray w evaluates a whole sweep in one
    call; the per-point scalar calls are its oracle."""

    @staticmethod
    def sweep(scales):
        wt = (scales.omega_tilde_over_omega
              if scales.config.units_mode is UnitsMode.RATIO
              else scales.omega_tilde)
        w = np.append(np.linspace(-3 * wt, 3 * wt, 601), [wt, -wt, 0.0])
        return w, 0.01 * wt

    def check(self, func, scales, assert_matches_loop):
        w, eta = self.sweep(scales)
        got = func(BroadenedFrequency(w, eta), scales)
        want = [func(BroadenedFrequency(float(x), eta), scales) for x in w]
        assert_matches_loop(got.re, [v.re for v in want])
        assert_matches_loop(got.im, [v.im for v in want])

    @pytest.mark.parametrize("func", [chi_aa_freq, chi_ea_freq,
                                      optical_conductivity])
    @pytest.mark.parametrize("units", ["si", "ratio"])
    def test_field_kinds(self, func, units, assert_matches_loop):
        scales = si_scales() if units == "si" else RATIO_SCALES
        self.check(func, scales, assert_matches_loop)

    @pytest.mark.parametrize("func", [chi_jj_freq, chi_mixed_freq])
    def test_matter_kinds(self, func, assert_matches_loop):
        self.check(func, si_scales(), assert_matches_loop)

    def test_absorption_rate(self, assert_matches_loop):
        w, eta = self.sweep(RATIO_SCALES)
        got = absorption_rate(BroadenedFrequency(w, eta), RATIO_SCALES, 0.3)
        want = [absorption_rate(BroadenedFrequency(float(x), eta),
                                RATIO_SCALES, 0.3) for x in w]
        assert_matches_loop(got, want)


class TestProportionalityWeb:
    def test_matter_coupled_kinds(self):
        sc = si_scales()
        pref = CODATA2018.e**2 * 10**8 / CODATA2018.m_e
        f = BroadenedFrequency(1.5e13, 1e11)
        aa = chi_aa_freq(f, sc)
        jj = chi_jj_freq(f, sc)
        ja = chi_mixed_freq(f, sc, ResponseKind.JA)
        aj = chi_mixed_freq(f, sc, ResponseKind.AJ)
        assert jj.re == pytest.approx(pref**2 * aa.re, rel=1e-15)
        assert jj.im == pytest.approx(pref**2 * aa.im, rel=1e-15)
        assert ja.re == pytest.approx(-pref * aa.re, rel=1e-15)
        assert (aj.re, aj.im) == (ja.re, ja.im)

    def test_mixed_kind_guard(self):
        with pytest.raises(DomainError):
            chi_mixed_freq(BroadenedFrequency(1.0, 0.1), si_scales(),
                           ResponseKind.AA)

    def test_ratio_mode_blocks_matter_kinds(self):
        f = BroadenedFrequency(1.0, 0.1)
        for func in (chi_jj_freq, chi_mixed_freq):
            with pytest.raises(UnitModeError):
                func(f, RATIO_SCALES)
        with pytest.raises(UnitModeError):
            response_table(f, RATIO_SCALES)

    def test_response_table_rank_one(self):
        sc = si_scales()
        f = BroadenedFrequency(1.5e13, 1e11)
        t = response_table(f, sc)
        assert t.shape == (2, 2)
        assert t[0, 1] == t[1, 0]
        det = t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
        assert abs(det) <= 1e-12 * abs(t[0, 1]) ** 2
        assert t[1, 1] == chi_aa_freq(f, sc).as_complex


class TestAbsorption:
    def test_nonnegative_on_dense_grid(self):
        for w in np.linspace(-6.0, 6.0, 10_001):
            assert absorption_rate(BroadenedFrequency(float(w), 0.03),
                                   RATIO_SCALES, 2.0) >= 0.0

    @given(st.floats(-50.0, 50.0), st.floats(1e-4, 10.0),
           st.floats(0.0, 10.0))
    def test_nonnegative_property(self, w, eta, j_ext):
        assert absorption_rate(BroadenedFrequency(w, eta), RATIO_SCALES,
                               j_ext) >= 0.0

    def test_peak_near_dressed_frequency(self):
        eta = 1e-3
        grid = np.linspace(0.5, 2.0, 4001)
        rates = [absorption_rate(BroadenedFrequency(float(w), eta),
                                 RATIO_SCALES, 1.0) for w in grid]
        assert grid[int(np.argmax(rates))] == pytest.approx(OMEGA_T_RATIO,
                                                            abs=2e-3)


class TestOpticalConductivity:
    def test_kubo_assembly_identity(self):
        # sigma = i/(w + i eta) (e^2 n_e/m_e + chi_JJ/V), recomputed with
        # complex arithmetic from the implemented chi_JJ
        sc = si_scales()
        vol = 1e-14
        n_e = 10**8 / vol
        drude_weight = CODATA2018.e**2 * n_e / CODATA2018.m_e
        for w in (0.0, 0.7e13, sc.omega_tilde, 4.1e13, -2e13):
            f = BroadenedFrequency(w, 2e11)
            u = complex(w, 2e11)
            ref = 1j / u * (drude_weight
                            + chi_jj_freq(f, sc).as_complex / vol)
            got = optical_conductivity(f, sc)
            assert got.re == pytest.approx(ref.real, rel=1e-11)
            assert got.im == pytest.approx(ref.imag, rel=1e-11)

    def test_real_part_nonnegative(self):
        sc = si_scales()
        for w in np.linspace(-8e13, 8e13, 2001):
            assert optical_conductivity(
                BroadenedFrequency(float(w), 1e11), sc).re >= 0.0

    def test_dc_limit_matches_suppressed_drude(self):
        sc = si_scales()
        eta = 1e-4 * sc.omega_tilde
        sigma_dc = dc_conductivity(sc.gamma, sigma0_dc(sc, eta))
        got = optical_conductivity(BroadenedFrequency(0.0, eta), sc)
        assert got.re == pytest.approx(sigma_dc, rel=1e-6)
        assert got.im == 0.0

    def test_sigma0_and_dc_values(self):
        sc = si_scales()
        eta = 1e11
        s0 = sigma0_dc(sc, eta)
        assert s0 == pytest.approx(
            CODATA2018.eps0 * sc.omega_p**2 / eta, rel=1e-15)
        assert dc_conductivity(0.0, s0) == s0
        assert dc_conductivity(0.25, s0) == pytest.approx(0.75 * s0,
                                                          rel=1e-15)

    def test_instability_guards(self):
        with pytest.raises(InstabilityError):
            dc_conductivity(1.0, 1.0)
        with pytest.raises(InstabilityError):
            drude_effective_mass(1.2)
        with pytest.raises(DomainError):
            dc_conductivity(-0.1, 1.0)
        with pytest.raises(DomainError):
            sigma0_dc(si_scales(), 0.0)

    def test_effective_mass(self):
        assert drude_effective_mass(0.0) == CODATA2018.m_e
        assert drude_effective_mass(0.5) == pytest.approx(
            2 * CODATA2018.m_e, rel=1e-15)

    @given(st.floats(-3.0, 3.0), st.floats(1e-3, 0.5))
    def test_parity_ratio_mode(self, w, eta):
        plus = optical_conductivity(BroadenedFrequency(w, eta), RATIO_SCALES)
        minus = optical_conductivity(BroadenedFrequency(-w, eta),
                                     RATIO_SCALES)
        assert plus.re == pytest.approx(minus.re, rel=1e-11, abs=1e-14)
        assert plus.im == pytest.approx(-minus.im, rel=1e-11, abs=1e-14)


class TestUnitModeBridge:
    """SI and ratio evaluations of the same physics must agree after
    stripping eps0, V and the bare-frequency scale."""

    def setup_method(self):
        # SI configuration whose omega_p/omega is exactly 0.5
        wp = DerivedScales(SystemConfig.si(10**8, 1e-8, 1e-6,
                                           mode_frequency=1.0)).omega_p
        self.omega = 2.0 * wp
        self.si = DerivedScales(SystemConfig.si(
            10**8, 1e-8, 1e-6, mode_frequency=self.omega))
        self.eps0_v = CODATA2018.eps0 * 1e-14

    def test_ratio_matches_rescaled_si_chi_aa(self):
        for x, y in ((0.4, 0.02), (1.2, 0.1), (-0.8, 0.05)):
            si_val = chi_aa_freq(
                BroadenedFrequency(x * self.omega, y * self.omega), self.si)
            ratio_val = chi_aa_freq(BroadenedFrequency(x, y), RATIO_SCALES)
            scale = self.eps0_v * self.omega**2
            assert ratio_val.re == pytest.approx(si_val.re * scale, rel=1e-11)
            assert ratio_val.im == pytest.approx(si_val.im * scale, rel=1e-11)

    def test_ratio_matches_rescaled_si_sigma(self):
        for x, y in ((0.4, 0.02), (1.2, 0.1)):
            si_val = optical_conductivity(
                BroadenedFrequency(x * self.omega, y * self.omega), self.si)
            ratio_val = optical_conductivity(BroadenedFrequency(x, y),
                                             RATIO_SCALES)
            scale = 1.0 / (CODATA2018.eps0 * self.omega)
            assert ratio_val.re == pytest.approx(si_val.re * scale, rel=1e-11)
            assert ratio_val.im == pytest.approx(si_val.im * scale, rel=1e-11)
