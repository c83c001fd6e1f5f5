"""Continuum effective theory: running coupling, masses, Casimir force,
jellium, and the broadened continuum response.

Oracles:
  * per-point scalar calls for every array-in sweep,
  * radial momentum quadrature for the running coupling, the zero-point
    energy density, and the 1D mode sum,
  * finite differences for curvature masses and the Casimir pressure,
  * direct adaptive quadrature (epsabs=0, breakpoints on the probe
    frequency) for the four continuum integrals and the mode-summed
    response,
  * bounded scalar minimization for the jellium equilibrium radius.

Frozen numbers (50-digit arbitrary-precision evaluation):
  alpha(L_z=1e-6 m)  = 2.8179403262049294e-9
  N alpha (N=1e8)    = 0.28179403262049294
  exp(1/(N alpha))   = 34.767783156040521
  pole_3d            = 836140662128767.6 1/m
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from cavity2deg import (
    CODATA2018,
    BroadenedFrequency,
    DomainError,
    EftConfig,
    PoleError,
    SystemConfig,
    UnitModeError,
    appendix_integrals,
    band_energy,
    casimir_energy_density,
    casimir_pressure,
    chemical_potential,
    coupling_1d,
    coupling_3d,
    effective_coupling,
    effective_energy,
    eft_chi_aa,
    eft_summary,
    jellium,
    landau_pole,
    mass_3d,
    mass_3d_first_order,
    per_particle_coupling,
    pole_3d,
    quasiparticle_energy,
    renormalized_mass,
    rs_minimum,
)

HBAR = CODATA2018.hbar
M_E = CODATA2018.m_e
C = CODATA2018.c

N_ALPHA_REF = 0.28179403262049294
LAMBDA0_POLE_REF = 34.767783156040521
POLE_3D_REF = 836140662128767.6


def default_system():
    return SystemConfig.si(10**8, 1e-8, 1e-6)


def strong_coupling_config(g_per: float):
    """Single electron, 1 pm gap: alpha = 2.8179e-3, so the cutoff for a
    per-particle coupling g_per stays representable."""
    sys = SystemConfig.si(1, 1e-8, 1e-12)
    alpha = EftConfig(system=sys, lambda0=1.0).alpha
    return EftConfig(system=sys, lambda0=math.exp(g_per / alpha))


class TestEftConfig:
    def test_requires_si(self):
        with pytest.raises(UnitModeError):
            EftConfig(system=SystemConfig.from_ratio(0.5), lambda0=2.0)

    def test_cutoff_floor(self):
        with pytest.raises(DomainError):
            EftConfig(system=default_system(), lambda0=0.99)

    def test_pole_overflow_is_domain_error(self):
        # n_alpha ~ 2.8e-12: exp(1/n_alpha) leaves the float range
        weak = SystemConfig.si(n_electrons=1, area=1e-8, mirror_gap=1e-3)
        with pytest.raises(DomainError, match="n_alpha"):
            EftConfig(system=weak, lambda0=1.0)

    def test_beyond_pole_warns(self):
        with pytest.warns(RuntimeWarning, match="Landau pole"):
            cfg = EftConfig(system=default_system(), lambda0=40.0)
        assert not cfg.in_stability_window

    def test_frozen_alpha(self):
        cfg = EftConfig(system=default_system(), lambda0=1.0)
        assert cfg.alpha == pytest.approx(2.8179403262049294e-9, rel=1e-14)
        assert cfg.n_alpha == pytest.approx(N_ALPHA_REF, rel=1e-14)
        assert cfg.lambda0_pole == pytest.approx(LAMBDA0_POLE_REF, rel=1e-13)

    def test_cutoff_bookkeeping(self):
        cfg = EftConfig(system=default_system(), lambda0=9.0)
        assert cfg.kappa_z == pytest.approx(math.pi / 1e-6, rel=1e-15)
        assert cfg.omega_tilde_sq_cutoff == pytest.approx(
            (C * cfg.kappa_z) ** 2 + cfg.scales.omega_p**2, rel=1e-15)
        assert cfg.lambda_freq2 == pytest.approx(
            9.0 * cfg.omega_tilde_sq_cutoff, rel=1e-15)


class TestRunningCoupling:
    def test_endpoints(self):
        assert effective_coupling(
            EftConfig(system=default_system(), lambda0=1.0)) == 0.0
        at_pole = EftConfig(system=default_system(),
                            lambda0=LAMBDA0_POLE_REF)
        assert effective_coupling(at_pole) == pytest.approx(1.0, rel=1e-12)

    def test_momentum_quadrature_oracle(self):
        # g = N alpha int 2 c^2 kappa dkappa / (c^2 kappa^2 + edge^2)
        for lam in (1.5, 5.0, 20.0):
            cfg = EftConfig(system=default_system(), lambda0=lam)
            edge2 = cfg.omega_tilde_sq_cutoff
            kappa_max = math.sqrt((cfg.lambda_freq2 - edge2)) / C

            def integrand(kappa):
                return (2.0 * cfg.n_alpha * C**2 * kappa
                        / (C**2 * kappa**2 + edge2))

            ref, _ = quad(integrand, 0.0, kappa_max, epsabs=0, epsrel=1e-12)
            assert effective_coupling(cfg) == pytest.approx(ref, rel=1e-10)

    @given(st.floats(1.0, 22.0), st.floats(1.01, 1.5))
    def test_monotone_in_cutoff(self, lam, factor):
        g1 = effective_coupling(EftConfig(system=default_system(),
                                          lambda0=lam))
        g2 = effective_coupling(EftConfig(system=default_system(),
                                          lambda0=lam * factor))
        assert g2 > g1

    def test_gap_dependence_infrared_finite(self):
        # alpha ~ 1/L_z: wider cavities couple less at fixed lambda0
        gaps = (1e-6, 1e-5, 1e-4)
        gs = [effective_coupling(EftConfig(
            system=SystemConfig.si(10**8, 1e-8, g), lambda0=10.0))
            for g in gaps]
        assert all(math.isfinite(g) for g in gs)
        assert gs[0] > gs[1] > gs[2]
        assert gs[0] / gs[1] == pytest.approx(10.0, rel=1e-10)

    def test_landau_pole_value(self):
        cfg = EftConfig(system=default_system(), lambda0=2.0)
        assert landau_pole(cfg) == pytest.approx(
            cfg.omega_tilde_sq_cutoff * LAMBDA0_POLE_REF, rel=1e-12)
        # more electrons pull the pole down
        cfg2 = EftConfig(system=SystemConfig.si(2 * 10**8, 1e-8, 1e-6),
                         lambda0=2.0)
        assert cfg2.lambda0_pole < cfg.lambda0_pole

    def test_landau_pole_past_the_range(self):
        # a pole factor of 1.55e302 times an edge of 8.87e29
        cfg = EftConfig(system=SystemConfig.si(510_000, 1e-8, 1e-6),
                        lambda0=2.0)
        assert math.isfinite(cfg.lambda0_pole)
        with pytest.raises(DomainError, match="Landau pole.*overflows"):
            landau_pole(cfg)


class TestRenormalizedMass:
    def test_free_limit(self):
        cfg = EftConfig(system=default_system(), lambda0=1.0)
        assert renormalized_mass(cfg) == M_E

    def test_mass_ratio_two_exact(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = strong_coupling_config(0.5)
        assert renormalized_mass(cfg) == pytest.approx(2.0 * M_E, rel=1e-12)

    def test_pole_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cfg = strong_coupling_config(1.01)
        with pytest.raises(PoleError):
            renormalized_mass(cfg)

    def test_band_energy_curvature_matches(self):
        # the band is exactly quadratic: central differences are exact
        cfg = strong_coupling_config(0.3)
        k, h = 1e7, 1e5
        curv = (band_energy(k + h, cfg) - 2 * band_energy(k, cfg)
                + band_energy(k - h, cfg)) / h**2
        assert HBAR**2 / curv == pytest.approx(renormalized_mass(cfg),
                                               rel=1e-9)

    def test_total_energy_curvature_matches(self):
        # one electron boosted on top of the full energy (zero-point
        # included): the curvature mass must agree with the closed form
        cfg = EftConfig(system=default_system(), lambda0=10.0)
        k, h = 1e9, 1e7

        def etot(kk):
            return effective_energy(kk * kk, (kk, 0.0), cfg)

        curv = (etot(k + h) - 2 * etot(k) + etot(k - h)) / h**2
        n = cfg.system.n_electrons
        g_per = effective_coupling(cfg) / n
        assert HBAR**2 / curv == pytest.approx(M_E / (1 - g_per), rel=1e-6)

    def test_effective_energy_collective_term(self):
        # E(K) - E(0) = -(hbar^2/2m) g |K|^2/N at fixed kinetic sum
        cfg = EftConfig(system=default_system(), lambda0=10.0)
        kin = 1e20
        e0 = effective_energy(kin, (0.0, 0.0), cfg)
        kx = 1e9
        lift = effective_energy(kin, (kx, 0.0), cfg) - e0
        ref = -HBAR**2 / (2 * M_E) * effective_coupling(cfg) * kx**2 / 10**8
        assert lift == pytest.approx(ref, rel=1e-9)

    def test_photon_excitations_additive(self):
        cfg = EftConfig(system=default_system(), lambda0=10.0)
        base = effective_energy(0.0, (0.0, 0.0), cfg)
        om = math.sqrt(cfg.omega_tilde_sq_cutoff)
        withph = effective_energy(0.0, (0.0, 0.0), cfg,
                                  photon_excitations=((om, 3),))
        assert withph - base == pytest.approx(3 * HBAR * om, rel=1e-12)


class TestChemicalPotential:
    def test_free_value(self):
        cfg = EftConfig(system=default_system(), lambda0=1.0)
        kf = cfg.scales.k_fermi
        assert chemical_potential(cfg) == pytest.approx(
            HBAR**2 * kf**2 / (2 * M_E), rel=1e-13)

    def test_mass_ratio_scaling(self):
        free = chemical_potential(EftConfig(system=default_system(),
                                            lambda0=1.0))
        cfg = strong_coupling_config(0.5)
        # same k_F handed in explicitly; dressed mass doubles, mu halves
        kf = EftConfig(system=default_system(), lambda0=1.0).scales.k_fermi
        assert chemical_potential(cfg, k_fermi=kf) == pytest.approx(
            free / 2, rel=1e-12)

    def test_negative_kf_rejected(self):
        with pytest.raises(DomainError):
            chemical_potential(EftConfig(system=default_system(),
                                         lambda0=2.0), k_fermi=-1.0)

    def test_quasiparticle_linearization(self):
        cfg = EftConfig(system=default_system(), lambda0=5.0)
        kf = cfg.scales.k_fermi
        mu = chemical_potential(cfg)
        assert quasiparticle_energy(kf, cfg) == pytest.approx(mu, rel=1e-13)
        vf = HBAR * kf / renormalized_mass(cfg)
        dk = 0.01 * kf
        assert quasiparticle_energy(kf + dk, cfg) - mu == pytest.approx(
            HBAR * vf * dk, rel=1e-10)
        with pytest.raises(DomainError):
            quasiparticle_energy(-1.0, cfg)


class TestJellium:
    def test_component_formulas(self):
        cfg = EftConfig(system=default_system(), lambda0=1.0)
        r = jellium(2.0, cfg)
        assert r.tau == pytest.approx(0.25, rel=1e-13)
        assert r.eps_x == pytest.approx(-8 * math.sqrt(2) / (3 * math.pi) / 2,
                                        rel=1e-13)
        assert r.total == r.tau + r.eps_x
        with pytest.raises(DomainError):
            jellium(0.0, cfg)

    @pytest.mark.filterwarnings("error")
    def test_radius_whose_square_underflows_rejected(self):
        # rs^2 underflows to 0: a Python float used to raise a bare
        # ZeroDivisionError, an array to warn and return inf
        cfg = EftConfig(system=default_system(), lambda0=1.0)
        for rs in (1e-200, np.array([1.0, 1e-200])):
            with pytest.raises(DomainError, match="overflows"):
                jellium(rs, cfg)

    def test_free_minimum_frozen(self):
        cfg = EftConfig(system=default_system(), lambda0=1.0)
        assert rs_minimum(cfg) == pytest.approx(1.6660811018093873, rel=1e-13)

    def test_minimizer_oracle(self):
        for make in (lambda: EftConfig(system=default_system(), lambda0=8.0),
                     lambda: strong_coupling_config(0.5)):
            cfg = make()
            res = minimize_scalar(lambda rs: jellium(rs, cfg).total,
                                  bounds=(0.05, 30.0), method="bounded",
                                  options={"xatol": 1e-12})
            assert rs_minimum(cfg) == pytest.approx(res.x, rel=1e-7)
            assert jellium(rs_minimum(cfg), cfg).rs_min == rs_minimum(cfg)

    def test_mass_ratio_half_shrinks_radius(self):
        cfg = strong_coupling_config(0.5)  # m_e/m(Lambda) = 1/2
        assert rs_minimum(cfg) == pytest.approx(
            3 * math.pi / (8 * math.sqrt(2)), rel=1e-12)

    def test_rs_min_monotone_in_cutoff(self):
        vals = [rs_minimum(EftConfig(system=default_system(), lambda0=lam))
                for lam in (1.0, 5.0, 20.0)]
        assert vals[0] > vals[1] > vals[2]


class TestCasimir:
    def test_zero_at_unit_cutoff(self):
        cfg = EftConfig(system=default_system(), lambda0=1.0)
        assert casimir_energy_density(cfg) == 0.0
        assert casimir_pressure(cfg) == 0.0

    @given(st.floats(1.0 + 1e-9, 30.0))
    def test_positive_above_unit_cutoff(self, lam):
        cfg = EftConfig(system=default_system(), lambda0=lam)
        assert casimir_energy_density(cfg) > 0.0
        assert casimir_pressure(cfg) > 0.0

    @pytest.mark.filterwarnings("error")
    def test_near_unit_cutoff_matches_mpmath(self):
        # Lambda0^1.5 - 1 cancels next to Lambda0 = 1; by subtraction it is
        # off by up to ~1e-11 relative there
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        lams = np.concatenate([1.0 + 10.0 ** -np.arange(2.0, 16.0),
                               np.linspace(1.0, 1.01, 41)[1:]])
        cfg = EftConfig(system=default_system(), lambda0=1.0)
        energy_pref = (HBAR * cfg.omega_tilde_sq_cutoff ** 1.5
                       / (6.0 * math.pi * C**2))
        pressure_pref = (HBAR * math.sqrt(cfg.omega_tilde_sq_cutoff)
                         * (2.0 * (C * cfg.kappa_z) ** 2
                            + cfg.scales.omega_p**2)
                         / (4.0 * math.pi * C**2 * cfg.system.mirror_gap))
        grow = np.array([float(mpmath.mpf(lam) ** 1.5 - 1) for lam in lams])
        sweep_e = casimir_energy_density(cfg, lambda0=lams)
        sweep_p = casimir_pressure(cfg, lambda0=lams)
        for i, lam in enumerate(lams):
            at = EftConfig(system=default_system(), lambda0=float(lam))
            for got in (casimir_energy_density(at), sweep_e[i]):
                assert got == pytest.approx(energy_pref * grow[i], rel=1e-14)
            for got in (casimir_pressure(at), sweep_p[i]):
                assert got == pytest.approx(pressure_pref * grow[i], rel=1e-14)

    def test_overflowing_cutoff_rejected(self):
        # Lambda0^1.5 overflows: the scalar call used to raise a bare
        # OverflowError and the explicit lambda0 to warn and return inf
        with pytest.warns(RuntimeWarning, match="Landau pole"):
            beyond = EftConfig(system=default_system(), lambda0=1e300)
        cfg = EftConfig(system=default_system(), lambda0=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for func in (casimir_energy_density, casimir_pressure):
                with pytest.raises(DomainError, match="overflows"):
                    func(beyond)
                for lam in (1e300, np.array([2.0, 1e300])):
                    with pytest.raises(DomainError, match="overflows"):
                        func(cfg, lambda0=lam)

    def test_energy_density_quadrature_oracle(self):
        # E/S = (1/(2 pi)^2) int d^2kappa hbar omega_t(kappa), edge..cutoff
        cfg = EftConfig(system=default_system(), lambda0=12.0)
        edge2 = cfg.omega_tilde_sq_cutoff
        kappa_max = math.sqrt(cfg.lambda_freq2 - edge2) / C

        def integrand(kappa):
            return (kappa / (2 * math.pi)
                    * HBAR * math.sqrt(C**2 * kappa**2 + edge2))

        ref, _ = quad(integrand, 0.0, kappa_max, epsabs=0, epsrel=1e-12)
        assert casimir_energy_density(cfg) == pytest.approx(ref, rel=1e-10)

    def test_pressure_is_gap_derivative(self):
        # -d(E/S)/dL_z at fixed lambda0 and fixed N, S (so n_2d fixed);
        # both kappa_z and omega_p respond to the gap
        lam = 7.0
        gap = 1e-6
        h = 1e-12

        def dens(lz):
            return casimir_energy_density(EftConfig(
                system=SystemConfig.si(10**8, 1e-8, lz), lambda0=lam))

        fd = -(dens(gap + h) - dens(gap - h)) / (2 * h)
        cfg = EftConfig(system=SystemConfig.si(10**8, 1e-8, gap), lambda0=lam)
        assert casimir_pressure(cfg) == pytest.approx(fd, rel=1e-6)


class TestLowerDimensionalCouplings:
    def test_coupling_1d_quadrature_oracle(self):
        # mode sum -> int_0^kmax dk (c/2 omega) omega_p^2/(omega_p^2+c^2 k^2)
        omega, omega_p = 9.4e14, 5.6e12
        for kappa_max in (1e4, 1e6, 1e8):
            ref, _ = quad(lambda k: (C / (2 * omega)) * omega_p**2
                          / (omega_p**2 + C**2 * k**2),
                          0.0, kappa_max, epsabs=0, epsrel=1e-12)
            assert coupling_1d(kappa_max, omega, omega_p) == pytest.approx(
                ref, rel=1e-10)

    def test_coupling_1d_landmarks(self):
        omega, omega_p = 9.4e14, 5.6e12
        # kappa at the crossover momentum: arctan(1)
        assert coupling_1d(omega_p / C, omega, omega_p) == pytest.approx(
            omega_p * math.pi / (8 * omega), rel=1e-12)
        # saturation at pi omega_p/(4 omega)
        assert coupling_1d(1e15, omega, omega_p) == pytest.approx(
            math.pi * omega_p / (4 * omega), rel=1e-6)
        assert coupling_1d(1e6, omega, 0.0) == 0.0
        with pytest.raises(DomainError):
            coupling_1d(-1.0, omega, omega_p)
        with pytest.raises(DomainError):
            coupling_1d(1.0, 0.0, omega_p)

    def test_pole_3d_frozen(self):
        assert pole_3d() == pytest.approx(POLE_3D_REF, rel=1e-12)
        # the printed landmark 0.84e15 1/m is good to one percent
        assert pole_3d() == pytest.approx(0.84e15, rel=1e-2)
        assert coupling_3d(pole_3d()) == pytest.approx(1.0, rel=1e-12)

    def test_mass_3d_pole_and_expansion(self):
        lam = 0.2 * POLE_3D_REF
        g = coupling_3d(lam)
        assert mass_3d(lam) == pytest.approx(M_E / (1 - g), rel=1e-13)
        # exact minus first order is g^2/(1-g) in units of m_e
        diff = mass_3d(lam) - mass_3d_first_order(lam)
        assert diff == pytest.approx(M_E * g**2 / (1 - g), rel=1e-10)
        with pytest.raises(PoleError):
            mass_3d(POLE_3D_REF * 1.000001)
        with pytest.raises(DomainError):
            coupling_3d(-1.0)


class TestContinuumResponse:
    CFG = EftConfig(system=SystemConfig.si(10**8, 1e-8, 1e-6), lambda0=6.0)

    def edges(self):
        lo = math.sqrt(self.CFG.omega_tilde_sq_cutoff)
        return lo, lo * math.sqrt(self.CFG.lambda0)

    def test_mode_sum_quadrature_oracle(self):
        # chi(w) = -(1/(4 pi eps0 L_z c^2)) int_lo^hi dv
        #          [1/(w+v+i eta) - 1/(w-v+i eta)]
        lo, hi = self.edges()
        eta = 1e-3 * lo
        pref = -1.0 / (4 * math.pi * CODATA2018.eps0 * 1e-6 * C**2)
        for w in (0.5 * lo, 1.7 * lo, 0.7 * hi, 1.3 * hi):
            def kernel(v):
                up = complex(w + v, eta)
                dn = complex(w - v, eta)
                return pref * (1 / up - 1 / dn)

            pts = [w] if lo < w < hi else None
            re, _ = quad(lambda v: kernel(v).real, lo, hi, points=pts,
                         epsabs=0, epsrel=1e-12, limit=400)
            im, _ = quad(lambda v: kernel(v).imag, lo, hi, points=pts,
                         epsabs=0, epsrel=1e-12, limit=400)
            got = eft_chi_aa(BroadenedFrequency(w, eta), self.CFG)
            assert got.re == pytest.approx(re, rel=1e-8)
            assert got.im == pytest.approx(im, rel=1e-8)

    def test_integral_table_quadrature_oracle(self):
        # A..D against direct quadrature; default epsabs would swamp
        # integrals of this magnitude, so it is forced to zero
        lo, hi = self.edges()
        eta = 2e-2 * lo
        for w in (0.4 * lo, 1.3 * lo, 1.05 * hi):
            a, b, c, d = appendix_integrals(w, eta, self.CFG)
            pts_m = [w] if lo < w < hi else None
            pts_p = [-w] if lo < -w < hi else None
            qa, _ = quad(lambda v: 1.0 / ((v - w) ** 2 + eta**2), lo, hi,
                         points=pts_m, epsabs=0, epsrel=1e-12)
            qb, _ = quad(lambda v: v / ((v - w) ** 2 + eta**2), lo, hi,
                         points=pts_m, epsabs=0, epsrel=1e-12)
            qc, _ = quad(lambda v: 1.0 / ((v + w) ** 2 + eta**2), lo, hi,
                         points=pts_p, epsabs=0, epsrel=1e-12)
            qd, _ = quad(lambda v: v / ((v + w) ** 2 + eta**2), lo, hi,
                         points=pts_p, epsabs=0, epsrel=1e-12)
            scale = 2 * math.pi / C**2
            assert a == pytest.approx(scale * qa, rel=1e-9)
            assert b == pytest.approx(scale * qb, rel=1e-9)
            assert c == pytest.approx(scale * qc, rel=1e-9)
            assert d == pytest.approx(scale * qd, rel=1e-9)

    def test_assembly_identity(self):
        lo, hi = self.edges()
        eta = 1e-2 * lo
        pref = 1.0 / (8 * math.pi**2 * CODATA2018.eps0 * 1e-6)
        for w in (0.3 * lo, 2.2 * lo, 1.1 * hi):
            a, b, c, d = appendix_integrals(w, eta, self.CFG)
            got = eft_chi_aa(BroadenedFrequency(w, eta), self.CFG)
            assert got.re == pytest.approx(pref * (w * a - b - w * c - d),
                                           rel=1e-10)
            assert got.im == pytest.approx(pref * eta * (c - a), rel=1e-10)

    def test_integral_table_needs_broadening(self):
        with pytest.raises(DomainError):
            appendix_integrals(1e15, 0.0, self.CFG)

    def test_sharp_limit_absorption_box(self):
        lo, hi = self.edges()
        height = 1.0 / (4 * C**2 * CODATA2018.eps0 * 1e-6)
        inside = eft_chi_aa(BroadenedFrequency(0.5 * (lo + hi), 0.0),
                            self.CFG)
        assert inside.im == -height
        mirrored = eft_chi_aa(BroadenedFrequency(-0.5 * (lo + hi), 0.0),
                              self.CFG)
        assert mirrored.im == height
        for w in (0.5 * lo, 1.5 * hi, 0.0, -0.5 * lo):
            assert eft_chi_aa(BroadenedFrequency(w, 0.0), self.CFG).im == 0.0

    def test_sharp_limit_edge_poles(self):
        lo, hi = self.edges()
        for w in (lo, hi, -lo, -hi):
            with pytest.raises(PoleError):
                eft_chi_aa(BroadenedFrequency(w, 0.0), self.CFG)

    def test_sharp_limit_is_broadened_limit(self):
        lo, hi = self.edges()
        for w in (0.4 * lo, 0.5 * (lo + hi), 1.4 * hi):
            sharp = eft_chi_aa(BroadenedFrequency(w, 0.0), self.CFG)
            soft = eft_chi_aa(BroadenedFrequency(w, 1e-7 * lo), self.CFG)
            assert soft.re == pytest.approx(sharp.re, rel=1e-5)
            assert soft.im == pytest.approx(sharp.im, rel=1e-4,
                                            abs=1e-6 * abs(sharp.re))

    @given(st.floats(-3.0, 3.0), st.floats(1e-3, 0.3))
    def test_parity(self, x, y):
        lo, _ = self.edges()
        plus = eft_chi_aa(BroadenedFrequency(x * lo, y * lo), self.CFG)
        minus = eft_chi_aa(BroadenedFrequency(-x * lo, y * lo), self.CFG)
        assert plus.re == pytest.approx(minus.re, rel=1e-11, abs=1e-25)
        assert plus.im == pytest.approx(-minus.im, rel=1e-11, abs=1e-25)

    @given(st.floats(1e-3, 3.0), st.floats(1e-3, 0.3))
    def test_dissipative_sign(self, x, y):
        lo, _ = self.edges()
        val = eft_chi_aa(BroadenedFrequency(x * lo, y * lo), self.CFG)
        assert val.im <= 0.0


class TestArraySweeps:
    """Array-in sweeps against per-point scalar calls, one EftConfig each."""

    SYSTEM = default_system()
    CUTOFF_FUNCS = [effective_coupling, per_particle_coupling,
                    renormalized_mass, chemical_potential,
                    casimir_energy_density, casimir_pressure]

    def at(self, lam):
        with warnings.catch_warnings():      # beyond the Landau pole
            warnings.simplefilter("ignore", RuntimeWarning)
            return EftConfig(system=self.SYSTEM, lambda0=float(lam))

    @pytest.mark.parametrize("func", CUTOFF_FUNCS)
    def test_cutoff_sweep(self, func, assert_matches_loop):
        base = self.at(1.0)
        lams = np.concatenate([np.linspace(1.0, 40.0, 97),
                               np.geomspace(1.0, 1e6, 50)])
        got = func(base, lambda0=lams)
        assert_matches_loop(got, [func(self.at(x)) for x in lams])
        assert type(func(self.at(7.0))) is float

    def test_sweep_reaching_the_pole(self):
        # per-particle pole at alpha ln Lambda0 = 1: the first cutoff there
        # raises, with the message the point-by-point call gives
        base = strong_coupling_config(0.5)
        lams = np.exp(np.array([0.5, 0.9, 1.2, 1.5]) / base.alpha)
        with pytest.raises(PoleError) as swept:
            renormalized_mass(base, lambda0=lams)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            at_pole = EftConfig(system=base.system, lambda0=float(lams[2]))
        with pytest.raises(PoleError) as scalar:
            renormalized_mass(at_pole)
        assert str(swept.value) == str(scalar.value)
        with pytest.raises(PoleError):
            chemical_potential(base, lambda0=lams)

    @pytest.mark.parametrize("bad", [[0.5], [1.0, math.nan], [math.inf]])
    def test_bad_cutoffs_rejected(self, bad):
        with pytest.raises(DomainError, match="lambda0"):
            effective_coupling(self.at(1.0), lambda0=np.array(bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_lambda0_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            EftConfig(system=self.SYSTEM, lambda0=bad)

    def test_jellium(self, assert_matches_loop):
        ecfg = self.at(8.0)
        rs = np.geomspace(0.2, 20.0, 301)
        got = jellium(rs, ecfg)
        want = [jellium(float(x), ecfg) for x in rs]
        for field in ("tau", "eps_x", "total"):
            assert_matches_loop(getattr(got, field),
                                [getattr(v, field) for v in want])
        assert got.rs_min == rs_minimum(ecfg)

    def test_jellium_names_first_bad_radius(self):
        with pytest.raises(DomainError, match="-0.5"):
            jellium(np.array([1.0, -0.5, 0.0, math.nan]), self.at(8.0))

    @pytest.mark.parametrize("eta_over_lo", [1e-3, 0.0])
    def test_chi(self, eta_over_lo, assert_matches_loop):
        ecfg = self.at(6.0)
        lo = math.sqrt(ecfg.omega_tilde_sq_cutoff)
        hi = lo * math.sqrt(6.0)
        w = np.linspace(-1.5 * hi, 1.5 * hi, 600)   # no point on an edge
        eta = eta_over_lo * lo
        got = eft_chi_aa(BroadenedFrequency(w, eta), ecfg)
        want = [eft_chi_aa(BroadenedFrequency(float(x), eta), ecfg) for x in w]
        assert_matches_loop(got.re, [v.re for v in want])
        assert_matches_loop(got.im, [v.im for v in want])

    def test_chi_sharp_edge_names_first_edge_hit(self):
        ecfg = self.at(6.0)
        lo = math.sqrt(ecfg.omega_tilde_sq_cutoff)
        hi = lo * math.sqrt(6.0)
        with pytest.raises(PoleError, match=re.escape(f"w = {hi:g} ")):
            eft_chi_aa(BroadenedFrequency(np.array([0.5 * lo, hi, lo]), 0.0),
                       ecfg)


class TestEftSummary:
    def test_stable_window_entries(self):
        cfg = EftConfig(system=default_system(), lambda0=5.0)
        out = eft_summary(cfg)
        assert out["beyond_pole"] is False
        assert out["in_stability_window"] is True
        assert out["coupling_g"] == pytest.approx(effective_coupling(cfg))
        assert out["mass_ratio"] == pytest.approx(
            renormalized_mass(cfg) / M_E)
        assert out["rs_min"] == pytest.approx(rs_minimum(cfg))

    def test_beyond_pole_entries(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cfg = strong_coupling_config(1.2)
        out = eft_summary(cfg)
        assert out["beyond_pole"] is True
        assert out["renormalized_mass"] is None
        assert out["chemical_potential"] is None
        assert out["rs_min"] is None
        # coupling and casimir stay defined beyond the mass pole
        assert math.isfinite(out["coupling_g"])
        assert math.isfinite(out["casimir_energy_density"])

    def test_landau_pole_past_the_range_is_none(self):
        cfg = EftConfig(system=SystemConfig.si(510_000, 1e-8, 1e-6),
                        lambda0=2.0)
        out = eft_summary(cfg)
        assert out["landau_pole_freq2"] is None
        assert out["beyond_pole"] is False
        assert all(math.isfinite(v) for v in out.values()
                   if isinstance(v, float))


# log-uniform over the positive doubles
POSITIVE_DOUBLES = st.floats(-323.3, 308.25).map(lambda e: 10.0 ** e)


class TestScalarExtremes:
    """The scalar helpers outside the CLI paths, at lambda0 = 2 on the
    default config: past the float range they raise a DomainError that
    names the quantity, never a bare OverflowError or an inf."""

    ECFG = EftConfig(system=default_system(), lambda0=2.0)

    @pytest.mark.parametrize("func, args, quantity", [
        (appendix_integrals, (1e200, 1.0), "appendix integral"),
        (effective_energy, (1e300, (1e200, 0.0)), "effective energy"),
        (band_energy, (1e200,), "band energy"),
    ])
    def test_overflow_is_domain_error(self, func, args, quantity):
        with pytest.raises(DomainError, match=quantity):
            func(*args, self.ECFG)

    def test_edge_with_underflowing_eta(self):
        # eta^2 underflows to 0, so w on an edge is the sharp-window pole
        lo = math.sqrt(self.ECFG.omega_tilde_sq_cutoff)
        for w in (lo, -lo * math.sqrt(2.0)):
            with pytest.raises(DomainError, match="window edge"):
                appendix_integrals(w, 1e-200, self.ECFG)

    @settings(max_examples=200)
    @given(POSITIVE_DOUBLES, POSITIVE_DOUBLES, POSITIVE_DOUBLES)
    def test_finite_or_domain_error_property(self, x, y, z):
        calls = [lambda: appendix_integrals(x, y, self.ECFG),
                 lambda: appendix_integrals(-x, y, self.ECFG),
                 lambda: effective_energy(x, (y, z), self.ECFG),
                 lambda: band_energy(x, self.ECFG)]
        for call in calls:
            try:
                out = call()
            except DomainError:
                continue
            assert np.all(np.isfinite(out))
