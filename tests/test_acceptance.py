"""End-to-end acceptance gate: nine numbered criteria, one test each.

Every criterion re-derives its reference from an independent route
(closed-form identities cross-checked against adaptive quadrature,
finite differences, LAPACK, curve fits) rather than trusting the
library's own algebra.  Criteria with a wall-clock budget assert it;
the clock starts after a warm-up fixture has run the default Jacobi
kernel once, so first-call costs stay out of the budgets.

Each test ends with a single machine-greppable line

    [PASS] criterion N: <label> (T s)

visible under ``pytest -rP`` or ``-s``; under plain ``pytest -v`` the
per-test PASSED/FAILED verdicts carry the same information.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, curve_fit

from cavity2deg import (
    CODATA2018,
    BroadenedFrequency,
    DerivedScales,
    EftConfig,
    ModeSet,
    OccupancyGrid,
    PreconditionError,
    ResponseKind,
    SpectrumIndex,
    SystemConfig,
    absorption_rate,
    appendix_integrals,
    band_energy,
    casimir_energy_density,
    casimir_pressure,
    chi_aa_freq,
    chi_aa_time,
    chi_ea_freq,
    chi_ea_time,
    chi_jj_freq,
    chi_mixed_freq,
    coupling_3d,
    dc_conductivity,
    diagonalize_w,
    distribution_moments,
    effective_coupling,
    eft_chi_aa,
    eigenenergy,
    eigenenergy_no_a2,
    energy_density,
    exact_coupling_1d,
    ground_photon_occupation,
    instability_witness,
    jellium,
    lowest_mode_scan,
    manymode_spectrum,
    mass_3d,
    mass_3d_first_order,
    normal_modes,
    optical_conductivity,
    optimal_origin,
    pole_3d,
    renormalized_mass,
    rs_minimum,
    sigma0_dc,
)

HBAR = CODATA2018.hbar
M_E = CODATA2018.m_e
C = CODATA2018.c
EPS0 = CODATA2018.eps0


def default_system():
    return SystemConfig.si(10**8, 1e-8, 1e-6, mode_frequency=2e13)


def strong_coupling():
    # one electron in a 1 pm gap: alpha = 2.8e-3, so the logarithmic
    # running is visible at double precision
    return SystemConfig.si(1, 1e-8, 1e-12)


def _finish(number, label, t0, budget=None):
    elapsed = time.perf_counter() - t0
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {number} took {elapsed:.2f} s, budget {budget:.0f} s")
    print(f"[PASS] criterion {number}: {label} ({elapsed:.2f} s)")


@pytest.fixture(scope="module", autouse=True)
def _warm_kernels():
    # run the default Jacobi path once so that first-call costs stay out
    # of the per-criterion budgets
    seed = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 3.0]])
    diagonalize_w(seed)


def test_criterion_1_single_mode_reduction_and_consistency():
    t0 = time.perf_counter()
    cfg = default_system()
    sc = DerivedScales(cfg)
    n = cfg.n_electrons

    # one cavity mode in the many-mode machinery: the normal frequency
    # is the dressed one and, after restoring the idle polarization's
    # zero point, every level matches the two-polarization closed form
    ms = ModeSet(omega=np.array([sc.omega]), pol=np.array([[1.0, 0.0, 0.0]]))
    nm = normal_modes(ms, sc.omega_p)
    assert abs(nm.omega[0] - sc.omega_tilde) <= 1e-14 * sc.omega_tilde

    kin, kx = 7.5e14, 1.2e7
    for n_ph in (0, 1, 3, 10):
        e_many = manymode_spectrum((n_ph,), (kx, 0.0), kin, nm, sc.omega_p, n)
        idx = SpectrumIndex(n1=n_ph, n2=0, K=(kx, 0.0), kinetic_sum=kin,
                            n_electrons=n)
        e_single = eigenenergy(idx, sc)
        half = 0.5 * HBAR * nm.omega[0]
        assert abs(e_single - (e_many + half)) <= 1e-14 * abs(e_single)

    # ground-state photon number against an independent Bogoliubov
    # route: two polarizations, sinh^2 of the squeezing parameter
    r = 0.5 * math.log(sc.omega_tilde / sc.omega)
    occ_ref = 2.0 * math.sinh(r) ** 2
    occ = ground_photon_occupation(sc.omega, sc.omega_p)
    assert abs(occ - occ_ref) <= 1e-14 * occ_ref

    # dimensionless-coupling identity: 2 m N g^2 / (hbar^3 w~) = gamma
    lhs = 2.0 * M_E * n * sc.g_single**2 / (HBAR**3 * sc.omega_tilde)
    assert abs(lhs - sc.gamma) <= 1e-12 * sc.gamma

    _finish(1, "single-mode reduction and coupling identity", t0, budget=1.0)


def test_criterion_2_ground_state_suite():
    t0 = time.perf_counter()

    # (a) at the optimal drift the energy functional loses all gamma
    # dependence; probed on an off-center disk so the drift is nonzero
    shifted = OccupancyGrid.disk(1.0, center=(0.25, -0.125),
                                 cells_per_radius=32)
    m = distribution_moments(shifted)
    q0 = optimal_origin(m)
    assert math.hypot(*q0) > 0.1  # the probe must actually be off-center
    e_ref = energy_density(m, q0, 0.0)
    for gamma in (0.0, 0.3, 0.7, 0.999):
        e = energy_density(m, q0, gamma)
        assert abs(e - e_ref) <= 1e-12 * abs(e_ref)

    # (b) filled Fermi disk: the grid energy density converges to
    # hbar^2 k_F^4 / (16 pi m) at second order in the cell size
    exact = HBAR**2 / (16.0 * math.pi * M_E)  # k_F = 1
    errs = []
    for cpr in (32, 64, 128):
        g = OccupancyGrid.disk(1.0, cells_per_radius=cpr)
        e = energy_density(distribution_moments(g), (0.0, 0.0), 0.0)
        errs.append(abs(e - exact) / exact)
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    order = sum(orders) / len(orders)
    assert abs(order - 2.0) <= 0.2, f"observed order {order:.3f}"
    assert errs[-1] < 1e-4

    # (c) past the critical coupling the witness heads downhill at
    # every probe wavevector
    mm = distribution_moments(OccupancyGrid.disk(1.0, cells_per_radius=32))
    qs = np.linspace(0.0, 40.0, 60)
    for gamma in (1.01, 1.5, 3.0):
        e = instability_witness(mm, gamma, qs)
        assert np.all(np.diff(e) < 0.0), f"not decreasing at gamma={gamma}"

    _finish(2, "drift invariance, disk convergence, instability witness",
            t0, budget=10.0)


def test_criterion_3_no_diamagnetic_term_no_go():
    t0 = time.perf_counter()
    omega, omega_p = 1.0e13, 2.0e13
    n = 1000
    idx = SpectrumIndex(n1=1, n2=0, K=(2.0e6, 1.0e6), kinetic_sum=5.0e13,
                        n_electrons=n)

    # dropping the A^2 term leaves the photon bare and inflates the
    # collective coefficient to (omega_p/omega)^2 = 4 > 1
    k2 = idx.K[0] ** 2 + idx.K[1] ** 2
    gamma_prime = (omega_p / omega) ** 2
    assert gamma_prime == 4.0
    ref = (HBAR * omega * (idx.n1 + idx.n2)
           + HBAR**2 / (2.0 * M_E)
           * (idx.kinetic_sum - gamma_prime * k2 / n))
    got = eigenenergy_no_a2(idx, omega, omega_p)
    # the zero-point offset is state-independent; compare level spacings
    got0 = eigenenergy_no_a2(
        SpectrumIndex(n1=0, n2=0, K=(0.0, 0.0), kinetic_sum=0.0,
                      n_electrons=n), omega, omega_p)
    assert got - got0 == pytest.approx(ref, rel=1e-12)

    # boosting the whole gas drives the energy below any bound while
    # the full model stays bounded on the same sequence
    sc = DerivedScales(SystemConfig.from_ratio(2.0))
    assert sc.gamma < 1.0
    boosts = np.logspace(7, 10, 8)
    no_a2 = []
    full = []
    for b in boosts:
        bidx = SpectrumIndex(n1=0, n2=0, K=(b * n, 0.0),
                             kinetic_sum=b**2 * n, n_electrons=n)
        no_a2.append(eigenenergy_no_a2(bidx, omega, omega_p))
        full.append(HBAR**2 / (2.0 * M_E)
                    * (bidx.kinetic_sum - sc.gamma * (b * n) ** 2 / n))
    assert all(np.diff(no_a2) < 0.0)
    assert no_a2[-1] < -1e6 * abs(no_a2[0])
    assert all(e > 0.0 for e in full)

    _finish(3, "removing the A^2 term gives gamma' = 4 and unbounded energy",
            t0, budget=1.0)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_criterion_4_response_suite():
    t0 = time.perf_counter()
    sc = DerivedScales(SystemConfig.from_ratio(0.5))
    wt = sc.omega_tilde_over_omega

    # causality: both kernels vanish identically before the kick
    for tau in (-10.0, -1.0, -1e-9, 0.0):
        assert chi_aa_time(tau, sc) == 0.0
        if tau < 0.0:
            assert chi_ea_time(tau, sc) == 0.0

    # parity: even real part, odd imaginary part
    for w in np.linspace(0.05, 4.0, 25):
        plus = chi_aa_freq(BroadenedFrequency(w, 0.07), sc)
        minus = chi_aa_freq(BroadenedFrequency(-w, 0.07), sc)
        assert abs(plus.re - minus.re) <= 1e-12 * abs(plus.re)
        assert abs(plus.im + minus.im) <= 1e-12 * abs(plus.im)

    # Maxwell relation chi_EA = -d chi_AA/dtau at second order: the
    # central-difference error must fall fourfold when h is halved
    tau = 1.1
    errs = []
    for h in (1e-4, 5e-5):
        fd = -(chi_aa_time(tau + h, sc) - chi_aa_time(tau - h, sc)) / (2 * h)
        errs.append(abs(fd - chi_ea_time(tau, sc)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)

    # frequency response against a direct Laplace transform of the
    # time kernel (independent adaptive quadrature)
    eta = 0.05
    t_max = 45.0 / eta
    for w in (0.3, wt, 2.5):
        re, _ = quad(lambda t: math.exp(-eta * t) * math.cos(w * t)
                     * chi_aa_time(t, sc), 0.0, t_max,
                     limit=8000, epsabs=1e-13, epsrel=1e-12)
        im, _ = quad(lambda t: math.exp(-eta * t) * math.sin(w * t)
                     * chi_aa_time(t, sc), 0.0, t_max,
                     limit=8000, epsabs=1e-13, epsrel=1e-12)
        got = chi_aa_freq(BroadenedFrequency(w, eta), sc)
        assert got.re == pytest.approx(re, rel=1e-6, abs=1e-12)
        assert got.im == pytest.approx(im, rel=1e-6, abs=1e-12)

    # all matter-coupled responses are scalar multiples of chi_AA
    si = DerivedScales(default_system())
    pref = CODATA2018.e**2 * 10**8 / M_E
    f = BroadenedFrequency(1.5e13, 1e11)
    aa = chi_aa_freq(f, si)
    jj = chi_jj_freq(f, si)
    ja = chi_mixed_freq(f, si, ResponseKind.JA)
    aj = chi_mixed_freq(f, si, ResponseKind.AJ)
    assert jj.re == pytest.approx(pref**2 * aa.re, rel=1e-15)
    assert jj.im == pytest.approx(pref**2 * aa.im, rel=1e-15)
    assert ja.re == pytest.approx(-pref * aa.re, rel=1e-15)
    assert ja.im == pytest.approx(-pref * aa.im, rel=1e-15)
    assert (aj.re, aj.im) == (ja.re, ja.im)

    # dissipated power is non-negative across a dense frequency scan
    grid = np.linspace(0.0, 3.0 * wt, 10_000)
    rates = [absorption_rate(BroadenedFrequency(w, 0.02), sc, 1.0)
             for w in grid]
    assert min(rates) >= 0.0

    _finish(4, "causality, parity, Maxwell relation, Laplace oracle, "
               "positivity", t0, budget=30.0)


def test_criterion_5_dc_conductivity():
    t0 = time.perf_counter()

    # closed form: sigma_dc / sigma0 = 1 - gamma
    for ratio, gamma in ((0.0, 0.0), (0.5, 0.2), (1.0, 0.5), (3.0, 0.9)):
        sc = DerivedScales(SystemConfig.from_ratio(ratio))
        got = dc_conductivity(sc, 1.0)
        assert abs(got - (1.0 - gamma) * sigma0_dc(sc, 1.0)) <= 1e-12

    # numerical zero-frequency limit of the Kubo conductivity at small
    # broadening reproduces the suppressed-but-finite plateau
    for ratio in (0.0, 0.5, 1.0, 3.0):
        sc = DerivedScales(SystemConfig.from_ratio(ratio))
        wt = sc.omega_tilde_over_omega
        eta = 1e-4 * wt
        s0 = sigma0_dc(sc, eta)
        sd = dc_conductivity(sc, eta)
        num = optical_conductivity(BroadenedFrequency(1e-9 * wt, eta), sc)
        if sd > 0.0:
            assert abs(num.re - sd) <= 1e-4 * sd
        else:  # uncoupled gas in these units carries no Drude weight
            assert num.re == 0.0 and sd == 0.0
        assert optical_conductivity(BroadenedFrequency(0.0, eta), sc).im == 0.0

    _finish(5, "dc plateau sigma_dc/sigma0 = 1 - gamma", t0)


def test_criterion_6_effective_theory_suite():
    t0 = time.perf_counter()
    sys = default_system()

    # running coupling endpoints: zero at the edge, one at the pole
    assert effective_coupling(EftConfig(system=sys, lambda0=1.0)) == 0.0
    probe = EftConfig(system=sys, lambda0=2.0)
    at_pole = EftConfig(system=sys, lambda0=probe.lambda0_pole)
    assert effective_coupling(at_pole) == pytest.approx(1.0, rel=1e-12)

    # running coupling against the radial momentum-shell quadrature
    for lam in (1.5, 5.0, 20.0):
        ecfg = EftConfig(system=sys, lambda0=lam)
        edge2 = ecfg.omega_tilde_sq_cutoff
        kappa_max = math.sqrt(ecfg.lambda_freq2 - edge2) / C
        ref, _ = quad(lambda k: 2.0 * ecfg.n_alpha * C**2 * k
                      / (C**2 * k**2 + edge2),
                      0.0, kappa_max, epsabs=0, epsrel=1e-12)
        assert effective_coupling(ecfg) == pytest.approx(ref, rel=1e-8)

    # renormalized mass against the finite-difference band curvature
    strong = EftConfig(system=strong_coupling(),
                       lambda0=math.exp(0.3 / EftConfig(
                           system=strong_coupling(), lambda0=2.0).alpha))
    k, h = 1e7, 1e5
    curv = (band_energy(k + h, strong) - 2.0 * band_energy(k, strong)
            + band_energy(k - h, strong)) / h**2
    assert HBAR**2 / curv == pytest.approx(renormalized_mass(strong),
                                           rel=1e-6)

    # zero-point energy of the dressed continuum: positive for any
    # cutoff above the edge, zero at the edge, and its gap derivative
    # reproduces the closed-form outward pressure
    assert casimir_energy_density(EftConfig(system=sys, lambda0=1.0)) == 0.0
    for lam in (1.0 + 1e-9, 2.0, 10.0, 30.0):
        assert casimir_energy_density(EftConfig(system=sys, lambda0=lam)) > 0.0
    lam = 6.0
    gap, hh = 1e-6, 1e-12
    e_hi = casimir_energy_density(EftConfig(
        system=SystemConfig.si(10**8, 1e-8, gap + hh, mode_frequency=2e13),
        lambda0=lam))
    e_lo = casimir_energy_density(EftConfig(
        system=SystemConfig.si(10**8, 1e-8, gap - hh, mode_frequency=2e13),
        lambda0=lam))
    fd = -(e_hi - e_lo) / (2.0 * hh)
    ecfg = EftConfig(system=SystemConfig.si(10**8, 1e-8, gap,
                                            mode_frequency=2e13),
                     lambda0=lam)
    press = casimir_pressure(ecfg)
    assert press > 0.0
    assert fd == pytest.approx(press, rel=1e-6)

    # the four window integrals against direct adaptive quadrature
    lo = math.sqrt(ecfg.omega_tilde_sq_cutoff)
    hi = lo * math.sqrt(ecfg.lambda0)
    eta = 2e-2 * lo
    scale = 2.0 * math.pi / C**2
    for w in (0.4 * lo, 1.3 * lo, 1.05 * hi):
        a, b, c, d = appendix_integrals(w, eta, ecfg)
        pts_m = [w] if lo < w < hi else None
        qa, _ = quad(lambda v: 1.0 / ((v - w) ** 2 + eta**2), lo, hi,
                     points=pts_m, epsabs=0, epsrel=1e-12)
        qb, _ = quad(lambda v: v / ((v - w) ** 2 + eta**2), lo, hi,
                     points=pts_m, epsabs=0, epsrel=1e-12)
        qc, _ = quad(lambda v: 1.0 / ((v + w) ** 2 + eta**2), lo, hi,
                     epsabs=0, epsrel=1e-12)
        qd, _ = quad(lambda v: v / ((v + w) ** 2 + eta**2), lo, hi,
                     epsabs=0, epsrel=1e-12)
        assert a == pytest.approx(scale * qa, rel=1e-8)
        assert b == pytest.approx(scale * qb, rel=1e-8)
        assert c == pytest.approx(scale * qc, rel=1e-8)
        assert d == pytest.approx(scale * qd, rel=1e-8)

    # sharp limit: the absorption is an exact box over the dressed
    # window, height 1/(4 c^2 eps0 L_z), and zero outside
    height = 1.0 / (4.0 * C**2 * EPS0 * 1e-6)
    inside = eft_chi_aa(BroadenedFrequency(0.5 * (lo + hi), 0.0), ecfg)
    assert inside.im == -height
    assert eft_chi_aa(BroadenedFrequency(-0.5 * (lo + hi), 0.0),
                      ecfg).im == height
    for w in (0.0, 0.5 * lo, 1.5 * hi, -0.5 * lo):
        assert eft_chi_aa(BroadenedFrequency(w, 0.0), ecfg).im == 0.0

    _finish(6, "running coupling, mass, zero-point pressure, window "
               "integrals, absorption box", t0, budget=60.0)


def test_criterion_7_three_dimensional_check():
    t0 = time.perf_counter()

    # the momentum cutoff where the 3d coupling blows up sits within
    # one percent of the quoted scale, and the coupling reaches one
    pole = pole_3d()
    assert abs(pole - 0.84e15) <= 0.01 * 0.84e15
    assert coupling_3d(pole) == pytest.approx(1.0, rel=1e-12)

    # exact mass minus its first-order expansion is g^2/(1-g) bare
    # masses, hence O(g^2) as the cutoff is lowered
    for frac in (0.2, 0.05):
        lam = frac * pole
        g = coupling_3d(lam)
        diff = mass_3d(lam) - mass_3d_first_order(lam)
        assert diff == pytest.approx(M_E * g**2 / (1.0 - g), rel=1e-10)
    err_g = mass_3d(1e-3 * pole) - mass_3d_first_order(1e-3 * pole)
    err_h = mass_3d(5e-4 * pole) - mass_3d_first_order(5e-4 * pole)
    ratio = err_g / err_h
    g_small = coupling_3d(1e-3 * pole)
    expect = 4.0 * (1.0 - 0.5 * g_small) / (1.0 - g_small)
    assert ratio == pytest.approx(expect, rel=1e-9)
    assert abs(ratio - 4.0) < 0.05

    _finish(7, "3d pole location and O(g^2) mass expansion", t0)


def test_criterion_8_many_mode_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8451)

    # hand-rolled round-robin Jacobi on dense symmetric matrices up to 500
    # modes: reconstruction and trace both at the 1e-8 level or better
    for n in (40, 120, 500):
        a = rng.normal(size=(n, n))
        w = 0.5 * (a + a.T)
        nm = diagonalize_w(w)
        recon = nm.u @ np.diag(nm.omega_sq) @ nm.u.T
        scale = np.linalg.norm(w)
        assert np.linalg.norm(recon - w) <= 1e-8 * scale
        assert abs(np.sum(nm.omega_sq) - np.trace(w)) <= 1e-8 * abs(
            np.trace(w))

    # truncating the mode ladder at 100 modes leaves the lowest
    # polariton within ten percent of the continuum edge for coupling
    # ratios up to 0.9, and doubling the ladder moves it by < 0.5%
    scan = lowest_mode_scan(np.linspace(0.0, 0.9, 10), n_modes=100)
    assert scan[0, 1] == 0.0  # uncoupled ladder sits exactly on the edge
    assert float(np.max(scan[:, 1])) < 10.0
    d100 = scan[-1, 1]
    d200 = lowest_mode_scan([0.9], n_modes=200)[0, 1]
    assert abs(d200 - d100) / d200 < 5e-3

    # the exact coupling grows arctangent-like with the number of
    # modes: a two-parameter a*arctan(b M) fit explains > 99% of the
    # variance and tracks every point within five percent
    ms = np.arange(1, 201)
    for ratio in (0.1, 0.5, 1.0):
        g = np.array([exact_coupling_1d(int(m), 1.0, ratio) for m in ms])
        assert np.all(np.diff(g) > 0.0)

        def model(m, a, b):
            return a * np.arctan(b * m)

        popt, _ = curve_fit(model, ms, g, p0=(g[-1] / (np.pi / 2), 1.0))
        fit = model(ms, *popt)
        ss_res = float(np.sum((g - fit) ** 2))
        ss_tot = float(np.sum((g - g.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot
        assert r2 > 0.99, f"ratio {ratio}: R^2 = {r2:.4f}"
        max_dev = float(np.max(np.abs(fit - g) / g))
        assert max_dev < 0.05, f"ratio {ratio}: max deviation {max_dev:.3%}"

    _finish(8, "500-mode Jacobi, ladder truncation, arctangent coupling "
               "growth", t0, budget=300.0)


def test_criterion_9_jellium_minimum():
    t0 = time.perf_counter()

    # free gas: the closed-form optimum is 3 pi / (4 sqrt(2)) and a
    # blind numerical minimization lands on the same spot
    free = EftConfig(system=default_system(), lambda0=1.0)
    rs_free = rs_minimum(free)
    assert rs_free == pytest.approx(3.0 * math.pi / (4.0 * math.sqrt(2.0)),
                                    rel=1e-13)

    for lam in (1.0, 10.0, 30.0):
        ecfg = EftConfig(system=default_system(), lambda0=lam)
        closed = rs_minimum(ecfg)
        assert closed == pytest.approx(
            3.0 * math.pi / (4.0 * math.sqrt(2.0))
            * M_E / renormalized_mass(ecfg), rel=1e-12)

        def slope(rs, h=1e-7):
            return (jellium(rs + h, ecfg).total
                    - jellium(rs - h, ecfg).total) / (2.0 * h)

        numeric = brentq(slope, 0.5 * closed, 2.0 * closed, xtol=1e-13)
        assert abs(numeric - closed) <= 1e-8 * closed
        assert slope(closed - 0.05) < 0.0 < slope(closed + 0.05)

    # heavier dressed electrons prefer denser gas: the optimum shrinks
    # monotonically as the cutoff (and with it the mass) grows
    strong = strong_coupling()
    mins = [rs_minimum(EftConfig(system=strong, lambda0=lam))
            for lam in (1.0, 2.0, 10.0, 1e3, 1e6)]
    assert all(b < a for a, b in zip(mins, mins[1:]))

    _finish(9, "jellium optimum density closed form vs numeric argmin", t0)
