"""Continuum effective theory: running coupling, mass renormalization,
jellium corrections, Casimir pressure, and the broadened continuum response.

Integrating the in-plane photon continuum up to a UV cutoff replaces the
single-mode collective coupling with a logarithmically running one,

    g(Lambda) = N alpha ln(Lambda/omega_t^2(kappa_z)) = N alpha ln(Lambda0),
    alpha     = e^2/(4 pi c^2 eps0 m_e L_z),

where kappa_z = pi n_z/L_z is the out-of-plane standing-wave momentum and
omega_t^2(kappa_z) = c^2 kappa_z^2 + omega_p^2 is the lower edge of the
dressed continuum.  Cutoffs are kept deliberately distinct in the API:
``lambda0`` is the dimensionless ratio Lambda/omega_t^2(kappa_z),
``lambda_freq2`` values carry rad^2/s^2, and the 1D/3D variants take momentum
cutoffs in 1/m.

Sweeps are array calls.  effective_coupling, per_particle_coupling,
renormalized_mass, chemical_potential, casimir_energy_density and
casimir_pressure take an optional ``lambda0``: a float or an ndarray of
cutoffs (each finite and >= 1) at which to evaluate the same system instead
of ``ecfg.lambda0``, giving a result of its shape.  Without it they return a
Python float.  jellium takes an ndarray of radii, and eft_chi_aa a
BroadenedFrequency whose w is an ndarray.  The scalar and the array calls
evaluate one formula per quantity.

The continuum energy is the single-mode spectrum with g(Lambda) for gamma,
from the one implementation ``singlemode._spectrum`` and its range check.
The broadened window lo < |w| < hi enters eft_chi_aa and
appendix_integrals through one set of terms, ``_window``: four
arctangents, two log ratios and their range checks.  coupling_1d takes
each of its two quotients on a pair scaled by a power of two
(``core._scaled``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import CODATA2018
from .core import (DerivedScales, SystemConfig, UnitsMode, _finite,
                   _non_negative, _positive, _scaled)
from .exceptions import DomainError, PoleError, UnitModeError
from .response import BroadenedFrequency, ResponseKind, ResponseValue
from .singlemode import _spectrum

__all__ = [
    "EftConfig",
    "JelliumResult",
    "effective_coupling",
    "per_particle_coupling",
    "landau_pole",
    "effective_energy",
    "band_energy",
    "renormalized_mass",
    "chemical_potential",
    "quasiparticle_energy",
    "jellium",
    "rs_minimum",
    "casimir_energy_density",
    "casimir_pressure",
    "coupling_1d",
    "coupling_3d",
    "mass_3d",
    "mass_3d_first_order",
    "pole_3d",
    "eft_chi_aa",
    "appendix_integrals",
    "eft_summary",
]


@dataclass(frozen=True)
class EftConfig:
    """System plus dimensionless cutoff Lambda0 = Lambda/omega_t^2(kappa_z).

    Lambda0 must be finite and >= 1; values beyond the Landau pole
    exp(1/(N alpha)) are allowed for exploratory sweeps but emit a
    RuntimeWarning since the theory has no ground state there.  A system so
    weakly coupled that the pole leaves the float range raises DomainError.
    """

    system: SystemConfig
    lambda0: float

    def __post_init__(self) -> None:
        if self.system.units_mode is not UnitsMode.SI:
            raise UnitModeError("the continuum theory needs an SI config")
        if not math.isfinite(self.lambda0):
            raise DomainError(f"lambda0 must be finite, got {self.lambda0}")
        if self.lambda0 < 1.0:
            raise DomainError(f"lambda0 must be >= 1, got {self.lambda0}")
        if self.lambda0 > self.lambda0_pole:
            warnings.warn(
                f"lambda0 = {self.lambda0:g} exceeds the Landau pole "
                f"{self.lambda0_pole:g}; no stable ground state",
                RuntimeWarning, stacklevel=2)

    @cached_property
    def scales(self) -> DerivedScales:
        return DerivedScales(self.system)

    @cached_property
    def alpha(self) -> float:
        """Per-electron coupling density e^2/(4 pi c^2 eps0 m_e L_z)."""
        k = CODATA2018
        gap = self.system.mirror_gap
        # the denominator is 0 below mirror_gap ~3e-301 m
        return _finite(
            lambda: k.e**2 / (4.0 * math.pi * k.c**2 * k.eps0 * k.m_e * gap),
            f"alpha at mirror_gap = {gap!r}")

    @cached_property
    def n_alpha(self) -> float:
        return self.system.n_electrons * self.alpha

    @cached_property
    def kappa_z(self) -> float:
        return math.pi * self.system.cavity_index / self.system.mirror_gap

    @cached_property
    def omega_tilde_sq_cutoff(self) -> float:
        """Lower continuum edge omega_t^2(kappa_z) in rad^2/s^2."""
        return _finite(
            lambda: (CODATA2018.c * self.kappa_z) ** 2 + self.scales.omega_p**2,
            f"the continuum edge at mirror_gap = {self.system.mirror_gap!r}")

    @cached_property
    def lambda_freq2(self) -> float:
        """Dimensionful cutoff Lambda = lambda0 * omega_t^2(kappa_z)."""
        return _finite(self.lambda0 * self.omega_tilde_sq_cutoff,
                       f"the cutoff Lambda at lambda0 = {self.lambda0!r}")

    @cached_property
    def lambda0_pole(self) -> float:
        return _finite(lambda: math.exp(1.0 / self.n_alpha),
                       f"the Landau pole exp(1/n_alpha) at n_alpha = "
                       f"{self.n_alpha:g}")

    @property
    def in_stability_window(self) -> bool:
        return 1.0 <= self.lambda0 <= self.lambda0_pole


def _cutoffs(ecfg: EftConfig, lambda0: float | np.ndarray | None):
    """ecfg.lambda0, or the checked array of cutoffs a sweep asks for."""
    if lambda0 is None:
        return ecfg.lambda0
    lam = np.asarray(lambda0, dtype=float)
    if not np.all((lam >= 1.0) & (lam < math.inf)):
        raise DomainError("lambda0 values must be finite and >= 1")
    return lam


def _value(x, lambda0: float | np.ndarray | None):
    """A Python float for the scalar API, the array for a sweep."""
    return float(x) if lambda0 is None else x


def _cutoff_growth(lam):
    """Lambda0^{3/2} - 1 as expm1(1.5 ln Lambda0), which keeps full relative
    accuracy next to Lambda0 = 1, where the subtraction cancels."""
    return np.expm1(1.5 * np.log(lam))


def effective_coupling(ecfg: EftConfig,
                       lambda0: float | np.ndarray | None = None):
    """Running collective coupling g(Lambda) = N alpha ln(Lambda0)."""
    return _value(ecfg.n_alpha * np.log(_cutoffs(ecfg, lambda0)), lambda0)


def per_particle_coupling(ecfg: EftConfig,
                          lambda0: float | np.ndarray | None = None):
    """Per-particle coupling g(Lambda)/N = alpha ln(Lambda0); the mass
    renormalization has its pole where it reaches 1."""
    return _value(ecfg.alpha * np.log(_cutoffs(ecfg, lambda0)), lambda0)


def landau_pole(ecfg: EftConfig) -> float:
    """Cutoff (rad^2/s^2) where g reaches 1: omega_t^2(kappa_z) e^{1/(N alpha)}."""
    return ecfg.omega_tilde_sq_cutoff * ecfg.lambda0_pole


def effective_energy(kinetic_sum: float, K: tuple[float, float],
                     ecfg: EftConfig,
                     photon_excitations: tuple[tuple[float, int], ...] = ()
                     ) -> float:
    """Total energy (J) of the continuum theory for given electron aggregates.

    kinetic_sum and K follow the single-mode spectrum conventions.  The photon
    zero-point continuum enters as area * casimir_energy_density; discrete
    excitations on top are passed as (frequency rad/s, occupation) pairs.
    An energy past the float range raises DomainError.
    """
    return _spectrum(
        lambda: ecfg.system.area * casimir_energy_density(ecfg)
        + sum(CODATA2018.hbar * om * occ for om, occ in photon_excitations),
        kinetic_sum, (math.sqrt(effective_coupling(ecfg)), 1.0), lambda: K,
        ecfg.system.n_electrons,
        f"the effective energy at kinetic_sum = {kinetic_sum!r}, K = {K!r}")


def band_energy(k: float, ecfg: EftConfig) -> float:
    """Single-electron dispersion (J): hbar^2 k^2 (1 - alpha ln Lambda0)/(2 m_e).

    One electron carrying momentum k on top of the K = 0 ground state feels
    the per-particle share g(Lambda)/N = alpha ln Lambda0 of the collective
    coupling; the band flattens at the single-particle pole alpha ln
    Lambda0 = 1 and inverts beyond it.  Equal to effective_energy(k^2, (k, 0))
    minus the zero-point contribution.  An energy past the float range raises
    DomainError.
    """
    g_per = per_particle_coupling(ecfg)
    return _finite(CODATA2018.hbar**2 * k * k * (1.0 - g_per)
                   / (2.0 * CODATA2018.m_e), f"the band energy at k = {k!r}")


def renormalized_mass(ecfg: EftConfig,
                      lambda0: float | np.ndarray | None = None):
    """Dispersion-curvature mass m_e(Lambda) = m_e/(1 - alpha ln Lambda0).

    alpha ln Lambda0 is the per-particle coupling g(Lambda)/N read off the
    curvature of band_energy at k = 0; the mass diverges at the
    single-particle pole alpha ln Lambda0 = 1 (for N = 1 this coincides with
    the Landau pole of the running coupling).  A sweep that reaches the pole
    raises PoleError for its first cutoff there.
    """
    return _pole_mass(per_particle_coupling(ecfg, lambda0),
                      "per-particle coupling")


def _pole_mass(g, coupling: str):
    """m_e/(1 - g), g a float or an array; PoleError names the first g >= 1."""
    past = np.asarray(g)[np.asarray(g) >= 1.0]
    if past.size:
        raise PoleError(f"{coupling} {past[0]:g} at or beyond the pole")
    return CODATA2018.m_e / (1.0 - g)


def chemical_potential(ecfg: EftConfig, k_fermi: float | None = None,
                       lambda0: float | np.ndarray | None = None):
    """mu = hbar^2 k_F^2 / (2 m_e(Lambda)) in joules.

    k_fermi defaults to the config's spin-degenerate Fermi wavevector.
    """
    k_f = (ecfg.scales.k_fermi if k_fermi is None
           else _non_negative(k_fermi, "k_fermi"))
    return _finite(lambda: CODATA2018.hbar**2 * k_f**2
                   / (2.0 * renormalized_mass(ecfg, lambda0)),
                   f"mu at k_fermi = {k_f!r}")


def quasiparticle_energy(k: float, ecfg: EftConfig,
                         k_fermi: float | None = None,
                         v_fermi: float | None = None) -> float:
    """Linearized dispersion mu + hbar v_F (k - k_F) near the Fermi surface.

    v_fermi defaults to hbar k_F / m_e(Lambda), the dressed group velocity.
    """
    _non_negative(k, "k")
    k_f = (ecfg.scales.k_fermi if k_fermi is None
           else _non_negative(k_fermi, "k_fermi"))
    if v_fermi is None:
        v_fermi = CODATA2018.hbar * k_f / renormalized_mass(ecfg)
    else:
        _non_negative(v_fermi, "v_fermi")
    return _finite(lambda: chemical_potential(ecfg, k_f)
                   + CODATA2018.hbar * v_fermi * (k - k_f),
                   f"the quasiparticle energy at k = {k!r}, k_fermi = "
                   f"{k_f!r}, v_fermi = {v_fermi!r}")


@dataclass(frozen=True)
class JelliumResult:
    """Jellium energy pieces in Rydberg at Wigner-Seitz radius rs."""

    rs: float | np.ndarray
    tau: float | np.ndarray      # kinetic term, (m_e/m_e(Lambda))/rs^2
    eps_x: float | np.ndarray    # exchange term, -(8 sqrt2/(3 pi))/rs
    total: float | np.ndarray
    rs_min: float                # minimizer of tau + eps_x


_EXCHANGE_COEFF = 8.0 * math.sqrt(2.0) / (3.0 * math.pi)


def rs_minimum(ecfg: EftConfig) -> float:
    """Closed-form minimizer rs_min = (3 pi/(4 sqrt2)) m_e/m_e(Lambda)."""
    mass_ratio = CODATA2018.m_e / renormalized_mass(ecfg)
    return 3.0 * math.pi / (4.0 * math.sqrt(2.0)) * mass_ratio


def jellium(rs: float | np.ndarray, ecfg: EftConfig) -> JelliumResult:
    """Kinetic + exchange jellium energy per electron at radius rs (Ry).

    rs may be an ndarray of radii; the energy fields then have its shape.
    A radius that is not positive and finite raises DomainError (the first
    one, for an array), and so does one so small that 1/rs^2 overflows.
    """
    radii = np.asarray(rs, dtype=float)
    bad = ~((radii > 0) & (radii < math.inf))
    if bad.any():
        first = float(radii[bad][0])
        raise DomainError(f"rs must be positive and finite, got {first}")
    mass_ratio = CODATA2018.m_e / renormalized_mass(ecfg)
    tau = _finite(lambda: mass_ratio / radii**2, "the kinetic term 1/rs^2")
    eps_x = -_EXCHANGE_COEFF / radii
    total = tau + eps_x
    if radii.ndim == 0:
        tau, eps_x, total = float(tau), float(eps_x), float(total)
    return JelliumResult(rs=rs, tau=tau, eps_x=eps_x, total=total,
                         rs_min=rs_minimum(ecfg))


def casimir_energy_density(ecfg: EftConfig,
                           lambda0: float | np.ndarray | None = None):
    """Zero-point energy per area of the dressed in-plane continuum.

    Integrating hbar omega_t(kappa) (two polarizations at half a quantum
    each) over in-plane momenta between the continuum edge and the cutoff:
    E/S = hbar (Lambda0^{3/2} - 1) omega_t^3(kappa_z) / (6 pi c^2).
    A cutoff whose Lambda0^{3/2} overflows raises DomainError.
    """
    k = CODATA2018
    cutoff = ecfg.omega_tilde_sq_cutoff
    lam = _cutoffs(ecfg, lambda0)
    energy = _finite(lambda: k.hbar * _cutoff_growth(lam) * cutoff**1.5
                     / (6.0 * math.pi * k.c**2),
                     f"the Casimir energy density at lambda0 = "
                     f"{np.max(lam):g}")
    return _value(energy, lambda0)


def casimir_pressure(ecfg: EftConfig,
                     lambda0: float | np.ndarray | None = None):
    """Outward force per area on the mirrors, -d(E/S)/dL_z at fixed Lambda0, n_2d.

    Positive (repulsive) for Lambda0 > 1.  Both the standing-wave momentum
    and the plasma frequency depend on the gap:
        F/S = hbar (Lambda0^{3/2}-1)/(4 pi c^2 L_z)
              * omega_t(kappa_z) * (2 c^2 kappa_z^2 + omega_p^2).
    """
    k = CODATA2018
    omega_t = math.sqrt(ecfg.omega_tilde_sq_cutoff)
    lam = _cutoffs(ecfg, lambda0)
    pressure = _finite(
        lambda: k.hbar * _cutoff_growth(lam) * omega_t
        * (2.0 * (k.c * ecfg.kappa_z) ** 2 + ecfg.scales.omega_p**2)
        / (4.0 * math.pi * k.c**2 * ecfg.system.mirror_gap),
        f"the Casimir pressure at lambda0 = {np.max(lam):g}")
    return _value(pressure, lambda0)


def coupling_1d(kappa_max: float, omega: float, omega_p: float) -> float:
    """1D mode-summed coupling (omega_p/2 omega) arctan(c kappa_max/omega_p).

    omega is the fundamental cavity frequency c pi/L_z; kappa_max the
    out-of-plane momentum cutoff.  Saturates at pi omega_p/(4 omega).
    u = c kappa_max/omega_p and the prefactor each depend on one ratio, so
    each quotient is taken on its pair ``_scaled`` by a power of two, and
    for u < 1 the coupling is written (c kappa_max/2 omega) arctan(u)/u,
    which keeps its digits where arctan(u) would underflow: no intermediate
    leaves the float range where the coupling does not.
    """
    _positive(omega, "omega")
    _non_negative(kappa_max, "kappa_max")
    if _non_negative(omega_p, "omega_p") == 0.0:
        return 0.0
    c = CODATA2018.c
    k, w_p = _scaled(max(kappa_max, omega_p), kappa_max, omega_p)
    u = c * k / w_p if w_p else math.inf   # w_p underflows: arctan is pi/2
    factor, x, angle = ((c, kappa_max, math.atan(u) / u if u else 1.0)
                        if u < 1.0 else (1.0, omega_p, math.atan(u)))
    # x/(2 omega) on the pair scaled so that omega is at most 2^100 x
    x, w = _scaled(max(x, 2.0**-100 * omega), x, omega)
    return _finite(lambda: factor * x / (2.0 * w) * angle,
                   f"the 1D coupling at kappa_max = {kappa_max!r}, omega = "
                   f"{omega!r}, omega_p = {omega_p!r}")


def coupling_3d(lambda_mom: float) -> float:
    """Free-space single-electron coupling (4 alpha_fs/3 pi) hbar Lambda/(m_e c)."""
    _non_negative(lambda_mom, "lambda_mom")
    k = CODATA2018
    return 4.0 * k.alpha_fs / (3.0 * math.pi) * k.hbar * lambda_mom / (k.m_e * k.c)


def mass_3d(lambda_mom: float) -> float:
    """Exact 3D renormalized mass m_e/(1 - g3d)."""
    return _pole_mass(coupling_3d(lambda_mom), "3D coupling")


def mass_3d_first_order(lambda_mom: float) -> float:
    """First-order expansion m_e (1 + g3d); differs from exact at O(g^2)."""
    return CODATA2018.m_e * (1.0 + coupling_3d(lambda_mom))


def pole_3d() -> float:
    """Momentum cutoff (1/m) where the 3D coupling reaches 1."""
    k = CODATA2018
    return 3.0 * math.pi * k.m_e * k.c / (4.0 * k.alpha_fs * k.hbar)


def _edges(ecfg: EftConfig) -> tuple[float, float]:
    """(lower, upper) frequency edges omega_t(kappa_z) and sqrt(Lambda); a
    cutoff Lambda past the float range raises DomainError."""
    lo = math.sqrt(ecfg.omega_tilde_sq_cutoff)
    hi = lo * math.sqrt(ecfg.lambda0)
    _finite(hi * hi, f"the cutoff Lambda at lambda0 = {ecfg.lambda0!r}")
    return lo, hi


def _window(w, eta: float, lo: float, hi: float, what: str) -> tuple:
    """Every term of the broadened window lo < |w| < hi, in one place: the
    arctangents of (hi + w)/eta, (lo + w)/eta, (lo - w)/eta and
    (hi - w)/eta, and the log ratios ln(((w - lo)^2 + eta^2)/((w - hi)^2 +
    eta^2)) and ln(((w + lo)^2 + eta^2)/((w + hi)^2 + eta^2)), for a float
    or an array w.  Past the float range DomainError names ``what``, and
    also where a log ratio is infinite: w on an edge to rounding once eta^2
    underflows, the sharp window's log pole.  At eta = 0 the arctangents
    are +-pi/2 off the edges, and each (w - edge)^2 + 0.0 is (w - edge)^2,
    to the bit.
    """
    eta = np.float64(eta)   # so that x/eta is +-inf at eta = 0, not an error
    # one (8, *w.shape) array: the arctangents, then the squared distances
    # (w - lo)^2, (w - hi)^2, (w + lo)^2, (w + hi)^2 plus eta^2
    terms = _finite(lambda: np.concatenate((np.arctan(np.concatenate((
        np.add.outer([hi, lo], w), np.subtract.outer([lo, hi], w))) / eta),
        np.subtract.outer([lo, hi, -lo, -hi], w) ** 2 + eta * eta)), what)
    return (*terms[:4], *_finite(
        lambda: np.log(terms[4::2] / terms[5::2]),
        f"{what} diverges, as w is on a window edge: a log ratio"))


def eft_chi_aa(f: BroadenedFrequency, ecfg: EftConfig) -> ResponseValue:
    """Continuum field-field response per probe area.

    For eta > 0 both parts are closed forms (logs and arctangents of the
    continuum edges, ``_window``).  At eta = 0 the imaginary part collapses
    to a box of height 1/(4 c^2 eps0 L_z) supported on omega_t(kappa_z) <
    |w| < sqrt(Lambda), negative on the positive-frequency window; the real
    part stays finite except at the four edge frequencies, where the log
    diverges and a PoleError is raised.  An ndarray f.w gives arrays of its
    shape; at eta = 0 the first probe on an edge raises.  A cutoff Lambda
    past the float range raises DomainError.
    """
    w, eta = f.w, f.eta
    k = CODATA2018
    lz = ecfg.system.mirror_gap
    lo, hi = _edges(ecfg)
    pref_re = 1.0 / (8.0 * math.pi * k.c**2 * k.eps0 * lz)
    pref_im = 1.0 / (4.0 * k.c**2 * k.eps0 * lz)
    if eta == 0.0:
        on_edge = np.asarray((w == lo) | (w == hi) | (w == -lo) | (w == -hi))
        if on_edge.any():
            w_edge = np.asarray(w)[on_edge][0]
            edge = next(e for e in (lo, hi, -lo, -hi) if w_edge == e)
            raise PoleError(
                f"Re chi has a log divergence at w = {edge:g} for eta = 0")
    what = f"chi_AA(w) at eta = {eta!r}"
    a_hi, a_lo, b_lo, b_hi, log_minus, log_plus = _window(w, eta, lo, hi,
                                                          what)
    re, im = _finite(lambda: (
        pref_re * (log_minus + log_plus),
        np.where((lo < w) & (w < hi), -pref_im,
                 np.where((-hi < w) & (w < -lo), pref_im, 0.0)) if eta == 0.0
        else (pref_im / math.pi) * (a_hi - a_lo + b_lo - b_hi)), what)
    if np.ndim(w) == 0:
        re, im = float(re), float(im)
    return ResponseValue(ResponseKind.AA, re, im)


def appendix_integrals(w: float, eta: float,
                       ecfg: EftConfig) -> tuple[float, float, float, float]:
    """The four in-plane continuum integrals (A, B, C, D) in closed form,
    from the terms of ``_window``.

    A and C carry the Lorentzian weights, B and D their frequency-weighted
    companions; the response assembles as
        Re chi = (w A - B - w C - D)/(8 pi^2 eps0 L_z),
        Im chi = eta (C - A)/(8 pi^2 eps0 L_z).
    A value past the float range raises DomainError, as does w on a window
    edge once eta^2 underflows (the sharp-window log divergence).
    """
    _positive(eta, "eta")
    lo, hi = _edges(ecfg)
    c2 = CODATA2018.c**2
    what = f"an appendix integral at w = {w!r}, eta = {eta!r}"
    a_hi, a_lo, b_lo, b_hi, log_minus, log_plus = map(
        float, _window(w, eta, lo, hi, what))
    at_minus, at_plus = b_hi - b_lo, a_hi - a_lo
    return _finite((2.0 * math.pi / (c2 * eta) * at_minus,
                    math.pi / c2 * (2.0 * w / eta * at_minus - log_minus),
                    2.0 * math.pi / (c2 * eta) * at_plus,
                    -math.pi / c2 * (log_plus + 2.0 * w / eta * at_plus)),
                   what)


def eft_summary(ecfg: EftConfig) -> dict:
    """Scalar summary of the continuum theory at this cutoff (JSON-friendly).

    Mass-derived entries are None beyond the single-particle pole.
    """
    out: dict = {
        "lambda0": ecfg.lambda0,
        "alpha": ecfg.alpha,
        "n_alpha": ecfg.n_alpha,
        "kappa_z": ecfg.kappa_z,
        "omega_p": ecfg.scales.omega_p,
        "omega_tilde_sq_cutoff": ecfg.omega_tilde_sq_cutoff,
        "lambda_freq2": ecfg.lambda_freq2,
        "lambda0_pole": ecfg.lambda0_pole,
        "landau_pole_freq2": landau_pole(ecfg),
        "coupling_g": effective_coupling(ecfg),
        "casimir_energy_density": casimir_energy_density(ecfg),
        "casimir_pressure": casimir_pressure(ecfg),
        "in_stability_window": ecfg.in_stability_window,
    }
    try:
        mass = renormalized_mass(ecfg)
    except PoleError:
        out.update(renormalized_mass=None, mass_ratio=None,
                   chemical_potential=None, rs_min=None, beyond_pole=True)
        return out
    out.update(renormalized_mass=mass,
               mass_ratio=mass / CODATA2018.m_e,
               chemical_potential=chemical_potential(ecfg),
               rs_min=rs_minimum(ecfg),
               beyond_pole=False)
    return out
