"""Linear response of the coupled gas: field, current, and conductivity.

Every retarded response of the single-mode theory is carried by one pole pair
at the dressed frequency, broadened by an explicit eta > 0:

    chi_AA(tau) = -Theta(tau) sin(omega_t tau)/(eps0 omega_t V)
    chi_EA(tau) = +Theta(tau) cos(omega_t tau)/(eps0 V)
    chi_JJ     = (e^2 N/m_e)^2 chi_AA
    chi_JA     = chi_AJ = -(e^2 N/m_e) chi_AA

Real and imaginary parts are implemented as separate closed forms (not via
generic complex pole algebra) so each can be tested against the Laplace
transform of the time-domain kernel independently.

Sweeps: the frequency-domain closed forms are plain arithmetic on w, so
``BroadenedFrequency.w`` may be an ndarray.  chi_aa_freq, chi_ea_freq,
chi_jj_freq, chi_mixed_freq, optical_conductivity and absorption_rate then
evaluate a whole sweep in one call and return arrays of w's shape (in
``ResponseValue.re``/``.im``); eta stays a scalar.

Unit modes: in SI everything is dimensionful.  In Ratio mode the same
formulas are evaluated with eps0 = V = 1 and frequencies in units of the bare
mode frequency (``_mode_params`` is the one place that choice is made);
matter-coupled kinds (jj, ja, aj) need e^2 N/m_e and are SI only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .constants import CODATA2018
from .core import DerivedScales, UnitsMode
from .exceptions import DomainError, InstabilityError, UnitModeError

__all__ = [
    "ResponseKind",
    "BroadenedFrequency",
    "ResponseValue",
    "chi_aa_time",
    "chi_ea_time",
    "chi_aa_freq",
    "chi_ea_freq",
    "chi_jj_freq",
    "chi_mixed_freq",
    "response_table",
    "absorption_rate",
    "optical_conductivity",
    "sigma0_dc",
    "dc_conductivity",
    "drude_effective_mass",
]


class ResponseKind(enum.Enum):
    AA = "aa"
    EA = "ea"
    JJ = "jj"
    JA = "ja"
    AJ = "aj"
    SIGMA = "sigma"


@dataclass(frozen=True)
class BroadenedFrequency:
    """Probe frequency w with Lorentzian broadening eta (same units as w).

    w is a float or an ndarray of probe frequencies (a sweep); eta is one
    finite, non-negative float.
    """

    w: float | np.ndarray
    eta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.eta):
            raise DomainError(f"eta must be finite, got {self.eta}")
        if self.eta < 0:
            raise DomainError(f"eta must be non-negative, got {self.eta}")


@dataclass(frozen=True)
class ResponseValue:
    """Real and imaginary parts; floats, or arrays of the probe's shape."""

    kind: ResponseKind
    re: float | np.ndarray
    im: float | np.ndarray

    @property
    def as_complex(self) -> complex:
        return complex(self.re, self.im)


def _mode_params(scales: DerivedScales) -> tuple[float, float, float, float]:
    """(omega_p, omega_t, eps0, V) in the active unit mode.

    Ratio mode measures frequencies in units of the bare mode frequency and
    sets eps0 = V = 1.
    """
    if scales.config.units_mode is UnitsMode.RATIO:
        return (scales.omega_p_over_omega, scales.omega_tilde_over_omega,
                1.0, 1.0)
    return (scales.omega_p, scales.omega_tilde, CODATA2018.eps0,
            scales.config.volume)


def _matter_prefactor(scales: DerivedScales) -> float:
    """e^2 N / m_e; SI only."""
    if scales.config.units_mode is not UnitsMode.SI:
        raise UnitModeError("current-coupled responses need an SI config")
    k = CODATA2018
    return k.e**2 * scales.config.n_electrons / k.m_e


def _require_broadening(f: BroadenedFrequency) -> None:
    if f.eta <= 0:
        raise DomainError("single-mode frequency responses need eta > 0 "
                          "(the undamped kernel is on-pole)")


def chi_aa_time(tau: float, scales: DerivedScales) -> float:
    """Field-field response kernel; zero for tau < 0 (causal)."""
    _, omega_t, eps0, volume = _mode_params(scales)
    if tau < 0:
        return 0.0
    return -math.sin(omega_t * tau) / (eps0 * volume * omega_t)


def chi_ea_time(tau: float, scales: DerivedScales) -> float:
    """Electric-field/vector-potential cross kernel, -d/dtau of chi_aa_time."""
    _, omega_t, eps0, volume = _mode_params(scales)
    if tau < 0:
        return 0.0
    return math.cos(omega_t * tau) / (eps0 * volume)


def _pole_denominators(f: BroadenedFrequency, omega_t: float):
    """|w + omega_t + i eta|^2 and |w - omega_t + i eta|^2.

    Squares are products, so a Python float gives inf rather than raising;
    a probe whose square leaves the float range raises DomainError (one
    check per call, for a scalar and for a whole sweep).
    """
    w, eta = f.w, f.eta
    with np.errstate(over="ignore"):
        w_plus, w_minus = w + omega_t, w - omega_t
        d_plus = w_plus * w_plus + eta * eta
        d_minus = w_minus * w_minus + eta * eta
    if not (np.isfinite(d_plus).all() and np.isfinite(d_minus).all()):
        raise DomainError("(w +- omega_t)^2 + eta^2 overflows the float "
                          "range; the probe is too far off resonance")
    return d_plus, d_minus


def chi_aa_freq(f: BroadenedFrequency, scales: DerivedScales) -> ResponseValue:
    """chi_AA(w) = -(1/(2 eps0 omega_t V)) [1/(w+omega_t+i eta) - 1/(w-omega_t+i eta)]."""
    _require_broadening(f)
    _, omega_t, eps0, volume = _mode_params(scales)
    w, eta = f.w, f.eta
    d_plus, d_minus = _pole_denominators(f, omega_t)
    pref = 1.0 / (2.0 * eps0 * volume * omega_t)
    re = pref * ((w - omega_t) / d_minus - (w + omega_t) / d_plus)
    im = pref * eta * (1.0 / d_plus - 1.0 / d_minus)
    return ResponseValue(ResponseKind.AA, re, im)


def chi_ea_freq(f: BroadenedFrequency, scales: DerivedScales) -> ResponseValue:
    """chi_EA(w) = (i/(2 eps0 V)) [1/(w+omega_t+i eta) + 1/(w-omega_t+i eta)].

    Equivalently i(w+i eta) chi_AA(w): the frequency-domain image of the
    Maxwell relation chi_EA = -d chi_AA/dtau.
    """
    _require_broadening(f)
    _, omega_t, eps0, volume = _mode_params(scales)
    w, eta = f.w, f.eta
    d_plus, d_minus = _pole_denominators(f, omega_t)
    pref = 1.0 / (2.0 * eps0 * volume)
    re = pref * eta * (1.0 / d_plus + 1.0 / d_minus)
    im = pref * ((w + omega_t) / d_plus + (w - omega_t) / d_minus)
    return ResponseValue(ResponseKind.EA, re, im)


def chi_jj_freq(f: BroadenedFrequency, scales: DerivedScales) -> ResponseValue:
    """Current-current response (e^2 N/m_e)^2 * chi_AA; SI only."""
    pref = _matter_prefactor(scales) ** 2
    base = chi_aa_freq(f, scales)
    return ResponseValue(ResponseKind.JJ, pref * base.re, pref * base.im)


def chi_mixed_freq(f: BroadenedFrequency, scales: DerivedScales,
                   kind: ResponseKind = ResponseKind.JA) -> ResponseValue:
    """Mixed current/field response -(e^2 N/m_e) * chi_AA; JA and AJ coincide."""
    if kind not in (ResponseKind.JA, ResponseKind.AJ):
        raise DomainError(f"kind must be JA or AJ, got {kind}")
    pref = -_matter_prefactor(scales)
    base = chi_aa_freq(f, scales)
    return ResponseValue(kind, pref * base.re, pref * base.im)


def response_table(f: BroadenedFrequency, scales: DerivedScales) -> np.ndarray:
    """2x2 complex matrix [[JJ, JA], [AJ, AA]]; rank one by construction."""
    aa = chi_aa_freq(f, scales).as_complex
    pref = _matter_prefactor(scales)
    return np.array([[pref**2 * aa, -pref * aa],
                     [-pref * aa, aa]], dtype=complex)


def absorption_rate(f: BroadenedFrequency, scales: DerivedScales,
                    j_ext: float) -> float:
    """Mean absorbed power -w Im[chi_AA(w)] |J_ext|^2; non-negative."""
    val = chi_aa_freq(f, scales)
    return -f.w * val.im * abs(j_ext) ** 2


def optical_conductivity(f: BroadenedFrequency,
                         scales: DerivedScales) -> ResponseValue:
    """Optical conductivity of the coupled gas (S/m in SI).

    Closed form of i/(w + i eta) (e^2 n_e/m_e + chi_JJ/V), split into real
    and imaginary parts:

        Re = eps0 eta wp^2/(w^2+eta^2)
             - eta eps0 wp^4/(2 wt (w^2+eta^2))
               [ (2w+wt)/D+ - (2w-wt)/D- ]
        Im = eps0 w wp^2/(w^2+eta^2)
             - eps0 wp^4/(2 wt (w^2+eta^2))
               [ (w^2-eta^2+w wt)/D+ - (w^2-eta^2-w wt)/D- ]
    """
    _require_broadening(f)
    omega_p, omega_t, eps0, _ = _mode_params(scales)
    w, eta = f.w, f.eta
    d_plus, d_minus = _pole_denominators(f, omega_t)
    lorentz = w**2 + eta**2
    drude_re = eps0 * eta * omega_p**2 / lorentz
    drude_im = eps0 * w * omega_p**2 / lorentz
    pref = eps0 * omega_p**4 / (2.0 * omega_t * lorentz)
    re = drude_re - eta * pref * ((2.0 * w + omega_t) / d_plus
                                  - (2.0 * w - omega_t) / d_minus)
    im = drude_im - pref * ((w**2 - eta**2 + w * omega_t) / d_plus
                            - (w**2 - eta**2 - w * omega_t) / d_minus)
    return ResponseValue(ResponseKind.SIGMA, re, im)


def sigma0_dc(scales: DerivedScales, eta: float) -> float:
    """Free-gas Drude DC value sigma0 = eps0 omega_p^2/eta."""
    if eta <= 0:
        raise DomainError(f"eta must be positive, got {eta}")
    omega_p, _, eps0, _ = _mode_params(scales)
    return eps0 * omega_p**2 / eta


def dc_conductivity(gamma: float, sigma0: float) -> float:
    """Drude peak of the coupled gas, sigma0 (1 - gamma); needs gamma < 1."""
    if gamma < 0:
        raise DomainError(f"gamma must be non-negative, got {gamma}")
    if gamma >= 1.0:
        raise InstabilityError(
            f"no stable ground state at gamma = {gamma}; DC limit undefined")
    return sigma0 * (1.0 - gamma)


def drude_effective_mass(gamma: float) -> float:
    """Effective mass m_e/(1 - gamma) read off the suppressed Drude peak."""
    if gamma < 0:
        raise DomainError(f"gamma must be non-negative, got {gamma}")
    if gamma >= 1.0:
        raise InstabilityError(
            f"effective mass diverges at gamma = {gamma}")
    return CODATA2018.m_e / (1.0 - gamma)
