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
from .core import DerivedScales, UnitsMode, _finite, _non_negative, _positive
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

    w is a finite float or an ndarray of finite probe frequencies (a
    sweep); eta is one finite, non-negative float.
    """

    w: float | np.ndarray
    eta: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.w).all():
            raise DomainError("probe frequencies w must be finite")
        _non_negative(self.eta, "eta")


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

    Ratio mode measures frequencies in units of the bare mode frequency,
    sets eps0 = V = 1 and needs a finite ratio^2: each kind squares w +-
    omega_t, and omega_t > ratio.
    """
    if scales.config.units_mode is UnitsMode.RATIO:
        r = scales.omega_p_over_omega
        _finite(r * r, f"the square of ratio = {r!r}")
        return r, scales.omega_tilde_over_omega, 1.0, 1.0
    return (scales.omega_p, scales.omega_tilde, CODATA2018.eps0,
            scales.config.volume)


def _require_broadening(f: BroadenedFrequency) -> None:
    _positive(f.eta, "eta", " (the undamped single-mode kernel is on-pole)")


def chi_aa_time(tau: float, scales: DerivedScales) -> float:
    """Field-field response kernel; zero for tau < 0 (causal)."""
    _, omega_t, eps0, volume = _mode_params(scales)
    if tau < 0:
        return 0.0
    return -math.sin(_phase(omega_t, tau)) / (eps0 * volume * omega_t)


def chi_ea_time(tau: float, scales: DerivedScales) -> float:
    """Electric-field/vector-potential cross kernel, -d/dtau of chi_aa_time."""
    _, omega_t, eps0, volume = _mode_params(scales)
    if tau < 0:
        return 0.0
    return math.cos(_phase(omega_t, tau)) / (eps0 * volume)


def _phase(omega_t: float, tau: float) -> float:
    """omega_t tau for a time tau >= 0, which must stay finite."""
    _non_negative(tau, "tau")
    return _finite(lambda: omega_t * tau, f"omega_t tau at tau = {tau!r}")


def _pole_denominators(f: BroadenedFrequency, omega_t: float, what: str):
    """|w + omega_t + i eta|^2 and |w - omega_t + i eta|^2.

    A probe whose square leaves the float range raises DomainError (one
    check per call, for a scalar and for a whole sweep).  So does a
    denominator that rounds to 0, w on a pole with eta^2 below the least
    float: its reciprocal overflows, so ``what`` (the response, naming
    eta) is said to overflow.
    """
    def square(shift):   # w - omega_t is w + (-omega_t), to the bit
        w_s = f.w + shift
        return w_s * w_s + f.eta * f.eta
    d_plus = _finite(lambda: square(omega_t), "(w + omega_t)^2 + eta^2")
    d_minus = _finite(lambda: square(-omega_t), "(w - omega_t)^2 + eta^2")
    if not (np.all(d_plus) and np.all(d_minus)):
        raise DomainError(f"{what} overflows the float range")
    return d_plus, d_minus


def chi_aa_freq(f: BroadenedFrequency, scales: DerivedScales) -> ResponseValue:
    """chi_AA(w) = -(1/(2 eps0 omega_t V)) [1/(w+omega_t+i eta) - 1/(w-omega_t+i eta)]."""
    _require_broadening(f)
    _, omega_t, eps0, volume = _mode_params(scales)
    w, eta = f.w, f.eta
    what = f"chi_AA(w) at eta = {eta!r}"
    d_plus, d_minus = _pole_denominators(f, omega_t, what)
    pref = 1.0 / (2.0 * eps0 * volume * omega_t)
    re, im = _finite(lambda: (
        pref * ((w - omega_t) / d_minus - (w + omega_t) / d_plus),
        pref * eta * (1.0 / d_plus - 1.0 / d_minus)), what)
    return ResponseValue(ResponseKind.AA, re, im)


def chi_ea_freq(f: BroadenedFrequency, scales: DerivedScales) -> ResponseValue:
    """chi_EA(w) = (i/(2 eps0 V)) [1/(w+omega_t+i eta) + 1/(w-omega_t+i eta)].

    Equivalently i(w+i eta) chi_AA(w): the frequency-domain image of the
    Maxwell relation chi_EA = -d chi_AA/dtau.
    """
    _require_broadening(f)
    _, omega_t, eps0, volume = _mode_params(scales)
    w, eta = f.w, f.eta
    what = f"chi_EA(w) at eta = {eta!r}"
    d_plus, d_minus = _pole_denominators(f, omega_t, what)
    pref = 1.0 / (2.0 * eps0 * volume)
    re, im = _finite(lambda: (
        pref * eta * (1.0 / d_plus + 1.0 / d_minus),
        pref * ((w + omega_t) / d_plus + (w - omega_t) / d_minus)), what)
    return ResponseValue(ResponseKind.EA, re, im)


def chi_jj_freq(f: BroadenedFrequency, scales: DerivedScales) -> ResponseValue:
    """Current-current response (e^2 N/m_e)^2 * chi_AA; SI only."""
    return _matter_scaled(f, scales, ResponseKind.JJ)[0]


def chi_mixed_freq(f: BroadenedFrequency, scales: DerivedScales,
                   kind: ResponseKind = ResponseKind.JA) -> ResponseValue:
    """Mixed current/field response -(e^2 N/m_e) * chi_AA; JA and AJ coincide."""
    if kind not in (ResponseKind.JA, ResponseKind.AJ):
        raise DomainError(f"kind must be JA or AJ, got {kind}")
    return _matter_scaled(f, scales, kind)[0]


def response_table(f: BroadenedFrequency, scales: DerivedScales) -> np.ndarray:
    """2x2 complex matrix [[JJ, JA], [AJ, AA]] at one probe frequency w;
    rank one by construction."""
    if np.ndim(f.w):
        raise DomainError(f"the response table takes one probe frequency "
                          f"w, got an array of shape {np.shape(f.w)}")
    jj, ja, aj, aa = _matter_scaled(f, scales, ResponseKind.JJ,
                                    ResponseKind.JA, ResponseKind.AJ,
                                    ResponseKind.AA)
    return np.array([[jj.as_complex, ja.as_complex],
                     [aj.as_complex, aa.as_complex]])


def _matter_scaled(f: BroadenedFrequency, scales: DerivedScales,
                   *kinds: ResponseKind) -> list[ResponseValue]:
    """chi_AA at f times (-e^2 N/m_e)^p for each kind, p its number of
    current indices (2 for JJ, 1 for JA and AJ, 0 for AA): the one product
    of the two, with its range check; SI only."""
    if scales.config.units_mode is not UnitsMode.SI:
        raise UnitModeError("current-coupled responses need an SI config")
    k = CODATA2018
    n = scales.config.n_electrons
    matter = -k.e**2 * n / k.m_e
    aa = chi_aa_freq(f, scales)

    def value(kind):
        p = kind.name.count("J")
        return ResponseValue(kind, *_finite(
            lambda: (matter**p * aa.re, matter**p * aa.im),
            f"chi_{kind.name}(w) at eta = {f.eta!r}, n_electrons = {n:.6g}"))
    return [value(kind) for kind in kinds]


def absorption_rate(f: BroadenedFrequency, scales: DerivedScales,
                    j_ext: float) -> float:
    """Mean absorbed power -w Im[chi_AA(w)] |J_ext|^2; non-negative."""
    val = chi_aa_freq(f, scales)
    j_abs = _non_negative(abs(j_ext), "|j_ext|")
    return _finite(lambda: -f.w * val.im * j_abs**2,
                   f"the absorbed power at j_ext = {j_ext!r}")


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
    ratio_mode = scales.config.units_mode is UnitsMode.RATIO
    field = "ratio" if ratio_mode else "omega_p"
    omega_p4 = _finite(lambda: omega_p**4,
                       f"{field}^4 at {field} = {omega_p!r}")
    w, eta = f.w, f.eta
    what = f"sigma(w) at eta = {eta!r}"
    d_plus, d_minus = _pole_denominators(f, omega_t, what)

    def parts():
        lorentz = w**2 + eta**2
        drude_re = eps0 * eta * omega_p**2 / lorentz
        drude_im = eps0 * w * omega_p**2 / lorentz
        pref = eps0 * omega_p4 / (2.0 * omega_t * lorentz)
        re = drude_re - eta * pref * ((2.0 * w + omega_t) / d_plus
                                      - (2.0 * w - omega_t) / d_minus)
        im = drude_im - pref * ((w**2 - eta**2 + w * omega_t) / d_plus
                                - (w**2 - eta**2 - w * omega_t) / d_minus)
        return re, im
    re, im = _finite(parts, what)
    return ResponseValue(ResponseKind.SIGMA, re, im)


def sigma0_dc(scales: DerivedScales, eta: float) -> float:
    """Free-gas Drude DC value sigma0 = eps0 omega_p^2/eta."""
    omega_p, _, eps0, _ = _mode_params(scales)
    _positive(eta, "eta")
    return _finite(lambda: eps0 * omega_p**2 / eta, f"sigma0 at eta = {eta!r}")


def dc_conductivity(gamma: float, sigma0: float) -> float:
    """Drude peak of the coupled gas, sigma0 (1 - gamma); needs gamma < 1."""
    if _non_negative(gamma, "gamma") >= 1.0:
        raise InstabilityError(
            f"no stable ground state at gamma = {gamma}; DC limit undefined")
    return _non_negative(sigma0, "sigma0") * (1.0 - gamma)


def drude_effective_mass(gamma: float) -> float:
    """Effective mass m_e/(1 - gamma) read off the suppressed Drude peak."""
    if _non_negative(gamma, "gamma") >= 1.0:
        raise InstabilityError(
            f"effective mass diverges at gamma = {gamma}")
    return CODATA2018.m_e / (1.0 - gamma)
