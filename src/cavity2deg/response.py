"""Linear response of the coupled gas: field, current, and conductivity.

Every retarded response of the single-mode theory is carried by one pole pair
at the dressed frequency, broadened by an explicit eta > 0:

    chi_AA(tau) = -Theta(tau) sin(omega_t tau)/(eps0 omega_t V)
    chi_EA(tau) = +Theta(tau) cos(omega_t tau)/(eps0 V)
    chi_JJ     = (e^2 N/m_e)^2 chi_AA
    chi_JA     = chi_AJ = -(e^2 N/m_e) chi_AA

In the frequency domain, z = w + i eta, each kind is one expression in the
pole pair P = 1/((z - omega_t)(z + omega_t)):

    chi_AA = P/(eps0 V),    chi_EA = i z P/(eps0 V),
    sigma  = i eps0 omega_p^2 [(1 - gamma)/z + gamma z P],

the last the partial fractions of i/z (e^2 n_e/m_e + chi_JJ/V), a Drude
term and the polariton, weighted by the f-sum split of omega_p^2.
``_pole_pair`` forms P in numpy complex arithmetic on the frequencies times
one power of two, which is put back once, so that no intermediate leaves the
float range ahead of the value: a response is a DomainError only where its
value does.

Sweeps: ``BroadenedFrequency.w`` may be an ndarray.  chi_aa_freq,
chi_ea_freq, chi_jj_freq, chi_mixed_freq, optical_conductivity and
absorption_rate then evaluate a whole sweep in one call, each probe on its
own power of two, and return arrays of w's shape (in
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
from .core import (DerivedScales, UnitsMode, _finite, _non_negative,
                   _positive, _scaled)
from .exceptions import DomainError, UnitModeError

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


def _mode_params(scales: DerivedScales) -> tuple[float, float, float, float,
                                               float]:
    """(omega, omega_p, omega_t, eps0, eps0 V) in the active unit mode.

    Ratio mode measures frequencies in units of the bare mode frequency and
    sets eps0 = V = 1.
    """
    if scales.config.units_mode is UnitsMode.RATIO:
        return (1.0, scales.omega_p_over_omega, scales.omega_tilde_over_omega,
                1.0, 1.0)
    cfg, eps0 = scales.config, CODATA2018.eps0
    return (scales.omega, scales.omega_p, scales.omega_tilde, eps0, _finite(
        eps0 * cfg.volume,
        f"eps0 V at area = {cfg.area!r}, mirror_gap = {cfg.mirror_gap!r}"))


def chi_aa_time(tau: float, scales: DerivedScales) -> float:
    """Field-field response kernel; zero for tau < 0 (causal)."""
    _, _, omega_t, _, eps0_v = _mode_params(scales)
    if tau < 0:
        return 0.0
    return -math.sin(_phase(omega_t, tau)) / (eps0_v * omega_t)


def chi_ea_time(tau: float, scales: DerivedScales) -> float:
    """Electric-field/vector-potential cross kernel, -d/dtau of chi_aa_time."""
    _, _, omega_t, _, eps0_v = _mode_params(scales)
    if tau < 0:
        return 0.0
    return math.cos(_phase(omega_t, tau)) / eps0_v


def _phase(omega_t: float, tau: float) -> float:
    """omega_t tau for a time tau >= 0, which must stay finite."""
    _non_negative(tau, "tau")
    return _finite(lambda: omega_t * tau, f"omega_t tau at tau = {tau!r}")


def _near_factor(x, eta: float, omega: float):
    """(k_u, u'): u = (x - omega) + i eta, x = |w|, times the power of two
    k_u that brings max(|x - omega|, eta), but at least 2^-1000, into [1/2, 1)
    at each probe (``core._scaled``).  x - omega cannot overflow and is
    exact near the pole, and eta is scaled by u's own power, so u' keeps
    every bit of the probe's distance from the pole."""
    gap = x - omega
    k_u, = _scaled(np.maximum(np.abs(gap), max(eta, 2.0**-1000)), 1.0)
    return k_u, gap * k_u + 1j * (eta * k_u)


def _pole_pair(f: BroadenedFrequency, omega_t: float):
    """(k, k_u, z, P') at x = |w|: z = x + i eta and 1/((z - omega_t)(z +
    omega_t)) = P' k k_u.

    k is the power of two that brings max(x, eta, omega_t), but at least
    2^-1000, into [1/2, 1), which scales the far factor z + omega_t; the near
    factor is ``_near_factor``'s.  No operand then exceeds 2 and |P'| stays
    below 2^75.  The product is formed from its real parts, ((x - omega_t)
    k_u)((x + omega_t) k) - (eta k_u)(eta k) + 2i (x k)(eta k_u), so its
    imaginary part has the sign of x; numpy's reciprocal (Smith's
    algorithm) squares neither part.
    """
    x = np.abs(f.w)
    k, = _scaled(np.maximum(x, max(f.eta, omega_t, 2.0**-1000)), 1.0)
    k_u, u = _near_factor(x, f.eta, omega_t)
    x_k = x * k
    return k, k_u, x + 1j * f.eta, np.reciprocal(
        u.real * (x_k + omega_t * k) - u.imag * (f.eta * k)
        + 2j * x_k * u.imag)


def _pole_value(kind: ResponseKind, f: BroadenedFrequency, omega_t: float,
                form, name: str) -> ResponseValue:
    """A kind at f from form(k, k_u, z, P') of the ``_pole_pair``: terms
    (v, c) whose sum of v c is the value, with the last real factor c put
    on each part, so that a value past the float range is an overflow, not
    inf times 0.  Forms take x = |w|: each kind is the transform of a real
    kernel, so its value at -w is the conjugate of that at w.  One range
    check; Python floats for a scalar w, as ``eft.eft_chi_aa`` gives."""
    _positive(f.eta, "eta", " (the undamped single-mode kernel is on-pole)")

    def value():
        terms = form(*_pole_pair(f, omega_t))
        im = sum(v.imag * c for v, c in terms)
        return (sum(v.real * c for v, c in terms),
                np.where(f.w < 0, -im, im))
    re, im = _finite(value, f"{name}(w) at eta = {f.eta!r}")
    if np.ndim(f.w) == 0:
        return ResponseValue(kind, float(re), float(im))
    return ResponseValue(kind, re, im)


def _volume_split(eps0_v: float) -> tuple[float, float]:
    """(1/s, m) with eps0 V = m s^2: s the power of two that brings
    sqrt(eps0 V) into [1/2, 1), m in [1/4, 1).  A form puts back k/s on its
    complex operand and k_u/(s m) as its last real factor, so no factor of
    k k_u/(eps0 V) leaves the range ahead of the value."""
    inv_s, = _scaled(math.sqrt(eps0_v), 1.0)
    return inv_s, eps0_v * inv_s * inv_s


def chi_aa_freq(f: BroadenedFrequency, scales: DerivedScales) -> ResponseValue:
    """chi_AA(w) = 1/(eps0 V (z - omega_t)(z + omega_t)), z = w + i eta."""
    _, _, omega_t, _, eps0_v = _mode_params(scales)
    inv_s, m = _volume_split(eps0_v)
    return _pole_value(ResponseKind.AA, f, omega_t, lambda k, k_u, z, p: [
        (p * (k * inv_s), k_u * inv_s / m)], "chi_AA")


def chi_ea_freq(f: BroadenedFrequency, scales: DerivedScales) -> ResponseValue:
    """chi_EA(w) = i z chi_AA(w): the frequency-domain image of the Maxwell
    relation chi_EA = -d chi_AA/dtau."""
    _, _, omega_t, _, eps0_v = _mode_params(scales)
    inv_s, m = _volume_split(eps0_v)
    return _pole_value(ResponseKind.EA, f, omega_t, lambda k, k_u, z, p: [
        (1j * (z * (k * inv_s)) * p, k_u * inv_s / m)], "chi_EA")


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
    """Mean absorbed power -w Im[chi_AA(w)] |J_ext|^2; non-negative.

    Formed as ((Im chi_AA |J_ext|)(-w))|J_ext|: |J_ext|^2 is never formed on
    its own, and a zero current gives zero power even where -w Im chi_AA
    alone would overflow.
    """
    val = chi_aa_freq(f, scales)
    j_abs = _non_negative(abs(j_ext), "|j_ext|")
    return _finite(lambda: -f.w * (val.im * j_abs) * j_abs,
                   f"the absorbed power at j_ext = {j_ext!r}")


def _drude_root(scales: DerivedScales) -> float:
    """omega omega_p/omega_t, the root of the Drude weight omega_p^2 (1 -
    gamma): 1 - gamma itself is below 2^-1022 past ratio 2^511, where the
    weight is not."""
    omega, omega_p, omega_t, _, _ = _mode_params(scales)
    return omega * (omega_p / omega_t)


def optical_conductivity(f: BroadenedFrequency,
                         scales: DerivedScales) -> ResponseValue:
    """Optical conductivity of the coupled gas (S/m in SI).

    i/z (e^2 n_e/m_e + chi_JJ/V), z = w + i eta, in partial fractions, with
    P = 1/((z - omega_t)(z + omega_t)):

        sigma = i eps0 omega_p^2 [(1 - gamma)/z + gamma z P],
        Re sigma = eps0 omega_p^2 eta [(1 - gamma)/|z|^2
                                       + gamma (|z|^2 + omega_t^2) |P|^2],

    a sum of two non-negative terms, and so it stays as computed.  The
    Drude term takes 1/z as the ``_near_factor`` at omega = 0 and its weight
    from ``_drude_root``; the polariton term is z P on the ``_pole_pair``,
    its weight eps0 omega_p^2 gamma put back as its root twice, so that no
    square of omega_p is formed.
    """
    _, omega_p, omega_t, eps0, _ = _mode_params(scales)
    drude = _drude_root(scales)
    polariton = math.sqrt(eps0 * scales.gamma) * omega_p

    def form(k, k_u, z, p):
        k_0, u_0 = _near_factor(np.abs(f.w), f.eta, 0.0)
        return [(drude * k_0 * (1j / u_0), eps0 * drude),
                (1j * (z * k * p), polariton * (polariton * k_u))]
    return _pole_value(ResponseKind.SIGMA, f, omega_t, form, "sigma")


def sigma0_dc(scales: DerivedScales, eta: float) -> float:
    """Free-gas Drude DC value sigma0 = eps0 omega_p^2/eta."""
    _, omega_p, _, eps0, _ = _mode_params(scales)
    _positive(eta, "eta")
    return _finite(lambda: eps0 * omega_p * (omega_p / eta),
                   f"sigma0 at eta = {eta!r}")


def dc_conductivity(scales: DerivedScales, eta: float) -> float:
    """Drude peak of the coupled gas, sigma0 (1 - gamma) = eps0 omega_p^2
    (1 - gamma)/eta, finite for every stable (finite-ratio) system."""
    _, _, _, eps0, _ = _mode_params(scales)
    _positive(eta, "eta")
    drude = _drude_root(scales)
    return _finite(lambda: eps0 * drude * (drude / eta),
                   f"sigma_dc at eta = {eta!r}")


def drude_effective_mass(scales: DerivedScales) -> float:
    """Effective mass m_e/(1 - gamma) = m_e (1 + (omega_p/omega)^2) read off
    the suppressed Drude peak."""
    m_e, ratio = CODATA2018.m_e, scales.omega_p_over_omega
    return _finite(lambda: m_e + m_e * ratio * ratio,
                   f"the Drude mass at ratio = {ratio!r}")
