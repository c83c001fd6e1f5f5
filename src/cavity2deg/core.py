"""System configuration, derived frequency scales, and the phase classifier.

The model: N free electrons confined to a plane of area S inside a planar
cavity of mirror gap L_z, coupled to quantized photon modes in the
long-wavelength (dipole) limit.  Everything downstream is controlled by three
frequency scales,

    omega    bare mode frequency (cavity fundamental c*pi*n_z/L_z by default),
    omega_p  plasma frequency sqrt(e^2 n_2d / (m_e eps0 L_z)),
    omega_t  dressed frequency sqrt(omega^2 + omega_p^2),

and the dimensionless collective coupling gamma = omega_p^2/omega_t^2 in [0, 1).

Two unit modes are supported.  SI mode carries the full dimensionful
configuration.  Ratio mode carries only omega_p/omega, any finite value of it;
dimensionful queries raise :class:`UnitModeError`.
"""

from __future__ import annotations

import enum
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

from .constants import CODATA2018
from .exceptions import ConfigError, DomainError, UnitModeError

__all__ = [
    "UnitsMode",
    "Phase",
    "SystemConfig",
    "DerivedScales",
    "plasma_frequency",
    "dressed_frequency",
    "collective_coupling",
    "single_particle_coupling",
    "fermi_wavevector",
    "classify_phase",
    "load_config_file",
]

PHASE_TOL = 1e-12   # half-width of the Critical band around gamma = 1


class UnitsMode(enum.Enum):
    SI = "si"
    RATIO = "ratio"


class Phase(enum.Enum):
    STABLE = "Stable"
    CRITICAL = "Critical"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class SystemConfig:
    """Static description of the electron gas + cavity.

    SI mode requires n_electrons, area (m^2) and mirror_gap (m).  The mode
    frequency defaults to the cavity fundamental c*pi*cavity_index/mirror_gap
    and can be overridden.  Ratio mode requires only ratio = omega_p/omega.
    """

    units_mode: UnitsMode = UnitsMode.SI
    n_electrons: int | None = None
    area: float | None = None
    mirror_gap: float | None = None
    cavity_index: int = 1
    mode_frequency: float | None = None
    ratio: float | None = None

    def __post_init__(self) -> None:
        for name in ("area", "mirror_gap", "mode_frequency", "ratio"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for name in ("n_electrons", "cavity_index"):   # used as floats
            if abs(getattr(self, name) or 0) > sys.float_info.max:
                raise ConfigError(f"{name} is past the float range")
        if self.units_mode is UnitsMode.SI:
            if self.n_electrons is None or self.area is None or self.mirror_gap is None:
                raise ConfigError(
                    "SI config needs n_electrons, area and mirror_gap")
            if self.n_electrons <= 0:
                raise ConfigError(f"n_electrons must be positive, got {self.n_electrons}")
            if self.area <= 0 or self.mirror_gap <= 0:
                raise ConfigError("area and mirror_gap must be positive")
            if self.cavity_index < 1:
                raise ConfigError(f"cavity_index must be >= 1, got {self.cavity_index}")
            if self.mode_frequency is not None and self.mode_frequency <= 0:
                raise ConfigError("mode_frequency must be positive")
            if self.ratio is not None:
                raise ConfigError("ratio is a Ratio-mode field; remove it from an SI config")
        else:
            if self.ratio is None:
                raise ConfigError("Ratio config needs ratio = omega_p/omega")
            if self.ratio < 0:
                raise ConfigError(f"ratio must be >= 0, got {self.ratio}")
            for name in ("n_electrons", "area", "mirror_gap", "mode_frequency"):
                if getattr(self, name) is not None:
                    raise ConfigError(f"{name} is an SI field; remove it from a Ratio config")
            if self.cavity_index != 1:
                raise ConfigError("cavity_index is an SI field; remove it from a Ratio config")

    @classmethod
    def si(cls, n_electrons: int, area: float, mirror_gap: float,
           cavity_index: int = 1, mode_frequency: float | None = None) -> "SystemConfig":
        return cls(UnitsMode.SI, n_electrons, area, mirror_gap,
                   cavity_index, mode_frequency)

    @classmethod
    def from_ratio(cls, ratio: float) -> "SystemConfig":
        return cls(units_mode=UnitsMode.RATIO, ratio=ratio)

    @property
    def volume(self) -> float:
        self._require_si("volume")
        return self.area * self.mirror_gap  # type: ignore[operator]

    def _require_si(self, what: str) -> None:
        if self.units_mode is not UnitsMode.SI:
            raise UnitModeError(f"{what} is dimensionful; not available in Ratio mode")

    def as_mapping(self) -> dict:
        """Flat key/value form, suitable for config files and provenance echoes."""
        out: dict = {"units_mode": self.units_mode.value}
        if self.units_mode is UnitsMode.SI:
            out.update(n_electrons=self.n_electrons, area=self.area,
                       mirror_gap=self.mirror_gap, cavity_index=self.cavity_index)
            if self.mode_frequency is not None:
                out["mode_frequency"] = self.mode_frequency
        else:
            out["ratio"] = self.ratio
        return out

    @classmethod
    def from_mapping(cls, data: Mapping) -> "SystemConfig":
        known = {"units_mode", "n_electrons", "area", "mirror_gap",
                 "cavity_index", "mode_frequency", "ratio"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            mode = UnitsMode(str(data.get("units_mode", "si")).lower())
        except ValueError as exc:
            raise ConfigError(f"units_mode must be 'si' or 'ratio': {exc}") from None
        def fget(key, conv):
            if key not in data or data[key] is None:
                return None
            try:
                return conv(data[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from None
        index = fget("cavity_index", int)
        return cls(units_mode=mode,
                   n_electrons=fget("n_electrons", int),
                   area=fget("area", float),
                   mirror_gap=fget("mirror_gap", float),
                   cavity_index=1 if index is None else index,
                   mode_frequency=fget("mode_frequency", float),
                   ratio=fget("ratio", float))


class DerivedScales:
    """Memoized frequency scales and densities derived from a SystemConfig.

    In Ratio mode only the dimensionless members (gamma, omega_p_over_omega,
    omega_tilde_over_omega) are available; the first and last are the one
    implementation, collective_coupling and dressed_frequency at omega = 1.
    """

    def __init__(self, config: SystemConfig):
        self.config = config

    @cached_property
    def omega(self) -> float:
        """Bare mode frequency in rad/s."""
        self.config._require_si("omega")
        cfg = self.config
        if cfg.mode_frequency is not None:
            return cfg.mode_frequency
        return _finite(
            CODATA2018.c * math.pi * cfg.cavity_index / cfg.mirror_gap,
            f"the mode frequency at mirror_gap = {cfg.mirror_gap!r}")

    @cached_property
    def n_2d(self) -> float:
        self.config._require_si("n_2d")
        area = self.config.area
        return _finite(self.config.n_electrons / area,
                       f"the density at area = {area!r}")

    @cached_property
    def omega_p(self) -> float:
        self.config._require_si("omega_p")
        k = CODATA2018
        gap = self.config.mirror_gap
        # the denominator is 0 for gaps below ~3e-283 m
        return math.sqrt(_finite(
            lambda: k.e**2 * self.n_2d / (k.m_e * k.eps0 * gap),
            f"omega_p^2 at mirror_gap = {gap!r} and n_2d = "
            f"n_electrons/area = {self.n_2d!r}"))

    @cached_property
    def omega_tilde(self) -> float:
        self.config._require_si("omega_tilde")
        return dressed_frequency(self.omega, self.omega_p)

    @cached_property
    def omega_p_over_omega(self) -> float:
        if self.config.units_mode is UnitsMode.RATIO:
            return self.config.ratio  # type: ignore[return-value]
        return _finite(self.omega_p / self.omega,
                       f"omega_p/omega = {self.omega_p!r}/{self.omega!r}")

    @cached_property
    def omega_tilde_over_omega(self) -> float:
        return dressed_frequency(1.0, self.omega_p_over_omega)

    @cached_property
    def gamma(self) -> float:
        return collective_coupling(1.0, self.omega_p_over_omega)

    @cached_property
    def g_single(self) -> float:
        return single_particle_coupling(self.config)

    @cached_property
    def k_fermi(self) -> float:
        self.config._require_si("k_fermi")
        return fermi_wavevector(self.n_2d)


def _finite(x, what: str):
    """x, or DomainError where ``what`` left the float range: the one range
    check, for a scalar and for a whole array.

    x may be a function of no arguments, which is evaluated here with
    numpy's floating-point warnings off; a Python float or int that raises
    OverflowError there has left the range too.  A NaN, a Python float
    division by zero (0/0 once both sides underflow, say) or a ValueError
    (a NaN made a fractions.Fraction) is worded as undefined rather than as
    an overflow.
    """
    if callable(x):
        try:
            with np.errstate(all="ignore"):
                x = x()
        except OverflowError:
            x = math.inf
        except (ZeroDivisionError, ValueError):
            x = math.nan
    # math.isfinite takes a float (numpy's too) ~50x faster than np.isfinite
    if not (math.isfinite(x) if isinstance(x, float)
            else np.isfinite(x).all()):
        if np.isnan(x).any():
            raise DomainError(f"{what} is undefined after rounding (NaN, or "
                              f"a division by zero)")
        raise DomainError(f"{what} overflows the float range")
    return x


def _positive(x: float, name: str, why: str = "") -> float:
    """x if it is finite and > 0, else DomainError naming the argument
    (NaN fails the comparison, so it is rejected too)."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {x}{why}")
    return x


def _non_negative(x: float, name: str) -> float:
    """x if it is finite and >= 0, else DomainError naming the argument."""
    if not 0.0 <= x < math.inf:
        raise DomainError(f"{name} must be finite and non-negative, got {x}")
    return x


def plasma_frequency(config: SystemConfig) -> float:
    """omega_p = sqrt(e^2 n_2d / (m_e eps0 L_z)) in rad/s."""
    config._require_si("plasma_frequency")
    return DerivedScales(config).omega_p


def dressed_frequency(omega: float, omega_p: float) -> float:
    """Dressed (plasmon-polariton) frequency sqrt(omega^2 + omega_p^2)."""
    return _finite(math.hypot(_positive(omega, "omega"),
                              _non_negative(omega_p, "omega_p")),
                   f"omega_t at omega = {omega!r}, omega_p = {omega_p!r}")


def _scaled(by: float, *xs: float) -> list[float]:
    """xs divided by the power of two that brings ``by`` into [1/2, 1):
    exact unless one falls below 2^-1022 there (an OverflowError past
    2^1024).  An ndarray ``by`` scales elementwise, with numpy's frexp."""
    try:
        e = -math.frexp(by)[1]
    except TypeError:   # an ndarray; testing for one first costs the scalars
        e = -np.frexp(by)[1]
        return [np.ldexp(x, e) for x in xs]
    return [math.ldexp(x, e) for x in xs]


def collective_coupling(omega: float, omega_p: float) -> float:
    """gamma = omega_p^2/(omega^2 + omega_p^2), in [0, 1) for omega > 0.

    gamma depends on omega_p/omega alone, so both frequencies are first
    ``_scaled`` by the larger, which keeps the squares and their sum from
    overflowing; a square that is subnormal there is negligible beside the
    other, or leaves gamma below 2^-1020.
    """
    _positive(omega, "omega")
    _non_negative(omega_p, "omega_p")
    w, w_p = _scaled(max(omega, omega_p), omega, omega_p)
    return _finite(lambda: w_p * w_p / (w * w + w_p * w_p),
                   f"gamma at omega = {omega!r}, omega_p = {omega_p!r}")


def single_particle_coupling(config: SystemConfig) -> float:
    """Bilinear coupling constant g = (e hbar/m_e) sqrt(hbar/(2 eps0 V omega_t)).

    Satisfies 2 m_e N g^2 / (hbar^3 omega_t) = gamma.  1/sqrt(V) is taken
    as 1/(sqrt(area) sqrt(mirror_gap)), which is in range wherever g is,
    even where V = area * mirror_gap is not.
    """
    config._require_si("single_particle_coupling")
    k = CODATA2018
    scales = DerivedScales(config)
    return (k.e * k.hbar / k.m_e) * math.sqrt(
        k.hbar / (2.0 * k.eps0 * scales.omega_tilde)) / (
        math.sqrt(config.area) * math.sqrt(config.mirror_gap))


def fermi_wavevector(n_2d: float) -> float:
    """k_F = sqrt(2 pi n_2d) for the spin-degenerate 2D Fermi disk.

    2 pi n_2d overflows past n_2d ~ 2^1021 and loses bits below 2^-1022,
    though k_F is in range for every admitted n_2d: outside [2^-1001,
    2^1021) n_2d is multiplied by s^2, s the power of two that ``_scaled``
    divides by to bring n_2d 2^1000 (or n_2d 2^-1021) into [1/2, 1), and
    the root divided by s.
    """
    _non_negative(n_2d, "n_2d")
    s, = _scaled(max(min(n_2d * 2.0**1000, 0.5), n_2d * 2.0**-1021), 1.0)
    return math.sqrt(2.0 * math.pi * (n_2d * s * s)) / s


def classify_phase(gamma: float) -> Phase:
    """Stable for gamma < 1, Critical at gamma = 1 (within PHASE_TOL),
    Unstable above."""
    if _non_negative(gamma, "gamma") < 1.0 - PHASE_TOL:
        return Phase.STABLE
    if gamma > 1.0 + PHASE_TOL:
        return Phase.UNSTABLE
    return Phase.CRITICAL


def load_config_file(path: str | Path) -> SystemConfig:
    """Load a SystemConfig from a key=value text file or a JSON file.

    Text format: one ``key = value`` pair per line, ``#`` starts a comment.
    JSON: either a flat config object or a CLI output record whose ``config``
    member is reused (this is what makes JSON outputs round-trippable).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        if "config" in data and isinstance(data["config"], dict):
            data = data["config"]
        return SystemConfig.from_mapping(data)
    mapping: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        mapping[key] = value
    return SystemConfig.from_mapping(mapping)
