"""Command-line front end: parameter sweeps emitted as CSV or JSON datasets.

Four subcommands mirror the library layers: ``phase`` (stability diagram),
``response`` (broadened spectra and optical conductivity), ``eft``
(running coupling, renormalized mass, Casimir, jellium, continuum response)
and ``manymode`` (exact multi-mode diagonalization scans).

Every run is deterministic: identical argv + config produce identical bytes.
JSON outputs embed the effective config and can be fed back via --config.
Each sweep is evaluated as one array call, and a row that comes out
non-finite (an overflow) is an error, not a NaN or inf in the output.

Exit codes: 0 success, 2 config/usage error, 3 domain or pole error,
4 convergence error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .constants import CODATA2018
from .core import (DerivedScales, SystemConfig, _finite, classify_phase,
                   load_config_file)
from .eft import (EftConfig, _edges, casimir_energy_density,
                  casimir_pressure, chemical_potential, effective_coupling,
                  eft_chi_aa, jellium, per_particle_coupling,
                  renormalized_mass)
from .exceptions import (Cavity2degError, ConfigError, ConvergenceError,
                         DomainError, PreconditionError, UnitModeError)
from .io_utils import FLOAT_DIGITS, format_rows
from .manymode import (MAX_MODES, ModeSet, _coupling_fraction,
                       exact_coupling_1d, lowest_mode_scan, normal_modes)
from .response import (BroadenedFrequency, ResponseKind, _mode_params,
                       chi_aa_freq, chi_ea_freq, chi_jj_freq, chi_mixed_freq,
                       dc_conductivity, drude_effective_mass,
                       optical_conductivity, sigma0_dc)

__all__ = ["SweepSpec", "OutputRecord", "cmd_phase", "cmd_response",
           "cmd_eft", "cmd_manymode", "main"]

# documented defaults: mesoscopic sample, micron cavity, desk-scale runtimes
DEFAULT_N = 100_000_000
DEFAULT_AREA = 1e-8        # m^2  -> n_2d = 1e16 m^-2
DEFAULT_GAP = 1e-6         # m


@dataclass(frozen=True)
class SweepSpec:
    """Parsed --sweep request: variable, endpoints, count, spacing."""

    variable: str
    start: float
    stop: float
    count: int
    log: bool = False

    def __post_init__(self) -> None:
        if self.variable not in SWEEPABLE:
            raise ConfigError(f"unknown sweep variable {self.variable!r}; "
                              f"choose from {', '.join(SWEEPABLE)}")
        if self.count < 2:
            raise ConfigError(f"sweep count must be >= 2, got {self.count}")
        if not math.isfinite(self.stop - self.start):
            raise ConfigError("sweep endpoints and their span must be finite, "
                              f"got {self.start}:{self.stop}")
        if self.start == self.stop:
            raise ConfigError("sweep start and stop must differ")
        if self.log and (self.start <= 0 or self.stop <= 0):
            raise ConfigError("log spacing requires positive endpoints")

    @classmethod
    def parse(cls, text: str) -> "SweepSpec":
        """Parse ``var=start:stop:count[:log]``."""
        if "=" not in text:
            raise ConfigError(f"--sweep expects var=start:stop:count, got {text!r}")
        var, _, rhs = text.partition("=")
        parts = rhs.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(f"--sweep expects start:stop:count[:log], got {rhs!r}")
        log = len(parts) == 4
        if log and parts[3] != "log":
            raise ConfigError(f"unknown spacing {parts[3]!r}; only 'log'")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad --sweep numbers: {exc}") from None
        return cls(variable=var.strip(), start=start, stop=stop,
                   count=count, log=log)

    def __str__(self) -> str:
        """The ``var=start:stop:count[:log]`` form that ``parse`` reads."""
        return (f"{self.variable}={self.start}:{self.stop}:{self.count}"
                + (":log" if self.log else ""))

    def grid(self) -> np.ndarray:
        if self.log:
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class OutputRecord:
    """Uniform dataset envelope for every subcommand."""

    command: str
    config: dict
    params: dict
    columns: tuple
    rows: list
    summary: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        ncol = len(self.columns)
        widths = set(map(len, self.rows)) - {ncol}
        if widths:
            raise PreconditionError(
                f"row width {min(widths)} != column count {ncol}")

    @property
    def provenance(self) -> dict:
        payload = _dumps({"config": self.config, "params": self.params},
                         sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
        return {"library": "cavity2deg", "version": __version__,
                "config_hash": digest}

    def to_json(self) -> str:
        """``json.dumps(body, indent=1)`` of the whole record, byte for byte.

        The envelope goes through json.dumps; the rows, which are most of
        the bytes, are spliced in by ``_json_rows``.  A NaN or infinite
        value anywhere in the record raises DomainError instead of writing
        a ``NaN`` or ``Infinity`` token, which JSON does not have.
        """
        head = _dumps({"command": self.command, "config": self.config,
                       "params": self.params,
                       "columns": list(self.columns)}, indent=1)
        tail = _dumps({"summary": self.summary,
                       "provenance": self.provenance}, indent=1)
        # head ends with "\n}" and tail starts with "{\n"
        return (f'{head[:-2]},\n "rows": {_json_rows(self.rows)},\n'
                f'{tail[2:]}\n')

    def to_csv(self, digits: int = FLOAT_DIGITS) -> str:
        """The record as ``# key: value`` header lines, the column names and
        the rows; a NaN or infinite header value raises DomainError."""
        prov = self.provenance
        head = [
            f"# command: {self.command}",
            f"# library: {prov['library']} {prov['version']}",
            f"# config_hash: {prov['config_hash']}",
            "# config: " + _dumps(self.config, sort_keys=True,
                                  separators=(",", ":")),
            "# params: " + _dumps(self.params, sort_keys=True,
                                  separators=(",", ":")),
        ]
        if self.summary:
            head.append("# summary: " + _dumps(
                self.summary, sort_keys=True, separators=(",", ":")))
        head.append(",".join(self.columns))
        return "\n".join(head) + "\n" + format_rows(self.rows, digits)

    def render(self, fmt: str, digits: int = FLOAT_DIGITS) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv(digits)
        raise ConfigError(f"unknown format {fmt!r}")


def _dumps(obj, **kwargs) -> str:
    """json.dumps that raises DomainError for a NaN or infinite value, as
    JSON has no token for it."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError as err:
        raise DomainError(f"record holds a non-finite value: {err}") from err


def _json_rows(rows: list) -> str:
    """``rows`` as json.dumps(..., indent=1) writes a top-level member.

    Values are encoded a column at a time: a column of finite floats and
    ints by ``str`` (which is their JSON text), any other by json.dumps.
    """
    if not rows:
        return "[]"
    columns = [_json_tokens(col) for col in zip(*rows)]
    if not columns:
        return "[\n" + ",\n".join(["  []"] * len(rows)) + "\n ]"
    body = "\n  ],\n  [\n   ".join(",\n   ".join(r) for r in zip(*columns))
    return "[\n  [\n   " + body + "\n  ]\n ]"


def _json_tokens(values: tuple) -> list[str]:
    """JSON text of one column; a NaN or infinite value raises DomainError,
    as JSON has no token for it."""
    if set(map(type, values)) <= {float, int}:
        tokens = list(map(str, values))
        if {"nan", "inf", "-inf"}.isdisjoint(tokens):
            return tokens
    try:
        return [json.dumps(v, allow_nan=False) for v in values]
    except ValueError as err:
        raise DomainError(f"rows hold a non-finite value: {err}") from err


def _rows(*columns: np.ndarray) -> list[tuple]:
    """Equal-length sweep columns as row tuples of Python numbers.

    A non-finite value (an overflow, or an input past the range of the
    closed form) raises DomainError, so no NaN or inf token is written.
    """
    table = np.column_stack(columns)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(f"row {i} is not finite: {table[i].tolist()}")
    return list(zip(*(col.tolist() for col in columns)))


def _default_config() -> SystemConfig:
    return SystemConfig.si(n_electrons=DEFAULT_N, area=DEFAULT_AREA,
                           mirror_gap=DEFAULT_GAP)


class _Sub(NamedTuple):
    sweep: str | None           # the --sweep variable; None: no --sweep
    columns: tuple[str, ...]
    reads: tuple[str, ...]      # flags read besides --sweep and the output
    body: Callable | None = None    # all but phase: computes the values


def _grid(command: str, sub: str | None, sweep: SweepSpec | None,
          default: Callable[[], np.ndarray]) -> np.ndarray:
    """The grid of ``sweep``, which must name the sub-command's variable, or
    ``default()`` without one."""
    if sweep is None:
        return default()
    var = _SUBCOMMANDS[command, sub].sweep
    if sweep.variable != var:
        name = command if sub is None else f"{command} {sub}"
        raise ConfigError(f"{name} does not read --sweep" if var is None else
                          f"{name} sweeps over {var}; got {sweep.variable!r}")
    return sweep.grid()


def _subcommand(command: str, sub: str, **flags) -> _Sub:
    """The entry of ``command sub``; ConfigError for an unknown one or for a
    flag it does not read (which would change the hash and no row)."""
    spec = _SUBCOMMANDS.get((command, sub))
    if spec is None:
        raise ConfigError(f"unknown {command} sub-command {sub!r}; "
                          f"choose from {', '.join(_menu(command))}")
    for flag, value in flags.items():
        if value is not None and flag not in spec.reads:
            hint = f"; sweep {flag} instead" if flag == spec.sweep else ""
            raise ConfigError(f"{command} {sub} does not read --{flag}{hint}")
    return spec


def _menu(command: str) -> tuple[str, ...]:
    return tuple(sub for cmd, sub in _SUBCOMMANDS if cmd == command)


def _record(command: str, sub: str | None, config: SystemConfig | None,
            params: dict, sweep: SweepSpec | None, rows: list,
            summary: dict) -> OutputRecord:
    """The dataset of one sub-command under its declared columns."""
    return OutputRecord(
        command=command, config=(config or _default_config()).as_mapping(),
        params={**params, "sweep": None if sweep is None else str(sweep)},
        columns=_SUBCOMMANDS[command, sub].columns, rows=rows, summary=summary)


# eft bodies: (grid, ecfg, params, summary) -> columns, where grid(default)
# is _grid; a body reads its flags from params and adds to the summary

def _cutoff(columns: tuple[str, ...], values: Callable,
            to_pole: bool = False) -> _Sub:
    """A sub-command over a lambda0 sweep (or the one --lambda0): lambda0,
    then the ``columns`` of ``values(ecfg, lams)``.  ``to_pole`` ends the
    sweep where the per-particle coupling reaches the pole of the mass."""
    return _Sub("lambda0", ("lambda0", *columns), ("config", "lambda0"),
                partial(_cutoff_sweep, values, to_pole))


def _cutoff_sweep(values: Callable, to_pole: bool, grid, ecfg: EftConfig,
                  params: dict, summary: dict) -> tuple:
    pole, lambda0 = ecfg.lambda0_pole, params["lambda0"]
    lams = grid(lambda: np.linspace(1.0, min(0.999 * pole, 1e6), 200)
                if lambda0 is None else np.array([lambda0]))
    if np.any(lams < 1.0):
        raise ConfigError("lambda0 values must be >= 1")
    stop = lams.size
    if to_pole:
        g_per = per_particle_coupling(ecfg, lams)
        at_pole = np.flatnonzero(g_per >= 1.0)
        if at_pole.size:
            stop = int(at_pole[0])
            summary["truncation_notice"] = (
                f"sweep truncated at lambda0 = {lams[stop].item()!r}: "
                f"per-particle coupling {g_per[stop]:g} at or beyond "
                "the pole")
    # the cutoff that reaches the pole is counted too, though it has no row
    beyond_window = int(np.count_nonzero(lams[:stop + 1] > pole))
    if beyond_window:
        summary["rows_beyond_stability_window"] = beyond_window
    return (lams[:stop], *values(ecfg, lams[:stop]))


def _jellium(grid, ecfg: EftConfig, params: dict, summary: dict) -> tuple:
    res = jellium(grid(lambda: np.linspace(0.5, 12.0, 200)), ecfg)
    summary.update(rs_min=res.rs_min, lambda0=ecfg.lambda0)
    return res.rs, res.tau, res.eps_x, res.total


def _chi(grid, ecfg: EftConfig, params: dict, summary: dict) -> tuple:
    """Continuum field-field response over a frequency sweep."""
    w = grid(lambda: np.linspace(0.0, 1.5 * _edges(ecfg)[1], 600))
    lo, hi = _edges(ecfg)   # no point of the 600 above is on hi
    if params["eta"] is None:
        params["eta"] = 1e-3 * lo
    if params["eta"] < 0:
        raise ConfigError(f"eta must be non-negative, got {params['eta']}")
    val = eft_chi_aa(BroadenedFrequency(w, params["eta"]), ecfg)
    summary.update(window_low=lo, window_high=hi, lambda0=ecfg.lambda0)
    return w, val.re, val.im


# manymode bodies: (grid, n_modes, ratio, summary) -> columns

def _diag(grid, n_modes: int, ratio: float, summary: dict) -> tuple:
    index = grid(lambda: np.arange(1, n_modes + 1))
    nm = normal_modes(ModeSet.ladder_1d(n_modes, 1.0), ratio)
    summary.update(sweeps=nm.sweeps, edge_omega_tilde=math.sqrt(1 + ratio**2))
    return index, nm.omega


def _lowest_scan(grid, n_modes: int, ratio: float, summary: dict) -> tuple:
    ratios = grid(lambda: np.linspace(0.0, 0.9, 10))
    if ratios[0] < 0 or ratios[-1] < 0:
        raise ConfigError("ratio sweep endpoints must be non-negative")
    table = lowest_mode_scan(ratios.tolist(), n_modes=n_modes)
    summary["max_rel_diff_percent"] = float(table[:, 1].max())
    return table[:, 0], table[:, 1]


def _coupling_run(grid, n_modes: int, ratio: float, summary: dict) -> tuple:
    """Exact coupling against the mode count at one ratio."""
    sizes = grid(lambda: np.arange(1, n_modes + 1)).tolist()
    counts = sorted({round(m) for m in sizes if m >= 1})
    g = [exact_coupling_1d(m, 1.0, ratio) for m in counts]
    # the ladder has omega_n = n, so sum 1/omega_n^2 -> pi^2/6 as M -> inf
    summary.update(ratio=ratio,
                   single_mode_gamma=ratio**2 / (1.0 + ratio**2),
                   g_limit=_coupling_fraction(ratio**2 * math.pi**2 / 6.0))
    return np.array(counts, dtype=int), np.array(g, dtype=float)


def _response(body: Callable) -> _Sub:
    """A response kind: (w, Re, Im) of ``body(frequency, scales)``; body
    calls its function by module-level name, so a wrapper there is seen."""
    return _Sub("w", ("w", "re", "im"), ("config", "eta"), body)


# Every sub-command once, each response kind too.
_SUBCOMMANDS: dict[tuple[str, str | None], _Sub] = {
    ("phase", None): _Sub("gamma", ("gamma", "phase"), ("config",)),
    ("response", "aa"): _response(lambda f, s: chi_aa_freq(f, s)),
    ("response", "ea"): _response(lambda f, s: chi_ea_freq(f, s)),
    ("response", "jj"): _response(lambda f, s: chi_jj_freq(f, s)),
    ("response", "ja"): _response(
        lambda f, s: chi_mixed_freq(f, s, ResponseKind.JA)),
    ("response", "aj"): _response(
        lambda f, s: chi_mixed_freq(f, s, ResponseKind.AJ)),
    ("response", "sigma"): _response(lambda f, s: optical_conductivity(f, s)),
    ("eft", "coupling"): _cutoff(
        ("g",), lambda e, x: (effective_coupling(e, x),)),
    ("eft", "mass"): _cutoff(
        ("mass_kg",), lambda e, x: (renormalized_mass(e, x),), to_pole=True),
    ("eft", "mu"): _cutoff(("mu_joule",), lambda e, x: (
        chemical_potential(e, lambda0=x),), to_pole=True),
    ("eft", "casimir"): _cutoff(
        ("energy_density_j_m2", "pressure_pa"),
        lambda e, x: (casimir_energy_density(e, x), casimir_pressure(e, x))),
    ("eft", "jellium"): _Sub(
        "rs", ("rs", "kinetic_ry", "exchange_ry", "total_ry"),
        ("config", "lambda0"), _jellium),
    ("eft", "chi"): _Sub("w", ("w", "re", "im"),
                         ("config", "lambda0", "eta"), _chi),
    ("manymode", "diag"): _Sub(None, ("mode_index", "omega_over_omega1"),
                               ("modes", "ratio"), _diag),
    ("manymode", "lowest-scan"): _Sub("ratio", ("ratio", "rel_diff_percent"),
                                      ("modes",), _lowest_scan),
    ("manymode", "coupling-run"): _Sub("modes", ("n_modes", "g_exact"),
                                       ("modes", "ratio"), _coupling_run),
}
SWEEPABLE = tuple(dict.fromkeys(s.sweep for s in _SUBCOMMANDS.values()
                                if s.sweep))


def cmd_phase(config: SystemConfig | None = None,
              sweep: SweepSpec | None = None) -> OutputRecord:
    """Stability label over a collective-coupling sweep: the documented
    default diagram, or the one gamma of ``config``."""
    if sweep is None and config is None:
        sweep = SweepSpec(_SUBCOMMANDS["phase", None].sweep, 0.0, 1.2, 121)
    gammas = _grid("phase", None, sweep,
                   lambda: np.array([DerivedScales(config).gamma]))
    if gammas[0] < 0 or gammas[-1] < 0:
        raise ConfigError("gamma sweep endpoints must be non-negative")
    labels = [classify_phase(g).value for g in gammas.tolist()]
    rows = [row + (label,) for row, label in zip(_rows(gammas), labels)]
    return _record("phase", None, config, {}, sweep, rows,
                   {"band_counts": dict(Counter(labels))})


def cmd_response(kind: str, config: SystemConfig | None = None,
                 sweep: SweepSpec | None = None,
                 eta: float | None = None) -> OutputRecord:
    """Broadened spectrum (w, Re, Im) of one response kind."""
    spec = _subcommand("response", kind)
    config = config or _default_config()
    scales = DerivedScales(config)
    wt = _mode_params(scales)[1]
    if sweep is None:   # linspace takes the span 6 wt
        _finite(6 * wt, f"the span of the default sweep w = -3..3 omega_tilde "
                        f"at omega_tilde = {wt!r}")
    grid = _grid("response", kind, sweep,
                 lambda: np.linspace(-3 * wt, 3 * wt, 1201))
    if eta is None:
        eta = 0.01 * wt
    if eta <= 0:
        raise ConfigError(f"eta must be positive, got {eta}")
    with np.errstate(all="ignore"):
        val = spec.body(BroadenedFrequency(grid, eta), scales)
    rows = _rows(grid, val.re, val.im)
    summary: dict = {"eta": eta, "omega_tilde": wt, "gamma": scales.gamma}
    if kind == "sigma":
        s0 = summary["sigma0"] = sigma0_dc(scales, eta)
        if (gamma := scales.gamma) < 1.0:
            summary.update(sigma_dc=dc_conductivity(gamma, s0),
                           sigma_dc_over_sigma0=1.0 - gamma,
                           effective_mass_over_m_e=(drude_effective_mass(gamma)
                                                    / CODATA2018.m_e))
    return _record("response", kind, config, {"kind": kind, "eta": eta},
                   sweep, rows, summary)


def cmd_eft(sub: str, config: SystemConfig | None = None,
            sweep: SweepSpec | None = None, lambda0: float | None = None,
            eta: float | None = None) -> OutputRecord:
    """Continuum-theory datasets; see --help for the sub-command menu.
    Without --lambda0 the one cutoff is mid-window (at most 1e6)."""
    spec = _subcommand("eft", sub, eta=eta)
    config = config or _default_config()
    ecfg = EftConfig(system=config, lambda0=lambda0 if lambda0 is not None else 1.0)
    pole = ecfg.lambda0_pole
    summary: dict = {"n_alpha": ecfg.n_alpha, "lambda0_pole": pole}
    params: dict = {"sub": sub, "lambda0": lambda0, "eta": eta}
    if lambda0 is None:
        ecfg = replace(ecfg, lambda0=min(0.5 * (1 + pole), 1e6))
    with np.errstate(all="ignore"):
        columns = spec.body(partial(_grid, "eft", sub, sweep), ecfg, params,
                            summary)
    return _record("eft", sub, config, params, sweep, _rows(*columns),
                   summary)


def cmd_manymode(sub: str, n_modes: int = 100, ratio: float | None = None,
                 sweep: SweepSpec | None = None,
                 config: SystemConfig | None = None) -> OutputRecord:
    """Exact multi-mode scans for the parallel-polarization ladder.  It is
    dimensionless, so no sub-command reads a config; ratio (default 0.5) is
    not read by the scan that sweeps it."""
    spec = _subcommand("manymode", sub, config=config, ratio=ratio)
    ratio = 0.5 if ratio is None else ratio
    if not 1 <= n_modes <= MAX_MODES:
        raise ConfigError(f"--modes must be in [1, {MAX_MODES}], "
                          f"got {n_modes}")
    # checked before any grid is built: a count past the cap would allocate
    if (sweep is not None and sweep.variable == spec.sweep == "modes"
            and max(sweep.start, sweep.stop) > MAX_MODES):
        raise ConfigError(f"modes sweep endpoints must be <= {MAX_MODES}, "
                          f"got {sweep.start}:{sweep.stop}")
    if not (ratio >= 0 and math.isfinite(ratio * ratio)):
        raise ConfigError(f"--ratio must be non-negative with a finite "
                          f"square, got {ratio}")
    params, summary = {"sub": sub, "modes": n_modes, "ratio": ratio}, {}
    columns = spec.body(partial(_grid, "manymode", sub, sweep), n_modes,
                        ratio, summary)
    return _record("manymode", sub, None, params, sweep, _rows(*columns),
                   summary)


# exit code of an error: the first class that matches (3: domain, pole, ...)
_EXIT_CODES = ((ConfigError, 2), (UnitModeError, 2), (OSError, 2),
               (ConvergenceError, 4), (Cavity2degError, 3))


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process, as parsing never
    changes it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="key=value or JSON config file "
                             "(JSON outputs round-trip)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", metavar="PATH", default="-",
                        help="output file, '-' for stdout (default)")
    common.add_argument("--sweep", metavar="VAR=START:STOP:COUNT[:log]",
                        help="sweep one documented variable")
    common.add_argument("--digits", type=int, default=FLOAT_DIGITS,
                        help="CSV significant digits (default 17)")

    parser = argparse.ArgumentParser(
        prog="cavity2deg",
        description="Exact cavity-coupled 2D electron gas datasets")
    parser.add_argument("--version", action="version",
                        version=f"cavity2deg {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    subs.add_parser("phase", parents=[common],
                    help="stability label over a gamma sweep")

    p_resp = subs.add_parser("response", parents=[common],
                             help="broadened response spectra")
    p_resp.add_argument("kind", choices=_menu("response"))
    p_resp.add_argument("--eta", type=float, default=None,
                        help="broadening (default 0.01 omega_tilde)")

    p_eft = subs.add_parser("eft", parents=[common],
                            help="continuum-theory datasets")
    p_eft.add_argument("sub", choices=_menu("eft"))
    p_eft.add_argument("--lambda0", type=float, default=None,
                       help="dimensionless cutoff >= 1")
    p_eft.add_argument("--eta", type=float, default=None,
                       help="chi broadening; 0 selects the sharp window")

    p_many = subs.add_parser("manymode", parents=[common],
                             help="exact multi-mode diagonalization scans")
    p_many.add_argument("sub", choices=_menu("manymode"))
    p_many.add_argument("--modes", type=int, default=100,
                        help="mode count M (default 100)")
    p_many.add_argument("--ratio", type=float, default=None,
                        help="omega_p/omega_1 (default 0.5)")
    return parser


def _dispatch(args: argparse.Namespace) -> OutputRecord:
    config = load_config_file(args.config) if args.config else None
    sweep = SweepSpec.parse(args.sweep) if args.sweep else None
    if args.command == "phase":
        return cmd_phase(config, sweep)
    if args.command == "response":
        return cmd_response(args.kind, config, sweep, args.eta)
    if args.command == "eft":
        return cmd_eft(args.sub, config, sweep, args.lambda0, args.eta)
    return cmd_manymode(args.sub, args.modes, args.ratio, sweep, config)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.digits < 1 or args.digits > FLOAT_DIGITS:
        parser.error(f"--digits must be in [1, {FLOAT_DIGITS}]")
    try:
        text = _dispatch(args).render(args.format, args.digits)
        if args.out == "-":
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text, encoding="utf-8")
    except (Cavity2degError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
