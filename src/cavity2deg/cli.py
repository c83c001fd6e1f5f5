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
from dataclasses import dataclass, field, replace
from functools import cache
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .constants import CODATA2018
from .core import (DerivedScales, SystemConfig, classify_phase,
                   load_config_file)
from .eft import (EftConfig, casimir_energy_density, casimir_pressure,
                  chemical_potential, effective_coupling, eft_chi_aa,
                  jellium, per_particle_coupling, renormalized_mass)
from .exceptions import (Cavity2degError, ConfigError, ConvergenceError,
                         DomainError, PreconditionError, UnitModeError)
from .io_utils import FLOAT_DIGITS, format_rows
from .manymode import (ModeSet, exact_coupling_1d, lowest_mode_scan,
                       normal_modes)
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

SWEEPABLE = ("gamma", "w", "lambda0", "rs", "ratio", "modes")


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
        log = False
        if len(parts) == 4:
            if parts[3] != "log":
                raise ConfigError(f"unknown spacing {parts[3]!r}; only 'log'")
            log = True
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


def _check_sweep_var(sweep: SweepSpec | None, allowed: tuple[str, ...],
                     command: str) -> None:
    if sweep is not None and sweep.variable not in allowed:
        raise ConfigError(
            f"{command} sweeps over {', '.join(allowed)}; "
            f"got {sweep.variable!r}")


def cmd_phase(config: SystemConfig | None = None,
              sweep: SweepSpec | None = None) -> OutputRecord:
    """Stability label over a collective-coupling sweep."""
    _check_sweep_var(sweep, ("gamma",), "phase")
    if sweep is not None:
        if sweep.start < 0 or sweep.stop < 0:
            raise ConfigError("gamma sweep endpoints must be non-negative")
        gammas = sweep.grid()
        params = {"sweep": str(sweep)}
    elif config is not None:
        gammas = np.array([DerivedScales(config).gamma])
        params = {"sweep": None}
    else:
        gammas = np.linspace(0.0, 1.2, 121)
        params = {"sweep": "gamma=0.0:1.2:121"}
    cfg_map = (config or _default_config()).as_mapping()
    rows = [(float(g), classify_phase(float(g)).value) for g in gammas]
    counts: dict[str, int] = {}
    for _, label in rows:
        counts[label] = counts.get(label, 0) + 1
    return OutputRecord(command="phase", config=cfg_map, params=params,
                        columns=("gamma", "phase"), rows=rows,
                        summary={"band_counts": counts})


_RESPONSE_FUNCS = {
    "aa": chi_aa_freq,
    "ea": chi_ea_freq,
    "jj": chi_jj_freq,
    "ja": lambda f, s: chi_mixed_freq(f, s, ResponseKind.JA),
    "aj": lambda f, s: chi_mixed_freq(f, s, ResponseKind.AJ),
    "sigma": optical_conductivity,
}


def cmd_response(kind: str, config: SystemConfig | None = None,
                 sweep: SweepSpec | None = None,
                 eta: float | None = None) -> OutputRecord:
    """Broadened spectrum (w, Re, Im) of one response kind."""
    if kind not in _RESPONSE_FUNCS:
        raise ConfigError(f"unknown response kind {kind!r}; "
                          f"choose from {', '.join(_RESPONSE_FUNCS)}")
    _check_sweep_var(sweep, ("w",), "response")
    config = config or _default_config()
    scales = DerivedScales(config)
    wt = _mode_params(scales)[1]
    if eta is None:
        eta = 0.01 * wt
    if eta <= 0:
        raise ConfigError(f"eta must be positive, got {eta}")
    grid = sweep.grid() if sweep is not None else np.linspace(-3 * wt, 3 * wt, 1201)
    with np.errstate(all="ignore"):
        val = _RESPONSE_FUNCS[kind](BroadenedFrequency(grid, eta), scales)
    rows = _rows(grid, val.re, val.im)
    summary: dict = {"eta": eta, "omega_tilde": wt, "gamma": scales.gamma}
    if kind == "sigma":
        s0 = sigma0_dc(scales, eta)
        summary["sigma0"] = s0
        gamma = scales.gamma
        if gamma < 1.0:
            summary["sigma_dc"] = dc_conductivity(gamma, s0)
            summary["sigma_dc_over_sigma0"] = 1.0 - gamma
            summary["effective_mass_over_m_e"] = (
                drude_effective_mass(gamma) / CODATA2018.m_e)
    params = {"kind": kind, "eta": eta,
              "sweep": None if sweep is None else str(sweep)}
    return OutputRecord(command="response", config=config.as_mapping(),
                        params=params, columns=("w", "re", "im"), rows=rows,
                        summary=summary)


def cmd_eft(sub: str, config: SystemConfig | None = None,
            sweep: SweepSpec | None = None, lambda0: float | None = None,
            eta: float | None = None) -> OutputRecord:
    """Continuum-theory datasets; see --help for the sub-command menu."""
    subs = ("coupling", "mass", "mu", "casimir", "jellium", "chi")
    if sub not in subs:
        raise ConfigError(f"unknown eft sub-command {sub!r}; "
                          f"choose from {', '.join(subs)}")
    if eta is not None and sub != "chi":
        raise ConfigError(f"eft {sub} does not read --eta")
    config = config or _default_config()
    ecfg = EftConfig(system=config, lambda0=lambda0 if lambda0 is not None else 1.0)
    pole = ecfg.lambda0_pole
    summary: dict = {"n_alpha": ecfg.n_alpha, "lambda0_pole": pole}
    params: dict = {"sub": sub, "lambda0": lambda0, "eta": eta,
                    "sweep": None if sweep is None else str(sweep)}
    if sub in ("jellium", "chi") and lambda0 is None:
        ecfg = replace(ecfg, lambda0=min(0.5 * (1 + pole), 1e6))

    if sub in ("coupling", "mass", "mu", "casimir"):
        _check_sweep_var(sweep, ("lambda0",), "eft " + sub)
        if sweep is not None:
            lams = sweep.grid()
        elif lambda0 is not None:
            lams = np.array([lambda0])
        else:
            hi = min(0.999 * pole, 1e6)
            lams = np.linspace(1.0, hi, 200)
        if np.any(lams < 1.0):
            raise ConfigError("lambda0 values must be >= 1")
        stop = lams.size
        if sub in ("mass", "mu"):
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
        lams = lams[:stop]
        with np.errstate(all="ignore"):
            if sub == "coupling":
                values = (effective_coupling(ecfg, lams),)
            elif sub == "mass":
                values = (renormalized_mass(ecfg, lams),)
            elif sub == "mu":
                values = (chemical_potential(ecfg, lambda0=lams),)
            else:
                values = (casimir_energy_density(ecfg, lams),
                          casimir_pressure(ecfg, lams))
        rows = _rows(lams, *values)
        if beyond_window:
            summary["rows_beyond_stability_window"] = beyond_window
        columns = {"coupling": ("lambda0", "g"),
                   "mass": ("lambda0", "mass_kg"),
                   "mu": ("lambda0", "mu_joule"),
                   "casimir": ("lambda0", "energy_density_j_m2",
                               "pressure_pa")}[sub]
        return OutputRecord(command="eft", config=config.as_mapping(),
                            params=params, columns=columns, rows=rows,
                            summary=summary)

    if sub == "jellium":
        _check_sweep_var(sweep, ("rs",), "eft jellium")
        rs_grid = sweep.grid() if sweep is not None else np.linspace(0.5, 12.0, 200)
        with np.errstate(all="ignore"):
            res = jellium(rs_grid, ecfg)
        rows = _rows(res.rs, res.tau, res.eps_x, res.total)
        summary["rs_min"] = res.rs_min
        summary["lambda0"] = ecfg.lambda0
        return OutputRecord(command="eft", config=config.as_mapping(),
                            params=params,
                            columns=("rs", "kinetic_ry", "exchange_ry",
                                     "total_ry"),
                            rows=rows, summary=summary)

    # sub == "chi": continuum field-field response over a frequency sweep
    _check_sweep_var(sweep, ("w",), "eft chi")
    lo = math.sqrt(ecfg.omega_tilde_sq_cutoff)
    hi = math.sqrt(ecfg.lambda_freq2)
    if eta is None:
        eta = 1e-3 * lo
    if eta < 0:
        raise ConfigError(f"eta must be non-negative, got {eta}")
    grid = sweep.grid() if sweep is not None else np.linspace(0.0, 1.5 * hi, 601)
    with np.errstate(all="ignore"):
        val = eft_chi_aa(BroadenedFrequency(grid, eta), ecfg)
    rows = _rows(grid, val.re, val.im)
    params["eta"] = eta
    summary.update({"window_low": lo, "window_high": hi,
                    "lambda0": ecfg.lambda0})
    return OutputRecord(command="eft", config=config.as_mapping(),
                        params=params, columns=("w", "re", "im"), rows=rows,
                        summary=summary)


def cmd_manymode(sub: str, n_modes: int = 100, ratio: float | None = None,
                 sweep: SweepSpec | None = None,
                 config: SystemConfig | None = None) -> OutputRecord:
    """Exact multi-mode scans for the parallel-polarization ladder.

    The ladder is dimensionless, so no sub-command reads a config; ratio
    (default 0.5) is not read by lowest-scan, which sweeps it.
    """
    subs = ("diag", "lowest-scan", "coupling-run")
    if sub not in subs:
        raise ConfigError(f"unknown manymode sub-command {sub!r}; "
                          f"choose from {', '.join(subs)}")
    if config is not None:
        raise ConfigError(f"manymode {sub} does not read --config")
    if ratio is None:
        ratio = 0.5
    elif sub == "lowest-scan":
        raise ConfigError("manymode lowest-scan does not read --ratio; "
                          "sweep ratio instead")
    if n_modes < 1:
        raise ConfigError(f"--modes must be >= 1, got {n_modes}")
    if not (ratio >= 0 and math.isfinite(ratio * ratio)):
        raise ConfigError(f"--ratio must be non-negative with a finite "
                          f"square, got {ratio}")
    cfg_map = _default_config().as_mapping()
    params: dict = {"sub": sub, "modes": n_modes, "ratio": ratio,
                    "sweep": None if sweep is None else str(sweep)}

    if sub == "diag":
        _check_sweep_var(sweep, (), "manymode diag")
        modes = ModeSet.ladder_1d(n_modes, 1.0)
        nm = normal_modes(modes, ratio)
        rows = [(i + 1, float(om)) for i, om in enumerate(nm.omega)]
        summary = {"sweeps": nm.sweeps,
                   "edge_omega_tilde": math.sqrt(1.0 + ratio**2)}
        return OutputRecord(command="manymode", config=cfg_map, params=params,
                            columns=("mode_index", "omega_over_omega1"),
                            rows=rows, summary=summary)

    if sub == "lowest-scan":
        _check_sweep_var(sweep, ("ratio",), "manymode lowest-scan")
        if sweep is not None:
            if sweep.start < 0:
                raise ConfigError("ratio sweep endpoints must be non-negative")
            ratios = sweep.grid()
        else:
            ratios = np.linspace(0.0, 0.9, 10)
        table = lowest_mode_scan([float(r) for r in ratios], n_modes=n_modes)
        rows = [(float(a), float(b)) for a, b in table]
        summary = {"max_rel_diff_percent": max(b for _, b in rows)}
        return OutputRecord(command="manymode", config=cfg_map, params=params,
                            columns=("ratio", "rel_diff_percent"), rows=rows,
                            summary=summary)

    # sub == "coupling-run": exact coupling vs mode count at fixed ratio
    _check_sweep_var(sweep, ("modes",), "manymode coupling-run")
    if sweep is not None:
        counts = sorted({int(round(m)) for m in sweep.grid() if m >= 1})
    else:
        counts = list(range(1, n_modes + 1))
    rows = []
    for m in counts:
        rows.append((m, exact_coupling_1d(m, 1.0, ratio)))
    # the ladder has omega_n = n, so sum 1/omega_n^2 -> pi^2/6 as M -> inf
    rho_zeta2 = ratio**2 * math.pi**2 / 6.0
    summary = {"ratio": ratio,
               "single_mode_gamma": ratio**2 / (1.0 + ratio**2),
               "g_limit": rho_zeta2 / (1.0 + rho_zeta2)}
    return OutputRecord(command="manymode", config=cfg_map, params=params,
                        columns=("n_modes", "g_exact"), rows=rows,
                        summary=summary)


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
    p_resp.add_argument("kind", choices=tuple(_RESPONSE_FUNCS))
    p_resp.add_argument("--eta", type=float, default=None,
                        help="broadening (default 0.01 omega_tilde)")

    p_eft = subs.add_parser("eft", parents=[common],
                            help="continuum-theory datasets")
    p_eft.add_argument("sub", choices=("coupling", "mass", "mu", "casimir",
                                       "jellium", "chi"))
    p_eft.add_argument("--lambda0", type=float, default=None,
                       help="dimensionless cutoff >= 1")
    p_eft.add_argument("--eta", type=float, default=None,
                       help="chi broadening; 0 selects the sharp window")

    p_many = subs.add_parser("manymode", parents=[common],
                             help="exact multi-mode diagonalization scans")
    p_many.add_argument("sub", choices=("diag", "lowest-scan", "coupling-run"))
    p_many.add_argument("--modes", type=int, default=100,
                        help="mode count M (default 100)")
    p_many.add_argument("--ratio", type=float, default=None,
                        help="omega_p/omega_1 (default 0.5)")
    return parser


def _emit(record: OutputRecord, fmt: str, out: str, digits: int) -> None:
    text = record.render(fmt, digits)
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _dispatch(args: argparse.Namespace) -> OutputRecord:
    config = load_config_file(args.config) if args.config else None
    sweep = SweepSpec.parse(args.sweep) if args.sweep else None
    if args.command == "phase":
        return cmd_phase(config, sweep)
    if args.command == "response":
        return cmd_response(args.kind, config, sweep, args.eta)
    if args.command == "eft":
        return cmd_eft(args.sub, config, sweep, args.lambda0, args.eta)
    if args.command == "manymode":
        return cmd_manymode(args.sub, args.modes, args.ratio, sweep, config)
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.digits < 1 or args.digits > FLOAT_DIGITS:
        parser.error(f"--digits must be in [1, {FLOAT_DIGITS}]")
    try:
        record = _dispatch(args)
        _emit(record, args.format, args.out, args.digits)
    except (ConfigError, UnitModeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Cavity2degError as exc:  # domain, pole, precondition, ...
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
