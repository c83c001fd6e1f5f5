"""The ``datasets`` workload: a seeded in-process CLI session plus
ground-state grid tasks, each with a closed-form oracle.

CLI tasks call ``cli.main(argv)`` with stdout and stderr captured.  Configs
come from key=value files written before the run and from JSON outputs that
earlier tasks of the same pass wrote with ``--out``.  Oracles recompute
sampled rows and summaries from the physics closed forms (independent of the
library's split real/imaginary formulas), reject NaN/Infinity tokens and
check the documented exit code of every invalid invocation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from cavity2deg import cli, singlemode
from cavity2deg.constants import CODATA2018 as K

from workloads import Task, Workload, tier

WORKDIR = ".perfbench_work/datasets"

RESPONSE_KINDS = ("aa", "ea", "jj", "ja", "aj", "sigma")
SI_ONLY_KINDS = ("jj", "ja", "aj")
EFT_SUBS = ("coupling", "mass", "mu", "casimir", "jellium", "chi")
DEFAULT_CONFIG = {"units_mode": "si", "n_electrons": cli.DEFAULT_N,
                  "area": cli.DEFAULT_AREA, "mirror_gap": cli.DEFAULT_GAP,
                  "cavity_index": 1}
# Points per sweep in each of the six rounds: tens, hundreds, thousands.
ROUND_POINTS = (30, 30, 200, 200, 200, 2000)
GRID_CELLS_PER_RADIUS = (64, 128, 256)


# ------------------------------------------------------------ closed forms

def scales(cfg: dict) -> dict:
    """Frequencies of a config mapping; ratio mode sets eps0 = V = 1."""
    if cfg["units_mode"] == "ratio":
        wp, w = cfg["ratio"], 1.0
        eps0, volume = 1.0, 1.0
    else:
        lz = cfg["mirror_gap"]
        n2d = cfg["n_electrons"] / cfg["area"]
        wp = math.sqrt(K.e**2 * n2d / (K.m_e * K.eps0 * lz))
        w = cfg.get("mode_frequency") or K.c * math.pi * cfg["cavity_index"] / lz
        eps0, volume = K.eps0, cfg["area"] * lz
    wt = math.hypot(w, wp)
    return {"wp": wp, "wt": wt, "gamma": wp * wp / (wt * wt),
            "eps0": eps0, "volume": volume}


def response_value(kind: str, cfg: dict, w: float, eta: float) -> complex:
    """Pole-pair response from complex arithmetic:
    chi_AA = -(1/(2 eps0 V wt)) [1/(w+wt+i eta) - 1/(w-wt+i eta)]."""
    s = scales(cfg)
    wt, z = s["wt"], complex(w, eta)
    hat = -(1.0 / (z + wt) - 1.0 / (z - wt)) / (2.0 * wt)
    aa = hat / (s["eps0"] * s["volume"])
    if kind == "aa":
        return aa
    if kind == "ea":
        return 1j * z * aa
    if kind == "sigma":
        return 1j / z * s["eps0"] * (s["wp"] ** 2 + s["wp"] ** 4 * hat)
    matter = K.e**2 * cfg["n_electrons"] / K.m_e
    return matter**2 * aa if kind == "jj" else -matter * aa


def eft_scales(cfg: dict) -> dict:
    lz = cfg["mirror_gap"]
    alpha = K.e**2 / (4.0 * math.pi * K.c**2 * K.eps0 * K.m_e * lz)
    kz = math.pi * cfg["cavity_index"] / lz
    wp = scales(cfg)["wp"]
    n_alpha = cfg["n_electrons"] * alpha
    return {"alpha": alpha, "n_alpha": n_alpha, "pole": math.exp(1.0 / n_alpha),
            "kz": kz, "wp": wp, "edge2": (K.c * kz) ** 2 + wp * wp,
            "n2d": cfg["n_electrons"] / cfg["area"], "lz": lz}


def eft_row(sub: str, cfg: dict, x: float, lambda0: float, eta: float) -> tuple:
    """Expected row values after the swept variable."""
    e = eft_scales(cfg)
    lam = x if sub in ("coupling", "mass", "mu", "casimir") else lambda0
    mass_ratio = 1.0 - e["alpha"] * math.log(lam)        # m_e / m_e(Lambda)
    if sub == "coupling":
        return (e["n_alpha"] * math.log(lam),)
    if sub == "mass":
        return (K.m_e / mass_ratio,)
    if sub == "mu":
        return (K.hbar**2 * 2.0 * math.pi * e["n2d"] * mass_ratio / (2.0 * K.m_e),)
    if sub == "casimir":
        grow = lam**1.5 - 1.0
        energy = K.hbar * grow * e["edge2"] ** 1.5 / (6.0 * math.pi * K.c**2)
        pressure = (K.hbar * grow * math.sqrt(e["edge2"])
                    * (2.0 * (K.c * e["kz"]) ** 2 + e["wp"] ** 2)
                    / (4.0 * math.pi * K.c**2 * e["lz"]))
        return (energy, pressure)
    if sub == "jellium":
        tau = mass_ratio / x**2
        eps_x = -8.0 * math.sqrt(2.0) / (3.0 * math.pi) / x
        return (tau, eps_x, tau + eps_x)
    lo, hi = chi_window(cfg, lambda0)
    pref_re = 1.0 / (8.0 * math.pi * K.c**2 * K.eps0 * e["lz"])
    pref_im = 1.0 / (4.0 * K.c**2 * K.eps0 * e["lz"])
    re = pref_re * (math.log(((x - lo) ** 2 + eta**2) / ((x - hi) ** 2 + eta**2))
                    + math.log(((x + lo) ** 2 + eta**2) / ((x + hi) ** 2 + eta**2)))
    if eta == 0.0:      # the absorption box of height 1/(4 c^2 eps0 L_z)
        im = -pref_im if lo < x < hi else pref_im if -hi < x < -lo else 0.0
    else:
        im = pref_im / math.pi * (math.atan((hi + x) / eta) - math.atan((lo + x) / eta)
                                  + math.atan((lo - x) / eta) - math.atan((hi - x) / eta))
    return (re, im)


def chi_window(cfg: dict, lambda0: float) -> tuple[float, float]:
    edge = math.sqrt(eft_scales(cfg)["edge2"])
    return edge, edge * math.sqrt(lambda0)


def phase_label(gamma: float) -> str:
    if gamma < 1.0 - 1e-12:
        return "Stable"
    return "Unstable" if gamma > 1.0 + 1e-12 else "Critical"


# ----------------------------------------------------------------- oracles

class OracleError(Exception):
    pass


def _no_constant(token: str):
    raise OracleError(f"non-standard JSON token {token}")


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise OracleError(f"non-finite value {x!r}")
    return x


def parse_record(text: str, fmt: str):
    """(config, params, columns, rows, summary) of a CSV or JSON dataset."""
    if fmt == "json":
        body = json.loads(text, parse_constant=_no_constant)
        return (body["config"], body["params"], body["columns"],
                [[_finite(v) if isinstance(v, float) else v for v in row]
                 for row in body["rows"]], body["summary"])
    lines = text.splitlines()
    meta, i = {}, 0
    while lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition(": ")
        meta[key] = value
        i += 1
    columns = lines[i].split(",")
    rows = [[tok if col == "phase" else _finite(float(tok))
             for col, tok in zip(columns, line.split(","))]
            for line in lines[i + 1:]]
    load = lambda key: json.loads(meta.get(key, "{}"), parse_constant=_no_constant)
    return load("config"), load("params"), columns, rows, load("summary")


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - want) <= rtol * abs(want) + atol


def _grid(spec: dict) -> np.ndarray:
    lo, hi, n = spec["start"], spec["stop"], spec["count"]
    return np.geomspace(lo, hi, n) if spec["log"] else np.linspace(lo, hi, n)


def _expected_rows(spec: dict, xs) -> list[tuple]:
    cfg = spec["config"]
    if spec["command"] == "phase":
        return [(x, phase_label(x)) for x in xs]
    if spec["command"] == "response":
        out = []
        for x in xs:
            v = response_value(spec["kind"], cfg, x, spec["eta"])
            out.append((x, v.real, v.imag))
        return out
    return [(x,) + eft_row(spec["kind"], cfg, x, spec["lambda0"], spec["eta"])
            for x in xs]


def _expected_summary(spec: dict) -> dict:
    cfg, command = spec["config"], spec["command"]
    if command == "response":
        s = scales(cfg)
        out = {"eta": spec["eta"], "omega_tilde": s["wt"], "gamma": s["gamma"]}
        if spec["kind"] == "sigma":
            sigma0 = s["eps0"] * s["wp"] ** 2 / spec["eta"]
            out.update(sigma0=sigma0, sigma_dc=sigma0 * (1.0 - s["gamma"]),
                       sigma_dc_over_sigma0=1.0 - s["gamma"],
                       effective_mass_over_m_e=1.0 / (1.0 - s["gamma"]))
        return out
    if command == "eft":
        e = eft_scales(cfg)
        out = {"n_alpha": e["n_alpha"], "lambda0_pole": e["pole"]}
        if spec["kind"] == "jellium":
            mass_ratio = 1.0 - e["alpha"] * math.log(spec["lambda0"])
            out["rs_min"] = 3.0 * math.pi / (4.0 * math.sqrt(2.0)) * mass_ratio
        if spec["kind"] == "chi":
            out["window_low"], out["window_high"] = chi_window(cfg, spec["lambda0"])
        return out
    return {}


def check_dataset(spec: dict, text: str) -> "str | None":
    """Oracle for one successful CLI run's dataset text."""
    config, params, columns, rows, summary = parse_record(text, spec["fmt"])
    if config != spec["config"]:
        return f"config echo {config} != {spec['config']}"
    xs = _grid(spec)
    if len(rows) != len(xs):
        return f"{len(rows)} rows, expected {len(xs)}"
    digits = spec["digits"] if spec["fmt"] == "csv" else 17
    rtol = max(1e-9, 10.0 ** (1 - digits))
    picks = sorted(set(np.linspace(0, len(xs) - 1, 9).astype(int).tolist()))
    want = _expected_rows(spec, [float(xs[i]) for i in picks])
    scale = [max(abs(r[c]) for r in want) if not isinstance(want[0][c], str) else 0.0
             for c in range(len(columns))]
    for i, exp in zip(picks, want):
        for c, (g, w) in enumerate(zip(rows[i], exp)):
            ok = g == w if isinstance(w, str) else _close(g, w, rtol, 1e-9 * scale[c])
            if not ok:
                return f"row {i} {columns[c]} = {g!r}, closed form {w!r}"
    if spec["command"] == "phase":
        counts: dict = {}
        for x in xs:
            label = phase_label(float(x))
            counts[label] = counts.get(label, 0) + 1
        if summary.get("band_counts") != counts:
            return f"band_counts {summary.get('band_counts')} != {counts}"
    for key, value in _expected_summary(spec).items():
        if key not in summary or not _close(summary[key], value, 1e-9):
            return f"summary {key} = {summary.get(key)!r}, closed form {value!r}"
    return None


# ---------------------------------------------------------------- the tasks

def _run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:      # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_task(spec: dict) -> Task:
    def encode(result) -> bytes:
        code, stdout, stderr = result
        body = Path(spec["out"]).read_bytes() if spec.get("out") and code == 0 else b""
        return f"{code}\n{stdout}\n{stderr}\n".encode() + body

    def check(result) -> "str | None":
        code, stdout, _ = result
        if code != spec["expect"]:
            return f"exit code {code}, expected {spec['expect']}"
        if code != 0:
            return "failed run wrote to stdout" if stdout else None
        if spec.get("out"):
            if stdout:
                return "--out run also wrote to stdout"
            stdout = Path(spec["out"]).read_text(encoding="utf-8")
        try:
            return check_dataset(spec, stdout)
        except (OracleError, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable dataset: {type(exc).__name__}: {exc}"

    argv = list(spec["argv"])
    return Task(f"cli.{spec['command']}", spec, lambda: _run_cli(argv), check, encode)


def _ground_task(rng: np.random.Generator, cpr: int, fill: float) -> Task:
    radius = float(rng.uniform(0.5, 2.0) * 1e8)
    center = tuple(float(c) for c in radius * rng.uniform(-0.2, 0.2, 2))
    gamma = float(rng.uniform(0.0, 0.9))
    boosts = [tuple(float(q) for q in radius * rng.uniform(-0.5, 0.5, 2)) for _ in range(2)]
    gamma_w = float(rng.uniform(1.05, 1.5))
    qx = [float(q) for q in np.linspace(0.0, 5.0 * radius, 16)]
    spec = {"radius": radius, "center": center, "fill": fill, "cells_per_radius": cpr,
            "gamma": gamma, "boosts": boosts, "gamma_witness": gamma_w, "qx": qx}

    def call():
        grid = singlemode.OccupancyGrid.disk(radius, center=center, fill=fill,
                                             cells_per_radius=cpr)
        m = singlemode.distribution_moments(grid)
        energies = [singlemode.energy_density(m, q, gamma) for q in boosts]
        return m, energies, singlemode.instability_witness(m, gamma_w, qx)

    def energy(m, q, g):
        terms = (m.t_d, 2.0 * (q[0] * m.k_d[0] + q[1] * m.k_d[1]),
                 (q[0] ** 2 + q[1] ** 2) * m.n_2d,
                 -(g / m.n_2d) * ((m.k_d[0] + q[0] * m.n_2d) ** 2
                                  + (m.k_d[1] + q[1] * m.n_2d) ** 2))
        pref = K.hbar**2 / (2.0 * K.m_e)
        return pref * sum(terms), 1e-9 * pref * sum(abs(t) for t in terms)

    def check(out) -> "str | None":
        m, energies, witness = out
        w = fill / (4.0 * math.pi**2)
        h2 = (radius / cpr) ** 2
        n_exact = w * math.pi * radius**2
        if not _close(m.n_2d, n_exact, 1e-9):
            return f"n_2d {m.n_2d!r}, disk area gives {n_exact!r}"
        for got, c in zip(m.k_d, center):
            if not _close(got, n_exact * c, 0.0, 10.0 * w * radius * h2):
                return f"k_d {m.k_d}, n_2d * center gives {n_exact * c!r}"
        t_exact = w * math.pi * radius**2 * (radius**2 / 2.0 + center[0] ** 2 + center[1] ** 2)
        if not _close(m.t_d, t_exact, 0.0, 20.0 * w * radius**2 * h2):
            return f"t_d {m.t_d!r}, disk integral {t_exact!r}"
        for got, q in zip(energies, boosts):
            want, tol = energy(m, q, gamma)
            if not _close(got, want, 0.0, tol):
                return f"energy_density {got!r} at q={q}, closed form {want!r}"
        for got, q in zip(witness, qx):
            want, tol = energy(m, (q, 0.0), gamma_w)
            if not _close(got, want, 0.0, tol):
                return f"witness {got!r} at qx={q}, closed form {want!r}"
        if not witness[-1] < witness[-2]:
            return "witness does not fall at large boost for gamma > 1"
        return None

    def encode(out) -> bytes:
        m, energies, witness = out
        return repr((m, energies)).encode() + witness.tobytes()

    return Task("ground_state", spec, call, check, encode)


def _config_text(cfg: dict) -> str:
    return "".join(f"{k} = {v!r}\n" if not isinstance(v, str) else f"{k} = {v}\n"
                   for k, v in cfg.items())


def _sweep(var: str, start: float, stop: float, count: int, log: bool) -> tuple:
    text = f"{var}={start!r}:{stop!r}:{count}" + (":log" if log else "")
    return text, {"start": start, "stop": stop, "count": count, "log": log}


def datasets(seed: int, workdir: str = WORKDIR) -> Workload:
    """Six rounds over phase, the six response kinds and the six eft
    subcommands, with grid tasks and one invalid invocation after each."""
    rng = np.random.default_rng([seed, 3])
    files, si, ratio = {}, [], []
    for i in range(3):
        cfg = {"units_mode": "si",
               "n_electrons": int(10 ** rng.uniform(7.5, 8.5)),
               "area": float(10 ** rng.uniform(-8.5, -7.5)),
               "mirror_gap": float(10 ** rng.uniform(-6.2, -5.8)),
               "cavity_index": int(rng.integers(1, 3))}
        si.append((f"{workdir}/si{i}.cfg", cfg))
    for i in range(2):
        ratio.append((f"{workdir}/ratio{i}.cfg",
                      {"units_mode": "ratio", "ratio": float(rng.uniform(0.1, 1.5))}))
    for path, cfg in si + ratio:
        files[path] = _config_text(cfg)
    bad_cfg = f"{workdir}/bad.cfg"
    files[bad_cfg] = "units_mode = si\ncolour = blue\n"

    kinds = ([("phase", None)] + [("response", k) for k in RESPONSE_KINDS]
             + [("eft", s) for s in EFT_SUBS])
    json_outputs: list = []        # (path, config) of JSON datasets written so far
    invalid = _invalid_specs(rng, si, ratio, bad_cfg)
    tasks = []
    for rnd, points in enumerate(ROUND_POINTS):
        for k, (command, kind) in enumerate(kinds):
            spec = _valid_spec(rng, rnd, k, command, kind, points, si, ratio,
                               json_outputs, workdir, len(tasks))
            tasks.append(_cli_task(spec))
            if spec["fmt"] == "json" and spec["out"]:
                json_outputs.append((spec["out"], spec["config"]))
        for i in range(2):
            cpr = tier(GRID_CELLS_PER_RADIUS[(2 * rnd + i) % 3], 1, rng)[0]
            tasks.append(_ground_task(rng, cpr, 1.0 + i))
        tasks.append(_cli_task(invalid[rnd]))
    tasks.append(_cli_task(invalid[-1]))
    return Workload("datasets", tasks, files)


def _pick_config(rng, rnd, k, need_si, si, ratio, json_outputs):
    """A key=value file, or on some tasks an earlier JSON output."""
    if (rnd + k) % 4 == 2:
        for path, cfg in reversed(json_outputs):
            if cfg["units_mode"] == "si" or not need_si:
                return path, cfg
    pool = si if need_si or (rnd + k) % 2 == 0 else ratio
    return pool[int(rng.integers(len(pool)))]


def _valid_spec(rng, rnd, k, command, kind, points, si, ratio, json_outputs,
                workdir, index) -> dict:
    count = tier(points, 1, rng)[0]
    fmt = "json" if (rnd + k) % 3 == 0 else "csv"
    out = f"{workdir}/t{index}.{fmt}" if (rnd + 2 * k) % 3 != 1 else None
    digits = int(rng.integers(4, 17)) if fmt == "csv" and (rnd + k) % 4 == 1 else None
    log = rnd % 2 == 1
    argv = [command] + ([kind] if kind else [])
    spec = {"command": command, "kind": kind, "eta": None, "lambda0": None}
    if command == "phase" and rnd == 0:
        cfg_path, cfg = None, DEFAULT_CONFIG
    else:
        need_si = command == "eft" or kind in SI_ONLY_KINDS
        cfg_path, cfg = _pick_config(rng, rnd, k, need_si, si, ratio, json_outputs)
    if cfg_path:
        argv += ["--config", cfg_path]
    if command == "phase":
        lo = float(rng.uniform(0.01, 0.4))
        sweep, grid = _sweep("gamma", lo, float(rng.uniform(1.05, 1.6)), count, log)
    elif command == "response":
        wt = scales(cfg)["wt"]
        sweep, grid = _sweep("w", -float(rng.uniform(2.0, 3.5)) * wt,
                             float(rng.uniform(2.0, 3.5)) * wt, count, False)
        eta = 0.01 * wt
        if rnd % 2 == 1:
            eta = float(rng.uniform(0.005, 0.05)) * wt
            argv += ["--eta", repr(eta)]
        spec["eta"] = eta
    else:
        top = min(eft_scales(cfg)["pole"], 1e6)
        lambda0 = 1.0 + float(rng.uniform(0.1, 0.9)) * (top - 1.0)
        if kind in ("coupling", "mass", "mu", "casimir"):
            sweep, grid = _sweep("lambda0", 1.0, lambda0, count, log)
        elif kind == "jellium":
            sweep, grid = _sweep("rs", float(rng.uniform(0.3, 1.0)),
                                 float(rng.uniform(8.0, 15.0)), count, log)
        else:
            lo, hi = chi_window(cfg, lambda0)
            sweep, grid = _sweep("w", 0.0, float(rng.uniform(1.2, 1.6)) * hi, count, False)
            eta = 0.0 if rnd % 3 == 2 else float(rng.uniform(1e-3, 1e-2)) * lo
            argv += ["--eta", repr(eta)]
            spec["eta"] = eta
        if kind in ("jellium", "chi"):
            argv += ["--lambda0", repr(lambda0)]
            spec["lambda0"] = lambda0
    argv += ["--sweep", sweep, "--format", fmt]
    if digits:
        argv += ["--digits", str(digits)]
    if out:
        argv += ["--out", out]
    spec.update(grid, argv=argv, config=cfg, fmt=fmt, out=out,
                digits=digits or 17, expect=0)
    return spec


def _invalid_specs(rng, si, ratio, bad_cfg) -> list[dict]:
    """Seven invocations that must fail with their documented exit code."""
    si_path = si[int(rng.integers(len(si)))][0]
    argvs = [
        (["phase", "--sweep", f"gamma={-float(rng.uniform(0.1, 1.0))!r}:1.0:5"], 2),
        (["response", "sigma", "--config", si_path,
          "--eta", repr(-float(rng.uniform(1e12, 1e13)))], 2),
        (["eft", "mass", "--config", si_path,
          "--lambda0", repr(float(rng.uniform(0.1, 0.9)))], 3),
        (["response", "jj", "--config", ratio[0][0]], 2),
        (["phase", "--config", bad_cfg], 2),
        (["eft", "jellium", "--config", si_path, "--lambda0", "1.5",
          "--sweep", f"rs={-float(rng.uniform(0.5, 2.0))!r}:2.0:3"], 3),
        (["phase", "--digits", "0"], 2),
    ]
    order = rng.permutation(len(argvs))
    return [{"command": argvs[i][0][0], "argv": argvs[i][0], "expect": argvs[i][1]}
            for i in order]
