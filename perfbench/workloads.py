"""Seeded task lists and per-task oracles for the ``mode_ladder`` and
``dense_jacobi`` workloads, plus the pieces every workload shares.

A task is one closed-loop call into the library.  Its inputs come only from
the seed; its oracle and its byte encoding run after the timed pass.

Sizes come in fixed tiers: cheap tasks, then a body of like tasks around the
median, an upper tier that holds the tail percentile and a few large tasks
that dominate the pass time.  The seed moves each size by at most 3%, except
in the tail tier, whose sizes stay fixed because a Jacobi solve costs ~M^3
and one step in M there moves the tail percentile by 10%.  The seed draws
everything else: ratios, polarizations and matrix entries.  This keeps the
work in one pass nearly the same for every seed, so run-to-run spread
measures the program rather than the draw, and each order statistic falls
inside a group of like tasks.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from cavity2deg import manymode
from cavity2deg.constants import CODATA2018

# Each workload's warm-up task, as a ``python -c`` program.  The benchmark
# times it in fresh interpreters for ``setup_s`` and runs it in-process once
# before the timed passes.
WARMUP = {
    "mode_ladder": (
        "import cavity2deg\n"
        "cavity2deg.exact_coupling_1d(8, 1.0, 0.5)\n"
        "cavity2deg.lowest_mode_scan([0.5], n_modes=8)\n"),
    "dense_jacobi": (
        "import numpy as np, cavity2deg\n"
        "a = np.arange(64.0).reshape(8, 8)\n"
        "cavity2deg.diagonalize_w(a + a.T)\n"),
    "datasets": (
        "import contextlib, io\n"
        "from cavity2deg import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['phase', '--sweep', 'gamma=0:1.2:13'])\n"
        "    cli.main(['response', 'sigma', '--sweep', 'w=-3e15:3e15:11'])\n"),
}


@dataclass
class Task:
    """One timed call with its oracle.

    ``check`` returns None when the output is right, else the reason it is
    wrong.  ``encode`` gives the bytes that must repeat on every pass.
    """

    kind: str
    spec: dict
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    encode: Callable[[Any], bytes]


@dataclass
class Workload:
    name: str
    tasks: list
    files: dict          # relative path -> text, written before the run

    def digest(self) -> str:
        """sha256 of the generated inputs: task specs plus input files."""
        body = json.dumps({"tasks": [[t.kind, t.spec] for t in self.tasks],
                           "files": self.files}, sort_keys=True)
        return hashlib.sha256(body.encode()).hexdigest()


def tier(size: int, count: int, rng: np.random.Generator,
         jitter: float = 0.03) -> list[int]:
    """`count` sizes near `size`, each moved by a seeded +-jitter."""
    moved = size * (1.0 + rng.uniform(-jitter, jitter, count))
    return [max(1, int(round(m))) for m in moved]


def array_sha(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _normal_bytes(nm) -> bytes:
    parts = [nm.omega_sq.tobytes(), nm.u.tobytes(), str(nm.sweeps).encode()]
    if nm.eps_tilde is not None:
        parts.append(nm.eps_tilde.tobytes())
    return b"|".join(parts)


def check_eigensystem(w: np.ndarray, nm, tol: float = 1e-8) -> "str | None":
    """LAPACK eigenvalues, reconstruction and orthogonality within tol*||W||_F."""
    scale = float(np.linalg.norm(w))
    ref = np.linalg.eigvalsh(w)
    if nm.omega_sq.shape != ref.shape:
        return f"expected {ref.size} eigenvalues, got {nm.omega_sq.size}"
    err = float(np.max(np.abs(nm.omega_sq - ref)))
    if not err <= tol * scale:
        return f"eigenvalues off LAPACK by {err:.3g} (||W||_F {scale:.3g})"
    u = nm.u
    rec = float(np.max(np.abs((u * nm.omega_sq) @ u.T - w)))
    if not rec <= tol * scale:
        return f"U diag U^T misses W by {rec:.3g}"
    orth = float(np.max(np.abs(u.T @ u - np.eye(u.shape[0]))))
    if not orth <= tol:
        return f"U^T U misses I by {orth:.3g}"
    return None


# ---------------------------------------------------------------- mode_ladder

def ladder_fro(n_modes: int, ratio: float) -> float:
    """||W||_F of the parallel ladder W = diag(n^2) + ratio^2 * 1 1^T."""
    rho = ratio * ratio
    d = np.arange(1, n_modes + 1, dtype=float) ** 2 + rho
    return math.sqrt(float(np.sum(d * d)) + rho * rho * n_modes * (n_modes - 1))


def sherman_morrison_coupling(n_modes: int, ratio: float) -> float:
    """g = w_p^2 s/(1 + w_p^2 s), s = sum 1/n^2, for the ladder at w_1 = 1."""
    s = float(np.sum(1.0 / np.arange(1, n_modes + 1, dtype=float) ** 2))
    rho = ratio * ratio
    return rho * s / (1.0 + rho * s)


def secular_lowest(n_modes: int, ratio: float) -> float:
    """Lowest root of 1 + w_p^2 sum 1/(n^2 - lam) = 0, found on (1, 4).

    Bisection in t = lam - 1, so the root keeps full relative accuracy when
    it sits close to the first pole.
    """
    rho = ratio * ratio
    if rho == 0.0 or n_modes == 1:
        return 1.0 + rho
    shifted = np.arange(2, n_modes + 1, dtype=float) ** 2 - 1.0

    def f(t: float) -> float:
        return 1.0 - rho / t + rho * float(np.sum(1.0 / (shifted - t)))

    lo, hi = 0.0, 3.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 1.0 + 0.5 * (lo + hi)


def _coupling_task(n_modes: int, ratio: float) -> Task:
    def call():
        return manymode.exact_coupling_1d(n_modes, 1.0, ratio)

    def check(g):
        want = sherman_morrison_coupling(n_modes, ratio)
        tol = 1e-11 * ladder_fro(n_modes, ratio)
        if not abs(g - want) <= tol:
            return f"g = {g!r}, Sherman-Morrison {want!r} (tol {tol:.2g})"
        return None

    return Task("exact_coupling_1d", {"modes": n_modes, "ratio": ratio},
                call, check, lambda g: repr(g).encode())


def _lowest_task(n_modes: int, ratio: float) -> Task:
    def call():
        return manymode.lowest_mode_scan([ratio], n_modes=n_modes)

    def check(rows):
        if rows.shape != (1, 2) or rows[0, 0] != ratio:
            return f"unexpected rows {rows!r}"
        lam = secular_lowest(n_modes, ratio)
        edge = math.sqrt(1.0 + ratio * ratio)
        want = 100.0 * abs(edge - math.sqrt(lam)) / edge
        tol = 100.0 * 1e-11 / (2.0 * edge * math.sqrt(lam))     # |d lam| <= 1e-11
        if not abs(rows[0, 1] - want) <= tol:
            return f"rel_diff {rows[0, 1]!r}, secular root gives {want!r}"
        return None

    return Task("lowest_mode_scan", {"modes": n_modes, "ratio": ratio},
                call, check, lambda rows: rows.tobytes())


def random_transverse_modes(n_modes: int, rng: np.random.Generator):
    """Modes with random momenta and unit polarizations transverse to them."""
    kappa = rng.standard_normal((n_modes, 3))
    pol = rng.standard_normal((n_modes, 3))
    pol -= (np.einsum("ij,ij->i", pol, kappa)
            / np.einsum("ij,ij->i", kappa, kappa))[:, None] * kappa
    pol /= np.linalg.norm(pol, axis=1)[:, None]
    omega = np.sort(rng.uniform(1.0, 1.0 + 0.25 * n_modes, n_modes))
    return omega, pol, kappa


def _spectrum_task(n_modes: int, ratio: float, rng: np.random.Generator) -> Task:
    omega, pol, kappa = random_transverse_modes(n_modes, rng)
    omega_p = ratio * float(omega[0])
    n_gamma = rng.integers(0, 4, n_modes)
    k_vec = rng.uniform(-1e3, 1e3, 2)
    n_el = int(rng.integers(10, 10_000))
    kinetic = float(k_vec @ k_vec) / n_el * (1.0 + rng.uniform(0.1, 2.0))

    def call():
        modes = manymode.ModeSet(omega=omega, pol=pol, kappa=kappa)
        nm = manymode.normal_modes(modes, omega_p)
        energy = manymode.manymode_spectrum(n_gamma, k_vec, kinetic, nm,
                                            omega_p, n_el)
        return nm, energy

    def check(out):
        nm, energy = out
        w = np.diag(omega**2) + omega_p**2 * (pol @ pol.T)
        bad = check_eigensystem(w, nm, tol=1e-10)
        if bad:
            return bad
        if not np.allclose(nm.eps_tilde, nm.u.T @ pol, rtol=0, atol=1e-12):
            return "eps_tilde is not U^T P"
        hbar, m_e = CODATA2018.hbar, CODATA2018.m_e
        proj = pol[:, :2] @ k_vec
        collective = omega_p**2 / n_el * float(proj @ np.linalg.solve(w, proj))
        electronic = hbar**2 / (2.0 * m_e) * (kinetic - collective)
        photon = hbar * float(np.sum(np.sqrt(np.linalg.eigvalsh(w)) * (n_gamma + 0.5)))
        want = electronic + photon
        if not abs(energy - want) <= 1e-9 * (abs(electronic) + abs(photon)):
            return f"energy {energy!r}, closed form {want!r}"
        return None

    spec = {"modes": n_modes, "ratio": ratio,
            "inputs": array_sha(omega, pol, kappa, n_gamma, k_vec),
            "n_electrons": n_el, "kinetic": kinetic}
    return Task("normal_modes+manymode_spectrum", spec, call, check,
                lambda out: _normal_bytes(out[0]) + repr(out[1]).encode())


# Ratio windows of the ladder in which the Jacobi work barely moves: below
# 0.08 every pair is rotated in each of 2 sweeps; above 0.9 the solve takes
# 4 sweeps and the rotation count changes by under 2% across the window, at
# M = 8 to 200.  Between them the count climbs by half as the ratio grows, so
# a seeded ratio there would move run_s with the seed rather than the program.
WEAK, STRONG = (0.04, 0.08), (0.9, 1.0)


def _ratio_in(window: tuple, rng: np.random.Generator) -> float:
    return float(rng.uniform(*window))


def mode_ladder(seed: int) -> Workload:
    """Structured W = diag(w^2) + w_p^2 P P^T with rank P <= 3."""
    rng = np.random.default_rng([seed, 1])
    # Each tier keeps one window, so the median (M ~ 20) and the tail
    # percentile (M ~ 44) fall inside a group of like tasks.
    coupling = ([(m, WEAK) for m in tier(8, 23, rng)]
                + [(m, STRONG) for m in tier(20, 24, rng)]
                + [(m, STRONG) for m in tier(44, 14, rng, jitter=0.0)] + [(150, STRONG)])
    tasks = [_coupling_task(m, _ratio_in(window, rng)) for m, window in coupling]
    for m, window in ((100, STRONG), (200, WEAK)):
        tasks.append(_lowest_task(m, _ratio_in(window, rng)))
    for i, m in enumerate(tier(24, 6, rng)):
        tasks.append(_spectrum_task(m, _ratio_in((WEAK, STRONG)[i % 2], rng), rng))
    order = rng.permutation(len(tasks))
    return Workload("mode_ladder", [tasks[i] for i in order], {})


# --------------------------------------------------------------- dense_jacobi

def _random_symmetric(n: int, rng: np.random.Generator, clustered: bool) -> np.ndarray:
    if clustered:
        # eigenvalues in groups of up to 8 that agree to ~1e-9: near-degenerate
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        centers = rng.uniform(-1.0, 1.0, -(-n // 8))
        lam = np.repeat(centers, 8)[:n] + 1e-9 * rng.standard_normal(n)
        a = (q * lam) @ q.T
    else:
        a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def _dense_task(n: int, clustered: bool, rng: np.random.Generator) -> Task:
    w = _random_symmetric(n, rng, clustered)
    return Task("diagonalize_w", {"modes": n, "clustered": clustered,
                                  "w": array_sha(w)},
                lambda: manymode.diagonalize_w(w),
                lambda nm: check_eigensystem(w, nm),
                _normal_bytes)


def dense_jacobi(seed: int) -> Workload:
    """Arbitrary symmetric W; six of the 53 have clustered spectra."""
    rng = np.random.default_rng([seed, 2])
    plan = ([(n, False) for n in tier(8, 14, rng) + tier(16, 26, rng)]
            + [(n, i % 2 == 1) for i, n in enumerate(tier(32, 10, rng, jitter=0.0))]
            + [(56, True), (84, False), (120, False)])
    tasks = [_dense_task(n, clustered, rng) for n, clustered in plan]
    order = rng.permutation(len(tasks))
    return Workload("dense_jacobi", [tasks[i] for i in order], {})
