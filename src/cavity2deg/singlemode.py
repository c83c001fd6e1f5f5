"""Exact single-mode spectrum and the k-space ground-state machinery.

The many-body eigenenergies of the gas coupled to one cavity mode (two
in-plane polarizations) are closed-form: a dressed oscillator ladder plus the
free kinetic energy minus a collective term proportional to the total
electronic momentum,

    E = hbar*omega_t*(n1 + n2 + 1)
        + (hbar^2/2 m_e) * (sum_j k_j^2 - gamma*|K|^2/N).

Ground-state searches over occupancy distributions reduce to three moments of
the distribution (density, momentum density, kinetic moment), evaluated here
on uniform k-space grids by the midpoint rule.  Disk occupancies are built
with exact cell/disk overlap areas so grid quadrature converges at O(h^2).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from .constants import CODATA2018
from .core import (DerivedScales, _finite, _non_negative, _positive, _pow,
                   dressed_frequency)
from .exceptions import DomainError, PreconditionError
from .io_utils import format_rows

__all__ = [
    "SpectrumIndex",
    "DistributionMoments",
    "OccupancyGrid",
    "eigenenergy",
    "eigenenergy_no_a2",
    "ground_photon_occupation",
    "distribution_moments",
    "energy_density",
    "optimal_origin",
    "instability_witness",
]

MAX_OCCUPANCY = 2.0  # spin-summed occupancy bound per k-cell
DISK_MARGIN = 1.25   # disk grids reach this many radii from the center


@dataclass(frozen=True)
class SpectrumIndex:
    """Labels one exact eigenstate: photon numbers and electron aggregates.

    The electronic part enters only through the total momentum K (1/m) and
    the summed squared momenta kinetic_sum (1/m^2) of the N electrons.
    """

    n1: int
    n2: int
    K: tuple[float, float]
    kinetic_sum: float
    n_electrons: int

    def __post_init__(self) -> None:
        if self.n1 < 0 or self.n2 < 0:
            raise PreconditionError("photon numbers must be non-negative")
        if self.n_electrons < 1:
            raise PreconditionError("n_electrons must be at least 1")
        if not all(map(math.isfinite, (*self.K, self.kinetic_sum))):
            raise DomainError(f"K and kinetic_sum must be finite, got "
                              f"K = {self.K}, kinetic_sum = {self.kinetic_sum}")
        # an overflowing |K|^2 is inf, which Cauchy-Schwarz then rejects
        k2 = _pow(self.K[0], 2) + _pow(self.K[1], 2)
        # Cauchy-Schwarz: sum k_j^2 >= |sum k_j|^2 / N for any momentum list
        if self.kinetic_sum < k2 / self.n_electrons * (1.0 - 1e-12):
            raise PreconditionError(
                "kinetic_sum below |K|^2/N violates Cauchy-Schwarz")

    @classmethod
    def from_momenta(cls, momenta: Iterable[Sequence[float]],
                     n1: int = 0, n2: int = 0) -> "SpectrumIndex":
        ks = np.atleast_2d(np.asarray(list(momenta), dtype=float))
        if ks.size == 0 or ks.shape[1] != 2:
            raise PreconditionError("momenta must be a non-empty list of 2-vectors")
        # an overflowing sum is inf, which __post_init__ rejects
        with np.errstate(over="ignore"):
            kx, ky = ks[:, 0].sum(), ks[:, 1].sum()
            kinetic_sum = (ks**2).sum()
        return cls(n1, n2, (float(kx), float(ky)), float(kinetic_sum),
                   ks.shape[0])


def eigenenergy(idx: SpectrumIndex, scales: DerivedScales) -> float:
    """Exact eigenenergy in joules, both polarization zero-points included."""
    return _eigenenergy(idx, scales.omega_tilde, scales.gamma)


def eigenenergy_no_a2(idx: SpectrumIndex, omega: float,
                      omega_p: float) -> float:
    """Spectrum of the truncated model without the diamagnetic term.

    The mode keeps its bare frequency and the collective factor becomes
    gamma' = omega_p^2/omega^2, which is unbounded: the witness built on it
    shows the absence of a ground state.
    """
    return _eigenenergy(idx, omega, (_non_negative(omega_p, "omega_p")
                                     / _positive(omega, "omega")) ** 2)


def _eigenenergy(idx: SpectrumIndex, omega: float, coupling: float) -> float:
    """The one spectrum: coupling is gamma with the A^2 term, gamma' without."""
    hbar, m_e = CODATA2018.hbar, CODATA2018.m_e
    k2 = idx.K[0] ** 2 + idx.K[1] ** 2
    photon = hbar * omega * (idx.n1 + idx.n2 + 1)
    matter = (hbar**2 / (2.0 * m_e)) * (
        idx.kinetic_sum - coupling * k2 / idx.n_electrons)
    return photon + matter


def ground_photon_occupation(omega: float, omega_p: float) -> float:
    """Virtual photon number in the ground state: (omega_t - omega)^2/(2 omega omega_t)."""
    omega_t = dressed_frequency(omega, omega_p)
    return (omega_t - omega) ** 2 / (2.0 * omega * omega_t)


@dataclass(frozen=True)
class DistributionMoments:
    """Moments of a spin-summed occupancy f(k): all carry powers of 1/m.

    t_d   = (1/(2 pi)^2) int f k^2   (1/m^4)
    k_d   = (1/(2 pi)^2) int f k     (1/m^3, 2-vector)
    n_2d  = (1/(2 pi)^2) int f       (1/m^2)
    """

    t_d: float
    k_d: tuple[float, float]
    n_2d: float


class OccupancyGrid:
    """Uniform rectangular k-space grid of spin-summed occupancies f in [0, 2].

    f[i, j] is the occupancy of the cell centered at (kx[i], ky[j]); cell
    centers sit on the universal lattice ((i+1/2)h, (j+1/2)h) so that two
    grids differing by an integer number of cells are exact translates.
    """

    def __init__(self, kx: np.ndarray, ky: np.ndarray, f: np.ndarray):
        kx = np.asarray(kx, dtype=float)
        ky = np.asarray(ky, dtype=float)
        f = np.asarray(f, dtype=float)
        if kx.ndim != 1 or ky.ndim != 1 or f.shape != (kx.size, ky.size):
            raise DomainError("grid shape mismatch: f must be (len(kx), len(ky))")
        if kx.size == 0 or ky.size == 0:
            raise DomainError("empty grid")
        for axis in (kx, ky):
            if axis.size > 1:
                d = np.diff(axis)
                if not np.allclose(d, d[0], rtol=1e-9, atol=0.0) or d[0] <= 0:
                    raise DomainError("grid axes must be uniform and increasing")
        self.kx = kx
        self.ky = ky
        self.f = np.clip(f, 0.0, MAX_OCCUPANCY)

    @property
    def spacing(self) -> tuple[float, float]:
        hx = float(self.kx[1] - self.kx[0]) if self.kx.size > 1 else 0.0
        hy = float(self.ky[1] - self.ky[0]) if self.ky.size > 1 else 0.0
        if hx == 0.0 or hy == 0.0:
            raise DomainError("grid needs at least two cells per axis")
        return hx, hy

    @classmethod
    def disk(cls, radius: float, center: tuple[float, float] = (0.0, 0.0),
             fill: float = 1.0, cells_per_radius: int = 64) -> "OccupancyGrid":
        """Disk occupancy with exact cell-overlap antialiasing.

        Cells fully inside the disk get ``fill``; boundary cells get
        fill * (overlap area)/(cell area).  fill=2 is the spin-summed full
        Fermi disk, fill=1 a singly-occupied one.
        """
        _positive(radius, "radius")
        if not 0.0 < fill <= MAX_OCCUPANCY:
            raise DomainError(f"fill must lie in (0, {MAX_OCCUPANCY}], got {fill}")
        if cells_per_radius < 2:
            raise DomainError("cells_per_radius must be at least 2")
        h = radius / cells_per_radius
        # cell centers lie within reach + h/2 <= 1.5 radius of the center
        # per axis, so every square on the grid is at most 4.5 radius^2
        _finite(4.5 * _pow(radius, 2),
                f"4.5 radius^2, the grid's largest square, at radius = "
                f"{radius!r}")
        reach = radius * DISK_MARGIN
        # past 2**53 cells from the origin the cell indices are no longer
        # exact floats; NaN and inf fail the comparison too
        cx, cy = center
        if not all((abs(c) + reach) / h < 2.0**53 for c in (cx, cy)):
            raise DomainError(f"center must be finite and under 2**53 cells "
                              f"of h = {h!r} from the origin, got {center}")
        i_lo = math.floor((cx - reach) / h)
        i_hi = math.ceil((cx + reach) / h)
        j_lo = math.floor((cy - reach) / h)
        j_hi = math.ceil((cy + reach) / h)
        kx = (np.arange(i_lo, i_hi) + 0.5) * h
        ky = (np.arange(j_lo, j_hi) + 0.5) * h
        dx, dy = kx - cx, ky - cy
        dist_sq = dx[:, None] ** 2 + dy[None, :] ** 2
        half_diag = h * math.sqrt(0.5)
        inner_sq = (radius - half_diag) ** 2
        f = np.where(dist_sq <= inner_sq, fill, 0.0)
        i, j = np.nonzero((dist_sq > inner_sq)
                          & (dist_sq < (radius + half_diag) ** 2))
        x_mid, y_mid = dx[i], dy[j]
        area = _disk_cell_overlaps(x_mid - h / 2, x_mid + h / 2,
                                   y_mid - h / 2, y_mid + h / 2, radius)
        f[i, j] = fill * area / (h * h)
        return cls(kx, ky, f)

    def to_csv(self, target: str | Path | TextIO) -> None:
        """Write (kx, ky, f) triples for every cell, header ``kx,ky,f``."""
        if isinstance(target, (str, Path)):
            with open(target, "w", newline="") as fh:
                self.to_csv(fh)
            return
        # CRLF line ends, as the csv module's default dialect writes them
        target.write("kx,ky,f\r\n")
        nx, ny = self.kx.size, self.ky.size
        target.write(format_rows(zip(np.repeat(self.kx, ny).tolist(),
                                     np.tile(self.ky, nx).tolist(),
                                     self.f.ravel().tolist()), end="\r\n"))

    @classmethod
    def from_csv(cls, source: str | Path | TextIO) -> "OccupancyGrid":
        if isinstance(source, (str, Path)):
            with open(source, newline="") as fh:
                return cls.from_csv(fh)
        reader = csv.reader(source)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["kx", "ky", "f"]:
            raise DomainError("expected CSV header kx,ky,f")
        rows = [(float(a), float(b), float(c)) for a, b, c in reader]
        if not rows:
            raise DomainError("empty grid")
        data = np.asarray(rows)
        kx = np.unique(data[:, 0])
        ky = np.unique(data[:, 1])
        if kx.size * ky.size != data.shape[0]:
            raise DomainError("CSV rows do not form a complete rectangular grid")
        f = np.empty((kx.size, ky.size))
        ix = np.searchsorted(kx, data[:, 0])
        iy = np.searchsorted(ky, data[:, 1])
        f[ix, iy] = data[:, 2]
        return cls(kx, ky, f)


def _disk_cell_overlap(x0: float, x1: float, y0: float, y1: float,
                       radius: float) -> float:
    """Exact area of [x0,x1]x[y0,y1] intersected with the origin-centered disk."""
    a = max(x0, -radius)
    b = min(x1, radius)
    if b <= a:
        return 0.0

    def phi(x: float) -> float:
        # antiderivative of sqrt(R^2 - x^2)
        t = max(radius * radius - x * x, 0.0)
        s = math.sqrt(t)
        return 0.5 * (x * s + radius * radius
                      * math.asin(min(1.0, max(-1.0, x / radius))))

    def chord(t: float, lo: float, hi: float) -> float:
        # integral over [lo, hi] of min(t, sqrt(R^2 - x^2)), t >= 0
        if hi <= lo:
            return 0.0
        if t >= radius:
            return phi(hi) - phi(lo)
        xc = math.sqrt(radius * radius - t * t)
        total = 0.0
        left_hi = min(hi, -xc)
        if left_hi > lo:
            total += phi(left_hi) - phi(lo)
        mid_lo, mid_hi = max(lo, -xc), min(hi, xc)
        if mid_hi > mid_lo:
            total += t * (mid_hi - mid_lo)
        right_lo = max(lo, xc)
        if hi > right_lo:
            total += phi(hi) - phi(right_lo)
        return total

    def clip_integral(y: float) -> float:
        if y == 0.0:
            return 0.0
        return math.copysign(chord(abs(y), a, b), y)

    return clip_integral(y1) - clip_integral(y0)


def _disk_cell_overlaps(x0: np.ndarray, x1: np.ndarray, y0: np.ndarray,
                        y1: np.ndarray, radius: float) -> np.ndarray:
    """``_disk_cell_overlap`` over arrays of cells, in one numpy pass.

    Each branch of the scalar function becomes a mask, and every term is
    the same expression on the same operands, so a cell's area differs from
    the scalar one only where numpy's arcsin and math.asin round apart.
    Both cancel in phi(hi) - phi(lo) ~ R^2 for a cell of area h^2, so either
    is accurate to a few eps * (R/h)^2 relative.
    """
    r2 = radius * radius
    a = np.maximum(x0, -radius)
    b = np.minimum(x1, radius)

    def phi(x):
        # antiderivative of sqrt(R^2 - x^2)
        s = np.sqrt(np.maximum(r2 - x * x, 0.0))
        return 0.5 * (x * s + r2 * np.arcsin(np.clip(x / radius, -1.0, 1.0)))

    def chord(t):
        # integral over [a, b] of min(t, sqrt(R^2 - x^2)), t >= 0
        xc = np.sqrt(np.maximum(r2 - t * t, 0.0))
        left_hi = np.minimum(b, -xc)
        mid_lo, mid_hi = np.maximum(a, -xc), np.minimum(b, xc)
        right_lo = np.maximum(a, xc)
        total = (np.where(left_hi > a, phi(left_hi) - phi(a), 0.0)
                 + np.where(mid_hi > mid_lo, t * (mid_hi - mid_lo), 0.0)
                 + np.where(b > right_lo, phi(b) - phi(right_lo), 0.0))
        return np.where(t >= radius, phi(b) - phi(a), total)

    def clip_integral(y):
        return np.where(y == 0.0, 0.0, np.copysign(chord(np.abs(y)), y))

    return np.where(b > a, clip_integral(y1) - clip_integral(y0), 0.0)


def distribution_moments(grid: OccupancyGrid) -> DistributionMoments:
    """Midpoint-rule moments with measure d^2k/(2 pi)^2 over the stored f.

    The weights kx, ky and kx^2 + ky^2 are separable, so the momentum and
    kinetic moments come from the row and column sums of f.
    """
    hx, hy = grid.spacing
    w = hx * hy / (2.0 * math.pi) ** 2
    f = grid.f
    rows = f.sum(axis=1)     # f 1: occupancy per kx column of cells
    cols = f.sum(axis=0)     # 1^T f: occupancy per ky row of cells
    n_2d = w * float(f.sum())
    kdx = w * float(grid.kx @ rows)
    kdy = w * float(cols @ grid.ky)
    t_d = w * float(grid.kx**2 @ rows + cols @ grid.ky**2)
    return DistributionMoments(t_d=t_d, k_d=(kdx, kdy), n_2d=n_2d)


def energy_density(m: DistributionMoments, q: tuple[float, float],
                   gamma: float) -> float:
    """Ground-state energy per area (J/m^2) of the boosted distribution.

    The distribution is rigidly shifted by q; the collective term removes a
    gamma fraction of the center-of-mass kinetic energy:

        E = (hbar^2/2 m_e) [ t_d + 2 q.K + q^2 n
                             - (gamma/n) * |K + q n|^2 ].
    """
    _positive(m.n_2d, "the density m.n_2d")
    _non_negative(gamma, "gamma")
    qx, qy = q
    if not (math.isfinite(qx) and math.isfinite(qy)):
        raise DomainError(f"q must be finite, got {q}")
    kx, ky = m.k_d
    bracket = (m.t_d + 2.0 * (qx * kx + qy * ky)
               + (_pow(qx, 2) + _pow(qy, 2)) * m.n_2d
               - (gamma / m.n_2d) * (_pow(kx + qx * m.n_2d, 2)
                                     + _pow(ky + qy * m.n_2d, 2)))
    return CODATA2018.hbar**2 / (2.0 * CODATA2018.m_e) * _finite(
        bracket, f"the energy density at q = {q}")


def optimal_origin(m: DistributionMoments) -> tuple[float, float]:
    """Energy-minimizing rigid shift q0 = -K_d/n_2d (independent of gamma < 1)."""
    _positive(m.n_2d, "the density m.n_2d")
    return (-m.k_d[0] / m.n_2d, -m.k_d[1] / m.n_2d)


def instability_witness(m: DistributionMoments, gamma: float,
                        qx_values: Sequence[float]) -> np.ndarray:
    """Energy density along boosts q = (q_x, 0) for super-critical coupling.

    For gamma > 1 the sequence decreases without bound at large q_x (no
    ground state); gamma = 1 gives a flat, degenerate sequence.  Sub-critical
    gamma is rejected since the witness would just find the minimum.
    """
    if _non_negative(gamma, "gamma") < 1.0:
        raise PreconditionError(
            f"witness needs gamma >= 1 (critical or beyond), got {gamma}")
    qx = np.asarray(qx_values, dtype=float)
    if not np.isfinite(qx).all():
        raise DomainError("qx_values must be finite")
    return np.array([energy_density(m, (q, 0.0), gamma)
                     for q in qx.tolist()])
