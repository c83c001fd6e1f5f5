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
with exact cell/disk overlap areas (signed sums of four quadrant areas) so
grid quadrature converges at O(h^2); each row's inside and rim cells are
runs of columns whose ends a bisection finds, so a disk grid holds no N x N
array but its occupancies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from .constants import CODATA2018
from .core import (DerivedScales, _finite, _non_negative, _positive,
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
        values = (*self.K, self.kinetic_sum, self.n_electrons)
        what = (f"K = {self.K}, kinetic_sum = {self.kinetic_sum}, "
                f"n_electrons = {self.n_electrons}")
        # math.isfinite raises OverflowError for an int past the float
        # range, which _finite counts as leaving it
        if not _finite(lambda: all(map(math.isfinite, values)), what):
            raise DomainError(f"K and kinetic_sum must be finite, got {what}")
        # |K|^2 of the floats of K, so an int K acts as its float: an
        # overflowing |K|^2 is inf, which Cauchy-Schwarz then rejects
        kx, ky = map(float, self.K)
        k2 = kx * kx + ky * ky
        # Cauchy-Schwarz: sum k_j^2 >= |sum k_j|^2 / N for any momentum list,
        # up to rounding: relative, and where squares are subnormal half the
        # smallest subnormal for each of the 2N + 2 squares and the quotient
        if self.kinetic_sum < (k2 / self.n_electrons * (1.0 - 1e-12)
                               - (self.n_electrons + 2) * math.ulp(0.0)):
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
    _non_negative(omega_p, "omega_p")
    _positive(omega, "omega")
    return _finite(lambda: _eigenenergy(idx, omega, (omega_p / omega) ** 2),
                   f"the energy at omega = {omega!r}, omega_p = {omega_p!r}")


def _eigenenergy(idx: SpectrumIndex, omega: float, coupling: float) -> float:
    """The one spectrum: coupling is gamma with the A^2 term, gamma' without."""
    hbar, m_e = CODATA2018.hbar, CODATA2018.m_e
    k2 = idx.K[0] ** 2 + idx.K[1] ** 2
    photon = hbar * omega * (idx.n1 + idx.n2 + 1)
    matter = (hbar**2 / (2.0 * m_e)) * (
        idx.kinetic_sum - coupling * k2 / idx.n_electrons)
    return photon + matter


def ground_photon_occupation(omega: float, omega_p: float) -> float:
    """Virtual photon number in the ground state: (omega_t - omega)^2/(2 omega omega_t).

    omega_t - omega is taken as omega_p^2/(omega_t + omega), which does not
    cancel at weak coupling.  The number depends on the ratio omega_p/omega
    alone, so the three frequencies are first scaled by one power of two,
    which keeps omega_t + omega in range and is exact unless omega is below
    2^-1022 omega_t.
    """
    omega_t = dressed_frequency(omega, omega_p)
    e = -math.frexp(omega_t)[1]
    w, w_p, w_t = (math.ldexp(x, e) for x in (omega, omega_p, omega_t))

    def number():
        shift = w_p * (w_p / (w_t + w))   # (omega_t - omega) 2^e
        return (shift / w_t) * (shift / (2.0 * w))
    return _finite(number, f"the photon number at omega = {omega!r}, "
                           f"omega_p = {omega_p!r}")


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
        if not (_uniform(kx) and _uniform(ky)):
            raise DomainError("grid axes must be uniform and increasing")
        # np.clip passes NaN, which would make every moment NaN
        if not np.isfinite(f).all():
            raise DomainError("occupancies f must be finite")
        self.kx, self.ky, self.f = kx, ky, np.clip(f, 0.0, MAX_OCCUPANCY)

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
        Fermi disk, fill=1 a singly-occupied one.  ``center`` must leave the
        cell centers (i + 1/2) h uniform, the axis rule of every grid: a
        few million cells from the origin for most h, up to 2**52 for
        h = 2**k; past that a DomainError names center and h.
        """
        _positive(radius, "radius")
        if not 0.0 < fill <= MAX_OCCUPANCY:
            raise DomainError(f"fill must lie in (0, {MAX_OCCUPANCY}], got {fill}")
        if cells_per_radius < 2:
            raise DomainError("cells_per_radius must be at least 2")
        h = radius / cells_per_radius
        # cell centers lie within reach + h/2 <= 1.5 radius of the center
        # per axis, so every square on the grid is at most 4.5 radius^2; the
        # cell area h^2, which divides each overlap, must not underflow to 0
        _finite(lambda: 4.5 * radius**2 / (h * h),
                f"4.5 radius^2, the grid's largest square, over the cell "
                f"area h^2 at radius = {radius!r}")
        reach = radius * DISK_MARGIN
        cx, cy = center
        far = (f"center must be finite and near enough to the origin that the "
               f"cell centers (i + 1/2) h, h = {h!r}, are uniform; got {center}")
        # a size guard only, which NaN and inf fail too: it keeps floor and
        # np.arange exact; the axis rule below admits the center
        if not all((abs(c) + reach) / h < 2.0**53 for c in (cx, cy)):
            raise DomainError(far)
        kx = (np.arange(math.floor((cx - reach) / h),
                        math.ceil((cx + reach) / h)) + 0.5) * h
        ky = (np.arange(math.floor((cy - reach) / h),
                        math.ceil((cy + reach) / h)) + 0.5) * h
        if not (_uniform(kx) and _uniform(ky)):
            raise DomainError(far)
        dx, dy = kx - cx, ky - cy
        half_diag = h * math.sqrt(0.5)
        a_out, a_in, b_in, b_out = _disk_row_runs(
            dx, dy, (radius - half_diag) ** 2, (radius + half_diag) ** 2)
        cols = np.arange(ky.size)
        f = np.where((cols >= a_in[:, None]) & (cols < b_in[:, None]),
                     fill, 0.0)
        # the rim cells in np.nonzero's order: row by row, the run left of
        # the inside cells and then the run right of them
        starts = np.stack([a_out, b_in], axis=1).ravel()
        counts = np.stack([a_in - a_out, b_out - b_in], axis=1).ravel()
        i = np.repeat(np.arange(kx.size).repeat(2), counts)
        j = np.arange(counts.sum()) + np.repeat(
            starts - (np.cumsum(counts) - counts), counts)
        x_mid, y_mid = dx[i], dy[j]
        area = _disk_cell_overlaps(x_mid - h / 2, x_mid + h / 2,
                                   y_mid - h / 2, y_mid + h / 2, radius)
        # an overlap can round past a full cell, and a near-empty corner
        # cell below 0
        f[i, j] = np.clip(fill * area / (h * h), 0.0, MAX_OCCUPANCY)
        grid = cls.__new__(cls)
        grid.kx, grid.ky, grid.f = kx, ky, f
        return grid

    def to_csv(self, target: str | Path | TextIO) -> None:
        """Write (kx, ky, f) triples for every cell, header ``kx,ky,f``."""
        if isinstance(target, (str, Path)):
            with open(target, "w", newline="") as fh:
                self.to_csv(fh)
            return
        # CRLF line ends, as the csv module's default dialect writes them
        target.write("kx,ky,f\r\n")
        # each axis value is formatted once, and one kx row written at a time
        ky = [str(y) for y in self.ky.tolist()]
        for x, row in zip(self.kx.tolist(), self.f):
            target.write(format_rows(zip(repeat(str(x)), ky, row.tolist()),
                                     end="\r\n"))

    @classmethod
    def from_csv(cls, source: str | Path | TextIO) -> "OccupancyGrid":
        """Read the rows of ``to_csv``, in any order, into one float array
        whose distinct kx and ky values are the axes; every (kx, ky) pair
        must appear."""
        if isinstance(source, (str, Path)):
            with open(source) as fh:
                return cls.from_csv(fh)
        header = source.readline().split(",")
        if [h.strip() for h in header] != ["kx", "ky", "f"]:
            raise DomainError("expected CSV header kx,ky,f")
        # loadtxt warns on a body without data, so the first row is read here
        first = source.readline()
        if not first.strip():
            raise DomainError("empty grid")
        # a field that is not a float, or a row whose width differs from
        # the first: numpy's message names the row and the column
        try:
            data = np.loadtxt(chain([first], source), delimiter=",", ndmin=2)
        except ValueError as err:
            raise DomainError(f"malformed CSV row: {err}") from err
        if data.shape[1] != 3:
            raise DomainError(f"expected 3 fields kx,ky,f per CSV row, got "
                              f"{data.shape[1]} in every row")
        kx, ix = np.unique(data[:, 0], return_inverse=True)
        ky, iy = np.unique(data[:, 1], return_inverse=True)
        if kx.size * ky.size != data.shape[0]:
            raise DomainError("CSV rows do not form a complete rectangular grid")
        f = np.empty((kx.size, ky.size))
        f[ix, iy] = data[:, 2]
        return cls(kx, ky, f)


def _uniform(axis: np.ndarray) -> bool:
    """One value, or increasing in steps equal to 1e-9 relative."""
    d = np.diff(axis)
    return d.size == 0 or bool(
        d[0] > 0 and np.allclose(d, d[0], rtol=1e-9, atol=0.0))


def _disk_row_runs(dx: np.ndarray, dy: np.ndarray, inner_sq: float,
                   outer_sq: float) -> np.ndarray:
    """Per row i, the ends a_out <= a_in <= b_in <= b_out of the cells j
    with d = dx[i]**2 + dy[j]**2 <= inner_sq (the run [a_in, b_in)) and
    inner_sq < d < outer_sq (the runs [a_out, a_in) and [b_in, b_out)).

    dy**2 falls along j up to split = searchsorted(dy, 0.0) and rises after
    it, and a float sum is monotone in each term, so on each side of split
    every comparison flips at most once.  One bisection finds all four
    ends of every row, in ~log2(len(dy)) steps on (4, len(dx)) arrays, from
    the same sums and comparisons as the full len(dx) x len(dy) matrix.
    """
    dx2, dy2 = dx ** 2, dy ** 2
    ny = dy.size
    split = int(np.searchsorted(dy, 0.0))
    # d <= inner_sq is d < the next float up
    above_inner = np.nextafter(inner_sq, math.inf)
    bound = np.array([outer_sq, above_inner, above_inner, outer_sq])[:, None]
    # a_out and a_in are the first j before split inside their bound,
    # b_in and b_out the first j from split on outside it
    falling = np.array([True, True, False, False])[:, None]
    base = np.where(falling, 0, split)
    n = np.where(falling, split, ny - split)

    def before_end(j):
        return (dx2 + dy2[j] < bound) != falling

    # the end lies in [base, base + n]; halve n down to 1
    for _ in range(int(n.max() - 1).bit_length()):
        half = n >> 1
        probe = base + half
        base = np.where(before_end(probe), probe, base)
        n -= half
    return base + before_end(base)


def _disk_cell_overlaps(x0: np.ndarray, x1: np.ndarray, y0: np.ndarray,
                        y1: np.ndarray, radius: float) -> np.ndarray:
    """Exact areas of the cells [x0,x1]x[y0,y1] inside the origin-centered
    disk, in one numpy pass.

    The disk is symmetric in both axes, so a cell's area is
    Q(x1,y1) - Q(x0,y1) - Q(x1,y0) + Q(x0,y0), with Q(x, y) sign(x) sign(y)
    times the disk's area in [0,|x|]x[0,|y|]: with |x| and |y| clamped to R
    and xc = sqrt(R^2 - y^2), min(|x|, xc) |y| + phi(max(|x|, xc)) - phi(xc),
    phi the antiderivative of sqrt(R^2 - x^2).  The four Q ~ R^2 cancel to
    a cell of area h^2, so an area is accurate to a few eps * (R/h)^2
    relative, as is the scalar oracle ``_disk_cell_overlap`` in
    tests/test_singlemode.py, which integrates chords instead.
    """
    r2 = radius * radius

    def phi(x):
        # x in [0, R], so neither operand leaves the domain
        return 0.5 * (x * np.sqrt(r2 - x * x) + r2 * np.arcsin(x / radius))

    def signed_strip(y):
        # Q(x1, y) - Q(x0, y)
        ay = np.minimum(np.abs(y), radius)
        # sqrt rounds up past R when R^2 is subnormal
        xc = np.minimum(np.sqrt(r2 - ay * ay), radius)
        phi_c = phi(xc)

        def quadrant(x):
            ax = np.minimum(np.abs(x), radius)
            return np.sign(x) * (np.minimum(ax, xc) * ay
                                 + (phi(np.maximum(ax, xc)) - phi_c))
        return np.sign(y) * (quadrant(x1) - quadrant(x0))

    return signed_strip(y1) - signed_strip(y0)


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
    return CODATA2018.hbar**2 / (2.0 * CODATA2018.m_e) * _finite(
        lambda: (m.t_d + 2.0 * (qx * kx + qy * ky) + (qx**2 + qy**2) * m.n_2d
                 - (gamma / m.n_2d) * ((kx + qx * m.n_2d) ** 2
                                       + (ky + qy * m.n_2d) ** 2)),
        f"the energy density at q = {q}")


def optimal_origin(m: DistributionMoments) -> tuple[float, float]:
    """Energy-minimizing rigid shift q0 = -K_d/n_2d (independent of gamma < 1)."""
    _positive(m.n_2d, "the density m.n_2d")
    return _finite(lambda: (-m.k_d[0] / m.n_2d, -m.k_d[1] / m.n_2d),
                   f"-k_d/n_2d at k_d = {m.k_d}, n_2d = {m.n_2d!r}")


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
