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
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, dropwhile, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from .constants import CODATA2018
from .core import (DerivedScales, _finite, _non_negative, _positive,
                   _scaled, dressed_frequency)
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
        if not np.isfinite(ks).all():
            raise DomainError(f"momenta must be finite, got {ks.tolist()}")
        kx, ky, kinetic_sum = _finite(
            lambda: (ks[:, 0].sum(), ks[:, 1].sum(), (ks**2).sum()),
            f"the sum K or kinetic_sum of {ks.shape[0]} momenta")
        return cls(n1, n2, (float(kx), float(ky)), float(kinetic_sum),
                   ks.shape[0])


def eigenenergy(idx: SpectrumIndex, scales: DerivedScales) -> float:
    """Exact eigenenergy in joules, both polarization zero-points included;
    an energy past the float range, int photon numbers too, raises
    DomainError.  It is eigenenergy_no_a2 at the dressed frequency omega_t,
    where the coupling (omega_p/omega_t)^2 is gamma."""
    return eigenenergy_no_a2(idx, scales.omega_tilde, scales.omega_p)


def eigenenergy_no_a2(idx: SpectrumIndex, omega: float,
                      omega_p: float) -> float:
    """Spectrum of the truncated model without the diamagnetic term.

    The mode keeps its bare frequency and the collective factor becomes
    gamma' = omega_p^2/omega^2, which is unbounded: the witness built on it
    shows the absence of a ground state.
    """
    _non_negative(omega_p, "omega_p")
    _positive(omega, "omega")
    return _spectrum(
        lambda: CODATA2018.hbar * omega * (idx.n1 + idx.n2 + 1),
        idx.kinetic_sum, (omega_p, omega), lambda: idx.K, idx.n_electrons,
        f"the energy at omega = {omega!r}, omega_p = {omega_p!r}")


def _spectrum(photon, kinetic_sum, r, v, n, what: str) -> float:
    """The one spectrum, E = photon + (hbar^2/2 m_e)(kinetic_sum -
    |r v|^2/n), of the single-mode, the continuum and the many-mode theory,
    with its one range check.

    r = p/q, the root of the collective coupling, comes as the pair (p, q).
    The matter term is formed in exact rationals on these floats and
    rounded once, so only E itself can leave the float range: v is first
    divided by the power of two that brings its largest component into
    [1/2, 1) (``core._scaled``, exact), so that |v|^2 is one float sum of
    squares, and that power comes back exactly.  photon and v are functions
    of no arguments, evaluated in core._finite: an int past the float range,
    an overflow or a NaN anywhere is a DomainError naming ``what``.
    """
    def energy():
        vec = v()
        top = float(max(map(abs, vec)))
        top_s, *v_s = _scaled(top, top, *vec)
        v2 = Fraction(math.fsum(x * x for x in v_s))
        # r |v| / |v_s| = (p/q)(top/top_s); top_s is 0 only where v is 0
        root = (Fraction(r[0]) * Fraction(top)
                / (Fraction(r[1]) * Fraction(top_s or 1.0)))
        return photon() + float(Fraction(
            CODATA2018.hbar**2 / (2.0 * CODATA2018.m_e))
            * (Fraction(kinetic_sum) - root * root * v2 / n))
    return _finite(energy, what)


def ground_photon_occupation(omega: float, omega_p: float) -> float:
    """Virtual photon number in the ground state: (omega_t - omega)^2/(2 omega omega_t).

    omega_t - omega is taken as omega_p^2/(omega_t + omega), which does not
    cancel at weak coupling.  The number depends on the ratio omega_p/omega
    alone, so both frequencies are first ``core._scaled`` by the larger,
    which keeps omega_t + omega in range; past omega_p/omega = 2^1021 by
    2^1021 omega instead, which keeps omega a normal float.
    """
    _positive(omega, "omega")
    _non_negative(omega_p, "omega_p")
    by = max(omega, min(omega_p, 2.0**1021 * omega))

    def number():
        w, w_p = _scaled(by, omega, omega_p)
        w_t = dressed_frequency(w, w_p)
        shift = w_p * (w_p / (w_t + w))   # omega_t - omega, scaled
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
        # numbers the lines read, the header being line 1; numpy reads one
        # line at a time and stops at the bad one, so the next number less
        # one is its file line, blank and # lines counted.  loadtxt warns on
        # a body without data, so the first row is found here, past the
        # blank and # lines that loadtxt skips after it
        numbers = count(2)
        lines = dropwhile(lambda line: not line.split("#")[0].strip(),
                          map(itemgetter(1), zip(numbers, source)))
        if not (first := next(lines, "")):
            raise DomainError("empty grid")
        try:
            data = np.loadtxt(chain([first], lines), delimiter=",", ndmin=2)
        except ValueError as err:
            msg = str(err).split(";")[0]   # drop the hint to use usecols
            raise DomainError("malformed CSV row: " + re.sub(
                r"at row \d+", f"at the row on line {next(numbers) - 1}",
                msg)) from err
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
    and xc = sqrt((R - |y|)(R + |y|)), min(|x|, xc) |y| + seg(xc) -
    seg(max(|x|, xc)), seg(x) the disk's area in [x, R]x[0, inf),
    (R^2 theta - x sqrt((R - x)(R + x)))/2 with theta = 2 asin(sqrt((R -
    x)/(2R))).  R - x is exact near the rim, so seg keeps its relative
    accuracy there, where the antiderivative of sqrt(R^2 - x^2) loses half
    its digits.  The four Q ~ R^2 cancel to a cell of area h^2, so an area
    is accurate to a few eps * (R/h)^2 relative.
    """
    r2 = radius * radius

    def seg(x):
        # x in [0, R], so neither operand leaves the domain
        d = radius - x
        return (r2 * np.arcsin(np.sqrt(d / (2.0 * radius)))
                - 0.5 * x * np.sqrt(d * (radius + x)))

    def signed_strip(y):
        # Q(x1, y) - Q(x0, y)
        ay = np.minimum(np.abs(y), radius)
        # sqrt rounds up past R when R^2 is subnormal
        xc = np.minimum(np.sqrt((radius - ay) * (radius + ay)), radius)
        seg_c = seg(xc)

        def quadrant(x):
            ax = np.minimum(np.abs(x), radius)
            return np.sign(x) * (np.minimum(ax, xc) * ay
                                 + (seg_c - seg(np.maximum(ax, xc))))
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
    n = _positive(m.n_2d, "the density m.n_2d")
    _non_negative(gamma, "gamma")
    qx, qy = q
    if not (math.isfinite(qx) and math.isfinite(qy)):
        raise DomainError(f"q must be finite, got {q}")
    # the bracket is homogeneous of degree 2 in (q, k_d, sqrt(t_d)), so it
    # is formed on q, k_d and t_d times s, s^2, powers of two (exact), and
    # multiplied once by hbar^2/2m_e/s^2 (exact); root bounds the square
    # roots of its terms, and s brings it into [1/2, 1) within [2^-448,
    # 2^574], where that factor stays a normal float.  q and u = k_d +
    # q n_2d meet n_2d before they are squared
    root = max(math.sqrt(abs(m.t_d)), math.hypot(qx, qy) * math.sqrt(n),
               math.hypot(*m.k_d) / math.sqrt(n)) * max(1.0, math.sqrt(gamma))
    s, = _scaled(min(max(root, 2.0**-448), 2.0**574), 1.0)
    t, qx, qy, kx, ky = m.t_d * s * s, qx * s, qy * s, *(k * s for k in m.k_d)
    ux, uy = kx + qx * n, ky + qy * n
    return _finite(lambda: CODATA2018.hbar**2 / (2.0 * CODATA2018.m_e) / s / s
                   * (t + 2.0 * (qx * kx + qy * ky) + qx * (qx * n) + qy * (qy * n)
                      - gamma * (ux * (ux / n) + uy * (uy / n))),
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
