"""Exact single-mode spectrum, disk occupancies, and ground-state machinery.

Numerical oracles used here:
  * cell/disk overlap: 1D adaptive quadrature of the chord length with
    breakpoints at every kink of the integrand; the scalar overlap, cell by
    cell, is in turn the oracle of the one-pass array overlap,
  * disk grids: the disk built from the full N x N matrix of squared
    distances, the byte oracle of the per-row runs of OccupancyGrid.disk,
  * grid CSV: the whole grid formatted in one call, the byte oracle of the
    row-by-row writer,
  * disk moments: closed-form disk integrals f k_F^2/(4 pi), f k_F^4/(8 pi).
"""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cavity2deg import (
    CODATA2018,
    DerivedScales,
    DomainError,
    OccupancyGrid,
    PreconditionError,
    SpectrumIndex,
    SystemConfig,
    distribution_moments,
    eigenenergy,
    eigenenergy_no_a2,
    energy_density,
    ground_photon_occupation,
    instability_witness,
    optimal_origin,
)
from cavity2deg.io_utils import format_rows
from cavity2deg.singlemode import (DISK_MARGIN, MAX_OCCUPANCY,
                                   _disk_cell_overlaps)

HBAR = CODATA2018.hbar
M_E = CODATA2018.m_e


def _disk_cell_overlap(x0: float, x1: float, y0: float, y1: float,
                       radius: float) -> float:
    """Exact area of [x0,x1]x[y0,y1] intersected with the origin-centered
    disk, one cell at a time: the oracle of the one-pass
    ``singlemode._disk_cell_overlaps``."""
    a = max(x0, -radius)
    b = min(x1, radius)
    if b <= a:
        return 0.0

    def phi(x: float) -> float:
        # antiderivative of sqrt(R^2 - x^2), with R - |x| exact near the
        # rim: sqrt(R^2 - x^2) and asin(x/R) written that way lose half
        # their digits there
        ax = min(abs(x), radius)
        s = math.sqrt((radius - ax) * (radius + ax))
        theta = 2.0 * math.asin(math.sqrt((radius - ax) / (2.0 * radius)))
        return 0.5 * (x * s + math.copysign(radius * radius
                                            * (0.5 * math.pi - theta), x))

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


def _mpmath_cell_area(x0: float, x1: float, y0: float, y1: float,
                      radius: float):
    """The area of [x0,x1]x[y0,y1] inside the origin-centered disk to 50
    digits: mpmath.quad of the chord length over y, with breakpoints where
    the circle meets x = x0 or x1, so no antiderivative is shared with the
    code under test."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x0, x1, y0, y1, r = map(mpmath.mpf, (x0, x1, y0, y1, radius))
        lo, hi = max(y0, -r), min(y1, r)
        if hi <= lo:
            return mpmath.mpf(0)

        def chord(y):
            c = mpmath.sqrt(r * r - y * y)
            return max(mpmath.mpf(0), min(x1, c) - max(x0, -c))
        ys = {lo, hi} | {s * mpmath.sqrt((r - abs(x)) * (r + abs(x)))
                         for x in (x0, x1) if abs(x) < r for s in (1, -1)}
        return mpmath.quad(chord, sorted(y for y in ys if lo <= y <= hi))


def _reference_disk(radius: float, center: tuple[float, float], fill: float,
                    cells_per_radius: int):
    """(kx, ky, f) of OccupancyGrid.disk built on the full N x N matrix of
    squared distances, before the grid clips f: OccupancyGrid(kx, ky, f)
    is the byte oracle of the per-row runs of ``OccupancyGrid.disk``."""
    h = radius / cells_per_radius
    reach = radius * DISK_MARGIN
    cx, cy = center
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
    return kx, ky, f


def _disk_corpus():
    """Seeded (radius, center, fill, cells_per_radius) cases: radii over
    1e-5..1e9, the smallest resolutions, the full fill 2.0, and centers at
    the origin, on cell corners, on cell centers and off the grid's
    middle."""
    rng = np.random.default_rng(19)
    cases = []
    for k in range(320):
        cpr = int(rng.choice([2, 3, 5, 7, 16, 33, 64]))
        radius = float(10.0 ** rng.uniform(-5.0, 9.0))
        if k < 2:
            radius = (1e-5, 1e9)[k]
        fill = float(rng.choice([2.0, 2.0, 1.0, 0.7, rng.uniform(0.01, 2.0)]))
        h = radius / cpr
        corner = rng.integers(-50, 50, 2)
        center = [(0.0, 0.0), tuple(corner * h), tuple((corner + 0.5) * h),
                  tuple(radius * rng.uniform(-3.0, 3.0, 2))][k % 4]
        cases.append((radius, tuple(map(float, center)), fill, cpr))
    return cases


def overlap_quad_oracle(x0, x1, y0, y1, radius):
    """Independent overlap area: integrate the chord length over y.

    The integrand has kinks where the circle crosses x0, x1 or turns
    around (y = 0, +-R); those are passed to quad as breakpoints.
    """
    lo, hi = max(y0, -radius), min(y1, radius)
    if hi <= lo:
        return 0.0

    def chord(y):
        xc = math.sqrt(max(radius**2 - y * y, 0.0))
        return max(0.0, min(x1, xc) - max(x0, -xc))

    pts = {0.0, -radius, radius}
    for edge in (x0, x1):
        if abs(edge) < radius:
            yc = math.sqrt(radius**2 - edge**2)
            pts.update((yc, -yc))
    pts = sorted(p for p in pts if lo < p < hi)
    val, _ = quad(chord, lo, hi, points=pts or None, limit=200,
                  epsabs=1e-14, epsrel=1e-12)
    return val


class TestSpectrumIndex:
    def test_cauchy_schwarz_guard(self):
        # sum k^2 >= |K|^2/N for any real momentum list
        SpectrumIndex(0, 0, (3.0, 4.0), kinetic_sum=25.0, n_electrons=1)
        with pytest.raises(PreconditionError):
            SpectrumIndex(0, 0, (3.0, 4.0), kinetic_sum=24.0, n_electrons=1)
        SpectrumIndex(0, 0, (3.0, 4.0), kinetic_sum=13.0, n_electrons=2)
        with pytest.raises(PreconditionError):
            SpectrumIndex(0, 0, (3.0, 4.0), kinetic_sum=12.0, n_electrons=2)

    def test_photon_and_count_guards(self):
        with pytest.raises(PreconditionError):
            SpectrumIndex(-1, 0, (0.0, 0.0), 0.0, 1)
        with pytest.raises(PreconditionError):
            SpectrumIndex(0, 0, (0.0, 0.0), 0.0, 0)

    def test_from_momenta(self):
        idx = SpectrumIndex.from_momenta([(1.0, 0.0), (0.0, 2.0), (-1.0, 1.0)])
        assert idx.K == (0.0, 3.0)
        assert idx.kinetic_sum == pytest.approx(1 + 4 + 2, rel=1e-15)
        assert idx.n_electrons == 3

    @given(st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
                    min_size=1, max_size=8))
    # subnormal squares, whose rounding no relative slack absorbs
    @example([(8.442041330448203e-162, 0.0)] * 2)
    def test_from_momenta_always_satisfies_guard(self, momenta):
        # physical momentum lists can never trip the Cauchy-Schwarz check
        SpectrumIndex.from_momenta(momenta)


class TestEigenenergy:
    def test_ladder_spacing(self, si_config):
        ds = DerivedScales(si_config)
        ground = SpectrumIndex(0, 0, (0.0, 0.0), 0.0, 10)
        e0 = eigenenergy(ground, ds)
        assert e0 == pytest.approx(HBAR * ds.omega_tilde, rel=1e-15)
        for n1, n2 in ((1, 0), (0, 1), (2, 3)):
            idx = SpectrumIndex(n1, n2, (0.0, 0.0), 0.0, 10)
            assert eigenenergy(idx, ds) == pytest.approx(
                e0 + (n1 + n2) * HBAR * ds.omega_tilde, rel=1e-14)

    def test_collective_term(self, si_config):
        # E - ladder = (hbar^2/2m)(sum k^2 - gamma |K|^2/N)
        ds = DerivedScales(si_config)
        idx = SpectrumIndex(0, 0, (2e8, 0.0), kinetic_sum=9e16, n_electrons=4)
        e = eigenenergy(idx, ds)
        expected = (HBAR * ds.omega_tilde
                    + HBAR**2 / (2 * M_E) * (9e16 - ds.gamma * 4e16 / 4))
        assert e == pytest.approx(expected, rel=1e-14)

    def test_zero_momentum_is_gamma_independent(self):
        # at K=0 the matter part is the free gas for every coupling
        idx = SpectrumIndex(0, 0, (0.0, 0.0), kinetic_sum=5e16, n_electrons=7)
        energies = []
        for ratio in (0.1, 1.0, 5.0):
            cfg = SystemConfig.si(10**8, 1e-8, 1e-6, mode_frequency=2e13 / ratio)
            ds = DerivedScales(cfg)
            energies.append(eigenenergy(idx, ds) - HBAR * ds.omega_tilde)
        assert np.ptp(energies) <= 1e-14 * abs(energies[0])


class TestNoDiamagneticTerm:
    def test_unbounded_collective_factor(self):
        # gamma' = (omega_p/omega)^2 exceeds 1 as soon as omega_p > omega
        idx = SpectrumIndex(0, 0, (1e8, 0.0), kinetic_sum=1e16, n_electrons=1)
        omega, omega_p = 1e13, 2e13
        e = eigenenergy_no_a2(idx, omega, omega_p)
        gamma_p = 4.0
        expected = (HBAR * omega
                    + HBAR**2 / (2 * M_E) * (1e16 - gamma_p * 1e16))
        assert e == pytest.approx(expected, rel=1e-14)

    def test_energy_unbounded_below(self):
        # single electron boosted harder and harder: E -> -infinity
        omega, omega_p = 1e13, 2e13
        energies = []
        for k in np.logspace(7, 10, 8):
            idx = SpectrumIndex(0, 0, (k, 0.0), kinetic_sum=k * k, n_electrons=1)
            energies.append(eigenenergy_no_a2(idx, omega, omega_p))
        assert all(b < a for a, b in zip(energies, energies[1:]))
        assert energies[-1] < -1e3 * abs(energies[0])

    def test_full_model_bounded_on_same_sequence(self):
        # with the diamagnetic term kept, the same boosts cost energy
        cfg = SystemConfig.si(10**8, 1e-8, 1e-6, mode_frequency=1e13)
        ds = DerivedScales(cfg)
        assert ds.gamma < 1.0
        energies = []
        for k in np.logspace(7, 10, 8):
            idx = SpectrumIndex(0, 0, (k, 0.0), kinetic_sum=k * k, n_electrons=1)
            energies.append(eigenenergy(idx, ds))
        assert all(b > a for a, b in zip(energies, energies[1:]))


# log-uniform over [1e-320, 1.8e308]
POSITIVE_DOUBLES = st.floats(-320.0, 308.2547155599167).map(lambda e: 10.0**e)
# ratios 1e-150..1e150 at three omega scales; then calls that raised
# DomainError for an intermediate that left the float range, though their
# true values are finite (omega_t + omega overflows unless the frequencies
# are scaled, at the third; omega_t at the fourth); then calls that were
# off by up to 4e8 ulp, with subnormal frequencies, or by 13 ulp, where
# omega_p/omega > 2^1021 left omega subnormal once scaled
PHOTON_NUMBER_CASES = (
    [(omega, float(omega * r)) for omega in (1.0, 3.7e-100, 2.2e120)
     for r in 10.0 ** np.linspace(-150.0, 150.0, 1201)]
    + [(5e-76, 4e217), (1.27e-179, 0.0), (1e308, 1e308), (1.7e308, 1.7e308)]
    + [(5.603796e-318, 2.79479e-318), (9.32811e-317, 7.2979992523e-313),
       (1.4320930904019866e-172, 5.016883373970092e+136)])


def _examples(cases):
    """One hypothesis @example per argument tuple of cases."""
    def pin(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return pin


class TestGroundPhotonOccupation:
    def test_decoupled_limit(self):
        assert ground_photon_occupation(2e13, 0.0) == 0.0

    def test_hand_value(self):
        # omega_t = 1.25, (0.25)^2 / (2 * 1 * 1.25) = 0.025
        assert ground_photon_occupation(1.0, 0.75) == pytest.approx(
            0.025, abs=1e-15)

    @given(st.floats(1e-2, 1e2), st.floats(1e-80, 1e3))
    def test_positive_when_coupled(self, omega, ratio):
        # the number is ~ratio^4/8, so it stays above the smallest subnormal
        # down to ratio ~3e-81
        assert ground_photon_occupation(omega, ratio * omega) > 0.0

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(POSITIVE_DOUBLES, st.just(0.0) | POSITIVE_DOUBLES)
    @_examples(PHOTON_NUMBER_CASES)
    def test_matches_50_digit_reference(self, omega, omega_p):
        # omega_t - omega = omega_p^2/(omega_t + omega) in the reference
        # too, so it does not cancel; within a few ulp of the true value
        # (its ulp where that is subnormal, and 0.0 once it is below half
        # the smallest subnormal), and a DomainError only where the true
        # value is past the float range
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            w, w_p = mpmath.mpf(omega), mpmath.mpf(omega_p)
            w_t = mpmath.sqrt(w * w + w_p * w_p)
            want = (w_p * w_p / (w_t + w)) ** 2 / (2 * w * w_t)
            if math.isinf(float(want)):
                with pytest.raises(DomainError, match="overflows"):
                    ground_photon_occupation(omega, omega_p)
                return
            got = ground_photon_occupation(omega, omega_p)
            ulp = float(np.spacing(float(want)))
            assert abs(got - want) <= 8 * ulp, (omega, omega_p, got)

    @given(st.floats(0.1, 10.0))
    def test_monotone_in_coupling(self, omega_p):
        n1 = ground_photon_occupation(1.0, omega_p)
        n2 = ground_photon_occupation(1.0, omega_p * 1.1)
        assert n2 > n1

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            ground_photon_occupation(0.0, 1.0)
        with pytest.raises(DomainError):
            ground_photon_occupation(1.0, -0.1)


class TestDiskOverlap:
    def test_partition_identity(self):
        # cells tiling the bounding square: overlaps must sum to pi R^2
        radius, n = 1.0, 37
        edges = np.linspace(-1.1, 1.1, n + 1)
        total = sum(
            _disk_cell_overlap(edges[i], edges[i + 1], edges[j], edges[j + 1],
                               radius)
            for i in range(n) for j in range(n))
        assert total == pytest.approx(math.pi, rel=1e-13)

    def test_against_chord_quadrature(self, rng):
        radius = 1.0
        for _ in range(40):
            x0, y0 = rng.uniform(-1.3, 1.2, size=2)
            w, h = rng.uniform(0.01, 0.6, size=2)
            area = _disk_cell_overlap(x0, x0 + w, y0, y0 + h, radius)
            oracle = overlap_quad_oracle(x0, x0 + w, y0, y0 + h, radius)
            assert area == pytest.approx(oracle, abs=1e-10)

    def test_trivial_cells(self):
        assert _disk_cell_overlap(2.0, 3.0, 0.0, 1.0, 1.0) == 0.0
        # cell fully inside
        assert _disk_cell_overlap(-0.1, 0.1, -0.1, 0.1, 1.0) == pytest.approx(
            0.04, rel=1e-14)
        # cell containing the whole disk
        assert _disk_cell_overlap(-2, 2, -2, 2, 1.0) == pytest.approx(
            math.pi, rel=1e-14)


class TestVectorDisk:
    """OccupancyGrid.disk finds each row's inside and rim cells by bisection
    and evaluates all rim cells in one numpy pass.

    It matches the disk built on the full N x N distance matrix to the
    byte, and holds no N x N float array but its f.  Both the array and the
    scalar overlap cancel terms ~ R^2 to a cell of area h^2, so they agree
    to a few eps * cpr^2 * fill per cell, not to a fixed relative
    tolerance; so does a 50-digit quadrature on the cells at the rim.
    """

    def test_matches_reference_disk_to_the_byte(self):
        above = below = 0
        for radius, center, fill, cpr in _disk_corpus():
            kx, ky, raw = _reference_disk(radius, center, fill, cpr)
            want = OccupancyGrid(kx, ky, raw)
            got = OccupancyGrid.disk(radius, center=center, fill=fill,
                                     cells_per_radius=cpr)
            for a, b in ((got.kx, want.kx), (got.ky, want.ky),
                         (got.f, want.f)):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), (radius, center, fill, cpr)
            above += np.count_nonzero(raw > MAX_OCCUPANCY)
            below += np.count_nonzero(raw < 0.0)
        # the corpus reaches both changes the clip makes to the rim values:
        # overlaps that round past a full cell at fill 2.0, and corner
        # cells whose near-zero overlap rounds below 0
        assert above > 0 and below > 0

    def test_no_negative_zero(self):
        # an empty rim cell holds 0.0, never -0.0, and every f is >= 0
        for radius, center, fill, cpr in _disk_corpus():
            g = OccupancyGrid.disk(radius, center=center, fill=fill,
                                   cells_per_radius=cpr)
            assert not np.signbit(g.f).any(), (radius, center, fill, cpr)

    def test_peak_memory_is_about_one_grid(self):
        kw = dict(center=(0.1, -0.2), fill=2.0, cells_per_radius=256)
        OccupancyGrid.disk(1.3, **kw)
        tracemalloc.start()
        try:
            g = OccupancyGrid.disk(1.3, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * g.f.nbytes

    @pytest.mark.parametrize("cpr", [2, 3, 7, 32, 64, 128, 256])
    def test_cells_match_scalar_overlap(self, cpr, rng):
        for _ in range(2):
            radius = float(rng.uniform(0.5, 2.0))
            center = tuple(float(c) for c in radius * rng.uniform(-0.3, 0.3, 2))
            fill = float(rng.choice([0.7, 1.0, 2.0]))
            g = OccupancyGrid.disk(radius, center=center, fill=fill,
                                   cells_per_radius=cpr)
            h = radius / cpr
            gx, gy = g.kx - center[0], g.ky - center[1]
            dist = np.hypot(gx[:, None], gy[None, :])
            expect = np.where(dist < radius, fill, 0.0)
            # every cell the rim can touch, with a cell of margin
            for i, j in zip(*np.nonzero(np.abs(dist - radius) < 1.5 * h)):
                area = _disk_cell_overlap(gx[i] - h / 2, gx[i] + h / 2,
                                          gy[j] - h / 2, gy[j] + h / 2, radius)
                expect[i, j] = fill * area / (h * h)
            tol = 8 * np.finfo(float).eps * cpr**2 * fill
            assert np.max(np.abs(g.f - expect)) <= tol

    @pytest.mark.parametrize("cpr", [3, 64, 256])
    def test_rim_cells_match_50_digit_areas(self, cpr):
        # a cell edge k ulp inside x = +-R: sqrt(R^2 - x^2) and asin(x/R)
        # cancel to half the digits there (5e-5 of a cell at cpr 256)
        for radius in (1.0, 1.3, 0.7):
            h = radius / cpr
            for k in range(5):
                x = radius - k * math.ulp(radius)
                for x0, x1 in ((x, radius + h), (-radius - h, -x)):
                    for j in (-2, -1, 0, 1):
                        y0, y1 = j * h, (j + 1) * h
                        got = _disk_cell_overlaps(*np.array([[x0], [x1], [y0],
                                                             [y1]]), radius)
                        err = abs(got[0] - _mpmath_cell_area(x0, x1, y0, y1,
                                                             radius))
                        assert err <= 8 * np.finfo(float).eps * cpr**2 * h * h

    def test_random_rectangles_match_scalar(self, rng):
        x0, y0 = rng.uniform(-1.4, 1.3, (2, 400))
        w, h = rng.uniform(1e-3, 0.9, (2, 400))
        # outside, containing the disk, straddling an axis, touching x = R
        x0 = np.append(x0, [2.0, -2.0, -0.1, 1.0, -1.2])
        y0 = np.append(y0, [0.0, -2.0, -0.3, -0.2, 0.0])
        w = np.append(w, [1.0, 4.0, 0.2, 0.3, 0.2])
        h = np.append(h, [1.0, 4.0, 0.6, 0.4, 0.5])
        # (x0, y0, w, h): zero width or height, inside and across the rim;
        # a corner on the circle, the cell outside or inside it; straddling
        # both axes, inside the disk and across the rim
        more = np.array([
            (0.3, -0.5, 0.0, 1.0), (0.99, 0.0, 0.0, 0.5),
            (-0.5, 0.3, 1.0, 0.0), (-1.2, -0.9, 0.5, 0.0),
            (0.6, 0.8, 0.5, 0.5), (0.1, 0.3, 0.5, 0.5),
            (1.0, 0.0, 0.5, 0.5), (-0.5, 1.0, 0.5, 0.5),
            (-1.5, -0.5, 0.5, 0.5), (-0.6, -1.3, 0.6, 0.5),
            (-0.5, -0.4, 0.9, 0.7), (-0.9, -1.1, 1.8, 2.3),
            (-1.5, -0.2, 3.0, 0.5)]).T
        x0, y0, w, h = (np.append(a, b) for a, b in zip((x0, y0, w, h), more))
        got = _disk_cell_overlaps(x0, x0 + w, y0, y0 + h, 1.0)
        want = [_disk_cell_overlap(a, a + dx, b, b + dy, 1.0)
                for a, b, dx, dy in zip(x0, y0, w, h)]
        assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps

    def test_separable_moments_match_full_grid_sums(self, rng):
        kx = (np.arange(-23, 17) + 0.5) * 0.1
        ky = (np.arange(-9, 31) + 0.5) * 0.1
        f = rng.uniform(0.0, 2.0, (kx.size, ky.size))
        g = OccupancyGrid(kx, ky, f)
        m = distribution_moments(g)
        gx, gy = np.meshgrid(kx, ky, indexing="ij")
        hx, hy = g.spacing
        w = hx * hy / (2 * math.pi) ** 2
        assert m.n_2d == w * f.sum()
        for got, weight in ((m.k_d[0], gx), (m.k_d[1], gy),
                            (m.t_d, gx**2 + gy**2)):
            assert got == pytest.approx(w * (f * weight).sum(), rel=0,
                                        abs=1e-13 * w * np.abs(f * weight).sum())


class TestDiskMoments:
    def test_density_exact_by_construction(self):
        # the overlap areas tile the disk, so n_2d is exact at any resolution
        kf = 1.3
        for fill in (1.0, 2.0):
            m = distribution_moments(
                OccupancyGrid.disk(kf, fill=fill, cells_per_radius=32))
            assert m.n_2d == pytest.approx(fill * kf**2 / (4 * math.pi),
                                           rel=1e-12)
            assert math.hypot(*m.k_d) <= 1e-12 * kf * m.n_2d

    def test_kinetic_moment_value(self):
        kf = 1.3
        m = distribution_moments(OccupancyGrid.disk(kf, fill=2.0,
                                                    cells_per_radius=64))
        assert m.t_d == pytest.approx(kf**4 / (4 * math.pi), rel=1.5e-4)

    def test_kinetic_moment_second_order(self):
        kf = 1.3
        ref = kf**4 / (8 * math.pi)
        errs = []
        for cpr in (32, 64, 128):
            m = distribution_moments(
                OccupancyGrid.disk(kf, cells_per_radius=cpr))
            errs.append(abs(m.t_d - ref) / ref)
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(1.7 < o < 2.3 for o in orders)
        assert errs[-1] < 5e-5

    def test_energy_density_filled_disk(self):
        # singly-occupied Fermi disk: E/S = hbar^2 k_F^4 / (16 pi m_e)
        kf = math.sqrt(2 * math.pi * 1e16)
        m = distribution_moments(OccupancyGrid.disk(kf, cells_per_radius=128))
        e = energy_density(m, (0.0, 0.0), gamma=0.0)
        ref = HBAR**2 * kf**4 / (16 * math.pi * M_E)
        assert e == pytest.approx(ref, rel=5e-5)

    def test_moment_linearity_in_fill(self):
        kf = 0.9
        m1 = distribution_moments(OccupancyGrid.disk(kf, fill=0.7))
        m2 = distribution_moments(OccupancyGrid.disk(kf, fill=1.4))
        assert m2.n_2d == pytest.approx(2 * m1.n_2d, rel=1e-13)
        assert m2.t_d == pytest.approx(2 * m1.t_d, rel=1e-13)


class TestShiftedDisk:
    CENTER = (0.25, -0.125)  # integer number of cells for radius=1, cpr=32

    def grids(self):
        kw = dict(radius=1.0, cells_per_radius=32, fill=2.0)
        return (OccupancyGrid.disk(center=(0.0, 0.0), **kw),
                OccupancyGrid.disk(center=self.CENTER, **kw))

    def test_universal_lattice_translation(self):
        # shifting by whole cells must reproduce identical occupancies
        g0, g1 = self.grids()
        assert np.array_equal(np.sort(g0.f, axis=None),
                              np.sort(g1.f, axis=None))
        m0, m1 = distribution_moments(g0), distribution_moments(g1)
        assert m1.n_2d == pytest.approx(m0.n_2d, rel=1e-13)

    def test_optimal_origin_recovers_center(self):
        _, g1 = self.grids()
        q0 = optimal_origin(distribution_moments(g1))
        assert q0[0] == pytest.approx(-self.CENTER[0], rel=1e-12)
        assert q0[1] == pytest.approx(-self.CENTER[1], rel=1e-12)

    def test_optimal_energy_gamma_independent(self):
        # at the optimal boost the collective term vanishes identically
        _, g1 = self.grids()
        m = distribution_moments(g1)
        q0 = optimal_origin(m)
        vals = [energy_density(m, q0, g) for g in (0.0, 0.3, 0.7, 0.999)]
        assert np.ptp(vals) <= 1e-12 * abs(vals[0])

    def test_optimal_origin_is_minimum(self, rng):
        _, g1 = self.grids()
        m = distribution_moments(g1)
        q0 = optimal_origin(m)
        e0 = energy_density(m, q0, 0.6)
        for _ in range(25):
            q = (q0[0] + rng.normal(0, 0.5), q0[1] + rng.normal(0, 0.5))
            assert energy_density(m, q, 0.6) >= e0 - 1e-15 * abs(e0)

    def test_quadratic_curvature(self):
        # E(q0 + d) - E(q0) = (hbar^2/2m)(1 - gamma) n d^2 exactly
        _, g1 = self.grids()
        m = distribution_moments(g1)
        q0 = optimal_origin(m)
        gamma, d = 0.4, 0.37
        lift = (energy_density(m, (q0[0] + d, q0[1]), gamma)
                - energy_density(m, q0, gamma))
        ref = HBAR**2 / (2 * M_E) * (1 - gamma) * m.n_2d * d * d
        assert lift == pytest.approx(ref, rel=1e-10)


class TestInstabilityWitness:
    def make_moments(self):
        return distribution_moments(OccupancyGrid.disk(1.0, fill=2.0,
                                                       cells_per_radius=32))

    def test_subcritical_rejected(self):
        with pytest.raises(PreconditionError):
            instability_witness(self.make_moments(), 0.9, [0.0, 1.0])

    def test_supercritical_energies_decrease_without_bound(self):
        m = self.make_moments()
        qx = np.linspace(0.0, 50.0, 40)
        for gamma in (1.01, 1.5, 3.0):
            e = instability_witness(m, gamma, qx)
            assert np.all(np.diff(e) < 0.0)
            # asymptotically E ~ -(gamma-1) q^2: ten times the boost must
            # deepen the energy by about a hundred
            deep = instability_witness(m, gamma, [50.0, 500.0])
            assert deep[1] < 50.0 * deep[0] < 0.0

    def test_critical_sequence_flat(self):
        m = self.make_moments()
        e = instability_witness(m, 1.0, np.linspace(0.0, 50.0, 20))
        assert np.ptp(e) <= 1e-9 * abs(e[0])


class TestEnergyDensityGuards:
    def test_negative_gamma(self):
        m = DistributionMoments = distribution_moments(OccupancyGrid.disk(1.0))
        with pytest.raises(DomainError):
            energy_density(m, (0.0, 0.0), -0.1)

    def test_empty_distribution(self):
        from cavity2deg import DistributionMoments

        m = DistributionMoments(t_d=0.0, k_d=(0.0, 0.0), n_2d=0.0)
        with pytest.raises(DomainError):
            energy_density(m, (0.0, 0.0), 0.5)
        with pytest.raises(DomainError):
            optimal_origin(m)


class TestOccupancyGridIO:
    def test_csv_round_trip_exact(self, tmp_path):
        g = OccupancyGrid.disk(1.0, center=(0.25, -0.125), fill=1.7,
                               cells_per_radius=16)
        path = tmp_path / "disk.csv"
        g.to_csv(path)
        back = OccupancyGrid.from_csv(path)
        assert np.array_equal(g.kx, back.kx)
        assert np.array_equal(g.ky, back.ky)
        assert np.array_equal(g.f, back.f)

    def test_csv_bytes_match_csv_module(self, rng):
        # the grid CSV has the csv module's bytes: CRLF ends, repr values
        import csv
        f = rng.uniform(-0.5, 2.5, (5, 7))
        g = OccupancyGrid((np.arange(5) + 0.5) * 0.37,
                          (np.arange(7) - 3.5) * 1e-9, f)
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(["kx", "ky", "f"])
        for i, x in enumerate(g.kx):
            for j, y in enumerate(g.ky):
                writer.writerow([repr(float(x)), repr(float(y)),
                                 repr(float(g.f[i, j]))])
        got = io.StringIO()
        g.to_csv(got)
        assert got.getvalue() == want.getvalue()

    def test_csv_bytes_match_one_shot_format(self, rng):
        # formatted row by row with each axis value formatted once, the
        # same bytes as the whole grid in one format_rows call
        grids = [OccupancyGrid.disk(1.3e8, center=(2e7, -1e7), fill=1.7,
                                    cells_per_radius=8),
                 OccupancyGrid((np.arange(4) + 0.5) * 0.37,
                               (np.arange(9) - 3.5) * 1e-9,
                               rng.uniform(0.0, 2.0, (4, 9)))]
        for g in grids:
            nx, ny = g.kx.size, g.ky.size
            want = "kx,ky,f\r\n" + format_rows(
                zip(np.repeat(g.kx, ny).tolist(), np.tile(g.ky, nx).tolist(),
                    g.f.ravel().tolist()), end="\r\n")
            writes = []

            class Recorder(io.StringIO):
                def write(self, text):
                    writes.append(text)
                    return super().write(text)

            got = Recorder()
            g.to_csv(got)
            assert got.getvalue() == want
            # the header, then one write per kx row
            assert len(writes) == 1 + nx

    def test_csv_round_trip_stream(self):
        g = OccupancyGrid.disk(0.8, cells_per_radius=8)
        buf = io.StringIO()
        g.to_csv(buf)
        buf.seek(0)
        back = OccupancyGrid.from_csv(buf)
        assert np.array_equal(g.f, back.f)

    def test_read_peak_memory_is_a_few_times_the_text(self, tmp_path):
        # the rows are read as one float array; one Python tuple per cell
        # peaked at 6.1x the text of this grid
        path = tmp_path / "disk.csv"
        OccupancyGrid.disk(1.3, center=(0.1, -0.2), fill=2.0,
                           cells_per_radius=64).to_csv(path)
        OccupancyGrid.from_csv(path)
        tracemalloc.start()
        try:
            OccupancyGrid.from_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * path.stat().st_size

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", ["", "\r\n", "\n\n", "\n# a comment\n"])
    def test_empty_grid_rejected(self, body):
        # a typed error, and no numpy warning about a body without data
        with pytest.raises(DomainError, match="empty"):
            OccupancyGrid.from_csv(io.StringIO("kx,ky,f\r\n" + body))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("skipped", ["\n", "# a comment\n",
                                         "\n# a comment\n  \n"])
    def test_blank_and_comment_lines_before_the_first_row(self, skipped):
        # they are skipped as loadtxt skips them after the first row; the
        # grid is not taken for an empty one
        body = "0.0,0.0,1.0\n0.0,1.0,1.0\n1.0,0.0,1.0\n1.0,1.0,1.0\n"
        g = OccupancyGrid.from_csv(io.StringIO("kx,ky,f\n" + skipped + body))
        assert np.array_equal(g.f, np.ones((2, 2)))
        assert np.array_equal(g.kx, [0.0, 1.0])
        assert np.array_equal(g.ky, [0.0, 1.0])

    def test_bad_header_rejected(self):
        with pytest.raises(DomainError, match="header"):
            OccupancyGrid.from_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_incomplete_grid_rejected(self):
        text = "kx,ky,f\n0.0,0.0,1.0\n0.0,1.0,1.0\n1.0,0.0,1.0\n"
        with pytest.raises(DomainError, match="complete"):
            OccupancyGrid.from_csv(io.StringIO(text))

    @pytest.mark.parametrize("body, match", [
        ("0.0,abc,1.0\n", "'abc'.*row"),
        ("0.0,0.0,1.0\n0.0,1.0\n", "row"),
        ("0.0,1.0\n", "3 fields"),
        ("0.0,0.0,1.0,1.0\n", "3 fields"),
        ("0.0,0.0,1.0\n1.0,0.0,nan\n0.0,1.0,1.0\n1.0,1.0,1.0\n", "finite"),
        # the file line, the header being line 1
        ("0.0,abc,1.0\n", "'abc'.* line 2, column 2"),
        ("0.0,0.0,1.0\n0.0,1.0\n", "from 3 to 2 .* line 3$"),
        ("0.0,0.0,1.0\n0.0,1.0,1.0\n0.0,x,1.0\n", "'x'.* line 4, column 2"),
        # numpy skips blank and # lines without counting them; the file
        # line counts them
        ("0.0,0.0,1.0\n\n0.0,x,1.0\n", "'x'.* line 4, column 2"),
        ("0.0,0.0,1.0\n# a comment\n0.0,x,1.0\n", "'x'.* line 4, column 2"),
        ("0.0,0.0,1.0\n\n# a comment\n0.0,1.0\n", "from 3 to 2 .* line 5$"),
        # and before the first row too
        ("\n# a comment\n0.0,x,1.0\n", "'x'.* line 4, column 2"),
        ("\n0.0,0.0,1.0\n0.0,1.0\n", "from 3 to 2 .* line 4$")])
    def test_malformed_row_rejected(self, body, match):
        # a typed error, not numpy's ValueError or a grid of NaN moments
        with pytest.raises(DomainError, match=match):
            OccupancyGrid.from_csv(io.StringIO("kx,ky,f\n" + body))


class TestOccupancyGridValidation:
    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            OccupancyGrid(np.arange(3.0), np.arange(4.0), np.zeros((3, 3)))

    def test_nonuniform_axis(self):
        kx = np.array([0.0, 1.0, 2.5])
        with pytest.raises(DomainError):
            OccupancyGrid(kx, np.arange(2.0), np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_occupancy_rejected(self, bad):
        # np.clip would pass NaN on to every moment
        with pytest.raises(DomainError, match="finite"):
            OccupancyGrid(np.arange(2.0), np.arange(2.0), [[1.0, bad],
                                                           [1.0, 1.0]])

    def test_occupancy_clipped(self):
        g = OccupancyGrid(np.arange(2.0), np.arange(2.0),
                          np.array([[3.0, -1.0], [0.5, 2.0]]))
        assert g.f.max() == 2.0
        assert g.f.min() == 0.0

    def test_single_cell_has_no_spacing(self):
        g = OccupancyGrid(np.array([0.0]), np.array([0.0]), np.ones((1, 1)))
        with pytest.raises(DomainError):
            g.spacing

    def test_disk_guards(self):
        with pytest.raises(DomainError):
            OccupancyGrid.disk(-1.0)
        with pytest.raises(DomainError):
            OccupancyGrid.disk(1.0, fill=2.5)
        with pytest.raises(DomainError):
            OccupancyGrid.disk(1.0, cells_per_radius=1)
        # cells far from the origin: uniform cell centers or a DomainError
        # that names center
        for radius, center in ((1.3, (1e6, 0.0)), (1.0, (1e14, 0.0))):
            try:
                OccupancyGrid.disk(radius, center=center)
            except DomainError as err:
                assert "center" in str(err)

    @given(st.floats(1e-3, 1e3), st.integers(2, 64),
           st.tuples(*[st.builds(lambda e, s: s * 10.0**e,
                                 st.floats(-3.0, 18.0),
                                 st.sampled_from([1.0, -1.0]))] * 2))
    def test_disk_axes_pass_the_grid_rule_or_name_center(self, radius, cpr,
                                                          center):
        # the disk admits exactly the centers whose axes are a grid's
        try:
            g = OccupancyGrid.disk(radius, center=center,
                                   cells_per_radius=cpr)
        except DomainError as err:
            assert "center" in str(err)
        else:
            OccupancyGrid(g.kx, g.ky, g.f)

    def test_disk_far_from_the_origin_builds(self):
        # 6.4e14 cells out, below the 2**53 where cell indices stop being
        # exact floats
        g = OccupancyGrid.disk(1.0, center=(1e13, 0.0))
        assert g.f.sum() > 0
