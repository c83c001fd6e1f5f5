"""Exact diagonalization of many photon modes coupled through the gas.

With M modes the quadratic photon problem closes on the symmetric matrix

    W[a, b] = omega_t_a^2 delta_ab + omega_p^2 * (eps_a . eps_b),  a != b,

with zero polarization overlap on the diagonal (omega_t_a^2 = omega_a^2 +
omega_p^2 already contains the self term).  Orthogonal diagonalization
W = U Omega^2 U^T yields the normal-mode frequencies; polarizations rotate as
eps~_g = sum_a eps_a U[a, g], and the electronic spectrum keeps the
single-mode structure with the rotated quantities: manymode_spectrum
evaluates it by the one spectrum implementation, ``singlemode._spectrum``,
whose range check covers the photon sum too.

For the parallel-polarization ladder W = diag(omega_n^2) + omega_p^2 1 1^T is
a rank-one update of a diagonal, and its two scanned quantities use that
structure instead of a dense solve: the collective coupling is the
Sherman-Morrison closed form, and the lowest mode is the lowest root of the
secular equation 1 + omega_p^2 sum_n 1/(omega_n^2 - lam) = 0 (Golub, SIAM
Rev. 15, 1973; Bunch, Nielsen & Sorensen, Numer. Math. 31, 1978), solved
alone by the one secular solver that normal_modes also uses.  Both are O(M)
in the frequencies alone, which they take from the ladder's one checked
helper without building a ModeSet.  The coupling depends on
omega_p/omega_1 alone, so it is taken on both scaled by one power of two
(``core._scaled``, which normal_modes uses as well): in range for every
admitted pair.

Every W that build_w makes is also structured: with P the (M, 3) matrix of
unit polarizations, W = D + omega_p^2 P P^T with D = diag(omega^2 +
omega_p^2 (1 - |eps_a|^2)), a diagonal plus an update of rank <= 3.
normal_modes applies it as up to three rank-one updates of a diagonal, one
per nonzero column of P; each update deflates (LAPACK dlaed2), solves all
its kept secular roots at once, on a full slice when nothing deflated, and
takes its eigenvectors from the Loewner vector (Gu & Eisenstat, SIAM J.
Matrix Anal. Appl. 16, 1995).  Its arrays are small (M ~ 24 in the
benchmark), so a step's cost is numpy calls, not flops: the step writes its
operands into buffers allocated once per solve, and the three sums over
each row's terms come from one reduction of one buffer.  The tests keep the
one-array-per-intermediate solver that this replaced and require the same
bytes and the same step counts from both.

For arbitrary W the eigensolver is a hand-implemented Jacobi method with a
skip threshold, as high relative accuracy on symmetric matrices matters more
here than raw speed.  It visits the pairs in a round-robin (tournament)
order, a parallel ordering in the sense of Brent & Luk (SIAM J. Sci. Stat.
Comput. 6, 1985): each round rotates about n/2 disjoint pairs, so one set of
vectorized numpy updates applies the whole round.  The schedule of rounds,
with the matrix positions each round reads its angles from, is built once
per call, and A and V^T are rotated as one stack; that leaves a round at one
gather and about 25 numpy calls, with the rotation sequence and every output
byte the same as applying the rounds one array at a time.  At these sizes a
call's cost is mostly numpy's loop set-up, so the angles take no scalar
operands and, while the round's arrays fit in cache (n <= _EXPAND_MAX_N),
the round copies c and s once into arrays shaped like the stack: every
multiply of the update is then between same-shape arrays, which numpy runs
as one flat loop rather than row by row.  For odd n the index that sits a
round out meets an infinite skip threshold there, so no round branches on
it.  There is one Jacobi kernel; the tests check it against the platform
eigensolver (LAPACK via numpy.linalg.eigh) and, byte for byte, against a
per-round copy of it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .constants import CODATA2018
from .core import _finite, _non_negative, _scaled
from .exceptions import (ConvergenceError, DegenerateModeError, DomainError,
                         PreconditionError)
from .singlemode import _spectrum

__all__ = [
    "ModeSet",
    "NormalModes",
    "build_w",
    "diagonalize_w",
    "normal_modes",
    "rotated_polarizations",
    "manymode_spectrum",
    "exact_coupling_1d",
    "lowest_mode_scan",
]

OFFDIAG_TOL_FACTOR = 1e-12   # convergence: off-diagonal Frobenius vs ||W||_F
MAX_SWEEPS = 30
MAX_SECULAR_STEPS = 100      # Newton/bisection steps per secular root
# the most ladder modes: the largest M whose M x M float64 matrix (build_w,
# normal_modes) fits in 1 GiB, so no mode count reaches the array size limit
MAX_MODES = 11_585
EPS = float(np.finfo(float).eps)
# the largest n whose Jacobi rounds multiply by c and s expanded to (n, n)
# buffers.  Set by isolated solves of random W, min of 6 alternating runs
# each, on a 2-core Xeon with 2 MiB of L2 per core: expanded against the
# (n, 1) columns was -3 % and -5 % at n = 144, +5 % and -4 % at n = 160,
# +12 % at 176 and +14 % at 192.  An expanded round works on ~64 n^2 bytes
# (the stack, its scratch and the operands), which outgrows that cache near
# n = 180; with no limit the 500-mode solve took 23.4 s, against 18.0 s.
_EXPAND_MAX_N = 144

_log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class ModeSet:
    """Bare photon modes: frequencies, unit polarizations, optional momenta.

    Polarizations must be unit vectors; if momenta are given they must be
    transverse (Coulomb gauge).
    """

    omega: np.ndarray            # (M,) rad/s (or ratio units)
    pol: np.ndarray              # (M, 3) unit vectors
    kappa: np.ndarray | None = None   # (M, 3) 1/m, optional

    def __post_init__(self) -> None:
        omega = np.asarray(self.omega, dtype=float)
        pol = np.asarray(self.pol, dtype=float)
        if omega.ndim != 1 or omega.size == 0:
            raise PreconditionError("omega must be a non-empty 1D array")
        if not np.isfinite(omega).all():
            raise PreconditionError("mode frequencies must be finite")
        if np.any(omega <= 0):
            raise PreconditionError("mode frequencies must be positive")
        if pol.shape != (omega.size, 3):
            raise PreconditionError("pol must have shape (M, 3)")
        norms = np.linalg.norm(pol, axis=1)
        # a NaN norm makes the max NaN, which fails the compare
        if not float(np.abs(norms - 1.0).max()) <= 1e-12:
            raise PreconditionError("polarizations must be unit vectors")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "pol", pol)
        if self.kappa is not None:
            kappa = np.asarray(self.kappa, dtype=float)
            if kappa.shape != (omega.size, 3):
                raise PreconditionError("kappa must have shape (M, 3)")
            if not np.isfinite(kappa).all():
                raise PreconditionError("mode momenta must be finite")
            dots = np.abs(np.einsum("ij,ij->i", kappa, pol))
            scale = np.linalg.norm(kappa, axis=1)
            if np.any(dots > 1e-10 * np.maximum(scale, 1.0)):
                raise PreconditionError(
                    "polarizations must be transverse to kappa")
            object.__setattr__(self, "kappa", kappa)

    def __len__(self) -> int:
        return self.omega.size

    @classmethod
    def ladder_1d(cls, n_modes: int,
                  omega_fundamental: float = 1.0) -> "ModeSet":
        """Standing-wave ladder omega_n = n * omega_fundamental, n = 1..M,
        all polarized along x (the maximal-coupling stress case)."""
        omega = _ladder_omega(n_modes, omega_fundamental)
        pol = np.tile([1.0, 0.0, 0.0], (n_modes, 1))
        return cls(omega=omega, pol=pol)


def _ladder_omega(n_modes: int, omega_fundamental: float) -> np.ndarray:
    """The ladder's frequencies omega_n = n * omega_fundamental, n = 1..M.

    PreconditionError unless 1 <= n_modes <= MAX_MODES and
    omega_fundamental is finite and positive, and for a top frequency past
    the float range; that is checked on the Python float M omega_fundamental,
    the last entry to the bit, before the array is built.
    """
    if n_modes < 1:
        raise PreconditionError(f"n_modes must be >= 1, got {n_modes}")
    if n_modes > MAX_MODES:
        raise PreconditionError(f"n_modes must be <= MAX_MODES = {MAX_MODES}, "
                                f"got {n_modes}")
    if not (math.isfinite(omega_fundamental) and omega_fundamental > 0):
        raise PreconditionError(
            f"omega_fundamental must be finite and positive, "
            f"got {omega_fundamental}")
    if not math.isfinite(float(omega_fundamental) * n_modes):
        raise PreconditionError("mode frequencies must be finite")
    return omega_fundamental * np.arange(1, n_modes + 1, dtype=float)


@dataclass(frozen=True, eq=False)
class NormalModes:
    """Sorted eigenpairs of W; ``eps_tilde`` is attached by normal_modes().

    The solver's work: ``sweeps``, ``rotations`` applied and
    ``skipped_rounds`` of Jacobi (all 0 on the structured path), and the
    secular steps of each rank-one update (``()`` from Jacobi).
    """

    omega_sq: np.ndarray          # (M,) ascending
    u: np.ndarray                 # (M, M) orthogonal, columns are eigenvectors
    sweeps: int
    eps_tilde: np.ndarray | None = None   # (M, 3) rotated polarizations
    rotations: int = 0
    skipped_rounds: int = 0
    secular_steps: tuple[int, ...] = ()

    @cached_property
    def omega(self) -> np.ndarray:
        if np.any(self.omega_sq < 0):
            raise DomainError("negative eigenvalue; no real mode frequencies")
        return np.sqrt(self.omega_sq)


def _omega_p_sq(omega_p: float) -> float:
    """omega_p^2, with DomainError unless omega_p is finite, non-negative and
    has a finite square."""
    omega_p = float(omega_p)
    rho = omega_p * omega_p
    if not (omega_p >= 0 and math.isfinite(rho)):
        raise DomainError(f"omega_p must be finite and non-negative, "
                          f"got {omega_p}")
    return rho


def build_w(modes: ModeSet, omega_p: float) -> np.ndarray:
    """Mode-coupling matrix with dressed diagonal and zero-diagonal overlap."""
    rho = _omega_p_sq(omega_p)
    overlap = modes.pol @ modes.pol.T
    np.fill_diagonal(overlap, 0.0)
    return np.diag(modes.omega**2 + rho) + rho * overlap


def _round_robin_schedule(n: int) -> np.ndarray:
    """The rounds of one Jacobi sweep over the indices 0..n-1, as a (k, n)
    array whose row r maps every index to its partner in round r.

    Each round holds about n/2 disjoint pairs, and over the sweep every pair
    i < j meets exactly once.  This is the circle method: index 0 keeps its
    seat while 1..m-1 (m = n, or n + 1 with a dummy index n for odd n) move
    round a circle of k = m - 1 seats, which in round r pairs x >= 1 with
    1 + (2r - 1 - x) mod k, or with 0 at the one x where that formula gives
    x back.  The index paired with the dummy maps to itself and sits the
    round out, so a sweep is k = n - 1 rounds for even n and n for odd n.
    """
    m = n + n % 2
    k = m - 1
    rounds = np.arange(k)
    partner = 2 * rounds[:, None] - 1 - np.arange(m)
    partner %= k
    partner += 1
    fixed = 1 + (rounds - 1) % k
    partner[:, 0] = fixed
    partner[rounds, fixed] = 0
    if m > n:
        idle = partner[:, n]
        partner = partner[:, :n].copy()
        partner[rounds, idle] = idle
    return partner


def _jacobi_round_robin(av: np.ndarray, skip_thr: float, tol_fro: float,
                        max_sweeps: int) -> tuple[int, int, int]:
    """Round-robin Jacobi sweeps on the stack av = (a, vt), V transposed
    starting from the identity; mutates av.  Returns (sweeps or -1,
    rotations applied, rounds skipped).

    The rotations of one round act on disjoint pairs and commute, so the
    round takes all its angles from the current a and applies them at once:
    row i becomes c x_i + s x_partner, with c = 1, s = 0 for an idle index
    and for a pair whose |a[p, q]| <= skip_thr.  One row update of the
    stack gives J^T a and J^T vt; the column update of a is the same row
    update applied to the transpose.  The schedule, and per round the flat
    positions of a[lo, hi], a[hi, hi] and a[lo, lo] (lo, hi the pair of
    each index), are built once per call, so a round gathers its angles
    with one take.

    A multiply by c or s shaped (n, 1) runs numpy's broadcast loop, one
    row at a time, at two to three times the cost of a same-shape product.
    So up to ``_EXPAND_MAX_N`` a round copies c and s once into buffers
    shaped like the stack, whose row i holds c_i (s_i), and all four
    multiplies are same-shape; above it, where those buffers leave the
    cache, they multiply by the (n, 1) columns.  The angles likewise take
    array operands, not scalars.  Every element goes through the same IEEE
    operations either way, so no output byte depends on the operand form.
    """
    n = av.shape[1]
    a = av[0]
    # scratch for the gathered partner rows, the upper triangle and the
    # transpose; allocated once, as per-round temporaries raise peak memory
    work = np.empty_like(av)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    partner = _round_robin_schedule(n)
    idx = np.arange(n)
    lo, hi = np.minimum(idx, partner), np.maximum(idx, partner)
    flat = np.stack([lo * n + hi, hi * (n + 1), lo * (n + 1)], axis=1)
    # s changes sign on the lower index of each pair and on an idle index,
    # which keeps the sign of a zero s and so every output byte
    sign = np.where(idx <= partner, -1.0, 1.0)
    # an idle index (odd n) reads its diagonal as a[lo, hi]; an infinite
    # threshold keeps it out of its round
    thr = np.where(lo != hi, skip_thr, np.inf)
    ones = np.ones(n)
    cs = np.empty((2, n))
    c, s = cs
    # the multiply operands of the stack (cv, sv) and of a alone (ca, sa)
    expand = n <= _EXPAND_MAX_N
    ops = np.empty((2, 2, n, n)) if expand else cs[:, None, :, None]
    cv, sv = ops
    ca, sa = cv[0], sv[0]
    sweeps = -1
    rotations = skipped = 0
    for sweep in range(max_sweeps + 1):
        np.multiply(a, upper, out=work[0])
        off = math.sqrt(2.0) * np.linalg.norm(work[0])
        if off <= tol_fro:
            sweeps = sweep
            break
        if sweep == max_sweeps:
            break
        for r, p in enumerate(partner):
            apq, ahh, all_ = a.take(flat[r])
            rotate = np.abs(apq) > thr[r]
            count = np.count_nonzero(rotate)
            if not count:
                skipped += 1
                continue
            rotations += count // 2   # a pair counts at both its indices
            apq = np.where(rotate, apq, ones)
            tau = (ahh - all_) / (apq + apq)
            # equals copysign(1, tau) / (|tau| + hypot(1, tau)) * rotate
            t = rotate / (tau + np.copysign(np.hypot(ones, tau), tau))
            t *= sign[r]
            np.divide(ones, np.hypot(ones, t), out=c)
            np.multiply(t, c, out=s)
            if expand:
                np.copyto(ops, cs[:, None, :, None])
            av.take(p, axis=1, out=work, mode="clip")
            av *= cv
            work *= sv
            av += work
            # the column update of a, as a row update of its transpose
            at = work[0]
            np.copyto(at, a.T)
            at.take(p, axis=0, out=a, mode="clip")
            a *= sa
            at *= ca
            a += at
    return sweeps, rotations, skipped


def diagonalize_w(w_matrix: np.ndarray) -> NormalModes:
    """Orthogonal eigendecomposition of a symmetric W, deterministic output.

    The Jacobi solver sweeps the pairs in round-robin order: each sweep is
    n - 1 rounds (n for odd n) of about n/2 disjoint rotations, applied
    together; a pair with |W[p, q]| below the skip threshold sits its round
    out, and sweeps stop once the off-diagonal Frobenius norm is below
    ``OFFDIAG_TOL_FACTOR * ||W||_F``, or ConvergenceError is raised after
    ``MAX_SWEEPS`` sweeps.  Eigenvalues are sorted ascending; each
    eigenvector is sign-fixed so its largest-magnitude component is
    positive.  Non-finite entries, an empty W and a W whose Frobenius norm
    overflows raise ``DomainError``.
    """
    a = np.asarray(w_matrix, dtype=float, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DomainError(
            f"W must be non-empty and square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("W must be finite")
    # an infinite tolerance would stop Jacobi at sweep 0, unrotated
    norm_fro = _finite(lambda: float(np.linalg.norm(a)), "||W||_F")
    if norm_fro > 0 and float(np.linalg.norm(a - a.T)) > 1e-12 * norm_fro:
        raise DomainError("W must be symmetric")
    n = a.shape[0]
    av = np.zeros((2, n, n))   # a and V^T, rotated together
    np.add(a, a.T, out=av[0])
    a = av[0]
    a *= 0.5
    np.fill_diagonal(av[1], 1.0)
    tol_fro = OFFDIAG_TOL_FACTOR * norm_fro
    skip_thr = tol_fro / (2.0 * n)
    sweeps, rotations, skipped = _jacobi_round_robin(av, skip_thr, tol_fro,
                                                     MAX_SWEEPS)
    if sweeps < 0:
        raise ConvergenceError(
            f"Jacobi did not reach tol {OFFDIAG_TOL_FACTOR:g}*||W||_F "
            f"in {MAX_SWEEPS} sweeps (M = {n})")
    nm = _normal_form(np.diag(a).copy(), av[1].T, sweeps,
                      rotations=rotations, skipped_rounds=skipped)
    _log.debug("diagonalize_w: jacobi, M = %d, sweeps = %d, rotations = %d, "
               "skipped rounds = %d", n, nm.sweeps, nm.rotations,
               nm.skipped_rounds)
    return nm


def _normal_form(eigvals: np.ndarray, v: np.ndarray, sweeps: int,
                 **counters) -> NormalModes:
    """Eigenpairs in ascending order, each eigenvector sign-fixed so that its
    largest-magnitude component is positive; ``counters`` are the solver's
    other NormalModes fields."""
    order = np.argsort(eigvals, kind="stable")
    eigvals = eigvals[order]
    v = v[:, order]
    lead = np.argmax(np.abs(v), axis=0)
    flip = v[lead, np.arange(v.shape[1])] < 0
    v[:, flip] *= -1.0
    return NormalModes(omega_sq=eigvals, u=v, sweeps=sweeps, **counters)


def rotated_polarizations(modes: ModeSet, u: np.ndarray) -> np.ndarray:
    """eps~_g = sum_a eps_a U[a, g]; rows are the rotated 3-vectors."""
    u = np.asarray(u, dtype=float)
    if u.shape != (len(modes), len(modes)):
        raise DomainError(
            f"U shape {u.shape} does not match {len(modes)} modes")
    return u.T @ modes.pol


def _secular_eig(d: np.ndarray, z: np.ndarray, rho: float,
                 count: int | None = None
                 ) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Eigenpairs of diag(d) + rho z z^T for strictly ascending d, z with no
    zero entry and norm 1, and rho > 0.  Returns (roots, V, steps); with
    ``count`` set, only the lowest ``count`` roots are solved and V is None.

    The roots solve f(lam) = 1 + sum_j s_j / (d_j - lam) = 0, s = rho z^2.
    Root i lies in (d_i, d_{i+1}), the last one in (d_K, d_K + rho].  Each
    is measured as tau = lam - d_o from its nearer pole d_o, picked by the
    sign of f at the interval midpoint, so that every d_j - lam =
    (d_j - d_o) - tau keeps full relative accuracy.  All roots iterate
    together, by Newton steps on g = (d_i - lam)(d_{i+1} - lam) f, the
    secular function with both interval poles removed (only d_K for the
    last root): g is smooth on the bracket and changes sign once there.
    They start from the two-pole quadratic, which freezes the other terms
    of f at the midpoint (at d_K + rho for the last root), and a step that
    leaves the bracket is bisected instead.  A root stops once |g| is
    within its rounding bound 8 eps sum|terms| (as ``erretm`` in LAPACK
    dlaed4) or once its bracket has collapsed; every root settles within
    ``MAX_SECULAR_STEPS`` steps or ConvergenceError is raised.  Each root's
    iteration reads only its own row, so a subset costs O(K) per step per
    root and gives the same bits as the full solve.

    The eigenvectors are zhat_j / (d_j - lam_i), normalized, with zhat from
    the Loewner formula zhat_j^2 = prod_i (d_j - lam_i) / (d_j - d_i) over
    i != j, times (lam_j - d_j) / rho: the exact update vector of the
    computed roots, so the vectors come out numerically orthogonal (Gu &
    Eisenstat 1995).  Each factor is a ratio of distances that interlacing
    bounds, so the product can neither overflow nor underflow.
    """
    k = d.size
    m = k if count is None else count
    full = m == k   # the last root is solved, and its row overridden below
    s = rho * z * z
    ar = np.arange(m)
    nxt = np.minimum(ar + 1, k - 1)
    # midpoint of each root's interval, or d_K + rho for the last root
    probe = np.concatenate((0.5 * (d[1:] - d[:-1]), [rho]))[:m]
    # s without the interval poles of each root: columns i and i + 1 of row i
    s_rest = np.empty((m, k))
    s_rest[...] = s
    s_rest[ar, ar] = 0.0
    s_rest[ar, nxt] = 0.0
    s_l = s[:m]
    s_r = s[nxt]
    c = 1.0 + (s_rest / (d - d[:m, None] - probe[:, None])).sum(axis=1)
    right = c + (s_r - s_l) / probe < 0.0     # f(mid) < 0
    if full:
        right[-1] = False
    origin = ar + right
    delta = d - d[origin, None]               # delta[i, j] = d_j - d_origin
    d_l = delta[ar, ar]
    d_r = delta[ar, nxt]                      # +0.0 on the last row
    slope_b = np.full(m, -1.0)                # d(d_r - tau)/dtau
    lo = np.where(right, -probe, 0.0)
    hi = np.where(right, 0.0, probe)
    # c (d_l - tau)(d_r - tau) + s_l (d_r - tau) + s_r (d_l - tau) = 0, as
    # A tau^2 - B tau + C with one of d_l, d_r zero; linear for the last
    qa = c.copy()
    qb = c * (d_l + d_r) + s_l + s_r
    qc = s_l * d_r + s_r * d_l
    if full:
        s_r[-1] = 0.0
        slope_b[-1] = 0.0
        # the last root reaches d_K + rho when the other z_j vanish
        hi[-1] = 2.0 * rho
        qa[-1], qb[-1], qc[-1] = 0.0, c[-1], s_l[-1]
    q = qb + np.copysign(np.sqrt(np.abs(qb * qb - 4.0 * qa * qc)), qb)
    near = 2.0 * qc / q
    far = np.divide(q, 2.0 * qa, out=np.full(m, np.nan), where=qa != 0.0)
    tau = np.where((lo < near) & (near < hi), near,
                   np.where((lo < far) & (far < hi), far, 0.5 * (lo + hi)))
    s_slope = s_l * slope_b
    active = np.ones(m, dtype=bool)
    # one step's operands: den[i, j] = d_j - lam_i, and the terms
    # s_j / den, s_j / den^2 and |s_j / den| in one buffer, summed by one
    # reduction over j (the same pairwise sum as three row sums)
    den = np.empty((m, k))
    terms = np.empty((3, m, k))
    term = terms[0]
    newton = np.empty(m)
    for steps in range(1, MAX_SECULAR_STEPS + 1):
        np.subtract(delta, tau[:, None], out=den)
        np.divide(s_rest, den, out=term)
        np.divide(term, den, out=terms[1])
        np.abs(term, out=terms[2])
        sums = np.add.reduce(terms, axis=2)
        rest = 1.0 + sums[0]
        a = d_l - tau
        b = d_r - tau
        if full:
            b[-1] = 1.0
        ab = a * b
        g = ab * rest + s_l * b + s_r * a
        bound = (np.abs(ab) * (1.0 + sums[2])
                 + s_l * np.abs(b) + s_r * np.abs(a))
        # the trailing terms stay in this order: hoisting them regroups the
        # sum and changes the bits
        dg = ((slope_b * a - b) * rest + ab * sums[1] + s_slope - s_r)
        np.copyto(lo, tau, where=g > 0.0)
        np.copyto(hi, tau, where=g < 0.0)
        newton.fill(np.inf)
        np.divide(g, dg, out=newton, where=dg != 0.0)
        step = tau - newton
        inside = (lo < step) & (step < hi)
        mid = 0.5 * (lo + hi)
        # a root whose bracket has collapsed stops: the midpoint is no
        # longer strictly inside it
        active &= (np.abs(g) > 8.0 * EPS * bound) & (
            inside | ((lo < mid) & (mid < hi)))
        if not active.any():
            break
        tau = np.where(active, np.where(inside, step, mid), tau)
    else:
        raise ConvergenceError(
            f"secular roots not settled in {MAX_SECULAR_STEPS} steps "
            f"(K = {k})")
    if count is not None:
        return d[origin] + tau, None, steps
    # den[i, j] = d_j - lam_i, from the pass in which the last root settled
    gap = d - d[:, None]
    np.fill_diagonal(gap, -rho)
    zhat = np.copysign(np.sqrt(np.prod(den / gap, axis=0)), z)
    v = zhat / den
    v /= np.linalg.norm(v, axis=1)[:, None]
    return d[origin] + tau, v.T, steps


def _rank_one_update(lam: np.ndarray, q: np.ndarray, p: np.ndarray,
                     rho: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Eigenpairs of Q diag(lam) Q^T + rho p p^T from those of the first
    term (lam ascending, Q orthogonal; both are overwritten).  Returns the
    new (lam, Q) with lam ascending and the secular steps taken.

    In the eigenbasis the update is diag(lam) + rho' z z^T with z = Q^T p
    scaled to norm 1.  Deflation follows LAPACK dlaed2 with
    tol = 8 eps max(|lam|, rho'): an entry with rho' |z_j| <= tol keeps
    (lam_j, q_j), and of two neighbours whose z-Givens rotation leaves an
    off-diagonal (lam_j - lam_i) c s of at most tol, the first is rotated
    out with z_i = 0, as happens for degenerate modes.  The rest goes to
    ``_secular_eig`` and its eigenvectors are multiplied into Q.
    """
    z = q.T @ p
    norm = math.sqrt(z @ z)   # the bits of np.linalg.norm(z)
    rho *= norm * norm
    z /= norm
    tol = 8.0 * EPS * max(float(np.abs(lam).max()), rho)
    keep = rho * np.abs(z) > tol
    idx = keep.nonzero()[0]
    lam_kept = lam[idx]
    # |c s| <= 1/2, so only neighbours within 2 tol can deflate; a rotation
    # moves both lam of its pair inside their interval, so no other gap shrinks
    close = lam_kept[1:] - lam_kept[:-1] <= 2.0 * tol
    for i in close.nonzero()[0].tolist():
        pj, nj = idx[i], idx[i + 1]
        r = math.hypot(z[pj], z[nj])
        c, s = z[nj] / r, -z[pj] / r
        if abs((lam[nj] - lam[pj]) * c * s) <= tol:
            z[pj], z[nj] = 0.0, r
            q[:, [pj, nj]] = q[:, [pj, nj]] @ np.array([[c, -s], [s, c]])
            lam[pj], lam[nj] = (lam[pj] * c * c + lam[nj] * s * s,
                                lam[pj] * s * s + lam[nj] * c * c)
            keep[pj] = False
    kept = keep.nonzero()[0]
    # a slice when nothing deflated, so the solve gathers and scatters nothing
    idx = slice(None) if kept.size == lam.size else kept
    steps = 0
    if kept.size:
        lam[idx], v, steps = _secular_eig(lam[idx], z[idx], rho)
        q[:, idx] = q[:, idx] @ v
    order = np.argsort(lam, kind="stable")
    return lam[order], q[:, order], steps


def normal_modes(modes: ModeSet, omega_p: float) -> NormalModes:
    """Normal modes of build_w(modes, omega_p) with rotated polarizations.

    W = D + omega_p^2 P P^T, D = omega^2 + omega_p^2 (1 - |eps_a|^2), equals
    build_w exactly (the |eps_a| = 1 that ModeSet checks to 1e-12 is not
    assumed) and is solved as one rank-one update of D per nonzero column of
    P, each O(M^2) plus one GEMM, after scaling by a power of two so the
    solver works near 1 whatever the units.  A D or eigenvalues past the
    float range raise DomainError.  ``secular_steps`` holds the steps of
    each update; ``sweeps`` is 0, as no Jacobi sweep ran.  ``diagonalize_w``
    on the dense W is this path's oracle.  Eigenvalues ascend and each
    eigenvector's largest-magnitude component is positive.
    """
    rho = _omega_p_sq(omega_p)
    pol = modes.pol
    d = _finite(lambda: modes.omega ** 2
                + rho * (1.0 - np.einsum("ij,ij->i", pol, pol)),
                "the diagonal of W")
    # 1/scale and rho/scale; a largest entry below 2^-1000 is taken as
    # 2^-1000, so that 1/scale stays a float
    inv, rho_s = _scaled(max(float(d.max()), rho, 2.0**-1000), 1.0, rho)
    order = np.argsort(d, kind="stable")
    lam = d[order] * inv
    q = np.eye(d.size)[:, order]
    steps = []
    for col in pol.T:
        if col.any():
            lam, q, n = _rank_one_update(lam, q, col, rho_s)
            steps.append(n)
    omega_sq = _finite(lambda: lam / inv, "an eigenvalue of W")
    nm = _normal_form(omega_sq, q, 0, secular_steps=tuple(steps))
    _log.debug("normal_modes: structured, M = %d, secular steps per "
               "update = %s", omega_sq.size, list(nm.secular_steps))
    return replace(nm, eps_tilde=rotated_polarizations(modes, nm.u))


def manymode_spectrum(n_gamma: Sequence[int], K: Sequence[float],
                      kinetic_sum: float, normal: NormalModes,
                      omega_p: float, n_electrons: int) -> float:
    """Exact eigenenergy (J) with M normal modes.

    E = (hbar^2/2 m_e)[kinetic_sum - (omega_p^2/N) sum_g (eps~_g.K)^2/Omega_g^2]
        + sum_g hbar Omega_g (n_g + 1/2);
    an energy past the float range raises DomainError.
    """
    if normal.eps_tilde is None:
        raise PreconditionError(
            "normal modes lack rotated polarizations; use normal_modes()")
    n_gamma = np.asarray(n_gamma, dtype=float)
    m = normal.omega_sq.size
    if n_gamma.shape != (m,):
        raise PreconditionError(f"need {m} photon occupation numbers")
    if np.any(n_gamma < 0):
        raise PreconditionError("photon occupations must be non-negative")
    if np.any(normal.omega_sq == 0.0):
        raise DegenerateModeError("zero-frequency normal mode in the spectrum")
    K = np.asarray(K, dtype=float)
    if K.ndim != 1 or K.size > 3:
        raise PreconditionError(f"K must have at most 3 components, "
                                f"got shape {K.shape}")
    if not np.isfinite(K).all():
        raise DomainError(f"K must be finite, got {K.tolist()}")
    if n_electrons < 1:
        raise PreconditionError("n_electrons must be at least 1")
    _non_negative(omega_p, "omega_p")
    _non_negative(kinetic_sum, "kinetic_sum")
    return _spectrum(
        lambda: CODATA2018.hbar * float(np.sum(normal.omega * (n_gamma + 0.5))),
        kinetic_sum, (omega_p, 1.0),
        lambda: normal.eps_tilde[:, :K.size] @ K / normal.omega, n_electrons,
        f"the energy at K = {K.tolist()}, omega_p = {omega_p!r}")


def exact_coupling_1d(n_modes: int, omega_fundamental: float,
                      omega_p: float) -> float:
    """Exact dimensionless coupling sum_g omega_p^2 (eps~_g,x)^2 / Omega_g^2
    for the parallel-polarization ladder; reduces to gamma at M = 1.

    With W = U Omega^2 U^T and eps~ = U^T eps the sum is omega_p^2 p^T W^-1 p,
    p the bare x components.  The ladder's
    W = diag(omega_n^2) + omega_p^2 1 1^T is a rank-one update of a
    diagonal, so Sherman-Morrison gives
    g = omega_p^2 s / (1 + omega_p^2 s) with s = sum_n 1/omega_n^2, an O(M)
    sum over the frequencies alone: no ModeSet is built.  g depends on
    omega_p/omega_1 alone, so both are first ``core._scaled`` by the power
    of two that brings 0.75 omega_1 into [1/2, 1), which leaves omega_1 = 1
    as it is and every square and 1/omega_n^2 a normal float; past
    omega_p/omega_1 = 2^60, where g is 1 to rounding, omega_p is taken as
    2^60 omega_1.
    """
    w_p = min(_non_negative(omega_p, "omega_p"), 2.0**60 * omega_fundamental)
    # a non-positive or NaN omega_1 is left unscaled, for the check to name
    w_1, w_p = _scaled(max(0.75 * omega_fundamental, 0.0), omega_fundamental,
                       w_p)
    omega = _ladder_omega(n_modes, w_1)
    return _coupling_fraction(w_p * w_p * float((1.0 / omega**2).sum()))


def _coupling_fraction(x: float) -> float:
    """x / (1 + x), the coupling of a rank-one sum x = omega_p^2 s; 1.0
    where x overflowed to inf (the limit, where inf/inf would be NaN)."""
    return 1.0 if x == math.inf else x / (1.0 + x)


def lowest_mode_scan(ratios: Sequence[float],
                     n_modes: int = 100) -> np.ndarray:
    """Percent difference between the dressed continuum edge and the lowest
    normal mode, per coupling ratio omega_p/omega.

    Returns rows (ratio, 100*|omega_t(kappa_z) - Omega_lowest|/omega_t) for
    the parallel ladder in fundamental-frequency units.  Omega_lowest^2 is
    the lowest root of the ladder's secular equation, solved alone by
    ``_secular_eig``; it is exact at ratio 0 and at M = 1.  The difference
    is never a subtraction: edge - Omega = (edge^2 - Omega^2)/(edge + Omega),
    and the secular equation gives edge^2 - Omega^2 = rho x/(1 + x) with
    x = rho sum_{n>=2} 1/(n^2 - lam).  The root stays below 2.5 (the M = 2
    limit; more modes lower it), so every n^2 - lam >= 1.5 and x is
    accurate: small rows keep their relative accuracy.  Below
    omega_p^2 = eps omega_1^2 / 4 the root is omega_1^2 + omega_p^2 to
    rounding; above M (omega_M^2 - omega_1^2) / eps the 1 in the secular
    equation is below rounding, so the root takes omega_p^2 capped there.
    """
    rows = np.empty((len(ratios), 2))
    d = _ladder_omega(n_modes, 1.0) ** 2
    z = np.full(n_modes, 1.0 / math.sqrt(n_modes))
    rho_min = 0.25 * EPS * d[0]
    rho_max = n_modes * (d[-1] - d[0]) / EPS
    for i, ratio in enumerate(ratios):
        rho = _omega_p_sq(ratio)
        if rho < rho_min or n_modes == 1:
            lam = float(d[0]) + rho
        else:   # rho 1 1^T = (M rho) z z^T
            r = n_modes * min(rho, rho_max)
            lam = float(_secular_eig(d, z, r, 1)[0][0])
        # x/(1 + x), 1.0 where x overflows
        frac = _coupling_fraction(rho * float(np.sum(1.0 / (d[1:] - lam))))
        # (edge - Omega)/edge = frac rho/((1 + rho) + edge Omega): rounding
        # is monotone, so each factor is <= 1 and the row <= 100
        edge = math.sqrt(1.0 + rho)
        rows[i] = (ratio, 100.0 * (frac * (rho / ((1.0 + rho)
                                                  + edge * math.sqrt(lam)))))
    return rows
