"""Many-mode coupling matrix, the hand-rolled Jacobi eigensolver, the
structured (rank-one update) normal modes, and the exact multi-mode
spectrum.

Oracles:
  * platform eigensolver (LAPACK via numpy.linalg.eigh) for eigenvalues,
  * reconstruction/orthogonality residuals for eigenvectors,
  * Sherman-Morrison closed form and the secular equation (brentq) for the
    rank-one ladder problem,
  * dense Jacobi and LAPACK for the ladder's closed-form coupling and
    secular-equation lowest root, which the library computes directly,
  * dense Jacobi on build_w (and LAPACK) for the structured normal modes,
  * a 50-digit mpmath root for lowest_mode_scan's rows, and the full secular
    solve, bit for bit, for the subset of roots that lowest_mode_scan asks,
  * a copy of the secular solver and rank-one update with one array per
    intermediate, which the library's must match in bytes and step counts.
"""

import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from cavity2deg import (
    CODATA2018,
    ConvergenceError,
    DegenerateModeError,
    DerivedScales,
    DomainError,
    ModeSet,
    NormalModes,
    PreconditionError,
    SpectrumIndex,
    SystemConfig,
    build_w,
    diagonalize_w,
    eigenenergy,
    exact_coupling_1d,
    lowest_mode_scan,
    manymode_spectrum,
    normal_modes,
    rotated_polarizations,
)
from cavity2deg import manymode
from cavity2deg.cli import main
from cavity2deg.manymode import _normal_form, _round_robin_schedule

HBAR = CODATA2018.hbar
M_E = CODATA2018.m_e


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) * scale
    return 0.5 * (a + a.T)


def _reference_rounds(n: int):
    """Yield the rounds of one Jacobi sweep over the indices 0..n-1.

    Each round is an array mapping every index to its partner, so a round
    holds about n/2 disjoint pairs, and over the sweep every pair i < j meets
    exactly once.  This is the circle method: index 0 keeps its seat while
    1..m-1 (m = n, or n + 1 with a dummy index n for odd n) move round a
    circle of k = m - 1 seats, which in round r pairs x >= 1 with
    1 + (2r - 1 - x) mod k, or with 0 at the one x where that formula gives
    x back.  The index paired with the dummy maps to itself and sits the
    round out, so a sweep is n - 1 rounds for even n and n for odd n.
    """
    m = n + n % 2
    k = m - 1
    minus_idx = -np.arange(m)
    for r in range(k):
        partner = (minus_idx + (2 * r - 1)) % k + 1
        fixed = 1 + (r - 1) % k
        partner[0], partner[fixed] = fixed, 0
        if m > n:
            idle = partner[n]
            partner = partner[:n]
            partner[idle] = idle
        yield partner


def _reference_round_robin(a: np.ndarray, vt: np.ndarray, skip_thr: float,
                           tol_fro: float, max_sweeps: int) -> int:
    """Round-robin Jacobi sweeps; mutates a and vt (V transposed, starting
    from the identity).  Returns sweeps or -1.

    The rotations of one round act on disjoint pairs and commute, so the
    round takes all its angles from the current a and applies them at once:
    row i becomes c x_i + s x_partner, with c = 1, s = 0 for an idle index
    and for a pair whose |a[p, q]| <= skip_thr.  The row update gives J^T a
    and J^T vt; the column update of a is the same row update applied to
    the transpose.

    The per-round kernel that ``manymode._jacobi_round_robin`` must match
    byte for byte: it builds each round's partners, pair indices and angles
    as it reaches the round, and rotates a and vt one after the other.
    """
    n = a.shape[0]
    # scratch for the upper triangle, the gathered partner rows and the
    # transpose; allocated once, as per-round temporaries raise peak memory
    work = np.empty((n, n))
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    idx = np.arange(n)
    cur = a
    sweeps = -1
    for sweep in range(max_sweeps + 1):
        np.multiply(cur, upper, out=work)
        off = math.sqrt(2.0) * np.linalg.norm(work)
        if off <= tol_fro:
            sweeps = sweep
            break
        if sweep == max_sweeps:
            break
        for partner in _reference_rounds(n):
            lo = np.minimum(idx, partner)
            hi = np.maximum(idx, partner)
            apq = cur[lo, hi]
            rotate = np.abs(apq) > skip_thr
            rotate &= lo != hi
            if not rotate.any():
                continue
            diag = cur.diagonal()
            tau = (diag[hi] - diag[lo]) / (2.0 * np.where(rotate, apq, 1.0))
            t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
            t *= rotate
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            s = np.where(idx == lo, -s, s)[:, None]
            c = c[:, None]
            for x in (cur, vt):
                np.take(x, partner, axis=0, out=work, mode="clip")
                x *= c
                work *= s
                x += work
            np.copyto(work, cur.T)
            np.take(work, partner, axis=0, out=cur, mode="clip")
            work *= c
            cur *= s
            work += cur
            cur, work = work, cur
    if cur is not a:
        a[...] = cur
    return sweeps


def _reference_secular_eig(d, z, rho, count=None):
    """Eigenpairs of diag(d) + rho z z^T, as ``manymode._secular_eig``
    documents them; returns (roots, V or None, steps).

    The solver that ``manymode._secular_eig`` must match byte for byte and
    step for step: it makes one array per intermediate and row sums of its
    own, and overrides the last root's row with ``np.where``.
    """
    k = d.size
    m = k if count is None else count
    s = rho * z * z
    ar = np.arange(m)
    last = ar == k - 1
    nxt = np.minimum(ar + 1, k - 1)
    probe = np.append(0.5 * np.diff(d), rho)[:m]
    s_rest = np.tile(s, (m, 1))
    s_rest[ar, ar] = 0.0
    s_rest[ar, nxt] = 0.0
    s_l = s[:m]
    s_r = np.where(last, 0.0, s[nxt])
    c = 1.0 + (s_rest / (d - d[:m, None] - probe[:, None])).sum(axis=1)
    right = (c + (s_r - s_l) / probe < 0.0) & ~last
    origin = ar + right
    delta = d - d[origin, None]
    d_l = delta[ar, ar]
    d_r = np.where(last, 0.0, delta[ar, nxt])
    slope_b = np.where(last, 0.0, -1.0)
    lo = np.where(right, -probe, 0.0)
    hi = np.where(right, 0.0, np.where(last, 2.0 * rho, probe))
    qa = np.where(last, 0.0, c)
    qb = np.where(last, c, c * (d_l + d_r) + s_l + s_r)
    qc = np.where(last, s_l, s_l * d_r + s_r * d_l)
    q = qb + np.copysign(np.sqrt(np.abs(qb * qb - 4.0 * qa * qc)), qb)
    near = 2.0 * qc / q
    far = np.divide(q, 2.0 * qa, out=np.full(m, np.nan), where=qa != 0.0)
    tau = np.where((lo < near) & (near < hi), near,
                   np.where((lo < far) & (far < hi), far, 0.5 * (lo + hi)))
    active = np.ones(m, dtype=bool)
    for steps in range(1, manymode.MAX_SECULAR_STEPS + 1):
        den = delta - tau[:, None]
        term = s_rest / den
        rest = 1.0 + term.sum(axis=1)
        a = d_l - tau
        b = np.where(last, 1.0, d_r - tau)
        ab = a * b
        g = ab * rest + s_l * b + s_r * a
        bound = (np.abs(ab) * (1.0 + np.abs(term).sum(axis=1))
                 + s_l * np.abs(b) + s_r * np.abs(a))
        dg = ((slope_b * a - b) * rest + ab * (term / den).sum(axis=1)
              + s_l * slope_b - s_r)
        lo = np.where(g > 0.0, tau, lo)
        hi = np.where(g < 0.0, tau, hi)
        step = tau - np.divide(g, dg, out=np.full(m, np.inf), where=dg != 0.0)
        inside = (lo < step) & (step < hi)
        mid = 0.5 * (lo + hi)
        collapsed = ~inside & ((mid <= lo) | (mid >= hi))
        active &= (np.abs(g) > 8.0 * manymode.EPS * bound) & ~collapsed
        if not active.any():
            break
        tau = np.where(active, np.where(inside, step, mid), tau)
    else:
        raise ConvergenceError("secular roots not settled")
    if count is not None:
        return d[origin] + tau, None, steps
    gap = d - d[:, None]
    np.fill_diagonal(gap, -rho)
    zhat = np.copysign(np.sqrt(np.prod(den / gap, axis=0)), z)
    v = zhat / den
    v /= np.linalg.norm(v, axis=1)[:, None]
    return d[origin] + tau, v.T, steps


def _reference_rank_one_update(lam, q, p, rho):
    """The rank-one update of ``manymode._rank_one_update`` on
    ``_reference_secular_eig``; it gathers and scatters the kept entries
    also when none deflates."""
    z = q.T @ p
    norm = float(np.linalg.norm(z))
    rho *= norm * norm
    z /= norm
    tol = 8.0 * manymode.EPS * max(float(np.abs(lam).max()), rho)
    keep = rho * np.abs(z) > tol
    idx = np.flatnonzero(keep)
    for i in np.flatnonzero(np.diff(lam[idx]) <= 2.0 * tol).tolist():
        pj, nj = idx[i], idx[i + 1]
        r = math.hypot(z[pj], z[nj])
        c, s = z[nj] / r, -z[pj] / r
        if abs((lam[nj] - lam[pj]) * c * s) <= tol:
            z[pj], z[nj] = 0.0, r
            q[:, [pj, nj]] = q[:, [pj, nj]] @ np.array([[c, -s], [s, c]])
            lam[pj], lam[nj] = (lam[pj] * c * c + lam[nj] * s * s,
                                lam[pj] * s * s + lam[nj] * c * c)
            keep[pj] = False
    idx = np.flatnonzero(keep)
    steps = 0
    if idx.size:
        lam[idx], v, steps = _reference_secular_eig(lam[idx], z[idx], rho)
        q[:, idx] = q[:, idx] @ v
    order = np.argsort(lam, kind="stable")
    return lam[order], q[:, order], steps


def same_bytes(x, y):
    """x.tobytes() == y.tobytes(), as one bool, so that a failure does not
    diff two long byte strings."""
    return x.tobytes() == y.tobytes()


def check_decomposition(w, nm, tol):
    recon = nm.u @ np.diag(nm.omega_sq) @ nm.u.T
    scale = np.linalg.norm(w)
    assert np.linalg.norm(recon - w) <= tol * scale
    assert np.linalg.norm(nm.u.T @ nm.u - np.eye(w.shape[0])) <= tol
    assert np.all(np.diff(nm.omega_sq) >= 0.0)
    # sign convention: the largest-magnitude component of each column > 0
    lead = np.argmax(np.abs(nm.u), axis=0)
    assert np.all(nm.u[lead, np.arange(w.shape[0])] > 0.0)


class TestModeSet:
    def test_ladder_structure(self):
        ms = ModeSet.ladder_1d(4, omega_fundamental=2.0)
        assert len(ms) == 4
        assert np.array_equal(ms.omega, [2.0, 4.0, 6.0, 8.0])
        assert np.array_equal(ms.pol, np.tile([1.0, 0.0, 0.0], (4, 1)))

    def test_polarizations_must_be_unit(self):
        with pytest.raises(PreconditionError):
            ModeSet(omega=np.array([1.0]), pol=np.array([[0.5, 0.0, 0.0]]))

    def test_frequencies_must_be_positive(self):
        with pytest.raises(PreconditionError):
            ModeSet(omega=np.array([1.0, -2.0]),
                    pol=np.tile([1.0, 0, 0], (2, 1)))

    def test_transversality_enforced(self):
        kappa = np.array([[0.0, 0.0, 1.0]])
        longitudinal = np.array([[0.0, 0.0, 1.0]])
        with pytest.raises(PreconditionError):
            ModeSet(omega=np.array([1.0]), pol=longitudinal, kappa=kappa)
        # transverse pair passes
        ModeSet(omega=np.array([1.0]), pol=np.array([[1.0, 0.0, 0.0]]),
                kappa=kappa)

    def test_ladder_guards(self):
        with pytest.raises(PreconditionError):
            ModeSet.ladder_1d(0)
        with pytest.raises(PreconditionError):
            ModeSet.ladder_1d(3, omega_fundamental=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_frequencies_rejected(self, bad):
        with pytest.raises(PreconditionError, match="finite"):
            ModeSet(omega=np.array([1.0, bad]),
                    pol=np.tile([1.0, 0, 0], (2, 1)))
        with pytest.raises(PreconditionError, match="finite"):
            ModeSet.ladder_1d(3, omega_fundamental=bad)

    @pytest.mark.parametrize("delta", [0.0, 1e-13, -1e-13, 1e-12, -1e-12,
                                       2e-12, -2e-12, 0.5, math.nan,
                                       math.inf, -math.inf])
    def test_unit_norm_check_is_allclose(self, delta):
        # one max compare accepts exactly what np.allclose(norms, 1, rtol=0,
        # atol=1e-12) accepts, NaN and +-inf included
        pol = np.array([[1.0, 0.0, 0.0], [1.0 + delta, 0.0, 0.0]])
        norms = np.linalg.norm(pol, axis=1)
        omega = np.array([1.0, 2.0])
        if np.allclose(norms, 1.0, rtol=0.0, atol=1e-12):
            ModeSet(omega=omega, pol=pol)
        else:
            with pytest.raises(PreconditionError, match="unit vectors"):
                ModeSet(omega=omega, pol=pol)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_momenta_rejected(self, bad):
        # a NaN momentum makes every transversality comparison False
        with pytest.raises(PreconditionError, match="finite"):
            ModeSet(omega=np.array([1.0]), pol=np.array([[1.0, 0.0, 0.0]]),
                    kappa=np.array([[bad, 0.0, 0.0]]))


class TestBuildW:
    def test_parallel_ladder_matrix(self):
        w = build_w(ModeSet.ladder_1d(3), 0.5)
        expect = np.diag([1.25, 4.25, 9.25]) + 0.25 * (np.ones((3, 3))
                                                       - np.eye(3))
        assert np.allclose(w, expect, rtol=0, atol=1e-15)

    def test_orthogonal_polarizations_decouple(self):
        ms = ModeSet(omega=np.array([1.0, 1.5]),
                     pol=np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        w = build_w(ms, 0.7)
        assert w[0, 1] == 0.0
        assert np.allclose(np.diag(w), [1.0 + 0.49, 2.25 + 0.49])

    def test_negative_coupling_rejected(self):
        with pytest.raises(DomainError):
            build_w(ModeSet.ladder_1d(2), -0.1)


class TestDiagonalizeW:
    def test_random_matrices_against_lapack(self, rng):
        for n in (2, 3, 5, 8, 13, 21, 40):
            w = random_symmetric(rng, n, scale=3.0)
            nm = diagonalize_w(w)
            check_decomposition(w, nm, 1e-12)
            ref = np.linalg.eigvalsh(w)
            assert np.allclose(nm.omega_sq, ref, rtol=1e-12,
                               atol=1e-13 * np.linalg.norm(w))
            # eigenvalue sum preserves the trace
            assert np.trace(w) == pytest.approx(nm.omega_sq.sum(),
                                                rel=1e-12, abs=1e-12)

    @settings(max_examples=25)
    @given(st.integers(2, 9), st.integers(0, 2**31 - 1))
    def test_decomposition_property(self, n, seed):
        w = random_symmetric(np.random.default_rng(seed), n)
        nm = diagonalize_w(w)
        check_decomposition(w, nm, 1e-11)

    def test_backends_agree(self, rng):
        # the one Jacobi kernel against LAPACK's eigh on the same W
        w = random_symmetric(rng, 12)
        nm = diagonalize_w(w)
        check_decomposition(w, nm, 1e-11)
        assert np.allclose(nm.omega_sq, np.linalg.eigh(w)[0], rtol=1e-12,
                           atol=1e-14 * np.linalg.norm(w))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # refused up front, not after max_sweeps as a ConvergenceError
        w = np.eye(4)
        w[1, 2] = w[2, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            diagonalize_w(w)

    @pytest.mark.parametrize("n", range(1, 34))
    def test_round_robin_schedule(self, n):
        # disjoint pairs p < q in each round, every pair once per sweep;
        # an odd n leaves one index idle (its own partner) per round
        rounds = _round_robin_schedule(n)
        assert rounds.shape == (n - 1 if n % 2 == 0 else n, n)
        assert np.array_equal(rounds, list(_reference_rounds(n)))
        met = []
        for partner in rounds:
            idx = np.arange(n)
            assert np.array_equal(partner[partner], idx)
            assert np.count_nonzero(partner == idx) == n % 2
            pairs = [(p, q) for p, q in enumerate(partner.tolist()) if p < q]
            assert len({i for pair in pairs for i in pair}) == 2 * len(pairs)
            met += pairs
        assert sorted(met) == [(p, q) for p in range(n)
                               for q in range(p + 1, n)]

    @pytest.mark.parametrize("n", [*range(1, 41), 57, 77, 101])
    def test_matches_reference_kernel(self, n):
        # same rotations in the same order: a, V^T, the sweeps and so
        # diagonalize_w's output match the per-round kernel byte for byte,
        # also on ties, zeros and degenerate build_w spectra, where a wrong
        # sign of a zero would show
        rng = np.random.default_rng([n, 11])
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = (np.repeat(rng.uniform(-1, 1, -(-n // 8)), 8)[:n]
               + 1e-9 * rng.normal(size=n))
        # -0.0 off the diagonal: rows that sit out keep their zeros' signs
        one_coupling = -np.diag(-rng.normal(size=n))
        one_coupling[0, -1] = one_coupling[-1, 0] = 0.3
        modes = transverse_modes(rng, n, degenerate=True)
        cases = [random_symmetric(rng, n), (q * lam) @ q.T, np.ones((n, n)),
                 np.round(3.0 * random_symmetric(rng, n)), np.zeros((n, n)),
                 one_coupling, 1e150 * random_symmetric(rng, n)]
        cases += [build_w(modes, ratio) for ratio in (0.0, 0.5, 3.0)]
        for w in cases:
            w = 0.5 * (w + w.T)
            tol_fro = manymode.OFFDIAG_TOL_FACTOR * np.linalg.norm(w)
            skip_thr = tol_fro / (2.0 * n)
            a, vt = w.copy(), np.eye(n)
            sweeps = _reference_round_robin(a, vt, skip_thr, tol_fro,
                                            manymode.MAX_SWEEPS)
            av = np.stack([w, np.eye(n)])
            got = manymode._jacobi_round_robin(av, skip_thr, tol_fro,
                                               manymode.MAX_SWEEPS)
            assert got[0] == sweeps >= 0
            assert same_bytes(av[0], a)
            assert same_bytes(av[1], vt)
            ref = _normal_form(np.diag(a).copy(), vt.T, sweeps)
            nm = diagonalize_w(w)
            assert nm.sweeps == ref.sweeps
            assert same_bytes(nm.omega_sq, ref.omega_sq)
            assert same_bytes(nm.u, ref.u)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 57])
    def test_operand_forms_give_the_same_bytes(self, monkeypatch, n):
        # c and s multiplied as (n, 1) columns (limit 0) or expanded to
        # full buffers (limit above n): the reference kernel's cases pass
        # either way, and every kernel call returns the same counters and
        # leaves the same bytes
        kernel = manymode._jacobi_round_robin
        runs = []

        def recorded(av, *args):
            out = kernel(av, *args)
            runs[-1].append((out, av.tobytes()))
            return out

        monkeypatch.setattr(manymode, "_jacobi_round_robin", recorded)
        for limit in (0, n + 1):
            monkeypatch.setattr(manymode, "_EXPAND_MAX_N", limit)
            runs.append([])
            self.test_matches_reference_kernel(n)
        assert len(runs[0]) == 20   # the kernel and diagonalize_w per case
        assert runs[0] == runs[1]

    def test_logs_rotation_counts(self, caplog, rng):
        def logged(w):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="cavity2deg"):
                nm = diagonalize_w(w)
            fields = caplog.records[-1].getMessage().split(", ")[1:]
            counts = dict(f.split(" = ") for f in fields)
            return (nm.sweeps, int(counts["rotations"]),
                    int(counts["skipped rounds"]))

        assert logged(np.diag([3.0, 1.0, 2.0])) == (0, 0, 0)
        assert logged(np.array([[1.0, 0.5], [0.5, 2.0]])) == (1, 1, 0)
        # one coupled pair: one of the three rounds of the sweep rotates
        one = np.diag([1.0, 2.0, 3.0, 4.0])
        one[0, 3] = one[3, 0] = 0.5
        assert logged(one) == (1, 1, 2)
        n = 24
        sweeps, rotations, skipped = logged(random_symmetric(rng, n))
        assert 0 < rotations <= sweeps * n * (n - 1) // 2
        assert 0 <= skipped <= sweeps * (n - 1)

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="non-empty"):
            diagonalize_w(np.zeros((0, 0)))

    def test_norm_overflow_rejected(self):
        # finite entries whose ||W||_F overflows: an infinite tolerance
        # would return the unrotated diagonal at sweep 0
        with pytest.raises(DomainError, match="overflows"):
            diagonalize_w(np.array([[1e200, 3e199], [3e199, 2e200]]))

    def test_diagonal_input_converges_immediately(self):
        nm = diagonalize_w(np.diag([3.0, 1.0, 2.0]))
        assert nm.sweeps == 0
        assert np.array_equal(nm.omega_sq, [1.0, 2.0, 3.0])

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            diagonalize_w(np.ones((2, 3)))

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 2.0], [0.5, 1.0]])
        with pytest.raises(DomainError):
            diagonalize_w(a)

    def test_convergence_error(self, monkeypatch, rng):
        w = random_symmetric(rng, 6)
        monkeypatch.setattr(manymode, "MAX_SWEEPS", 0)
        with pytest.raises(ConvergenceError, match="sweeps"):
            diagonalize_w(w)

    def test_degenerate_eigenvalues(self):
        # repeated eigenvalues: decomposition still orthogonal and exact;
        # the second case is an odd size with 8-fold clusters split by ~1e-9
        clustered = (np.repeat(np.random.default_rng(3).uniform(-1, 1, 5), 8)
                     [:37] + 1e-9 * np.random.default_rng(4).normal(size=37))
        for eigs in (np.array([1.0, 1.0, 1.0, 2.0, 2.0, 5.0]), clustered):
            n = eigs.size
            q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(n, n)))
            w = q @ np.diag(eigs) @ q.T
            w = 0.5 * (w + w.T)
            nm = diagonalize_w(w)
            check_decomposition(w, nm, 1e-11)
            assert np.allclose(nm.omega_sq, np.sort(eigs), atol=1e-12)

    def test_deterministic_output(self, rng):
        w = random_symmetric(rng, 10)
        nm1 = diagonalize_w(w)
        nm2 = diagonalize_w(w.copy())
        assert np.array_equal(nm1.omega_sq, nm2.omega_sq)
        assert np.array_equal(nm1.u, nm2.u)

    def test_input_not_mutated(self, rng):
        w = random_symmetric(rng, 5)
        keep = w.copy()
        diagonalize_w(w)
        assert np.array_equal(w, keep)

    @pytest.mark.parametrize("n", [5, 12])
    def test_any_layout_of_w_gives_the_same_bytes(self, rng, n):
        # W is read, not copied: a Fortran-ordered, a read-only and a
        # nested-list W decompose to the bytes of the C-ordered one and
        # are left as they were
        w = random_symmetric(rng, n)
        ref = diagonalize_w(w)
        fortran = np.asfortranarray(w)
        frozen = w.copy()
        frozen.flags.writeable = False
        for layout in (fortran, frozen, w.tolist()):
            keep = np.array(layout)
            nm = diagonalize_w(layout)
            assert nm.sweeps == ref.sweeps
            assert same_bytes(nm.omega_sq, ref.omega_sq)
            assert same_bytes(nm.u, ref.u)
            assert same_bytes(np.asarray(layout), keep)
        assert fortran.flags.f_contiguous and not frozen.flags.writeable


class TestNormalModes:
    def test_rotated_polarizations_attached(self):
        ms = ModeSet.ladder_1d(4)
        nm = normal_modes(ms, 0.8)
        assert nm.eps_tilde is not None
        assert np.allclose(nm.eps_tilde, nm.u.T @ ms.pol)

    def test_rotation_shape_guard(self):
        ms = ModeSet.ladder_1d(3)
        with pytest.raises(DomainError):
            rotated_polarizations(ms, np.eye(4))

    def test_negative_eigenvalue_blocks_frequencies(self):
        nm = NormalModes(omega_sq=np.array([-1.0, 2.0]), u=np.eye(2),
                         sweeps=1)
        with pytest.raises(DomainError):
            nm.omega

    def test_dark_and_bright_pair(self):
        # two degenerate parallel modes: the antisymmetric combination
        # decouples and keeps the bare frequency
        omega, omega_p = 2.0, 0.9
        ms = ModeSet(omega=np.array([omega, omega]),
                     pol=np.tile([1.0, 0, 0], (2, 1)))
        nm = normal_modes(ms, omega_p)
        assert nm.omega_sq[0] == pytest.approx(omega**2, rel=1e-14)
        assert nm.omega_sq[1] == pytest.approx(omega**2 + 2 * omega_p**2,
                                               rel=1e-14)
        assert abs(nm.eps_tilde[0, 0]) <= 1e-12          # dark
        assert nm.eps_tilde[1, 0] == pytest.approx(math.sqrt(2.0),
                                                   rel=1e-12)  # bright


def transverse_modes(rng, m, degenerate=False):
    """Random momenta with unit polarizations transverse to them; with
    ``degenerate`` the frequencies sit on a coarse grid, so that several
    modes share one."""
    kappa = rng.normal(size=(m, 3))
    pol = rng.normal(size=(m, 3))
    pol -= (np.einsum("ij,ij->i", pol, kappa)
            / np.einsum("ij,ij->i", kappa, kappa))[:, None] * kappa
    pol /= np.linalg.norm(pol, axis=1)[:, None]
    omega = rng.uniform(0.5, 5.0, m)
    if degenerate:
        omega = np.round(2.0 * omega) / 2.0
    return ModeSet(omega=omega, pol=pol, kappa=kappa)


def te_tm_pairs(rng, m):
    """m/2 frequencies, each carried by two orthogonal polarizations
    transverse to one momentum, as the TE and TM modes of a cavity."""
    kappa = rng.normal(size=(m // 2, 3))
    e1 = np.cross(kappa, rng.normal(size=3))
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(kappa, e1)
    e2 /= np.linalg.norm(e2, axis=1)[:, None]
    pol = np.stack([e1, e2], axis=1).reshape(-1, 3)
    omega = np.repeat(rng.uniform(0.5, 5.0, m // 2), 2)
    return ModeSet(omega=omega, pol=pol, kappa=np.repeat(kappa, 2, axis=0))


def graded_updates(n, seed=7):
    """n rank-one problems (d, z, rho) with poles spaced from 1e-14 to 1 and
    weights from 1e-12 to 1, K from 3 to 39."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k = int(rng.integers(3, 40))
        d = np.cumsum(10.0 ** rng.uniform(-14, 0, k))
        z = rng.normal(size=k) * 10.0 ** rng.uniform(-12, 0, k)
        z /= np.linalg.norm(z)
        yield d, z, 10.0 ** rng.uniform(-4, 3)


def assert_structured_matches(modes, omega_p, jacobi_bound=False):
    """normal_modes' structured path against dense Jacobi on build_w and
    LAPACK within rel 1e-12 or eps ||W||_F.  Jacobi is held to rel 1e-12,
    or with ``jacobi_bound`` to its own guarantee: it stops at an
    off-diagonal norm of OFFDIAG_TOL_FACTOR ||W||_F, which bounds its
    eigenvalue error."""
    nm = normal_modes(modes, omega_p)
    w = build_w(modes, omega_p)
    assert nm.sweeps == 0
    ref = diagonalize_w(w)
    tol = (dict(rel=0, abs=manymode.OFFDIAG_TOL_FACTOR * np.linalg.norm(w))
           if jacobi_bound else dict(rel=1e-12))
    assert nm.omega_sq == pytest.approx(ref.omega_sq, **tol)
    check_decomposition(w, nm, 1e-11)
    assert np.allclose(nm.eps_tilde, nm.u.T @ modes.pol, rtol=0, atol=1e-12)
    eps = np.finfo(float).eps
    assert nm.omega_sq == pytest.approx(
        np.linalg.eigvalsh(w), rel=1e-12, abs=eps * np.linalg.norm(w))
    return nm


@pytest.mark.filterwarnings("error")
class TestStructuredModes:
    """normal_modes solves W = D + omega_p^2 P P^T by rank-one updates;
    build_w + diagonalize_w (and LAPACK) are its oracles."""

    @settings(max_examples=40)
    @given(st.integers(1, 30), st.floats(0.0, 3.0), st.booleans(),
           st.integers(0, 2**31 - 1))
    # degenerate modes split by a tiny ratio: Jacobi is 1.7e-12 off at
    # eigenvalue 1, inside its bound 3.6e-11 but outside rel 1e-12
    @example(15, 1e-6, True, 298852)
    def test_matches_dense_jacobi_property(self, m, ratio, degenerate, seed):
        modes = transverse_modes(np.random.default_rng(seed), m, degenerate)
        assert_structured_matches(modes, ratio, jacobi_bound=True)

    def test_single_mode(self):
        modes = ModeSet(omega=np.array([1.7]), pol=np.array([[0.0, 0.6, 0.8]]))
        nm = assert_structured_matches(modes, 0.9)
        assert nm.omega_sq[0] == pytest.approx(1.7**2 + 0.81, rel=1e-15)

    def test_zero_coupling(self, rng):
        modes = transverse_modes(rng, 12)
        nm = assert_structured_matches(modes, 0.0)
        assert np.array_equal(nm.omega_sq, np.sort(modes.omega**2))

    def test_ladder_grid(self):
        # the grid of TestLowestModeScan.test_matches_dense_solvers
        for m in (1, 2, 3, 9, 40, 100, 200):
            for ratio in (0.0, 1e-8, 0.05, 0.3, 0.9, 1.0, 3.0, 30.0):
                assert_structured_matches(ModeSet.ladder_1d(m), ratio)

    @pytest.mark.parametrize("m", [2, 6, 40])
    def test_degenerate_te_tm_pairs(self, rng, m):
        assert_structured_matches(te_tm_pairs(rng, m), 0.8)

    def test_zero_polarization_components(self):
        # exact zeros in the columns of P: z_j = 0 deflates in each update
        pol = np.array([[1.0, 0, 0], [0, 1.0, 0], [0.6, 0, 0.8],
                        [0, 0.8, -0.6], [1.0, 0, 0], [0, 0, 1.0]])
        modes = ModeSet(omega=np.array([1.0, 1.3, 1.3, 2.0, 2.5, 2.5]),
                        pol=pol)
        assert_structured_matches(modes, 1.1)

    def test_graded_updates_stay_orthogonal(self):
        # the Loewner vector keeps U orthogonal to ~1e-15 where vectors from
        # z itself drift to ~1e-13
        for d, z, rho in graded_updates(800):
            k = d.size
            lam, q, _ = manymode._rank_one_update(d.copy(), np.eye(k),
                                                  z.copy(), rho)
            w = np.diag(d) + rho * np.outer(z, z)
            assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-14
            assert (np.linalg.norm((q * lam) @ q.T - w)
                    <= 1e-14 * np.linalg.norm(w))

    def test_root_subset_matches_full_solve(self, monkeypatch):
        # _secular_eig(d, z, rho, count) gives the lowest count roots of the
        # full solve bit for bit, on every secular problem that the graded
        # updates hand it after deflation and on the ladder
        calls = []
        solve = manymode._secular_eig
        monkeypatch.setattr(manymode, "_secular_eig",
                            lambda *args: calls.append(args) or solve(*args))
        for d, z, rho in graded_updates(200):
            manymode._rank_one_update(d, np.eye(d.size), z, rho)
        monkeypatch.undo()
        for m in (2, 3, 40, 200):
            d = np.arange(1.0, m + 1) ** 2
            for ratio in (1e-4, 0.3, 0.9, 30.0, 1e8):
                calls.append((d, np.full(m, 1.0 / math.sqrt(m)),
                              m * ratio**2))
        for d, z, rho in calls:
            roots = solve(d, z, rho)[0]
            for count in sorted({1, max(1, d.size // 2), d.size}):
                sub, v, _ = solve(d, z, rho, count)
                assert v is None
                assert sub.tobytes() == roots[:count].tobytes()

    def test_lowest_scan_root_is_lowest_mode(self):
        for m in (2, 9, 40, 100, 200):
            for ratio in (0.05, 0.3, 0.9, 3.0, 30.0):
                row = lowest_mode_scan([ratio], n_modes=m)[0, 1]
                lam = (1.0 + ratio**2) * (1.0 - row / 100.0) ** 2
                nm = normal_modes(ModeSet.ladder_1d(m), ratio)
                assert lam == pytest.approx(nm.omega_sq[0], rel=1e-12)

    def test_secular_steps_stay_under_cap(self):
        # Newton on the secular function converges quadratically: far
        # fewer steps than bisection (~50) or the hard cap of 100
        worst = 0
        for seed in range(30):
            rng = np.random.default_rng([seed, 7])
            for m in (8, 24, 60):
                modes = transverse_modes(rng, m, degenerate=seed % 3 == 0)
                for ratio in (0.05, 0.5, 1.0, 3.0):
                    steps = normal_modes(modes, ratio).secular_steps
                    worst = max(worst, *steps)
        assert worst <= 20

    def test_step_cap_raises(self, monkeypatch, rng):
        monkeypatch.setattr(manymode, "MAX_SECULAR_STEPS", 1)
        with pytest.raises(ConvergenceError, match="secular"):
            normal_modes(transverse_modes(rng, 10), 1.0)

    def test_overflowing_frequencies_rejected(self):
        modes = ModeSet(omega=np.array([1.0, 1e200]),
                        pol=np.tile([1.0, 0, 0], (2, 1)))
        with pytest.raises(DomainError, match="diagonal of W overflows"):
            normal_modes(modes, 0.5)

    def test_overflowing_eigenvalue_rejected(self):
        # the diagonal (1e308, 1.69e308) is finite, but the two eigenvalues
        # sum to the trace 4.69e308, so the larger one overflows
        modes = ModeSet(omega=np.array([1e154, 1.3e154]),
                        pol=np.tile([1.0, 0, 0], (2, 1)))
        with pytest.raises(DomainError, match="eigenvalue of W overflows"):
            normal_modes(modes, 1e154)

    def test_logs_the_path(self, caplog):
        modes = ModeSet.ladder_1d(5)
        with caplog.at_level(logging.DEBUG, logger="cavity2deg"):
            normal_modes(modes, 0.5)
            diagonalize_w(build_w(modes, 0.5))
        assert [r.getMessage().split(",")[:2] for r in caplog.records] == [
            ["normal_modes: structured", " M = 5"],
            ["diagonalize_w: jacobi", " M = 5"]]
        assert "secular steps per update = [" in caplog.records[0].getMessage()
        assert any(isinstance(h, logging.NullHandler)
                   for h in logging.getLogger("cavity2deg").handlers)


def deflating_updates(n, seed=5):
    """n rank-one problems (d, z, rho) with poles on a coarse grid, some a
    rounding apart, so that equal and nearly equal neighbours deflate by a
    rotation, and with exact zeros in z, which deflate directly."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        k = int(rng.integers(2, 30))
        d = np.sort(np.round(rng.uniform(0.0, 3.0, k), 1)
                    * (1.0 + manymode.EPS * rng.integers(0, 3, k)))
        z = rng.normal(size=k)
        z[rng.random(k) < 0.2] = 0.0
        z[rng.integers(k)] = 1.0
        z /= np.linalg.norm(z)
        yield d, z, float(rng.uniform(0.1, 3.0))


def secular_problems():
    """(d, z, rho) problems as ``_rank_one_update`` hands them to the
    secular solver, after deflation, plus K = 1 and 2 and the ladder."""
    calls = []
    solve = manymode._secular_eig

    def record(*args):
        calls.append(tuple(x.copy() if isinstance(x, np.ndarray) else x
                           for x in args))
        return solve(*args)

    manymode._secular_eig = record
    try:
        for d, z, rho in (*graded_updates(60, seed=3),
                          *deflating_updates(60, seed=4)):
            manymode._rank_one_update(d, np.eye(d.size), z, rho)
    finally:
        manymode._secular_eig = solve
    calls += [(np.array([0.5]), np.array([1.0]), 2.0),
              (np.array([0.5, 0.75]), np.array([0.6, -0.8]), 1e-3),
              (np.array([-1.0, 4.0]), np.array([0.8, 0.6]), 30.0)]
    for m in (3, 40):
        d = np.arange(1.0, m + 1) ** 2
        calls += [(d, np.full(m, 1.0 / math.sqrt(m)), m * ratio**2)
                  for ratio in (1e-4, 0.9, 30.0)]
    return calls


@pytest.mark.filterwarnings("error")
class TestSecularOracle:
    """``_secular_eig`` and ``_rank_one_update`` against the reference
    copies above: the same arithmetic on the same operands, so equal bytes
    and equal secular step counts."""

    def test_rank_one_updates_match_reference(self):
        for d, z, rho in (*graded_updates(150), *deflating_updates(150)):
            k = d.size
            lam, q, steps = manymode._rank_one_update(d.copy(), np.eye(k),
                                                      z.copy(), rho)
            ref = _reference_rank_one_update(d.copy(), np.eye(k), z.copy(),
                                             rho)
            assert steps == ref[2]
            assert same_bytes(lam, ref[0])
            assert same_bytes(q, ref[1])

    def test_secular_roots_match_reference(self):
        # every count subset, the last root included when count = K
        for d, z, rho in secular_problems():
            for count in sorted({1, max(1, d.size // 2), d.size}) + [None]:
                roots, v, steps = manymode._secular_eig(d, z, rho, count)
                ref = _reference_secular_eig(d, z, rho, count)
                assert steps == ref[2]
                assert same_bytes(roots, ref[0])
                assert (v is None) == (ref[1] is None) == (count is not None)
                assert v is None or same_bytes(v, ref[1])

    def test_library_results_match_reference(self, monkeypatch):
        # normal_modes (1-D, 2-D and 3-D polarizations, degenerate modes)
        # and mode_ladder's three calls: exact_coupling_1d solves nothing,
        # lowest_mode_scan one root per row
        rng = np.random.default_rng(17)
        cases = [(ModeSet.ladder_1d(m), ratio)
                 for m in (1, 2, 24) for ratio in (0.0, 0.3, 3.0)]
        cases += [(transverse_modes(rng, m, degenerate=m % 2 == 0), ratio)
                  for m in (2, 7, 24, 31) for ratio in (0.05, 1.0, 2.5)]
        cases += [(te_tm_pairs(rng, m), 0.8) for m in (2, 12, 24)]
        ratios = [0.0, 1e-9, 0.05, 0.3, 0.9, 3.0, 30.0, 1e6]

        def run():
            out = []
            for modes, omega_p in cases:
                nm = normal_modes(modes, omega_p)
                out += [nm.omega_sq.tobytes(), nm.u.tobytes(),
                        nm.eps_tilde.tobytes(), nm.secular_steps]
            for m in (*range(1, 13), 24, 100, 400):
                out.append(lowest_mode_scan(ratios, n_modes=m).tobytes())
                out += [repr(exact_coupling_1d(m, 1.0, r)) for r in ratios]
            return out

        got = run()
        monkeypatch.setattr(manymode, "_secular_eig", _reference_secular_eig)
        monkeypatch.setattr(manymode, "_rank_one_update",
                            _reference_rank_one_update)
        want = run()
        assert len(got) == len(want)
        for i, (x, y) in enumerate(zip(got, want)):
            assert x == y, i

    def test_counters_match_log_and_reference(self, caplog, monkeypatch,
                                              rng):
        modes = transverse_modes(rng, 16)
        with caplog.at_level(logging.DEBUG, logger="cavity2deg"):
            nm = normal_modes(modes, 0.8)
            dense = diagonalize_w(build_w(modes, 0.8))
        structured, jacobi = (r.getMessage() for r in caplog.records)
        assert structured.endswith(
            f"secular steps per update = {list(nm.secular_steps)}")
        assert len(nm.secular_steps) == 3
        assert (nm.sweeps, nm.rotations, nm.skipped_rounds) == (0, 0, 0)
        counts = dict(f.split(" = ") for f in jacobi.split(", ")[1:])
        assert (dense.sweeps, dense.rotations, dense.skipped_rounds) == (
            int(counts["sweeps"]), int(counts["rotations"]),
            int(counts["skipped rounds"]))
        assert dense.rotations > 0
        assert dense.secular_steps == ()
        monkeypatch.setattr(manymode, "_rank_one_update",
                            _reference_rank_one_update)
        assert normal_modes(modes, 0.8).secular_steps == nm.secular_steps


class TestManymodeSpectrum:
    def test_two_orthogonal_modes_reduce_to_single_mode(self):
        # one cavity frequency, x and y polarizations: exactly the
        # two-polarization single-mode spectrum
        cfg = SystemConfig.si(10**8, 1e-8, 1e-6, mode_frequency=2e13)
        ds = DerivedScales(cfg)
        omega, omega_p = ds.omega, ds.omega_p
        ms = ModeSet(omega=np.array([omega, omega]),
                     pol=np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        nm = normal_modes(ms, omega_p)
        for n1, n2, kx, ky, kin in ((0, 0, 0.0, 0.0, 0.0),
                                    (1, 0, 2e8, 0.0, 4e16),
                                    (2, 3, 1e8, -3e8, 2e17)):
            idx = SpectrumIndex(n1, n2, (kx, ky), kin, cfg.n_electrons)
            ref = eigenenergy(idx, ds)
            got = manymode_spectrum((n1, n2), (kx, ky), kin, nm, omega_p,
                                    cfg.n_electrons)
            assert got == pytest.approx(ref, rel=1e-13)

    def test_requires_rotated_polarizations(self):
        nm = diagonalize_w(build_w(ModeSet.ladder_1d(2), 0.5))
        with pytest.raises(PreconditionError):
            manymode_spectrum((0, 0), (0.0, 0.0), 0.0, nm, 0.5, 10)

    def test_occupation_guards(self):
        nm = normal_modes(ModeSet.ladder_1d(2), 0.5)
        with pytest.raises(PreconditionError):
            manymode_spectrum((0,), (0.0, 0.0), 0.0, nm, 0.5, 10)
        with pytest.raises(PreconditionError):
            manymode_spectrum((0, -1), (0.0, 0.0), 0.0, nm, 0.5, 10)
        with pytest.raises(PreconditionError):
            manymode_spectrum((0, 0), (0.0, 0.0), 0.0, nm, 0.5, 0)

    def test_degenerate_mode_rejected(self):
        nm = NormalModes(omega_sq=np.array([0.0, 4.0]), u=np.eye(2),
                         sweeps=0, eps_tilde=np.array([[1.0, 0, 0],
                                                       [1.0, 0, 0]]))
        with pytest.raises(DegenerateModeError):
            manymode_spectrum((0, 0), (1.0, 0.0), 1.0, nm, 0.5, 10)

    def test_three_vector_momentum_accepted(self):
        nm = normal_modes(ModeSet.ladder_1d(2), 0.5)
        e2 = manymode_spectrum((0, 0), (1.0, 0.5), 2.0, nm, 0.5, 10)
        e3 = manymode_spectrum((0, 0), (1.0, 0.5, 0.0), 2.0, nm, 0.5, 10)
        assert e2 == e3

    def test_four_vector_momentum_rejected(self):
        nm = normal_modes(ModeSet.ladder_1d(2), 0.5)
        with pytest.raises(PreconditionError, match="K"):
            manymode_spectrum((0, 0), (1.0, 0.5, 0.0, 0.0), 2.0, nm, 0.5, 10)


def modeset_ladder(m, w0):
    """The ladder as ModeSet.ladder_1d built it before the closed forms
    stopped building one: the frequencies through a full ModeSet."""
    return ModeSet(omega=w0 * np.arange(1, m + 1, dtype=float),
                   pol=np.tile([1.0, 0.0, 0.0], (m, 1)))


class TestLadderFrequencies:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 500), st.floats(-300.0, 300.0),
           st.floats(-8.0, 4.0))
    def test_closed_forms_match_the_modeset_route(self, m, w_exp, r_exp):
        # the helper's frequencies and the coupling built on them are the
        # ModeSet route's, bit for bit
        w0, ratio = 10.0**w_exp, 10.0**r_exp
        omega = modeset_ladder(m, w0).omega
        assert same_bytes(manymode._ladder_omega(m, w0), omega)
        assert same_bytes(ModeSet.ladder_1d(m, w0).omega, omega)
        with np.errstate(all="ignore"):
            s = float(np.sum(1.0 / omega**2))
        if math.isfinite(s):
            ref = manymode._coupling_fraction(ratio**2 * s)
            assert same_bytes(np.float64(exact_coupling_1d(m, w0, ratio)),
                              np.float64(ref))
        else:
            with pytest.raises(DomainError):
                exact_coupling_1d(m, w0, ratio)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w0", [1e-200, 1e-160])
    def test_vanishing_fundamental_is_a_domain_error(self, w0):
        # omega^2 underflows to 0, or 1/omega^2 overflows: no RuntimeWarning
        with pytest.raises(DomainError, match="omega_fundamental"):
            exact_coupling_1d(3, w0, 0.5)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_ladder_is_a_precondition_error(self):
        # M omega_fundamental past the float range is refused before the
        # array is built, with ModeSet's message
        with pytest.raises(PreconditionError, match="must be finite"):
            exact_coupling_1d(3, 1e308, 0.5)
        with pytest.raises(PreconditionError, match="must be finite"):
            ModeSet.ladder_1d(3, 1e308)
        # omega^2 overflows but M omega does not: s underflows to 0
        assert exact_coupling_1d(3, 1e200, 0.5) == 0.0

    def test_mode_count_cap(self):
        # the largest M whose M x M float64 matrix fits in 1 GiB
        cap = manymode.MAX_MODES
        assert cap * cap * 8 <= 2**30 < (cap + 1) ** 2 * 8
        assert 0.0 < exact_coupling_1d(cap, 1.0, 0.5) < 1.0   # O(M) memory
        calls = (lambda m: manymode._ladder_omega(m, 1.0), ModeSet.ladder_1d,
                 lambda m: exact_coupling_1d(m, 1.0, 0.5),
                 lambda m: lowest_mode_scan([0.5], n_modes=m))
        for call in calls:
            for m in (cap + 1, 10**19):
                with pytest.raises(PreconditionError, match="MAX_MODES"):
                    call(m)


class TestLadderCoupling:
    def test_single_mode_limit_is_gamma(self):
        for ratio in (0.2, 1.0, 3.0):
            g = exact_coupling_1d(1, 1.0, ratio)
            assert g == pytest.approx(ratio**2 / (1 + ratio**2), rel=1e-13)

    def test_sherman_morrison_oracle(self):
        # W = diag(n^2) + wp^2 * ones => g = wp^2 s/(1 + wp^2 s),
        # s = sum 1/n^2, from one rank-one resolvent identity
        for m, ratio in ((3, 0.5), (17, 1.0), (60, 0.25), (60, 2.0)):
            s = sum(1.0 / n**2 for n in range(1, m + 1))
            ref = ratio**2 * s / (1.0 + ratio**2 * s)
            assert exact_coupling_1d(m, 1.0, ratio) == pytest.approx(
                ref, rel=1e-10)

    @given(st.integers(1, 30), st.floats(0.05, 3.0))
    def test_sherman_morrison_property(self, m, ratio):
        s = sum(1.0 / n**2 for n in range(1, m + 1))
        ref = ratio**2 * s / (1.0 + ratio**2 * s)
        assert exact_coupling_1d(m, 1.0, ratio) == pytest.approx(ref,
                                                                 rel=1e-9)

    def test_matches_eigendecomposition_route(self):
        # the linear solve against the normal-mode sum it stands in for,
        # sum_g wp^2 (eps~_g,x)^2 / Omega_g^2 from the LAPACK eigenpairs
        for m in (1, 2, 9, 40, 120, 200):
            for ratio in (0.05, 0.3, 1.0, 3.0):
                modes = ModeSet.ladder_1d(m)
                omega_sq, u = np.linalg.eigh(build_w(modes, ratio))
                eps_tilde = rotated_polarizations(modes, u)
                ref = float(np.sum(ratio**2 * eps_tilde[:, 0]**2 / omega_sq))
                assert exact_coupling_1d(m, 1.0, ratio) == pytest.approx(
                    ref, rel=1e-11)

    def test_non_finite_coupling_rejected(self):
        for ratio in (math.nan, math.inf):
            with pytest.raises(DomainError):
                exact_coupling_1d(5, 1.0, ratio)

    def test_overflowing_rank_one_sum_is_the_limit(self):
        # omega_p^2 s overflows to inf, where inf/inf would give nan; the
        # coupling is then 1 to double precision
        assert exact_coupling_1d(3, 1.0, 1.3e154) == 1.0
        assert exact_coupling_1d(3, 1.0, 1e154) == 1.0   # finite, rounds to 1

    def test_overflowing_coupling_rejected(self):
        # omega_p^2 or sum 1/omega_n^2 overflows to inf, which would give
        # inf/inf = nan
        with pytest.raises(DomainError):
            exact_coupling_1d(5, 1.0, 1e200)
        with np.errstate(over="ignore"), pytest.raises(DomainError):
            exact_coupling_1d(5, 1e-160, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_fundamental_rejected(self, bad):
        # unchecked, inf would give g = 0.0 and nan would give nan
        with pytest.raises(PreconditionError):
            exact_coupling_1d(5, bad, 0.5)

    def test_monotone_in_mode_count(self):
        gs = [exact_coupling_1d(m, 1.0, 0.5) for m in range(1, 30)]
        assert all(b > a for a, b in zip(gs, gs[1:]))
        # bounded by the infinite-ladder value wp^2 zeta(2)/(1+wp^2 zeta(2))
        s_inf = math.pi**2 / 6
        assert gs[-1] < 0.25 * s_inf / (1 + 0.25 * s_inf)

    def test_secular_equation_lowest_mode(self):
        # lowest eigenvalue of diag(n^2) + wp^2 ones solves
        # 1 + wp^2 sum_n 1/(n^2 - lam) = 0; the positive rank-one update
        # pushes it into the interlacing window (1, 4)
        m, ratio = 40, 0.8

        def secular(lam):
            return 1.0 + ratio**2 * sum(1.0 / (n**2 - lam)
                                        for n in range(1, m + 1))

        root = brentq(secular, 1.0 + 1e-12, 4.0 - 1e-12, xtol=1e-14)
        nm = diagonalize_w(build_w(ModeSet.ladder_1d(m), ratio))
        assert nm.omega_sq[0] == pytest.approx(root, rel=1e-10)


def reference_row(mpmath, m, ratio):
    """The lowest-scan row to 45 digits.  The lowest root is 1 + t, with t
    the root of h(t) = t (1 + rho sum_n 1/(n^2 - 1 - t)) - rho, n = 2..M,
    which is increasing and convex on [0, 3).  Newton falls onto it from
    rho / (1 + rho sum_n 1/(n^2 - 1)) or from 3 (1 - 1e-40), whichever is
    lower (at large rho the first rounds onto the pole 3); h >= 0 at both.
    rho - t ~ rho^2 cancels about -2 log10(ratio) digits, so the working
    precision and the Newton stop carry that many more."""
    extra = max(0, -2 * math.floor(math.log10(ratio))) if ratio else 0
    with mpmath.workdps(50 + extra):
        rho = mpmath.mpf(ratio) ** 2
        d = [mpmath.mpf(n * n - 1) for n in range(2, m + 1)]
        t = rho / (1 + rho * mpmath.fsum(1 / x for x in d))
        if d:
            t = min(t, 3 * (1 - mpmath.mpf(10) ** -40))
        for _ in range(200):
            psi = rho * mpmath.fsum(1 / (x - t) for x in d)
            dpsi = rho * mpmath.fsum(1 / (x - t) ** 2 for x in d)
            step = (t * (1 + psi) - rho) / (1 + psi + t * dpsi)
            t -= step
            if abs(step) <= t * mpmath.mpf(10) ** -(45 + extra):
                break
        edge = mpmath.sqrt(1 + rho)
        # edge - Omega = (edge^2 - Omega^2) / (edge + Omega), no cancellation
        return 100 * (rho - t) / (edge * (edge + mpmath.sqrt(1 + t)))


class TestLowestModeScan:
    def test_zero_coupling_row(self):
        rows = lowest_mode_scan([0.0], n_modes=20)
        assert rows[0, 0] == 0.0
        assert rows[0, 1] == pytest.approx(0.0, abs=1e-10)

    def test_difference_grows_with_coupling(self):
        rows = lowest_mode_scan(np.linspace(0.0, 0.9, 7), n_modes=40)
        assert np.all(np.diff(rows[:, 1]) > 0.0)

    def test_frozen_strongest_point(self):
        rows = lowest_mode_scan([0.9], n_modes=100)
        assert rows[0, 1] == pytest.approx(9.3472, abs=2e-3)

    def test_negative_ratio_rejected(self):
        with pytest.raises(DomainError):
            lowest_mode_scan([-0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
    def test_non_finite_ratio_rejected(self, bad):
        with pytest.raises(DomainError):
            lowest_mode_scan([0.5, bad])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [1, 2, 3, 100])
    def test_matches_50_digit_root(self, m):
        # the absolute bound is about one ulp of Omega.  The relative bound
        # holds down to rows that underflow, as edge - Omega comes from the
        # secular equation, not from a subtraction.  At M = 2 and ratio 2e8
        # a scalar Newton once returned the pole 4 for the root 2.5
        mpmath = pytest.importorskip("mpmath")
        ratios = [*(10.0 ** np.arange(-160, 151, 31)).tolist(), 1.0, 2e8,
                  1e-8, 1e-6, 1e-4]
        eps = np.finfo(float).eps
        for ratio, row in lowest_mode_scan(ratios, n_modes=m):
            ref = reference_row(mpmath, m, ratio)
            err = abs(mpmath.mpf(row) - ref)
            assert err <= np.spacing(row) + 100 * eps, (ratio, row, ref)
            assert err <= 8 * eps * ref + 2.0**-1074, (ratio, row, ref)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 500), st.floats(-324.0, 154.1))
    # 100 * gap / edge once rounded past edge here: 100.00000000000003
    @example(3, 23.035456833789)
    def test_any_accepted_ratio_property(self, m, exponent):
        # every ratio whose square is finite, subnormal ones included; the
        # row is a percentage, to its two roundings
        row = lowest_mode_scan([10.0 ** exponent], n_modes=m)[0, 1]
        assert 0.0 <= row <= 100.0 + np.spacing(100.0)

    @pytest.mark.filterwarnings("error")
    def test_seeded_rows_stay_within_100(self):
        # the same range as the property, on a fixed draw: each factor of
        # 100 frac rho / ((1 + rho) + edge Omega) is <= 1 after rounding,
        # so no row passes 100.  The form 100 (edge - Omega) / edge put 56
        # of these 2,100 rows above it
        rng = np.random.default_rng(2006_09236)
        for m in [*range(1, 40), 100, 200, 500]:
            ratios = 10.0 ** rng.uniform(-324.0, 154.1, 50)
            rows = lowest_mode_scan(ratios.tolist(), n_modes=m)[:, 1]
            assert 0.0 <= rows.min() and rows.max() <= 100.0, m

    def test_matches_dense_solvers(self):
        # the secular root against the lowest eigenvalue of the dense W from
        # the Jacobi solver and from LAPACK.  LAPACK is only normwise
        # backward stable: its lowest eigenvalue may be off by ~eps ||W||,
        # 6e-12 relative at M = 100, ratio 30, so it also gets that bound
        eps = np.finfo(float).eps
        for m in (1, 2, 3, 9, 40, 100, 200):
            for ratio in (0.0, 1e-8, 0.05, 0.3, 0.9, 1.0, 3.0, 30.0):
                w = build_w(ModeSet.ladder_1d(m), ratio)
                # the row is 100 (edge - Omega) / edge, Omega <= edge
                row = lowest_mode_scan([ratio], n_modes=m)[0, 1]
                lam = (1.0 + ratio**2) * (1.0 - row / 100.0) ** 2
                jacobi = diagonalize_w(w).omega_sq[0]
                lapack = np.linalg.eigvalsh(w)[0]
                assert lam == pytest.approx(jacobi, rel=1e-12)
                assert lam == pytest.approx(lapack, rel=1e-12,
                                            abs=eps * np.linalg.norm(w))


def cli_csv(capsys, *argv):
    """Column names and float rows of the CSV dataset that ``cavity2deg
    *argv`` writes to stdout."""
    assert main(list(argv)) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if not ln.startswith("#")]
    return (lines[0].split(","),
            [[float(tok) for tok in ln.split(",")] for ln in lines[1:]])


class TestCsvEmission:
    def test_lowest_scan_round_trip(self, capsys):
        rows = lowest_mode_scan([0.0, 0.4, 0.8], n_modes=15)
        header, back = cli_csv(capsys, "manymode", "lowest-scan", "--modes",
                               "15", "--sweep", "ratio=0:0.8:3")
        assert header == ["ratio", "rel_diff_percent"]
        assert np.allclose(np.asarray(back), rows, rtol=0, atol=0)

    def test_coupling_run_round_trip(self, capsys):
        rows = [(m, exact_coupling_1d(m, 1.0, 0.5)) for m in range(1, 6)]
        header, back = cli_csv(capsys, "manymode", "coupling-run", "--modes",
                               "5", "--ratio", "0.5")
        assert header == ["n_modes", "g_exact"]
        assert [int(r[0]) for r in back] == [1, 2, 3, 4, 5]
        assert np.allclose([r[1] for r in back], [r[1] for r in rows],
                           rtol=0, atol=0)
