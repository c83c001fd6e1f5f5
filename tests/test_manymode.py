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
  * dense Jacobi on build_w (and LAPACK) for the structured normal modes.
"""

import io
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from cavity2deg.io_utils import read_csv
from cavity2deg.manymode import (_round_robin_rounds, _structured_modes,
                                 write_coupling_run_csv, write_lowest_scan_csv)

HBAR = CODATA2018.hbar
M_E = CODATA2018.m_e


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) * scale
    return 0.5 * (a + a.T)


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
        ms = ModeSet(omega=np.array([1.0]), pol=longitudinal, kappa=kappa,
                     allow_nontransverse=True)
        assert ms.kappa is not None
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
        w = random_symmetric(rng, 12)
        backends = ("numpy", "lapack", "auto")
        # there is no compiled kernel any more
        with pytest.raises(DomainError, match="numba"):
            diagonalize_w(w, backend="numba")
        eigs = {}
        for backend in backends:
            nm = diagonalize_w(w, backend=backend)
            eigs[backend] = nm.omega_sq
            check_decomposition(w, nm, 1e-11)
        for backend in backends[1:]:
            assert np.allclose(eigs["numpy"], eigs[backend], rtol=1e-12,
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
        rounds = list(_round_robin_rounds(n))
        assert len(rounds) == (n - 1 if n % 2 == 0 else n)
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

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="non-empty"):
            diagonalize_w(np.zeros((0, 0)))

    def test_norm_overflow_rejected(self):
        # finite entries whose ||W||_F overflows: an infinite tolerance
        # would return the unrotated diagonal at sweep 0
        with pytest.raises(DomainError, match="overflows"):
            diagonalize_w(np.array([[1e200, 3e199], [3e199, 2e200]]))

    def test_unknown_backend(self):
        with pytest.raises(DomainError):
            diagonalize_w(np.eye(3), backend="magma")

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

    def test_convergence_error(self, rng):
        w = random_symmetric(rng, 6)
        with pytest.raises(ConvergenceError, match="sweeps"):
            diagonalize_w(w, max_sweeps=0)

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


def assert_structured_matches(modes, omega_p, lapack=True):
    """normal_modes' structured path against dense Jacobi on build_w (and
    LAPACK within rel 1e-12 or eps ||W||_F)."""
    nm = normal_modes(modes, omega_p)
    w = build_w(modes, omega_p)
    assert nm.sweeps == 0
    ref = diagonalize_w(w)
    assert nm.omega_sq == pytest.approx(ref.omega_sq, rel=1e-12)
    check_decomposition(w, nm, 1e-11)
    assert np.allclose(nm.eps_tilde, nm.u.T @ modes.pol, rtol=0, atol=1e-12)
    if lapack:
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
    def test_matches_dense_jacobi_property(self, m, ratio, degenerate, seed):
        modes = transverse_modes(np.random.default_rng(seed), m, degenerate)
        assert_structured_matches(modes, ratio, lapack=False)

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
        # one rank-one update with poles spaced from 1e-14 to 1 and weights
        # from 1e-12 to 1: the Loewner vector keeps U orthogonal to ~1e-15
        # where vectors from z itself drift to ~1e-13
        rng = np.random.default_rng(7)
        for _ in range(800):
            k = int(rng.integers(3, 40))
            d = np.cumsum(10.0 ** rng.uniform(-14, 0, k))
            z = rng.normal(size=k) * 10.0 ** rng.uniform(-12, 0, k)
            z /= np.linalg.norm(z)
            rho = 10.0 ** rng.uniform(-4, 3)
            lam, q, _ = manymode._rank_one_update(d.copy(), np.eye(k),
                                                  z.copy(), rho)
            w = np.diag(d) + rho * np.outer(z, z)
            assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-14
            assert (np.linalg.norm((q * lam) @ q.T - w)
                    <= 1e-14 * np.linalg.norm(w))

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
                    _, _, steps = _structured_modes(modes, ratio**2)
                    worst = max(worst, *steps)
        assert worst <= 20

    def test_step_cap_raises(self, monkeypatch, rng):
        monkeypatch.setattr(manymode, "MAX_SECULAR_STEPS", 1)
        with pytest.raises(ConvergenceError, match="secular"):
            normal_modes(transverse_modes(rng, 10), 1.0)

    def test_dense_keywords_route_to_jacobi(self):
        modes = ModeSet.ladder_1d(6)
        assert normal_modes(modes, 0.5).sweeps == 0
        assert normal_modes(modes, 0.5, max_sweeps=30).sweeps > 0

    def test_overflowing_frequencies_rejected(self):
        modes = ModeSet(omega=np.array([1.0, 1e200]),
                        pol=np.tile([1.0, 0, 0], (2, 1)))
        with pytest.raises(DomainError, match="finite"):
            normal_modes(modes, 0.5)

    def test_logs_the_path(self, caplog):
        modes = ModeSet.ladder_1d(5)
        with caplog.at_level(logging.DEBUG, logger="cavity2deg"):
            normal_modes(modes, 0.5)
            normal_modes(modes, 0.5, backend="lapack")
            diagonalize_w(build_w(modes, 0.5))
        assert [r.getMessage().split(",")[:2] for r in caplog.records] == [
            ["normal_modes: structured", " M = 5"],
            ["diagonalize_w: lapack", " M = 5"],
            ["diagonalize_w: jacobi", " M = 5"]]
        assert "secular steps per update = [" in caplog.records[0].getMessage()
        assert any(isinstance(h, logging.NullHandler)
                   for h in logging.getLogger("cavity2deg").handlers)


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
                nm = normal_modes(ModeSet.ladder_1d(m), ratio,
                                  backend="lapack")
                ref = float(np.sum(ratio**2 * nm.eps_tilde[:, 0]**2
                                   / nm.omega_sq))
                assert exact_coupling_1d(m, 1.0, ratio) == pytest.approx(
                    ref, rel=1e-11)

    def test_non_finite_coupling_rejected(self):
        for ratio in (math.nan, math.inf):
            with pytest.raises(DomainError):
                exact_coupling_1d(5, 1.0, ratio)

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


class TestCsvEmission:
    def test_lowest_scan_round_trip(self):
        rows = lowest_mode_scan([0.0, 0.4, 0.8], n_modes=15)
        buf = io.StringIO()
        write_lowest_scan_csv(rows, buf)
        header, back = read_csv(io.StringIO(buf.getvalue()))
        assert header == ["ratio", "rel_diff_percent"]
        assert np.allclose(np.asarray(back), rows, rtol=0, atol=0)

    def test_coupling_run_round_trip(self, tmp_path):
        rows = [(m, exact_coupling_1d(m, 1.0, 0.5)) for m in range(1, 6)]
        path = tmp_path / "run.csv"
        write_coupling_run_csv(rows, path)
        header, back = read_csv(path)
        assert header == ["n_modes", "g_exact"]
        assert [int(r[0]) for r in back] == [1, 2, 3, 4, 5]
        assert np.allclose([r[1] for r in back], [r[1] for r in rows],
                           rtol=0, atol=0)
