import numpy as np
import pytest

from oracles import (SMOOTHING_STEPS, harmonic_group, harmonic_matrix, omega_opt_scan,
                     rho_bar_full, smoothing_factor_grid)
from stmg import lfa
from stmg.core import SCHEDULES, SIGMA_MAX
from stmg.core import CoarseningStrategy as CS
from stmg.lfa import (Frequency, LfaConfig, gamma2, gamma4, low_frequency_grid,
                      low_mode_action, omega_opt_numeric,
                      operator_symbol, resolve_omega, restriction_symbol, rho_bar_details,
                      smoother_symbol, smoothing_factor, spectral_radius_bar,
                      spectral_radius_batch, spectral_radius_over_groups,
                      worst_smoothing_mode)
from stmg.lfa import _cycle_matrices, _group_arrays, _radius_bound, _scatter_first_columns
from stmg.smoother import optimal_omega


class TestSymbols:
    def test_smoother_symbol_at_origin(self):
        for omega in (0.1, 0.5, 1.0):
            assert smoother_symbol(omega, 3.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_smoother_symbol_identity_at_zero_damping(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            tt, tx = rng.uniform(-np.pi, np.pi, 2)
            assert smoother_symbol(0.0, 2.0, tt, tx) == pytest.approx(1.0, abs=1e-15)

    def test_smoother_symbol_squared_modulus(self):
        val = smoother_symbol(0.5, 1.0, np.pi / 2, 0.0)
        assert abs(val) ** 2 == pytest.approx(0.5, abs=1e-15)

    def test_operator_symbol_fine(self):
        assert operator_symbol(2.0, 0.0, 0.0) == 0.0
        assert operator_symbol(1.0, 0.0, np.pi) == pytest.approx(4.0, abs=1e-15)

    def test_operator_symbol_coarse_scales(self):
        got = operator_symbol(1.0, np.pi / 4, np.pi / 2, 4, 2)
        assert got == pytest.approx(6.0, abs=1e-14)
        got = operator_symbol(1.0, np.pi / 4, np.pi / 2, 2, 1)
        assert got == pytest.approx(5.0 + 1.0j, abs=1e-14)

    def test_finite_at_largest_sigma(self):
        # the level scales of both schedules and of the time-first ((2, 1), (2, 2))
        th = np.linspace(-np.pi, np.pi, 65)
        tt, tx = np.meshgrid(th, th)
        for scale in ((1, 1), (2, 1), (2, 2), (4, 2)):
            with np.errstate(over="raise", invalid="raise"):
                l = operator_symbol(SIGMA_MAX, tt, tx, *scale)
                s = smoother_symbol(0.5, SIGMA_MAX, tt, tx, *scale)
            assert np.isfinite(l).all() and np.isfinite(s).all(), scale

    def test_restriction_symbol_endpoints(self):
        assert restriction_symbol(0.0) == 1.0
        assert restriction_symbol(np.pi) == pytest.approx(0.0, abs=1e-16)

    def test_werner_identity(self):
        rng = np.random.default_rng(1)
        th = rng.uniform(-np.pi, np.pi, 100)
        lhs = restriction_symbol(th) * restriction_symbol(2 * th)
        rhs = (np.cos(3 * th) + 2 * np.cos(2 * th) + 3 * np.cos(th) + 2) / 8
        assert np.abs(lhs - rhs).max() < 1e-14


class TestFrequencyFolding:
    def test_fold_of_zero_uses_negative_sign(self):
        # sign(0) = -1 puts the folds at the positive ends of their codomains
        assert gamma2(0.0) == pytest.approx(np.pi)
        assert gamma4(0.0) == pytest.approx(np.pi / 2)

    def test_fold_of_quarter_pi(self):
        assert gamma2(np.pi / 4) == pytest.approx(-3 * np.pi / 4)

    def test_codomains(self):
        rng = np.random.default_rng(2)
        th = rng.uniform(-np.pi / 2, np.pi / 2, 200)
        g2 = gamma2(th)
        assert ((np.abs(g2) > np.pi / 2) & (np.abs(g2) <= np.pi)).all()
        th4 = rng.uniform(-np.pi / 4, np.pi / 4, 200)
        g4 = gamma4(th4)
        assert ((np.abs(g4) > np.pi / 4) & (np.abs(g4) <= np.pi / 2)).all()

    def test_aliasing_identity(self):
        rng = np.random.default_rng(3)
        for th in rng.uniform(-np.pi / 2, np.pi / 2, 50):
            n = np.arange(1, 33)
            assert np.abs(np.exp(2j * gamma2(th) * n) - np.exp(2j * th * n)).max() < 1e-12

    def test_group_structure(self):
        grp = harmonic_group(0.11, -0.42)
        assert grp.theta_t.shape == (8,) and grp.theta_x.shape == (8,)
        pairs = {(round(t, 12), round(x, 12)) for t, x in zip(grp.theta_t, grp.theta_x)}
        assert len(pairs) == 8
        assert grp.theta_t[0] == 0.11 and grp.theta_x[0] == -0.42
        assert grp.theta_x[4] == pytest.approx(gamma2(-0.42))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            harmonic_group(1.0, 0.0)
        with pytest.raises(ValueError):
            harmonic_group(0.0, 2.0)


class TestWorstModes:
    def test_time_semi(self):
        assert worst_smoothing_mode((2, 1), 0.7, 3.0) == Frequency(np.pi / 2, 0.0)
        assert worst_smoothing_mode((4, 1), 0.7, 3.0) == Frequency(np.pi / 4, 0.0)

    def test_space_semi(self):
        assert worst_smoothing_mode((1, 2), 0.7, 3.0) == Frequency(0.0, np.pi / 2)

    def test_full_region_membership(self):
        # c = 2: the space-dominated region reaches up to omega = 4/7
        assert worst_smoothing_mode((2, 2), 0.5, 0.5) == Frequency(0.0, np.pi / 2)
        assert worst_smoothing_mode((2, 2), 1.0, 0.5) == Frequency(np.pi / 2, 0.0)

    @pytest.mark.parametrize("sigma", [0.0, np.nan, np.inf, 5e307, 1e308])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        with pytest.raises(ValueError, match="finite and positive"):
            worst_smoothing_mode((2, 2), 0.5, sigma)

    @pytest.mark.parametrize("step", [(1, 1), (3, 1)])
    def test_unsupported_steps(self, step):
        # (1, 1) coarsens nothing, so it has no high frequencies
        with pytest.raises(ValueError):
            worst_smoothing_mode(step, 0.5, 1.0)
        with pytest.raises(ValueError):
            smoothing_factor(step, 0.5, 1.0)
        with pytest.raises(ValueError):
            optimal_omega(step, 1.0)


class TestSmoothingFactor:
    def test_time2_at_half(self):
        assert smoothing_factor((2, 1), 0.5, 7.7) == pytest.approx(np.sqrt(0.5), abs=1e-15)

    def test_tends_to_one_for_small_damping(self):
        assert smoothing_factor((4, 2), 1e-9, 1.0) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("step", SMOOTHING_STEPS.values(), ids=SMOOTHING_STEPS.keys())
    @pytest.mark.parametrize("omega", [0.1, 0.4, 0.7, 1.0])
    def test_matches_dense_grid_search(self, step, omega):
        # 0.05, 0.15 and 3.0 fall in the three regimes of the (4, 2) closed
        # form (see test_smoother's brute-force omega* test)
        for sigma in (0.01, 0.05, 0.15, 0.5, 3.0, 20.0):
            closed = smoothing_factor(step, omega, sigma)
            grid = smoothing_factor_grid(step, omega, sigma)
            assert abs(closed - grid) < 1e-6

    def test_efficiency_at_least_one(self):
        for step in ((2, 2), (4, 2)):
            for sigma in np.logspace(-3, 1, 9):
                ws = optimal_omega(step, sigma)
                mu_star = smoothing_factor(step, ws, sigma)
                mu_half = smoothing_factor(step, 0.5, sigma)
                assert mu_star <= mu_half + 1e-15
                assert np.log(mu_star) / np.log(mu_half) >= 1.0 - 1e-12


class TestHarmonicMatrices:
    def test_two_grid_block_assembly(self):
        cfg = LfaConfig(sigma=0.7, omega=0.6, nu1=2, nu2=1)
        low = Frequency(0.2, -0.4)
        got = harmonic_matrix(CS.NEW, cfg, low)
        t8, x8 = _group_arrays(low.theta_t, low.theta_x)
        s = smoother_symbol(cfg.omega, cfg.sigma, t8, x8)
        l = operator_symbol(cfg.sigma, t8, x8)
        r = (restriction_symbol(t8) * restriction_symbol(2 * t8)
             * restriction_symbol(x8)).reshape(1, 8)
        l4 = operator_symbol(cfg.sigma, low.theta_t, low.theta_x, 4, 2)
        mid = np.eye(8) - (4 * r.T) @ r @ np.diag(l) / l4
        want = np.diag(s**cfg.nu2) @ mid @ np.diag(s**cfg.nu1)
        assert np.abs(got - want).max() < 1e-13

    def test_matrices_finite(self):
        cfg = LfaConfig(sigma=123.0, omega=1.0, nu1=5, nu2=5, eta1=4, eta2=4)
        for tt, tx in [(0.1, 0.3), (np.pi / 4, np.pi / 2), (-0.2, -1.2)]:
            for strat in SCHEDULES:
                assert np.isfinite(harmonic_matrix(strat, cfg, Frequency(tt, tx))).all()

    def test_schedule_must_reach_group_scale(self):
        # the eight-mode group resolves a stage of total scale (4, 2) only
        cfg = LfaConfig(sigma=1.0)
        for steps in [((2, 2),), ((4, 2), (2, 1)), ((2, 1), (2, 1))]:
            with pytest.raises(ValueError, match="must coarsen by"):
                _cycle_matrices(steps, cfg, *_group_arrays(0.1, 0.2))

    def test_zero_frequency_group_is_singular(self):
        cfg = LfaConfig(sigma=1.0)
        with pytest.raises(ZeroDivisionError):
            harmonic_matrix(CS.NEW, cfg, Frequency(0.0, 0.0))

    def test_equivalence_without_intermediate_sweeps(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            cfg = LfaConfig(sigma=10 ** rng.uniform(-3, 3),
                            omega=rng.uniform(0.05, 1.0),
                            nu1=int(rng.integers(0, 4)), nu2=int(rng.integers(0, 4)),
                            eta1=0, eta2=0)
            low = Frequency(rng.uniform(-np.pi / 4, np.pi / 4),
                            rng.uniform(-np.pi / 2, np.pi / 2))
            a = harmonic_matrix(CS.NEW, cfg, low)
            b = harmonic_matrix(CS.ORIGINAL, cfg, low)
            worst = max(worst, np.abs(a - b).max())
        assert worst < 1e-13

    def test_coarse_correction_expansion(self):
        # with nu = 0 the cycle acts as I - P L4^{-1} R L; applying it to a
        # prolongated vector must match the direct expansion
        cfg = LfaConfig(sigma=0.9, omega=0.5, nu1=0, nu2=0)
        low = Frequency(0.31, 0.7)
        t8, x8 = _group_arrays(low.theta_t, low.theta_x)
        r = (restriction_symbol(t8) * restriction_symbol(2 * t8)
             * restriction_symbol(x8)).reshape(1, 8)
        p = 4 * r.T
        l = np.diag(operator_symbol(cfg.sigma, t8, x8))
        l4 = operator_symbol(cfg.sigma, low.theta_t, low.theta_x, 4, 2)
        m = harmonic_matrix(CS.NEW, cfg, low)
        w = 0.37
        lhs = m @ (p * w).ravel()
        rhs = (p * w).ravel() - (p @ (r @ l @ (p * w).ravel()).reshape(1) / l4).ravel()
        assert np.abs(lhs - rhs).max() < 1e-13


class TestSpectralRadiusBar:
    def test_more_smoothing_never_worse(self):
        light = LfaConfig(sigma=1.0, omega=0.5, nu1=3, nu2=3, resolution=32)
        heavy = LfaConfig(sigma=1.0, omega=0.5, nu1=50, nu2=50, resolution=32)
        assert spectral_radius_bar(CS.NEW, heavy) <= spectral_radius_bar(CS.NEW, light)

    def test_symmetry_reduction_is_exact(self):
        # rho_bar_details sweeps one quadrant; the reference sweeps all four
        tg, xg = low_frequency_grid(32)
        tt, tx = [a.ravel() for a in np.meshgrid(tg, xg, indexing="ij")]
        for sigma in (0.05, 1.0, 50.0):
            cfg = LfaConfig(sigma=sigma, omega=0.5, resolution=32)
            for strat in (CS.NEW, CS.ORIGINAL):
                full, _ = spectral_radius_over_groups(strat, cfg, tt, tx)
                quad = rho_bar_details(strat, cfg)
                assert abs(full.max() - quad.value) < 1e-12

    def test_reflected_groups_share_spectrum(self):
        cfg = LfaConfig(sigma=0.8, omega=0.6)
        for tt, tx in [(0.2, 0.9), (0.11, -0.3)]:
            for strat in SCHEDULES:
                a = harmonic_matrix(strat, cfg, Frequency(tt, tx))
                b = harmonic_matrix(strat, cfg, Frequency(-tt, tx))
                c = harmonic_matrix(strat, cfg, Frequency(tt, -tx))
                sa = np.sort(np.abs(np.linalg.eigvals(a)))
                sb = np.sort(np.abs(np.linalg.eigvals(b)))
                sc = np.sort(np.abs(np.linalg.eigvals(c)))
                assert np.abs(sa - sb).max() < 1e-10
                assert np.abs(sa - sc).max() < 1e-10

    def test_half_damping_ordering(self):
        for sigma in (0.01, 0.156, 1.0, 409.6):
            cfg = LfaConfig(sigma=sigma, omega=0.5, resolution=32)
            rho_o = spectral_radius_bar(CS.ORIGINAL, cfg)
            rho_n = spectral_radius_bar(CS.NEW, cfg)
            assert rho_o <= rho_n + 1e-10

    def test_excluded_count_reported(self):
        res = rho_bar_details(CS.NEW, LfaConfig(sigma=1.0, resolution=32))
        assert res.excluded == 0  # offset sampling avoids the singular zero mode
        assert -np.pi / 4 < res.argmax.theta_t <= np.pi / 4


def _quadrant_stack(strategy, cfg):
    """Harmonic matrices of every group that ``rho_bar_details`` sweeps."""
    tg, xg = low_frequency_grid(cfg.resolution)
    tt, tx = np.meshgrid(tg[tg > 0], xg[xg > 0], indexing="ij")
    return _cycle_matrices(SCHEDULES[strategy], cfg, *_group_arrays(tt.ravel(), tx.ravel()))[0]


class TestPrunedSweep:
    """rho_bar_details eigen-solves only the groups whose bound can reach the maximum."""

    CASES = [dict(sigma=sigma, omega=omega, nu1=nu1, nu2=nu2)
             for sigma in np.logspace(-3, 3, 7) for omega in (0.1, 0.5, 1.0)
             for nu1, nu2 in ((0, 0), (1, 0), (3, 3))]

    @pytest.mark.parametrize("resolution", [16, 32, 128])
    @pytest.mark.parametrize("strategy", list(SCHEDULES))
    def test_equals_full_sweep(self, strategy, resolution):
        for case in self.CASES:
            cfg = LfaConfig(resolution=resolution, **case)
            assert rho_bar_details(strategy, cfg) == rho_bar_full(strategy, cfg), case

    @pytest.mark.parametrize("sigma", [0.1, 1.6])
    @pytest.mark.parametrize("strategy", list(SCHEDULES))
    def test_numeric_omega_unchanged(self, strategy, sigma, monkeypatch):
        cfg = LfaConfig(sigma=sigma, resolution=32)
        pruned = omega_opt_numeric(strategy, cfg)
        calls = []

        def full(*args):
            calls.append(args)
            return rho_bar_full(*args)
        monkeypatch.setattr(lfa, "rho_bar_details", full)
        assert omega_opt_numeric(strategy, cfg) == pruned
        assert calls

    @pytest.mark.parametrize("resolution", [16, 32, 128])
    @pytest.mark.parametrize("strategy", list(SCHEDULES))
    def test_bound_above_radius(self, strategy, resolution):
        for case in self.CASES:
            mats = _quadrant_stack(strategy, LfaConfig(resolution=resolution, **case))
            assert (_radius_bound(mats) >= spectral_radius_batch(mats)).all(), case

    def test_bound_on_hostile_stacks(self):
        stack = _quadrant_stack(CS.NEW, LfaConfig(sigma=1.0, resolution=16))
        jordan = np.eye(8, k=1)  # nilpotent: radius 0
        skewed = np.diag(np.linspace(0.1, 0.9, 8)) + 1e6 * np.triu(np.ones((8, 8)), 1)
        for mats in (np.zeros((1, 8, 8)), jordan[None], skewed[None],
                     1e-200 * stack, 1e200 * stack):
            bound = _radius_bound(mats)
            assert np.isfinite(bound).all() and (bound > 0).all()
            assert (bound >= spectral_radius_batch(mats)).all()
        # scaling the stack scales the bound: no overflow or underflow inside
        for scale in (1e-200, 1e200):
            ratio = _radius_bound(scale * stack) / (scale * _radius_bound(stack))
            assert np.abs(ratio - 1.0).max() < 1e-12

    @pytest.mark.parametrize("strategy", list(SCHEDULES))
    def test_few_groups_eigen_solved(self, strategy, monkeypatch):
        rows = []

        def counting(mats):
            rows.append(len(mats))
            return spectral_radius_batch(mats)
        monkeypatch.setattr(lfa, "spectral_radius_batch", counting)
        for sigma in np.logspace(-2, 2, 5):
            rows.clear()
            rho_bar_details(strategy, LfaConfig(sigma=sigma, omega=0.5, resolution=128))
            assert 0 < sum(rows) <= 0.05 * 64 * 64, (sigma, rows)


class TestOmegaOptNumeric:
    """omega_opt_numeric sweeps only where a one-group lower bound cannot settle the search."""

    @pytest.mark.parametrize("resolution", [16, 32])
    @pytest.mark.parametrize("strategy", list(SCHEDULES))
    def test_equals_full_scan(self, strategy, resolution):
        # nu = (0, 0) makes rho_bar independent of omega: every scan point ties
        for sigma in np.logspace(-3, 3, 7):
            for nu1, nu2 in ((0, 0), (1, 0), (1, 1), (3, 3)):
                cfg = LfaConfig(sigma=sigma, nu1=nu1, nu2=nu2, resolution=resolution)
                assert omega_opt_numeric(strategy, cfg) == omega_opt_scan(strategy, cfg), \
                    (sigma, nu1, nu2)

    @pytest.mark.parametrize("strategy", list(SCHEDULES))
    def test_subset_radii_are_bit_identical(self, strategy):
        # the bound is exact only if a group's radius does not depend on the
        # other groups computed with it
        rng = np.random.default_rng(11)
        tg, xg = low_frequency_grid(32)
        tt, tx = [a.ravel() for a in np.meshgrid(tg[tg > 0], xg[xg > 0], indexing="ij")]
        for sigma, omega, nu in [(1e-3, 1.0, 0), (0.1, 0.3, 1), (1.6, 0.5, 3), (1e3, 0.9, 3)]:
            cfg = LfaConfig(sigma=sigma, omega=omega, nu1=nu, nu2=nu, resolution=32)
            whole, _ = spectral_radius_over_groups(strategy, cfg, tt, tx)
            for size in (1, 1, 2, 3, 8, 50, 255):
                pick = rng.choice(tt.size, size, replace=False)
                part, _ = spectral_radius_over_groups(strategy, cfg, tt[pick], tx[pick])
                assert np.array_equal(part, whole[pick]), (sigma, size)

    @pytest.mark.parametrize("strategy", list(SCHEDULES))
    def test_few_sweeps(self, strategy, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return rho_bar_details(*args)
        monkeypatch.setattr(lfa, "rho_bar_details", counting)
        cfg = LfaConfig(sigma=1.6, nu1=3, nu2=3, resolution=32)
        omega_opt_numeric(strategy, cfg)
        assert 0 < len(calls) <= 30  # the full scan runs 83

    def test_dominates_fixed_choices(self):
        for sigma in (0.05, 1.0):
            cfg = LfaConfig(sigma=sigma, resolution=32)
            w_opt, rho_opt = omega_opt_numeric(CS.NEW, cfg)
            for fixed in (0.5, optimal_omega((4, 2), sigma)):
                rho_fixed = spectral_radius_bar(
                    CS.NEW, LfaConfig(sigma=sigma, omega=fixed, resolution=32))
                assert rho_opt <= rho_fixed + 1e-9
            assert 0.0 < w_opt <= 1.0


class TestResolveOmega:
    @pytest.mark.parametrize("sigma", [0.01, 0.1, 1.0])
    def test_theorem_uses_first_step(self, sigma):
        cfg = LfaConfig(sigma=sigma)
        assert resolve_omega("theorem", CS.NEW, cfg) == optimal_omega((4, 2), sigma)
        assert resolve_omega("theorem", CS.ORIGINAL, cfg) == optimal_omega((2, 2), sigma)

    def test_theorem_follows_the_schedule(self, monkeypatch):
        # a time-first schedule smooths for time semi-coarsening on the fine
        # level, whose optimum is 1/2 (full coarsening's is 0.845 at sigma 0.1)
        monkeypatch.setitem(SCHEDULES, CS.ORIGINAL, ((2, 1), (2, 2)))
        assert resolve_omega("theorem", CS.ORIGINAL, LfaConfig(sigma=0.1)) == 0.5


class TestLowModeAction:
    def test_identity_standin_gives_indicator(self):
        res = 16
        tg = -np.pi / 4 + (np.arange(res) + 0.5) * (np.pi / 2 / res)
        xg = -np.pi / 2 + (np.arange(res) + 0.5) * (np.pi / res)
        tt, tx = [a.ravel() for a in np.meshgrid(tg, xg, indexing="ij")]
        t8, x8 = _group_arrays(tt, tx)
        eye = np.broadcast_to(np.eye(8, dtype=complex), (tt.size, 8, 8))
        out = _scatter_first_columns(eye, t8, x8, np.zeros(tt.size, bool))
        low = (np.abs(out.theta_t) <= np.pi / 4 + 1e-12) & (np.abs(out.theta_x) <= np.pi / 2 + 1e-12)
        assert np.array_equal(out.modulus[low], np.ones(low.sum()))
        assert np.array_equal(out.modulus[~low], np.zeros((~low).sum()))

    # On theta_x = 0 the low-component coefficient of the NEW map is
    # |s0|**(nu1+nu2) * |1 - 4 r**2 l / l4|, independent of sigma.  Its
    # maximum sits on the low boundary |theta_t| = pi/4 only when
    # nu1 + nu2 <= 2; more sweeps pull it inward (about 0.645 at the
    # default nu1 = nu2 = 3).
    _CELL_T, _CELL_X = np.pi / 2 / 64, np.pi / 64

    @staticmethod
    def _new_peak(**sweeps):
        sigma = 1.0
        cfg = LfaConfig(sigma=sigma, omega=optimal_omega((4, 2), sigma), resolution=64, **sweeps)
        out = low_mode_action(CS.NEW, cfg)
        k = int(np.argmax(out.modulus))
        return out.theta_t[k], out.theta_x[k]

    def test_benchmark_sigma_one_peaks_at_quarter_pi(self):
        theta_t, theta_x = self._new_peak(nu1=1, nu2=1)
        assert abs(abs(theta_t) - np.pi / 4) <= self._CELL_T + 1e-12
        assert abs(theta_x) <= self._CELL_X + 1e-12

    def test_default_sweeps_peak_inside_low_band(self):
        theta_t, theta_x = self._new_peak()
        assert abs(theta_t) < np.pi / 4 - self._CELL_T
        assert abs(theta_x) <= self._CELL_X + 1e-12

    def test_small_sigma_peaks_near_low_boundary(self):
        sigma = 1e-2
        cfg = LfaConfig(sigma=sigma, omega=optimal_omega((4, 2), sigma), resolution=64)
        out = low_mode_action(CS.NEW, cfg)
        k = int(np.argmax(out.modulus))
        near_t = abs(abs(out.theta_t[k]) - np.pi / 4) <= 0.2 * np.pi / 4
        near_x = abs(abs(out.theta_x[k]) - np.pi / 2) <= 0.2 * np.pi / 2
        assert near_t or near_x

    def test_moduli_finite_nonnegative(self):
        out = low_mode_action(CS.ORIGINAL, LfaConfig(sigma=1.0, resolution=16))
        assert np.isfinite(out.modulus).all() and (out.modulus >= 0).all()


class TestConfigValidation:
    def test_resolution_constraints(self):
        with pytest.raises(ValueError):
            LfaConfig(sigma=1.0, resolution=8)
        with pytest.raises(ValueError):
            LfaConfig(sigma=1.0, resolution=33)

    def test_sigma_and_omega(self):
        with pytest.raises(ValueError):
            LfaConfig(sigma=-1.0)
        for sigma in (np.nan, np.inf, 5e307, 1e308):
            with pytest.raises(ValueError, match="finite and positive"):
                LfaConfig(sigma=sigma)
        LfaConfig(sigma=SIGMA_MAX)
        with pytest.raises(ValueError):
            LfaConfig(sigma=1.0, omega=0.0)
