from dataclasses import fields, replace

import numpy as np
import pytest

from oracles import (SMOOTHING_STEPS, group_arrays, harmonic_group, harmonic_matrix,
                     low_mode_action_full, omega_opt_scan, rho_bar_full, rho_bar_sweep_full,
                     smoothing_factor_grid)
from stmg import core, cycles, lfa
from stmg.core import SIGMA_MAX, SpaceTimeGrid, stage_levels
from stmg.core import CoarseningStrategy as CS
from stmg.cycles import CyclePlan, plan_levels
from stmg.lfa import (Frequency, LfaConfig, low_frequency_grid, low_mode_action,
                      omega_opt_numeric, operator_symbol, optimal_omega, resolve_omega,
                      restriction_symbol, rho_bar_details, smoother_symbol, smoothing_factor,
                      spectral_radius_batch, spectral_radius_over_groups, worst_smoothing_mode)
from stmg.lfa import (_companions, _cycle_matrices, _levels, _probe_bounds, _quadrant,
                      _radius_bound, _scatter_first_columns)
from test_periodic import STEPS_UNDER_TEST

#: schedules whose harmonic groups cover every layout: the strategies, the
#: single steps, both one-axis semi-coarsenings, the k-grid analysis of NEW
#: at depth 2 and a four-step schedule of 64 modes
LAYOUT_SCHEDULES = [CS.NEW, CS.ORIGINAL, ((2, 1),), ((2, 2),), ((1, 2),), ((4, 1),),
                    ((2, 1), (2, 2)), ((4, 2), (4, 2)), ((4, 2), (2, 2)),
                    ((2, 2), (2, 1), (2, 2), (2, 1))]


#: schedules of the low-mode map tests: both strategies, the single steps
#: (2, 1) and (2, 2), the k-grid analysis of NEW at depth 2 and four steps
COLUMN_SCHEDULES = [((4, 2),), ((2, 1),), ((2, 2),), ((2, 2), (2, 1)),
                    ((4, 2), (4, 2)), ((2, 2), (2, 1), (2, 2), (2, 1))]


#: schedules of the schedule-scale tests: the single steps (2, 1) and (2, 2),
#: the k-grid analysis of NEW at depth 2 and a three-step schedule of 64 modes
SCALE_SCHEDULES = [((2, 1),), ((2, 2),), ((4, 2), (4, 2)), ((2, 2), (2, 1), (4, 2))]


def _steps_id(steps):
    return "+".join(f"{mt}x{mx}" for mt, mx in steps)


def _etas(steps):
    """Intermediate-level sweeps to test: the plan's default 0 and the 3 that ``stmg``
    runs for the original strategy; a one-step schedule has no intermediate level."""
    return (0, 3) if len(steps) > 1 else (0,)


def _same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: -0.0 differs from 0.0, and NaN equals itself."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
    """``_companions(theta, m)``: one fold per halving of the factor m."""

    FACTORS = (2, 4, 8, 16)

    def test_fold_of_zero_uses_negative_sign(self):
        # sign(0) = -1 folds zero onto the positive end of each codomain:
        # [0, pi] at m = 2, [0, pi/2, pi, -pi/2] at m = 4
        for m in self.FACTORS:
            comp = _companions(0.0, m)
            assert comp[1] == 2 * np.pi / m, m
            assert comp[m // 2] == np.pi, m

    def test_fold_of_quarter_pi(self):
        assert np.array_equal(_companions(np.pi / 4, 2), [np.pi / 4, -3 * np.pi / 4])
        assert np.array_equal(_companions(np.pi / 8, 4),
                              [np.pi / 8, -3 * np.pi / 8, -7 * np.pi / 8, 5 * np.pi / 8])

    def test_codomains(self):
        # the pass for factor k appends companions m/k .. 2m/k - 1, which
        # lie in pi/k <= |f| <= 2 pi/k; together they tile (-pi, pi]
        rng = np.random.default_rng(2)
        for m in self.FACTORS:
            th = rng.uniform(-np.pi / m, np.pi / m, 200)
            comp = _companions(th, m)
            assert comp.shape == (200, m)
            assert (np.abs(comp[:, 0]) <= np.pi / m).all()
            k = m
            while k > 1:
                new = np.abs(comp[:, m // k:2 * m // k])
                assert ((new >= np.pi / k) & (new <= 2 * np.pi / k)).all(), (m, k)
                k //= 2
            assert ((comp > -np.pi) & (comp <= np.pi)).all()
            assert (np.diff(np.sort(comp, axis=1), axis=1) > 1e-9).all()

    def test_aliasing_identity(self):
        # under factor-k coarsening companion i aliases onto companion i % (m/k)
        rng = np.random.default_rng(3)
        n = np.arange(1, 33)
        for m in self.FACTORS:
            for th in rng.uniform(-np.pi / m, np.pi / m, 10):
                comp = _companions(th, m)
                k = 1
                while k <= m:
                    for i in range(m):
                        j = i % (m // k)
                        alias = np.exp(1j * k * comp[i] * n) - np.exp(1j * k * comp[j] * n)
                        assert np.abs(alias).max() < 1e-12, (m, k, i)
                    k *= 2

    def test_group_equals_parent_folds(self):
        # the fixed eight-mode layout that the fold rule replaced, bit for bit
        def sign(th):
            return np.where(np.asarray(th) > 0, 1.0, -1.0)

        def g2(th):
            return th - sign(th) * np.pi

        def g4(th):
            return th - sign(th) * (np.pi / 2)

        rng = np.random.default_rng(4)
        tt = np.concatenate([[0.0, np.pi / 4, -np.pi / 4],
                             rng.uniform(-np.pi / 4, np.pi / 4, 100)])
        tx = np.concatenate([[0.0, np.pi / 2, 0.0], rng.uniform(-np.pi / 2, np.pi / 2, 100)])
        times = np.stack([tt, g4(tt), g2(tt), g2(g4(tt))], axis=-1)
        xs = np.stack([tx, g2(tx)], axis=-1)
        t8, x8 = group_arrays(tt, tx, (4, 2))
        assert np.array_equal(t8, np.concatenate([times, times], axis=-1))
        assert np.array_equal(x8, np.repeat(xs, 4, axis=-1))

    @pytest.mark.parametrize("scale", [(1, 1), (2, 1), (1, 2), (4, 2), (16, 4)])
    def test_group_pairs_time_and_space_companions(self, scale):
        mt, mx = scale
        tc, xc = group_arrays(0.01, -0.03, scale)
        assert tc.shape == xc.shape == (mt * mx,)
        for i in range(mt * mx):
            assert tc[i] == _companions(0.01, mt)[i % mt]
            assert xc[i] == _companions(-0.03, mx)[i // mt]

    @pytest.mark.parametrize("steps", LAYOUT_SCHEDULES, ids=_steps_id)
    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)], ids=["0d", "1d", "2d"])
    def test_cycle_companions_equal_flat_layout(self, steps, shape):
        # the broadcast (Mx, Mt) grid of _cycle_matrices, flattened, is the tiled layout
        rng = np.random.default_rng(11)
        mt, mx = lfa._scale(steps)
        tt = rng.uniform(-np.pi / mt, np.pi / mt, shape)
        tx = rng.uniform(-np.pi / mx, np.pi / mx, shape)
        cfg = LfaConfig(sigma=1.0, omega=0.7)
        for cols in (slice(None), [0]):
            mats, singular, tc, xc = _cycle_matrices(_levels(steps, cfg), cfg.sigma, cfg.omega,
                                                     tt, tx, cols)
            t_ref, x_ref = group_arrays(tt, tx, (mt, mx))
            assert tc.shape == xc.shape == shape + (mt * mx,)
            assert np.array_equal(tc, t_ref) and np.array_equal(xc, x_ref)
            assert singular.shape == shape and mats.shape[:-2] == shape

    @pytest.mark.parametrize("steps", LAYOUT_SCHEDULES, ids=_steps_id)
    def test_symbols_see_each_axis_once(self, steps, monkeypatch):
        # a level (mt, mx) of scale (Mt, Mx) keeps nt = Mt/mt time and nx = Mx/mx
        # space companions; each symbol sees those values, not the nt*nx grid
        total_t, total_x = lfa._scale(steps)
        calls = {"operator": [], "smoother": [], "restriction": []}

        def spy(name, fn, theta_args):
            def wrapped(*args):
                calls[name].append((tuple(np.size(args[i]) for i in theta_args), args[-2:]))
                return fn(*args)
            monkeypatch.setattr(lfa, f"{name}_symbol", wrapped)

        spy("operator", lfa.operator_symbol, (1, 2))
        spy("smoother", lfa.smoother_symbol, (2, 3))
        spy("restriction", lfa.restriction_symbol, (0,))
        groups = 5
        tt, tx = np.full(groups, 0.1 / total_t), np.full(groups, 0.2 / total_x)
        _cycle_matrices(_levels(steps, LfaConfig(sigma=1.0)), 1.0, 0.7, tt, tx)
        scales = [lfa._scale(steps[:k]) for k in range(len(steps) + 1)]
        for name, levels in (("operator", scales), ("smoother", scales[-2::-1])):
            assert [c[1] for c in calls[name]] == levels
            for (size_t, size_x), (mt, mx) in calls[name]:
                assert (size_t, size_x) == (groups * total_t // mt, groups * total_x // mx)
        # each level but the coarsest restricts once per time halving, then in space
        expected = []
        for (mt0, mx0), (mt, mx) in zip(scales, steps):
            expected += [groups * total_t // mt0] * (mt.bit_length() - 1)
            expected += [groups * total_x // mx0] * (mx == 2)
        assert [c[0][0] for c in calls["restriction"]] == expected

    def test_group_structure(self):
        grp = harmonic_group(0.11, -0.42)
        assert grp.theta_t.shape == (8,) and grp.theta_x.shape == (8,)
        pairs = {(round(t, 12), round(x, 12)) for t, x in zip(grp.theta_t, grp.theta_x)}
        assert len(pairs) == 8
        assert grp.theta_t[0] == 0.11 and grp.theta_x[0] == -0.42
        assert grp.theta_x[4] == -0.42 + np.pi

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
        t8, x8 = group_arrays(low.theta_t, low.theta_x, (4, 2))
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
            for strat in (CS.NEW, CS.ORIGINAL):
                assert np.isfinite(harmonic_matrix(strat, cfg, Frequency(tt, tx))).all()

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
        t8, x8 = group_arrays(low.theta_t, low.theta_x, (4, 2))
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
        assert rho_bar_details(CS.NEW, heavy).value <= rho_bar_details(CS.NEW, light).value

    def test_symmetry_reduction_is_exact(self):
        # rho_bar_details sweeps one quadrant; the reference sweeps all four
        tg, xg = low_frequency_grid(32)
        tt, tx = [a.ravel() for a in np.meshgrid(tg, xg, indexing="ij")]
        for sigma in (0.05, 1.0, 50.0):
            for strat in (CS.NEW, CS.ORIGINAL):
                for eta in _etas(strat):
                    cfg = LfaConfig(sigma=sigma, omega=0.5, eta1=eta, eta2=eta, resolution=32)
                    full, _ = spectral_radius_over_groups(strat, cfg, tt, tx)
                    quad = rho_bar_details(strat, cfg)
                    assert abs(full.max() - quad.value) < 1e-12, (sigma, eta)

    def test_reflected_groups_share_spectrum(self):
        for tt, tx in [(0.2, 0.9), (0.11, -0.3)]:
            for strat in (CS.NEW, CS.ORIGINAL):
                for eta in _etas(strat):
                    cfg = LfaConfig(sigma=0.8, omega=0.6, eta1=eta, eta2=eta)
                    a = harmonic_matrix(strat, cfg, Frequency(tt, tx))
                    b = harmonic_matrix(strat, cfg, Frequency(-tt, tx))
                    c = harmonic_matrix(strat, cfg, Frequency(tt, -tx))
                    sa = np.sort(np.abs(np.linalg.eigvals(a)))
                    sb = np.sort(np.abs(np.linalg.eigvals(b)))
                    sc = np.sort(np.abs(np.linalg.eigvals(c)))
                    assert np.abs(sa - sb).max() < 1e-10, eta
                    assert np.abs(sa - sc).max() < 1e-10, eta

    def test_half_damping_ordering(self):
        for sigma in (0.01, 0.156, 1.0, 409.6):
            for eta in _etas(CS.ORIGINAL):
                cfg = LfaConfig(sigma=sigma, omega=0.5, eta1=eta, eta2=eta, resolution=32)
                rho_o = rho_bar_details(CS.ORIGINAL, cfg).value
                rho_n = rho_bar_details(CS.NEW, cfg).value
                assert rho_o <= rho_n + 1e-10, (sigma, eta)

    def test_excluded_count_reported(self):
        res = rho_bar_details(CS.NEW, LfaConfig(sigma=1.0, resolution=32))
        assert res.excluded == 0  # offset sampling avoids the singular zero mode
        assert -np.pi / 4 < res.argmax.theta_t <= np.pi / 4


def _quadrant_stack(strategy, cfg):
    """Harmonic matrices of every group that ``rho_bar_details`` sweeps."""
    tg, xg = low_frequency_grid(cfg.resolution, lfa._scale(strategy))
    tt, tx = np.meshgrid(tg[tg > 0], xg[xg > 0], indexing="ij")
    return _cycle_matrices(_levels(strategy, cfg), cfg.sigma, cfg.omega, tt.ravel(),
                           tx.ravel())[0]


class TestPrunedSweep:
    """rho_bar_details eigen-solves only the groups whose bound can reach the maximum."""

    CASES = [dict(sigma=sigma, omega=omega, nu1=nu1, nu2=nu2)
             for sigma in np.logspace(-3, 3, 7) for omega in (0.1, 0.5, 1.0)
             for nu1, nu2 in ((0, 0), (1, 0), (3, 3))]

    @pytest.mark.parametrize("resolution", [16, 32, 128])
    @pytest.mark.parametrize("strategy", [CS.NEW, CS.ORIGINAL])
    def test_equals_full_sweep(self, strategy, resolution):
        for case in self.CASES:
            for eta in _etas(strategy):
                cfg = LfaConfig(resolution=resolution, eta1=eta, eta2=eta, **case)
                assert rho_bar_details(strategy, cfg) == rho_bar_full(strategy, cfg), (case, eta)

    @pytest.mark.parametrize("sigma", [0.1, 1.6])
    @pytest.mark.parametrize("strategy", [CS.NEW, CS.ORIGINAL])
    def test_numeric_omega_unchanged(self, strategy, sigma, monkeypatch):
        cfgs = [LfaConfig(sigma=sigma, eta1=eta, eta2=eta, resolution=32)
                for eta in _etas(strategy)]
        pruned = [omega_opt_numeric(strategy, cfg) for cfg in cfgs]
        calls = []

        def full(*args):
            calls.append(args)
            return rho_bar_sweep_full(*args)
        monkeypatch.setattr(lfa, "_rho_bar", full)
        for cfg, want in zip(cfgs, pruned):
            calls.clear()
            assert omega_opt_numeric(strategy, cfg) == want, cfg.eta1
            assert calls

    @pytest.mark.parametrize("resolution", [16, 32, 128])
    @pytest.mark.parametrize("strategy", [CS.NEW, CS.ORIGINAL])
    def test_bound_above_radius(self, strategy, resolution):
        for case in self.CASES:
            for eta in _etas(strategy):
                cfg = LfaConfig(resolution=resolution, eta1=eta, eta2=eta, **case)
                mats = _quadrant_stack(strategy, cfg)
                assert (_radius_bound(mats) >= spectral_radius_batch(mats)).all(), (case, eta)

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

    @pytest.mark.parametrize("strategy", [CS.NEW, CS.ORIGINAL])
    def test_few_groups_eigen_solved(self, strategy, monkeypatch):
        rows = []

        def counting(mats):
            rows.append(len(mats))
            return spectral_radius_batch(mats)
        monkeypatch.setattr(lfa, "spectral_radius_batch", counting)
        for sigma in np.logspace(-2, 2, 5):
            for eta in _etas(strategy):
                rows.clear()
                rho_bar_details(strategy, LfaConfig(sigma=sigma, omega=0.5, eta1=eta, eta2=eta,
                                                    resolution=128))
                assert 0 < sum(rows) <= 0.05 * 64 * 64, (sigma, eta, rows)


class TestScheduleScale:
    """Every caller samples the low domain of its schedule's total scale (Mt, Mx)."""

    @pytest.mark.parametrize("scale", [(1, 1), (2, 1), (1, 2), (2, 2), (4, 2), (8, 4), (16, 4)])
    def test_low_grid_is_the_scaled_default_grid(self, scale):
        # exact for powers of two: the (4, 2) samples times (4/Mt, 2/Mx)
        for res in (16, 18, 128):
            tg, xg = low_frequency_grid(res)
            st, sx = low_frequency_grid(res, scale)
            assert np.array_equal(st, tg * (4 / scale[0]))
            assert np.array_equal(sx, xg * (2 / scale[1]))

    @pytest.mark.parametrize("scale", [(4, 2), (2, 2), (8, 4), (16, 4)])
    def test_low_grid_is_antisymmetric(self, scale):
        # every accepted resolution gives that many samples per axis, and the negative
        # half mirrors the positive half, whose samples keep their formula
        for res in range(16, 513, 2):
            for m, grid in zip(scale, low_frequency_grid(res, scale)):
                assert grid.shape == (res,) and _same_bits(grid[::-1], -grid), (res, m)
                samples = -np.pi / m + (np.arange(res) + 0.5) * ((2 * np.pi / m) / res)
                assert _same_bits(grid[res // 2:], samples[res // 2:]), (res, m)
                assert (grid[res // 2:] > 0).all()

    @pytest.mark.parametrize("scale", [(0, 2), (4, 0), (3, 2), (4, 6), (-2, 2), (4, 2.0),
                                       (True, 2), (4, "2")])
    def test_low_grid_rejects_a_scale_no_schedule_has(self, scale):
        # (0, 2) divided by zero and (3, 2) sampled a domain no schedule has
        with pytest.raises(ValueError, match=r"^scale must "):
            low_frequency_grid(16, scale)

    def test_low_grid_takes_numpy_integer_scales(self):
        for scale in ((4, 2), (1, 1), (16, 4)):
            want = low_frequency_grid(16, scale)
            got = low_frequency_grid(16, tuple(np.int64(m) for m in scale))
            assert all(_same_bits(a, b) for a, b in zip(got, want)), scale

    @pytest.mark.parametrize("steps", SCALE_SCHEDULES)
    def test_pruned_sweep_equals_full_sweep(self, steps):
        for sigma in (0.01, 1.0, 100.0):
            for nu in (0, 1, 3):
                cfg = LfaConfig(sigma=sigma, nu1=nu, nu2=nu, eta1=nu, eta2=nu, resolution=16)
                assert rho_bar_details(steps, cfg) == rho_bar_full(steps, cfg), (sigma, nu)
        mt, mx = lfa._scale(steps)
        mats = _quadrant_stack(steps, LfaConfig(sigma=0.1, resolution=16))
        assert mats.shape[-2:] == (mt * mx, mt * mx)
        assert (_radius_bound(mats) >= spectral_radius_batch(mats)).all()

    def test_low_mode_action_at_depth_two(self):
        out = low_mode_action(((4, 2), (4, 2)), LfaConfig(sigma=0.1, resolution=16))
        assert out.modulus.shape == (64 * 16 * 16,)
        assert np.isfinite(out.modulus).all()
        low_t, low_x = out.theta_t[::64], out.theta_x[::64]
        assert (np.abs(low_t) < np.pi / 16).all() and (np.abs(low_x) < np.pi / 4).all()
        assert ((np.abs(out.theta_t) <= np.pi) & (np.abs(out.theta_x) <= np.pi)).all()


#: (nu, eta) sweep pairs of the level-list tests; eta is 0 for a one-step schedule
SWEEP_PAIRS = [((3, 3), (3, 3)), ((1, 0), (0, 2)), ((0, 2), (1, 1)), ((2, 1), (0, 0))]


def _planned(steps, nu, eta, n_x=15, n_t=64, sigma=1.0, depth=1):
    """The (step, sweeps) of each level that ``cycles.plan_levels`` plans."""
    grid = SpaceTimeGrid(n_x, n_t, sigma * n_t / (n_x + 1) ** 2)
    plan = CyclePlan(steps, nu1=nu[0], nu2=nu[1], eta1=eta[0], eta2=eta[1], depth=depth)
    return tuple(level[1:] for level in plan_levels(grid, plan)[0])


class TestLevelList:
    """The solver and the LFA walk one level list, ``core.stage_levels``."""

    @pytest.mark.parametrize("steps", STEPS_UNDER_TEST, ids=_steps_id)
    def test_solver_plans_the_stage_levels(self, steps):
        for nu, eta in SWEEP_PAIRS:
            eta = eta if len(steps) > 1 else (0, 0)
            assert _planned(steps, nu, eta) == stage_levels(steps, nu, eta), (nu, eta)

    @pytest.mark.parametrize("steps", STEPS_UNDER_TEST, ids=_steps_id)
    def test_every_entry_point_passes_the_planned_levels(self, steps, monkeypatch):
        seen = []

        def spy(*args):
            seen.append(args[0])
            return _cycle_matrices(*args)
        monkeypatch.setattr(lfa, "_cycle_matrices", spy)
        tt, tx = (np.array([0.1 / m, -0.2 / m]) for m in lfa._scale(steps))
        for nu, eta in SWEEP_PAIRS:
            eta = eta if len(steps) > 1 else (0, 0)
            cfg = LfaConfig(sigma=1.0, nu1=nu[0], nu2=nu[1], eta1=eta[0], eta2=eta[1],
                            resolution=16)
            calls = {
                "rho_bar_details": lambda: rho_bar_details(steps, cfg),
                "spectral_radius_over_groups":
                    lambda: spectral_radius_over_groups(steps, cfg, tt, tx),
                "_probe_bounds": lambda: _probe_bounds(_levels(steps, cfg), cfg.sigma,
                                                       [0.5, 0.7], [Frequency(tt[0], tx[0])]),
                "low_mode_action": lambda: low_mode_action(steps, cfg),
            }
            if np.prod(lfa._scale(steps)) <= 8:  # a 64-mode search takes seconds
                calls["omega_opt_numeric"] = lambda: omega_opt_numeric(steps, cfg)
            want = stage_levels(steps, nu, eta)
            assert want == _planned(steps, nu, eta), (nu, eta)
            for name, call in calls.items():
                seen.clear()
                call()
                assert seen and all(levels == want for levels in seen), (name, nu, eta)

    def test_planned_depth_two_is_the_k_grid_schedule(self):
        # NEW at depth 2 puts nu on both levels: the schedule ((4,2),(4,2)) with
        # eta = nu, whose rho_bar is the k-grid LFA of the depth-2 run
        planned = _planned(CS.NEW, (3, 3), (0, 0), n_x=63, n_t=4096, sigma=0.1, depth=2)
        kgrid = ((4, 2), (4, 2))
        cfg = LfaConfig(sigma=0.1, eta1=3, eta2=3, resolution=16)
        tt, tx = _quadrant(planned, cfg.resolution)
        got = _cycle_matrices(planned, cfg.sigma, cfg.omega, tt, tx)[0]
        assert np.array_equal(got, _cycle_matrices(_levels(kgrid, cfg), cfg.sigma, cfg.omega,
                                                   tt, tx)[0])
        assert round(rho_bar_details(kgrid, cfg).value, 4) == 0.7324
        eta_zero = replace(cfg, eta1=0, eta2=0)
        assert not np.array_equal(got, _cycle_matrices(_levels(kgrid, eta_zero), cfg.sigma,
                                                       cfg.omega, tt, tx)[0])


class TestPlanDefaults:
    """``LfaConfig`` defaults as ``CyclePlan`` does: a default analysis is the default cycle's."""

    def test_config_defaults_are_the_plan_defaults(self):
        config = {f.name: f.default for f in fields(LfaConfig)}
        plan = {f.name: f.default for f in fields(CyclePlan)}
        shared = config.keys() & plan.keys()
        assert shared == {"omega", "nu1", "nu2", "eta1", "eta2"}
        assert {k: config[k] for k in shared} == {k: plan[k] for k in shared}

    def test_default_original_analysis_is_the_default_plan(self):
        # with eta = 3 the default analysis read 0.269, the LFA of a cycle that a
        # default ORIGINAL plan, with eta = 0, does not run
        grid = SpaceTimeGrid(15, 64, 0.25)  # sigma 1
        planned = tuple(level[1:] for level in plan_levels(grid, CyclePlan(CS.ORIGINAL))[0])
        cfg = LfaConfig(sigma=grid.sigma, resolution=32)
        assert _levels(CS.ORIGINAL, cfg) == planned
        got = rho_bar_details(CS.ORIGINAL, cfg)
        assert got == lfa._rho_bar(planned, cfg.sigma, cfg.omega, *_quadrant(planned, 32))
        assert round(got.value, 3) == 0.583


def _spy_schedule_checks(monkeypatch) -> list:
    """Record every ``core.check_schedule`` call, under each module's name for it."""
    calls = []

    def spy(steps, check=core.check_schedule):
        calls.append(steps)
        return check(steps)
    for module in (core, cycles, lfa):
        monkeypatch.setattr(module, "check_schedule", spy)
    return calls


class TestOneCheckPerCall:
    """Each public entry point checks its schedule once; the search runs below the checks."""

    @pytest.mark.parametrize("steps", [CS.NEW, CS.ORIGINAL], ids=_steps_id)
    def test_each_entry_point_checks_once(self, steps, monkeypatch):
        calls = _spy_schedule_checks(monkeypatch)
        tt, tx = (a[:4] for a in low_frequency_grid(16))
        for sigma in (0.01, 0.1, 1.6, 10.0):
            for res in (16, 32):
                cfg = LfaConfig(sigma=sigma, resolution=res)
                entries = {
                    "CyclePlan": lambda: CyclePlan(steps),
                    "rho_bar_details": lambda: rho_bar_details(steps, cfg),
                    "spectral_radius_over_groups":
                        lambda: spectral_radius_over_groups(steps, cfg, tt, tx),
                    "low_mode_action": lambda: low_mode_action(steps, cfg),
                    "omega_opt_numeric": lambda: omega_opt_numeric(steps, cfg),
                }
                for name, call in entries.items():
                    calls.clear()
                    call()
                    assert len(calls) == 1, (name, sigma, res)
                for mode in ("0.7", "theorem", "numeric"):
                    calls.clear()
                    resolve_omega(mode, steps, cfg)
                    assert len(calls) >= 1, (mode, sigma, res)

    @pytest.mark.parametrize("steps", [CS.NEW, CS.ORIGINAL], ids=_steps_id)
    def test_search_makes_no_config(self, steps, monkeypatch):
        made = []

        def spy(self, post_init=LfaConfig.__post_init__):
            made.append(self)
            post_init(self)
        cfg = LfaConfig(sigma=1.6, resolution=16)
        monkeypatch.setattr(LfaConfig, "__post_init__", spy)
        omega_opt_numeric(steps, cfg)
        resolve_omega("numeric", steps, cfg)
        assert made == []


class TestColumnPath:
    """``low_mode_action`` builds column 0 alone, bit for bit that of the full matrices."""

    @pytest.mark.parametrize("steps", COLUMN_SCHEDULES)
    def test_first_column_equals_full_matrices(self, steps):
        tg, xg = low_frequency_grid(16, lfa._scale(steps))
        # the group of the zero frequency is singular at every sigma
        tt, tx = (a.ravel() for a in np.meshgrid(np.append(tg, 0.0), np.append(xg, 0.0),
                                                 indexing="ij"))
        for sigma in (0.01, 1.0, 100.0):
            for nu in (0, 1, 3):
                cfg = LfaConfig(sigma=sigma, omega=0.7, nu1=nu, nu2=nu, eta1=nu, eta2=nu)
                args = _levels(steps, cfg), cfg.sigma, cfg.omega, tt, tx
                full, singular, tc, xc = _cycle_matrices(*args)
                col, col_singular, *companions = _cycle_matrices(*args, [0])
                assert all(np.array_equal(a, b) for a, b in zip(companions, (tc, xc)))
                assert col.shape == full.shape[:-1] + (1,), (sigma, nu)
                assert np.array_equal(col[..., 0], full[..., 0]), (sigma, nu)
                assert np.array_equal(col_singular, singular) and singular.sum() == 1
                moduli = _scatter_first_columns(col, tc, xc, singular).modulus
                assert not moduli.reshape(tc.shape)[singular].any()


def _same_map(a, b) -> bool:
    return all(_same_bits(getattr(a, f), getattr(b, f)) for f in ("theta_t", "theta_x", "modulus"))


class TestQuadrantBuild:
    """``low_mode_action`` builds the positive quadrant and mirrors it, bit for bit."""

    @pytest.mark.parametrize("steps", COLUMN_SCHEDULES)
    def test_reflected_frequencies_give_equal_columns(self, steps):
        # the fact the mirror rests on: reflecting either axis negates the
        # companions exactly and leaves every modulus and singular mask unchanged
        tg, xg = low_frequency_grid(16, lfa._scale(steps))
        tt, tx = (a.ravel() for a in np.meshgrid(tg[8:], xg[8:], indexing="ij"))
        for sigma in (0.01, 1.0, 100.0):
            for nu in (0, 1, 3):
                cfg = LfaConfig(sigma=sigma, omega=0.7, nu1=nu, nu2=nu, eta1=nu, eta2=nu)
                levels = _levels(steps, cfg)
                col, singular, tc, xc = _cycle_matrices(levels, cfg.sigma, cfg.omega, tt, tx, [0])
                for st, sx in ((-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
                    got, got_singular, gtc, gxc = _cycle_matrices(levels, cfg.sigma, cfg.omega,
                                                                  st * tt, sx * tx, [0])
                    assert _same_bits(np.abs(got), np.abs(col)), (sigma, nu, st, sx)
                    assert _same_bits(got_singular, singular)
                    assert _same_bits(gtc, st * tc) and _same_bits(gxc, sx * xc)

    @pytest.mark.parametrize("steps", COLUMN_SCHEDULES)
    def test_equals_full_build(self, steps):
        # resolution 18 has an odd number of samples per half
        for res in (16, 18):
            for sigma in (0.01, 1.0, 100.0):
                for nu in (0, 1, 3):
                    cfg = LfaConfig(sigma=sigma, omega=0.7, nu1=nu, nu2=nu, eta1=nu, eta2=nu,
                                    resolution=res)
                    assert _same_map(low_mode_action(steps, cfg),
                                     low_mode_action_full(steps, cfg)), (res, sigma, nu)

    @pytest.mark.parametrize("strategy", [CS.NEW, CS.ORIGINAL])
    def test_strategies_at_full_resolution(self, strategy):
        for eta in _etas(strategy):
            cfg = LfaConfig(sigma=1.0, eta1=eta, eta2=eta, resolution=128)
            assert _same_map(low_mode_action(strategy, cfg),
                             low_mode_action_full(strategy, cfg)), eta

    @pytest.mark.parametrize("steps", [CS.NEW, CS.ORIGINAL, ((4, 2), (4, 2))])
    def test_builds_one_quadrant(self, steps, monkeypatch):
        sizes = []

        def counting(*args):  # (levels, sigma, omega, theta_t, theta_x, cols)
            sizes.append(np.size(args[3]))
            return _cycle_matrices(*args)
        monkeypatch.setattr(lfa, "_cycle_matrices", counting)
        for res in (16, 18, 64):
            sizes.clear()
            out = low_mode_action(steps, LfaConfig(sigma=1.0, resolution=res))
            assert sizes == [(res // 2) ** 2], res
            assert out.modulus.size == np.prod(lfa._scale(steps)) * res * res


class TestOmegaOptNumeric:
    """omega_opt_numeric sweeps only where a one-group lower bound cannot settle the search."""

    @pytest.mark.parametrize("resolution", [16, 32])
    @pytest.mark.parametrize("strategy", [CS.NEW, CS.ORIGINAL])
    def test_equals_full_scan(self, strategy, resolution):
        # nu = (0, 0) makes rho_bar independent of omega: every scan point ties
        for sigma in np.logspace(-3, 3, 7):
            for nu1, nu2 in ((0, 0), (1, 0), (1, 1), (3, 3)):
                for eta in _etas(strategy):
                    cfg = LfaConfig(sigma=sigma, nu1=nu1, nu2=nu2, eta1=eta, eta2=eta,
                                    resolution=resolution)
                    assert omega_opt_numeric(strategy, cfg) == omega_opt_scan(strategy, cfg), \
                        (sigma, nu1, nu2, eta)

    @pytest.mark.parametrize("steps", SCALE_SCHEDULES, ids=_steps_id)
    def test_schedule_equals_full_scan(self, steps):
        # eta = nu, so nu = (0, 0) leaves rho_bar independent of omega on every level;
        # an oracle scan of a 64-mode schedule takes seconds, so those run two
        # cases: every scan point tied, and the default sweeps at sigma 0.1
        cases = [(sigma, nu) for sigma in np.logspace(-3, 3, 7)
                 for nu in ((0, 0), (1, 0), (1, 1), (3, 3))]
        if np.prod(lfa._scale(steps)) > 8:
            cases = [(1e-3, (0, 0)), (0.1, (3, 3))]
        for sigma, (nu1, nu2) in cases:
            cfg = LfaConfig(sigma=sigma, nu1=nu1, nu2=nu2, eta1=nu1, eta2=nu2, resolution=16)
            assert omega_opt_numeric(steps, cfg) == omega_opt_scan(steps, cfg), (sigma, nu1, nu2)

    @pytest.mark.parametrize("steps", [CS.NEW, CS.ORIGINAL, ((4, 2), (4, 2))], ids=_steps_id)
    def test_batched_omegas_are_bit_identical(self, steps):
        # the search bounds rho_bar in one build over mixed (omega, frequency)
        # pairs; each radius must be the one a build at that omega alone gives
        rng = np.random.default_rng(5)
        tg, xg = low_frequency_grid(16, lfa._scale(steps))
        # all four quadrants, and the zero frequency, whose group is singular
        tt, tx = (np.append(a.ravel(), 0.0) for a in np.meshgrid(tg, xg, indexing="ij"))
        scan = np.arange(1, 65) / 64
        for sigma, nu in [(1e-3, 0), (0.1, 1), (1.6, 3), (1e3, 3)]:
            cfg = LfaConfig(sigma=sigma, nu1=nu, nu2=nu, eta1=nu, eta2=nu, resolution=16)
            pick = np.append(rng.choice(tt.size - 1, 60), tt.size - 1)
            omegas = rng.choice(scan[:8], pick.size)  # few omegas, each on many groups
            mats, singular, _, _ = _cycle_matrices(_levels(steps, cfg), cfg.sigma, omegas,
                                                   tt[pick], tx[pick])
            radii = np.where(singular, -np.inf, spectral_radius_batch(mats))
            assert singular.sum() >= 1
            for omega in np.unique(omegas):
                at = omegas == omega
                want, want_singular = spectral_radius_over_groups(
                    steps, replace(cfg, omega=omega), tt[pick][at], tx[pick][at])
                assert _same_bits(radii[at], want), (sigma, omega)
                assert _same_bits(singular[at], want_singular)

    @pytest.mark.parametrize("steps", [CS.NEW, CS.ORIGINAL, ((4, 2), (4, 2))], ids=_steps_id)
    def test_empty_batch(self, steps):
        cfg = LfaConfig(sigma=1.0, resolution=16)
        for omega in (cfg.omega, np.array([])):
            mats, singular, _, _ = _cycle_matrices(_levels(steps, cfg), cfg.sigma, omega,
                                                   np.array([]), np.array([]))
            radii = spectral_radius_batch(mats)
            assert _same_bits(radii, np.array([])) and _same_bits(singular, np.array([], bool))

    @pytest.mark.parametrize("steps", [CS.NEW, CS.ORIGINAL, ((4, 2), (4, 2))], ids=_steps_id)
    def test_probe_bounds_are_largest_radii(self, steps):
        # each omega's bound is its largest radius over the probes, a singular one
        # counting as -inf, bit for bit as one public call per omega gives it
        tg, xg = low_frequency_grid(16, lfa._scale(steps))
        probes = [Frequency(tg[9], xg[12]), Frequency(tg[15], xg[8]), Frequency(0.0, 0.0)]
        omegas = np.arange(1, 65)[::7] / 64
        t, x = (np.array(a) for a in zip(*probes))
        for sigma, nu in [(1e-3, 0), (1.6, 3), (1e3, 3)]:
            cfg = LfaConfig(sigma=sigma, nu1=nu, nu2=nu, eta1=nu, eta2=nu, resolution=16)
            got = _probe_bounds(_levels(steps, cfg), cfg.sigma, omegas, probes)
            for om, bound in zip(omegas, got):
                radii, singular = spectral_radius_over_groups(steps, replace(cfg, omega=om), t, x)
                assert singular[-1] and _same_bits(bound, radii.max()), (sigma, om)

    @pytest.mark.parametrize("strategy", [CS.NEW, CS.ORIGINAL])
    def test_subset_radii_are_bit_identical(self, strategy):
        # the bound is exact only if a group's radius does not depend on the
        # other groups computed with it
        rng = np.random.default_rng(11)
        tg, xg = low_frequency_grid(32)
        tt, tx = [a.ravel() for a in np.meshgrid(tg[tg > 0], xg[xg > 0], indexing="ij")]
        for sigma, omega, nu in [(1e-3, 1.0, 0), (0.1, 0.3, 1), (1.6, 0.5, 3), (1e3, 0.9, 3)]:
            for eta in _etas(strategy):
                cfg = LfaConfig(sigma=sigma, omega=omega, nu1=nu, nu2=nu, eta1=eta, eta2=eta,
                                resolution=32)
                whole, _ = spectral_radius_over_groups(strategy, cfg, tt, tx)
                for size in (1, 1, 2, 3, 8, 50, 255):
                    pick = rng.choice(tt.size, size, replace=False)
                    part, _ = spectral_radius_over_groups(strategy, cfg, tt[pick], tx[pick])
                    assert np.array_equal(part, whole[pick]), (sigma, eta, size)

    @pytest.mark.parametrize("strategy", [CS.NEW, CS.ORIGINAL])
    def test_few_sweeps(self, strategy, monkeypatch):
        calls = []

        def counting(*args, rho_bar=lfa._rho_bar):
            calls.append(args)
            return rho_bar(*args)
        monkeypatch.setattr(lfa, "_rho_bar", counting)
        for eta in _etas(strategy):  # 7 sweeps, and 12 for ORIGINAL at eta 3
            calls.clear()
            omega_opt_numeric(strategy, LfaConfig(sigma=1.6, nu1=3, nu2=3, eta1=eta, eta2=eta,
                                                  resolution=32))
            assert 0 < len(calls) <= 30, eta  # the full scan runs 83

    @pytest.mark.parametrize("strategy", [CS.NEW, CS.ORIGINAL, ((4, 2), (4, 2))])
    def test_few_matrix_builds(self, strategy, monkeypatch):
        # sweeps, one batched scan refresh per new probe and one golden-section bound
        # per step make 29, 29 and 27 builds, at eta 0 and 3 alike; a build per scan
        # point and refresh took 91 and 104 for the two strategies at eta 3
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return _cycle_matrices(*args, **kwargs)
        monkeypatch.setattr(lfa, "_cycle_matrices", counting)
        for eta in _etas(strategy):
            calls.clear()
            omega_opt_numeric(strategy, LfaConfig(sigma=1.6, nu1=3, nu2=3, eta1=eta, eta2=eta,
                                                  resolution=16))
            assert 0 < len(calls) <= 35, eta

    def test_dominates_fixed_choices(self):
        for sigma in (0.05, 1.0):
            cfg = LfaConfig(sigma=sigma, resolution=32)
            w_opt, rho_opt = omega_opt_numeric(CS.NEW, cfg)
            for fixed in (0.5, optimal_omega((4, 2), sigma)):
                rho_fixed = rho_bar_details(
                    CS.NEW, LfaConfig(sigma=sigma, omega=fixed, resolution=32)).value
                assert rho_opt <= rho_fixed + 1e-9
            assert 0.0 < w_opt <= 1.0


class TestResolveOmega:
    @pytest.mark.parametrize("sigma", [0.01, 0.1, 1.0])
    def test_theorem_uses_first_step(self, sigma):
        cfg = LfaConfig(sigma=sigma)
        assert resolve_omega("theorem", CS.NEW, cfg) == optimal_omega((4, 2), sigma)
        assert resolve_omega("theorem", CS.ORIGINAL, cfg) == optimal_omega((2, 2), sigma)

    def test_theorem_follows_the_schedule(self):
        # a time-first schedule smooths for time semi-coarsening on the fine
        # level, whose optimum is 1/2 (full coarsening's is 0.845 at sigma 0.1)
        assert resolve_omega("theorem", ((2, 1), (2, 2)), LfaConfig(sigma=0.1)) == 0.5


class TestLowModeAction:
    def test_identity_standin_gives_indicator(self):
        res = 16
        tg = -np.pi / 4 + (np.arange(res) + 0.5) * (np.pi / 2 / res)
        xg = -np.pi / 2 + (np.arange(res) + 0.5) * (np.pi / res)
        tt, tx = [a.ravel() for a in np.meshgrid(tg, xg, indexing="ij")]
        t8, x8 = group_arrays(tt, tx, (4, 2))
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
