import math

import numpy as np
import pytest

from oracles import (dense_block_jacobi_error_matrix, dense_heat_matrix,
                     omega_star_bruteforce, squared_power_radius)
from stmg.core import CoarseningStrategy, SpaceTimeGrid
from stmg.heat import apply_operator, assemble_operator, direct_solve
from stmg.smoother import (FULL_THRESHOLD, NEW_THRESHOLD, SmootherConfig,
                           jacobi_sweep, optimal_omega, smoother_error_matrix_radius)


def grid_for_sigma(n_x, n_t, sigma):
    return SpaceTimeGrid(n_x=n_x, n_t=n_t, horizon=sigma * n_t / (n_x + 1) ** 2)


class TestJacobiSweep:
    def setup_method(self):
        self.g = grid_for_sigma(7, 8, 0.8)
        self.op = assemble_operator(self.g)
        rng = np.random.default_rng(11)
        self.rhs = rng.standard_normal((8, 7))
        self.exact = direct_solve(self.op, self.rhs)

    def test_fixed_point(self):
        out = jacobi_sweep(self.op, self.exact.copy(), self.rhs,
                           SmootherConfig(omega=0.7, sweeps=3))
        assert np.abs(out - self.exact).max() < 1e-12

    def test_zero_sweeps(self):
        u = np.random.default_rng(1).standard_normal((8, 7))
        out = jacobi_sweep(self.op, u, self.rhs, SmootherConfig(omega=0.5, sweeps=0))
        assert np.array_equal(out, u)

    def test_single_sweep_matches_dense_formula(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((8, 7))
        out = jacobi_sweep(self.op, u, self.rhs, SmootherConfig(omega=0.6, sweeps=1))
        l = dense_heat_matrix(8, 7, self.g.sigma)
        d = np.kron(np.eye(8), l[:7, :7])
        want = u.ravel() + 0.6 * np.linalg.solve(d, self.rhs.ravel() - l @ u.ravel())
        assert np.abs(out.ravel() - want).max() < 1e-12

    def test_affine_shift(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((8, 7))
        w = rng.standard_normal((8, 7))
        cfg = SmootherConfig(omega=0.45, sweeps=2)
        a = jacobi_sweep(self.op, u, self.rhs, cfg)
        b = jacobi_sweep(self.op, u + w, self.rhs + apply_operator(self.op, w), cfg)
        assert np.abs((b - a) - w).max() < 1e-12 * max(1.0, np.abs(w).max())

    def test_error_scaling_exact(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((8, 7))
        cfg = SmootherConfig(omega=0.5, sweeps=3)
        zero = np.zeros((8, 7))
        once = jacobi_sweep(self.op, u, zero, cfg)
        twice = jacobi_sweep(self.op, 2.0 * u, zero, cfg)
        assert np.array_equal(twice, 2.0 * once)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SmootherConfig(omega=0.0, sweeps=1)
        with pytest.raises(ValueError):
            SmootherConfig(omega=1.2, sweeps=1)
        with pytest.raises(ValueError):
            SmootherConfig(omega=0.5, sweeps=-1)


class TestErrorMatrixRadius:
    @pytest.mark.parametrize("omega,expected", [(1.0, 0.0), (0.5, 0.5), (0.25, 0.75)])
    def test_closed_form(self, omega, expected):
        assert smoother_error_matrix_radius(omega) == expected

    @pytest.mark.parametrize("omega", [0.25, 0.5, 0.75, 1.0])
    def test_against_power_estimate_on_assembled_matrix(self, omega):
        s = dense_block_jacobi_error_matrix(8, 7, 0.8, omega)
        est = squared_power_radius(s)
        assert abs(est - abs(1.0 - omega)) < 1e-6

    def test_domain(self):
        with pytest.raises(ValueError):
            smoother_error_matrix_radius(2.0)


class TestOptimalOmega:
    def test_time_semi_always_half(self):
        for sigma in (1e-3, 0.3, 7.0, 1e3):
            assert optimal_omega(CoarseningStrategy.TIME2, sigma) == 0.5
            assert optimal_omega(CoarseningStrategy.TIME4, sigma) == 0.5

    def test_space_semi_always_one(self):
        for sigma in (1e-3, 1.0, 1e3):
            assert optimal_omega(CoarseningStrategy.SPACE, sigma) == 1.0

    def test_full_above_threshold(self):
        assert optimal_omega(CoarseningStrategy.FULL, 1.0) == 0.5

    def test_full_below_threshold_exact_fraction(self):
        assert optimal_omega(CoarseningStrategy.FULL, 0.25) == pytest.approx(12 / 17, abs=1e-15)

    def test_new_below_threshold(self):
        # crossing point of the time- and space-dominated branches at c = 1.08
        assert optimal_omega(CoarseningStrategy.NEW, 0.04) == pytest.approx(0.7541594, abs=1e-6)

    def test_branch_continuity_at_thresholds(self):
        c = 1.0 + 2.0 * FULL_THRESHOLD
        formula = 2 * c / (c * c + 2 * c - 1)
        assert abs(formula - 0.5) < 1e-9
        c = 1.0 + 2.0 * NEW_THRESHOLD
        r2 = math.sqrt(2.0)
        formula = (r2 * c * c - 2 * c) / ((r2 - 1) * c * c - 2 * c + 1)
        assert abs(formula - 0.5) < 1e-9

    def test_range_between_half_and_one(self):
        for strat in (CoarseningStrategy.FULL, CoarseningStrategy.NEW):
            for sigma in np.logspace(-3, 3, 13):
                w = optimal_omega(strat, sigma)
                assert 0.5 - 1e-12 <= w <= 1.0 + 1e-12

    @pytest.mark.parametrize("strategy", ["time2", "time4", "space", "full", "new"])
    def test_against_bruteforce_oracle_spot(self, strategy):
        for sigma in (0.01, 0.3, 5.0):
            closed = optimal_omega(CoarseningStrategy(strategy), sigma)
            brute = omega_star_bruteforce(strategy, sigma)
            assert abs(closed - brute) <= 2e-3

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            optimal_omega(CoarseningStrategy.FULL, 0.0)
