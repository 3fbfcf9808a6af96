import math

import numpy as np
import pytest

from oracles import (SMOOTHING_STEPS, dense_block_jacobi_error_matrix, dense_heat_matrix,
                     omega_star_bruteforce, residual_form_sweep, squared_power_radius)
from stmg.core import SpaceTimeGrid
from stmg.heat import apply_operator, assemble_operator, direct_solve
from stmg.smoother import SmootherConfig, jacobi_sweep, optimal_omega

#: sigma above which full (2, 2) coarsening keeps omega* = 1/2 (the paper's bound)
FULL_THRESHOLD = 1.0 / math.sqrt(2.0)

#: sigma above which direct (4, 2) coarsening keeps omega* = 1/2 (the paper's bound)
NEW_THRESHOLD = (math.sqrt(2.0) - 2.0 + math.sqrt(2.0 - math.sqrt(2.0))) / 2.0


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


class TestFusedSweep:
    """The fused update against the residual form it rewrites."""

    @pytest.mark.parametrize("nx,nt,horizon", [
        pytest.param(3, 4, 0.1, id="3-4"),
        pytest.param(7, 8, 0.1, id="7-8"),
        pytest.param(63, 256, 0.1, id="63-256"),
        # sigma 1e-3 and 1e3: Q^{-1} near I and far from it, with n_x**2 terms per row
        pytest.param(255, 64, 1e-3 * 64 / 256**2, id="255-64-sigma1e-3"),
        pytest.param(255, 64, 1e3 * 64 / 256**2, id="255-64-sigma1e3"),
    ])
    @pytest.mark.parametrize("omega", [0.5, 0.7, 1.0])
    @pytest.mark.parametrize("sweeps", [1, 2, 3])
    def test_matches_residual_form(self, nx, nt, horizon, omega, sweeps):
        op = assemble_operator(SpaceTimeGrid(n_x=nx, n_t=nt, horizon=horizon))
        rng = np.random.default_rng(nx + nt + sweeps)
        u = rng.standard_normal((nt, nx))
        rhs = rng.standard_normal((nt, nx))
        cfg = SmootherConfig(omega=omega, sweeps=sweeps)
        got = jacobi_sweep(op, u, rhs, cfg)
        want = residual_form_sweep(op, u, rhs, cfg)
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("omega", [0.5, 1.0])
    def test_inputs_never_written(self, omega):
        op = assemble_operator(SpaceTimeGrid(n_x=15, n_t=16, horizon=0.1))
        rng = np.random.default_rng(5)
        u = rng.standard_normal((16, 15))
        rhs = rng.standard_normal((16, 15))
        u0, rhs0 = u.copy(), rhs.copy()
        out = jacobi_sweep(op, u, rhs, SmootherConfig(omega=omega, sweeps=3))
        assert np.array_equal(u, u0) and np.array_equal(rhs, rhs0)
        assert not np.shares_memory(out, u) and not np.shares_memory(out, rhs)


class TestErrorMatrixRadius:
    """The block-Jacobi error matrix (1-omega)I + omega*Gamma (x) Q^{-1} is
    block lower triangular, so its spectrum is the single value 1-omega."""

    @pytest.mark.parametrize("omega", [0.25, 0.5, 0.75, 1.0])
    def test_against_power_estimate_on_assembled_matrix(self, omega):
        s = dense_block_jacobi_error_matrix(8, 7, 0.8, omega)
        est = squared_power_radius(s)
        assert abs(est - abs(1.0 - omega)) < 1e-6


class TestOptimalOmega:
    def test_time_semi_always_half(self):
        for sigma in (1e-3, 0.3, 7.0, 1e3):
            assert optimal_omega((2, 1), sigma) == 0.5
            assert optimal_omega((4, 1), sigma) == 0.5

    def test_space_semi_always_one(self):
        for sigma in (1e-3, 1.0, 1e3):
            assert optimal_omega((1, 2), sigma) == 1.0

    def test_full_above_threshold(self):
        assert optimal_omega((2, 2), 1.0) == 0.5

    def test_full_below_threshold_exact_fraction(self):
        assert optimal_omega((2, 2), 0.25) == pytest.approx(12 / 17, abs=1e-15)

    def test_new_below_threshold(self):
        # crossing point of the time- and space-dominated branches at c = 1.08
        assert optimal_omega((4, 2), 0.04) == pytest.approx(0.7541594, abs=1e-6)

    def test_branch_continuity_at_thresholds(self):
        # omega* is 1/2 above the paper's thresholds and the branch crossing
        # below them, which meets 1/2 continuously at the threshold
        for step, threshold in (((2, 2), FULL_THRESHOLD), ((4, 2), NEW_THRESHOLD)):
            for eps in (1e-3, 1e-6, 1e-9):
                assert optimal_omega(step, threshold * (1.0 + eps)) == 0.5
                below = optimal_omega(step, threshold * (1.0 - eps))
                assert 0.5 < below < 0.5 + eps

    def test_range_between_half_and_one(self):
        for step in ((2, 2), (4, 2)):
            for sigma in np.logspace(-3, 3, 13):
                w = optimal_omega(step, sigma)
                assert 0.5 - 1e-12 <= w <= 1.0 + 1e-12

    @pytest.mark.parametrize("step", SMOOTHING_STEPS.values(), ids=SMOOTHING_STEPS.keys())
    def test_against_bruteforce_oracle_spot(self, step):
        # 0.05, 0.15 and 3.0 fall in the three regimes of the (4, 2) closed
        # form: below its threshold, between it and c = sqrt(2) where the
        # crossing is below 1/2, and past c = 4.26 where only the
        # c > sqrt(2) guard rejects a spurious crossing
        for sigma in (0.01, 0.05, 0.15, 0.3, 3.0, 5.0):
            closed = optimal_omega(step, sigma)
            brute = omega_star_bruteforce(step, sigma)
            assert abs(closed - brute) <= 2e-3

    def test_invalid_sigma(self):
        for sigma in (0.0, np.nan, np.inf, 5e307, 1e308):
            with pytest.raises(ValueError):
                optimal_omega((2, 2), sigma)
