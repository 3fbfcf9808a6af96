import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import dense_heat_matrix, dense_q_matrix, time_stepping_solve, tridiagonal_q
from periodic import assemble_periodic_operator, fourier_mode, time_frequencies
from stmg.core import SpaceTimeGrid, random_field
from stmg.heat import (ProblemData, apply_operator, assemble_operator, assemble_rhs,
                       direct_solve, error_norm, heat_benchmark_problem)


def grid_for_sigma(n_x, n_t, sigma):
    return SpaceTimeGrid(n_x=n_x, n_t=n_t, horizon=sigma * n_t / (n_x + 1) ** 2)


class TestAssemble:
    """The operator is its grid: Q comes from sigma, checked on unit fields."""

    @staticmethod
    def q_columns(op):
        # a unit field in the last time block has Q's column there and nothing else
        g = op.grid
        cols = []
        for j in range(g.n_x):
            u = np.zeros((g.n_t, g.n_x))
            u[-1, j] = 1.0
            out = apply_operator(op, u)
            assert not out[:-1].any()
            cols.append(out[-1])
        return np.column_stack(cols)

    def test_unit_sigma_stencil(self):
        g = grid_for_sigma(3, 4, 1.0)
        op = assemble_operator(g)
        assert [f.name for f in fields(op)] == ["grid"]
        q = self.q_columns(op)
        assert np.array_equal(q, dense_q_matrix(3, 1.0))

    def test_half_sigma_diagonal(self):
        g = grid_for_sigma(7, 8, 0.5)
        q = self.q_columns(assemble_operator(g))
        assert np.array_equal(q, dense_q_matrix(7, g.sigma))
        assert np.allclose(np.diag(q), 2.0, atol=1e-15)


class TestApplyOperator:
    @pytest.mark.parametrize("nx,nt", [(3, 4), (7, 8), (15, 16), (7, 64)])
    def test_matches_dense_oracle(self, nx, nt):
        g = grid_for_sigma(nx, nt, 0.7)
        op = assemble_operator(g)
        dense = dense_heat_matrix(nt, nx, g.sigma)
        rng = np.random.default_rng(nx * nt)
        for _ in range(3):
            u = rng.standard_normal((nt, nx))
            got = apply_operator(op, u).ravel()
            want = dense @ u.ravel()
            assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    def test_zero_field(self):
        g = grid_for_sigma(7, 8, 1.0)
        op = assemble_operator(g)
        assert np.array_equal(apply_operator(op, np.zeros((8, 7))), np.zeros((8, 7)))

    def test_bidiagonal_support(self):
        g = grid_for_sigma(7, 8, 1.0)
        op = assemble_operator(g)
        u = np.zeros((8, 7))
        u[3] = 1.0
        out = apply_operator(op, u)
        nonzero_blocks = np.flatnonzero(np.abs(out).max(axis=1) > 0)
        assert np.array_equal(nonzero_blocks, [3, 4])

    def test_shape_mismatch(self):
        g = grid_for_sigma(7, 8, 1.0)
        with pytest.raises(ValueError):
            apply_operator(assemble_operator(g), np.zeros((8, 8)))

    @pytest.mark.parametrize("nx,nt", [(3, 4), (63, 256), (63, 4096)])
    @pytest.mark.parametrize("sigma", [1e-3, 0.1, 1.6, 1e3])
    def test_stencil_bit_identical_to_tridiagonal_apply(self, nx, nt, sigma):
        # the scalar stencil against the diagonals' product, then the time shift
        g = grid_for_sigma(nx, nt, sigma)
        op = assemble_operator(g)
        q = tridiagonal_q(nx, g.sigma)
        rng = np.random.default_rng(nx * nt)
        for scale in (1e-5, 1.0, 1e5):
            u = scale * rng.standard_normal((nt, nx))
            want = q.apply(u)
            want[1:] -= u[:-1]
            assert np.array_equal(apply_operator(op, u), want)


class TestRhs:
    def test_homogeneous(self):
        g = grid_for_sigma(7, 8, 1.0)
        p = ProblemData(horizon=g.horizon, source=lambda x, t: np.zeros_like(x * t),
                        initial=lambda x: np.zeros_like(x))
        assert np.array_equal(assemble_rhs(g, p), np.zeros((8, 7)))

    def test_initial_value_only(self):
        g = grid_for_sigma(7, 8, 1.0)
        p = ProblemData(horizon=g.horizon, source=lambda x, t: np.zeros_like(x * t),
                        initial=lambda x: np.sin(np.pi * x))
        rhs = assemble_rhs(g, p)
        assert np.allclose(rhs[0], np.sin(np.pi * g.x), atol=0)
        assert np.array_equal(rhs[1:], np.zeros((7, 7)))

    def test_benchmark_source_samples(self):
        g = SpaceTimeGrid(n_x=7, n_t=8, horizon=0.1)
        rhs = assemble_rhs(g, heat_benchmark_problem(horizon=0.1))
        x, t = g.x, g.t
        for n in range(8):
            want = g.tau * (x**4 * (1 - x) ** 4 + 10 * np.sin(8 * t[n]))
            assert np.allclose(rhs[n], want, rtol=0, atol=1e-18)

    def test_horizon_mismatch_rejected(self):
        g = SpaceTimeGrid(n_x=7, n_t=16, horizon=0.2)
        with pytest.raises(ValueError, match=r"^problem horizon 0\.1 does not match grid "
                                             r"horizon 0\.2$"):
            assemble_rhs(g, heat_benchmark_problem(horizon=0.1))


class TestDirectSolve:
    def test_zero_rhs(self):
        g = grid_for_sigma(7, 8, 1.0)
        op = assemble_operator(g)
        assert np.array_equal(direct_solve(op, np.zeros((8, 7))), np.zeros((8, 7)))

    def test_apply_then_solve_roundtrip(self):
        g = grid_for_sigma(15, 16, 2.5)
        op = assemble_operator(g)
        w = np.random.default_rng(1).standard_normal((16, 15))
        u = direct_solve(op, apply_operator(op, w))
        assert np.abs(u - w).max() < 1e-11

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 409.6])
    def test_benchmark_residual(self, sigma):
        g = grid_for_sigma(31, 16, sigma)
        op = assemble_operator(g)
        rhs = assemble_rhs(g, heat_benchmark_problem(horizon=g.horizon))
        u = direct_solve(op, rhs)
        res = np.abs(apply_operator(op, u) - rhs).max()
        assert res <= 1e-10 * max(np.abs(rhs).max(), 1e-300)


    @pytest.mark.parametrize("shape", [(8, 6), (7, 7), (8, 7, 1), (56,)])
    def test_shape_mismatch(self, shape):
        op = assemble_operator(grid_for_sigma(7, 8, 1.0))
        message = rf"^rhs shape {re.escape(str(shape))} does not match grid \(8, 7\)$"
        with pytest.raises(ValueError, match=message):
            direct_solve(op, np.zeros(shape))

    @pytest.mark.parametrize("nx,nt", [(63, 256), (63, 4096), (31, 256)])
    def test_in_place_recurrence_bit_identical(self, nx, nt):
        # the recurrence v_n = (v_n + v_{n-1}) / lam with a temporary per
        # step: the same IEEE operations as the in-place loop
        g = SpaceTimeGrid(n_x=nx, n_t=nt, horizon=0.1)
        op = assemble_operator(g)
        rhs = assemble_rhs(g, heat_benchmark_problem(0.1))
        m = nx + 1
        k = np.arange(1, m)
        s = np.sqrt(2.0 / m) * np.sin(np.pi * (np.outer(k, k) % (2 * m)) / m)
        lam = 1.0 + 4.0 * g.sigma * np.sin(np.pi * k / (2 * m)) ** 2
        v = rhs @ s
        v[0] /= lam
        for n in range(1, nt):
            np.divide(v[n] + v[n - 1], lam, out=v[n])
        assert np.array_equal(direct_solve(op, rhs), v @ s)


class TestCachedBasis:
    """The operator's eigenvalues and sine basis: built on first use, once, exact to rounding."""

    def test_setup_leaves_inverse_unbuilt(self):
        # set-up (assemble, then the reference solve) caches the basis and no dense inverse
        g = SpaceTimeGrid(n_x=63, n_t=256, horizon=0.1)
        op = assemble_operator(g)
        rhs = assemble_rhs(g, heat_benchmark_problem(0.1))
        first = direct_solve(op, rhs)
        assert set(op.__dict__) == {"grid", "eigenvalues", "sine_basis"}
        assert np.array_equal(direct_solve(op, rhs), first)

    @pytest.mark.parametrize("nx", [3, 7, 63, 255])
    @pytest.mark.parametrize("sigma", [1e-3, 0.1, 10.0, 1e3])
    def test_inverse(self, nx, sigma):
        # S diag(1/lam) S inverts Q: the block solve of the coefficient sweep
        op = assemble_operator(grid_for_sigma(nx, 4, sigma))
        s, lam = op.sine_basis
        err = np.linalg.norm((s / lam) @ s @ dense_q_matrix(nx, op.sigma) - np.eye(nx), np.inf)
        assert err <= 64 * (1 + 4 * sigma) * nx * np.finfo(float).eps

    def test_cached_once_and_read_only(self):
        op = assemble_operator(grid_for_sigma(15, 4, 1.0))
        s, lam = op.sine_basis
        assert op.sine_basis[0] is s and op.eigenvalues is lam
        for a in (s, lam):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestSineSolveOracle:
    """The sine-basis solve against the Thomas time-stepping oracle."""

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(2, 9), m=st.integers(2, 10),
           log_sigma=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
    @example(k=2, m=2, log_sigma=0.0, seed=0)      # 3x4
    @example(k=9, m=10, log_sigma=3.0, seed=1)     # 511x1024
    def test_matches_time_stepping(self, k, m, log_sigma, seed):
        g = grid_for_sigma(2**k - 1, 2**m, 10.0 ** log_sigma)
        op = assemble_operator(g)
        rhs = np.random.default_rng(seed).standard_normal((g.n_t, g.n_x))
        want = time_stepping_solve(op, rhs)
        diff = np.abs(direct_solve(op, rhs) - want).max()
        assert diff <= 1e-12 * np.abs(want).max()


class TestErrorNorm:
    def test_zero(self):
        g = grid_for_sigma(7, 8, 1.0)
        u = np.ones((8, 7))
        assert error_norm(u, u, g) == 0.0

    def test_single_entry(self):
        g = grid_for_sigma(7, 8, 1.0)
        u = np.zeros((8, 7))
        ref = np.zeros((8, 7))
        u[5, 2] = 0.3
        assert error_norm(u, ref, g) == pytest.approx(np.sqrt(g.h) * 0.3, rel=1e-15)

    def test_matches_double_loop(self):
        g = grid_for_sigma(7, 8, 1.0)
        rng = np.random.default_rng(3)
        u, ref = rng.standard_normal((8, 7)), rng.standard_normal((8, 7))
        worst = 0.0
        for n in range(8):
            acc = 0.0
            for j in range(7):
                acc += g.h * (u[n, j] - ref[n, j]) ** 2
            worst = max(worst, np.sqrt(acc))
        assert error_norm(u, ref, g) == pytest.approx(worst, rel=1e-14)

    def test_shape_mismatch(self):
        g = grid_for_sigma(7, 8, 1.0)
        with pytest.raises(ValueError):
            error_norm(np.zeros((8, 7)), np.zeros((8, 6)), g)


class TestPeriodicVariant:
    def test_kernel_mode(self):
        per = assemble_periodic_operator(8, 8, 1.0)
        phi = fourier_mode(8, 8, 0.0, 0.0)
        assert np.abs(per.apply(phi)).max() < 1e-13

    def test_time_nyquist_mode(self):
        per = assemble_periodic_operator(8, 8, 0.3)
        phi = fourier_mode(8, 8, np.pi, 0.0)
        assert np.abs(per.apply(phi) - 2.0 * phi).max() < 1e-12

    def test_space_nyquist_mode(self):
        per = assemble_periodic_operator(8, 8, 1.0)
        phi = fourier_mode(8, 8, 0.0, np.pi)
        assert np.abs(per.apply(phi) - 4.0 * phi).max() < 1e-12

    def test_eigen_consistency_all_modes(self):
        n_t = n_x = 8
        sigma = 0.7
        per = assemble_periodic_operator(n_t, n_x, sigma)
        for tt in time_frequencies(n_t):
            for tx in time_frequencies(n_x):
                phi = fourier_mode(n_t, n_x, tt, tx)
                lam = 1 - np.exp(-1j * tt) + 2 * sigma * (1 - np.cos(tx))
                err = np.abs(per.apply(phi) - lam * phi).max()
                assert err <= 1e-12 * n_t * n_x
