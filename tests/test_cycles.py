import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import apply_operator, error_norm, physical_cycle
from stmg import cycles
from stmg.core import CoarseningStrategy as CS
from stmg.core import SpaceTimeGrid, random_field
from stmg.cycles import CostCounter, CyclePlan, run_cycle, solve
from stmg.heat import assemble_operator, assemble_rhs, direct_solve, heat_benchmark_problem
from stmg.lfa import LfaConfig, optimal_omega, rho_bar_details
from stmg.transfer import block_rows


def plan_for(strategy, depth, eta=3, **kw):
    eta = eta if len(strategy) > 1 else 0
    return CyclePlan(strategy=strategy, eta1=eta, eta2=eta, depth=depth, **kw)


class TestContraction:
    """Measured asymptotic contraction against the LFA two/three-grid factor.

    31x128, omega 0.5, nu = eta = (3, 3), depth 1: the geometric mean of
    the error ratios over the second half of 20 cycles.  At sigma = 10 the
    finite interval with its initial value contracts faster than the
    periodic analysis predicts, so only the upper bound is checked there.
    """

    @pytest.mark.parametrize("strategy", [CS.NEW, CS.ORIGINAL])
    @pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0])
    def test_rate_matches_lfa(self, strategy, sigma):
        self.check_rate(strategy, sigma)

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0])
    def test_time_first_schedule_rate_matches_lfa(self, sigma):
        # a schedule is its steps alone: the solver and the LFA both
        # follow time semi-coarsening, then full coarsening
        self.check_rate(((2, 1), (2, 2)), sigma)

    @staticmethod
    def check_rate(strategy, sigma):
        g = SpaceTimeGrid(n_x=31, n_t=128, horizon=sigma * 128 / 32**2)
        op = assemble_operator(g)
        rhs = assemble_rhs(g, heat_benchmark_problem(g.horizon))
        run = solve(op, rhs, plan_for(strategy, 1, omega=0.5, nu1=3, nu2=3),
                    max_iters=20, tol=1e-13, seed=0)
        ratios = run.error_history[1:] / run.error_history[:-1]
        rate = float(np.exp(np.log(ratios[len(ratios) // 2:]).mean()))
        rho = rho_bar_details(strategy, LfaConfig(sigma=g.sigma, omega=0.5, nu1=3, nu2=3,
                                                  eta1=3, eta2=3, resolution=64)).value
        assert rate <= rho + 0.05
        if sigma < 10.0:
            assert abs(rate - rho) <= 0.1


class TestDepthTwoContraction:
    """NEW at depth 2 against the k-grid factor of its two stages, ((4, 2), (4, 2)).

    63x1024, seed 1: the geometric mean of the error ratios over cycles
    10-30.  The second stage's fine level takes ``nu`` sweeps, so the
    analysis smooths its intermediate level with eta = nu = 3.  The
    depth-1 factor lies about 0.12 below the measured one at sigma 0.1;
    the k-grid factor lies within 0.03 of it.
    """

    @staticmethod
    def rates(sigma, omega):
        g = SpaceTimeGrid(n_x=63, n_t=1024, horizon=sigma * 1024 / 64**2)
        op = assemble_operator(g)
        rhs = assemble_rhs(g, heat_benchmark_problem(g.horizon))
        run = solve(op, rhs, plan_for(CS.NEW, 2, omega=omega), max_iters=30, tol=0.0, seed=1)
        measured = (run.error_history[30] / run.error_history[10]) ** (1 / 20)
        cfg = LfaConfig(sigma=g.sigma, omega=omega, nu1=3, nu2=3, eta1=3, eta2=3,
                        resolution=16)
        depth1 = rho_bar_details(CS.NEW, cfg).value
        return measured, rho_bar_details(((4, 2), (4, 2)), cfg).value, depth1

    def test_rate_matches_k_grid_factor(self):
        measured, k_grid, depth1 = self.rates(0.1, 0.5)
        assert abs(measured - k_grid) <= 0.04
        assert measured - depth1 > 0.1  # the two-grid factor does not predict depth 2

    def test_theorem_omega_diverges(self):
        # the two-grid optimum 0.934 contracts at depth 1 but not at depth 2
        omega = optimal_omega((4, 2), 0.01)
        measured, k_grid, depth1 = self.rates(0.01, omega)
        assert depth1 < 1.0
        assert measured > 1.0 and k_grid > 1.0
        assert abs(measured - k_grid) <= 0.04


class TestCostCounts:
    """Counted work of one cycle on 63x256 with nu = (3, 3), eta = (3, 3)."""

    @pytest.mark.parametrize("strategy,depth,solves,transfers", [
        (CS.NEW, 1, 1600, 704),
        (CS.NEW, 5, 2020, 924),
        (CS.ORIGINAL, 1, 2368, 832),
        (CS.ORIGINAL, 5, 3028, 1092),
    ])
    def test_pinned_per_cycle(self, strategy, depth, solves, transfers):
        g = SpaceTimeGrid(n_x=63, n_t=256, horizon=0.1)
        op = assemble_operator(g)
        rhs = assemble_rhs(g, heat_benchmark_problem(0.1))
        counter = CostCounter()
        run_cycle(op, np.zeros((g.n_t, g.n_x)), rhs, plan_for(strategy, depth), counter)
        assert (counter.block_solves, counter.transfer_blocks) == (solves, transfers)

    @pytest.mark.parametrize("strategy", [CS.NEW, CS.ORIGINAL])
    def test_counting_leaves_the_field_unchanged(self, strategy):
        # with no counter given, run_cycle counts nothing
        g = SpaceTimeGrid(n_x=63, n_t=256, horizon=0.1)
        op = assemble_operator(g)
        rhs = assemble_rhs(g, heat_benchmark_problem(0.1))
        u = np.random.default_rng(2).random((g.n_t, g.n_x))
        plan = plan_for(strategy, 5)
        assert np.array_equal(run_cycle(op, u, rhs, plan, CostCounter()),
                              run_cycle(op, u, rhs, plan))


class TestCoarseOperatorCache:
    """Two cycles on 63x256 assemble each grid's operator exactly once.

    The plan reads every level's eigenvalues, the finest included, from
    ``assemble_operator``, so it holds no reference to the caller's operator.
    """

    @pytest.mark.parametrize("strategy,depth,grids", [
        (CS.NEW, 5, [(63, 256), (31, 64), (15, 16), (7, 4)]),
        # (2, 2) then (2, 1): the intermediate 31x128 level is smoothed too
        (CS.ORIGINAL, 1, [(63, 256), (31, 128), (31, 64)]),
    ])
    def test_each_grid_assembled_once(self, strategy, depth, grids, monkeypatch):
        built = []

        def counting(g):
            built.append((g.n_x, g.n_t))
            return assemble_operator(g)

        cycles._setup.cache_clear()
        monkeypatch.setattr(cycles, "assemble_operator", counting)
        g = SpaceTimeGrid(n_x=63, n_t=256, horizon=0.1)
        op = assemble_operator(g)
        rhs = assemble_rhs(g, heat_benchmark_problem(0.1))
        u = np.zeros((g.n_t, g.n_x))
        for _ in range(2):
            u = run_cycle(op, u, rhs, plan_for(strategy, depth))
        assert built == grids


class TestPlannedOnce:
    """``_setup`` plans a cycle once per operator and plan, and its cache key is the whole plan."""

    @staticmethod
    def problem():
        g = SpaceTimeGrid(n_x=63, n_t=256, horizon=0.1)
        return assemble_operator(g), assemble_rhs(g, heat_benchmark_problem(0.1))

    @pytest.mark.parametrize("strategy,levels", [(CS.NEW, 3), (CS.ORIGINAL, 6)])
    def test_two_cycles_plan_once(self, strategy, levels, monkeypatch):
        planned, built = [], []

        def counting_plan(g, plan, plan_levels=cycles.plan_levels):
            planned.append(g)
            return plan_levels(g, plan)

        def counting_config(omega, sweeps, config=cycles.SmootherConfig):
            built.append(sweeps)
            return config(omega, sweeps)

        cycles._setup.cache_clear()
        monkeypatch.setattr(cycles, "plan_levels", counting_plan)
        monkeypatch.setattr(cycles, "SmootherConfig", counting_config)
        op, rhs = self.problem()
        u = np.zeros((op.grid.n_t, op.grid.n_x))
        for _ in range(2):
            u = run_cycle(op, u, rhs, plan_for(strategy, 5))
        assert planned == [op.grid]
        assert len(built) == 2 * levels  # (pre, post) per smoothed level

    @pytest.mark.parametrize("strategy", [CS.NEW, CS.ORIGINAL])
    def test_each_plan_its_own_entry(self, strategy):
        # a warm entry of one plan must never serve another plan on the same grid
        op, rhs = self.problem()
        u = np.random.default_rng(4).standard_normal((op.grid.n_t, op.grid.n_x))
        plans = [plan_for(strategy, 1, omega=0.5), plan_for(strategy, 1, omega=0.7),
                 plan_for(strategy, 1, nu1=1), plan_for(strategy, 5)]
        got = [run_cycle(op, u, rhs, plan) for plan in plans]
        for plan, out in zip(plans, got):
            cycles._setup.cache_clear()
            assert np.array_equal(out, run_cycle(op, u, rhs, plan))
            want = physical_cycle(op, u, rhs, plan)
            assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()

    def test_schedule_kept_as_int_pairs(self):
        listed, tupled = CyclePlan([[4, 2]]), CyclePlan(((4, 2),))
        assert listed == tupled and hash(listed) == hash(tupled)
        assert listed.strategy == CS.NEW
        op, rhs = self.problem()
        runs = [solve(op, rhs, plan, max_iters=5, tol=0.0, seed=1) for plan in (listed, tupled)]
        assert np.array_equal(runs[0].error_history, runs[1].error_history)
        assert np.array_equal(runs[0].residual_history, runs[1].residual_history)


class TestSetupCache:
    """``_setup``'s cache holds grids and plans, never the operator a caller passed."""

    def test_operator_freed(self):
        g = SpaceTimeGrid(n_x=255, n_t=16, horizon=0.1)
        op = assemble_operator(g)
        ref = weakref.ref(op)
        rhs = assemble_rhs(g, heat_benchmark_problem(0.1))
        plan = plan_for(CS.NEW, 1)
        run_cycle(op, np.zeros((g.n_t, g.n_x)), rhs, plan)
        solve(op, rhs, plan, max_iters=1, tol=0.0, seed=0)
        assert op.sine_basis is not None  # the n_x**2 basis was built on the operator
        del op
        gc.collect()
        assert ref() is None
        assert cycles._setup.cache_info().currsize > 0


class TestCyclesToTolerance:
    """Cycles from the seeded guess to an L_inf(L2) error of 1e-5 on 63x256, T = 0.1.

    A rounding change in the smoother or the solves must not move these
    counts.
    """

    @pytest.mark.parametrize("strategy,depth,iters", [
        (CS.NEW, 1, 16),
        (CS.NEW, 5, 20),
        (CS.ORIGINAL, 1, 7),
        (CS.ORIGINAL, 5, 7),
    ])
    def test_pinned_iterations(self, strategy, depth, iters):
        g = SpaceTimeGrid(n_x=63, n_t=256, horizon=0.1)
        op = assemble_operator(g)
        rhs = assemble_rhs(g, heat_benchmark_problem(0.1))
        run = solve(op, rhs, plan_for(strategy, depth), max_iters=40, tol=1e-5, seed=1)
        assert run.iterations == iters
        assert run.error_history[-1] <= 1e-5 < run.error_history[-2]

    def test_residual_history_finite_at_huge_sigma(self):
        # sigma 4e300 is below core.SIGMA_MAX, but squaring the residual overflowed
        g = SpaceTimeGrid(n_x=7, n_t=16, horizon=1e300)
        op = assemble_operator(g)
        rhs = assemble_rhs(g, heat_benchmark_problem(1e300))
        run = solve(op, rhs, plan_for(CS.NEW, 1), max_iters=2, tol=0.0, seed=0)
        assert np.isfinite(run.residual_history).all()
        r = (rhs - apply_operator(op, run.solution)) / 1e300
        want = 1e300 * np.sqrt(g.h * np.sum(r * r, axis=1)).max()
        assert run.residual_history[-1] == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("scale", [1e-100, 1e-5, 1.0, 3e7, 1e100])
    def test_scaled_norm_is_bit_identical(self, scale):
        # the power-of-two column scaling is exact where the unscaled norm is finite
        r = scale * np.random.default_rng(2).standard_normal((63, 256))
        r[:, 3] = 0.0
        want = np.sqrt(0.015625 * np.sum(r * r, axis=0)).max()
        assert cycles._linf_l2(r, 0.015625) == want

    def test_negative_iterations_rejected(self):
        g = SpaceTimeGrid(n_x=15, n_t=64, horizon=0.1)
        op = assemble_operator(g)
        rhs = assemble_rhs(g, heat_benchmark_problem(0.1))
        with pytest.raises(ValueError, match="max_iters must be nonnegative"):
            solve(op, rhs, plan_for(CS.NEW, 1), max_iters=-3, tol=0.0, seed=0)


class TestSolveIsTheCycleLoop:
    """``solve`` in the sine basis against ``run_cycle`` iterated on the physical field.

    63x256, T = 0.1, seed 1, to an error of 1e-9.  The two paths round
    differently, each by about eps times the solution's L_inf(L2) norm of
    0.25, so the errors agree to a relative 1e-10 down to about 1e-6 and
    to an absolute 1e-15 below that (they differ by 6e-10 relative at an
    error of 1.3e-10 on 63x1024).
    """

    @staticmethod
    def problem():
        g = SpaceTimeGrid(n_x=63, n_t=256, horizon=0.1)
        return assemble_operator(g), assemble_rhs(g, heat_benchmark_problem(0.1))

    @pytest.mark.parametrize("strategy", [CS.NEW, CS.ORIGINAL])
    @pytest.mark.parametrize("depth", [1, 5])
    def test_same_iterations_and_errors(self, strategy, depth):
        op, rhs = self.problem()
        g, plan, tol = op.grid, plan_for(strategy, depth), 1e-9
        reference = direct_solve(op, rhs)
        u = random_field(g, np.random.default_rng(1))
        want = [error_norm(u, reference, g)]
        while len(want) <= 60 and want[-1] > tol:
            u = run_cycle(op, u, rhs, plan)
            want.append(error_norm(u, reference, g))
        run = solve(op, rhs, plan, max_iters=60, tol=tol, seed=1)
        assert run.iterations == len(want) - 1 < 60
        np.testing.assert_allclose(run.error_history, want, rtol=1e-10, atol=1e-15)

    @pytest.mark.parametrize("max_iters", [0, 1, 7])
    def test_planned_once(self, max_iters, monkeypatch):
        calls = []

        def counting(g, plan, plan_levels=cycles.plan_levels):
            calls.append(g)
            return plan_levels(g, plan)

        cycles._setup.cache_clear()  # a warm cache would plan nothing
        monkeypatch.setattr(cycles, "plan_levels", counting)
        op, rhs = self.problem()
        run = solve(op, rhs, plan_for(CS.ORIGINAL, 5), max_iters=max_iters, tol=0.0, seed=1)
        assert run.iterations == max_iters
        assert calls == [op.grid]

    @pytest.mark.parametrize("strategy", [CS.NEW, CS.ORIGINAL])
    @pytest.mark.parametrize("max_iters", [0, 5])
    def test_residual_history_is_the_physical_residual(self, strategy, max_iters):
        # S is orthogonal, so the coefficient residual has the physical L_inf(L2) norm
        op, rhs = self.problem()
        run = solve(op, rhs, plan_for(strategy, 5), max_iters=max_iters, tol=0.0, seed=1)
        r = rhs - apply_operator(op, run.solution)
        want = np.sqrt(op.grid.h * np.sum(r * r, axis=1)).max()
        assert len(run.residual_history) == max_iters + 1
        assert run.residual_history[-1] == pytest.approx(want, rel=1e-10, abs=0.0)


class RowTally:
    """Rows that ``cycles.jacobi_sweep``, ``time_march``, ``restrict`` and ``prolong`` process.

    The cycle's arrays are mode-major (n_x, n_t) sine coefficients.  A
    block solve is one time step of a sweep or of the coarsest solve.  A
    transfer block is one time step written by a time halving, and one
    coarse time step of a space halving.  A call on a block of alias pairs
    counts its share of the level's modes, so the blocks of a level add up
    to the whole.
    """

    def __init__(self, mp):
        self.block_solves = self.transfer_blocks = 0
        sweep, march, restrict, prolong = (cycles.jacobi_sweep, cycles.time_march,
                                           cycles.restrict, cycles.prolong)

        def counted_sweep(gain, u, rhs, cfg, work):
            self.block_solves += cfg.sweeps * u.shape[1] * self.share(u)
            return sweep(gain, u, rhs, cfg, work)

        def counted_march(v, lam):
            self.block_solves += v.shape[0]  # rows of the transpose are time steps
            return march(v, lam)

        def counted_restrict(fine, mt, mx, out=None, pairs=None):
            coarse = restrict(fine, mt, mx, out, pairs)
            self.transfer_blocks += self.rows(coarse, fine, 1, pairs)
            return coarse

        def counted_prolong(coarse, mt, mx, add_to=None, pairs=None):
            fine = prolong(coarse, mt, mx, add_to, pairs)
            self.transfer_blocks += self.rows(coarse, fine, 2, pairs)
            return fine

        for name, fn in (("jacobi_sweep", counted_sweep), ("time_march", counted_march),
                         ("restrict", counted_restrict), ("prolong", counted_prolong)):
            mp.setattr(cycles, name, fn)

    @staticmethod
    def share(view):
        """The share of its level's modes that a row view of a level's field holds."""
        return Fraction(view.shape[0], (view if view.base is None else view.base).shape[0])

    @staticmethod
    def rows(coarse, fine, per_time_row, pairs):
        # restriction writes n_f/2, n_f/4, ..., n_c time steps, n_f - n_c in all,
        # and prolongation 2 n_c, 4 n_c, ..., n_f, twice as many
        n_f, n_c = fine.shape[1], coarse.shape[1]
        n = fine.shape[0]
        a, b = (0, n // 2) if pairs is None else pairs
        halved = coarse.shape[0] < n
        # a space halving keeps one coarse mode per alias pair, and drops the middle mode
        share = (Fraction(b - a, n // 2) if halved
                 else Fraction(sum(r.stop - r.start for r in block_rows(n, (a, b))), n))
        return share * (per_time_row * (n_f - n_c) + (n_c if halved else 0))


class TestGridRobustness:
    """Every valid grid either cycles or is rejected before any work."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 6), m=st.integers(2, 9), depth=st.integers(1, 6),
           strategy=st.sampled_from([CS.NEW, CS.ORIGINAL]))
    @example(k=4, m=3, depth=1, strategy=CS.ORIGINAL)   # --nx 15 --nt 8
    @example(k=4, m=5, depth=3, strategy=CS.ORIGINAL)   # --nx 15 --nt 32 --depth 3
    @example(k=8, m=9, depth=4, strategy=CS.NEW)        # --nx 255 --nt 512 --depth 4
    @example(k=2, m=4, depth=1, strategy=CS.NEW)        # --nx 3 --nt 16
    @example(k=2, m=4, depth=1, strategy=CS.ORIGINAL)
    def test_runs_or_rejects_up_front(self, k, m, depth, strategy):
        g = SpaceTimeGrid(n_x=2**k - 1, n_t=2**m, horizon=0.1)
        op = assemble_operator(g)
        rhs = assemble_rhs(g, heat_benchmark_problem(0.1))
        u = np.random.default_rng(0).random((g.n_t, g.n_x))
        counter = CostCounter()
        # one stage of either strategy coarsens by 4 in time and 2 in space
        fits = g.n_t // 4 >= 4 and (g.n_x + 1) // 2 - 1 >= 3
        with pytest.MonkeyPatch.context() as mp:
            tally = RowTally(mp)
            if not fits:
                with pytest.raises(ValueError, match="too small for one"):
                    run_cycle(op, u, rhs, plan_for(strategy, depth), counter)
                assert (counter.block_solves, counter.transfer_blocks) == (0, 0)
                assert (tally.block_solves, tally.transfer_blocks) == (0, 0)
                return
            out = run_cycle(op, u, rhs, plan_for(strategy, depth), counter)
        assert out.shape == (g.n_t, g.n_x)
        assert np.isfinite(out).all()
        assert counter.block_solves > 0
        assert (counter.block_solves, counter.transfer_blocks) == (tally.block_solves,
                                                                  tally.transfer_blocks)

    @pytest.mark.parametrize("strategy", [CS.NEW, CS.ORIGINAL])
    @pytest.mark.parametrize("depth", range(1, 7))
    @pytest.mark.parametrize("n_x,n_t", [(63, 256), (255, 512), (15, 1024)])
    def test_counted_work_is_the_processed_rows(self, strategy, depth, n_x, n_t, monkeypatch):
        # the closed-form count of the plan against the rows each call processes
        g = SpaceTimeGrid(n_x=n_x, n_t=n_t, horizon=0.1)
        op = assemble_operator(g)
        rhs = assemble_rhs(g, heat_benchmark_problem(0.1))
        plan = plan_for(strategy, depth, eta=2, nu1=1, nu2=3)
        tally = RowTally(monkeypatch)
        counter = CostCounter()
        run_cycle(op, np.zeros((g.n_t, g.n_x)), rhs, plan, counter)
        assert (counter.block_solves, counter.transfer_blocks) == (tally.block_solves,
                                                                  tally.transfer_blocks)


#: the schedules the coefficient cycle is checked on against the physical one
ORACLE_SCHEDULES = [CS.NEW, CS.ORIGINAL, ((2, 1),), ((2, 2),), ((4, 1), (2, 2))]


class TestPhysicalOracle:
    """``run_cycle`` on sine coefficients against ``oracles.physical_cycle``.

    The oracle runs the same plan on the physical (n_t, n_x) field with
    Thomas solves and the physical stencils.  Grids from 3x16 to 127x64,
    sigma from 1e-3 to 1e2; a grid too small for the plan is skipped.
    """

    GRIDS = [(3, 16), (7, 64), (15, 64), (31, 128), (63, 256), (127, 64)]

    @pytest.mark.parametrize("strategy", ORACLE_SCHEDULES)
    @pytest.mark.parametrize("depth", [1, 2, 5])
    def test_matches_physical_cycle(self, strategy, depth):
        checked = 0
        for n_x, n_t in self.GRIDS:
            for sigma in (1e-3, 0.1, 1.0, 1e2):
                g = SpaceTimeGrid(n_x=n_x, n_t=n_t, horizon=sigma * n_t / (n_x + 1) ** 2)
                op = assemble_operator(g)
                plan = plan_for(strategy, depth, eta=2, omega=0.7, nu1=2, nu2=1)
                rng = np.random.default_rng(n_x + n_t)
                u, rhs = rng.standard_normal((2, n_t, n_x))
                try:
                    want = physical_cycle(op, u, rhs, plan)
                except ValueError:
                    continue
                got = run_cycle(op, u, rhs, plan)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
                checked += 1
        assert checked >= 12

    @pytest.mark.parametrize("strategy", [CS.NEW, CS.ORIGINAL])
    def test_inputs_never_written(self, strategy):
        g = SpaceTimeGrid(n_x=31, n_t=64, horizon=0.1)
        op = assemble_operator(g)
        rng = np.random.default_rng(3)
        u, rhs = rng.standard_normal((2, g.n_t, g.n_x))
        u0, rhs0 = u.copy(), rhs.copy()
        out = run_cycle(op, u, rhs, plan_for(strategy, 2))
        assert np.array_equal(u, u0) and np.array_equal(rhs, rhs0)
        assert out.shape == (g.n_t, g.n_x) and out.flags.c_contiguous and out.flags.owndata
        assert not np.shares_memory(out, u) and not np.shares_memory(out, rhs)

    @pytest.mark.parametrize("u_shape,rhs_shape", [((64, 31), (32, 31)), ((64, 15), (64, 31)),
                                                   ((31, 64), (31, 64))])
    def test_shape_mismatch_rejected(self, u_shape, rhs_shape):
        g = SpaceTimeGrid(n_x=31, n_t=64, horizon=0.1)
        with pytest.raises(ValueError, match="do not match grid"):
            run_cycle(assemble_operator(g), np.zeros(u_shape), np.zeros(rhs_shape),
                      plan_for(CS.NEW, 1))


class TestInputChecks:
    """``solve``, ``run_cycle`` and ``heat.direct_solve`` check every input before any work."""

    g = SpaceTimeGrid(n_x=15, n_t=64, horizon=0.1)

    @pytest.fixture
    def no_work(self, monkeypatch):
        # a rejected input must be rejected before the cycle is planned or the rhs moved
        def fail(*args):
            raise AssertionError("work started before the inputs were checked")
        monkeypatch.setattr(cycles, "_setup", fail)

    @pytest.mark.parametrize("seed,message", [
        (-1, r"^seed must be nonnegative, got -1$"),
        (1.5, r"^seed must be an integer, got 1\.5$"),
        ("a", r"^seed must be an integer, got 'a'$"),
        (None, r"^seed must be an integer, got None$"),  # ran an unseeded guess
        (True, r"^seed must be an integer, got True$"),
    ], ids=["negative", "float", "string", "none", "bool"])
    def test_bad_seed_rejected(self, seed, message, no_work):
        rhs = assemble_rhs(self.g, heat_benchmark_problem(0.1))
        with pytest.raises(ValueError, match=message):
            solve(assemble_operator(self.g), rhs, plan_for(CS.NEW, 1), 2, 0.0, seed)

    @pytest.mark.parametrize("tol", ["x", None, 1j, True])
    def test_bad_tol_rejected(self, tol, no_work):
        # "x" raised a TypeError after the first error had been computed
        rhs = assemble_rhs(self.g, heat_benchmark_problem(0.1))
        with pytest.raises(ValueError, match=r"^tol must be a real number, got "):
            solve(assemble_operator(self.g), rhs, plan_for(CS.NEW, 1), 2, tol, 0)

    def test_numpy_seed_and_tol_run(self):
        op, rhs = assemble_operator(self.g), assemble_rhs(self.g, heat_benchmark_problem(0.1))
        got = solve(op, rhs, plan_for(CS.NEW, 1), 3, np.float64(1e-300), np.int64(4))
        want = solve(op, rhs, plan_for(CS.NEW, 1), 3, 1e-300, 4)
        assert np.array_equal(got.solution, want.solution)
        assert np.array_equal(got.error_history, want.error_history)

    @staticmethod
    def entry_points(g):
        op, plan, ok = assemble_operator(g), plan_for(CS.NEW, 1), np.zeros((g.n_t, g.n_x))
        yield "solve", lambda rhs: solve(op, rhs, plan, 1, 0.0, 0)
        yield "run_cycle-rhs", lambda rhs: run_cycle(op, ok, rhs, plan)
        yield "run_cycle-u", lambda u: run_cycle(op, u, ok, plan)
        yield "direct_solve", lambda rhs: direct_solve(op, rhs)

    @pytest.mark.parametrize("make,got", [
        (lambda f: f.tolist(), "list"),  # raised an AttributeError
        (lambda f: f.astype(complex), "dtype complex128"),  # a TypeError inside the norms
        (lambda f: f > 0, "dtype bool"),
        (lambda f: f.astype(object), "dtype object"),
    ], ids=["list", "complex", "bool", "object"])
    def test_field_not_a_real_array_rejected(self, make, got):
        field = make(assemble_rhs(self.g, heat_benchmark_problem(0.1)))
        for name, call in self.entry_points(self.g):
            argument = "u" if name.endswith("-u") else "rhs"
            message = rf"^{argument} must be a numpy array of integers or floats, got {got}$"
            with pytest.raises(ValueError, match=message):
                call(field)

    def test_integer_fields_run(self):
        field = np.arange(self.g.n_t * self.g.n_x).reshape(self.g.n_t, self.g.n_x) % 7
        for name, call in self.entry_points(self.g):
            got, want = call(field), call(field.astype(float))
            if name == "solve":
                got, want = got.solution, want.solution
            assert np.array_equal(got, want), name


#: the schedules the blocked cycle is checked on against the one-block cycle
BLOCK_SCHEDULES = [CS.NEW, CS.ORIGINAL, ((2, 1),), ((4, 1), (2, 2))]


@pytest.fixture
def block_bytes(monkeypatch):
    """Sets ``cycles._BLOCK_BYTES`` for one test; plans cached under it are dropped after."""
    def set_budget(n):
        monkeypatch.setattr(cycles, "_BLOCK_BYTES", n)
        cycles._setup.cache_clear()
    yield set_budget
    cycles._setup.cache_clear()


class TestBlocks:
    """A level whose field exceeds ``cycles._BLOCK_BYTES`` works through blocks of alias pairs.

    Rows are independent apart from the alias pairs of a space halving, so any
    blocking gives the one-block cycle bit for bit.  A budget of 1 byte makes
    every alias pair its own block on every level.
    """

    @staticmethod
    def problem(n_x, n_t):
        g = SpaceTimeGrid(n_x=n_x, n_t=n_t, horizon=0.1)
        return assemble_operator(g), assemble_rhs(g, heat_benchmark_problem(0.1))

    def test_layout(self):
        # 63x4096 is 2 MB a field: four blocks, the outer three shells of two row runs
        assert cycles._pair_blocks(63, 4096) == [(0, 7), (7, 15), (15, 23), (23, 31)]
        assert cycles._pair_blocks(63, 256) == [(0, 31)]  # a level that fits is one block

    @pytest.mark.parametrize("strategy", BLOCK_SCHEDULES)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("n_x,n_t", [(15, 64), (31, 128)])
    def test_cycle_equals_one_block(self, strategy, depth, n_x, n_t, block_bytes):
        op, _ = self.problem(n_x, n_t)
        plan = plan_for(strategy, depth, eta=2, omega=0.7, nu1=2, nu2=1)
        u, rhs = np.random.default_rng(n_x + depth).standard_normal((2, n_t, n_x))
        block_bytes(2**40)
        want = run_cycle(op, u, rhs, plan)
        # 4 kB: the finest 15x64 (7.5 kB) takes two blocks and 31x128 (31 kB) eight
        for budget, count in ((1, n_x // 2), (4096, {15: 2, 31: 8}[n_x])):
            block_bytes(budget)
            assert len(cycles._setup(op.grid, plan)[0][0][3]) == count
            assert np.array_equal(run_cycle(op, u, rhs, plan), want)

    @pytest.mark.parametrize("strategy", [CS.NEW, CS.ORIGINAL])
    def test_solve_equals_one_block(self, strategy, block_bytes):
        # ``solve`` keeps one workspace for all its cycles
        op, rhs = self.problem(31, 128)
        runs = []
        for budget in (2**40, 1):
            block_bytes(budget)
            runs.append(solve(op, rhs, plan_for(strategy, 3), max_iters=6, tol=0.0, seed=1))
        assert np.array_equal(runs[0].solution, runs[1].solution)
        assert np.array_equal(runs[0].error_history, runs[1].error_history)
        assert np.array_equal(runs[0].residual_history, runs[1].residual_history)

    @pytest.mark.parametrize("strategy", BLOCK_SCHEDULES)
    def test_counted_work_is_the_processed_rows(self, strategy, block_bytes, monkeypatch):
        # each block counts its share of the level's modes; the shares add up to the plan's count
        block_bytes(1)
        op, rhs = self.problem(31, 128)
        tally = RowTally(monkeypatch)
        counter = CostCounter()
        run_cycle(op, np.zeros((128, 31)), rhs, plan_for(strategy, 3), counter)
        assert (counter.block_solves, counter.transfer_blocks) == (tally.block_solves,
                                                                  tally.transfer_blocks)
