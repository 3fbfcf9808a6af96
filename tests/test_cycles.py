import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stmg import core
from stmg.core import CoarseningStrategy as CS
from stmg.core import SpaceTimeGrid
from stmg.cycles import CostCounter, CyclePlan, run_cycle, solve
from stmg.heat import assemble_operator, assemble_rhs, heat_benchmark_problem
from stmg.lfa import LfaConfig, spectral_radius_bar


def plan_for(strategy, depth, eta=3, **kw):
    eta = eta if strategy is CS.ORIGINAL else 0
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
    def test_time_first_schedule_rate_matches_lfa(self, sigma, monkeypatch):
        # a schedule defined by its table entry alone: the solver and the
        # LFA both follow time semi-coarsening, then full coarsening
        monkeypatch.setitem(core.SCHEDULES, CS.ORIGINAL, ((2, 1), (2, 2)))
        self.check_rate(CS.ORIGINAL, sigma)

    @staticmethod
    def check_rate(strategy, sigma):
        g = SpaceTimeGrid(n_x=31, n_t=128, horizon=sigma * 128 / 32**2)
        op = assemble_operator(g)
        rhs = assemble_rhs(g, heat_benchmark_problem(g.horizon))
        run = solve(op, rhs, plan_for(strategy, 1, omega=0.5, nu1=3, nu2=3),
                    max_iters=20, tol=1e-13, seed=0)
        ratios = run.error_history[1:] / run.error_history[:-1]
        rate = float(np.exp(np.log(ratios[len(ratios) // 2:]).mean()))
        rho = spectral_radius_bar(strategy, LfaConfig(sigma=g.sigma, omega=0.5, nu1=3,
                                                      nu2=3, eta1=3, eta2=3, resolution=64))
        assert rate <= rho + 0.05
        if sigma < 10.0:
            assert abs(rate - rho) <= 0.1


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
        if not fits:
            with pytest.raises(ValueError, match="too small for one"):
                run_cycle(op, u, rhs, plan_for(strategy, depth), counter)
            assert counter.total() == 0
            return
        out = run_cycle(op, u, rhs, plan_for(strategy, depth), counter)
        assert out.shape == (g.n_t, g.n_x)
        assert np.isfinite(out).all()
        assert counter.block_solves > 0
