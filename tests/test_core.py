import numpy as np
import pytest

from oracles import TridiagonalMatrix, thomas_solve
from stmg.core import (CoarseningStrategy, SpaceTimeGrid, check_schedule, coarsen_grid,
                       random_field, zero_field)
from stmg.cycles import CyclePlan, plan_levels
from stmg.lfa import LfaConfig, low_frequency_grid, rho_bar_details, worst_smoothing_mode
from stmg.smoother import SmootherConfig


def tri(sub, diag, sup):
    return TridiagonalMatrix(sub=np.asarray(sub, float), diag=np.asarray(diag, float),
                             sup=np.asarray(sup, float))


class TestThomasSolve:
    def test_identity(self):
        m = tri([0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0])
        assert np.array_equal(thomas_solve(m, np.array([3.0, 1.0, 4.0])), [3.0, 1.0, 4.0])

    def test_two_by_two_row_sums(self):
        m = tri([-1.0], [2.0, 2.0], [-1.0])
        x = thomas_solve(m, np.array([1.0, 1.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_diagonally_dominant_vs_dense(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        sub = rng.uniform(-1, 1, n - 1)
        sup = rng.uniform(-1, 1, n - 1)
        diag = 2.5 + rng.uniform(0, 1, n)
        m = tri(sub, diag, sup)
        rhs = rng.standard_normal(n)
        expected = np.linalg.solve(m.dense(), rhs)
        assert np.abs(thomas_solve(m, rhs) - expected).max() < 1e-12

    def test_solve_then_apply_roundtrip(self):
        rng = np.random.default_rng(42)
        for n in (2, 5, 33):
            m = tri(rng.uniform(-1, 1, n - 1), 3.0 + rng.uniform(0, 1, n),
                    rng.uniform(-1, 1, n - 1))
            rhs = rng.standard_normal(n)
            back = m.apply(thomas_solve(m, rhs))
            assert np.abs(back - rhs).max() < 1e-12 * np.abs(rhs).max()

    def test_batched_rhs_matches_rowwise(self):
        rng = np.random.default_rng(7)
        m = tri(rng.uniform(-1, 1, 6), 3.0 + rng.uniform(0, 1, 7), rng.uniform(-1, 1, 6))
        rhs = rng.standard_normal((5, 7))
        batch = thomas_solve(m, rhs)
        rows = np.stack([thomas_solve(m, rhs[i]) for i in range(5)])
        assert np.array_equal(batch, rows)

    def test_input_untouched(self):
        m = tri([-1.0], [2.0, 2.0], [-1.0])
        rhs = np.array([1.0, 1.0])
        thomas_solve(m, rhs)
        assert np.array_equal(rhs, [1.0, 1.0])
        # batches too: the elimination runs in place on a private copy
        rng = np.random.default_rng(8)
        m = tri(rng.uniform(-1, 1, 6), 3.0 + rng.uniform(0, 1, 7), rng.uniform(-1, 1, 6))
        for shape in ((16, 7), (3, 5, 7)):
            rhs = rng.standard_normal(shape)
            before = rhs.copy()
            x = thomas_solve(m, rhs)
            assert np.array_equal(rhs, before)
            assert not np.shares_memory(x, rhs)
        # the 3-D batch against its rows solved one by one
        rows = np.stack([[thomas_solve(m, r) for r in block] for block in rhs])
        assert np.array_equal(x, rows)

    def test_dimension_mismatch(self):
        m = tri([-1.0], [2.0, 2.0], [-1.0])
        with pytest.raises(ValueError):
            thomas_solve(m, np.zeros(3))
        with pytest.raises(ValueError):
            TridiagonalMatrix(sub=np.zeros(3), diag=np.zeros(3), sup=np.zeros(2))


class TestGrid:
    def test_geometry(self):
        g = SpaceTimeGrid(n_x=31, n_t=16, horizon=0.5)
        assert g.h == 1.0 / 32 and g.tau == 0.5 / 16
        assert g.sigma == g.tau / g.h**2
        assert len(g.x) == 31 and len(g.t) == 16
        assert g.x[0] == g.h and g.t[-1] == 0.5

    @pytest.mark.parametrize("nx,nt", [(30, 16), (4, 16), (31, 12), (31, 0)])
    def test_invalid_sizes(self, nx, nt):
        with pytest.raises(ValueError):
            SpaceTimeGrid(n_x=nx, n_t=nt, horizon=1.0)

    @pytest.mark.parametrize("horizon", [1e308, float("inf")])
    def test_infinite_sigma_rejected(self, horizon):
        # sigma = tau/h**2 overflows to inf; before the check the solve returned NaN
        with pytest.raises(ValueError, match="finite and positive"):
            SpaceTimeGrid(n_x=7, n_t=16, horizon=horizon)

    def test_fields(self):
        g = SpaceTimeGrid(n_x=7, n_t=8, horizon=1.0)
        assert zero_field(g).shape == (8, 7)
        u = random_field(g, np.random.default_rng(0))
        assert u.shape == (8, 7) and (u >= 0).all() and (u < 1).all()


class TestCoarsenGrid:
    def test_direct_42_preserves_sigma(self):
        g = SpaceTimeGrid(n_x=31, n_t=16, horizon=1.0)
        c = coarsen_grid(g, 4, 2)
        assert (c.n_x, c.n_t) == (15, 4)
        assert c.sigma == pytest.approx(g.sigma, rel=0, abs=0)

    def test_full_22_halves_sigma(self):
        g = SpaceTimeGrid(n_x=31, n_t=16, horizon=1.0)
        c = coarsen_grid(g, 2, 2)
        assert c.sigma == pytest.approx(g.sigma / 2, rel=1e-15)

    def test_time_semi_halves_sigma(self):
        g = SpaceTimeGrid(n_x=31, n_t=16, horizon=1.0)
        c = coarsen_grid(g, 2, 1)
        # tau doubles while h is fixed, so sigma = tau/h**2 doubles
        assert c.sigma == pytest.approx(2 * g.sigma, rel=1e-15)
        assert c.n_x == g.n_x

    def test_identity(self):
        g = SpaceTimeGrid(n_x=31, n_t=16, horizon=1.0)
        assert coarsen_grid(g, 1, 1) == g

    def test_inadmissible_factors(self):
        g = SpaceTimeGrid(n_x=31, n_t=16, horizon=1.0)
        with pytest.raises(ValueError):
            coarsen_grid(g, 3, 1)
        with pytest.raises(ValueError):
            coarsen_grid(g, 1, 4)


class TestCheckSchedule:
    """A strategy is its schedule, and ``core.check_schedule`` rejects one that cannot run."""

    @pytest.mark.parametrize("steps,message", [
        ((), r"^a coarsening schedule needs at least one \(mt, mx\) step$"),
        (((3, 1),), r"^time factor must be 1, 2 or 4, got 3$"),
        (((1, 1),), r"^coarsening step \(1, 1\) coarsens nothing$"),
        (((4, 2), (1, 1)), r"^coarsening step \(1, 1\) coarsens nothing$"),
    ], ids=["empty", "bad-factor", "no-coarsening", "no-coarsening-second"])
    @pytest.mark.parametrize("make", [
        check_schedule,
        lambda steps: CyclePlan(strategy=steps),
        lambda steps: rho_bar_details(steps, LfaConfig(sigma=1.0, resolution=16)),
    ], ids=["check_schedule", "CyclePlan", "rho_bar_details"])
    def test_rejected(self, make, steps, message):
        with pytest.raises(ValueError, match=message):
            make(steps)

    def test_strategies_are_their_schedules(self):
        assert CoarseningStrategy.NEW == ((4, 2),)
        assert CoarseningStrategy.ORIGINAL == ((2, 2), (2, 1))
        for steps in (CoarseningStrategy.NEW, CoarseningStrategy.ORIGINAL, ((2, 1), (2, 2)),
                      ((4, 2), (4, 2)), ((1, 2), (4, 1))):
            check_schedule(steps)
            assert CyclePlan(strategy=steps).strategy is steps

    def test_too_small_grid_names_the_steps(self):
        g = SpaceTimeGrid(n_x=3, n_t=16, horizon=0.1)
        with pytest.raises(ValueError, match=r"too small for one coarsening stage \(\(4, 2\),\)"):
            plan_levels(g, CyclePlan(strategy=CoarseningStrategy.NEW))


class TestSweepCounts:
    """A sweep count the plan or the analysis cannot run is rejected, with its own message."""

    @pytest.mark.parametrize("make,message", [
        (lambda: CyclePlan(strategy=CoarseningStrategy.NEW, nu1=-1),
         r"^sweep counts must be nonnegative$"),
        (lambda: CyclePlan(strategy=CoarseningStrategy.NEW, eta1=1),
         r"^a one-step schedule has no intermediate level; eta sweep counts must be zero$"),
        (lambda: CyclePlan(strategy=CoarseningStrategy.ORIGINAL, eta2=-1),
         r"^eta sweep counts must be nonnegative$"),
        (lambda: LfaConfig(sigma=1.0, eta1=-1), r"^sweep counts must be nonnegative$"),
    ], ids=["CyclePlan-nu1", "CyclePlan-new-eta1", "CyclePlan-eta2", "LfaConfig-eta1"])
    def test_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestCheckOmega:
    """Every damping parameter is checked by ``core.check_omega``, with one message."""

    @pytest.mark.parametrize("omega", [0.0, -0.5, 1.5, float("nan"), float("inf")])
    @pytest.mark.parametrize("make", [
        lambda om: SmootherConfig(omega=om, sweeps=1),
        lambda om: CyclePlan(strategy=CoarseningStrategy.NEW, omega=om),
        lambda om: LfaConfig(sigma=1.0, omega=om),
        lambda om: worst_smoothing_mode((2, 2), om, 1.0),
    ], ids=["SmootherConfig", "CyclePlan", "LfaConfig", "worst_smoothing_mode"])
    def test_rejected_with_one_message(self, make, omega):
        with pytest.raises(ValueError, match=rf"^omega must lie in \(0, 1\], got {omega}$"):
            make(omega)


class TestCheckResolution:
    """Every LFA sample count is checked by ``core.check_resolution``, with one message."""

    @pytest.mark.parametrize("resolution", [0, 14, 15, 17])
    @pytest.mark.parametrize("make", [
        lambda res: LfaConfig(sigma=1.0, resolution=res),
        lambda res: low_frequency_grid(res),
        lambda res: low_frequency_grid(res, (2, 2)),
    ], ids=["LfaConfig", "low_frequency_grid", "low_frequency_grid-2x2"])
    def test_rejected_with_one_message(self, make, resolution):
        with pytest.raises(ValueError,
                           match=rf"^resolution must be even and at least 16, got {resolution}$"):
            make(resolution)
