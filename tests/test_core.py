import re

import numpy as np
import pytest

from oracles import TridiagonalMatrix, thomas_solve, whole_prolong, whole_restrict
from stmg import lfa
from stmg.core import (CoarseningStrategy, SpaceTimeGrid, _coarse_shape, check_schedule,
                       coarsen_grid, random_field, zero_field)
from stmg.cycles import CyclePlan, plan_levels, run_cycle, solve
from stmg.heat import assemble_operator
from stmg.lfa import (LfaConfig, low_frequency_grid, low_mode_action, omega_opt_numeric,
                      operator_symbol, optimal_omega, resolve_omega, rho_bar_details,
                      smoother_symbol, smoothing_factor, spectral_radius_over_groups,
                      worst_smoothing_mode)
from stmg.smoother import SmootherConfig
from stmg.transfer import prolong, restrict

#: every step that ``core.check_step`` accepts
VALID_STEPS = [(mt, mx) for mt in (1, 2, 4) for mx in (1, 2)]


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

    def test_sizes_or_the_coarse_grid_error(self):
        # n_t and n_x + 1 are powers of two of at least 4 and every valid factor divides
        # them, so the coarse sizes are exact or the coarse grid rejects them itself
        for k in range(2, 11):
            for m in range(2, 15):
                g = SpaceTimeGrid(2**k - 1, 2**m, 0.1)
                for mt, mx in VALID_STEPS:
                    assert (g.n_x + 1) % mx == 0 and g.n_t % mt == 0
                    try:
                        want = SpaceTimeGrid((g.n_x + 1) // mx - 1, g.n_t // mt, 0.1)
                    except ValueError as exc:
                        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                            coarsen_grid(g, mt, mx)
                    else:
                        assert coarsen_grid(g, mt, mx) == want

    def test_one_coarse_shape_rule(self):
        # grids, cycle workspaces and transfers coarsen by this one rule
        assert _coarse_shape(31, 16, 4, 2) == (15, 4)
        assert _coarse_shape(31, 16, 2, 1) == (31, 8)
        assert _coarse_shape(7, 16, 1, 2) == (3, 16)
        for n_x, n_t, mt, mx in [(30, 16, 2, 2), (31, 18, 4, 1), (31, 15, 2, 1)]:
            with pytest.raises(ValueError, match=rf"^step \({mt}, {mx}\) does not divide "):
                _coarse_shape(n_x, n_t, mt, mx)


def _schedule_rejections():
    """(make, steps, message) cases: every schedule consumer on every bad schedule, and
    every single-step consumer, run on each step in turn, on every bad factor."""
    cases = [
        ("empty", (), r"^a coarsening schedule needs at least one \(mt, mx\) step$"),
        ("bad-factor", ((3, 1),), r"^time factor must be 1, 2 or 4, got 3$"),
        ("no-coarsening", ((1, 1),), r"^coarsening step \(1, 1\) coarsens nothing$"),
        ("no-coarsening-second", ((4, 2), (1, 1)),
         r"^coarsening step \(1, 1\) coarsens nothing$"),
        # 4.0 and True compare equal to valid factors, but are no integer factors
        ("float-factor", ((4.0, 2),), r"^mt must be an integer, got 4\.0$"),
        ("bool-factor", ((2, 2), (2, True)), r"^mx must be an integer, got True$"),
        # each of these leaked a TypeError or an unpacking error from Python itself
        ("not-iterable", 5,
         r"^a coarsening schedule must be an iterable of \(mt, mx\) steps, got 5$"),
        ("step-not-pair", [(4, 2), 7], r"^a coarsening step must be an \(mt, mx\) pair, got 7$"),
        ("three-factors", ((4, 2, 1),),
         r"^a coarsening step must be an \(mt, mx\) pair, got \(4, 2, 1\)$"),
        ("string", "42", r"^a coarsening step must be an \(mt, mx\) pair, got '4'$"),
    ]
    cfg = LfaConfig(sigma=1.0, resolution=16)
    g = SpaceTimeGrid(n_x=15, n_t=64, horizon=0.1)
    schedule_makes = [
        ("check_schedule", check_schedule),
        ("CyclePlan", lambda steps: CyclePlan(strategy=steps)),
        ("rho_bar_details", lambda steps: rho_bar_details(steps, cfg)),
        ("low_mode_action", lambda steps: low_mode_action(steps, cfg)),
        ("spectral_radius_over_groups",
         lambda steps: spectral_radius_over_groups(steps, cfg, np.ones(3), np.ones(3))),
        ("omega_opt_numeric", lambda steps: omega_opt_numeric(steps, cfg)),
        ("resolve_omega-number", lambda steps: resolve_omega("0.7", steps, cfg)),
        ("resolve_omega-theorem", lambda steps: resolve_omega("theorem", steps, cfg)),
        ("resolve_omega-numeric", lambda steps: resolve_omega("numeric", steps, cfg)),
    ]
    step_makes = [
        # the outputs fit the one valid step run here, (2, 2)
        ("restrict", lambda mt, mx: restrict(np.zeros((15, 16)), mt, mx, np.zeros((7, 8)), (0, 7))),
        ("prolong", lambda mt, mx: prolong(np.zeros((7, 4)), mt, mx, np.zeros((15, 8)), (0, 7))),
        ("coarsen_grid", lambda mt, mx: coarsen_grid(g, mt, mx)),
    ]
    params = [pytest.param(make, steps, message, id=f"{name}-{case}")
              for name, make in schedule_makes for case, steps, message in cases]
    params += [pytest.param(lambda steps, run=run: [run(*step) for step in steps], steps,
                            message, id=f"{name}-{case}")
               for name, run in step_makes for case, steps, message in cases
               if case in ("bad-factor", "float-factor", "bool-factor")]
    return params


class TestCheckSchedule:
    """A strategy is its schedule, and ``core.check_schedule`` rejects one that cannot run."""

    @pytest.mark.parametrize("make,steps,message", _schedule_rejections())
    def test_rejected(self, make, steps, message):
        with pytest.raises(ValueError, match=message):
            make(steps)

    def test_strategies_are_their_schedules(self):
        assert CoarseningStrategy.NEW == ((4, 2),)
        assert CoarseningStrategy.ORIGINAL == ((2, 2), (2, 1))
        for steps in (CoarseningStrategy.NEW, CoarseningStrategy.ORIGINAL, ((2, 1), (2, 2)),
                      ((4, 2), (4, 2)), ((1, 2), (4, 1))):
            check_schedule(steps)
            assert CyclePlan(strategy=steps).strategy == steps

    def test_any_iterable_of_pairs_runs(self):
        # the rows of a numpy (k, 2) integer array and lists of lists run as the tuple
        cfg = LfaConfig(sigma=1.0, resolution=16)
        tt, tx = low_frequency_grid(16)

        def results(steps):
            modes = low_mode_action(steps, cfg)
            return [CyclePlan(steps).strategy, rho_bar_details(steps, cfg),
                    *spectral_radius_over_groups(steps, cfg, tt, tx), modes.theta_t,
                    modes.theta_x, modes.modulus, omega_opt_numeric(steps, cfg),
                    *(resolve_omega(mode, steps, cfg) for mode in ("0.7", "theorem", "numeric"))]

        for steps in (CoarseningStrategy.NEW, CoarseningStrategy.ORIGINAL):
            assert check_schedule(np.array(steps)) == steps
            for other in (np.array(steps), [list(step) for step in steps]):
                for got, want in zip(results(other), results(steps), strict=True):
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("analyse", [rho_bar_details, low_mode_action])
    def test_rejected_before_any_grid(self, analyse, monkeypatch):
        def no_grid(*args):
            raise AssertionError("a low-frequency grid was built for a rejected schedule")

        monkeypatch.setattr(lfa, "low_frequency_grid", no_grid)
        with pytest.raises(ValueError, match=r"^mt must be an integer, got 4\.0$"):
            analyse(((4.0, 2),), LfaConfig(sigma=1.0, resolution=16))

    def test_too_small_grid_names_the_steps(self):
        g = SpaceTimeGrid(n_x=3, n_t=16, horizon=0.1)
        with pytest.raises(ValueError, match=r"too small for one coarsening stage \(\(4, 2\),\)"):
            plan_levels(g, CyclePlan(strategy=CoarseningStrategy.NEW))


class TestSweepCounts:
    """A sweep count the plan or the analysis cannot run is rejected, naming the count."""

    @pytest.mark.parametrize("make,message", [
        (lambda: CyclePlan(strategy=CoarseningStrategy.NEW, nu1=-1),
         r"^nu1 must be nonnegative, got -1$"),
        (lambda: CyclePlan(strategy=CoarseningStrategy.NEW, eta1=1),
         r"^a one-step schedule has no intermediate level; eta sweep counts must be zero$"),
        (lambda: CyclePlan(strategy=CoarseningStrategy.ORIGINAL, eta2=-1),
         r"^eta2 must be nonnegative, got -1$"),
        (lambda: LfaConfig(sigma=1.0, eta1=-1), r"^eta1 must be nonnegative, got -1$"),
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


class TestCheckReal:
    """sigma, omega and the horizon are real numbers, checked before any comparison."""

    @pytest.mark.parametrize("make,name,value", [
        (lambda v: CyclePlan(CoarseningStrategy.NEW, omega=v), "omega", "0.5"),
        (lambda v: LfaConfig(sigma=v), "sigma", None),
        (lambda v: optimal_omega((4, 2), v), "sigma", "1"),
        (lambda v: SmootherConfig(v, 1), "omega", "0.5"),
        (lambda v: SpaceTimeGrid(7, 16, v), "horizon", "1"),
        # an array compared ambiguously, and True ran as omega 1
        (lambda v: LfaConfig(sigma=v), "sigma", np.array([1.0, 2.0])),
        (lambda v: CyclePlan(CoarseningStrategy.NEW, omega=v), "omega", True),
    ], ids=["CyclePlan-omega", "LfaConfig-sigma", "optimal_omega-sigma", "SmootherConfig-omega",
            "SpaceTimeGrid-horizon", "LfaConfig-sigma-array", "CyclePlan-omega-bool"])
    def test_rejected_naming_the_value(self, make, name, value):
        with pytest.raises(ValueError,
                           match=rf"^{name} must be a real number, got {re.escape(repr(value))}$"):
            make(value)

    def test_numpy_floats_run_as_python_floats(self):
        f = np.float64
        for sigma, omega in ((0.01, 0.7), (1.6, 0.5)):
            cfg = LfaConfig(sigma=sigma, omega=omega, resolution=16)
            wide = LfaConfig(sigma=f(sigma), omega=f(omega), resolution=16)
            assert type(wide.sigma) is f  # checked, not converted
            assert rho_bar_details(CoarseningStrategy.ORIGINAL, wide) == \
                rho_bar_details(CoarseningStrategy.ORIGINAL, cfg)
            assert optimal_omega((2, 2), f(sigma)) == optimal_omega((2, 2), sigma)
        assert SpaceTimeGrid(15, 64, f(0.1)).sigma == SpaceTimeGrid(15, 64, 0.1).sigma


def solve_for(max_iters):
    g = SpaceTimeGrid(n_x=15, n_t=64, horizon=0.1)
    return solve(assemble_operator(g), np.zeros((64, 15)), CyclePlan(CoarseningStrategy.NEW),
                 max_iters=max_iters, tol=0.0, seed=0)


class TestCheckInteger:
    """Every count is checked by ``core.check_integers`` up front, which names the field."""

    @pytest.mark.parametrize("make,name,value", [
        (lambda v: LfaConfig(sigma=1.0, resolution=v), "resolution", 16.0),
        (lambda v: low_frequency_grid(v), "resolution", 16.0),
        (lambda v: low_frequency_grid(16, (4, v)), "scale", 2.0),
        (lambda v: LfaConfig(sigma=1.0, nu1=v), "nu1", 2.5),
        (lambda v: LfaConfig(sigma=1.0, eta2=v), "eta2", np.float64(1.0)),
        (lambda v: CyclePlan(CoarseningStrategy.NEW, nu1=v), "nu1", 3.0),
        (lambda v: CyclePlan(CoarseningStrategy.ORIGINAL, eta1=v), "eta1", "3"),
        (lambda v: CyclePlan(CoarseningStrategy.NEW, depth=v), "depth", 2.0),
        (lambda v: SmootherConfig(omega=0.5, sweeps=v), "sweeps", 1.5),
        (lambda v: SpaceTimeGrid(v, 64, 0.1), "n_x", 15.0),
        (lambda v: SpaceTimeGrid(15, v, 0.1), "n_t", 64.0),
        (solve_for, "max_iters", 2.0),
        # operator.index takes a bool, so each of these ran as a count of 0 or 1
        (lambda v: CyclePlan(CoarseningStrategy.NEW, nu1=v, nu2=False), "nu1", True),
        (lambda v: CyclePlan(CoarseningStrategy.NEW, depth=v), "depth", True),
        (lambda v: SmootherConfig(0.5, v), "sweeps", True),
        (solve_for, "max_iters", True),
        (lambda v: LfaConfig(sigma=1, nu1=v, nu2=True, resolution=16), "nu1", True),
    ], ids=["LfaConfig-resolution", "low_frequency_grid", "low_frequency_grid-scale",
            "LfaConfig-nu1", "LfaConfig-eta2",
            "CyclePlan-nu1", "CyclePlan-eta1", "CyclePlan-depth", "SmootherConfig-sweeps",
            "SpaceTimeGrid-n_x", "SpaceTimeGrid-n_t", "solve-max_iters", "CyclePlan-nu1-bool",
            "CyclePlan-depth-bool", "SmootherConfig-sweeps-bool", "solve-max_iters-bool",
            "LfaConfig-nu1-bool"])
    def test_rejected_naming_the_field(self, make, name, value):
        with pytest.raises(ValueError,
                           match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
            make(value)

    def test_numpy_integers_accepted(self):
        i = np.int64
        assert LfaConfig(sigma=1.0, nu1=i(2), eta1=np.int32(1), resolution=i(16)).resolution == 16
        assert CyclePlan(CoarseningStrategy.NEW, nu1=i(2), depth=i(2)).depth == 2
        assert SpaceTimeGrid(i(15), i(64), 0.1).h == 1 / 16
        assert SmootherConfig(omega=0.5, sweeps=i(2)).sweeps == 2
        assert solve_for(i(2)).iterations == 2
        # np.int64 factors run as the Python ints they equal, bit for bit
        g = SpaceTimeGrid(15, 64, 0.1)
        op, rng = assemble_operator(g), np.random.default_rng(1)
        u, rhs = rng.random((64, 15)), rng.random((64, 15))
        cfg = LfaConfig(sigma=1.0, resolution=16)
        tt, tx = low_frequency_grid(16)

        def results(steps):
            plan = CyclePlan(steps)
            run = solve(op, rhs, plan, max_iters=3, tol=0.0, seed=0)
            rho = rho_bar_details(steps, cfg)
            modes = low_mode_action(steps, cfg)
            return [run_cycle(op, u, rhs, plan), run.solution, run.error_history,
                    run.residual_history, [rho.value, *rho.argmax, rho.excluded],
                    *spectral_radius_over_groups(steps, cfg, tt, tx), modes.theta_t,
                    modes.theta_x, modes.modulus, omega_opt_numeric(steps, cfg)]

        def step_results(mt, mx):
            coarse = coarsen_grid(g, mt, mx)
            return [whole_restrict(rhs.T, mt, mx),
                    whole_prolong(rhs.T[:coarse.n_x, :coarse.n_t], mt, mx),
                    [coarse.n_x, coarse.n_t, coarse.sigma], optimal_omega((mt, mx), 0.3),
                    smoothing_factor((mt, mx), 0.6, 0.3), worst_smoothing_mode((mt, mx), 0.6, 0.3),
                    smoother_symbol(0.6, 0.3, tt, tx, mt, mx), operator_symbol(0.3, tt, tx, mt, mx)]

        for steps in (CoarseningStrategy.NEW, CoarseningStrategy.ORIGINAL):
            wide = tuple((i(mt), i(mx)) for mt, mx in steps)
            assert {type(f) for step in CyclePlan(wide).strategy for f in step} == {int}
            for got, want in zip(results(wide), results(steps), strict=True):
                assert np.array_equal(got, want)
        for mt, mx in VALID_STEPS:
            if (mt, mx) != (1, 1):
                for got, want in zip(step_results(i(mt), i(mx)), step_results(mt, mx), strict=True):
                    assert np.array_equal(got, want)
                # array_equal passes np.float64 too: the mode must hold the Python floats
                assert {type(a) for a in worst_smoothing_mode((i(mt), i(mx)), 0.6, 0.3)} == {float}
