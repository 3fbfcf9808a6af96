"""The cycle's flat-view kernels against their 2-D oracles, bit for bit.

``smoother.jacobi_sweep``, ``cycles._residual`` and the time stencils of
``transfer`` shift along time on the flat row-major view of a run of rows
and multiply by per-mode fields (``core.mode_field``).  The oracles make
the same IEEE operations on 2-D slices with (n, 1) columns, so every
result must be equal, not close.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import jacobi_sweep_2d, prolong_time_2d, residual_2d, restrict_time_2d
from stmg import cycles, transfer
from stmg.core import CoarseningStrategy as CS
from stmg.core import SpaceTimeGrid, flat, mode_field, random_field
from stmg.cycles import CyclePlan, run_cycle, solve
from stmg.heat import assemble_operator, assemble_rhs, heat_benchmark_problem
from stmg.smoother import SmootherConfig, jacobi_sweep
from stmg.transfer import block_rows


def data(shape, seed, count=3):
    return np.random.default_rng(seed).standard_normal((count,) + shape)


def eigenvalues(n, seed):
    """Positive per-mode eigenvalues, as Q's 1 + 2 sigma (1 - cos) are."""
    return 1.0 + 4.0 * np.random.default_rng(seed).random(n)


def row_runs(n):
    """Row-run partitions of an n-row field: whole, shells and centre, one pair each."""
    pairs = n // 2
    blockings = [[(0, pairs)], [(k, k + 1) for k in range(pairs)]]
    if pairs > 1:
        blockings.append([(0, pairs // 2), (pairs // 2, pairs)])
    for blocks in blockings:
        yield [rows for p in blocks for rows in block_rows(n, p)]


def sweep_both(lam, u, rhs, cfg, runs=None):
    """The kernel over ``runs`` of rows (default: the whole field) and the oracle on all rows."""
    got, want, work = u.copy(), u.copy(), np.empty_like(u)
    gain = mode_field(cfg.omega / lam, u.shape[1])
    for v in runs or [slice(None)]:
        jacobi_sweep(gain[v], got[v], rhs[v], cfg, work[v])
    jacobi_sweep_2d((cfg.omega / lam)[:, None], want, rhs, cfg, np.empty_like(u))
    return got, want


def residual_both(lam, u, rhs, runs=None):
    got, want = np.full_like(u, np.nan), np.full_like(u, np.nan)
    field = mode_field(lam, u.shape[1])
    for v in runs or [slice(None)]:
        cycles._residual(u[v], rhs[v], field[v], got[v])
    residual_2d(u, rhs, lam[:, None], want)
    return got, want


def restrict_time_both(fine, runs=None):
    got = np.full(fine.shape[:-1] + (fine.shape[-1] // 2,), np.nan)
    for v in runs or [slice(None)]:
        transfer.restrict_time(fine[v], got[v])
    return got, restrict_time_2d(fine)


def prolong_time_both(coarse, runs=None):
    got = np.concatenate([transfer.prolong_time(coarse[v]) for v in runs or [slice(None)]])
    want = prolong_time_2d(coarse)
    return got, np.concatenate([want[v] for v in runs or [slice(None)]])


SHAPES = [(15, 64), (63, 256), (7, 4), (3, 4), (1, 4), (1, 64)]


class TestSweep:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("omega", [0.5, 0.7, 1.0])
    @pytest.mark.parametrize("sweeps", [0, 1, 3])
    def test_whole_field(self, shape, omega, sweeps):
        u, rhs, _ = data(shape, sum(shape) + sweeps)
        got, want = sweep_both(eigenvalues(shape[0], 1), u, rhs, SmootherConfig(omega, sweeps))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(15, 64), (7, 4), (3, 16)])
    def test_row_runs(self, shape):
        # shells, centres and single rows, each swept as a view of the field
        u, rhs, _ = data(shape, 2)
        cfg = SmootherConfig(0.6, 2)
        for runs in row_runs(shape[0]):
            got, want = sweep_both(eigenvalues(shape[0], 3), u, rhs, cfg, runs)
            assert np.array_equal(got, want)

    def test_rhs_read_only_and_may_be_strided(self):
        u, rhs, _ = data((7, 8), 4)
        cfg, gain = SmootherConfig(0.5, 2), mode_field(0.5 / eigenvalues(7, 4), 8)
        strided, rhs0 = np.asfortranarray(rhs), rhs.copy()
        a, b = u.copy(), u.copy()
        jacobi_sweep(gain, a, rhs, cfg, np.empty_like(u))
        jacobi_sweep(gain, b, strided, cfg, np.empty_like(u))
        assert np.array_equal(a, b) and np.array_equal(rhs, rhs0)


class TestResidual:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_whole_field(self, shape):
        u, rhs, _ = data(shape, sum(shape))
        got, want = residual_both(eigenvalues(shape[0], 5), u, rhs)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(15, 64), (7, 4), (3, 16)])
    def test_row_runs(self, shape):
        u, rhs, _ = data(shape, 6)
        for runs in row_runs(shape[0]):
            got, want = residual_both(eigenvalues(shape[0], 7), u, rhs, runs)
            assert np.array_equal(got, want)


class TestTimeTransfers:
    @pytest.mark.parametrize("shape", SHAPES + [(5, 2), (1, 2)])
    def test_whole_field(self, shape):
        fine, coarse, _ = data(shape, sum(shape))
        assert np.array_equal(*restrict_time_both(fine))
        assert np.array_equal(*prolong_time_both(coarse))

    @pytest.mark.parametrize("n_t", [2, 4, 64])
    def test_one_dimensional(self, n_t):
        fine, coarse, _ = data((n_t,), n_t)
        assert np.array_equal(transfer.restrict_time(fine), restrict_time_2d(fine))
        assert np.array_equal(transfer.prolong_time(coarse), prolong_time_2d(coarse))

    @pytest.mark.parametrize("shape", [(15, 64), (7, 4), (3, 16)])
    def test_row_runs(self, shape):
        fine, coarse, _ = data(shape, 8)
        for runs in row_runs(shape[0]):
            assert np.array_equal(*restrict_time_both(fine, runs))
            assert np.array_equal(*prolong_time_both(coarse, runs))

    def test_inputs_read_only_and_may_be_strided(self):
        fine, coarse, _ = data((8, 7), 9)
        fine0, coarse0 = fine.copy(), coarse.copy()
        assert np.array_equal(transfer.restrict_time(fine.T), restrict_time_2d(fine.T))
        assert np.array_equal(transfer.prolong_time(coarse.T), prolong_time_2d(coarse.T))
        assert np.array_equal(fine, fine0) and np.array_equal(coarse, coarse0)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 12), log_nt=st.integers(1, 7),
       omega=st.floats(0.01, 1.0), sweeps=st.integers(0, 4), seed=st.integers(0, 2**16))
def test_kernels_equal_oracles(rows, log_nt, omega, sweeps, seed):
    shape = (rows, 2**log_nt)
    u, rhs, _ = data(shape, seed)
    lam = eigenvalues(rows, seed)
    assert np.array_equal(*sweep_both(lam, u, rhs, SmootherConfig(omega, sweeps)))
    assert np.array_equal(*residual_both(lam, u, rhs))
    assert np.array_equal(*restrict_time_both(u))
    assert np.array_equal(*prolong_time_both(rhs))


class TestCycleWithOracleKernels:
    """A cycle and a solve with the 2-D oracles patched in equal the library's, bit for bit."""

    @staticmethod
    def patch(mp):
        mp.setattr(cycles, "jacobi_sweep",
                   lambda gain, u, rhs, cfg, work: jacobi_sweep_2d(gain[:, :1], u, rhs, cfg, work))
        mp.setattr(cycles, "_residual",
                   lambda u, rhs, lam, out: residual_2d(u, rhs, lam[:, :1], out))
        mp.setattr(transfer, "restrict_time", restrict_time_2d)
        mp.setattr(transfer, "prolong_time", prolong_time_2d)

    @pytest.mark.parametrize("strategy", [CS.NEW, CS.ORIGINAL])
    @pytest.mark.parametrize("n_x,n_t,horizon,depth", [(63, 4096, 0.1, 5), (31, 256, 0.4, 1)])
    def test_equal(self, strategy, n_x, n_t, horizon, depth):
        g = SpaceTimeGrid(n_x=n_x, n_t=n_t, horizon=horizon)
        op, rhs = assemble_operator(g), assemble_rhs(g, heat_benchmark_problem(horizon))
        eta = 3 if len(strategy) > 1 else 0
        plan = CyclePlan(strategy=strategy, eta1=eta, eta2=eta, depth=depth)
        u = random_field(g, np.random.default_rng(1))
        runs = []
        for oracle in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                if oracle:
                    self.patch(mp)
                runs.append((run_cycle(op, run_cycle(op, u, rhs, plan), rhs, plan),
                             solve(op, rhs, plan, max_iters=2, tol=0.0, seed=1)))
        (cycle, run), (cycle_2d, run_2d) = runs
        assert np.array_equal(cycle, cycle_2d)
        assert np.array_equal(run.solution, run_2d.solution)
        assert np.array_equal(run.error_history, run_2d.error_history)
        assert np.array_equal(run.residual_history, run_2d.residual_history)


class TestContiguity:
    """A flat-view kernel rejects an array it writes unless it is C-contiguous."""

    @pytest.mark.parametrize("view", [lambda a: a.T, lambda a: a[:, :4], lambda a: a[::2]])
    def test_flat_rejects_copies(self, view):
        with pytest.raises(ValueError, match="C-contiguous"):
            flat(view(np.zeros((6, 8))))

    def test_flat_is_a_view(self):
        a = np.zeros((6, 8))
        flat(a)[9] = 1.0
        assert a[1, 1] == 1.0

    def test_sweep(self):
        u, rhs, work = data((8, 8), 10)
        gain, cfg = mode_field(np.full(8, 0.5), 8), SmootherConfig(0.5, 1)
        for args in ((gain, u.T, rhs, cfg, work), (gain, u, rhs, cfg, work.T)):
            u0 = u.copy()
            with pytest.raises(ValueError, match="C-contiguous"):
                jacobi_sweep(*args)
            assert np.array_equal(u, u0)

    def test_residual(self):
        u, rhs, out = data((8, 8), 11)
        out0 = out.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            cycles._residual(u, rhs, mode_field(np.ones(8), 8), out.T)
        assert np.array_equal(out, out0)

    def test_restrict_time_out(self):
        fine = data((4, 8), 12, 1)[0]
        out = np.zeros((8, 4))
        with pytest.raises(ValueError, match="C-contiguous"):
            transfer.restrict_time(fine, out.T)
        assert not out.any()
