"""The physical (n_t, n_x) reference stencils of ``oracles`` against their dense
definitions, and the library's sine-coefficient transfers against those references."""

import inspect

import numpy as np
import pytest

from oracles import (dense_restriction_space, dense_restriction_time, dense_transfer_pair,
                     prolong, prolong_space, prolong_time, restrict, restrict_space,
                     restrict_time, whole_prolong, whole_restrict)
from stmg import transfer


def assembled_transfers(n_t, n_x, mt, mx, coefficients=False):
    """Dense matrices of the references' restrict and prolong, column by column.

    With ``coefficients``, those of the library's, on mode-major (n_x, n_t) arrays.
    """
    r_fn, p_fn = (whole_restrict, whole_prolong) if coefficients else (restrict, prolong)
    nc_t, nc_x = n_t // mt, (n_x + 1) // mx - 1
    fine, coarse = ((n_x, n_t), (nc_x, nc_t)) if coefficients else ((n_t, n_x), (nc_t, nc_x))
    r = np.stack([r_fn(e.reshape(fine), mt, mx).ravel() for e in np.eye(n_t * n_x)], axis=1)
    p = np.stack([p_fn(e.reshape(coarse), mt, mx).ravel() for e in np.eye(nc_t * nc_x)],
                 axis=1)
    return r, p


def dst(n):
    """The orthogonal, symmetric DST-I matrix of n points, from its definition."""
    k = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))


class TestSpaceStencils:
    def test_restrict_constant(self):
        assert np.array_equal(restrict_space(np.ones(7)), np.ones(3))

    def test_restrict_unit_even_node(self):
        fine = np.zeros(7)
        fine[3] = 1.0  # fine interior node 4 = coarse node 2 (1-based)
        assert np.array_equal(restrict_space(fine), [0.0, 0.5, 0.0])

    def test_restrict_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        fine = rng.standard_normal(7)
        assert np.array_equal(restrict_space(fine), dense_restriction_space(7) @ fine)

    def test_prolong_constant(self):
        out = prolong_space(np.ones(3))
        assert np.array_equal(out, [0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5])

    def test_prolong_unit_hat(self):
        out = prolong_space(np.array([0.0, 1.0, 0.0]))
        assert np.array_equal(out, [0.0, 0.0, 0.5, 1.0, 0.5, 0.0, 0.0])

    def test_adjoint_scaling(self):
        r = dense_restriction_space(15)
        p = np.stack([prolong_space(e) for e in np.eye(7)], axis=1)
        assert np.array_equal(p, 2.0 * r.T)

    def test_odd_size_required(self):
        with pytest.raises(ValueError):
            restrict_space(np.ones(6))


class TestTimeStencils:
    def test_restrict_constant_truncates_last(self):
        fine = np.ones((8, 3))
        out = restrict_time(fine)
        assert np.array_equal(out[:-1], np.ones((3, 3)))
        assert np.array_equal(out[-1], 0.75 * np.ones(3))

    def test_restrict_unit_block(self):
        fine = np.zeros((8, 2))
        fine[3] = 1.0  # time block 4 = coarse block 2 (1-based)
        out = restrict_time(fine)
        assert np.array_equal(out, [[0, 0], [0.5, 0.5], [0, 0], [0, 0]])

    def test_adjoint_scaling(self):
        r = dense_restriction_time(8)
        p = np.stack([prolong_time(e)[:, 0] for e in np.eye(4)[..., None]], axis=1)
        assert np.array_equal(p, 2.0 * r.T)

    def test_prolong_values(self):
        c = np.array([1.0, 2.0, 4.0, 8.0])[:, None]
        out = prolong_time(c)[:, 0]
        assert np.array_equal(out, [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0])

    def test_odd_block_count(self):
        with pytest.raises(ValueError):
            restrict_time(np.ones((7, 3)))


class TestComposites:
    def test_direct_42_equals_matrix_product(self):
        rng = np.random.default_rng(5)
        fine = rng.standard_normal((8, 7))
        r_dense, _ = dense_transfer_pair(8, 7, 4, 2)
        got = restrict(fine, 4, 2).ravel()
        assert np.abs(got - r_dense @ fine.ravel()).max() < 1e-15

    def test_direct_42_constant(self):
        out = restrict(np.ones((8, 7)), 4, 2)
        assert np.allclose(out[0], 1.0, atol=1e-15)  # interior coarse block

    # P is mt times the interpolation mt * mx * R^T, so R = P^T / (mt**2 * mx)
    def test_adjoint_factor_42(self):
        r, p = assembled_transfers(8, 7, 4, 2)
        assert np.array_equal(r, p.T / 32)

    def test_adjoint_factor_22_and_21(self):
        for (mt, mx) in [(2, 2), (2, 1)]:
            r, p = assembled_transfers(8, 7, mt, mx)
            assert np.array_equal(r, p.T / (mt * mt * mx))

    def test_prolong_matches_assembled(self):
        rng = np.random.default_rng(6)
        for (mt, mx) in [(2, 1), (2, 2), (4, 2)]:
            nc_t, nc_x = 8 // mt, (7 + 1) // mx - 1
            coarse = rng.standard_normal((nc_t, nc_x))
            _, p_dense = dense_transfer_pair(8, 7, mt, mx)
            got = prolong(coarse, mt, mx).ravel()
            assert np.abs(got - p_dense @ coarse.ravel()).max() < 1e-15

    def test_composite_equals_staged_strategy_transfers(self):
        rng = np.random.default_rng(7)
        fine = rng.standard_normal((16, 15))
        staged = restrict(restrict(fine, 2, 2), 2, 1)
        assert np.abs(staged - restrict(fine, 4, 2)).max() < 1e-15
        coarse = rng.standard_normal((4, 7))
        staged_p = prolong(prolong(coarse, 2, 1), 2, 2)
        assert np.abs(staged_p - prolong(coarse, 4, 2)).max() < 1e-15

    def test_restriction_preserves_constants_interior(self):
        for (mt, mx) in [(2, 2), (2, 1), (4, 2)]:
            out = restrict(np.ones((16, 15)), mt, mx)
            assert np.allclose(out[:-1], 1.0, atol=1e-15)

    @pytest.mark.parametrize("step", [(3, 1), (8, 1), (1, 4)])
    def test_unsupported_steps(self, step):
        with pytest.raises(ValueError):
            restrict(np.ones((16, 15)), *step)
        with pytest.raises(ValueError):
            prolong(np.ones((2, 7)), *step)


class TestCoefficientSpace:
    """Full weighting in the sine basis: S_c R S, which couples alias pairs of modes."""

    @pytest.mark.parametrize("n_x", [3, 7, 15, 31, 63, 127, 255])
    def test_restriction_is_the_transformed_stencil(self, n_x):
        # column j of the identity is the sine coefficients of time step j alone
        n_c = n_x // 2
        want = dst(n_c) @ dense_restriction_space(n_x) @ dst(n_x)
        r = transfer.restrict_space(np.eye(n_x), (0, n_c))
        assert np.abs(r - want).max() <= 1e-14
        assert np.array_equal(transfer.prolong_space(np.eye(n_c), np.zeros((n_x, n_c)), (0, n_c)),
                              2.0 * r.T)
        assert not r[:, n_c].any()  # the middle mode m/2 restricts to zero

    def test_odd_size_required(self):
        with pytest.raises(ValueError):
            transfer.restrict_space(np.ones((6, 4)), (0, 3))


class TestCoefficientTime:
    """The time stencils on the last axis are the references' on the first, bit for bit."""

    @pytest.mark.parametrize("mt", [2, 4])
    def test_time_steps_equal_reference(self, mt):
        rng = np.random.default_rng(mt)
        fine, coarse = rng.standard_normal((16, 7)), rng.standard_normal((16 // mt, 7))
        assert np.array_equal(whole_restrict(fine.T, mt, 1), restrict(fine, mt, 1).T)
        assert np.array_equal(whole_prolong(coarse.T, mt, 1), prolong(coarse, mt, 1).T)

    def test_odd_step_count(self):
        with pytest.raises(ValueError):
            transfer.restrict_time(np.ones((3, 7)))


class TestCoefficientComposites:
    """The composites on mode-major coefficients against the physical references."""

    @pytest.mark.parametrize("step", [(2, 1), (4, 1), (2, 2), (4, 2)])
    def test_equal_transformed_reference(self, step):
        mt, mx = step
        rng = np.random.default_rng(mt + mx)
        n_t, n_x = 16, 31
        n_c = (n_x + 1) // mx - 1
        s, s_c = dst(n_x), dst(n_c)
        fine, coarse = rng.standard_normal((n_t, n_x)), rng.standard_normal((n_t // mt, n_c))
        got = whole_restrict(s @ fine.T, mt, mx)
        want = s_c @ restrict(fine, mt, mx).T
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        got = whole_prolong(s_c @ coarse.T, mt, mx)
        want = s @ prolong(coarse, mt, mx).T
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("step", [(2, 1), (2, 2), (4, 2)])
    def test_adjoint_factor(self, step):
        # as in the physical layout, P = mt**2 * mx * R^T, exactly
        mt, mx = step
        r, p = assembled_transfers(8, 7, mt, mx, coefficients=True)
        assert np.array_equal(r, p.T / (mt * mt * mx))

    def test_composite_equals_staged_strategy_transfers(self):
        rng = np.random.default_rng(7)
        fine = rng.standard_normal((15, 16))
        staged = whole_restrict(whole_restrict(fine, 2, 2), 2, 1)
        assert np.abs(staged - whole_restrict(fine, 4, 2)).max() < 1e-15
        coarse = rng.standard_normal((7, 4))
        staged_p = whole_prolong(whole_prolong(coarse, 2, 1), 2, 2)
        assert np.abs(staged_p - whole_prolong(coarse, 4, 2)).max() < 1e-15

    @pytest.mark.parametrize("step", [(3, 1), (8, 1), (1, 4)])
    def test_unsupported_steps(self, step):
        with pytest.raises(ValueError):
            transfer.restrict(np.ones((15, 16)), *step, np.zeros((7, 8)), (0, 7))
        with pytest.raises(ValueError):
            transfer.prolong(np.ones((7, 2)), *step, np.zeros((15, 4)), (0, 7))


class TestAliasPairBlocks:
    """The composites on blocks of alias pairs add up, bit for bit, to the whole field's."""

    @staticmethod
    def partitions(n):
        # one block; a shell and the centre; every pair its own block
        pairs = n // 2
        yield [(0, pairs)]
        if pairs > 1:
            yield [(0, pairs // 2), (pairs // 2, pairs)]
        yield [(k, k + 1) for k in range(pairs)]

    @pytest.mark.parametrize("n", [3, 7, 15])
    def test_blocks_tile_the_rows(self, n):
        for blocks in self.partitions(n):
            rows = [k for pairs in blocks for r in transfer.block_rows(n, pairs)
                    for k in range(r.start, r.stop)]
            assert sorted(rows) == list(range(n))
            for pairs in blocks:  # closed under the alias pair k <-> n-1-k
                block = {k for r in transfer.block_rows(n, pairs) for k in range(r.start, r.stop)}
                assert block == {n - 1 - k for k in block}

    @pytest.mark.parametrize("step", [(1, 2), (2, 1), (4, 1), (2, 2), (4, 2)])
    @pytest.mark.parametrize("n", [3, 15])
    def test_blocks_equal_whole(self, step, n):
        mt, mx = step
        rng = np.random.default_rng(n + mt + mx)
        fine = rng.standard_normal((n, 16))
        coarse = rng.standard_normal(((n + 1) // mx - 1, 16 // mt))
        base = rng.standard_normal(fine.shape)
        for blocks in self.partitions(n):
            out, add_to = np.full_like(coarse, np.nan), base.copy()
            for pairs in blocks:
                transfer.restrict(fine, mt, mx, out, pairs)
                transfer.prolong(coarse, mt, mx, add_to, pairs)
            assert np.array_equal(out, whole_restrict(fine, mt, mx))
            assert np.array_equal(add_to, base + whole_prolong(coarse, mt, mx))


class TestBlockChecks:
    """One calling form, checked before any write: a bad block or output is a ``ValueError``
    that names it, and the output is left as it was."""

    @staticmethod
    def calls():
        rng = np.random.default_rng(8)
        fine, coarse = rng.standard_normal((15, 16)), rng.standard_normal((7, 4))
        # (name, call on (output, pairs), a valid output, the argument named)
        yield "restrict", lambda out, pairs: transfer.restrict(fine, 4, 2, out, pairs), \
            np.zeros((7, 4)), "out"
        yield "restrict-21", lambda out, pairs: transfer.restrict(fine, 2, 1, out, pairs), \
            np.zeros((15, 8)), "out"
        yield "prolong", lambda add_to, pairs: transfer.prolong(coarse, 4, 2, add_to, pairs), \
            np.zeros((15, 16)), "add_to"
        yield "prolong-21", lambda add_to, pairs: transfer.prolong(fine, 2, 1, add_to, pairs), \
            np.zeros((15, 32)), "add_to"

    @pytest.mark.parametrize("pairs", [(3, 1), (2, 1), (2, 2), (0, 100), (-2, 3), (0, 7.0),
                                       (0, True), (0,), (0, 1, 2), 7, "ab", None], ids=repr)
    def test_bad_block_rejected(self, pairs):
        # before, (3, 1) and (2, 1) wrote nothing, (0, 100) wrote every row with
        # mx = 1 and failed inside numpy with mx = 2, as did (-2, 3) and (0, 7.0)
        for name, call, out, _ in self.calls():
            before = out.copy()
            with pytest.raises(ValueError, match=r"^pairs must be integers \(a, b\) with "):
                call(out, pairs)
            assert np.array_equal(out, before), name

    @pytest.mark.parametrize("rows,cols", [(5, 0), (0, 1), (1, 0), (0, -1)])
    def test_bad_output_shape_rejected(self, rows, cols):
        # a 20-row out for a 15-row result was accepted; so is no other shape now
        for name, call, out, argument in self.calls():
            wrong = np.zeros((out.shape[0] + rows, out.shape[1] + cols))
            with pytest.raises(ValueError, match=rf"^{argument}: step \("):
                call(wrong, (0, 7))
            assert not wrong.any(), name

    def test_fine_shape_the_step_does_not_divide(self):
        # an even row count has no space halving, an odd step count no time halving
        with pytest.raises(ValueError, match=r"^out: step \(2, 2\)"):
            transfer.restrict(np.ones((16, 16)), 2, 2, np.zeros((7, 8)), (0, 7))
        add_to = np.zeros((15, 17))
        with pytest.raises(ValueError, match=r"^add_to: step \(2, 1\)"):
            transfer.prolong(np.ones((15, 8)), 2, 1, add_to, (0, 7))
        assert not add_to.any()

    def test_numpy_integer_block_runs(self):
        fine = np.random.default_rng(9).standard_normal((15, 16))
        got = transfer.restrict(fine, 2, 2, np.zeros((7, 8)), (np.int64(0), np.int32(7)))
        assert np.array_equal(got, whole_restrict(fine, 2, 2))

    def test_space_transfers_check_their_block(self):
        fine, add_to = np.ones((15, 4)), np.zeros((15, 4))
        for pairs in [(3, 1), (0, 8), (0, 7.0)]:
            with pytest.raises(ValueError, match=r"^pairs must be integers"):
                transfer.restrict_space(fine, pairs)
            with pytest.raises(ValueError, match=r"^pairs must be integers"):
                transfer.prolong_space(np.ones((7, 4)), add_to, pairs)
        assert not add_to.any()
        # too few coarse rows, too many steps, an even fine row count
        for coarse_shape, fine_rows in [((6, 4), 15), ((7, 5), 15), ((7, 4), 14)]:
            coarse, add_to = np.ones(coarse_shape), np.zeros((fine_rows, 4))
            with pytest.raises(ValueError, match=r"^add_to "):
                transfer.prolong_space(coarse, add_to, (0, fine_rows // 2))
            assert not add_to.any()

    def test_one_calling_form(self):
        # the output and the block are required; only restrict_time's out is optional
        for fn in (transfer.restrict, transfer.prolong, transfer.restrict_space,
                   transfer.prolong_space):
            params = inspect.signature(fn).parameters.values()
            assert all(p.default is inspect.Parameter.empty for p in params), fn.__name__
