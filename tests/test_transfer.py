import numpy as np
import pytest

from oracles import dense_restriction_space, dense_restriction_time, dense_transfer_pair
from stmg.transfer import (prolong, prolong_space, prolong_time, restrict, restrict_space,
                           restrict_time)


def assembled_transfers(n_t, n_x, mt, mx):
    """Dense matrices of the library's restrict and prolong, column by column."""
    nc_t, nc_x = n_t // mt, (n_x + 1) // mx - 1
    r = np.stack([restrict(e.reshape(n_t, n_x), mt, mx).ravel()
                  for e in np.eye(n_t * n_x)], axis=1)
    p = np.stack([prolong(e.reshape(nc_t, nc_x), mt, mx).ravel()
                  for e in np.eye(nc_t * nc_x)], axis=1)
    return r, p


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
