import numpy as np
import pytest

from oracles import group_arrays
from periodic import (cycle_matrix, discrete_low_frequencies, fourier_mode, harmonic_block,
                      operator_matrix, prolongation_matrix, restriction_matrix,
                      smoother_matrix, time_frequencies)
from stmg.core import CoarseningStrategy as CS
from stmg.lfa import (LfaConfig, _cycle_matrices, _levels, _scale, operator_symbol,
                      restriction_symbol, smoother_symbol)

#: the strategies' schedules and two more of scale (4, 2) that only the
#: schedule defines: time semi-coarsening first, and space semi-coarsening
#: then factor 4 in time; the single steps; and two-stage hierarchies of
#: scale (8, 4) and (16, 4), the k-grid analysis of NEW at depth 2
STEPS_UNDER_TEST = [CS.NEW, CS.ORIGINAL, ((2, 1), (2, 2)), ((1, 2), (4, 1)),
                    ((2, 1),), ((2, 2),), ((4, 1),), ((1, 2),),
                    ((4, 2), (2, 2)), ((4, 2), (4, 2))]
#: torus (n_t, n_x) of a schedule whose low time domain the 16x16 torus
#: samples only at zero; every other schedule runs on 16x16
TORUS = {((4, 2), (4, 2)): (32, 8)}


class TestSymbolConsistency:
    n_t = n_x = 16
    sigma = 0.7

    def all_freqs(self):
        return [(tt, tx) for tt in time_frequencies(self.n_t)
                for tx in time_frequencies(self.n_x)]

    def test_operator_symbol_every_mode(self):
        l = operator_matrix(self.n_t, self.n_x, self.sigma)
        for tt, tx in self.all_freqs():
            phi = fourier_mode(self.n_t, self.n_x, tt, tx)
            lam = operator_symbol(self.sigma, tt, tx)
            assert np.abs(l @ phi - lam * phi).max() < 1e-12

    def test_smoother_symbol_every_mode(self):
        s = smoother_matrix(self.n_t, self.n_x, self.sigma, 0.6)
        for tt, tx in self.all_freqs():
            phi = fourier_mode(self.n_t, self.n_x, tt, tx)
            lam = smoother_symbol(0.6, self.sigma, tt, tx)
            assert np.abs(s @ phi - lam * phi).max() < 1e-12

    def test_coarse_operator_symbols(self):
        # sigma scales by mt/mx**2: (2,2) halves it, (4,2) keeps it, (2,1) doubles it
        for mt, mx in [(2, 2), (4, 2), (2, 1)]:
            n_t, n_x = self.n_t // mt, self.n_x // mx
            lc = operator_matrix(n_t, n_x, self.sigma * mt / mx**2)
            for tt, tx in discrete_low_frequencies(self.n_t, self.n_x, (mt, mx)):
                phi = fourier_mode(n_t, n_x, mt * tt, mx * tx)
                lam = operator_symbol(self.sigma, tt, tx, mt, mx)
                assert np.abs(lc @ phi - lam * phi).max() < 1e-12

    def test_restriction_symbols(self):
        r22 = restriction_matrix(self.n_t, self.n_x, 2, 2)
        r42 = restriction_matrix(self.n_t, self.n_x, 4, 2)
        for tt, tx in self.all_freqs():
            phi = fourier_mode(self.n_t, self.n_x, tt, tx)
            c22 = fourier_mode(self.n_t // 2, self.n_x // 2, 2 * tt, 2 * tx)
            want22 = restriction_symbol(tt) * restriction_symbol(tx) * c22
            assert np.abs(r22 @ phi - want22).max() < 1e-12
            c42 = fourier_mode(self.n_t // 4, self.n_x // 2, 4 * tt, 2 * tx)
            want42 = (restriction_symbol(tt) * restriction_symbol(2 * tt)
                      * restriction_symbol(tx) * c42)
            assert np.abs(r42 @ phi - want42).max() < 1e-12

    def test_prolongation_expands_with_scaled_symbols(self):
        # P maps the coarse mode onto its eight companions with weights
        # mt * Rhat_k, the transfer scaling the cycles rely on
        p = prolongation_matrix(self.n_t, self.n_x, 4, 2)
        for tt, tx in [(np.pi / 8, np.pi / 4), (-np.pi / 8, -np.pi / 2 + np.pi / 8)]:
            t8, x8 = group_arrays(tt, tx, (4, 2))
            phic = fourier_mode(self.n_t // 4, self.n_x // 2, 4 * tt, 2 * tx)
            out = p @ phic
            for k in range(8):
                phik = fourier_mode(self.n_t, self.n_x, t8[k], x8[k])
                coeff = phik.conj() @ out / (self.n_t * self.n_x)
                want = 4 * (restriction_symbol(t8[k]) * restriction_symbol(2 * t8[k])
                            * restriction_symbol(x8[k]))
                assert abs(coeff - want) < 1e-12


class TestCycleHarmonicBlocks:
    # The schedules run in a loop rather than a parametrization, which
    # keeps one test per sigma; the assertion message names the schedule.
    @pytest.mark.parametrize("sigma", [0.1, 0.7, 10.0])
    def test_blocks_match_lfa_matrices(self, sigma):
        cfg = LfaConfig(sigma=sigma, omega=0.6, nu1=2, nu2=1, eta1=2, eta2=1)
        for steps in STEPS_UNDER_TEST:
            n_t, n_x = TORUS.get(steps, (16, 16))
            scale = _scale(steps)
            lows = discrete_low_frequencies(n_t, n_x, scale)
            dense = cycle_matrix(steps, n_t, n_x, sigma, 0.6, 2, 1, 2, 1)
            mats, singular, _, _ = _cycle_matrices(_levels(steps, cfg), sigma, 0.6,
                                                   *np.array(lows).T)
            assert mats.shape == (len(lows), scale[0] * scale[1], scale[0] * scale[1]), steps
            assert singular.sum() == 1, steps  # only the group of the zero mode
            for (tt, tx), mat, skip in zip(lows, mats, singular):
                if skip:
                    continue
                block = harmonic_block(dense, n_t, n_x, *group_arrays(tt, tx, scale))
                assert np.abs(block - mat).max() < 1e-12, steps

    def test_zero_mode_untouched_by_cycle(self):
        # the kernel mode of the singular periodic operator is invariant,
        # which is why the zero group is excluded from the analysis
        m = cycle_matrix(CS.NEW, 8, 8, 1.0, 0.5, 3, 3)
        const = np.ones(64)
        assert np.abs(m @ const - const).max() < 1e-10


class TestDiscreteFrequencies:
    def test_counts(self):
        lows = discrete_low_frequencies(16, 16, (4, 2))
        assert len(lows) == 4 * 8
        for tt, tx in lows:
            assert -np.pi / 4 < tt <= np.pi / 4 + 1e-12
            assert -np.pi / 2 < tx <= np.pi / 2 + 1e-12

    def test_time_frequency_range(self):
        th = time_frequencies(8)
        assert len(th) == 8
        assert th.min() == pytest.approx(-3 * np.pi / 4)
        assert th.max() == pytest.approx(np.pi)
