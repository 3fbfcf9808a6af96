"""Fourier-symbol machinery for the space-time multigrid analysis.

Everything here operates on angular frequencies (theta_t, theta_x) in
(-pi, pi].  Per low frequency, a group of eight companion modes is built
by the frequency folding maps for factor-4 time and factor-2 space
coarsening; smoother, operator and transfer symbols assemble 8x8 complex
matrices whose spectral radii, maximized over the low-frequency domain,
predict the asymptotic convergence factor of the cycles.  A cycle's
matrix follows its coarsening schedule, ``core.SCHEDULES[strategy]``,
the same table the solver in ``cycles`` runs: that table is the one
place a strategy is defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import SCHEDULES, CoarseningStrategy
from .smoother import optimal_omega

#: coarse symbols with modulus below this are treated as non-invertible
#: and their frequency group is excluded from maximization
SINGULAR_TOL = 1e-12

_SQRT2 = math.sqrt(2.0)


class Frequency(NamedTuple):
    theta_t: float
    theta_x: float


class HarmonicGroup(NamedTuple):
    """Eight companion frequencies of one low frequency, in canonical order.

    Index i pairs time component i % 4 of [low, g4(low), g2(low),
    g2(g4(low))] with space component [low, g2(low)][i // 4].
    """

    theta_t: np.ndarray
    theta_x: np.ndarray


@dataclass(frozen=True)
class LfaConfig:
    """Parameters of one harmonic-space analysis."""

    sigma: float
    omega: float = 0.5
    nu1: int = 3
    nu2: int = 3
    eta1: int = 3
    eta2: int = 3
    resolution: int = 128

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not 0.0 < self.omega <= 1.0:
            raise ValueError("omega must lie in (0, 1]")
        if min(self.nu1, self.nu2, self.eta1, self.eta2) < 0:
            raise ValueError("sweep counts must be nonnegative")
        if self.resolution < 16 or self.resolution % 2 != 0:
            raise ValueError("resolution must be even and at least 16")


# ---------------------------------------------------------------------------
# frequency folding
# ---------------------------------------------------------------------------

def _sign(theta):
    # sign with the convention sign(0) = -1, so the folds stay inside
    # their stated codomains
    return np.where(np.asarray(theta) > 0, 1.0, -1.0)


def gamma2(theta):
    """Fold of factor-2 coarsening: theta - sign(theta)*pi on (-pi/2, pi/2]."""
    return theta - _sign(theta) * np.pi


def gamma4(theta):
    """Fold of factor-4 coarsening: theta - sign(theta)*pi/2 on (-pi/4, pi/4]."""
    return theta - _sign(theta) * (np.pi / 2)


def _group_arrays(theta_t, theta_x):
    """Companion frequencies for arrays of low frequencies: (..., 8) each."""
    tt = np.asarray(theta_t, dtype=float)
    tx = np.asarray(theta_x, dtype=float)
    times = np.stack([tt, gamma4(tt), gamma2(tt), gamma2(gamma4(tt))], axis=-1)
    xs = np.stack([tx, gamma2(tx)], axis=-1)
    t8 = np.concatenate([times, times], axis=-1)
    x8 = np.repeat(xs, 4, axis=-1)
    return t8, x8


def harmonic_group(theta_t: float, theta_x: float) -> HarmonicGroup:
    """The eight companion frequencies generated from one low frequency."""
    eps = 1e-12
    if not (-np.pi / 4 - eps < theta_t <= np.pi / 4 + eps):
        raise ValueError(f"low time frequency {theta_t} outside (-pi/4, pi/4]")
    if not (-np.pi / 2 - eps < theta_x <= np.pi / 2 + eps):
        raise ValueError(f"low space frequency {theta_x} outside (-pi/2, pi/2]")
    t8, x8 = _group_arrays(theta_t, theta_x)
    return HarmonicGroup(theta_t=t8, theta_x=x8)


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def smoother_symbol(omega, sigma, theta_t, theta_x, mt: int = 1, mx: int = 1):
    """Fourier symbol of one damped block-Jacobi sweep at scale (mt, mx)."""
    cx = 1.0 + 2.0 * sigma * mt / mx**2 * (1.0 - np.cos(mx * np.asarray(theta_x)))
    return 1.0 - omega + omega * np.exp(-1j * mt * np.asarray(theta_t)) / cx


def operator_symbol(sigma, theta_t, theta_x, mt: int = 1, mx: int = 1):
    """Symbol of the space-time operator, rediscretized at scale (mt, mx).

    The coarse symbols take the fine-level frequencies as arguments; the
    level's own anisotropy ratio is mt/mx**2 times sigma.
    """
    tt = np.asarray(theta_t)
    tx = np.asarray(theta_x)
    return 1.0 - np.exp(-1j * mt * tt) + 2.0 * sigma * mt / mx**2 * (1.0 - np.cos(mx * tx))


def restriction_symbol(theta):
    """Per-direction full-weighting symbol (1 + cos(theta)) / 2."""
    return (1.0 + np.cos(np.asarray(theta))) / 2.0


# ---------------------------------------------------------------------------
# smoothing factor and its worst modes
# ---------------------------------------------------------------------------

def _space_dominates(strategy: CoarseningStrategy, omega: float, sigma: float) -> bool:
    c = 1.0 + 2.0 * sigma
    if strategy is CoarseningStrategy.FULL:
        return omega <= 2.0 * c / (c * c + 2.0 * c - 1.0)
    if strategy is CoarseningStrategy.NEW:
        if c > _SQRT2:
            return False
        bound = (_SQRT2 * c * c - 2.0 * c) / ((_SQRT2 - 1.0) * c * c - 2.0 * c + 1.0)
        return omega <= bound
    raise ValueError(strategy)


def worst_smoothing_mode(strategy: CoarseningStrategy, omega: float,
                         sigma: float) -> Frequency:
    """High frequency maximizing the smoother symbol modulus.

    For the mixed strategies the answer switches between the space- and
    time-dominated candidates depending on whether (c, omega) falls in
    the corresponding dominance region.
    """
    if not 0.0 < omega <= 1.0:
        raise ValueError("omega must lie in (0, 1]")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if strategy is CoarseningStrategy.TIME2:
        return Frequency(np.pi / 2, 0.0)
    if strategy is CoarseningStrategy.TIME4:
        return Frequency(np.pi / 4, 0.0)
    if strategy is CoarseningStrategy.SPACE:
        return Frequency(0.0, np.pi / 2)
    if strategy is CoarseningStrategy.FULL:
        if _space_dominates(strategy, omega, sigma):
            return Frequency(0.0, np.pi / 2)
        return Frequency(np.pi / 2, 0.0)
    if strategy is CoarseningStrategy.NEW:
        if _space_dominates(strategy, omega, sigma):
            return Frequency(0.0, np.pi / 2)
        return Frequency(np.pi / 4, 0.0)
    raise ValueError(f"no smoothing factor for strategy {strategy}")


def smoothing_factor(strategy: CoarseningStrategy, omega: float, sigma: float) -> float:
    """Worst smoother symbol modulus over the strategy's high frequencies."""
    mode = worst_smoothing_mode(strategy, omega, sigma)
    return float(abs(smoother_symbol(omega, sigma, mode.theta_t, mode.theta_x)))


# ---------------------------------------------------------------------------
# harmonic-space matrices
# ---------------------------------------------------------------------------

def _cycle_matrices(steps, cfg: LfaConfig, tt: np.ndarray, tx: np.ndarray):
    """Batched harmonic matrices of one cycle over ``steps``: (N, 8, 8).

    Level k has the scale (Mt, Mx) of the steps before it.  The fine
    level takes ``nu1``/``nu2`` sweeps, each intermediate level one
    ``eta1``/``eta2``-smoothed cycle from zero, and the coarsest level,
    a single mode, is inverted.  Restriction multiplies one full-weighting
    symbol per halving and P = mt * R^T.  Also returns the mask of groups
    where some coarse symbol is below ``SINGULAR_TOL``.
    """
    scales = [(1, 1)]
    for mt, mx in steps:
        scales.append((scales[-1][0] * mt, scales[-1][1] * mx))
    if scales[-1] != (4, 2):
        raise ValueError(f"schedule {steps} must coarsen by (4, 2) in all, "
                         f"not {scales[-1]}: the eight-mode group resolves no other scale")
    # level (Mt, Mx) keeps (4/Mt)*(2/Mx) of the eight companions, and
    # companion i aliases onto its kept mode folds[k][i]
    kept, folds = [], []
    for mt, mx in scales:
        nt, nx = 4 // mt, 2 // mx
        kept.append([(j // nt) * 4 + j % nt for j in range(nt * nx)])
        folds.append(np.array([(i // 4) % nx * nt + (i % 4) % nt for i in range(8)]))
    t8, x8 = _group_arrays(tt, tx)
    freqs = [(t8[..., k], x8[..., k]) for k in kept]
    ls = [operator_symbol(cfg.sigma, t, x, *scale) for (t, x), scale in zip(freqs, scales)]
    singular = np.zeros(t8.shape[:-1], dtype=bool)
    for l in ls[1:]:
        singular |= np.any(np.abs(l) < SINGULAR_TOL, axis=-1)
    ls = ls[:1] + [np.where(singular[..., None], 1.0, l) for l in ls[1:]]

    weights = []
    for (t, x), (mt0, mx0), (mt, mx) in zip(freqs, scales, steps):
        w = 1.0
        for k in range(mt.bit_length() - 1):
            w = w * restriction_symbol(mt0 * 2**k * t)
        if mx == 2:
            w = w * restriction_symbol(mx0 * x)
        weights.append(w)

    # the coarsest level is one mode, so its correction P L_c^{-1} R L is
    # a rank-one outer product; a broadcast product rather than `@` keeps
    # its rounding independent of the BLAS build
    mt = steps[-1][0]
    w = weights[-1]
    corr = (mt * w / ls[-1])[..., :, None] * (w * ls[-2])[..., None, :]
    for k in range(len(steps) - 1, 0, -1):
        s = smoother_symbol(cfg.omega, cfg.sigma, *freqs[k], *scales[k])
        eye = np.eye(len(kept[k]), dtype=complex)
        smoothed = (s ** cfg.eta2)[..., :, None] * (eye - corr) * (s ** cfg.eta1)[..., None, :]
        approx = (eye - smoothed) / ls[k][..., None, :]
        onehot = np.arange(len(kept[k]))[:, None] == folds[k][kept[k - 1]][None, :]
        r = onehot.astype(float) * weights[k - 1][..., None, :]
        p = steps[k - 1][0] * np.swapaxes(r, -1, -2)
        corr = p @ approx @ (r * ls[k - 1][..., None, :])
    s = smoother_symbol(cfg.omega, cfg.sigma, t8, x8)
    np.subtract(np.eye(8, dtype=complex), corr, out=corr)  # in place: one fewer (N, 8, 8) buffer
    return (s ** cfg.nu2)[..., :, None] * corr * (s ** cfg.nu1)[..., None, :], singular


def harmonic_matrix(strategy: CoarseningStrategy, cfg: LfaConfig,
                    low: Frequency) -> np.ndarray:
    """8x8 harmonic matrix of the strategy's cycle at one low frequency."""
    mats, singular = _cycle_matrices(SCHEDULES[strategy], cfg, low.theta_t, low.theta_x)
    if singular:
        raise ZeroDivisionError(f"coarse symbol singular at {low}")
    return mats


# ---------------------------------------------------------------------------
# spectral radius over the low-frequency domain
# ---------------------------------------------------------------------------

def low_frequency_grid(resolution: int):
    """Half-cell-offset samples of (-pi/4, pi/4] x (-pi/2, pi/2].

    The offset avoids the singular zero frequency and the domain
    boundaries; the grid is symmetric under reflection of either axis.
    """
    wt = (np.pi / 2) / resolution
    wx = np.pi / resolution
    tt = -np.pi / 4 + (np.arange(resolution) + 0.5) * wt
    tx = -np.pi / 2 + (np.arange(resolution) + 0.5) * wx
    return tt, tx


def spectral_radius_batch(mats: np.ndarray) -> np.ndarray:
    """Spectral radii of a stack of small complex matrices, shape (..., n, n) -> (...)."""
    return np.abs(np.linalg.eigvals(mats)).max(axis=-1)


@dataclass(frozen=True)
class RhoBarResult:
    value: float
    excluded: int
    argmax: Frequency


def rho_bar_details(strategy: CoarseningStrategy, cfg: LfaConfig) -> RhoBarResult:
    """Maximize the harmonic-matrix spectral radius over the sampled low domain.

    The sweep covers the positive-frequency quadrant only: the symbol
    moduli are even in both angles, so on the symmetric offset grid the
    other three quadrants repeat its spectra (verified by tests).
    """
    tg, xg = low_frequency_grid(cfg.resolution)
    tt, tx = np.meshgrid(tg[tg > 0], xg[xg > 0], indexing="ij")
    radii, singular = spectral_radius_over_groups(strategy, cfg, tt.ravel(), tx.ravel())
    k = int(np.argmax(radii))
    return RhoBarResult(
        value=float(radii[k]),
        excluded=int(singular.sum()) * 4,
        argmax=Frequency(float(tt.ravel()[k]), float(tx.ravel()[k])),
    )


def spectral_radius_bar(strategy: CoarseningStrategy, cfg: LfaConfig) -> float:
    """Predicted asymptotic convergence factor of the chosen cycle."""
    return rho_bar_details(strategy, cfg).value


def spectral_radius_over_groups(strategy: CoarseningStrategy, cfg: LfaConfig,
                                theta_t: np.ndarray, theta_x: np.ndarray):
    """Spectral radii at explicit low frequencies; singular groups get -inf."""
    mats, singular = _cycle_matrices(SCHEDULES[strategy], cfg, theta_t, theta_x)
    return np.where(singular, -np.inf, spectral_radius_batch(mats)), singular


# ---------------------------------------------------------------------------
# numeric damping optimization
# ---------------------------------------------------------------------------

_SCAN_POINTS = 64
_GOLDEN_TOL = 1e-5
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def omega_opt_numeric(strategy: CoarseningStrategy, cfg: LfaConfig):
    """Damping parameter minimizing the cycle convergence factor.

    Runs a 64-point scan over (0, 1] followed by golden-section refinement
    to a bracket of 1e-5; ties resolve toward the smallest omega.  The
    omega stored in ``cfg`` is ignored.  Returns (omega_opt, rho_bar).
    """
    def objective(om: float) -> float:
        return rho_bar_details(strategy, replace(cfg, omega=om)).value

    omegas = np.arange(1, _SCAN_POINTS + 1) / _SCAN_POINTS
    values = np.array([objective(om) for om in omegas])
    i = int(np.argmin(values))
    lo = omegas[i - 1] if i > 0 else omegas[0] / 2
    hi = omegas[i + 1] if i + 1 < len(omegas) else 1.0
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > _GOLDEN_TOL:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = objective(x2)
    candidates = [(f1, x1), (f2, x2), (values[i], omegas[i])]
    best = min(candidates, key=lambda p: (p[0], p[1]))
    return float(best[1]), float(best[0])


def resolve_omega(mode, strategy: CoarseningStrategy, cfg: LfaConfig) -> float:
    """Map an omega mode ('0.5' | 'theorem' | 'numeric' | number) to a value.

    The theorem value uses the smoother analysis of the strategy's own
    fine-level coarsening: full space-time coarsening for the original
    cycle, direct (4,2) coarsening for the new one.
    """
    if isinstance(mode, (int, float)):
        return float(mode)
    if mode == "theorem":
        smoothing = {
            CoarseningStrategy.ORIGINAL: CoarseningStrategy.FULL,
            CoarseningStrategy.NEW: CoarseningStrategy.NEW,
        }.get(strategy, strategy)
        return optimal_omega(smoothing, cfg.sigma)
    if mode == "numeric":
        return omega_opt_numeric(strategy, cfg)[0]
    try:
        return float(mode)
    except (TypeError, ValueError):
        raise ValueError(f"unrecognized omega mode {mode!r}") from None


# ---------------------------------------------------------------------------
# action on the low-frequency input
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LowModeMap:
    """Scattered |coefficient| map over the full frequency square."""

    theta_t: np.ndarray
    theta_x: np.ndarray
    modulus: np.ndarray


def _scatter_first_columns(mats: np.ndarray, t8: np.ndarray, x8: np.ndarray,
                           singular: np.ndarray) -> LowModeMap:
    coeffs = np.abs(mats[..., :, 0])
    coeffs = np.where(singular[..., None], 0.0, coeffs)
    return LowModeMap(theta_t=t8.ravel(), theta_x=x8.ravel(), modulus=coeffs.ravel())


def low_mode_action(strategy: CoarseningStrategy, cfg: LfaConfig) -> LowModeMap:
    """Apply the cycle matrix to the all-ones low-frequency input.

    Each sampled low frequency contributes the unit coefficient on its
    low component and zero on the seven companions, so the output
    coefficients are the first matrix column; their moduli are scattered
    onto the companion frequencies across the full square.

    The cycle applies ``cfg.nu1`` pre- and ``cfg.nu2`` post-smoothing
    sweeps, and the peak moves with them: for the NEW cycle the
    least-damped low mode sits on the boundary |theta_t| = pi/4 only
    when nu1 + nu2 <= 2; more sweeps pull it inside the low band.
    """
    tg, xg = low_frequency_grid(cfg.resolution)
    tt, tx = np.meshgrid(tg, xg, indexing="ij")
    tt = tt.ravel()
    tx = tx.ravel()
    mats, singular = _cycle_matrices(SCHEDULES[strategy], cfg, tt, tx)
    t8, x8 = _group_arrays(tt, tx)
    return _scatter_first_columns(mats, t8, x8, singular)
