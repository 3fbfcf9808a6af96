"""Fourier-symbol machinery for the space-time multigrid analysis.

Everything here operates on angular frequencies (theta_t, theta_x) in
(-pi, pi].  Per low frequency, a group of eight companion modes is built
by the frequency folding maps for factor-4 time and factor-2 space
coarsening; smoother, operator and transfer symbols assemble 8x8 complex
matrices whose spectral radii, maximized over the low-frequency domain,
predict the asymptotic convergence factor of the cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import CoarseningStrategy
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

def smoother_symbol(omega, sigma, theta_t, theta_x):
    """Fourier symbol of one damped block-Jacobi sweep."""
    cx = 1.0 + 2.0 * sigma * (1.0 - np.cos(theta_x))
    return 1.0 - omega + omega * np.exp(-1j * np.asarray(theta_t)) / cx


def operator_symbol(sigma, theta_t, theta_x, mt: int = 1, mx: int = 1):
    """Symbol of the space-time operator, rediscretized at scale (mt, mx).

    The coarse symbols take the fine-level frequencies as arguments; the
    level's own anisotropy ratio is mt/mx**2 times sigma.
    """
    tt = np.asarray(theta_t)
    tx = np.asarray(theta_x)
    if (mt, mx) == (1, 1):
        return 1.0 - np.exp(-1j * tt) + 2.0 * sigma * (1.0 - np.cos(tx))
    if (mt, mx) == (2, 2):
        return 1.0 - np.exp(-2j * tt) + sigma * (1.0 - np.cos(2.0 * tx))
    if (mt, mx) == (4, 2):
        return 1.0 - np.exp(-4j * tt) + 2.0 * sigma * (1.0 - np.cos(2.0 * tx))
    raise ValueError(f"unsupported operator scale ({mt}, {mx})")


def restriction_symbol(theta):
    """Per-direction full-weighting symbol (1 + cos(theta)) / 2."""
    return (1.0 + np.cos(np.asarray(theta))) / 2.0


def _mid_smoother_symbol(omega, sigma, theta_t2, theta_x2):
    """Block-Jacobi symbol on the (2tau, 2h) level; arguments are doubled angles."""
    return 1.0 - omega + omega * np.exp(-1j * np.asarray(theta_t2)) / (
        1.0 + sigma * (1.0 - np.cos(theta_x2)))


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

#: coarse-time class of each companion: components 0, 2 fold onto the low
#: coarse time frequency, components 1, 3 onto its factor-4 companion
_TIME_CLASS = np.array([0, 1, 0, 1, 0, 1, 0, 1])


def _matrices_new(cfg: LfaConfig, tt: np.ndarray, tx: np.ndarray):
    """Batched two-grid matrices of the direct (4,2) cycle: (N, 8, 8)."""
    t8, x8 = _group_arrays(tt, tx)
    s = smoother_symbol(cfg.omega, cfg.sigma, t8, x8)
    l = operator_symbol(cfg.sigma, t8, x8)
    r42 = restriction_symbol(t8) * restriction_symbol(2.0 * t8) * restriction_symbol(x8)
    l4 = operator_symbol(cfg.sigma, tt, tx, 4, 2)
    singular = np.abs(l4) < SINGULAR_TOL
    l4safe = np.where(singular, 1.0, l4)
    # I - P L4^{-1} R L with P = 4 R^T: a rank-one update per group
    mid = np.broadcast_to(np.eye(8, dtype=complex), t8.shape + (8,)).copy()
    mid -= (4.0 * r42 / l4safe[..., None])[..., :, None] * (r42 * l)[..., None, :]
    mats = (s ** cfg.nu2)[..., :, None] * mid * (s ** cfg.nu1)[..., None, :]
    return mats, singular


def _matrices_original(cfg: LfaConfig, tt: np.ndarray, tx: np.ndarray):
    """Batched three-grid matrices of the full-then-time cycle: (N, 8, 8)."""
    t8, x8 = _group_arrays(tt, tx)
    s = smoother_symbol(cfg.omega, cfg.sigma, t8, x8)
    l = operator_symbol(cfg.sigma, t8, x8)
    onehot = (np.arange(2)[:, None] == _TIME_CLASS[None, :]).astype(float)
    r22 = onehot * (restriction_symbol(t8) * restriction_symbol(x8))[..., None, :]
    p22 = 2.0 * np.swapaxes(r22, -1, -2)
    tc = np.stack([np.asarray(tt, dtype=float), gamma4(tt)], axis=-1)
    txc = np.asarray(tx, dtype=float)[..., None]
    l2 = operator_symbol(cfg.sigma, tc, txc, 2, 2)
    s2 = _mid_smoother_symbol(cfg.omega, cfg.sigma, 2.0 * tc, 2.0 * txc)
    r21 = restriction_symbol(2.0 * tc)
    l4 = operator_symbol(cfg.sigma, tt, tx, 4, 2)
    singular = (np.abs(l4) < SINGULAR_TOL) | np.any(np.abs(l2) < SINGULAR_TOL, axis=-1)
    l4safe = np.where(singular, 1.0, l4)
    l2safe = np.where(singular[..., None], 1.0, l2)
    eye2 = np.broadcast_to(np.eye(2, dtype=complex), tc.shape + (2,)).copy()
    # one V-cycle from zero initial guess approximating the (2tau,2h) inverse
    inner = eye2 - (2.0 * r21 / l4safe[..., None])[..., :, None] * (r21 * l2safe)[..., None, :]
    approx = eye2 - (s2 ** cfg.eta2)[..., :, None] * inner * (s2 ** cfg.eta1)[..., None, :]
    approx = approx / l2safe[..., None, :]
    cgc = p22 @ approx @ (r22 * l[..., None, :])
    mid = np.broadcast_to(np.eye(8, dtype=complex), t8.shape + (8,)).copy() - cgc
    mats = (s ** cfg.nu2)[..., :, None] * mid * (s ** cfg.nu1)[..., None, :]
    return mats, singular


def _cycle_matrices(strategy: CoarseningStrategy, cfg: LfaConfig,
                    tt: np.ndarray, tx: np.ndarray):
    if strategy is CoarseningStrategy.NEW:
        return _matrices_new(cfg, tt, tx)
    if strategy is CoarseningStrategy.ORIGINAL:
        return _matrices_original(cfg, tt, tx)
    raise ValueError(f"no cycle matrix for strategy {strategy}")


def two_grid_matrix(cfg: LfaConfig, low: Frequency) -> np.ndarray:
    """8x8 harmonic matrix of the direct (4,2) two-grid cycle at one low frequency."""
    mats, singular = _matrices_new(cfg, np.asarray(low.theta_t), np.asarray(low.theta_x))
    if singular:
        raise ZeroDivisionError(f"coarse symbol singular at {low}")
    return mats


def three_grid_matrix(cfg: LfaConfig, low: Frequency) -> np.ndarray:
    """8x8 harmonic matrix of the three-level original cycle at one low frequency."""
    mats, singular = _matrices_original(cfg, np.asarray(low.theta_t), np.asarray(low.theta_x))
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


def _radii_on_grid(strategy: CoarseningStrategy, cfg: LfaConfig,
                   tt: np.ndarray, tx: np.ndarray):
    mats, singular = _cycle_matrices(strategy, cfg, tt, tx)
    radii = spectral_radius_batch(mats)
    radii = np.where(singular, -np.inf, radii)
    return radii, singular


def rho_bar_details(strategy: CoarseningStrategy, cfg: LfaConfig,
                    use_symmetry: bool = True) -> RhoBarResult:
    """Maximize the harmonic-matrix spectral radius over the sampled low domain.

    ``use_symmetry`` restricts the sweep to the positive-frequency quadrant;
    the symbol moduli are even in both angles, so on the symmetric offset
    grid this changes nothing but the work (verified by tests).
    """
    tg, xg = low_frequency_grid(cfg.resolution)
    if use_symmetry:
        tg = tg[tg > 0]
        xg = xg[xg > 0]
    tt, tx = np.meshgrid(tg, xg, indexing="ij")
    radii, singular = _radii_on_grid(strategy, cfg, tt.ravel(), tx.ravel())
    k = int(np.argmax(radii))
    scale = 4 if use_symmetry else 1
    return RhoBarResult(
        value=float(radii[k]),
        excluded=int(singular.sum()) * scale,
        argmax=Frequency(float(tt.ravel()[k]), float(tx.ravel()[k])),
    )


def spectral_radius_bar(strategy: CoarseningStrategy, cfg: LfaConfig) -> float:
    """Predicted asymptotic convergence factor of the chosen cycle."""
    return rho_bar_details(strategy, cfg).value


def spectral_radius_over_groups(strategy: CoarseningStrategy, cfg: LfaConfig,
                                theta_t: np.ndarray, theta_x: np.ndarray):
    """Spectral radii at explicit low frequencies; singular groups get -inf."""
    radii, singular = _radii_on_grid(
        strategy, cfg, np.asarray(theta_t, dtype=float), np.asarray(theta_x, dtype=float))
    return radii, singular


# ---------------------------------------------------------------------------
# numeric damping optimization
# ---------------------------------------------------------------------------

_SCAN_POINTS = 64
_GOLDEN_TOL = 1e-5
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def omega_opt_numeric(strategy: CoarseningStrategy, cfg: LfaConfig,
                      use_symmetry: bool = True):
    """Damping parameter minimizing the cycle convergence factor.

    Runs a 64-point scan over (0, 1] followed by golden-section refinement
    to a bracket of 1e-5; ties resolve toward the smallest omega.  The
    omega stored in ``cfg`` is ignored.  Returns (omega_opt, rho_bar).
    """
    def objective(om: float) -> float:
        return rho_bar_details(strategy, replace(cfg, omega=om), use_symmetry).value

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
    mats, singular = _cycle_matrices(strategy, cfg, tt, tx)
    t8, x8 = _group_arrays(tt, tx)
    return _scatter_first_columns(mats, t8, x8, singular)
