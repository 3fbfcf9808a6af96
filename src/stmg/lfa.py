"""Fourier-symbol machinery for the space-time multigrid analysis.

Everything here operates on angular frequencies (theta_t, theta_x) in
(-pi, pi].  Per low frequency, a group of eight companion modes is built
by the frequency folding maps for factor-4 time and factor-2 space
coarsening; smoother, operator and transfer symbols assemble 8x8 complex
matrices whose spectral radii, maximized over the low-frequency domain,
predict the asymptotic convergence factor of the cycles.  A cycle's
matrix follows its coarsening schedule, ``core.SCHEDULES[strategy]``,
the same table the solver in ``cycles`` runs: that table is the one
place a strategy is defined.  The smoothing analysis takes a single
coarsening step (mt, mx), such as a schedule's first step.

The sampled maximum of the spectral radius, rho_bar, is exact but
eigen-solves only the few groups that can reach it.  Four batched
squarings give every group a rigorous upper bound on its radius; the
eight groups with the largest bounds are eigen-solved first, and any
other group whose bound, with a small margin, lies below their largest
radius cannot hold the maximum and is skipped.  Every reported radius
still comes from ``eigvals``, so the value, its argmax and the excluded
count are those of a sweep over every group.

The numeric damping search runs such a sweep only where its value could
change the result.  rho_bar(omega) is a maximum over groups, so the
radius of one group at omega bounds it from below, and a group's radius
does not depend on the groups eigen-solved with it: at the argmax
frequencies of earlier sweeps, ``spectral_radius_over_groups`` gives the
very values a sweep would.  A point whose bound already exceeds the best
value found cannot be picked, so skipping its sweep leaves the result
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import SCHEDULES, CoarseningStrategy, check_sigma
from .smoother import _crossing, optimal_omega

#: coarse symbols with modulus below this are treated as non-invertible
#: and their frequency group is excluded from maximization
SINGULAR_TOL = 1e-12


class Frequency(NamedTuple):
    theta_t: float
    theta_x: float


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
        check_sigma(self.sigma)
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

def worst_smoothing_mode(step, omega: float, sigma: float) -> Frequency:
    """High frequency maximizing the smoother symbol modulus for ``step`` = (mt, mx).

    The answer is the space mode (0, pi/mx) while omega is at most the
    crossing of the space- and time-dominated branches, and the time mode
    (pi/mt, 0) above it.
    """
    if not 0.0 < omega <= 1.0:
        raise ValueError("omega must lie in (0, 1]")
    check_sigma(sigma)
    mt, mx = step
    if omega <= _crossing(step, sigma):
        return Frequency(0.0, np.pi / mx)
    return Frequency(np.pi / mt, 0.0)


def smoothing_factor(step, omega: float, sigma: float) -> float:
    """Worst smoother symbol modulus over the high frequencies of ``step`` = (mt, mx)."""
    mode = worst_smoothing_mode(step, omega, sigma)
    return float(abs(smoother_symbol(omega, sigma, mode.theta_t, mode.theta_x)))


# ---------------------------------------------------------------------------
# harmonic-space matrices
# ---------------------------------------------------------------------------

def _cycle_matrices(steps, cfg: LfaConfig, t8: np.ndarray, x8: np.ndarray):
    """Batched harmonic matrices (N, 8, 8) of one cycle at the companions ``t8``/``x8``.

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
    """Spectral radii of a stack of small complex matrices, shape (..., n, n) -> (...).

    Every radius that ``rho_bar_details`` reports comes from here; the
    squaring bound of ``_radius_bound`` only decides which groups need it.
    """
    return np.abs(np.linalg.eigvals(mats)).max(axis=-1)


#: batched squarings per bound, which then reads ||B**16||_F**(1/16)
_SQUARINGS = 4
#: groups with the largest bounds eigen-solved first, for the pruning threshold
_SEEDS = 8
#: relative margin on each bound against the eigvals rounding of the
#: threshold, about eps**(1/m) for a near-defective eigenvalue of multiplicity m <= 4
_MARGIN = 1e-3


def _radius_bound(mats: np.ndarray) -> np.ndarray:
    """Rigorous upper bounds on the spectral radii of a stack, shape (..., n, n) -> (...).

    With B = M / ||M||_F and k = 2**_SQUARINGS, rho(M) = ||M||_F rho(B)
    and rho(B)**k <= ||B**k||_F.  Each squaring of a matrix with
    Frobenius norm at most one adds at most n eps in that norm and at most
    doubles the error before it, so k * n * _SQUARINGS * eps added to the
    computed ||B**k||_F covers the rounding of the products, and any
    underflow in them.  The stack is first scaled by its largest entry,
    so the norm neither overflows nor underflows; the floors keep the
    zero matrix finite.
    """
    n = mats.shape[-1]
    k = 2 ** _SQUARINGS
    peak = np.maximum(np.abs(mats).max(axis=(-2, -1), keepdims=True), np.finfo(float).tiny)
    b = mats / peak
    norm = np.maximum(np.linalg.norm(b, axis=(-2, -1), keepdims=True), 1.0)
    b /= norm
    for _ in range(_SQUARINGS):
        b = b @ b
    slack = k * n * _SQUARINGS * np.finfo(float).eps
    return (peak * norm)[..., 0, 0] * (np.linalg.norm(b, axis=(-2, -1)) + slack) ** (1.0 / k)


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

    Only groups that can hold the maximum are eigen-solved.  The
    ``_SEEDS`` groups with the largest ``_radius_bound`` go first; any
    other group is eigen-solved only if its bound, raised by ``_MARGIN``,
    reaches their largest radius.  A skipped group's radius is strictly
    below the maximum, so the result equals that of eigen-solving every
    group, ``spectral_radius_over_groups``, bit for bit.  A NaN bound is
    never skipped, so eigvals rejects it as it would in a full sweep.
    """
    tg, xg = low_frequency_grid(cfg.resolution)
    tt, tx = np.meshgrid(tg[tg > 0], xg[xg > 0], indexing="ij")
    tt, tx = tt.ravel(), tx.ravel()
    mats, singular = _cycle_matrices(SCHEDULES[strategy], cfg, *_group_arrays(tt, tx))
    bound = np.where(singular, -np.inf, _radius_bound(mats))
    radii = np.full(tt.shape, -np.inf)
    seeds = np.argpartition(bound, -_SEEDS)[-_SEEDS:]
    seeds = seeds[~singular[seeds]]
    radii[seeds] = spectral_radius_batch(mats[seeds])
    rest = ~(bound * (1.0 + _MARGIN) < radii.max()) & ~singular
    rest[seeds] = False
    radii[rest] = spectral_radius_batch(mats[rest])
    k = int(np.argmax(radii))
    return RhoBarResult(
        value=float(radii[k]),
        excluded=int(singular.sum()) * 4,
        argmax=Frequency(float(tt[k]), float(tx[k])),
    )


def spectral_radius_bar(strategy: CoarseningStrategy, cfg: LfaConfig) -> float:
    """Predicted asymptotic convergence factor of the chosen cycle."""
    return rho_bar_details(strategy, cfg).value


def spectral_radius_over_groups(strategy: CoarseningStrategy, cfg: LfaConfig,
                                theta_t: np.ndarray, theta_x: np.ndarray):
    """Spectral radii at explicit low frequencies; singular groups get -inf."""
    mats, singular = _cycle_matrices(SCHEDULES[strategy], cfg, *_group_arrays(theta_t, theta_x))
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

    The result is that of sweeping every scan and golden-section point,
    but a full ``rho_bar_details`` sweep runs only where its value could
    change it.  rho_bar(omega) is a maximum over groups, so the radius of
    any one group bounds it from below; the groups used are the argmax
    frequencies of the sweeps run so far, and ``spectral_radius_over_groups``
    computes their radii bit for bit as a sweep would.  The scan sweeps
    omega = 1/2, then always the unswept point with the smallest bound,
    and stops once no bound lies below the best value (an equal bound
    rules out only a point above the current argmin, which wins the tie).
    A golden-section point whose bound alone decides the next comparison
    against it is discarded by that comparison unswept; its bound stands
    in for its value and is never the final pick.
    """
    probes = []  # argmax frequencies of the sweeps so far

    def sweep(om: float) -> float:
        res = rho_bar_details(strategy, replace(cfg, omega=om))
        if res.argmax not in probes:
            probes.append(res.argmax)
        return res.value

    def bound(om: float, first: int = 0) -> float:
        """Lower bound on rho_bar(om): the largest radius at ``probes[first:]``."""
        if first == len(probes):
            return -math.inf
        t, x = (np.array(a) for a in zip(*probes[first:]))
        radii, _ = spectral_radius_over_groups(strategy, replace(cfg, omega=om), t, x)
        return float(radii.max())

    omegas = np.arange(1, _SCAN_POINTS + 1) / _SCAN_POINTS
    index = np.arange(_SCAN_POINTS)
    values = np.full(_SCAN_POINTS, -np.inf)  # a lower bound, exact once swept
    seen = np.zeros(_SCAN_POINTS, dtype=int)  # probes behind each bound
    swept = np.zeros(_SCAN_POINTS, dtype=bool)
    j = _SCAN_POINTS // 2 - 1  # the first sweep is at omega = 1/2
    while True:
        if seen[j] < len(probes):  # tighten a stale bound before sweeping
            values[j] = max(values[j], bound(omegas[j], seen[j]))
            seen[j] = len(probes)
        else:
            values[j] = sweep(omegas[j])
            swept[j] = True
        i = int(np.argmin(np.where(swept, values, np.inf)))
        open_ = ~swept & ((values < values[i]) | (values == values[i]) & (index < i))
        if not open_.any():
            break
        j = int(index[open_][np.argmin(values[open_])])

    def refine(om: float, limit: float, ties: bool) -> float:
        """rho_bar(om), or its bound if that is above ``limit`` (or equal, with ``ties``)."""
        b = bound(om)
        return b if b > limit or ties and b == limit else sweep(om)

    lo = omegas[i - 1] if i > 0 else omegas[0] / 2
    hi = omegas[i + 1] if i + 1 < len(omegas) else 1.0
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1 = sweep(x1)
    f2 = refine(x2, f1, True)
    while hi - lo > _GOLDEN_TOL:
        if f1 <= f2:  # the new x1 goes next, unswept, if its bound exceeds f2
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = refine(x1, f2, False)
        else:  # the new x2 goes next, unswept, if its bound reaches f1
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = refine(x2, f1, True)
    candidates = [(f1, x1), (f2, x2), (values[i], omegas[i])]
    best = min(candidates, key=lambda p: (p[0], p[1]))
    return float(best[1]), float(best[0])


def resolve_omega(mode, strategy: CoarseningStrategy, cfg: LfaConfig) -> float:
    """Map an omega mode ('0.5' | 'theorem' | 'numeric' | number) to a value.

    The theorem value is the optimal damping of the first step of
    ``core.SCHEDULES[strategy]``, the coarsening of the fine level.
    """
    if isinstance(mode, (int, float)):
        return float(mode)
    if mode == "theorem":
        return optimal_omega(SCHEDULES[strategy][0], cfg.sigma)
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
    t8, x8 = _group_arrays(tt.ravel(), tx.ravel())
    mats, singular = _cycle_matrices(SCHEDULES[strategy], cfg, t8, x8)
    return _scatter_first_columns(mats, t8, x8, singular)
