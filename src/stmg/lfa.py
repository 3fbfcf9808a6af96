"""Fourier-symbol machinery for the space-time multigrid analysis.

Everything here operates on angular frequencies (theta_t, theta_x) in
(-pi, pi].  A strategy is a stage's (mt, mx) steps.  A cycle matrix walks
the stage's (step, sweeps) levels of ``core.stage_levels``, the list that
``cycles.plan_levels`` runs, at one damping or one per group, on one path.
The product of the steps is the total scale (Mt, Mx).  Per low frequency,
one fold rule builds the Mt time and Mx space companions that alias onto
it on the coarsest level, and their product is its group of Mt*Mx modes,
eight for both strategies; smoother, operator and transfer symbols
assemble their harmonic matrices, whose spectral radii, maximized over the
low domain (-pi/Mt, pi/Mt] x (-pi/Mx, pi/Mx], predict the asymptotic
convergence factor of the cycles.  The smoothing theorem lives here too:
the closed-form optimal damping, the worst high mode and the smoothing
factor of one coarsening step (mt, mx), such as a schedule's first.

A cycle matrix is built level by level from elementwise products and
index gathers alone.  A group stays factored into its time and space
axes, so each symbol is evaluated once per time or space companion.
Restriction and prolongation map each mode onto one coarser mode, its
index mod the coarser level's counts, so every coarse correction is a
gather, not a matrix product.  The low-mode map builds only the matrix
column of the low component, the one it reads, and only on the positive
quadrant of the low domain.  Every symbol is real-stencil, even in
theta_x and conjugated by negating theta_t, and the sample grid is
antisymmetric bit for bit, so the other three quadrants are exact mirror
images of it, filled by slice assignment.

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
does not depend on the groups built and eigen-solved with it, nor on
their damping: at the argmax frequencies of earlier sweeps, the probes,
one build gives the very values a sweep would.  A point whose bound
already exceeds the best value found cannot be picked, so skipping its
sweep leaves the result bit-identical.  The scan and the golden section
bound through one helper, one build per new probe or per step.  Each
public entry point checks its schedule once, before any work; the private
helpers below it (``_rho_bar``, ``_radii``, ``_probe_bounds``) run on the
checked level list, so the search makes no further ``LfaConfig`` or check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (_is_pow2, check_counts, check_integers, check_omega, check_resolution,
                   check_schedule, check_sigma, stage_levels)

#: coarse symbols with modulus below this are treated as non-invertible
#: and their frequency group is excluded from maximization
SINGULAR_TOL = 1e-12


class Frequency(NamedTuple):
    theta_t: float
    theta_x: float


@dataclass(frozen=True)
class LfaConfig:
    """Parameters of one harmonic-space analysis; omega and sweeps default as in ``CyclePlan``."""

    sigma: float
    omega: float = 0.5
    nu1: int = 3
    nu2: int = 3
    eta1: int = 0
    eta2: int = 0
    resolution: int = 128

    def __post_init__(self):
        check_sigma(self.sigma)
        check_omega(self.omega)
        check_counts(nu1=self.nu1, nu2=self.nu2, eta1=self.eta1, eta2=self.eta2)
        check_resolution(self.resolution)


# ---------------------------------------------------------------------------
# frequency folding
# ---------------------------------------------------------------------------

def _companions(theta, m: int):
    """Companions of ``theta`` in (-pi/m, pi/m] under factor-m coarsening: (..., m).

    Each pass for k = m, m/2, ..., 2 appends the fold f - sign(f) 2 pi/k,
    sign(0) = -1, of every f so far: companion i aliases onto i % (m/k) at factor k.
    """
    f = np.asarray(theta, dtype=float)[..., None]
    for h in range(m.bit_length() - 1):
        f = np.concatenate([f, f - np.where(f > 0, 1.0, -1.0) * (2 * np.pi / (m >> h))], axis=-1)
    return f


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
# smoothing analysis: optimal damping, worst modes and smoothing factor
# ---------------------------------------------------------------------------

def _crossing(mt: int, mx: int, sigma: float) -> float:
    """Damping up to which the space mode is the worst high mode of a checked step.

    The smoother symbol modulus over the high frequencies of the step
    (mt, mx), as ``core.check_schedule`` returns it, peaks at the time
    mode (pi/mt, 0) or the space mode (0, pi/mx).  The space mode is the worst for omega up to the value
    returned here and the time mode above it: 0 for time
    semi-coarsening, 1 for space semi-coarsening, and for mixed steps the
    omega where the two branches cross, written with c = 1 + 2*sigma.
    The (4, 2) branches cross only for c <= sqrt(2).
    """
    if mx == 1:
        return 0.0
    if mt == 1:
        return 1.0
    c = 1.0 + 2.0 * float(sigma)  # a Python float: c * c may overflow to inf, unwarned
    if mt == 2:
        return 2.0 * c / (c * c + 2.0 * c - 1.0)
    r2 = math.sqrt(2.0)
    if c > r2:
        return 0.0
    return (r2 * c * c - 2.0 * c) / ((r2 - 1.0) * c * c - 2.0 * c + 1.0)


def optimal_omega(step, sigma: float) -> float:
    """Closed-form damping minimizing the smoothing factor of ``step`` = (mt, mx).

    The time-mode branch of the smoothing factor is least at omega = 1/2
    and the space-mode branch decreases in omega, so the optimum is the
    branch crossing, kept at least 1/2.  Time semi-coarsening (either
    factor) gives 1/2 and space semi-coarsening 1 for every sigma; full
    (2, 2) and direct (4, 2) coarsening give 1/2 above a sigma threshold
    and the crossing below it.  The result always lies in [1/2, 1].
    """
    check_sigma(sigma)
    (mt, mx), = check_schedule((step,))
    return max(0.5, _crossing(mt, mx, sigma))


def worst_smoothing_mode(step, omega: float, sigma: float) -> Frequency:
    """High frequency maximizing the smoother symbol modulus for ``step`` = (mt, mx).

    The answer is the space mode (0, pi/mx) while omega is at most the
    crossing of the space- and time-dominated branches, and the time mode
    (pi/mt, 0) above it.
    """
    check_omega(omega)
    check_sigma(sigma)
    (mt, mx), = check_schedule((step,))
    if omega <= _crossing(mt, mx, sigma):
        return Frequency(0.0, np.pi / mx)
    return Frequency(np.pi / mt, 0.0)


def smoothing_factor(step, omega: float, sigma: float) -> float:
    """Worst smoother symbol modulus over the high frequencies of ``step`` = (mt, mx)."""
    mode = worst_smoothing_mode(step, omega, sigma)
    return float(abs(smoother_symbol(omega, sigma, mode.theta_t, mode.theta_x)))


# ---------------------------------------------------------------------------
# harmonic-space matrices
# ---------------------------------------------------------------------------

def _scale(steps):
    """Total coarsening (Mt, Mx) of ``steps``: the product of the factors."""
    return math.prod(mt for mt, _ in steps), math.prod(mx for _, mx in steps)


def _levels(strategy, cfg: LfaConfig):
    """``strategy``, checked once, as ``core.stage_levels`` with the sweeps of ``cfg``."""
    return stage_levels(check_schedule(strategy), (cfg.nu1, cfg.nu2), (cfg.eta1, cfg.eta2))


def _cycle_matrices(levels, sigma, omega, theta_t, theta_x, cols=slice(None)):
    """Batched harmonic matrices (N, n, len(cols)) of one cycle at low frequencies (N,).

    ``levels`` is a stage's checked (step, (pre, post)) pairs, finest first
    (``core.stage_levels``); ``omega``, a scalar or one per group (N,), enters
    the smoother symbols alone, so a group's matrix is bit for bit that at its
    own omega.  A group of the total scale (Mt, Mx) of the steps stays two
    axes, the Mt time companions last and the Mx space companions before them,
    and each symbol's grid is flattened space-major: mode i is time companion
    i % Mt and space companion i // Mt.  Level (mt, mx) keeps the first Mt/mt
    time and Mx/mx space companions; a finer mode folds onto it by its index
    mod those counts on each axis.  ``cols`` picks the input modes whose
    columns are built, all by default; only the fine level is cut.  One pass
    per level, coarsest first, smooths a correction from the level below with
    its own sweeps; the coarsest level, a single mode, is inverted.
    Restriction multiplies one full-weighting symbol per halving and
    P = mt * R^T, so P A R L has one nonzero term per entry and is an index
    gather, corr[a, i] = mt w_a A[f(a), f(i)] w_i L_i with f the fold of the
    finer level's modes onto the coarser one's: a few elementwise products and
    no BLAS product, so the rounding does not depend on the BLAS build.  Also
    returns the mask of groups with a coarse symbol below ``SINGULAR_TOL`` and
    the fine level's (N, n) companions ``tc``/``xc``.
    """
    steps = [step for step, _ in levels]
    scales = [_scale(steps[:k]) for k in range(len(steps) + 1)]  # each level's, finest first
    total_t, total_x = scales[-1]
    t_all = _companions(theta_t, total_t)[..., None, :]
    x_all = _companions(theta_x, total_x)[..., :, None]
    freqs = [(t_all[..., :total_t // mt], x_all[..., :total_x // mx, :]) for mt, mx in scales]

    def flat(a):  # a level's (..., nx, nt) grid, flattened space-major
        return a.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))

    om = np.asarray(omega, dtype=float)[..., None, None]
    grids = [operator_symbol(sigma, t, x, *scale) for (t, x), scale in zip(freqs, scales)]
    tc, xc = (flat(np.broadcast_to(a, grids[0].shape)) for a in (t_all, x_all))
    ins = [cols] + [slice(None)] * len(steps)  # the input columns of each level
    ls = [flat(g)[..., c] for g, c in zip(grids, ins)]
    singular = np.zeros(tc.shape[:-1], dtype=bool)
    for l in ls[1:]:
        singular |= np.any(np.abs(l) < SINGULAR_TOL, axis=-1)
    ls = ls[:1] + [np.where(singular[..., None], 1.0, l) for l in ls[1:]]

    weights = []
    for (t, x), (mt0, mx0), (mt, mx), g in zip(freqs, scales, steps, grids):
        w = np.ones(g.shape)  # the level's whole grid: a step may restrict one axis only
        for k in range(mt.bit_length() - 1):
            w = w * restriction_symbol(mt0 * 2**k * t)
        if mx == 2:
            w = w * restriction_symbol(mx0 * x)
        weights.append(flat(w))

    # the coarsest level is one mode, so the correction above it, P L_c^{-1} R L,
    # is rank one: the gather with A = 1 / L_c
    w = weights[-1]
    corr = (steps[-1][0] * w / ls[-1])[..., :, None] * (w[..., ins[-2]] * ls[-2])[..., None, :]
    for k in range(len(steps) - 1, -1, -1):
        pre, post = levels[k][1]
        s = flat(smoother_symbol(om, sigma, *freqs[k], *scales[k]))
        eye = np.eye(s.shape[-1], dtype=complex)[:, ins[k]]
        np.subtract(eye, corr, out=corr)  # in place: one buffer fewer
        cycle = (s ** post)[..., :, None] * corr * (s[..., ins[k]] ** pre)[..., None, :]
        if k > 0:  # level k's cycle from zero approximates its inverse for level k - 1
            approx = (eye - cycle) / ls[k][..., None, :]
            (nx0, nt0), (nx, nt) = grids[k - 1].shape[-2:], grids[k].shape[-2:]
            f = (np.arange(nx0)[:, None] % nx * nt + np.arange(nt0) % nt).ravel()
            w, c = weights[k - 1], ins[k - 1]
            # two takes keep the stack C-ordered, which `@` and eigvals downstream want
            corr = ((steps[k - 1][0] * w)[..., :, None] * approx.take(f, -2).take(f[c], -1)
                    * (w[..., c] * ls[k - 1])[..., None, :])
    return cycle, singular, tc, xc


# ---------------------------------------------------------------------------
# spectral radius over the low-frequency domain
# ---------------------------------------------------------------------------

def low_frequency_grid(resolution: int, scale=(4, 2)):
    """Half-cell-offset samples of the low domain (-pi/Mt, pi/Mt] x (-pi/Mx, pi/Mx].

    The default ``scale`` is that of both strategies.  The offset avoids
    the singular zero frequency and the domain boundaries.  Sample k >= res/2
    is -pi/M + (k + 1/2) (2 pi/M) / res, and the negative half is the exact
    negation of the positive half, reversed, so each axis is antisymmetric
    bit for bit: the companions of a negated frequency are then the exact
    negations of its own, which ``low_mode_action``'s mirror relies on.
    Raises ``ValueError`` naming ``scale`` unless each entry is a power of
    two of at least 1, the scale of some schedule; numpy integers pass.
    """
    check_resolution(resolution)
    for m in scale:
        check_integers(scale=m)
        if not _is_pow2(m):
            raise ValueError(f"scale must hold powers of two of at least 1, got {scale!r}")
    offsets = np.arange(resolution // 2, resolution) + 0.5
    grids = []
    for m in scale:
        positive = -np.pi / m + offsets * ((2 * np.pi / m) / resolution)
        grids.append(np.concatenate([-positive[::-1], positive]))
    return tuple(grids)


def _quadrant(levels, resolution: int):
    """Flat theta_t-major samples of the positive quadrant of the levels' low domain."""
    tg, xg = low_frequency_grid(resolution, _scale([step for step, _ in levels]))
    return tuple(a.ravel() for a in np.meshgrid(tg[tg > 0], xg[xg > 0], indexing="ij"))


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


def rho_bar_details(strategy, cfg: LfaConfig) -> RhoBarResult:
    """Maximize the harmonic-matrix spectral radius over the sampled low domain.

    The sweep covers the positive-frequency quadrant only: the symbol
    moduli are even in both angles, so on the antisymmetric offset grid
    the other three quadrants repeat its spectra (verified by tests).

    Only groups that can hold the maximum are eigen-solved.  The
    ``_SEEDS`` groups with the largest ``_radius_bound`` go first; any
    other group is eigen-solved only if its bound, raised by ``_MARGIN``,
    reaches their largest radius.  A skipped group's radius is strictly
    below the maximum, so the result equals that of eigen-solving every
    group, ``spectral_radius_over_groups``, bit for bit.  A NaN bound is
    never skipped, so eigvals rejects it as it would in a full sweep.
    """
    levels = _levels(strategy, cfg)
    return _rho_bar(levels, cfg.sigma, cfg.omega, *_quadrant(levels, cfg.resolution))


def _rho_bar(levels, sigma, omega, tt, tx) -> RhoBarResult:
    """``rho_bar_details`` on checked ``levels`` at the quadrant samples ``tt``/``tx``."""
    mats, singular, _, _ = _cycle_matrices(levels, sigma, omega, tt, tx)
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


def spectral_radius_over_groups(strategy, cfg: LfaConfig, theta_t: np.ndarray,
                                theta_x: np.ndarray):
    """Spectral radii at explicit low frequencies and ``cfg.omega``; singular groups get -inf."""
    return _radii(_levels(strategy, cfg), cfg.sigma, cfg.omega, theta_t, theta_x)


def _radii(levels, sigma, omega, theta_t, theta_x):
    """``spectral_radius_over_groups`` on checked ``levels``, at one omega or one per group."""
    mats, singular, _, _ = _cycle_matrices(levels, sigma, omega, theta_t, theta_x)
    return np.where(singular, -np.inf, spectral_radius_batch(mats)), singular


# ---------------------------------------------------------------------------
# numeric damping optimization
# ---------------------------------------------------------------------------

_SCAN_POINTS = 64
_GOLDEN_TOL = 1e-5
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _probe_bounds(levels, sigma, omegas, probes) -> np.ndarray:
    """Lower bounds on rho_bar at ``omegas``, each one's largest radius over ``probes``."""
    t, x = (np.array(a * len(omegas)) for a in zip(*probes))  # each probe once per omega
    radii, _ = _radii(levels, sigma, np.repeat(omegas, len(probes)), t, x)
    return radii.reshape(len(omegas), len(probes)).max(axis=1)


def omega_opt_numeric(strategy, cfg: LfaConfig):
    """Damping parameter minimizing the cycle convergence factor.

    Runs a 64-point scan over (0, 1] followed by golden-section refinement
    to a bracket of 1e-5; ties resolve toward the smallest omega.  The
    omega stored in ``cfg`` is ignored.  Returns (omega_opt, rho_bar).

    The schedule is checked, and its levels and samples built, once; every
    sweep (``_rho_bar``) and bound (``_probe_bounds``) runs on them.  The
    result is that of sweeping every scan and golden-section point, but a
    sweep runs only where its value could change it (see the module
    docstring); a bound is the largest radius at the probes, the argmax
    frequencies of the sweeps so far.  The scan sweeps omega = 1/2, then
    always the unswept point with the smallest bound, and stops once no
    bound lies below the best value (an equal bound rules out only a point
    above the current argmin, which wins the tie).  A point ruled out stays
    out: bounds only rise and the best value only falls, so one build per
    new probe keeps the open points' bounds current.  A golden-section
    point is bounded at every probe; if that bound alone decides the next
    comparison against it, the point is discarded unswept, and its bound is
    never the final pick.
    """
    levels = _levels(strategy, cfg)
    tt, tx = _quadrant(levels, cfg.resolution)
    probes = []  # argmax frequencies of the sweeps so far

    def sweep(om: float) -> float:
        res = _rho_bar(levels, cfg.sigma, om, tt, tx)
        if res.argmax not in probes:
            probes.append(res.argmax)
        return res.value

    omegas = np.arange(1, _SCAN_POINTS + 1) / _SCAN_POINTS
    index = np.arange(_SCAN_POINTS)
    values = np.full(_SCAN_POINTS, -np.inf)  # a lower bound, exact once swept
    swept = np.zeros(_SCAN_POINTS, dtype=bool)

    def open_points():
        """Unswept points whose bound could still beat the current argmin ``i``."""
        i = int(np.argmin(np.where(swept, values, np.inf)))
        return i, ~swept & ((values < values[i]) | (values == values[i]) & (index < i))

    j = _SCAN_POINTS // 2 - 1  # the first sweep is at omega = 1/2
    while True:
        known = len(probes)
        values[j] = sweep(omegas[j])
        swept[j] = True
        i, open_ = open_points()
        if len(probes) > known and open_.any():  # open bounds were current before it
            new = _probe_bounds(levels, cfg.sigma, omegas[open_], probes[-1:])
            values[open_] = np.maximum(values[open_], new)
            i, open_ = open_points()
        if not open_.any():
            break
        j = int(index[open_][np.argmin(values[open_])])

    def refine(om: float, limit: float, ties: bool) -> float:
        """rho_bar(om), or its bound if that is above ``limit`` (or equal, with ``ties``)."""
        b = float(_probe_bounds(levels, cfg.sigma, [om], probes)[0])  # probes is never empty
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


def resolve_omega(mode, strategy, cfg: LfaConfig) -> float:
    """Map an omega mode ('0.5' | 'theorem' | 'numeric' | number) to a value.

    The schedule is checked first, in every mode.  The theorem value is the
    optimal damping of the schedule's first step, the coarsening of the fine level.
    """
    strategy = check_schedule(strategy)
    if mode == "theorem":
        return optimal_omega(strategy[0], cfg.sigma)
    if mode == "numeric":
        return omega_opt_numeric(strategy, cfg)[0]
    try:
        return float(mode)
    except (TypeError, ValueError):
        raise ValueError(f"omega must be a number, 'theorem' or 'numeric', "
                         f"got {mode!r}") from None


# ---------------------------------------------------------------------------
# action on the low-frequency input
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LowModeMap:
    """Scattered |coefficient| map over the full frequency square."""

    theta_t: np.ndarray
    theta_x: np.ndarray
    modulus: np.ndarray


def _scatter_first_columns(mats: np.ndarray, tc: np.ndarray, xc: np.ndarray,
                           singular: np.ndarray) -> LowModeMap:
    coeffs = np.abs(mats[..., :, 0])
    coeffs = np.where(singular[..., None], 0.0, coeffs)
    return LowModeMap(theta_t=tc.ravel(), theta_x=xc.ravel(), modulus=coeffs.ravel())


def _mirror(quadrant: np.ndarray, h: int, sign_t: float, sign_x: float) -> np.ndarray:
    """Flat (2h, 2h, n) map of the low domain from that of its (h, h) positive quadrant.

    Row i < h is row 2h-1-i times ``sign_t``, and column j < h is column
    2h-1-j times ``sign_x``; a sign of -1.0 negates exactly.
    """
    q = quadrant.reshape(h, h, -1)
    full = np.empty((2 * h, 2 * h, q.shape[-1]))
    full[h:, h:] = q
    np.multiply(q[:, ::-1], sign_x, out=full[h:, :h])
    np.multiply(full[h:][::-1], sign_t, out=full[:h])
    return full.ravel()


def low_mode_action(strategy, cfg: LfaConfig) -> LowModeMap:
    """Apply the cycle matrix to the all-ones low-frequency input.

    Each sampled low frequency of the schedule's low domain contributes
    the unit coefficient on its low component and zero on the other
    companions, so the output coefficients are the first matrix column,
    the only column built; their moduli are scattered onto the companion
    frequencies across the full square, low frequencies theta_t-major and
    each group's companions innermost.

    Only the positive quadrant of the low domain is built; the other three
    are its mirror images (see the module docstring).  Every entry of a
    group's column at (+-theta_t, +-theta_x) is the same number or its
    exact conjugate, so the moduli and singular masks of the four quadrants
    are bitwise equal.

    The cycle applies ``cfg.nu1`` pre- and ``cfg.nu2`` post-smoothing
    sweeps, and the peak moves with them: for the NEW cycle the
    least-damped low mode sits on the boundary |theta_t| = pi/4 only
    when nu1 + nu2 <= 2; more sweeps pull it inside the low band.
    """
    levels = _levels(strategy, cfg)
    tt, tx = _quadrant(levels, cfg.resolution)
    mats, singular, tc, xc = _cycle_matrices(levels, cfg.sigma, cfg.omega, tt, tx, [0])
    h = cfg.resolution // 2
    q = _scatter_first_columns(mats, tc, xc, singular)
    return LowModeMap(theta_t=_mirror(q.theta_t, h, -1.0, 1.0),
                      theta_x=_mirror(q.theta_x, h, 1.0, -1.0),
                      modulus=_mirror(q.modulus, h, 1.0, 1.0))
