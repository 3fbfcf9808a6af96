"""Independent brute-force oracles for the test suite.

Everything here is assembled from first principles (explicit loops over
stencil definitions, dense linear algebra, exhaustive grid searches, the
Thomas algorithm for tridiagonal solves) so the fast library paths are
checked against genuinely independent computations.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from stmg import lfa
from stmg.core import SCHEDULES, TridiagonalMatrix
from stmg.heat import apply_operator

# ---------------------------------------------------------------------------
# dense assemblies of the heat system (explicit stencil loops)
# ---------------------------------------------------------------------------


def dense_q_matrix(n_x: int, sigma: float) -> np.ndarray:
    q = np.zeros((n_x, n_x))
    for j in range(n_x):
        q[j, j] = 1.0 + 2.0 * sigma
        if j > 0:
            q[j, j - 1] = -sigma
        if j + 1 < n_x:
            q[j, j + 1] = -sigma
    return q


def dense_heat_matrix(n_t: int, n_x: int, sigma: float) -> np.ndarray:
    """All-at-once matrix: Q on the diagonal blocks, -I below."""
    n = n_t * n_x
    a = np.zeros((n, n))
    q = dense_q_matrix(n_x, sigma)
    for b in range(n_t):
        a[b * n_x:(b + 1) * n_x, b * n_x:(b + 1) * n_x] = q
        if b > 0:
            a[b * n_x:(b + 1) * n_x, (b - 1) * n_x:b * n_x] = -np.eye(n_x)
    return a


def dense_block_jacobi_error_matrix(n_t: int, n_x: int, sigma: float,
                                    omega: float) -> np.ndarray:
    l = dense_heat_matrix(n_t, n_x, sigma)
    d = np.kron(np.eye(n_t), dense_q_matrix(n_x, sigma))
    return np.eye(n_t * n_x) - omega * np.linalg.solve(d, l)


def thomas_solve(m: TridiagonalMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``m @ x = rhs`` by the Thomas algorithm.

    ``rhs`` may carry leading batch axes; the system is solved along the
    last axis for every batch row with a single factorization.  The
    elimination and back-substitution run in place on a private copy of
    ``rhs``, so the input is never written.  Requires a diagonally
    dominant (or otherwise LU-stable) matrix, which holds for I - tau*A_h.
    """
    n = m.n
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[-1] != n:
        raise ValueError(f"rhs last axis {rhs.shape[-1]} does not match n={n}")
    # forward elimination of the subdiagonal; multipliers depend on m only
    dd = np.empty(n)
    w = np.empty(max(n - 1, 0))
    dd[0] = m.diag[0]
    for i in range(1, n):
        w[i - 1] = m.sub[i - 1] / dd[i - 1]
        dd[i] = m.diag[i] - w[i - 1] * m.sup[i - 1]
    x = rhs.copy()
    for i in range(1, n):
        x[..., i] -= w[i - 1] * x[..., i - 1]
    x[..., n - 1] /= dd[n - 1]
    for i in range(n - 2, -1, -1):
        x[..., i] -= m.sup[i] * x[..., i + 1]
        x[..., i] /= dd[i]
    return x


def time_stepping_solve(op, rhs: np.ndarray) -> np.ndarray:
    """Sequential block forward substitution u_n = Q^{-1}(rhs_n + u_{n-1}).

    The classical time-stepping loop, one Thomas solve with Q per step:
    the reference for the library's sine-basis ``heat.direct_solve``.
    """
    u = np.empty_like(rhs, dtype=float)
    prev = np.zeros(op.grid.n_x)
    for n in range(op.grid.n_t):
        prev = thomas_solve(op.q, rhs[n] + prev)
        u[n] = prev
    return u


def residual_form_sweep(op, u: np.ndarray, rhs: np.ndarray, cfg) -> np.ndarray:
    """Damped block-Jacobi in residual form, u <- u + omega Q^{-1}(rhs - L u).

    One operator apply and one Thomas solve per sweep: the reference for
    the library's fused ``smoother.jacobi_sweep``.
    """
    for _ in range(cfg.sweeps):
        u = u + cfg.omega * thomas_solve(op.q, rhs - apply_operator(op, u))
    return u


# ---------------------------------------------------------------------------
# dense transfer stencils (explicit loops, independent of stmg.transfer)
# ---------------------------------------------------------------------------


def dense_restriction_space(n_x: int) -> np.ndarray:
    nc = (n_x - 1) // 2
    r = np.zeros((nc, n_x))
    for j in range(nc):  # coarse node j sits at fine interior node 2j+1 (0-based)
        r[j, 2 * j] = 0.25
        r[j, 2 * j + 1] = 0.5
        r[j, 2 * j + 2] = 0.25
    return r


def dense_restriction_time(n_t: int) -> np.ndarray:
    nc = n_t // 2
    r = np.zeros((nc, n_t))
    for k in range(nc):  # coarse block k sits at fine block 2k+1 (0-based)
        r[k, 2 * k] = 0.25
        r[k, 2 * k + 1] = 0.5
        if 2 * k + 2 < n_t:
            r[k, 2 * k + 2] = 0.25
    return r


def dense_transfer_pair(n_t: int, n_x: int, mt: int, mx: int):
    """Composite (restriction, prolongation) with prolongation mt**2 * mx * R^T.

    Linear interpolation is 2 * R^T per coarsened direction, so the
    composed interpolation is mt * mx * R^T, and the correction
    prolongation is mt times that interpolation.
    """
    rt = np.eye(n_t)
    nt = n_t
    while mt > 1:
        rt = dense_restriction_time(nt) @ rt
        nt //= 2
        mt //= 2
    rx = dense_restriction_space(n_x) if mx == 2 else np.eye(n_x)
    r = np.kron(rt, rx)
    mt_total = n_t // nt
    return r, mt_total ** 2 * mx * r.T


# ---------------------------------------------------------------------------
# smoothing-factor grid search and damping brute force
# ---------------------------------------------------------------------------


#: the five coarsening steps (mt, mx) of the smoothing analysis, by their
#: ``stmg lfa-smoothing`` names
SMOOTHING_STEPS = {"time2": (2, 1), "time4": (4, 1), "space": (1, 2), "full": (2, 2),
                   "new": (4, 2)}


def _high_mask(step, tt: np.ndarray, tx: np.ndarray) -> np.ndarray:
    # closed high sets {theta_t >= pi/mt} | {theta_x >= pi/mx} on the
    # positive quadrant; |S_hat| is even in both angles so the quadrant
    # search covers (-pi, pi]^2.  A direction with factor 1 is not
    # coarsened and adds no high frequencies (not even its endpoint pi).
    mt, mx = step
    return ((mt > 1) & (tt >= np.pi / mt)) | ((mx > 1) & (tx >= np.pi / mx))


def smoothing_factor_grid(step, omega: float, sigma: float, n: int = 257) -> float:
    """Dense max of the smoother symbol modulus over the high frequencies of ``step``."""
    th = np.linspace(0.0, np.pi, n)
    tt, tx = np.meshgrid(th, th, indexing="ij")
    mask = _high_mask(step, tt, tx)
    cx = 1.0 + 2.0 * sigma * (1.0 - np.cos(tx[mask]))
    mod2 = ((1.0 - omega) ** 2
            + 2.0 * omega * (1.0 - omega) * np.cos(tt[mask]) / cx
            + omega ** 2 / cx ** 2)
    return float(np.sqrt(mod2.max()))


def omega_star_bruteforce(step, sigma: float, n_theta: int = 513,
                          omega_step: float = 1e-4) -> float:
    """Argmin over a 1e-4 omega grid of the grid-searched smoothing factor.

    |S_hat|^2 = (1-w)^2 + 2w(1-w)*x + w^2*y with x = cos(theta_t)/c_x and
    y = 1/c_x^2.  For w in (0,1] all coefficients of (x, y) are
    nonnegative, so the max over the high set equals the max over its
    Pareto frontier in (x, y); the frontier is extracted numerically from
    the full grid, keeping the search independent of any case analysis.
    """
    th = np.linspace(0.0, np.pi, n_theta)
    tt, tx = np.meshgrid(th, th, indexing="ij")
    mask = _high_mask(step, tt, tx)
    v = 1.0 / (1.0 + 2.0 * sigma * (1.0 - np.cos(tx[mask])))
    x = np.cos(tt[mask]) * v
    y = v * v
    order = np.lexsort((-y, -x))
    x, y = x[order], y[order]
    ymax = np.maximum.accumulate(y)
    keep = y >= ymax  # first occurrence of each new y maximum
    x, y = x[keep], y[keep]
    omegas = np.arange(1, int(round(1.0 / omega_step)) + 1) * omega_step
    w = omegas[:, None]
    mod2 = (1.0 - w) ** 2 + 2.0 * w * (1.0 - w) * x[None, :] + w ** 2 * y[None, :]
    mu = mod2.max(axis=1)
    return float(omegas[int(np.argmin(mu))])


# ---------------------------------------------------------------------------
# spectral radius without eigenvalues
# ---------------------------------------------------------------------------


def squared_power_radius(a: np.ndarray, squarings: int = 50) -> float:
    """Spectral radius via the power estimate ||A^k||_F^(1/k) at k = 2**squarings.

    Repeated squaring with norm tracking evaluates the limit of the power
    method stably; polynomial transients from nilpotent (Jordan) parts are
    suppressed by the enormous effective power, so the estimate resolves
    the radius of defective matrices like block-triangular iteration
    matrices, where plain power iteration converges only like 1/k.
    """
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return 0.0
    m = a / norm
    log_scale = np.log(norm)
    k = 1.0
    for _ in range(squarings):
        m = m @ m
        norm = np.linalg.norm(m)
        if norm == 0.0:
            return 0.0  # nilpotent part only
        m /= norm
        log_scale = 2.0 * log_scale + np.log(norm)
        k *= 2.0
    return float(np.exp(log_scale / k))


# ---------------------------------------------------------------------------
# one harmonic group at a time
# ---------------------------------------------------------------------------


class HarmonicGroup(NamedTuple):
    """Eight companion frequencies of one low frequency, in canonical order.

    Index i pairs time component i % 4 of [low, g4(low), g2(low),
    g2(g4(low))] with space component [low, g2(low)][i // 4].
    """

    theta_t: np.ndarray
    theta_x: np.ndarray


def harmonic_group(theta_t: float, theta_x: float) -> HarmonicGroup:
    """The eight companion frequencies generated from one low frequency."""
    eps = 1e-12
    if not (-np.pi / 4 - eps < theta_t <= np.pi / 4 + eps):
        raise ValueError(f"low time frequency {theta_t} outside (-pi/4, pi/4]")
    if not (-np.pi / 2 - eps < theta_x <= np.pi / 2 + eps):
        raise ValueError(f"low space frequency {theta_x} outside (-pi/2, pi/2]")
    t8, x8 = lfa._group_arrays(theta_t, theta_x)
    return HarmonicGroup(theta_t=t8, theta_x=x8)


def harmonic_matrix(strategy, cfg, low) -> np.ndarray:
    """8x8 harmonic matrix of the strategy's cycle at one low frequency."""
    mats, singular = lfa._cycle_matrices(SCHEDULES[strategy], cfg, *lfa._group_arrays(*low))
    if singular:
        raise ZeroDivisionError(f"coarse symbol singular at {low}")
    return mats


# ---------------------------------------------------------------------------
# rho_bar by eigenvalues of every group
# ---------------------------------------------------------------------------


def rho_bar_full(strategy, cfg) -> lfa.RhoBarResult:
    """``lfa.rho_bar_details`` with no pruning: eigvals of every quadrant group."""
    tg, xg = lfa.low_frequency_grid(cfg.resolution)
    tt, tx = np.meshgrid(tg[tg > 0], xg[xg > 0], indexing="ij")
    radii, singular = lfa.spectral_radius_over_groups(strategy, cfg, tt.ravel(), tx.ravel())
    k = int(np.argmax(radii))
    return lfa.RhoBarResult(
        value=float(radii[k]),
        excluded=int(singular.sum()) * 4,
        argmax=lfa.Frequency(float(tt.ravel()[k]), float(tx.ravel()[k])),
    )


# ---------------------------------------------------------------------------
# numeric damping by sweeping every scan point
# ---------------------------------------------------------------------------


def omega_opt_scan(strategy, cfg):
    """``lfa.omega_opt_numeric`` with every scan and golden-section point swept.

    A 64-point scan over (0, 1] and a golden-section refinement to a
    bracket of 1e-5, 83 ``lfa.rho_bar_details`` sweeps in all; ties
    resolve toward the smallest omega.  Returns (omega_opt, rho_bar).
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0

    def objective(om: float) -> float:
        return lfa.rho_bar_details(strategy, replace(cfg, omega=om)).value

    omegas = np.arange(1, 65) / 64
    values = np.array([objective(om) for om in omegas])
    i = int(np.argmin(values))
    lo = omegas[i - 1] if i > 0 else omegas[0] / 2
    hi = omegas[i + 1] if i + 1 < len(omegas) else 1.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > 1e-5:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = objective(x2)
    candidates = [(f1, x1), (f2, x2), (values[i], omegas[i])]
    best = min(candidates, key=lambda p: (p[0], p[1]))
    return float(best[1]), float(best[0])
