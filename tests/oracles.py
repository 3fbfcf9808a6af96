"""Independent brute-force oracles for the test suite.

Everything here is assembled from first principles (explicit loops over
stencil definitions, dense linear algebra, exhaustive grid searches, the
Thomas algorithm for tridiagonal solves) so the fast library paths are
checked against genuinely independent computations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from stmg import lfa
from stmg.core import check_step
from stmg.cycles import plan_levels
from stmg.heat import HeatOperator, assemble_operator
from stmg.smoother import SmootherConfig

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


def apply_operator(op: HeatOperator, u: np.ndarray) -> np.ndarray:
    """Return L u for a field of shape (n_t, n_x)."""
    g = op.grid
    if u.shape != (g.n_t, g.n_x):
        raise ValueError(f"field shape {u.shape} does not match grid ({g.n_t}, {g.n_x})")
    s = op.sigma
    out = (1.0 + 2.0 * s) * u
    out[:, :-1] -= s * u[:, 1:]
    out[:, 1:] -= s * u[:, :-1]
    out[1:] -= u[:-1]
    return out


def dense_block_jacobi_error_matrix(n_t: int, n_x: int, sigma: float,
                                    omega: float) -> np.ndarray:
    l = dense_heat_matrix(n_t, n_x, sigma)
    d = np.kron(np.eye(n_t), dense_q_matrix(n_x, sigma))
    return np.eye(n_t * n_x) - omega * np.linalg.solve(d, l)


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Real tridiagonal matrix given by its three diagonals.

    ``sub`` and ``sup`` have length n-1, ``diag`` has length n.  The
    matrix is symmetric exactly when ``sub == sup``.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        n = len(self.diag)
        if len(self.sub) != n - 1 or len(self.sup) != n - 1:
            raise ValueError("off-diagonals must have length n-1")

    @property
    def n(self) -> int:
        return len(self.diag)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product along the last axis of ``v``."""
        v = np.asarray(v)
        if v.shape[-1] != self.n:
            raise ValueError(f"expected last axis {self.n}, got {v.shape[-1]}")
        out = self.diag * v
        out[..., :-1] += self.sup * v[..., 1:]
        out[..., 1:] += self.sub * v[..., :-1]
        return out

    def dense(self) -> np.ndarray:
        return (np.diag(self.diag)
                + np.diag(self.sup, 1)
                + np.diag(self.sub, -1))


def tridiagonal_q(n_x: int, sigma: float) -> TridiagonalMatrix:
    """Q = I - tau*A_h by its diagonals: 1 + 2*sigma on the diagonal, -sigma beside it."""
    off = np.full(n_x - 1, -sigma)
    return TridiagonalMatrix(sub=off, diag=np.full(n_x, 1.0 + 2.0 * sigma), sup=off)


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
    q = tridiagonal_q(op.grid.n_x, op.sigma)
    u = np.empty_like(rhs, dtype=float)
    prev = np.zeros(op.grid.n_x)
    for n in range(op.grid.n_t):
        prev = thomas_solve(q, rhs[n] + prev)
        u[n] = prev
    return u


def error_norm(u: np.ndarray, ref: np.ndarray, g) -> float:
    """Discrete L_inf in time of the L2 norm in space of u - ref, physical (n_t, n_x) fields.

    The unscaled form of ``cycles._linf_l2``, which ``cycles.solve`` takes
    on coefficients: the reference for the solve's error history.
    """
    if u.shape != ref.shape:
        raise ValueError("field shapes differ")
    d = u - ref
    return float(np.sqrt(g.h * np.sum(d * d, axis=1)).max())


def residual_form_sweep(op, u: np.ndarray, rhs: np.ndarray, cfg) -> np.ndarray:
    """Damped block-Jacobi in residual form, u <- u + omega Q^{-1}(rhs - L u).

    One operator apply and one Thomas solve per sweep, in the physical
    (n_t, n_x) layout: the reference for the library's sine-coefficient
    ``smoother.jacobi_sweep``.
    """
    q = tridiagonal_q(op.grid.n_x, op.sigma)
    for _ in range(cfg.sweeps):
        u = u + cfg.omega * thomas_solve(q, rhs - apply_operator(op, u))
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
# physical (n_t, n_x) transfer stencils and the physical cycle
# ---------------------------------------------------------------------------


def restrict_space(fine: np.ndarray) -> np.ndarray:
    """Full weighting along the last axis, n_x = 2*n_c + 1 interior points.

    coarse_j = 1/4 fine_{2j-1} + 1/2 fine_{2j} + 1/4 fine_{2j+1} in 1-based
    interior indexing; Dirichlet values beyond the ends are zero.
    """
    n = fine.shape[-1]
    if n % 2 != 1 or n < 3:
        raise ValueError(f"spatial size must be odd >= 3, got {n}")
    return (0.25 * fine[..., 0:-1:2]
            + 0.5 * fine[..., 1::2]
            + 0.25 * fine[..., 2::2])


def prolong_space(coarse: np.ndarray) -> np.ndarray:
    """Linear interpolation along the last axis; adjoint of restrict_space times 2."""
    nc = coarse.shape[-1]
    n = 2 * nc + 1
    fine = np.zeros(coarse.shape[:-1] + (n,))
    fine[..., 1::2] = coarse
    fine[..., 0:-1:2] += 0.5 * coarse
    fine[..., 2::2] += 0.5 * coarse
    return fine


def restrict_time(fine: np.ndarray) -> np.ndarray:
    """Full weighting along the first (time-block) axis, factor 2.

    Coarse block k lives at fine time t_{2k}.  The block before t_1 is the
    known initial value (zero in correction space) and blocks beyond t_Nt
    are zero-padded, so the final coarse block only sees two terms.
    """
    nt = fine.shape[0]
    if nt % 2 != 0:
        raise ValueError(f"time block count must be even, got {nt}")
    coarse = 0.25 * fine[0:nt:2] + 0.5 * fine[1:nt:2]
    coarse[:-1] += 0.25 * fine[2:nt:2]
    return coarse


def prolong_time(coarse: np.ndarray) -> np.ndarray:
    """Linear interpolation in time; adjoint of restrict_time times 2."""
    nc = coarse.shape[0]
    fine = np.zeros((2 * nc,) + coarse.shape[1:])
    fine[1::2] = coarse
    fine[0] = 0.5 * coarse[0]
    fine[2::2] = 0.5 * (coarse[:-1] + coarse[1:])
    return fine


def restrict(fine: np.ndarray, mt: int, mx: int) -> np.ndarray:
    """Composite full-weighting restriction of an (n_t, n_x) field by factors (mt, mx)."""
    check_step(mt, mx)
    out = fine
    for _ in range(mt.bit_length() - 1):
        out = restrict_time(out)
    if mx == 2:
        out = restrict_space(out)
    return out


def prolong(coarse: np.ndarray, mt: int, mx: int) -> np.ndarray:
    """Composite correction prolongation of an (n_t, n_x) field: mt times the interpolation."""
    check_step(mt, mx)
    out = coarse
    if mx == 2:
        out = prolong_space(out)
    for _ in range(mt.bit_length() - 1):
        out = prolong_time(out)
    return mt * out


def physical_cycle(op, u: np.ndarray, rhs: np.ndarray, plan) -> np.ndarray:
    """One cycle of ``plan`` on the physical (n_t, n_x) field, level by level.

    Residual-form sweeps with Thomas solves, the stencils above and the
    Thomas time-stepping coarsest solve, on the levels ``cycles.plan_levels``
    plans: the reference for the sine-coefficient ``cycles.run_cycle``.
    """
    levels, coarsest = plan_levels(op.grid, plan)

    def cycle(op, u, rhs, levels):
        (mt, mx), (pre, post) = levels[0].step, levels[0].sweeps
        u = residual_form_sweep(op, u, rhs, SmootherConfig(plan.omega, pre))
        rc = restrict(rhs - apply_operator(op, u), mt, mx)
        if len(levels) > 1:
            ec = cycle(assemble_operator(levels[1].grid), np.zeros_like(rc), rc, levels[1:])
        else:
            ec = time_stepping_solve(assemble_operator(coarsest), rc)
        u = u + prolong(ec, mt, mx)
        return residual_form_sweep(op, u, rhs, SmootherConfig(plan.omega, post))

    return cycle(op, u, rhs, levels)


# ---------------------------------------------------------------------------
# coefficient kernels on 2-D views: column broadcasts and shifted slices
# ---------------------------------------------------------------------------
#
# The sweep, the residual and the time stencils as the cycle ran them before
# they moved to flat views and mode fields.  The library's kernels make the
# same IEEE operations on every element, so they must equal these bit for bit.


def jacobi_sweep_2d(gain: np.ndarray, u: np.ndarray, rhs: np.ndarray, cfg,
                    work: np.ndarray) -> None:
    """``smoother.jacobi_sweep`` with omega / lam[k] as an (n, 1) column ``gain``."""
    for _ in range(cfg.sweeps):
        work[:, 0] = rhs[:, 0]
        np.add(rhs[:, 1:], u[:, :-1], out=work[:, 1:])
        work *= gain
        u *= 1.0 - cfg.omega
        u += work


def residual_2d(u: np.ndarray, rhs: np.ndarray, lam: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``cycles._residual`` with the eigenvalues as an (n, 1) column ``lam``."""
    np.multiply(u, lam, out=out)
    np.subtract(rhs, out, out=out)
    out[:, 1:] += u[:, :-1]
    return out


def restrict_time_2d(fine: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``transfer.restrict_time`` on strided views of the last axis."""
    nt = fine.shape[-1]
    if nt % 2 != 0:
        raise ValueError(f"time step count must be even, got {nt}")
    coarse = np.multiply(fine[..., 1::2], 2.0, out=out)
    coarse += fine[..., 0::2]
    coarse[..., :-1] += fine[..., 2::2]
    coarse *= 0.25
    return coarse


def prolong_time_2d(coarse: np.ndarray) -> np.ndarray:
    """``transfer.prolong_time`` on strided views of the last axis."""
    nc = coarse.shape[-1]
    fine = np.empty(coarse.shape[:-1] + (2 * nc,))
    fine[..., 1::2] = coarse
    np.multiply(coarse[..., 0], 0.5, out=fine[..., 0])
    np.add(coarse[..., :-1], coarse[..., 1:], out=fine[..., 2::2])
    fine[..., 2::2] *= 0.5
    return fine


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


def group_arrays(theta_t, theta_x, scale):
    """Companions (..., Mt*Mx) of ``scale``: index i is time i % Mt, space i // Mt.

    The flat layout of a harmonic group written out with ``np.tile`` and
    ``np.repeat``, against which the broadcast grid of
    ``lfa._cycle_matrices`` is checked.
    """
    mt, mx = scale
    return (np.tile(lfa._companions(theta_t, mt), mx),
            np.repeat(lfa._companions(theta_x, mx), mt, axis=-1))


class HarmonicGroup(NamedTuple):
    """Eight companion frequencies of one low frequency, in canonical order.

    Index i pairs time component i % 4 of ``lfa._companions(low, 4)``,
    [low, g4(low), g2(low), g2(g4(low))] for the factor-m folds
    gm(f) = f - sign(f) * 2 pi / m, with space component i // 4 of
    ``lfa._companions(low, 2)``, [low, g2(low)].
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
    t8, x8 = group_arrays(theta_t, theta_x, (4, 2))
    return HarmonicGroup(theta_t=t8, theta_x=x8)


def harmonic_matrix(strategy, cfg, low) -> np.ndarray:
    """Harmonic matrix of the strategy's cycle at one low frequency, 8x8 at scale (4, 2)."""
    mats, singular, _, _ = lfa._cycle_matrices(lfa._levels(strategy, cfg), cfg.sigma, cfg.omega,
                                               *low)
    if singular:
        raise ZeroDivisionError(f"coarse symbol singular at {low}")
    return mats


# ---------------------------------------------------------------------------
# rho_bar and the low-mode map over every group
# ---------------------------------------------------------------------------


def rho_bar_full(strategy, cfg) -> lfa.RhoBarResult:
    """``lfa.rho_bar_details`` with no pruning: eigvals of every quadrant group."""
    tg, xg = lfa.low_frequency_grid(cfg.resolution, lfa._scale(strategy))
    tt, tx = np.meshgrid(tg[tg > 0], xg[xg > 0], indexing="ij")
    return rho_bar_sweep_full(lfa._levels(strategy, cfg), cfg.sigma, cfg.omega, tt.ravel(),
                              tx.ravel())


def rho_bar_sweep_full(levels, sigma, omega, tt, tx) -> lfa.RhoBarResult:
    """``lfa._rho_bar`` with no pruning: eigvals of every group at ``tt``/``tx``."""
    radii, singular = lfa._radii(levels, sigma, omega, tt, tx)
    k = int(np.argmax(radii))
    return lfa.RhoBarResult(
        value=float(radii[k]),
        excluded=int(singular.sum()) * 4,
        argmax=lfa.Frequency(float(tt[k]), float(tx[k])),
    )


def low_mode_action_full(strategy, cfg) -> lfa.LowModeMap:
    """``lfa.low_mode_action`` with no mirror: column 0 built on every low group."""
    tg, xg = lfa.low_frequency_grid(cfg.resolution, lfa._scale(strategy))
    tt, tx = np.meshgrid(tg, xg, indexing="ij")
    mats, singular, tc, xc = lfa._cycle_matrices(lfa._levels(strategy, cfg), cfg.sigma,
                                                 cfg.omega, tt.ravel(), tx.ravel(), [0])
    return lfa._scatter_first_columns(mats, tc, xc, singular)


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
