"""Restriction and prolongation on mode-major sine coefficients, and strategy composites.

The cycles hold a field as its sine coefficients in space, shape
(n_x, n_t): row k is the time series of sine mode k.  Per direction the
restriction is full weighting (1/4, 1/2, 1/4) and the prolongation is
linear interpolation, the transposed stencil scaled by 2.  Coarse nodes
sit at even fine indices (vertex-centered): spatial coarse node j is fine
node 2j, coarse time point k is fine time t_{2k}.

In time the stencils act along the last axis.  In space, full weighting
in the DST-I basis couples only the alias pair of fine modes k and m - k
(m = n_x + 1) and drops the middle mode m/2.  With
c_k = cos^2(pi k/2m) and s_k = sin^2(pi k/2m), coarse mode k is

    (c_k f_k - s_k f_{m-k}) / sqrt(2),

and the interpolation, twice the transpose, sends coarse mode k to
sqrt(2) c_k in fine mode k and -sqrt(2) s_k in fine mode m - k.

The composite correction prolongation for the multigrid strategies is mt
times the composed interpolation.  Every row of the system carries one
time step: the fine residual scales with tau, and full weighting keeps
that scale.  A coarse level is rediscretized with time step mt*tau, so
it expects a right-hand side mt times larger, and its solution for the
restricted residual is 1/mt of the error; the factor mt restores it.
The Fourier analysis (``stmg.lfa``) uses the same correction.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import check_step


# ---------------------------------------------------------------------------
# single-direction stencils
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _alias_weights(n_c: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only columns (c_k, s_k) / sqrt(2) for coarse modes k = 1..n_c."""
    theta = np.pi * np.arange(1, n_c + 1) / (4 * (n_c + 1))  # pi k / 2m with m = 2(n_c + 1)
    c = (np.cos(theta) ** 2 / np.sqrt(2.0))[:, None]
    s = (np.sin(theta) ** 2 / np.sqrt(2.0))[:, None]
    c.flags.writeable = s.flags.writeable = False
    return c, s


def restrict_space(fine: np.ndarray) -> np.ndarray:
    """Full weighting of (n_x, n_t) sine coefficients in space, n_x = 2*n_c + 1 modes."""
    n = fine.shape[0]
    if n % 2 != 1 or n < 3:
        raise ValueError(f"spatial size must be odd >= 3, got {n}")
    n_c = n // 2
    c, s = _alias_weights(n_c)
    coarse = c * fine[:n_c]
    coarse -= s * fine[:n_c:-1]  # fine modes m-1 down to m/2 + 1
    return coarse


def prolong_space(coarse: np.ndarray) -> np.ndarray:
    """Linear interpolation of (n_c, n_t) sine coefficients in space; twice the
    transposed restriction."""
    n_c = coarse.shape[0]
    c, s = _alias_weights(n_c)
    fine = np.empty((2 * n_c + 1,) + coarse.shape[1:])
    np.multiply(coarse, 2.0 * c, out=fine[:n_c])
    fine[n_c] = 0.0
    np.multiply(coarse, -2.0 * s, out=fine[:n_c:-1])
    return fine


def restrict_time(fine: np.ndarray) -> np.ndarray:
    """Full weighting along the last (time) axis, factor 2.

    Coarse step k lives at fine time t_{2k}.  The step before t_1 is the
    known initial value (zero in correction space) and steps beyond t_Nt
    are zero-padded, so the final coarse step only sees two terms.
    """
    nt = fine.shape[-1]
    if nt % 2 != 0:
        raise ValueError(f"time step count must be even, got {nt}")
    # 1/4 (f_{2k} + 2 f_{2k+1} + f_{2k+2}): scaling by powers of two is exact
    coarse = np.multiply(fine[..., 1::2], 2.0)
    coarse += fine[..., 0::2]
    coarse[..., :-1] += fine[..., 2::2]
    coarse *= 0.25
    return coarse


def prolong_time(coarse: np.ndarray) -> np.ndarray:
    """Linear interpolation along the last (time) axis; twice the transposed restriction."""
    nc = coarse.shape[-1]
    fine = np.empty(coarse.shape[:-1] + (2 * nc,))
    fine[..., 1::2] = coarse
    np.multiply(coarse[..., 0], 0.5, out=fine[..., 0])
    np.add(coarse[..., :-1], coarse[..., 1:], out=fine[..., 2::2])
    fine[..., 2::2] *= 0.5
    return fine


# ---------------------------------------------------------------------------
# strategy composites
# ---------------------------------------------------------------------------

def restrict(fine: np.ndarray, mt: int, mx: int) -> np.ndarray:
    """Composite full-weighting restriction of (n_x, n_t) coefficients by factors (mt, mx)."""
    check_step(mt, mx)
    out = restrict_space(fine) if mx == 2 else fine
    for _ in range(mt.bit_length() - 1):
        out = restrict_time(out)
    return out


def prolong(coarse: np.ndarray, mt: int, mx: int) -> np.ndarray:
    """Composite correction prolongation of (n_x, n_t) coefficients by factors (mt, mx).

    Returns mt times the composed per-direction interpolations, which is
    mt**2 * mx times the transposed composite restriction.
    """
    check_step(mt, mx)
    out = mt * coarse
    for _ in range(mt.bit_length() - 1):
        out = prolong_time(out)
    return prolong_space(out) if mx == 2 else out
