"""Restriction and prolongation in time and space, and strategy composites.

Per direction the restriction is full weighting (1/4, 1/2, 1/4) and the
prolongation is linear interpolation, the transposed stencil scaled by 2.
Coarse nodes sit at even fine indices (vertex-centered): spatial coarse
node j is fine node 2j, coarse time point k is fine time t_{2k}.

The composite correction prolongation for the multigrid strategies is mt
times the composed interpolation.  Every row of the system carries one
time step: the fine residual scales with tau, and full weighting keeps
that scale.  A coarse level is rediscretized with time step mt*tau, so
it expects a right-hand side mt times larger, and its solution for the
restricted residual is 1/mt of the error; the factor mt restores it.
The Fourier analysis (``stmg.lfa``) uses the same correction.
"""

from __future__ import annotations

import numpy as np

from .core import check_step


# ---------------------------------------------------------------------------
# single-direction stencils
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


# ---------------------------------------------------------------------------
# strategy composites
# ---------------------------------------------------------------------------

def restrict(fine: np.ndarray, mt: int, mx: int) -> np.ndarray:
    """Composite full-weighting restriction by factors (mt, mx)."""
    check_step(mt, mx)
    out = fine
    for _ in range(mt.bit_length() - 1):
        out = restrict_time(out)
    if mx == 2:
        out = restrict_space(out)
    return out


def prolong(coarse: np.ndarray, mt: int, mx: int) -> np.ndarray:
    """Composite correction prolongation by factors (mt, mx).

    Returns mt times the composed per-direction interpolations, which is
    mt**2 * mx times the transposed composite restriction.
    """
    check_step(mt, mx)
    out = coarse
    if mx == 2:
        out = prolong_space(out)
    for _ in range(mt.bit_length() - 1):
        out = prolong_time(out)
    return mt * out
