"""Damped block-Jacobi smoother on sine coefficients and its closed-form optimal damping.

Every time block of the system holds the same Dirichlet Q = S diag(lam) S,
so in the sine basis S a block solve is a division by lam and a sweep
acts on each sine mode's time series alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_omega, check_schedule, check_sigma


@dataclass(frozen=True)
class SmootherConfig:
    """Damping parameter in (0, 1] and a nonnegative sweep count."""

    omega: float
    sweeps: int

    def __post_init__(self):
        check_omega(self.omega)
        if self.sweeps < 0:
            raise ValueError("sweeps must be nonnegative")


def jacobi_sweep(lam: np.ndarray, u: np.ndarray, rhs: np.ndarray, cfg: SmootherConfig,
                 work: np.ndarray) -> None:
    """Run ``cfg.sweeps`` damped block-Jacobi sweeps on sine coefficients, in place.

    ``u`` and ``rhs`` are mode-major, shape (n_x, n_t): row k is the time
    series of sine mode k, whose block of Q is the number lam[k].  The
    block diagonal D of L = D - shift holds Q in every time block, so the
    residual form u <- u + omega * D^{-1}(rhs - L u) of a sweep is

        u[k, n] <- (1 - omega) u[k, n] + omega (rhs[k, n] + u[k, n-1]) / lam[k].

    The sweeps are sequential; ``u`` is overwritten with the result, the
    same-shaped ``work`` is scratch, and ``rhs`` is never written.
    """
    if rhs.shape != u.shape or work.shape != u.shape or len(u) != len(lam):
        raise ValueError("coefficient shapes do not match the eigenvalues")
    omega = cfg.omega
    gain = (omega / lam)[:, None]
    for _ in range(cfg.sweeps):
        work[:, 0] = rhs[:, 0]
        np.add(rhs[:, 1:], u[:, :-1], out=work[:, 1:])
        work *= gain
        u *= 1.0 - omega
        u += work


def _crossing(step, sigma: float) -> float:
    """Damping up to which the space mode is the worst high mode of ``step``.

    The smoother symbol modulus over the high frequencies of the step
    (mt, mx) peaks at the time mode (pi/mt, 0) or the space mode
    (0, pi/mx).  The space mode is the worst for omega up to the value
    returned here and the time mode above it: 0 for time
    semi-coarsening, 1 for space semi-coarsening, and for mixed steps the
    omega where the two branches cross, written with c = 1 + 2*sigma.
    The (4, 2) branches cross only for c <= sqrt(2).
    """
    check_schedule((step,))
    mt, mx = step
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
    return max(0.5, _crossing(step, sigma))
