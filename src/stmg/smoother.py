"""Damped block-Jacobi smoother and its closed-form optimal damping parameter."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_sigma, check_step
from .heat import HeatOperator


@dataclass(frozen=True)
class SmootherConfig:
    """Damping parameter in (0, 1] and a nonnegative sweep count."""

    omega: float
    sweeps: int

    def __post_init__(self):
        if not 0.0 < self.omega <= 1.0:
            raise ValueError(f"omega must lie in (0, 1], got {self.omega}")
        if self.sweeps < 0:
            raise ValueError("sweeps must be nonnegative")


def jacobi_sweep(op: HeatOperator, u: np.ndarray, rhs: np.ndarray,
                 cfg: SmootherConfig) -> np.ndarray:
    """Run ``cfg.sweeps`` damped block-Jacobi sweeps and return the new field.

    The block diagonal D of L = D - shift holds Q in every time block and
    the shift moves block n-1 to block n, so D^{-1}(rhs - L u) is
    Q^{-1}(rhs_n + u_{n-1}) - u_n and the residual form
    u <- u + omega * D^{-1}(rhs - L u) of a sweep is the fused update

        u_n <- (1 - omega) u_n + omega * Q^{-1}(rhs_n + u_{n-1}),

    one matrix product per sweep with the operator's cached dense
    Q^{-1} = S diag(1/lam) S (``HeatOperator.q_inv``; Q^{-1} is
    symmetric, so the rows of ``b @ q_inv`` are the block solves) and no
    operator apply.  The per-block solves within one sweep are
    independent; sweeps are sequential.  The arithmetic runs in place on
    buffers the sweep owns (its right-hand side and each product), so
    neither ``u`` nor ``rhs`` is ever written.
    """
    g = op.grid
    if u.shape != (g.n_t, g.n_x) or rhs.shape != (g.n_t, g.n_x):
        raise ValueError("field shapes do not match the operator grid")
    omega = cfg.omega
    b = np.empty((g.n_t, g.n_x))
    for _ in range(cfg.sweeps):
        b[0] = rhs[0]
        np.add(rhs[1:], u[:-1], out=b[1:])
        x = b @ op.q_inv
        # b is free after the product: it takes (1 - omega) u
        x *= omega
        x += np.multiply(u, 1.0 - omega, out=b)
        u = x
    return u


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
    mt, mx = step
    check_step(mt, mx)
    if (mt, mx) == (1, 1):
        raise ValueError("step (1, 1) coarsens nothing, so it has no high frequencies")
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
