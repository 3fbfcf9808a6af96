"""Damped block-Jacobi smoother on sine coefficients.

Every time block of the system holds the same Dirichlet Q = S diag(lam) S,
so in the sine basis S a block solve is a division by lam and a sweep
acts on each sine mode's time series alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_integers, check_omega


@dataclass(frozen=True)
class SmootherConfig:
    """Damping parameter in (0, 1] and a nonnegative sweep count."""

    omega: float
    sweeps: int

    def __post_init__(self):
        check_omega(self.omega)
        check_integers(sweeps=self.sweeps)
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
