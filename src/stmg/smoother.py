"""Damped block-Jacobi smoother on sine coefficients.

Every time block of the system holds the same Dirichlet Q = S diag(lam) S,
so in the sine basis S a block solve is a division by lam and a sweep
acts on each sine mode's time series alone.

The sweep avoids two slow numpy forms.  The per-mode gain omega / lam
is a contiguous field of the rows' shape (``core.mode_field``), not a
(rows, 1) column: with numpy 2.4.6 and one BLAS thread, a product on a
16x4096 block took 55-72 us against a column and 36-39 us against a
field, and on 63x256 15.5 against 9.8 us (timeit minima).  The time
shift u[k, n-1] runs on the flat row-major view of the rows, where the
2-D shifted slices took 21-23 us on 63x256 and the flat view 10-11 us;
column 0, which the flat shift fills from the previous row, is then
rewritten.  Every element sees the same IEEE operations as on the 2-D
slices, so the result is bit for bit theirs (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_counts, check_omega, flat


@dataclass(frozen=True)
class SmootherConfig:
    """Damping parameter in (0, 1] and a nonnegative sweep count."""

    omega: float
    sweeps: int

    def __post_init__(self):
        check_omega(self.omega)
        check_counts(sweeps=self.sweeps)


def jacobi_sweep(gain: np.ndarray, u: np.ndarray, rhs: np.ndarray, cfg: SmootherConfig,
                 work: np.ndarray) -> None:
    """Run ``cfg.sweeps`` damped block-Jacobi sweeps on sine coefficients, in place.

    ``u`` and ``rhs`` are mode-major, shape (n_x, n_t): row k is the time
    series of sine mode k, whose block of Q is the number lam[k].  The
    block diagonal D of L = D - shift holds Q in every time block, so the
    residual form u <- u + omega * D^{-1}(rhs - L u) of a sweep is

        u[k, n] <- (1 - omega) u[k, n] + omega (rhs[k, n] + u[k, n-1]) / lam[k].

    ``gain`` is the field of omega / lam[k] in row k, omega = ``cfg.omega``,
    as ``core.mode_field(cfg.omega / lam, n_t)`` builds it.  The sweeps are
    sequential; ``u`` is overwritten with the result, the same-shaped
    ``work`` is scratch, and ``rhs`` is never written.  ``u`` and ``work``
    must be C-contiguous (``core.flat``).
    """
    if rhs.shape != u.shape or work.shape != u.shape or gain.shape != u.shape:
        raise ValueError("coefficient shapes do not match the gain field")
    omega = cfg.omega
    uf, wf, rf = flat(u), flat(work), np.ravel(rhs)
    for _ in range(cfg.sweeps):
        # the shift on the flat view carries u[k-1, -1] into column 0; rewrite it
        np.add(rf[1:], uf[:-1], out=wf[1:])
        work[:, 0] = rhs[:, 0]
        work *= gain
        u *= 1.0 - omega
        u += work
