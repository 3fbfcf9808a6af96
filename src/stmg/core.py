"""Cycle strategies, parameter checks, grids and space-time fields.

A cycle strategy is its coarsening schedule, the (mt, mx) steps of one
stage, which ``cycles`` runs and ``lfa`` analyses alike.

A space-time field is stored as a plain ``numpy`` array of shape
``(n_t, n_x)``: one contiguous block of spatial values per time step.
Inside a cycle the field is held as its sine coefficients, mode-major
with shape ``(n_x, n_t)``, so that each sine mode's time series is a
contiguous row (see ``cycles``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CoarseningStrategy:
    """The paper's two cycle strategies, each its schedule of (mt, mx) steps."""

    NEW = ((4, 2),)              # direct factor-4 time / factor-2 space coarsening
    ORIGINAL = ((2, 2), (2, 1))  # three-level: full coarsening then time semi-coarsening


#: largest accepted sigma.  The symbols form 2 sigma mt before dividing
#: by mx**2, 8 sigma at mt = 4; this keeps that finite, and with it every
#: symbol at the scales a schedule reaches and every value built from them
SIGMA_MAX = float(np.finfo(float).max) / 8


def check_sigma(sigma: float) -> None:
    """Raise ``ValueError`` unless 0 < sigma <= ``SIGMA_MAX``; NaN and inf fail too."""
    if not 0.0 < sigma <= SIGMA_MAX:
        raise ValueError(f"sigma must be finite and positive, at most {SIGMA_MAX!r}, "
                         f"got {sigma}")


def check_omega(omega: float) -> None:
    """Raise ``ValueError`` unless the damping satisfies 0 < omega <= 1; NaN fails too."""
    if not 0.0 < omega <= 1.0:
        raise ValueError(f"omega must lie in (0, 1], got {omega}")


def check_resolution(resolution: int) -> None:
    """Raise ``ValueError`` unless the LFA samples per axis, ``resolution``, are even and >= 16."""
    if resolution < 16 or resolution % 2 != 0:
        raise ValueError(f"resolution must be even and at least 16, got {resolution}")


def check_step(mt: int, mx: int) -> None:
    """Raise ``ValueError`` unless (mt, mx) is a supported coarsening step.

    Time factors are 1, 2 or 4 and space factors 1 or 2, so a factor m
    is ``m.bit_length() - 1`` factor-2 halvings in its direction.
    """
    if mt not in (1, 2, 4):
        raise ValueError(f"time factor must be 1, 2 or 4, got {mt}")
    if mx not in (1, 2):
        raise ValueError(f"space factor must be 1 or 2, got {mx}")


def check_schedule(steps) -> None:
    """Raise ``ValueError`` unless ``steps`` is a nonempty schedule of coarsening steps."""
    if not steps:
        raise ValueError("a coarsening schedule needs at least one (mt, mx) step")
    for mt, mx in steps:
        check_step(mt, mx)
        if mt == mx == 1:
            raise ValueError("coarsening step (1, 1) coarsens nothing")


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Discretization geometry for one level of the space-time hierarchy.

    ``n_x`` counts interior spatial unknowns on (0, 1) with homogeneous
    Dirichlet ends (not stored), so ``h = 1/(n_x + 1)``.  ``n_t`` counts
    time steps on (0, T]; the initial time carries the known initial
    condition and is not an unknown, so ``tau = T/n_t``.
    """

    n_x: int
    n_t: int
    horizon: float

    def __post_init__(self):
        if self.n_x < 3 or not _is_pow2(self.n_x + 1):
            raise ValueError(f"n_x must be 2**k - 1 with k >= 2, got {self.n_x}")
        if self.n_t < 4 or not _is_pow2(self.n_t):
            raise ValueError(f"n_t must be 2**m with m >= 2, got {self.n_t}")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        check_sigma(self.sigma)

    @property
    def h(self) -> float:
        return 1.0 / (self.n_x + 1)

    @property
    def tau(self) -> float:
        return self.horizon / self.n_t

    @property
    def sigma(self) -> float:
        """Anisotropy ratio tau/h**2, always recomputed from the steps."""
        return self.tau / self.h**2

    @property
    def x(self) -> np.ndarray:
        """Interior spatial nodes x_j = j*h, j = 1..n_x."""
        return np.arange(1, self.n_x + 1) * self.h

    @property
    def t(self) -> np.ndarray:
        """Time points t_n = n*tau, n = 1..n_t."""
        return np.arange(1, self.n_t + 1) * self.tau


def coarsen_grid(g: SpaceTimeGrid, mt: int, mx: int) -> SpaceTimeGrid:
    """Coarsen by factor ``mt`` in time and ``mx`` in space.

    The coarse grid keeps the horizon, so tau_c = mt*tau and
    h_c = mx*h, giving sigma_c = (mt/mx**2)*sigma.  The cycles use three
    cases: the direct (4, 2) step keeps sigma, full (2, 2) coarsening
    halves it and time semi-coarsening (2, 1) doubles it.
    """
    check_step(mt, mx)
    if g.n_t % mt != 0:
        raise ValueError(f"n_t={g.n_t} not divisible by time factor {mt}")
    if (g.n_x + 1) % mx != 0:
        raise ValueError(f"n_x+1={g.n_x + 1} not divisible by space factor {mx}")
    return SpaceTimeGrid(n_x=(g.n_x + 1) // mx - 1, n_t=g.n_t // mt, horizon=g.horizon)


def zero_field(g: SpaceTimeGrid) -> np.ndarray:
    return np.zeros((g.n_t, g.n_x))


def random_field(g: SpaceTimeGrid, rng: np.random.Generator) -> np.ndarray:
    """Uniform[0, 1) field, one value per space-time unknown."""
    return rng.random((g.n_t, g.n_x))
