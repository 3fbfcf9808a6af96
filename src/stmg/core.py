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

import numbers
import operator
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
    """Raise ``ValueError`` unless sigma is real (``_check_reals``) and in (0, ``SIGMA_MAX``]."""
    _check_reals(sigma=sigma)
    if not 0.0 < sigma <= SIGMA_MAX:
        raise ValueError(f"sigma must be finite and positive, at most {SIGMA_MAX!r}, "
                         f"got {sigma}")


def check_omega(omega: float) -> None:
    """Raise ``ValueError`` unless the damping is real (``_check_reals``) and in (0, 1]."""
    _check_reals(omega=omega)
    if not 0.0 < omega <= 1.0:
        raise ValueError(f"omega must lie in (0, 1], got {omega}")


def check_integers(**counts) -> None:
    """Raise ``ValueError`` naming the first bool or non-integer count; numpy integers pass."""
    for name, value in counts.items():
        try:
            if isinstance(value, bool):
                raise TypeError
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_reals(**values) -> None:
    """Raise ``ValueError`` naming the first bool or non-``numbers.Real`` value; never converts."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")


def check_counts(**counts) -> None:
    """Raise ``ValueError`` naming the first count that is no integer or is negative."""
    check_integers(**counts)
    for name, value in counts.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


def check_resolution(resolution: int) -> None:
    """Raise ``ValueError`` unless the LFA samples per axis, ``resolution``, are even and >= 16."""
    check_integers(resolution=resolution)
    if resolution < 16 or resolution % 2 != 0:
        raise ValueError(f"resolution must be even and at least 16, got {resolution}")


def check_step(mt: int, mx: int) -> tuple[int, int]:
    """The coarsening step (mt, mx) as Python ints; the one check of valid factors.

    Raises ``ValueError`` naming ``mt`` or ``mx`` for a bool or non-integer
    factor (numpy integers pass), then unless the time factor is 1, 2 or 4
    and the space factor 1 or 2.  A returned factor m is
    ``m.bit_length() - 1`` factor-2 halvings in its direction.
    """
    check_integers(mt=mt, mx=mx)
    mt, mx = operator.index(mt), operator.index(mx)
    if mt not in (1, 2, 4):
        raise ValueError(f"time factor must be 1, 2 or 4, got {mt}")
    if mx not in (1, 2):
        raise ValueError(f"space factor must be 1 or 2, got {mx}")
    return mt, mx


def _checked_step(step) -> tuple[int, int]:
    try:
        mt, mx = step
    except (TypeError, ValueError):
        raise ValueError(f"a coarsening step must be an (mt, mx) pair, got {step!r}") from None
    return check_step(mt, mx)


def check_schedule(steps) -> tuple[tuple[int, int], ...]:
    """``steps``, any iterable of (mt, mx) pairs, as a tuple of Python-int ``check_step`` pairs.

    The rows of a numpy (k, 2) integer array are pairs too; a tuple of
    Python-int tuples is returned itself, so ``CoarseningStrategy.NEW`` stays
    the same object.  Raises ``ValueError`` naming a schedule that is not
    iterable or a step that is no pair, then for an empty schedule, a step
    ``check_step`` rejects or (1, 1), which coarsens nothing.  Each public
    entry point that takes a schedule calls this once, before any work.
    """
    try:
        checked = tuple(_checked_step(step) for step in steps)
    except TypeError:
        raise ValueError(f"a coarsening schedule must be an iterable of (mt, mx) steps, "
                         f"got {steps!r}") from None
    if not checked:
        raise ValueError("a coarsening schedule needs at least one (mt, mx) step")
    if (1, 1) in checked:
        raise ValueError("coarsening step (1, 1) coarsens nothing")
    if type(steps) is tuple and all(type(s) is tuple and {*map(type, s)} == {int} for s in steps):
        return steps
    return checked


def stage_levels(schedule, nu, eta) -> tuple:
    """One stage of a checked ``schedule``: ((step, nu), (step, eta), ...), finest first."""
    return tuple((step, eta if k else nu) for k, step in enumerate(schedule))


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
        check_integers(n_x=self.n_x, n_t=self.n_t)
        _check_reals(horizon=self.horizon)
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
    """Coarsen by factor ``mt`` in time and ``mx`` in space, checked by ``check_step``.

    The coarse grid keeps the horizon, so tau_c = mt*tau and
    h_c = mx*h, giving sigma_c = (mt/mx**2)*sigma.  The cycles use three
    cases: the direct (4, 2) step keeps sigma, full (2, 2) coarsening
    halves it and time semi-coarsening (2, 1) doubles it.  n_t and n_x + 1
    are powers of two of at least 4 and the factors at most 4 and 2, so
    the division is exact; a coarse grid too small is ``SpaceTimeGrid``'s
    own size error.
    """
    mt, mx = check_step(mt, mx)
    return SpaceTimeGrid(n_x=(g.n_x + 1) // mx - 1, n_t=g.n_t // mt, horizon=g.horizon)


def zero_field(g: SpaceTimeGrid) -> np.ndarray:
    return np.zeros((g.n_t, g.n_x))


def random_field(g: SpaceTimeGrid, rng: np.random.Generator) -> np.ndarray:
    """Uniform[0, 1) field, one value per space-time unknown."""
    return rng.random((g.n_t, g.n_x))


def flat(a: np.ndarray) -> np.ndarray:
    """The flat row-major view of ``a``, which a kernel writes through.

    Raises ``ValueError`` unless ``a`` is C-contiguous: ``reshape`` would
    then return a copy, and the writes would be lost.
    """
    if not a.flags.c_contiguous:
        raise ValueError(f"a flat-view kernel needs a C-contiguous array, got strides {a.strides}")
    return a.reshape(-1)


def mode_field(values: np.ndarray, n_t: int) -> np.ndarray:
    """Read-only mode-major (len(values), n_t) field whose row k holds values[k] throughout.

    A per-mode coefficient held as a field multiplies a field of that shape
    as one contiguous operand, not as a (rows, 1) column broadcast (see
    ``cycles``); each product is the same IEEE operation either way.
    """
    field = np.repeat(np.asarray(values, dtype=float)[:, None], n_t, axis=1)
    field.flags.writeable = False
    return field
