"""One multigrid cycle engine driven by a coarsening schedule, and the solve driver.

A strategy is its schedule: the tuple of (time, space) coarsening
factors of one stage, and ``lfa`` analyses the same tuple.  The direct
strategy, ``CoarseningStrategy.NEW``, is the single step (4, 2), a
two-level method; ``CoarseningStrategy.ORIGINAL`` is a full space-time
step (2, 2) followed by a time semi-coarsening (2, 1), a three-level
method.  Any other schedule that ``core.check_schedule`` accepts runs too.

``plan_levels`` plans a cycle before any work: its smoothed levels, finest
first, each with its grid, its step down and its (pre, post) sweeps, and
the coarsest grid, which is solved exactly.  ``_cycle`` walks the levels
on mode-major (n_x, n_t) sine coefficients (smooth, restrict the
residual, recurse on the rest or solve exactly, prolong, smooth).  Every
spatial block is Q = S diag(lam) S, so there a block solve is a division
by lam, the coarsest solve is ``heat.time_march`` and the space transfers
couple alias pairs of modes (``stmg.transfer``).  ``solve`` iterates in
the basis, multiplying by S only to bring in the right-hand side and the
initial guess and to return the solution; ``run_cycle`` is the one-cycle
physical wrapper.  Both read ``_setup``: a cycle is planned once per
operator and plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import (SpaceTimeGrid, check_integers, check_omega, check_schedule, coarsen_grid,
                   random_field)
from .heat import HeatOperator, assemble_operator, error_norm, time_march
from .smoother import SmootherConfig, jacobi_sweep
from .transfer import prolong, restrict


@dataclass
class CostCounter:
    """Counted work: spatial tridiagonal block solves and transfer stencil blocks."""

    block_solves: int = 0
    transfer_blocks: int = 0


@dataclass(frozen=True)
class CyclePlan:
    """Schedule, sweep counts, damping and hierarchy depth for one cycle type.

    ``strategy`` is a stage's schedule, such as ``CoarseningStrategy.NEW``,
    kept as a tuple of int pairs so that a plan hashes, and ``depth``
    counts stages.  ``eta1``/``eta2`` are the sweeps on each intermediate
    level of a stage; a one-step schedule has none.
    """

    strategy: tuple[tuple[int, int], ...]
    omega: float = 0.5
    nu1: int = 3
    nu2: int = 3
    eta1: int = 0
    eta2: int = 0
    depth: int = 1

    def __post_init__(self):
        check_schedule(self.strategy)
        if (steps := tuple((int(mt), int(mx)) for mt, mx in self.strategy)) != self.strategy:
            object.__setattr__(self, "strategy", steps)
        check_omega(self.omega)
        check_integers(nu1=self.nu1, nu2=self.nu2, eta1=self.eta1, eta2=self.eta2,
                       depth=self.depth)
        if min(self.nu1, self.nu2) < 0:
            raise ValueError("sweep counts must be nonnegative")
        if self.depth < 1:
            raise ValueError(f"depth must be at least 1, got {self.depth}")
        if len(self.strategy) == 1 and (self.eta1 or self.eta2):
            raise ValueError("a one-step schedule has no intermediate level; "
                             "eta sweep counts must be zero")
        if min(self.eta1, self.eta2) < 0:
            raise ValueError("eta sweep counts must be nonnegative")


class Level(NamedTuple):
    grid: SpaceTimeGrid
    step: tuple[int, int]    # (mt, mx) down to the next level
    sweeps: tuple[int, int]  # (pre, post)


def plan_levels(g: SpaceTimeGrid, plan: CyclePlan) -> tuple[list[Level], SpaceTimeGrid]:
    """The smoothed levels of one cycle on ``g``, finest first, and the coarsest grid.

    A stage's first level takes ``nu1``/``nu2`` sweeps and its others
    ``eta1``/``eta2``.  Stages repeat while ``depth`` allows and every grid
    of the next stage is valid; if not even one stage fits, raises ``ValueError``.
    """
    steps = plan.strategy
    sweeps = [(plan.nu1, plan.nu2)] + [(plan.eta1, plan.eta2)] * (len(steps) - 1)
    levels = []
    for _ in range(plan.depth):
        stage, coarse = [], g
        try:
            for step, pre_post in zip(steps, sweeps):
                stage.append(Level(coarse, step, pre_post))
                coarse = coarsen_grid(coarse, *step)
        except ValueError as exc:
            if levels:
                break
            raise ValueError(f"grid n_x={g.n_x}, n_t={g.n_t} is too small for one "
                             f"coarsening stage {steps}: {exc}") from None
        levels += stage
        g = coarse
    return levels, g


@lru_cache(maxsize=8)
def _setup(op: HeatOperator, plan: CyclePlan):
    """One cycle of ``plan`` on ``op``'s grid, planned once per operator and plan.

    Returns each smoothed level's (step, eigenvalues, pre and post ``SmootherConfig``),
    finest first, the coarsest grid's eigenvalues and the cycle's (block solves, transfer
    blocks).  With n_c = n_t/mt, a level takes (pre + post) n_t block solves and
    3 (n_t - n_c) transfer blocks, one per output time step of each time halving, plus
    2 n_c for a space halving; the coarsest solve takes one block solve per time step.
    An entry keeps ``op`` and its n_x**2 sine basis alive, so the cache is small.
    """
    levels, coarsest = plan_levels(op.grid, plan)
    lams = [op.eigenvalues] + [assemble_operator(level.grid).eigenvalues for level in levels[1:]]
    smoothed, solves, transfers = [], coarsest.n_t, 0
    for level, lam in zip(levels, lams):
        (mt, mx), n_t = level.step, level.grid.n_t
        solves += sum(level.sweeps) * n_t
        transfers += 3 * (n_t - n_t // mt) + (2 * n_t // mt if mx == 2 else 0)
        smoothed.append((level.step, lam, *(SmootherConfig(plan.omega, n) for n in level.sweeps)))
    return tuple(smoothed), assemble_operator(coarsest).eigenvalues, (solves, transfers)


def _residual(u, rhs, lam, out):
    """Write the coefficient residual rhs - L u = rhs - lam u + shift(u) to ``out``; return it."""
    np.multiply(u, lam[:, None], out=out)
    np.subtract(rhs, out, out=out)
    out[:, 1:] += u[:, :-1]
    return out


def _cycle(u, rhs, levels, coarsest) -> None:
    """Correct the mode-major coefficients ``u`` of the finest of ``levels`` in place.

    ``levels`` and ``coarsest`` are ``_setup``'s: each smoothed level's (step, eigenvalues,
    pre, post), finest first, and the coarsest grid's eigenvalues.  Smooth, correct from
    the rest or by the exact coarsest solve, smooth; ``rhs`` is never written.
    """
    (mt, mx), lam, pre, post = levels[0]
    work = np.empty_like(u)
    jacobi_sweep(lam, u, rhs, pre, work)
    rc = restrict(_residual(u, rhs, lam, work), mt, mx)
    if len(levels) > 1:
        ec = np.zeros_like(rc)
        _cycle(ec, rc, levels[1:], coarsest)
    else:
        ec = rc
        time_march(ec.T, coarsest)  # rows of the transpose are time steps
    u += prolong(ec, mt, mx)
    jacobi_sweep(lam, u, rhs, post, work)


def run_cycle(op: HeatOperator, u, rhs, plan: CyclePlan,
              counter: CostCounter | None = None):
    """One iteration of the plan's cycle; returns the new field.

    ``u`` and ``rhs`` are never written; the result is a new (n_t, n_x)
    array.  Adds the cycle's work (see ``_setup``) to ``counter``, if given.
    """
    g = op.grid
    if u.shape != (g.n_t, g.n_x) or rhs.shape != (g.n_t, g.n_x):
        raise ValueError(f"field shapes {u.shape} and {rhs.shape} do not match grid "
                         f"({g.n_t}, {g.n_x})")
    levels, coarsest, (solves, transfers) = _setup(op, plan)
    if counter is not None:
        counter.block_solves += solves
        counter.transfer_blocks += transfers
    s = op.sine_basis[0]
    uh = s @ u.T  # S is symmetric: the mode-major coefficients S u_n, column n
    _cycle(uh, s @ rhs.T, levels, coarsest)
    return np.matmul(uh.T, s)


@dataclass(frozen=True)
class RunResult:
    """Iteration history of one solve run.

    Histories have one entry per completed iteration plus the initial
    state; costs and wall seconds are per-iteration increments.  Residuals
    are the L_inf(L2) norm of the coefficient residual, which is the
    physical one as S is orthogonal; wall seconds time ``_cycle`` alone.
    """

    solution: np.ndarray
    error_history: np.ndarray
    residual_history: np.ndarray
    block_solves: np.ndarray
    transfer_blocks: np.ndarray
    wall_seconds: np.ndarray
    seed: int

    @property
    def iterations(self) -> int:
        return len(self.error_history) - 1


def solve(op: HeatOperator, rhs: np.ndarray, plan: CyclePlan, max_iters: int,
          tol: float, seed: int) -> RunResult:
    """Iterate the chosen cycle from a seeded uniform[0,1) initial guess.

    The error is the L_inf(L2) distance to the exact direct solution
    (the quantity the convergence factors predict); the residual history
    is recorded for diagnostics.  Non-convergence is reported through the
    history, never as an error.
    """
    check_integers(max_iters=max_iters)
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    g = op.grid
    if rhs.shape != (g.n_t, g.n_x):
        raise ValueError(f"rhs shape {rhs.shape} does not match grid ({g.n_t}, {g.n_x})")
    levels, coarsest, (solves, transfers) = _setup(op, plan)
    s, lam = op.sine_basis
    rhs_h = s @ rhs.T
    reference = rhs_h.copy()  # precomputation, not counted
    time_march(reference.T, lam)
    u = s @ random_field(g, np.random.default_rng(seed)).T
    work = np.empty_like(u)
    errors, residuals, seconds = [], [], []
    while True:
        errors.append(error_norm(u.T, reference.T, g))
        r = _residual(u, rhs_h, lam, work)
        residuals.append(float(np.sqrt(g.h * np.sum(r * r, axis=0)).max()))
        if len(seconds) == max_iters or errors[-1] <= tol:
            break
        t0 = time.perf_counter()
        _cycle(u, rhs_h, levels, coarsest)
        seconds.append(time.perf_counter() - t0)
    return RunResult(
        solution=np.matmul(u.T, s),
        error_history=np.array(errors),
        residual_history=np.array(residuals),
        block_solves=np.full(len(seconds), solves),
        transfer_blocks=np.full(len(seconds), transfers),
        wall_seconds=np.array(seconds),
        seed=seed,
    )
