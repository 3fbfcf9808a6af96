"""One multigrid cycle engine driven by a coarsening schedule, and the solve driver.

A strategy is a schedule, ``core.SCHEDULES[strategy]``: the list of
(time, space) coarsening factors of one stage.  That table is the one
place a strategy is defined; ``lfa`` analyses the same schedules.  The
direct strategy's stage is the single step (4, 2), a two-level method;
the original strategy's stage is a full space-time step (2, 2) followed
by a time semi-coarsening (2, 1), a three-level method.  Every level
of a stage is smoothed: ``nu1``/``nu2`` sweeps on the stage's fine level
and ``eta1``/``eta2`` sweeps on each intermediate one.  A deeper
hierarchy repeats the stage on the coarsest grid of the previous one
while ``depth`` allows and every grid of the next stage is a valid
``SpaceTimeGrid``; otherwise the coarsest system is solved exactly in
the sine basis, counted as one block solve per coarse time step.  Each
coarse operator is built once per grid and reused by later cycles, so
its sine basis and the smoother's Q^{-1} are built once too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (SCHEDULES, CoarseningStrategy, SpaceTimeGrid, check_omega, coarsen_grid,
                   random_field)
from .heat import HeatOperator, apply_operator, assemble_operator, direct_solve, error_norm
from .smoother import SmootherConfig, jacobi_sweep
from .transfer import prolong, restrict


@dataclass
class CostCounter:
    """Counted work: spatial tridiagonal block solves and transfer stencil blocks."""

    block_solves: int = 0
    transfer_blocks: int = 0


@dataclass(frozen=True)
class CyclePlan:
    """Sweep counts, damping and hierarchy depth for one cycle type.

    ``depth`` counts coarsening stages, each one pass through the
    strategy's schedule.  ``eta1``/``eta2`` are the sweeps on each
    intermediate level of a stage; a one-step schedule, such as the
    direct strategy's, has none.
    """

    strategy: CoarseningStrategy
    omega: float = 0.5
    nu1: int = 3
    nu2: int = 3
    eta1: int = 0
    eta2: int = 0
    depth: int = 1

    def __post_init__(self):
        if self.strategy not in SCHEDULES:
            raise ValueError("cycle strategy must be NEW or ORIGINAL")
        check_omega(self.omega)
        if min(self.nu1, self.nu2) < 0:
            raise ValueError("sweep counts must be nonnegative")
        if self.depth < 1:
            raise ValueError(f"depth must be at least 1, got {self.depth}")
        if len(SCHEDULES[self.strategy]) == 1 and (self.eta1 or self.eta2):
            raise ValueError("the direct strategy has no intermediate level; "
                             "eta sweep counts must be zero")
        if min(self.eta1, self.eta2) < 0:
            raise ValueError("eta sweep counts must be nonnegative")


def _stage_error(g: SpaceTimeGrid, steps) -> str | None:
    """Why ``g`` cannot take one stage of ``steps``, or None if it can."""
    try:
        for mt, mx in steps:
            g = coarsen_grid(g, mt, mx)
    except ValueError as exc:
        return str(exc)
    return None


# one operator per coarse grid, so its cached sine basis and Q^{-1} outlive a cycle
@lru_cache(maxsize=64)
def _coarse_operator(g: SpaceTimeGrid) -> HeatOperator:
    return assemble_operator(g)


def _smooth(op: HeatOperator, u, rhs, omega, sweeps, counter: CostCounter):
    if sweeps == 0:
        return u
    counter.block_solves += sweeps * op.grid.n_t
    return jacobi_sweep(op, u, rhs, SmootherConfig(omega=omega, sweeps=sweeps))


# one transfer block per output time row of a time halving, per coarse row of a space halving
def _restrict_counted(fine, mt, mx, counter: CostCounter):
    n_t = fine.shape[0]
    halvings = range(1, mt.bit_length())
    counter.transfer_blocks += sum(n_t >> k for k in halvings) + (n_t // mt if mx == 2 else 0)
    return restrict(fine, mt, mx)


def _prolong_counted(coarse, mt, mx, counter: CostCounter):
    n_tc = coarse.shape[0]
    halvings = range(1, mt.bit_length())
    counter.transfer_blocks += sum(n_tc << k for k in halvings) + (n_tc if mx == 2 else 0)
    return prolong(coarse, mt, mx)


def _cycle(op: HeatOperator, u, rhs, plan: CyclePlan, level: int, stages_left: int,
           counter: CostCounter):
    """Smooth on ``level`` of the current stage, correct from the next level, smooth."""
    steps = SCHEDULES[plan.strategy]
    pre, post = (plan.nu1, plan.nu2) if level == 0 else (plan.eta1, plan.eta2)
    mt, mx = steps[level]
    u = _smooth(op, u, rhs, plan.omega, pre, counter)
    rc = _restrict_counted(rhs - apply_operator(op, u), mt, mx, counter)
    cop = _coarse_operator(coarsen_grid(op.grid, mt, mx))
    if level + 1 < len(steps):
        ec = _cycle(cop, np.zeros_like(rc), rc, plan, level + 1, stages_left, counter)
    elif stages_left > 1 and _stage_error(cop.grid, steps) is None:
        ec = _cycle(cop, np.zeros_like(rc), rc, plan, 0, stages_left - 1, counter)
    else:
        counter.block_solves += cop.grid.n_t
        ec = direct_solve(cop, rc)
    u = u + _prolong_counted(ec, mt, mx, counter)
    return _smooth(op, u, rhs, plan.omega, post, counter)


def check_grid(g: SpaceTimeGrid, strategy: CoarseningStrategy) -> None:
    """Raise ``ValueError`` unless ``g`` can take one coarsening stage of ``strategy``."""
    why = _stage_error(g, SCHEDULES[strategy])
    if why is not None:
        raise ValueError(f"grid n_x={g.n_x}, n_t={g.n_t} is too small for one "
                         f"{strategy.value} coarsening stage: {why}")


def run_cycle(op: HeatOperator, u, rhs, plan: CyclePlan,
              counter: CostCounter | None = None):
    """One iteration of the plan's cycle; returns the new field.

    The cycle's work is added to ``counter``, a fresh one if none is
    given.  Raises ``ValueError`` before any work if the grid cannot take
    even one coarsening stage of the strategy.
    """
    check_grid(op.grid, plan.strategy)
    if counter is None:
        counter = CostCounter()
    return _cycle(op, u, rhs, plan, 0, plan.depth, counter)


@dataclass(frozen=True)
class RunResult:
    """Iteration history of one solve run.

    Histories have one entry per completed iteration plus the initial
    state; costs and wall seconds are per-iteration increments.
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
    history, never as an error.  Wall seconds time the cycle alone.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    g = op.grid
    reference = direct_solve(op, rhs)  # precomputation, not counted
    rng = np.random.default_rng(seed)
    u = random_field(g, rng)
    errors = [error_norm(u, reference, g)]
    residuals = [float(np.abs(rhs - apply_operator(op, u)).max())]
    solves, transfers, seconds = [], [], []
    for _ in range(max_iters):
        if errors[-1] <= tol:
            break
        counter = CostCounter()
        t0 = time.perf_counter()
        u = run_cycle(op, u, rhs, plan, counter)
        seconds.append(time.perf_counter() - t0)
        errors.append(error_norm(u, reference, g))
        residuals.append(float(np.abs(rhs - apply_operator(op, u)).max()))
        solves.append(counter.block_solves)
        transfers.append(counter.transfer_blocks)
    return RunResult(
        solution=u,
        error_history=np.array(errors),
        residual_history=np.array(residuals),
        block_solves=np.array(solves, dtype=int),
        transfer_blocks=np.array(transfers, dtype=int),
        wall_seconds=np.array(seconds),
        seed=seed,
    )
