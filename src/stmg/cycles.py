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
grid and plan, and the cache holds no operator.

Blocks.  A sweep, the residual and the time transfers act on each sine
mode's row alone, and a space halving couples only the alias pair of rows
k and n_x-1-k.  So a level can work through its rows in blocks of alias
pairs: each block is smoothed, its residual taken and restricted into its
rows of the coarse residual; after the coarse correction each block adds
its prolonged correction into its rows of u and is smoothed again, while
it is still in cache.  The result is bit for bit that of one block.  A
level takes as few blocks as keep each block's share of one (n_x, n_t)
field within ``_BLOCK_BYTES`` (``_pair_blocks``), so a level that fits
is one block and makes the whole-field calls.  The budget is 512 kB: a
sweep touches three fields (u, rhs and the scratch field), which then fit
a core's 2 MB L2 cache beside the transfer temporaries.  The outer blocks
are shells, the row runs [a, b) and [n_x-b, n_x-a); the innermost is the
contiguous centre [a, n_x-a), middle mode included
(``transfer.block_rows``).  A 63x4096 level, 2 MB a field, takes four
blocks, and its sweeps read from L2 instead of L3.

Buffers.  ``_workspace`` allocates each level's scratch field and the
coarse residual and correction once: ``solve`` once per solve, ``run_cycle``
once per call.

Kernels.  The sweep, the residual and the time transfers make no column
broadcast and no 2-D shifted-slice ufunc call (see ``stmg.smoother``):
each level's per-mode coefficients lam and omega / lam are read-only
fields of its shape, built once per grid and plan by ``_setup``, and the
time shifts run on the flat view of each run of rows.  Against the 2-D
forms, with the same result bit for bit, the bench's ``run_cycle`` takes
13-19 % less time on 63x256 and 31x256 at depth 1 and 9-12 % less on
63x4096 at depth 5 (numpy 2.4.6, one BLAS thread).  Filling the two
fields per workspace, so once per ``run_cycle`` call, read 7-19 % slower
than caching them.  They cost two fields of memory per smoothed level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import (SpaceTimeGrid, check_counts, check_integers, check_omega, check_schedule,
                   coarsen_grid, flat, mode_field, random_field, stage_levels)
from .heat import HeatOperator, assemble_operator, time_march
from .smoother import SmootherConfig, jacobi_sweep
from .transfer import block_rows, prolong, restrict


@dataclass
class CostCounter:
    """Counted work: spatial tridiagonal block solves and transfer stencil blocks."""

    block_solves: int = 0
    transfer_blocks: int = 0


@dataclass(frozen=True)
class CyclePlan:
    """Schedule, sweep counts, damping and hierarchy depth for one cycle type.

    ``strategy`` is a stage's schedule, such as ``CoarseningStrategy.NEW``,
    kept as the tuple of Python-int pairs that ``core.check_schedule``
    returns (the caller's own, if it is one), so that a plan hashes.  ``depth``
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
        object.__setattr__(self, "strategy", check_schedule(self.strategy))
        check_omega(self.omega)
        check_counts(nu1=self.nu1, nu2=self.nu2, eta1=self.eta1, eta2=self.eta2)
        check_integers(depth=self.depth)
        if self.depth < 1:
            raise ValueError(f"depth must be at least 1, got {self.depth}")
        if len(self.strategy) == 1 and (self.eta1 or self.eta2):
            raise ValueError("a one-step schedule has no intermediate level; "
                             "eta sweep counts must be zero")


class Level(NamedTuple):
    grid: SpaceTimeGrid
    step: tuple[int, int]    # (mt, mx) down to the next level
    sweeps: tuple[int, int]  # (pre, post)


def plan_levels(g: SpaceTimeGrid, plan: CyclePlan) -> tuple[list[Level], SpaceTimeGrid]:
    """The smoothed levels of one cycle on ``g``, finest first, and the coarsest grid.

    Each stage lays ``core.stage_levels`` (``nu1``/``nu2``, then ``eta1``/``eta2``)
    down its grids.  Stages repeat while ``depth`` allows and every grid of the
    next stage is valid; if not even one stage fits, raises ``ValueError``.
    """
    stage_plan = stage_levels(plan.strategy, (plan.nu1, plan.nu2), (plan.eta1, plan.eta2))
    levels = []
    for _ in range(plan.depth):
        stage, coarse = [], g
        try:
            for step, sweeps in stage_plan:
                stage.append(Level(coarse, step, sweeps))
                coarse = coarsen_grid(coarse, *step)
        except ValueError as exc:
            if levels:
                break
            raise ValueError(f"grid n_x={g.n_x}, n_t={g.n_t} is too small for one "
                             f"coarsening stage {plan.strategy}: {exc}") from None
        levels += stage
        g = coarse
    return levels, g


#: bytes of one field that a level works on at once (see the module docstring):
#: three fields of a block fit a 2 MB L2 cache.  On 63x4096 at depth 5, 2**19
#: beat 2**18 by 0-2 % and 2**20 by 6 % per cycle (one BLAS thread, a Xeon core with 2 MB L2).
_BLOCK_BYTES = 2**19


def _pair_blocks(n_x: int, n_t: int) -> list[tuple[int, int]]:
    """A level's blocks of alias pairs (a, b), as ``transfer.block_rows`` reads them.

    As few blocks as keep each block's share of an (n_x, n_t) float field
    within ``_BLOCK_BYTES``, but at least one alias pair each.  The outer
    blocks are shells of two row runs; the last holds the centre rows.
    """
    pairs = n_x // 2
    count = min(pairs, -(-n_x * n_t * 8 // _BLOCK_BYTES))
    edges = [j * pairs // count for j in range(count + 1)]
    return list(zip(edges, edges[1:]))


@lru_cache(maxsize=8)
def _setup(g: SpaceTimeGrid, plan: CyclePlan):
    """One cycle of ``plan`` on ``g``, planned once per grid and plan.

    Returns each smoothed level's step, pre and post ``SmootherConfig``,
    blocks and eigenvalue field, finest first, the coarsest grid's
    eigenvalues and the cycle's (block solves, transfer blocks).  A level
    holds two read-only fields of its shape (``core.mode_field``): lam and
    the sweep gain omega / lam.  A block is its alias pairs (a, b) and its
    row slices, each with its rows of both fields (``_pair_blocks``).  With
    n_c = n_t/mt, a level takes (pre + post) n_t block solves and
    3 (n_t - n_c) transfer blocks, one per output time step of each time
    halving, plus 2 n_c for a space halving; the coarsest solve takes one
    block solve per time step.
    """
    levels, coarsest = plan_levels(g, plan)
    smoothed, solves, transfers = [], coarsest.n_t, 0
    for level in levels:
        (mt, mx), (n_x, n_t) = level.step, (level.grid.n_x, level.grid.n_t)
        solves += sum(level.sweeps) * n_t
        transfers += 3 * (n_t - n_t // mt) + (2 * n_t // mt if mx == 2 else 0)
        lam = assemble_operator(level.grid).eigenvalues
        gain, lam = mode_field(plan.omega / lam, n_t), mode_field(lam, n_t)
        blocks = tuple((pairs, tuple((rows, gain[rows], lam[rows])
                                     for rows in block_rows(n_x, pairs)))
                       for pairs in _pair_blocks(n_x, n_t))
        smoothed.append((level.step, *(SmootherConfig(plan.omega, n) for n in level.sweeps),
                         blocks, lam))
    return tuple(smoothed), assemble_operator(coarsest).eigenvalues, (solves, transfers)


def _residual(u, rhs, lam, out):
    """Write the coefficient residual rhs - L u = rhs - lam u + shift(u) to ``out``; return it.

    ``lam`` is the eigenvalue field of ``u``'s shape (``core.mode_field``);
    ``out`` must be C-contiguous (``core.flat``).
    """
    out_flat = flat(out)
    np.multiply(u, lam, out=out)
    np.subtract(rhs, out, out=out)
    first = out[:, 0].copy()  # the flat shift adds u[k-1, -1] here
    out_flat[1:] += np.ravel(u)[:-1]
    out[:, 0] = first
    return out


def _linf_l2(r, h):
    """The largest column norm sqrt(h * sum_k r[k, n]**2) of ``r``, free of overflow.

    Each column is scaled by 2**-e before squaring, 2**e the power of two
    just above its largest |r|, and its norm by 2**e after.  Scaling by a
    power of two is exact, so the result is bit for bit the unscaled one
    wherever that neither overflows nor underflows.
    """
    _, e = np.frexp(np.abs(r).max(axis=0))
    q = np.ldexp(r, -e)
    return float(np.ldexp(np.sqrt(h * np.sum(q * q, axis=0)), e).max())


def _workspace(levels, shape):
    """Each smoothed level's scratch field and the next level's (residual, correction).

    ``shape`` is the finest field's; the coarsest level solves in its residual.
    """
    space = []
    for k, ((mt, mx), *_) in enumerate(levels):
        n_x, n_t = shape
        shape = ((n_x + 1) // mx - 1, n_t // mt)
        rc = np.empty(shape)
        space.append((np.empty((n_x, n_t)), rc, rc if k == len(levels) - 1 else np.empty(shape)))
    return space


def _cycle(u, rhs, levels, coarsest, space) -> None:
    """Correct the mode-major coefficients ``u`` of the finest of ``levels`` in place.

    ``levels`` and ``coarsest`` are ``_setup``'s, ``space`` is ``_workspace``'s.
    Block by block, smooth, take the residual and restrict it; correct from
    the rest or by the exact coarsest solve; then block by block, add the
    prolonged correction and smooth.  Rows are independent apart from the
    alias pairs of a space halving, which share a block, so the blocks give
    the same result as one.  ``rhs`` is never written.
    """
    (mt, mx), pre, post, blocks, _ = levels[0]
    work, rc, ec = space[0]
    for pairs, rows in blocks:
        for v, gain, lam in rows:
            uv, rv, wv = u[v], rhs[v], work[v]
            jacobi_sweep(gain, uv, rv, pre, wv)
            _residual(uv, rv, lam, wv)
        restrict(work, mt, mx, rc, pairs)
    if len(levels) > 1:
        ec.fill(0.0)
        _cycle(ec, rc, levels[1:], coarsest, space[1:])
    else:
        time_march(ec.T, coarsest)  # rows of the transpose are time steps
    for pairs, rows in blocks:
        prolong(ec, mt, mx, u, pairs)
        for v, gain, _ in rows:
            jacobi_sweep(gain, u[v], rhs[v], post, work[v])


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
    levels, coarsest, (solves, transfers) = _setup(g, plan)
    if counter is not None:
        counter.block_solves += solves
        counter.transfer_blocks += transfers
    s = op.sine_basis[0]
    uh = s @ u.T  # S is symmetric: the mode-major coefficients S u_n, column n
    _cycle(uh, s @ rhs.T, levels, coarsest, _workspace(levels, uh.shape))
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

    The error is the L_inf(L2) distance to the exact direct solution (the
    quantity the convergence factors predict); the residual is recorded for
    diagnostics; both through ``_linf_l2``.  Non-convergence is reported
    through the history, never as an error.
    """
    check_counts(max_iters=max_iters)
    g = op.grid
    if rhs.shape != (g.n_t, g.n_x):
        raise ValueError(f"rhs shape {rhs.shape} does not match grid ({g.n_t}, {g.n_x})")
    levels, coarsest, (solves, transfers) = _setup(g, plan)
    s, lam = op.sine_basis
    rhs_h = s @ rhs.T
    reference = rhs_h.copy()  # precomputation, not counted
    time_march(reference.T, lam)
    u = s @ random_field(g, np.random.default_rng(seed)).T
    space = _workspace(levels, u.shape)
    work = space[0][0]  # the finest scratch field holds the residual between cycles
    lam_field = levels[0][4]
    errors, residuals, seconds = [], [], []
    while True:
        errors.append(_linf_l2(u - reference, g.h))
        residuals.append(_linf_l2(_residual(u, rhs_h, lam_field, work), g.h))
        if len(seconds) == max_iters or errors[-1] <= tol:
            break
        t0 = time.perf_counter()
        _cycle(u, rhs_h, levels, coarsest, space)
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
