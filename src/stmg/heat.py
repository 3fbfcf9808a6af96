"""Backward Euler / centered difference discretization of the 1D heat equation.

The all-at-once lower block bidiagonal system is defined by its grid
alone: every spatial block Q has the constant stencil of sigma, so the
operator caches only Q's eigenvalues and sine basis.  In that basis Q is
diagonal, so the exact solve is one diagonal recurrence in time,
``time_march``, shared by ``direct_solve`` and the cycles, which solve
the reference and the coarsest grid with it.  Also here: the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .core import SpaceTimeGrid, _check_fields


@dataclass(frozen=True)
class ProblemData:
    """Source term f(x, t) and initial value u0(x) on (0,1) x (0, T]."""

    horizon: float
    source: Callable[[np.ndarray, float], np.ndarray]
    initial: Callable[[np.ndarray], np.ndarray]


def heat_benchmark_problem(horizon: float = 0.1) -> ProblemData:
    """The forced heat problem used by the experiment CLI.

    f(x, t) = x^4 (1-x)^4 + 10 sin(8t), u0 = 0.
    """

    def source(x, t):
        return x**4 * (1.0 - x) ** 4 + 10.0 * np.sin(8.0 * t)

    def initial(x):
        return np.zeros_like(x)

    return ProblemData(horizon=horizon, source=source, initial=initial)


@dataclass(frozen=True)
class HeatOperator:
    """All-at-once operator of a grid: row n is Q u_n - B u_{n-1} with B = I.

    Q = I - tau*A_h is the stencil (1 + 2*sigma) u_j - sigma (u_{j-1} + u_{j+1})
    (Dirichlet rows drop the outside neighbor), fixed by the grid's sigma.
    Its eigenvalues and its sine basis are built on first use and cached
    on the operator; the cached arrays are read-only.
    """

    grid: SpaceTimeGrid

    @property
    def sigma(self) -> float:
        return self.grid.sigma

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """lam_k = 1 + 4 sigma sin^2(pi k/2m), k = 1..n_x, m = n_x + 1: the spectrum of Q."""
        m = self.grid.n_x + 1
        lam = 1.0 + 4.0 * self.sigma * np.sin(np.pi * np.arange(1, m) / (2 * m)) ** 2
        lam.flags.writeable = False
        return lam

    @cached_property
    def sine_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """``(S, lam)`` with Q = S diag(lam) S.

        The orthogonal, symmetric DST-I matrix S[j, k] = sqrt(2/m) sin(pi j k/m),
        m = n_x + 1, diagonalizes the constant-coefficient Dirichlet Q,
        with the ``eigenvalues`` lam.
        """
        m = self.grid.n_x + 1
        k = np.arange(1, m)
        # j*k modulo the period 2m keeps the sine's argument small
        s = np.sqrt(2.0 / m) * np.sin(np.pi * (np.outer(k, k) % (2 * m)) / m)
        s.flags.writeable = False
        return s, self.eigenvalues


def assemble_operator(g: SpaceTimeGrid) -> HeatOperator:
    return HeatOperator(grid=g)


def assemble_rhs(g: SpaceTimeGrid, p: ProblemData) -> np.ndarray:
    """Sample the data into the block right-hand side.

    Block n holds tau*f(., t_n); block 1 additionally carries the initial
    value (B = I).  The tau factor matches Q = I - tau*A_h, i.e. the
    standard Backward Euler step u_{n+1} = u_n + tau*(A u_{n+1} + f_{n+1}).
    The problem's horizon must be the grid's.
    """
    if p.horizon != g.horizon:
        raise ValueError(f"problem horizon {p.horizon} does not match grid horizon {g.horizon}")
    x = g.x
    rhs = np.empty((g.n_t, g.n_x))
    np.multiply(g.tau, p.source(x[None, :], g.t[:, None]), out=rhs)
    rhs[0] += p.initial(x)
    return rhs


def time_march(v: np.ndarray, lam: np.ndarray) -> None:
    """Solve the system in place on sine coefficients: v_n <- (v_n + v_{n-1}) / lam.

    Row n of ``v`` holds the coefficients of time step n; on return it
    holds those of u_n = Q^{-1}(rhs_n + u_{n-1}), with Q = S diag(lam) S.
    The rows may be strided views, such as the rows of a transposed
    mode-major array.
    """
    v[0] /= lam
    # in place on row views; ``v[n] += ...`` would also copy each row back into v
    for prev, row in zip(v, v[1:]):
        row += prev
        row /= lam


def direct_solve(op: HeatOperator, rhs: np.ndarray) -> np.ndarray:
    """Exact solve u_n = Q^{-1}(rhs_n + u_{n-1}) of the system, in the sine basis.

    With the operator's cached ``sine_basis`` Q = S diag(lam) S, time
    stepping is ``time_march`` between two products with S.
    """
    _check_fields(op.grid, rhs=rhs)
    s, lam = op.sine_basis
    v = rhs @ s
    time_march(v, lam)
    return v @ s
