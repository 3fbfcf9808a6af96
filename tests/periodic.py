"""Periodic-in-time-and-space validation operators, assembled densely.

These exist solely to validate the Fourier symbols and harmonic-space
matrices against real matrices: on the torus the Fourier modes are exact
eigenvectors, so every symbol can be checked entrywise and the cycle
matrices block-diagonalize over the companion-mode groups.  The
user-facing solver is the Dirichlet/initial-value one in ``heat``.

Here ``n_t`` and ``n_x`` are full period counts (no Dirichlet ends), and
levels are parameterized directly by the anisotropy ratio sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def time_frequencies(n: int) -> np.ndarray:
    """Discrete angles 2*k*pi/n for k = 1 - n/2 .. n/2, inside (-pi, pi]."""
    if n % 2 != 0:
        raise ValueError("period count must be even")
    k = np.arange(1 - n // 2, n // 2 + 1)
    return 2.0 * np.pi * k / n


def fourier_mode(n_t: int, n_x: int, theta_t: float, theta_x: float) -> np.ndarray:
    """Sampled mode e^(i*n*theta_t) e^(i*j*theta_x), flattened time-major."""
    tpart = np.exp(1j * np.arange(1, n_t + 1) * theta_t)
    xpart = np.exp(1j * np.arange(1, n_x + 1) * theta_x)
    return np.kron(tpart, xpart)


@dataclass(frozen=True)
class PeriodicOperator:
    """Dense all-at-once operator on the space-time torus."""

    n_t: int
    n_x: int
    sigma: float
    matrix: np.ndarray

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(u).ravel()


def _circulant_step_matrix(n_x: int, sigma: float) -> np.ndarray:
    """I - tau*A on a spatial ring: diagonal 1+2*sigma, wrap couplings -sigma."""
    q = (1.0 + 2.0 * sigma) * np.eye(n_x)
    for i in range(n_x):
        q[i, (i - 1) % n_x] -= sigma
        q[i, (i + 1) % n_x] -= sigma
    return q


def _time_shift_matrix(n_t: int) -> np.ndarray:
    g = np.zeros((n_t, n_t))
    for i in range(n_t):
        g[i, (i - 1) % n_t] = 1.0
    return g


def operator_matrix(n_t: int, n_x: int, sigma: float) -> np.ndarray:
    """Periodic analogue of the block bidiagonal system (time coupling wraps)."""
    return (np.kron(np.eye(n_t), _circulant_step_matrix(n_x, sigma))
            - np.kron(_time_shift_matrix(n_t), np.eye(n_x)))


def assemble_periodic_operator(n_t: int, n_x: int, sigma: float) -> PeriodicOperator:
    return PeriodicOperator(n_t=n_t, n_x=n_x, sigma=sigma,
                            matrix=operator_matrix(n_t, n_x, sigma))


def smoother_matrix(n_t: int, n_x: int, sigma: float, omega: float) -> np.ndarray:
    """Damped block-Jacobi error matrix I - omega * D^{-1} L on the torus."""
    l = operator_matrix(n_t, n_x, sigma)
    d = np.kron(np.eye(n_t), _circulant_step_matrix(n_x, sigma))
    return np.eye(n_t * n_x) - omega * np.linalg.solve(d, l)


def restriction_1d(n: int) -> np.ndarray:
    """Periodic full weighting onto n//2 points, coarse point j at fine 2j+1."""
    if n % 2 != 0:
        raise ValueError("cannot halve an odd period count")
    r = np.zeros((n // 2, n))
    for j in range(n // 2):
        r[j, 2 * j] = 0.25
        r[j, 2 * j + 1] = 0.5
        r[j, (2 * j + 2) % n] = 0.25
    return r


def restriction_matrix(n_t: int, n_x: int, mt: int, mx: int) -> np.ndarray:
    rt = np.eye(n_t)
    nt = n_t
    for _ in range(mt.bit_length() - 1):
        rt = restriction_1d(nt) @ rt
        nt //= 2
    rx = restriction_1d(n_x) if mx == 2 else np.eye(n_x)
    return np.kron(rt, rx)


def prolongation_matrix(n_t: int, n_x: int, mt: int, mx: int) -> np.ndarray:
    """Correction prolongation: mt times the mode-normalized transpose.

    As an assembled matrix this is mt**2 * mx * R^T, because transposing
    the normalized full weighting absorbs one factor of the grid-size
    ratio per direction.
    """
    return mt * mt * mx * restriction_matrix(n_t, n_x, mt, mx).T


def cycle_matrix(steps, n_t: int, n_x: int, sigma: float, omega: float,
                 nu1: int, nu2: int, eta1: int = 0, eta2: int = 0) -> np.ndarray:
    """Dense error-propagation matrix of one cycle over ``steps`` on the torus.

    ``steps`` lists the (mt, mx) coarsening factors of the stage.  The
    fine level takes ``nu1``/``nu2`` sweeps, each intermediate level one
    ``eta1``/``eta2``-smoothed cycle from zero, and the coarsest level is
    inverted.  The periodic coarse operators are singular (constants);
    their inverse is taken as the pseudoinverse, which agrees with the
    true inverse on every harmonic group except the zero mode.
    """
    (mt, mx), rest = steps[0], steps[1:]
    n_tc, n_xc, sigma_c = n_t // mt, n_x // mx, sigma * mt / mx**2
    coarse_inv = np.linalg.pinv(operator_matrix(n_tc, n_xc, sigma_c))
    if rest:
        inner = cycle_matrix(rest, n_tc, n_xc, sigma_c, omega, eta1, eta2, eta1, eta2)
        coarse_inv = (np.eye(n_tc * n_xc) - inner) @ coarse_inv
    r = restriction_matrix(n_t, n_x, mt, mx)
    p = prolongation_matrix(n_t, n_x, mt, mx)
    cgc = np.eye(n_t * n_x) - p @ coarse_inv @ r @ operator_matrix(n_t, n_x, sigma)
    s = smoother_matrix(n_t, n_x, sigma, omega)
    return np.linalg.matrix_power(s, nu2) @ cgc @ np.linalg.matrix_power(s, nu1)


def harmonic_block(m: np.ndarray, n_t: int, n_x: int,
                   theta_t: np.ndarray, theta_x: np.ndarray) -> np.ndarray:
    """Project a dense torus matrix onto one companion-mode group.

    Valid because distinct discrete modes are orthogonal; returns the
    block in the given companion order, one row and column per mode.
    """
    modes = np.stack([fourier_mode(n_t, n_x, t, x) for t, x in zip(theta_t, theta_x)], axis=1)
    return modes.conj().T @ (m @ modes) / (n_t * n_x)


def discrete_low_frequencies(n_t: int, n_x: int, scale):
    """Discrete low frequencies (-pi/Mt, pi/Mt] x (-pi/Mx, pi/Mx] of ``scale`` on the torus."""
    mt, mx = scale
    tts = [t for t in time_frequencies(n_t) if -np.pi / mt < t <= np.pi / mt + 1e-14]
    txs = [x for x in time_frequencies(n_x) if -np.pi / mx < x <= np.pi / mx + 1e-14]
    return [(tt, tx) for tt in tts for tx in txs]
