"""Independent references the benchmark checks `stmg` against.

Nothing here imports `stmg`: the heat reference steps dense matrices in
time, and the periodic cycle matrices are assembled from their
definitions, so a fault shared by a solver routine and its usual oracle
cannot hide.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# heat equation: right-hand side, dense time stepping, error norm
# ---------------------------------------------------------------------------

def heat_rhs(n_x: int, n_t: int, horizon: float) -> np.ndarray:
    """tau * f(x_j, t_n) for f = x^4 (1-x)^4 + 10 sin(8t) and u0 = 0."""
    h, tau = 1.0 / (n_x + 1), horizon / n_t
    x = h * np.arange(1, n_x + 1)
    t = tau * np.arange(1, n_t + 1)
    return tau * (x[None, :] ** 4 * (1.0 - x[None, :]) ** 4 + 10.0 * np.sin(8.0 * t[:, None]))


def step_matrix(n_x: int, sigma: float) -> np.ndarray:
    """Dense Q = I - tau*A_h with Dirichlet ends: 1 + 2 sigma on the diagonal, -sigma beside it."""
    return ((1.0 + 2.0 * sigma) * np.eye(n_x)
            - sigma * (np.eye(n_x, k=1) + np.eye(n_x, k=-1)))


def time_step(rhs: np.ndarray, sigma: float) -> np.ndarray:
    """Backward Euler by dense solves: Q u_n = rhs_n + u_{n-1}, u_0 = 0."""
    n_t, n_x = rhs.shape
    q_inv = np.linalg.inv(step_matrix(n_x, sigma))
    u = np.empty_like(rhs)
    prev = np.zeros(n_x)
    for n in range(n_t):
        prev = q_inv @ (rhs[n] + prev)
        u[n] = prev
    return u


def l_inf_l2(d: np.ndarray, h: float) -> float:
    """Max over time steps of the discrete L2 norm in space."""
    return float(np.sqrt(h * np.einsum("ij,ij->i", d, d)).max())


def rel_max_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


# ---------------------------------------------------------------------------
# dense periodic cycle matrices
# ---------------------------------------------------------------------------

def _ring_step(n: int, sigma: float) -> np.ndarray:
    q = (1.0 + 2.0 * sigma) * np.eye(n)
    return q - sigma * (np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1))


def periodic_operator(n_t: int, n_x: int, sigma: float) -> np.ndarray:
    """Row n is Q u_n - u_{n-1}, with both time and space wrapping around."""
    shift = np.roll(np.eye(n_t), 1, axis=0)
    return np.kron(np.eye(n_t), _ring_step(n_x, sigma)) - np.kron(shift, np.eye(n_x))


def _full_weighting(n: int) -> np.ndarray:
    """Periodic (1/4, 1/2, 1/4) onto n/2 points; coarse j sits at fine 2j."""
    r = np.zeros((n // 2, n))
    for j in range(n // 2):
        r[j, [(2 * j - 1) % n, 2 * j, 2 * j + 1]] = (0.25, 0.5, 0.25)
    return r


def _restriction(n_t: int, n_x: int, mt: int, mx: int) -> np.ndarray:
    rt = np.eye(n_t)
    for _ in range(mt.bit_length() - 1):
        rt = _full_weighting(rt.shape[0]) @ rt
    rx = _full_weighting(n_x) if mx == 2 else np.eye(n_x)
    return np.kron(rt, rx)


def _prolongation(n_t: int, n_x: int, mt: int, mx: int) -> np.ndarray:
    """mt times linear interpolation, the correction transfer the LFA assumes.

    Linear interpolation is 2 R^T per halved direction, so it is
    mt * mx * R^T, and the prolongation is mt**2 * mx * R^T.
    """
    return mt * mt * mx * _restriction(n_t, n_x, mt, mx).T


def _jacobi(l: np.ndarray, n_t: int, n_x: int, sigma: float, omega: float):
    """Error matrix S = I - omega D^-1 L and the map W = omega D^-1 of one sweep."""
    w = omega * np.kron(np.eye(n_t), np.linalg.inv(_ring_step(n_x, sigma)))
    return np.eye(len(l)) - w @ l, w


def _from_zero(s: np.ndarray, w: np.ndarray, sweeps: int) -> np.ndarray:
    """Map rhs -> iterate after ``sweeps`` sweeps from a zero guess."""
    out = np.zeros_like(s)
    for _ in range(sweeps):
        out = s @ out + w
    return out


def cycle_matrix(strategy: str, n_t: int, n_x: int, sigma: float, omega: float,
                 nu1: int, nu2: int, eta1: int, eta2: int) -> np.ndarray:
    """Error propagation of one NEW (4,2) or ORIGINAL (2,2)+(2,1) cycle on the torus.

    Written step by step after the cycle, not after the LFA formulas: the
    ORIGINAL middle level smooths from zero, restricts its residual,
    solves the (4,2) level exactly, prolongs and smooths again.  The
    periodic coarsest operator is singular on constants only, so its
    pseudoinverse is exact on every other harmonic group.
    """
    l = periodic_operator(n_t, n_x, sigma)
    s, _ = _jacobi(l, n_t, n_x, sigma, omega)
    l4_inv = np.linalg.pinv(periodic_operator(n_t // 4, n_x // 2, sigma))
    if strategy == "new":
        coarse = (_prolongation(n_t, n_x, 4, 2) @ l4_inv
                  @ _restriction(n_t, n_x, 4, 2))
    else:
        nt2, nx2 = n_t // 2, n_x // 2
        l2 = periodic_operator(nt2, nx2, sigma / 2)
        s2, w2 = _jacobi(l2, nt2, nx2, sigma / 2, omega)
        pre = _from_zero(s2, w2, eta1)
        low = (_prolongation(nt2, nx2, 2, 1) @ l4_inv
               @ _restriction(nt2, nx2, 2, 1) @ (np.eye(len(l2)) - l2 @ pre))
        mid = np.linalg.matrix_power(s2, eta2) @ (pre + low) + _from_zero(s2, w2, eta2)
        coarse = _prolongation(n_t, n_x, 2, 2) @ mid @ _restriction(n_t, n_x, 2, 2)
    cgc = np.eye(len(l)) - coarse @ l
    return np.linalg.matrix_power(s, nu2) @ cgc @ np.linalg.matrix_power(s, nu1)


def _modes(n_t: int, n_x: int, freqs) -> np.ndarray:
    """Orthonormal columns e^(i(n theta_t + j theta_x)), flattened time-major."""
    nt, nx = np.arange(n_t), np.arange(n_x)
    cols = [np.kron(np.exp(1j * nt * a), np.exp(1j * nx * b)) for a, b in freqs]
    return np.stack(cols, axis=1) / np.sqrt(n_t * n_x)


def radius_without_zero_group(m: np.ndarray, n_t: int, n_x: int) -> float:
    """Spectral radius of m on the complement of the modes that alias to zero.

    Those eight modes (time 0, +-pi/2, pi; space 0, pi) span an invariant
    subspace on which the periodic coarse operator is singular; the LFA
    excludes that group, so it is projected out here.
    """
    zero = [(a, b) for a in (0.0, np.pi / 2, np.pi, -np.pi / 2) for b in (0.0, np.pi)]
    f0 = _modes(n_t, n_x, zero)
    proj = np.eye(len(m)) - f0 @ f0.conj().T
    return float(np.abs(np.linalg.eigvals(proj @ m @ proj)).max())


def low_frequencies(n_t: int, n_x: int):
    """Discrete torus angles in the LFA's low box (-pi/4, pi/4] x (-pi/2, pi/2]."""
    kt = np.arange(-(n_t // 8) + 1, n_t // 8 + 1)
    kx = np.arange(-(n_x // 4) + 1, n_x // 4 + 1)
    tt, tx = np.meshgrid(2 * np.pi * kt / n_t, 2 * np.pi * kx / n_x, indexing="ij")
    return tt.ravel(), tx.ravel()
