"""Restriction and prolongation on mode-major sine coefficients, and strategy composites.

The cycles hold a field as its sine coefficients in space, shape
(n_x, n_t): row k is the time series of sine mode k.  Per direction the
restriction is full weighting (1/4, 1/2, 1/4) and the prolongation is
linear interpolation, the transposed stencil scaled by 2.  Coarse nodes
sit at even fine indices (vertex-centered): spatial coarse node j is fine
node 2j, coarse time point k is fine time t_{2k}.

In time the stencils act along the last axis.  In space, full weighting
in the DST-I basis couples only the alias pair of fine modes k and m - k
(m = n_x + 1) and drops the middle mode m/2.  With
c_k = cos^2(pi k/2m) and s_k = sin^2(pi k/2m), coarse mode k is

    (c_k f_k - s_k f_{m-k}) / sqrt(2),

and the interpolation, twice the transpose, sends coarse mode k to
sqrt(2) c_k in fine mode k and -sqrt(2) s_k in fine mode m - k.

The time stencils run on flat row-major views: with an even step count,
``fine.reshape(-1)[1::2]`` is the row-wise ``fine[..., 1::2]``.  The
one coarse or fine step per row that the flat shift fills across a row
boundary is restored or rewritten, so every element sees the operations
of the 2-D strided slices.  Those took 23-43 % longer per restriction and
8-91 % longer per prolongation on 15x256 to 16x4096 fields (numpy 2.4.6,
timeit minima).  The alias weights stay (n_c, 1) columns.  As (n_c, n_t)
fields they made a cycle up to 4 % faster on 63x256 and 31x256, but up
to 2.3 % slower on 63x4096 at depth 5, where four extra half-size fields
per level stream from L3; and they would hold two more fields per space
halving.

Each composite takes the whole field or one block of alias pairs
(``block_rows``): the restriction writes the block's coarse rows into a
given coarse field, and the prolongation adds the block's correction into
a given fine field.  Blocks are bit for bit the whole field's rows.

The composite correction prolongation for the multigrid strategies is mt
times the composed interpolation.  Every row of the system carries one
time step: the fine residual scales with tau, and full weighting keeps
that scale.  A coarse level is rediscretized with time step mt*tau, so
it expects a right-hand side mt times larger, and its solution for the
restricted residual is 1/mt of the error; the factor mt restores it.
The Fourier analysis (``stmg.lfa``) uses the same correction.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import check_step, flat


# ---------------------------------------------------------------------------
# single-direction stencils
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _alias_weights(n_c: int, scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Read-only columns scale (c_k, s_k) / sqrt(2) for coarse modes k = 1..n_c.

    The interpolation's scale 2 is a power of two, so its weights are exactly
    twice the restriction's.
    """
    theta = np.pi * np.arange(1, n_c + 1) / (4 * (n_c + 1))  # pi k / 2m with m = 2(n_c + 1)
    c = (np.cos(theta) ** 2 / np.sqrt(2.0))[:, None] * scale
    s = (np.sin(theta) ** 2 / np.sqrt(2.0))[:, None] * scale
    c.flags.writeable = s.flags.writeable = False
    return c, s


def block_rows(n: int, pairs: tuple[int, int]) -> tuple[slice, ...]:
    """Row slices of the alias-pair block ``pairs`` = (a, b) of an n-row field.

    The block holds modes a+1..b and their partners n-b+1..n-a, where pair
    k couples rows k and n-1-k.  A block that reaches the middle, b = n//2,
    is the one contiguous run of rows [a, n - a), middle mode included.
    """
    a, b = pairs
    if b == n // 2:
        return (slice(a, n - a),)
    return slice(a, b), slice(n - b, n - a)


def restrict_space(fine: np.ndarray, pairs: tuple[int, int] | None = None) -> np.ndarray:
    """Full weighting of (n_x, n_t) sine coefficients in space, n_x = 2*n_c + 1 modes.

    With ``pairs`` = (a, b), only coarse modes a+1..b, from the block of
    alias pairs that ``block_rows`` names; by default all n_c.
    """
    n = fine.shape[0]
    if n % 2 != 1 or n < 3:
        raise ValueError(f"spatial size must be odd >= 3, got {n}")
    n_c = n // 2
    a, b = (0, n_c) if pairs is None else pairs
    c, s = _alias_weights(n_c)
    coarse = c[a:b] * fine[a:b]
    coarse -= s[a:b] * fine[n - 1 - a:n - 1 - b:-1]  # the partners, fine modes m-a-1 down to m-b
    return coarse


def prolong_space(coarse: np.ndarray, add_to: np.ndarray | None = None,
                  pairs: tuple[int, int] | None = None) -> np.ndarray:
    """Linear interpolation of (n_c, n_t) sine coefficients in space; twice the
    transposed restriction.

    Adds into the fine field ``add_to`` and returns it; by default into a new
    zero field.  With ``pairs`` = (a, b), ``coarse`` holds coarse modes
    a+1..b only, and only their block of alias pairs in ``add_to`` changes.
    The middle fine mode takes nothing.
    """
    if add_to is None:
        add_to = np.zeros((2 * coarse.shape[0] + 1,) + coarse.shape[1:])
    n = add_to.shape[0]
    a, b = (0, n // 2) if pairs is None else pairs
    c, s = _alias_weights(n // 2, 2.0)
    # add through views: ``add_to[a:b] += ...`` would also copy the rows back
    lo, hi = add_to[a:b], add_to[n - 1 - a:n - 1 - b:-1]
    hi -= coarse * s[a:b]
    lo += coarse * c[a:b]
    return add_to


def restrict_time(fine: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Full weighting along the last (time) axis, factor 2, into ``out`` if given.

    Coarse step k lives at fine time t_{2k}.  The step before t_1 is the
    known initial value (zero in correction space) and steps beyond t_Nt
    are zero-padded, so the final coarse step only sees two terms.  The
    stencil runs on flat views (an even step count keeps the parities
    aligned across rows), so ``out`` must be C-contiguous (``core.flat``).
    """
    nt = fine.shape[-1]
    if nt % 2 != 0:
        raise ValueError(f"time step count must be even, got {nt}")
    if out is None:
        out = np.empty(fine.shape[:-1] + (nt // 2,))
    f, o = np.ravel(fine), flat(out)
    # 1/4 (f_{2k} + 2 f_{2k+1} + f_{2k+2}): scaling by powers of two is exact
    np.multiply(f[1::2], 2.0, out=o)
    o += f[0::2]
    last = out[..., -1].copy()  # the flat shift adds the next row's first step here
    o[:-1] += f[2::2]
    out[..., -1] = last
    o *= 0.25
    return out


def prolong_time(coarse: np.ndarray) -> np.ndarray:
    """Linear interpolation along the last (time) axis; twice the transposed restriction."""
    nc = coarse.shape[-1]
    fine = np.empty(coarse.shape[:-1] + (2 * nc,))
    c, f = np.ravel(coarse), flat(fine)
    f[1::2] = c
    # on the flat view, step 0 of each row takes the previous row's last step: rewritten below
    np.add(c[:-1], c[1:], out=f[2::2])
    f[2::2] *= 0.5
    np.multiply(coarse[..., 0], 0.5, out=fine[..., 0])
    return fine


# ---------------------------------------------------------------------------
# strategy composites
# ---------------------------------------------------------------------------

def restrict(fine: np.ndarray, mt: int, mx: int, out: np.ndarray | None = None,
             pairs: tuple[int, int] | None = None) -> np.ndarray:
    """Composite full-weighting restriction of (n_x, n_t) coefficients by factors (mt, mx).

    Writes into the coarse field ``out`` and returns it; by default into a
    new one.  With ``pairs`` = (a, b), only the block of alias pairs that
    ``block_rows`` names is restricted, and only its coarse rows are written:
    rows a..b-1 after a space halving, the block's own rows otherwise.
    """
    mt, mx = check_step(mt, mx)
    n, n_t = fine.shape
    pairs = (0, n // 2) if pairs is None else pairs
    if out is None:
        out = np.empty(((n + 1) // mx - 1, n_t // mt))
    if mx == 2:
        parts = [(restrict_space(fine, pairs), slice(*pairs))]
    else:
        parts = [(fine[rows], rows) for rows in block_rows(n, pairs)]
    for part, rows in parts:
        if mt == 1:
            out[rows] = part
            continue
        for _ in range(mt.bit_length() - 2):
            part = restrict_time(part)
        restrict_time(part, out[rows])
    return out


def prolong(coarse: np.ndarray, mt: int, mx: int, add_to: np.ndarray | None = None,
            pairs: tuple[int, int] | None = None) -> np.ndarray:
    """Composite correction prolongation of (n_x, n_t) coefficients by factors (mt, mx).

    Adds mt times the composed per-direction interpolations, which is
    mt**2 * mx times the transposed composite restriction, into the fine
    field ``add_to`` and returns it; by default into a new zero field.  With
    ``pairs`` = (a, b), only the fine block of alias pairs that ``block_rows``
    names takes its correction, from the coarse rows ``restrict`` writes for it.
    """
    mt, mx = check_step(mt, mx)
    if add_to is None:
        add_to = np.zeros(((coarse.shape[0] + 1) * mx - 1, coarse.shape[1] * mt))
    n = add_to.shape[0]
    pairs = (0, n // 2) if pairs is None else pairs
    for rows in [slice(*pairs)] if mx == 2 else block_rows(n, pairs):
        out = mt * coarse[rows]
        for _ in range(mt.bit_length() - 1):
            out = prolong_time(out)
        if mx == 2:
            prolong_space(out, add_to, pairs)
        else:
            view = add_to[rows]
            view += out
    return add_to
