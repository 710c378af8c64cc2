"""Global maximization of the square-root theta norm over the Jacobian torus.

Deterministic three-stage search.  theta is even, so the norm is invariant
under x -> -x mod Z^{2g}, and each stage works on half the torus.  A
tensor grid in lattice coordinates is scanned in double precision by
``periods.sqrt_norm_grid``, which evaluates the theta sum on each m-slice as
a trigonometric polynomial in n (one small matrix product per axis) and
returns the m_1-slabs 0, ..., nd // 2, a fundamental domain of x -> -x.
One Newton iteration on log<s,s>, ``_newton``, then runs twice: in doubles
from the discrete local maxima of that half grid, its edge neighbours read
as mirrors, one start per cluster of tied neighbouring maxima, and at working
precision from the converged points whose double value ties the best, one
per pair {x, -x}, which from double accuracy takes two lattice sums.  Both
read the one theta-sum contract of ``periods`` (lattice coordinates x = (n,
m) in, s = theta(n + tau m) exp(-pi m'Ym) and its z-derivatives times the
same factor out), from ``periods._theta_batch`` in doubles and from
``periods._theta_point`` at working precision (Deconinck, Heil, Bobenko, van
Hoeij, Schmies, "Computing Riemann theta functions", Math. Comp. 73 (2004);
Birkenhake, Lange, "Complex Abelian Varieties", 2004, for the evenness of
theta).  Both drop a start by one rule, a pivot of -H that is not positive
(``_solve_definite``).  No global-optimality certificate is produced; the
probe and grid-monotonicity properties in the test suite are the practical
guard.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import BudgetExceeded, ConfigRejected, InvalidInput
from .periods import PeriodMatrix, sqrt_norm_grid
from .periods import _SCAN_CHUNK, _mirror, _theta_batch, _theta_point

# Grid points per scan.  The value array, half the grid, resident from the
# scan until the starts are chosen, costs 8 bytes per point it holds; choosing
# the starts adds two buffers of one block of slabs each
# (``periods._SCAN_CHUNK`` points, or one slab if larger) and, at the half's
# edges, one mirrored slab.
_GRID_BUDGET = 10**8
_NEWTON_MAX_STEPS = 20  # starts in a maximum's basin converge in about six
# Grid values carry a relative error of about 1e-15: values closer than this
# are ties, a double Newton value further below the best than this is not
# polished, and a refined maximum further below grid_best than this means
# Newton left the grid's best basin.
_GRID_RTOL = 1e-13


@dataclass(frozen=True)
class ThetaMaxResult:
    value: object          # mpf, the maximum of sqrt(<s,s>)
    argmax_coords: tuple   # lattice coordinates in [0,1)^{2g}
    grid_best: float


def default_optimizer_config(g: int) -> int:
    """The default grid points per axis: 256 at g = 1; for g >= 2 the
    largest nd <= 32 with nd^(2g) <= 32^4, the preset's grid (10 at g = 3),
    but at least 8."""
    if g == 1:
        return 256
    nd = 32
    while nd > 8 and nd ** (2 * g) > 32**4:
        nd -= 1
    return nd


def _solve_definite(A, b):
    """The solution of A x = b for a symmetric positive definite A, or None.

    Gaussian elimination without pivoting, on floats or on mpmath numbers at
    the ambient precision.  A symmetric matrix is positive definite exactly
    when all its pivots are positive (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2nd ed., SIAM 2002, ch. 10), so the first pivot
    that is not positive, NaN included, returns None.
    """
    n, A, x = len(b), np.asarray(A).tolist(), np.asarray(b).tolist()
    for k in range(n):
        if not A[k][k] > 0:
            return None
        for i in range(k + 1, n):
            f = A[i][k] / A[k][k]
            for j in range(k + 1, n):
                A[i][j] -= f * A[k][j]
            x[i] -= f * x[k]
    for k in reversed(range(n)):
        x[k] = (x[k] - sum(A[k][j] * x[j] for j in range(k + 1, n))) / A[k][k]
    return np.array(x)


def _newton(tau: PeriodMatrix, start, polish: bool = False):
    """Newton ascent on log<s,s> = const - 2 pi m'Ym + 2 Re log theta(n + tau m).

    With J = [I | tau] and a = theta'/theta the gradient in x = (n, m) is
    2 Re(J'a) - 4 pi (0, Ym) and the Hessian H = 2 Re(J'(theta''/theta -
    a a')J) - 4 pi diag(0, Y); the kernel's factor exp(-pi m'Ym) cancels in the
    ratios.  Without ``polish`` the sum is ``_theta_batch`` at one point, the
    algebra runs in doubles, and a step below 2^(-26) ends the iteration.
    With ``polish`` the sum is ``_theta_point`` and the algebra runs on
    mpmath numbers, both at bits = ``tau.bits``, and a step below
    2^(-bits/2), which leaves an error near 2^(-bits), ends it.  The iterate
    is kept in [-1/2, 1/2)^{2g}, where the sum's lattice set is smallest.
    Returns ``(value, x)``: x reduced to [0,1)^{2g}, and value = sqrt(<s,s>)
    = |s| (det Y)^(1/4) from the s of the last sum, one sub-tolerance step
    from x, where <s,s> differs from its value at x only at second order.
    Returns None when a sum is 0 (an s that underflows in doubles, far from
    every maximum), when ``_solve_definite`` rejects -H, or when the cap is
    reached.
    """
    g, bits = tau.g, tau.bits
    with mp.workprec(bits):
        if not polish:
            x = np.asarray(start, dtype=float)
            J, Y4pi = np.hstack([np.eye(g), tau.tau_np]), 4 * np.pi * tau.Y_np
            root4, tol = math.sqrt(tau.scale), 2.0**-26
        else:
            x = np.array([mp.mpf(c) for c in start])
            J = np.hstack([np.eye(g), np.array(tau.tau_rows)])
            # the array on the left: an mpmath number on the left first
            # tries, and fails, to convert the array, at the cost of its repr
            Y4pi = np.array(tau.Y_rows) * (4 * mp.pi)
            root4, tol = mp.sqrt(mp.sqrt(tau.detY)), mp.mpf(2) ** (-mp.mpf(bits) / 2)
        for _ in range(_NEWTON_MAX_STEPS):
            x = np.array([c - round(c) for c in x])
            if polish:
                s, d1, d2 = _theta_point(tau, x, derivs=True)
            else:
                s, d1, d2 = (v[0] for v in _theta_batch(tau, x[None], derivs=True))
            if s == 0:
                return None
            a = d1 / s
            H = J.T @ (d2 / s - np.outer(a, a)) @ J
            # real parts one by one: ndarray.real keeps object arrays as they are
            grad = 2 * np.array([c.real for c in J.T @ a])
            hess = 2 * np.array([[c.real for c in row] for row in H])
            grad[g:] -= Y4pi @ x[g:]
            hess[g:, g:] -= Y4pi
            step = _solve_definite(-hess, grad)
            if step is None:
                return None
            x = x + step
            if np.abs(step).max() < tol:
                return abs(s) * root4, tuple(c - math.floor(c) for c in x)
    return None


def _max3(src: np.ndarray, dst: np.ndarray, ax: int, before, after) -> None:
    """dst = the maximum of src and its two neighbours along axis ``ax``.

    The neighbour of src's first row is the last row of ``before``, and that
    of its last row the first row of ``after``; src for both wraps the axis
    around.
    """

    def part(lo, hi):
        return (slice(None),) * ax + (slice(lo, hi),)

    np.maximum(src[part(None, -1)], src[part(1, None)], out=dst[part(1, None)])
    np.maximum(before[part(-1, None)], src[part(0, 1)], out=dst[part(0, 1)])
    np.maximum(dst[part(None, -1)], src[part(1, None)], out=dst[part(None, -1)])
    np.maximum(dst[part(-1, None)], after[part(0, 1)], out=dst[part(-1, None)])


def _grid_starts(vals: np.ndarray) -> np.ndarray:
    """Flat indices of the local maxima of an even periodic grid, one per tie
    cluster, from the half of it ``periods.sqrt_norm_grid`` returns.

    vals holds the first-axis slabs 0, ..., nd // 2 of a grid {k/nd}^d that
    is invariant under x -> -x (index k of every axis read at -k mod nd);
    nd is read off the last axis.  A point is a local maximum when none of
    its 3^d - 1 wrap-around neighbours on the whole grid exceeds it by more
    than ``_GRID_RTOL``.  Neighbouring local maxima of the whole grid form
    one cluster, represented by its lowest flat index, so a plateau of ties
    makes one start; the clusters are formed over the maxima found and
    their mirrors, which are the maxima of the other slabs, and the starts
    returned are those that lie in vals, as flat indices of vals in
    increasing order.

    The maxima are found one block of first-axis slabs vals[i] at a time, in
    the order of i; a block holds one slab, or as many as fit in
    ``periods._SCAN_CHUNK``.  The neighbourhood maximum is a maximum over a
    product of per-axis windows, so it is taken one axis at a time, the
    first axis first: straight from vals, with the slabs on either side of
    the block as its neighbours, then each other axis within the block,
    alternating between two block-sized buffers.  Beyond the edges of vals
    the neighbours are mirrors (``periods._mirror``): slab -1 of slab 1, and
    slab nd // 2 + 1 of slab nd - nd // 2 - 1, the last slab itself when nd
    is odd.  No buffer is larger than a block.
    """
    half, nd, slab = len(vals), vals.shape[-1], vals[0].size
    shape, axes = (nd,) + vals.shape[1:], tuple(range(vals.ndim - 1))
    b = max(1, min(half, _SCAN_CHUNK // slab))
    bufs = [np.empty_like(vals[:b]) for _ in range(2)]
    parts = []
    for lo in range(0, half, b):
        hi = min(lo + b, half)
        top, spare = (a[: hi - lo] for a in bufs)
        before = vals[lo - 1] if lo else _mirror(vals[1], axes)
        after = vals[hi] if hi < half else _mirror(vals[nd - half], axes)
        _max3(vals[lo:hi], top, 0, before[None], after[None])
        for ax in range(1, vals.ndim):
            _max3(top, spare, ax, top, top)
            top, spare = spare, top
        scaled = np.multiply(vals[lo:hi], 1 + _GRID_RTOL, out=spare)
        parts.append(np.flatnonzero(top <= scaled) + lo * slab)
    flat = np.concatenate(parts)
    # a cluster may reach slabs on both sides through the mirrors (np.union1d
    # would import numpy.ma, a megabyte of modules)
    mirrors = np.ravel_multi_index(-np.array(np.unravel_index(flat, shape)), shape, mode="wrap")
    flat = np.sort(np.concatenate([flat, mirrors]))
    flat = flat[np.diff(flat, prepend=-1) != 0]
    coords = np.array(np.unravel_index(flat, shape))
    src, dst = [], []
    for step in itertools.product((-1, 0, 1), repeat=vals.ndim):
        nbr = np.ravel_multi_index(coords + np.array(step)[:, None], shape, mode="wrap")
        pos = np.minimum(np.searchsorted(flat, nbr), len(flat) - 1)
        hit = flat[pos] == nbr
        src.append(np.flatnonzero(hit))
        dst.append(pos[hit])
    src, dst = np.concatenate(src), np.concatenate(dst)
    label = flat.copy()
    while True:
        new = label.copy()
        np.minimum.at(new, src, label[dst])
        if np.array_equal(new, label):
            break
        label = new
    starts = flat[label == flat]
    return starts[starts < vals.size]


def _tie_key(x, bits: int):
    """x's coordinates mod 1, as integers in units of 2^(-floor(bits/2)), the
    Newton stop tolerance at ``bits``: a coordinate that is 0 mod 1 reads 0
    whether the last step left it at eps or at 1 - eps."""
    scale = 2 ** (bits // 2)
    with mp.workprec(bits):
        return tuple(int(mp.nint(c * scale)) % scale for c in x)


def theta_max(tau: PeriodMatrix, grid_points_per_dim: int | None = None) -> ThetaMaxResult:
    """Maximum of sqrt(<s,s>) over the torus, with argmax coordinates.

    Scans the grid {k/Nd}^{2g}, Nd = ``grid_points_per_dim`` (at least 8;
    ``default_optimizer_config`` when None), with ``sqrt_norm_grid``, then
    runs Newton's method in doubles from the grid's discrete local maxima
    (wrap-around neighbours, values compared at a relative 1e-13), one start
    per cluster of tied neighbouring maxima, taken in the m_1-slabs 0, ...,
    Nd // 2 that the scan returns: the norm is even, so the maxima of the
    other slabs are their mirrors.  A start's index in that (m, n) array is
    rolled to the lattice coordinates (n, m).
    A start where -H has a pivot that is not positive, or that does not
    converge within the step cap, is dropped without a working-precision
    sum.  The converged points whose double value is within a relative 1e-13
    of the best are polished by Newton at bits = ``tau.bits``, one per
    pair {x, -x}: of x and -x mod 1, the one of lower ``_tie_key`` read at
    the double Newton's tolerance 2^-26, and once per key, so a pair whose
    two keys straddle a rounding step is polished twice.  The value is the
    one the best polish took from its own last lattice sum.  Deterministic
    for fixed inputs at any ambient mpmath precision: a tie cluster starts
    from its lowest flat index in the (m, n) layout, and of the refined
    values within 2^(-floor(bits/2)) max(1, best) of the best, compared at
    bits, the lowest coordinates win, compared lexicographically mod 1 at
    the Newton stop tolerance (``_tie_key``, whose unit is the same
    2^(-floor(bits/2))).
    Raises InvalidInput when Nd < 8, ConfigRejected when the grid exceeds
    ``_GRID_BUDGET``, and BudgetExceeded when no start converges or the best
    value falls below the grid's best by more than double rounding.
    """
    nd = default_optimizer_config(tau.g) if grid_points_per_dim is None else grid_points_per_dim
    if nd < 8:
        raise InvalidInput("grid_points_per_dim must be >= 8")
    dim, bits = 2 * tau.g, tau.bits
    if nd**dim > _GRID_BUDGET:
        raise ConfigRejected(f"grid budget exceeded: {nd}^{dim} > {_GRID_BUDGET}")

    vals = sqrt_norm_grid(tau, nd)
    grid_best = float(vals.max())
    # (m, n) grid indices to lattice coordinates (n, m)
    starts = np.roll(np.unravel_index(_grid_starts(vals), vals.shape), tau.g, axis=0).T / nd

    converged = [r for r in (_newton(tau, x) for x in starts) if r is not None]
    if not converged:
        raise BudgetExceeded("Newton in doubles converged from no grid start")
    best = max(v for v, _ in converged)

    candidates, polished_keys = [], set()
    for v, x in converged:
        if v < best * (1 - _GRID_RTOL):
            continue
        # 2^-26, the double Newton's tolerance, is _tie_key's unit at 53 bits
        key, x = min((_tie_key(y, 53), y) for y in (x, tuple(-c % 1 for c in x)))
        if key in polished_keys:
            continue
        polished_keys.add(key)
        polished = _newton(tau, x, polish=True)
        if polished is not None:
            candidates.append(polished)
    if not candidates:
        raise BudgetExceeded("Newton refinement converged from no grid start")
    with mp.workprec(bits):
        top = max(v for v, _ in candidates)
        unit = mp.mpf(2) ** -(bits // 2) * max(1, top)
        ties = [t for t in candidates if top - t[0] <= unit]
    value, argmax = min(ties, key=lambda t: _tie_key(t[1], bits))
    if value < grid_best * (1 - _GRID_RTOL):
        raise BudgetExceeded(
            f"refined maximum {mp.nstr(value, 17)} is below the grid value {grid_best!r}"
        )
    return ThetaMaxResult(value=value, argmax_coords=argmax, grid_best=grid_best)
