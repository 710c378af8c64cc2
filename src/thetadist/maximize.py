"""Global maximization of the square-root theta norm over the Jacobian torus.

Deterministic three-stage search.  A full tensor grid in lattice coordinates
is scanned in double precision by ``periods.sqrt_norm_grid``, which evaluates
the theta sum on each m-slice as a trigonometric polynomial in n (one small
matrix product per axis).  Newton's method on log<s,s> then runs in doubles
from the grid's discrete local maxima, one start per cluster of tied
neighbouring maxima, so neighbouring points of one peak make one start.  Only
the converged points whose double value ties the best are polished by the
same Newton iteration at working precision, which from double accuracy takes
two lattice sums.  The gradient and Hessian come from the same lattice sum as
theta, in doubles from the scattered-point kernel ``periods._theta_batch``
behind ``norm_batch`` and at working precision from
``periods._theta_reduced`` (Deconinck, Heil, Bobenko, van Hoeij, Schmies,
"Computing Riemann theta functions", Math. Comp. 73 (2004)), and each
Newton's value is the norm from the theta of its own last sum.  No
global-optimality certificate is produced; the probe and grid-monotonicity
properties in the test suite are the practical guard.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import BudgetExceeded, ConfigRejected, InvalidInput
from .periods import (
    PeriodMatrix,
    PrecisionConfig,
    ThetaPoint,
    sqrt_norm_grid,
)
from .periods import _theta_batch, _theta_reduced

# Grid points per scan.  The value array, resident from the scan until the
# starts are chosen, costs 8 bytes per point; choosing the starts briefly holds
# four more arrays of that size.
_GRID_BUDGET = 10**8
_NEWTON_MAX_STEPS = 20  # starts in a maximum's basin converge in about six
# Grid values carry a relative error of about 1e-15: values closer than this
# are ties, a double Newton value further below the best than this is not
# polished, and a refined maximum further below grid_best than this means
# Newton left the grid's best basin.
_GRID_RTOL = 1e-13


@dataclass(frozen=True)
class OptimizerConfig:
    grid_points_per_dim: int = 32

    def __post_init__(self):
        if self.grid_points_per_dim < 8:
            raise InvalidInput("grid_points_per_dim must be >= 8")


@dataclass(frozen=True)
class ThetaMaxResult:
    value: object          # mpf, the maximum of sqrt(<s,s>)
    argmax_coords: tuple   # lattice coordinates in [0,1)^{2g}
    grid_best: float


def default_optimizer_config(g: int) -> OptimizerConfig:
    """256 points per axis at g = 1; for g >= 2 the largest nd <= 32 with
    nd^(2g) <= 32^4, the preset's grid (10 at g = 3), but at least 8."""
    if g == 1:
        return OptimizerConfig(grid_points_per_dim=256)
    nd = 32
    while nd > 8 and nd ** (2 * g) > 32**4:
        nd -= 1
    return OptimizerConfig(grid_points_per_dim=nd)


def _lattice_point(tau: PeriodMatrix, x) -> ThetaPoint:
    """z = n + tau m from lattice coordinates x = (n, m)."""
    g = tau.g
    return ThetaPoint(
        tuple(x[i] + sum(tau.tau[i, j] * x[g + j] for j in range(g)) for i in range(g))
    )


def _newton_double(tau: PeriodMatrix, start):
    """``_newton`` in doubles on ``periods._theta_batch`` at one point, with
    the same gradient and Hessian.  The kernel's derivatives carry its factor
    exp(-pi m'Ym), which cancels in the ratios theta'/theta and theta''/theta.
    The iterate is kept in [-1/2, 1/2)^{2g}, where the lattice context's box
    holds the point's lattice set, and a step below 2^(-26) ends the
    iteration.  Returns ``(value, x)`` with value the square-root norm from
    the s of the last sum, or None when -H has no Cholesky factor or the cap
    is reached.
    """
    g = tau.g
    ctx = tau.lattice
    J = np.hstack([np.eye(g), ctx.taun])
    x = np.asarray(start, dtype=float)
    for _ in range(_NEWTON_MAX_STEPS):
        x = x - np.round(x)
        th, d1, d2 = (v[0] for v in _theta_batch(tau, x[None], derivs=True))
        a = d1 / th
        grad = 2 * (J.T @ a).real
        hess = 2 * (J.T @ (d2 / th - np.outer(a, a)) @ J).real
        grad[g:] -= 4 * np.pi * ctx.Y @ x[g:]
        hess[g:, g:] -= 4 * np.pi * ctx.Y
        try:
            L = np.linalg.cholesky(-hess)
        except np.linalg.LinAlgError:
            return None
        step = np.linalg.solve(L.T, np.linalg.solve(L, grad))
        x = x + step
        if np.abs(step).max() < 2.0**-26:
            return abs(th) * np.sqrt(ctx.scale), x
    return None


def _newton(tau: PeriodMatrix, start, cfg: PrecisionConfig):
    """Newton ascent on log<s,s> = const - 2 pi m'Ym + 2 Re log theta(n + tau m).

    With J = [I | tau] and a = theta'/theta the gradient in x = (n, m) is
    2 Re(J'a) - 4 pi (0, Ym) and the Hessian 2 Re(J'(theta''/theta - a a')J)
    - 4 pi diag(0, Y).  The iterate is kept in [-1/2, 1/2)^{2g}, where the
    sum's lattice set, whose r^2 grows with m'Ym, is smallest.  A step below 2^(-bits/2) in
    max-norm leaves an error near 2^(-bits) and ends the iteration, so from a
    start of double accuracy it takes two lattice sums.  Returns ``(value,
    x)``: x reduced to [0,1)^{2g}, and value = sqrt(<s,s>) from the theta of
    the last sum, taken one sub-tolerance step from x, where <s,s> differs
    from its value at x only at second order.  Returns None when the Hessian
    is not negative definite or the cap is reached.
    """
    g = tau.g
    bits = cfg.working_precision_bits
    with mp.workprec(bits):
        J = mp.matrix([[int(i == j) for j in range(g)] + tau.tau.tolist()[i] for i in range(g)])
        tol = mp.mpf(2) ** (-mp.mpf(bits) / 2)
        x = [mp.mpf(c) for c in start]
        for _ in range(_NEWTON_MAX_STEPS):
            x = [c - mp.nint(c) for c in x]
            th, d1, d2 = _theta_reduced(tau, _lattice_point(tau, x), cfg, derivs=True)
            a = d1 / th
            grad = (J.T * a).apply(mp.re) * 2
            hess = (J.T * (d2 / th - a * a.T) * J).apply(mp.re) * 2
            for i in range(g):
                for j in range(g):
                    grad[g + i] -= 4 * mp.pi * tau.Y[i, j] * x[g + j]
                    hess[g + i, g + j] -= 4 * mp.pi * tau.Y[i, j]
            try:
                step = mp.cholesky_solve(-hess, grad)
            except ValueError:
                return None
            m = x[g:]
            x = [x[k] + step[k] for k in range(2 * g)]
            if mp.mnorm(step, mp.inf) < tol:
                quad = sum(m[i] * tau.Y[i, j] * m[j] for i in range(g) for j in range(g))
                value = mp.sqrt(mp.sqrt(tau.detY) * mp.exp(-2 * mp.pi * quad)) * abs(th)
                return value, tuple(c - mp.floor(c) for c in x)
    return None


def _grid_starts(vals: np.ndarray) -> np.ndarray:
    """Flat indices of the local maxima of a periodic grid, one per tie cluster.

    A point is a local maximum when none of its 3^d - 1 wrap-around
    neighbours exceeds it by more than ``_GRID_RTOL``.  Neighbouring local
    maxima form one cluster, represented by its lowest flat index, so a
    plateau of ties makes one start.  Returned in flat-index order.
    """
    shape = vals.shape
    top = vals.copy()
    for ax in range(vals.ndim):
        np.maximum(top, np.maximum(np.roll(top, 1, ax), np.roll(top, -1, ax)), out=top)
    flat = np.flatnonzero(top <= vals * (1 + _GRID_RTOL))
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
    return flat[label == flat]


def theta_max(
    tau: PeriodMatrix,
    ocfg: OptimizerConfig | None = None,
    cfg: PrecisionConfig | None = None,
) -> ThetaMaxResult:
    """Maximum of sqrt(<s,s>) over the torus, with argmax coordinates.

    Scans the grid {k/Nd}^{2g} with ``sqrt_norm_grid``, then runs Newton's
    method in doubles from the grid's discrete local maxima (wrap-around
    neighbours, values compared at a relative 1e-13), one start per cluster
    of tied neighbouring maxima; a start whose Hessian is not negative
    definite, or that does not converge within the step cap, is dropped
    without a working-precision sum.  The converged points whose double value
    is within a relative 1e-13 of the best are polished by Newton at the
    working precision, and the value is the one the best polish took from its
    own last lattice sum.  Deterministic for fixed configs at any ambient
    mpmath precision: a tie cluster starts from its lowest flat grid index,
    and of the refined values within ``target_abs_error`` of the best,
    compared at the working precision, the lowest lexicographic coordinates
    win.  Raises BudgetExceeded when no start converges or the best value
    falls below the grid's best by more than double rounding.
    """
    ocfg = ocfg or default_optimizer_config(tau.g)
    cfg = cfg or PrecisionConfig()
    dim = 2 * tau.g
    nd = ocfg.grid_points_per_dim
    if nd**dim > _GRID_BUDGET:
        raise ConfigRejected(f"grid budget exceeded: {nd}^{dim} > {_GRID_BUDGET}")

    vals = sqrt_norm_grid(tau, nd)
    grid_best = float(vals.max())
    starts = np.stack(np.unravel_index(_grid_starts(vals), vals.shape), axis=1) / nd

    converged = [r for r in (_newton_double(tau, x) for x in starts) if r is not None]
    if not converged:
        raise BudgetExceeded("Newton in doubles converged from no grid start")
    best = max(v for v, _ in converged)

    candidates = []
    for v, x in converged:
        if v >= best * (1 - _GRID_RTOL):
            polished = _newton(tau, x, cfg)
            if polished is not None:
                candidates.append(polished)
    if not candidates:
        raise BudgetExceeded("Newton refinement converged from no grid start")
    with mp.workprec(cfg.working_precision_bits):
        top = max(v for v, _ in candidates)
        ties = [t for t in candidates if top - t[0] <= cfg.target_abs_error]
    value, argmax = min(ties, key=lambda t: t[1])
    if value < grid_best * (1 - _GRID_RTOL):
        raise BudgetExceeded(
            f"refined maximum {mp.nstr(value, 17)} is below the grid value {grid_best!r}"
        )
    return ThetaMaxResult(value=value, argmax_coords=argmax, grid_best=grid_best)
