"""Riemann theta evaluation and the translation-invariant theta norm.

The argument is first reduced to the fundamental cell of the lattice spanned
by the columns of [Id, tau].  High-precision paths run on mpmath at a
configurable bit count and sum the theta series over an ellipsoid fitted to
Y = Im tau, {M : (M+c)'Y(M+c) <= r^2} with c = Y^-1 Im z, whose left-out
terms sum to at most 2^-bits (``_ellipsoid_radius2``).  In double precision
there are two kernels, both summed over a box ``||m||_inf <= R`` with R
chosen from a geometric-majorant tail bound: a separable evaluator on tensor
grids backs the maximizer's grid scan and the torus average, and a batch
evaluator at scattered points, with optional z-derivatives, backs spot
checks and the maximizer's Newton steps.

All these sums read one lattice context per ``PeriodMatrix``, built on first
use (the lattice-sum layout of Deconinck, Heil, Bobenko, van Hoeij, Schmies,
"Computing Riemann theta functions", Math. Comp. 73 (2004)).  Its double part
is built once per tau: tau and Y as doubles, the box radius R for a 1e-18
tail over the half cell, the box M in lexicographic order and M'tau M/2, and
the one term layout both double kernels sum: a phase table shared by a cell
of Im z times per-axis powers, centred on the cell so that no factor
overflows whatever tau is (see ``LatticeContext``).  For the working
precision it holds the factors of Y that enumerate each point's ellipsoid
axis by axis (Fincke, Pohst, Math. Comp. 44 (1985)), one row of the last
axis per prefix of the others, and per bit count a table of exp(pi i M'tau
M) filled for the M the ellipsoids ask for.  A term is the table entry times
per-axis powers of exp(2 pi i z_k), and each row of the last axis is summed
before its prefix's powers multiply it once, so a call whose set the table
already holds makes g exponentials and about one complex product per term.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import mpmath as mp
import numpy as np

from .errors import BudgetExceeded, InvalidInput, InvalidPeriodMatrix, PrecisionTooLow

_SYMMETRY_RTOL = 1e-10
_LAMBDA_MIN_TOL = 1e-20
# Complex values in the largest temporary of one _theta_batch chunk (the
# (2R+1)^(g-1) partial sums or the g (2R+1) per-axis powers of each point,
# for each of its weighted copies): 20,000 x 17^2, 92 MB.
_BATCH_TERMS = 20_000 * 289
# Bound on the log of the product of the g per-axis row moduli of a term in
# LatticeContext's layout.  Its phase-table entries have modulus <= 1, so every
# partial sum stays below (2R+1)^g exp(500), far inside the double range.
_ROW_LOG_BOUND = 500.0
# Largest aliasing error of the torus average's midpoint rule that
# theta_norm_normalization_check accepts.
_ALIAS_TOL = 1e-12
# Relative inflation of r^2 before the working-precision lattice set is
# enumerated in doubles.  The rounding error of each partial form is about
# g^2 eps sqrt(cond Y) r^2, far below this for any Y the theta sums can use.
_ELLIPSOID_SLACK = 2.0**-20
# Extra bits for the exponents of the phases and of the per-axis powers.  A
# term near 1 can be the product of factors like exp(-400 pi) and exp(400 pi)
# (diag(i, 400i)), whose exponents rounded at the working precision would
# carry their magnitude times 2^-bits into its relative error.
_GUARD_BITS = 32


@dataclass(frozen=True)
class PrecisionConfig:
    """Working precision (bits) and the absolute error target for theta sums.

    ``target_abs_error`` is the stated accuracy contract and, through the
    floor 2^(8 - bits), the check that the precision can meet it.  The
    mpmath theta sums truncate at 2^-bits, below every admissible target,
    so the target does not set their lattice sets.
    """

    working_precision_bits: int = 128
    target_abs_error: float = 1e-25

    def __post_init__(self):
        if self.working_precision_bits < 53:
            raise InvalidInput("working_precision_bits must be >= 53")
        if self.target_abs_error <= 0:
            raise InvalidInput("target_abs_error must be positive")
        floor = mp.mpf(2) ** (-self.working_precision_bits + 8)
        if mp.mpf(self.target_abs_error) <= floor:
            raise PrecisionTooLow(
                f"target_abs_error {self.target_abs_error} is at or below the "
                f"precision floor 2^{-self.working_precision_bits + 8}"
            )


class PeriodMatrix:
    """A g x g symmetric complex matrix with positive-definite imaginary part.

    Validation happens at construction: symmetry up to a relative tolerance of
    1e-10 and positive definiteness of Im(tau) via a Cholesky factorization,
    with the smallest eigenvalue additionally required to exceed 1e-20.
    """

    def __init__(self, entries, bits: int = 128):
        with mp.workprec(bits):
            rows = [[mp.mpc(x) for x in row] for row in entries]
            g = len(rows)
            if g < 1 or any(len(r) != g for r in rows):
                raise InvalidPeriodMatrix("tau must be a square matrix")
            tau = mp.matrix(rows)
            maxabs = max(abs(tau[i, j]) for i in range(g) for j in range(g))
            for i in range(g):
                for j in range(g):
                    if abs(tau[i, j] - tau[j, i]) > _SYMMETRY_RTOL * maxabs:
                        raise InvalidPeriodMatrix("tau is not symmetric")
            # symmetrize so downstream linear algebra sees an exactly symmetric Y
            tau = (tau + tau.T) / 2
            Y = mp.matrix(g, g)
            X = mp.matrix(g, g)
            for i in range(g):
                for j in range(g):
                    Y[i, j] = tau[i, j].imag
                    X[i, j] = tau[i, j].real
            try:
                mp.cholesky(Y)
            except ValueError as exc:
                raise InvalidPeriodMatrix("Im(tau) is not positive definite") from exc
            eigs = mp.eigsy(Y, eigvals_only=True)
            lam_min = min(eigs)
            if lam_min <= _LAMBDA_MIN_TOL:
                raise InvalidPeriodMatrix(
                    f"smallest eigenvalue of Im(tau) is {lam_min}, below tolerance"
                )
            self.g = g
            self.bits = bits
            self.tau = tau
            self.X = X
            self.Y = Y
            self.Yinv = Y**-1
            self.detY = mp.det(Y)
            self.lambda_min = lam_min

    @property
    def tau_np(self) -> np.ndarray:
        return np.array(
            [[complex(self.tau[i, j]) for j in range(self.g)] for i in range(self.g)]
        )

    @cached_property
    def lattice(self) -> LatticeContext:
        """The lattice context the theta sums share, built on first use."""
        return LatticeContext(self)

    def __repr__(self):
        return f"PeriodMatrix(g={self.g}, bits={self.bits})"


@dataclass(frozen=True)
class ThetaPoint:
    """An argument z in C^g, carried as a tuple of mpmath complex numbers."""

    z: tuple

    def __post_init__(self):
        # Coerce at elevated precision so entries already carried as
        # high-precision mpmath numbers are not re-rounded to the ambient
        # (possibly 53-bit) context precision.
        with mp.workprec(max(mp.mp.prec, 384)):
            zt = tuple(mp.mpc(w) for w in self.z)
        for w in zt:
            if not (mp.isfinite(w.real) and mp.isfinite(w.imag)):
                raise InvalidInput("theta argument has a non-finite entry")
        object.__setattr__(self, "z", zt)


def reduce_to_fundamental(tau: PeriodMatrix, z: ThetaPoint):
    """Translate z by the lattice [Id, tau] into the fundamental cell.

    Returns ``(z0, m, n, log_multiplier)`` with ``z = z0 + tau*m + n``, the
    lattice coordinates of z0 in [0,1)^{2g}, and
    ``theta(z) = exp(log_multiplier) * theta(z0)`` where
    ``log_multiplier = -2*pi*i*(m' tau m / 2 + m' z0)``.
    """
    g = tau.g
    with mp.workprec(tau.bits):
        zv = mp.matrix([list(z.z)]).T
        y = mp.matrix([[w.imag] for w in z.z])
        x = mp.matrix([[w.real] for w in z.z])
        # Coordinates within `snap` of an integer are treated as exact.  Any
        # integer m yields a valid reduction, so a generous tolerance only
        # affects which cell representative is returned, never correctness;
        # it must simply exceed the rounding error of double-precision input.
        snap = mp.mpf("1e-9")

        def floor_snapped(v):
            r = mp.nint(v)
            if abs(v - r) < snap:
                return int(r)
            return int(mp.floor(v))

        m_real = tau.Yinv * y
        m = [floor_snapped(m_real[i]) for i in range(g)]
        mv = mp.matrix([[mp.mpf(k)] for k in m])
        n_real = x - tau.X * mv
        n = [floor_snapped(n_real[i]) for i in range(g)]
        nv = mp.matrix([[mp.mpf(k)] for k in n])
        z0v = zv - tau.tau * mv - nv
        z0 = ThetaPoint(tuple(z0v[i] for i in range(g)))
        quad = (mv.T * tau.tau * mv)[0] / 2
        lin = sum(mv[i] * z0v[i] for i in range(g))
        log_mult = -2j * mp.pi * (quad + lin)
    return z0, tuple(m), tuple(n), log_mult


def _truncation_radius(g: int, lam_min: float, y_norm: float, target: float) -> int:
    """Smallest box radius whose geometric-majorant tail is below target.

    Each shell ||m||_inf = k contributes at most 2g*(2k+1)^(g-1) terms, each of
    modulus <= exp(-pi*lam*k^2 + 2*pi*||y||*k); once consecutive shell bounds
    decay by at least 1/2 the tail is at most twice the first neglected shell.
    """
    log_target = math.log(target)
    R = 1
    while True:
        k = R + 1
        log_shell = (
            math.log(2 * g) + (g - 1) * math.log(2 * k + 1)
            - math.pi * lam_min * k * k + 2 * math.pi * y_norm * k
        )
        k2 = k + 1
        log_next = (
            math.log(2 * g) + (g - 1) * math.log(2 * k2 + 1)
            - math.pi * lam_min * k2 * k2 + 2 * math.pi * y_norm * k2
        )
        if log_next - log_shell <= math.log(0.5) and math.log(2) + log_shell < log_target:
            return R
        R += 1
        if R > 10_000:
            raise BudgetExceeded("truncation radius search did not terminate")


class LatticeContext:
    """Per-tau inputs of the lattice sums (see the module docstring).

    The double part: ``taun`` and ``Y`` (tau and Im tau as doubles),
    ``scale`` = sqrt(det Y), the radius ``R``, the box ``M`` of lattice
    vectors with ||M||_inf <= R (one per row, lexicographic) and ``quad`` =
    M'tau M/2.  R bounds the tail below 1e-18 for every y = Y m with m in
    [-1/2, 1/2)^g, the range the double kernels recentre their coordinates
    to.  ``phases(bits, R)`` gives the working-precision part.

    It also owns the one term layout of both double kernels.  The term of M
    at w = n + tau m, times exp(-pi m'Ym), is the product of

    - a phase-table entry t_M = exp(2 pi i (M'tau M/2 + M'tau c) - pi c'Yc),
      shared by every m in the cell with centre c (``cell_table``);
    - per-axis rows P_k(j) = exp(2 pi i u_k j) at j = M_k, u = n + tau (m - c);
    - exp(-pi (m'Ym - c'Yc)).

    |t_M| = exp(-pi (M+c)'Y(M+c)) <= 1 for every tau.  The cells split each
    axis l of m in [-1/2, 1/2) into ``cells[l]`` = B_l equal parts, so
    |m_l - c_l| <= 1/(2 B_l) and the g row moduli multiply to at most
    exp(2 pi R sum_k |Y (m - c)|_k) <= exp(pi R sum_l colsum_l / B_l), with
    colsum_l = sum_k |Y_kl|.  B_l = ceil(pi R g colsum_l /
    ``_ROW_LOG_BOUND``) keeps that below exp(``_ROW_LOG_BOUND``): no factor
    or partial sum of a contraction overflows, and a table entry that
    underflows drops a term below exp(-745 + ``_ROW_LOG_BOUND``).  Each
    product of moduli is the term's own, so rounding errors are those of the
    unfactored sum.  A well-conditioned tau, such as the preset, has one
    cell, c = 0.
    """

    def __init__(self, tau: PeriodMatrix):
        g = tau.g
        self.g = g
        self._tau = tau.tau.tolist()
        self._phases = {}
        self.taun = tau.tau_np
        self.Y = self.taun.imag
        self.scale = math.sqrt(float(tau.detY))
        y_norm = float(np.linalg.norm(np.abs(self.Y) @ np.full(g, 0.5)))
        self.R = _truncation_radius(g, float(tau.lambda_min), y_norm, 1e-18)
        self.M = np.array(list(itertools.product(range(-self.R, self.R + 1), repeat=g)))
        self.quad = 0.5 * np.einsum("li,ij,lj->l", self.M, self.taun, self.M)
        colsum = np.abs(self.Y).sum(axis=0)
        self.cells = np.ceil(np.pi * self.R * g * colsum / _ROW_LOG_BOUND).astype(int)
        # the last table built: a table per cell could hold up to
        # prod(cells) (2R+1)^g values
        self._table = (None, None)
        # Y = U U' with U upper triangular: the Cholesky factor of Y with its
        # axes reversed.  (M+c)'Y(M+c) = sum_k d_k (v_k + sum_{j<k} mu_jk
        # v_j)^2 with v = M + c, d_k = U_kk^2 and mu_jk = U_jk / U_kk.
        U = np.linalg.cholesky(self.Y[::-1, ::-1])[::-1, ::-1]
        self._d = (np.diag(U) ** 2).tolist()
        self._mu = (U / np.diag(U)).tolist()

    def cell_groups(self, m: np.ndarray):
        """Yield ``(cell, rows)`` for each occupied cell, in cell order: the
        flat cell index and the indices of the rows of ``m`` (N x g, in
        [-1/2, 1/2)) that lie in it, in their original order."""
        index = np.minimum(((m + 0.5) * self.cells).astype(int), self.cells - 1)
        key = np.ravel_multi_index(index.T, self.cells)
        order = np.argsort(key, kind="stable")
        edges = np.flatnonzero(np.diff(key[order], prepend=-1, append=-1))
        for start, stop in zip(edges[:-1], edges[1:]):
            yield key[order[start]], order[start:stop]

    def cell_table(self, cell) -> tuple:
        """``(c, c'Yc, t)`` for a flat cell index: the centre, its quadratic
        form and the phase table t_M of shape ((2R+1),)*g.  The last table
        built is kept, so consecutive calls on one cell build it once."""
        if self._table[0] != cell:
            self._table = (cell, self._build_cell_table(cell))
        return self._table[1]

    def _build_cell_table(self, cell) -> tuple:
        centre = (np.array(np.unravel_index(cell, self.cells)) + 0.5) / self.cells - 0.5
        qc = centre @ self.Y @ centre
        table = np.exp(2j * np.pi * (self.quad + self.M @ (self.taun @ centre)) - np.pi * qc)
        return centre, qc, table.reshape((2 * self.R + 1,) * self.g)

    def phases(self, bits: int) -> dict:
        """exp(pi i M'tau M) at ``bits``, keyed by the tuple M.

        One table per bit count.  An entry is computed the first time a
        lattice set asks for its M and kept, so the table holds the union of
        the sets summed so far at that bit count.
        """
        if bits not in self._phases:
            self._phases[bits] = _PhaseTable(self._tau, bits)
        return self._phases[bits]

    def ellipsoid_rows(self, c, r2: float) -> list:
        """The lattice set {M : (M+c)'Y(M+c) <= r2} as rows ``(prefix, lo,
        hi)``, one per prefix (M_1, ..., M_{g-1}) in lexicographic order: the
        set's M with that prefix are prefix + (j,) for lo <= j <= hi.

        Fincke-Pohst enumeration on Y = U U' with U upper triangular, so that
        with v = M + c the form is sum_k d_k (v_k + sum_{j<k} mu_jk v_j)^2
        and axis k's term depends on the axes before it alone: each prefix
        leaves one interval of M_k.  Membership is decided in doubles, on r2
        inflated by ``_ELLIPSOID_SLACK``, so the rows hold the set and
        possibly a few points on its boundary.
        """
        g, d, mu = self.g, self._d, self._mu
        rows = []

        def walk(k, prefix, v, rest):
            s = c[k] + sum(mu[j][k] * v[j] for j in range(k))
            h = math.sqrt(max(rest, 0.0) / d[k])
            lo, hi = math.ceil(-s - h), math.floor(-s + h)
            if k == g - 1:
                if lo <= hi:
                    rows.append((prefix, lo, hi))
                return
            for m in range(lo, hi + 1):
                walk(k + 1, prefix + (m,), v + [m + c[k]], rest - d[k] * (m + s) ** 2)

        walk(0, (), [], r2 * (1 + _ELLIPSOID_SLACK))
        return rows


class _PhaseTable(dict):
    """exp(pi i M'tau M) at one bit count, computed on first lookup of M."""

    def __init__(self, tau: list, bits: int):
        super().__init__()
        self._tau = tau
        self._bits = bits

    def __missing__(self, m: tuple):
        nz = [i for i in range(len(m)) if m[i]]
        with mp.workprec(self._bits + _GUARD_BITS):
            arg = 1j * mp.pi * sum(m[i] * m[j] * self._tau[i][j] for i in nz for j in nz)
        with mp.workprec(self._bits):
            value = self[m] = mp.exp(arg)
        return value


def _ellipsoid_radius2(g: int, lam: float, cyc: float, cnorm: float, bits: int) -> float:
    """r^2 of the working-precision lattice set {M : (M+c)'Y(M+c) <= r^2}.

    At z with Im z = Y c, the term of M has modulus exp(pi c'Yc - pi
    (M+c)'Y(M+c)).  With lam = lambda_min(Y) and 0 < delta < 1, the terms
    outside the set, each weighted by |2 pi M|^k for k = 0, 1, 2 (theta, its
    gradient and its Hessian), sum to at most

        (2 pi (r / sqrt(lam) + |c|))^k exp(pi c'Yc - pi (1 - delta) r^2)
            (1 + 1 / sqrt(delta lam))^g

    whenever r^2 >= k / (2 pi delta): there |M| <= |M+c| + |c| <=
    sqrt(Q/lam) + |c| for Q = (M+c)'Y(M+c), so the weight at Q >= r^2 is at
    most its value at r^2 times (Q/r^2)^(k/2) <= exp(pi delta (Q - r^2));
    exp(-pi (1 - delta) Q) <= exp(-pi (1 - 2 delta) r^2 - pi delta Q) outside
    the set; and sum_M exp(-pi delta Q) <= prod_k sum_n exp(-pi delta lam
    (n + c_k)^2) <= (1 + 1/sqrt(delta lam))^g.  Returns the smallest r^2,
    over delta = 2^-1, ..., 2^-8, at which this bound is at most 2^-bits for
    all three k, so one set serves theta with and without derivatives.
    """
    best = math.inf
    for e in range(1, 9):
        delta = 2.0**-e
        base = bits * math.log(2) + math.pi * cyc + g * math.log1p(1 / math.sqrt(delta * lam))

        def needed(r2):
            weight = 2 * math.log(max(1.0, 2 * math.pi * (math.sqrt(r2 / lam) + cnorm)))
            return max((base + weight) / (math.pi * (1 - delta)), 1 / (math.pi * delta))

        # needed(r2) grows like log r2, so stepping to it from below crosses
        # the fixed point after a few steps
        r2 = needed(0.0)
        while needed(r2) > r2:
            r2 = needed(r2) + 1e-3
        best = min(best, r2)
    return best


def _axis_powers(w, lo: int, hi: int) -> list:
    """exp(2 pi i w)^j for j in [lo, hi], in a list read at index j - lo, by
    repeated multiplication after one exp."""
    with mp.extraprec(_GUARD_BITS):
        arg = 2j * mp.pi * w
    e = mp.exp(arg)
    powers = [e**lo]
    for _ in range(hi - lo):
        powers.append(powers[-1] * e)
    return powers


def _lattice_set(tau: PeriodMatrix, z0: ThetaPoint, bits: int) -> list:
    """The rows (``LatticeContext.ellipsoid_rows``) of the lattice set the
    sum at ``bits`` runs over at z0: {M : (M+c)'Y(M+c) <= r^2}, with c =
    Y^-1 Im z0 and r^2 from ``_ellipsoid_radius2``."""
    ctx = tau.lattice
    with mp.workprec(bits):
        cv = tau.Yinv * mp.matrix([[w.imag] for w in z0.z])
    c = np.array([float(cv[i]) for i in range(tau.g)])
    r2 = _ellipsoid_radius2(
        tau.g, float(tau.lambda_min), float(c @ ctx.Y @ c), float(np.linalg.norm(c)), bits
    )
    return ctx.ellipsoid_rows(c.tolist(), r2)


def _extent(rows: list) -> tuple:
    """``(lows, highs)``: the least and largest M_k over a lattice set's
    rows, for each axis k."""
    axes = list(zip(*(prefix for prefix, _, _ in rows)))
    lows = [min(a) for a in axes] + [min(lo for _, lo, _ in rows)]
    highs = [max(a) for a in axes] + [max(hi for _, _, hi in rows)]
    return lows, highs


def _theta_reduced(tau: PeriodMatrix, z0: ThetaPoint, cfg: PrecisionConfig, derivs: bool = False):
    """Theta sum at an already-reduced argument, truncated to its ellipsoid.

    With c = Y^-1 Im z0, the sum runs over the lattice set {M : (M+c)'Y(M+c)
    <= r^2} of ``LatticeContext.ellipsoid_rows``, with r^2 from
    ``_ellipsoid_radius2``: the terms left out, and their derivative
    weights, sum to at most 2^-bits.  Each term exp(2 pi i (M'tau M/2 +
    M'z)) is the context's phase for M times the per-axis powers exp(2 pi i
    z_k)^(M_k), each axis's taken over the set's own extent on it.  The sum
    is contracted by rows: along a row's range of M_g the phases are dotted
    with the powers of axis g, and the row sum is multiplied once by the
    powers of its prefix's g - 1 axes.

    Returns the sum, or with ``derivs`` the triple ``(theta, d1, d2)``: the
    sum, and the gradient (g x 1) and Hessian (g x g) in z of the same
    truncated sum, whose terms are weighted by 2*pi*i*M and (2*pi*i)^2 *
    M M'.  A weight is the prefix's entries, constant on a row, times a
    power of M_g, which the row sums with the weighted powers of axis g.
    Theta is summed in the same rows and order either way, so it is
    bit-identical with and without ``derivs``.
    """
    g = tau.g
    bits = cfg.working_precision_bits
    with mp.workprec(bits):
        rows = _lattice_set(tau, z0, bits)
        table = tau.lattice.phases(bits)
        lows, highs = _extent(rows)
        powers = [_axis_powers(w, lo, hi) for w, lo, hi in zip(z0.z, lows, highs)]
        # axis g's powers weighted by M_g^q, q = 0, 1, 2: the row sums of the
        # terms weighted by that power of M_g
        last = [powers[-1]]
        if derivs:
            js = range(lows[-1], highs[-1] + 1)
            last += [[j * p for j, p in zip(js, last[0])], [j * j * p for j, p in zip(js, last[0])]]
        lo_g = lows[-1]
        sums = [[] for _ in last]
        prefs = []
        for prefix, lo, hi in rows:
            ph = [table[prefix + (j,)] for j in range(lo, hi + 1)]
            for q, row in enumerate(last):
                sums[q].append(mp.fdot(ph, row[lo - lo_g : hi + 1 - lo_g]))
            prefs.append(math.prod(powers[k][m - lows[k]] for k, m in enumerate(prefix)))
        total = mp.fdot(sums[0], prefs)
        if not derivs:
            return total
        vals = [[s * p for s, p in zip(sq, prefs)] for sq in sums]

        def weighted(axes):
            outer = [math.prod(p[a] for a in axes if a < g - 1) for p, _, _ in rows]
            return mp.fdot(outer, vals[axes.count(g - 1)])

        d1 = [weighted((i,)) for i in range(g)]
        d2 = [[weighted((i, j)) for j in range(i + 1)] for i in range(g)]
        two_pi_i = 2j * mp.pi
        hess = [[d2[max(i, j)][min(i, j)] for j in range(g)] for i in range(g)]
        return total, two_pi_i * mp.matrix(d1), two_pi_i**2 * mp.matrix(hess)


def theta(tau: PeriodMatrix, z: ThetaPoint, cfg: PrecisionConfig | None = None):
    """Riemann theta function theta(z, tau) with absolute error <= the target.

    The argument is first reduced to the fundamental cell; the quasi-periodicity
    multiplier is reapplied to the truncated sum.
    """
    cfg = cfg or PrecisionConfig()
    with mp.workprec(cfg.working_precision_bits):
        z0, m, n, log_mult = reduce_to_fundamental(tau, z)
        val = _theta_reduced(tau, z0, cfg)
        return mp.exp(log_mult) * val


def theta_norm(tau: PeriodMatrix, z: ThetaPoint, cfg: PrecisionConfig | None = None):
    """Moret-Bailly norm det(Im tau)^(1/2) exp(-2 pi y' (Im tau)^-1 y) |theta|^2.

    Computed after fundamental-cell reduction; the value is invariant under
    lattice translation of z.
    """
    cfg = cfg or PrecisionConfig()
    with mp.workprec(cfg.working_precision_bits):
        z0, _, _, _ = reduce_to_fundamental(tau, z)
        th = _theta_reduced(tau, z0, cfg)
        y0 = mp.matrix([[w.imag] for w in z0.z])
        quad = (y0.T * tau.Yinv * y0)[0]
        return mp.sqrt(tau.detY) * mp.exp(-2 * mp.pi * quad) * abs(th) ** 2


# ---------------------------------------------------------------------------
# Vectorized double-precision paths (spot-check and tensor-grid backends)
# ---------------------------------------------------------------------------

def norm_batch(tau: PeriodMatrix, coords: np.ndarray) -> np.ndarray:
    """<s,s> at lattice coordinates ``coords`` (N x 2g, layout (n, m)), doubles.

    Coordinates are recentred to [-1/2, 1/2) before summation; the norm is
    lattice invariant so the recentring does not change the values.  The
    value is sqrt(det Y) |s|^2 with s from ``_theta_batch``.
    """
    return tau.lattice.scale * np.abs(_theta_batch(tau, coords)) ** 2


def _theta_batch(tau: PeriodMatrix, coords: np.ndarray, derivs: bool = False):
    """s = theta(n + tau m) exp(-pi m'Ym) at lattice coordinates ``coords``
    (N x 2g, layout (n, m)) recentred to [-1/2, 1/2), doubles.

    With the factor each term has modulus exp(-pi (M+m)'Y(M+m)) <= 1, so s
    stays in the double range whatever tau is, and sqrt(det Y) |s|^2 is the
    theta norm.  With ``derivs`` returns ``(s, d1, d2)``: s, and the
    z-gradient (N x g) and z-Hessian (N x g x g) of theta, each times the
    same factor.  The factor does not depend on z, so the ratios d1/s and
    d2/s are theta'/theta and theta''/theta.

    The terms are the context's (``LatticeContext``): points are grouped
    into its cells of m, and in a cell with centre c theta is the cell's
    phase table contracted with the per-axis rows P_k(j) = exp(2 pi i u_k j),
    u = n + tau (m - c), one axis at a time, first one (n x (2R+1)) x ((2R+1)
    x (2R+1)^(g-1)) product, then a batched vector-matrix product per
    remaining axis: N g (2R+1) exponentials per call, plus (2R+1)^g per
    cell whose table is not the context's last, instead of N (2R+1)^g.
    Since dP_k/dz_k = 2 pi i j P_k, the derivatives are the same contraction
    with axis k's rows weighted by 2 pi i j for d/dz_k, and axes k and l
    weighted for d^2/dz_k dz_l (as in ``_theta_reduced``): with ``derivs``
    each point contributes K = 1 + g + g(g+1)/2 weighted copies of its rows.
    Points are summed in chunks so that no temporary holds more than
    ``_BATCH_TERMS`` complex values.
    """
    g = tau.g
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2 * g:
        raise InvalidInput("coords must have shape (N, 2g)")
    if not np.isfinite(coords).all():
        raise InvalidInput("coords has a non-finite entry")
    ctx = tau.lattice
    L = 2 * ctx.R + 1
    j = 2j * np.pi * np.arange(-ctx.R, ctx.R + 1)
    weights = [()]
    if derivs:
        weights += [(k,) for k in range(g)] + [(k, l) for k in range(g) for l in range(k + 1)]
        # W[w, k] is (2 pi i j)^(the number of times weight w differentiates in z_k)
        W = j ** np.array([[axes.count(k) for k in range(g)] for axes in weights])[:, :, None]
    K = len(weights)
    nc = coords[:, :g] - np.round(coords[:, :g])
    mc = coords[:, g:] - np.round(coords[:, g:])
    chunk = max(1, _BATCH_TERMS // (K * max(g * L, L ** (g - 1))))
    out = np.empty((len(coords), K), dtype=complex)
    for cell, members in ctx.cell_groups(mc):
        centre, qc, table = ctx.cell_table(cell)
        table = table.reshape(L, L ** (g - 1))
        for i in range(0, len(members), chunk):
            pts = members[i : i + chunk]
            mm = mc[pts]
            u = nc[pts] + (mm - centre) @ ctx.taun.T
            rows = u[:, :, None] * j
            np.exp(rows, out=rows)
            if derivs:
                rows = (rows[:, None] * W).reshape(-1, g, L)
            th = rows[:, 0] @ table
            for k in range(1, g):
                th = (rows[:, k, None, :] @ th.reshape(len(rows), L, -1))[:, 0]
            qm = np.einsum("ni,ij,nj->n", mm, ctx.Y, mm)
            out[pts] = np.exp(-np.pi * (qm - qc))[:, None] * th.reshape(len(pts), K)
    if not derivs:
        return out[:, 0]
    d2 = np.empty((len(coords), g, g), dtype=complex)
    for w, (k, l) in enumerate(weights[1 + g :], start=1 + g):
        d2[:, k, l] = d2[:, l, k] = out[:, w]
    return out[:, 0], out[:, 1 : 1 + g], d2


def sqrt_norm_grid(tau: PeriodMatrix, nd: int, grid_offset: float = 0.0) -> np.ndarray:
    """sqrt(<s,s>) on the tensor grid {(k + grid_offset)/nd}^{2g}, doubles.

    Returns an array of shape (nd,)*2g indexed by the lattice coordinates
    (n, m), with the values ``norm_batch`` gives at those points to within
    rounding.  For fixed m the theta sum is a trigonometric polynomial in n,
    theta(n + tau m) = sum_M C_M(m) exp(2 pi i M'n).  The coefficients are
    the context's terms at n = 0 (``LatticeContext``): the m-slices are
    grouped by its cells, and in a cell with centre c, C_M(m) exp(-pi m'Ym)
    is the cell's phase table times the slice's per-axis powers exp(2 pi i
    j (tau (m - c))_k) times exp(-pi (m'Ym - c'Yc)), so a slice costs g (2R+1)
    exponentials.  Each slice's C is contracted with the nd x (2R+1) table
    exp(2 pi i n_k M) along each of the g axes (E C E' for g = 2).  A
    matrix product, unlike an FFT, does not alias when 2R+1 > nd.  The slices
    are evaluated up to nd^(g-1) at a time, so memory beyond the returned
    array is a small multiple of 16/nd bytes per grid point.
    """
    g = tau.g
    ctx = tau.lattice
    L = 2 * ctx.R + 1
    j = 2j * np.pi * np.arange(-ctx.R, ctx.R + 1)
    # recentred to [-1/2, 1/2) as in norm_batch, where the truncation bound holds
    axis = (np.arange(nd) + grid_offset) / nd
    axis -= np.round(axis)
    E = np.exp(np.outer(axis, j))
    ms = np.array(list(itertools.product(axis, repeat=g)))
    out = np.empty((nd**g, nd**g))
    chunk = nd ** (g - 1)
    for cell, members in ctx.cell_groups(ms):
        centre, qc, table = ctx.cell_table(cell)
        for i in range(0, len(members), chunk):
            cols = members[i : i + chunk]
            m = ms[cols]
            rows = np.exp(((m - centre) @ ctx.taun.T)[:, :, None] * j)
            C = rows[:, 0]
            for k in range(1, g):
                C = C[..., None] * rows[:, k].reshape((len(m),) + (1,) * k + (L,))
            C *= table
            for _ in range(g):
                C = np.tensordot(C, E, axes=(1, 1))
            qm = np.einsum("ni,ij,nj->n", m, ctx.Y, m)
            gauss = ctx.scale * np.exp(-2 * np.pi * (qm - qc))
            out[:, cols] = (np.abs(C.reshape(len(m), -1)) ** 2 * gauss[:, None]).T
    np.sqrt(out, out=out)
    return out.reshape((nd,) * (2 * g))


def _alias_sum(Q: np.ndarray, nd: int) -> float:
    """sum of exp(-pi nd^2 j'Qj/2) over the nonzero integer vectors j.

    The terms with ||j||_inf <= J are summed; the rest is bounded through
    j'Qj >= lambda |j|^2, lambda = lambda_min(Q), where |j|^2 separates by
    axis: with S_J = sum_{|k| <= J} exp(-b k^2), b = pi nd^2 lambda/2, and
    sum_{k > J} exp(-b k^2) <= exp(-b (J+1)^2) / (1 - exp(-b (2J+3))) = r/2,
    the rest is at most (S_J + r)^g - S_J^g.  J is taken so that
    exp(-b (J+1)^2) < e^-40, within a box of at most 10^4 vectors.
    """
    g = len(Q)
    b = math.pi * nd * nd * float(np.linalg.eigvalsh(Q)[0]) / 2
    J = max(1, min(math.ceil(math.sqrt(40 / b)) - 1, int(10_000 ** (1 / g)) // 2))
    js = np.array(list(itertools.product(range(-J, J + 1), repeat=g)))
    js = js[js.any(axis=1)]
    box = float(np.exp(-math.pi * nd * nd / 2 * np.einsum("li,ij,lj->l", js, Q, js)).sum())
    s_J = sum(math.exp(-b * k * k) for k in range(-J, J + 1))
    r = 2 * math.exp(-b * (J + 1) ** 2) / -math.expm1(-b * (2 * J + 3))
    return box + s_J**g * math.expm1(g * math.log1p(r / s_J))


def theta_norm_normalization_check(tau: PeriodMatrix, sample_budget: int):
    """Average of the theta norm over the torus against the reference 2^(-g/2).

    The average is the mean of <s,s> on the midpoint grid {(k + 1/2)/nd}^{2g}
    from ``sqrt_norm_grid``, with nd the largest integer such that nd^(2g) <=
    ``sample_budget``.  <s,s> has the Fourier coefficient 2^(-g/2) exp(-pi
    k'Yk/2 - pi (l - Xk)'Y^-1 (l - Xk)/2) at the frequency (k, l) in (n, m):
    k comes from the cross terms C_M conj(C_M') of |sum_M C_M(m) exp(2 pi i
    M'n)|^2 with M - M' = k, l from the periodized Gaussian in m.  The grid
    mean is the sum of the coefficients with k and l in nd Z^g, (0, 0)
    giving 2^(-g/2).  With A(Q) = sum_{j != 0} exp(-pi nd^2 j'Qj/2), the
    l-sum at a fixed k is at most 1 + A(Y^-1) (a Gaussian lattice sum is
    largest unshifted, by Poisson summation), so the error is at most
    2^(-g/2) (A(Y^-1) + A(Y) (1 + A(Y^-1))).  Raises BudgetExceeded when
    that bound exceeds ``_ALIAS_TOL``, before any grid is summed: a large
    Im tau_kk narrows the Gaussian in m below what the grid resolves.
    """
    if sample_budget < 10**3:
        raise InvalidInput("sample_budget must be at least 10^3")
    g = tau.g
    nd = 1
    while (nd + 1) ** (2 * g) <= sample_budget:
        nd += 1
    Y = tau.lattice.Y
    a_inv = _alias_sum(np.linalg.inv(Y), nd)
    bound = 2.0 ** (-g / 2) * (a_inv + _alias_sum(Y, nd) * (1 + a_inv))
    if bound > _ALIAS_TOL:
        raise BudgetExceeded(
            f"the midpoint rule on {nd}^{2 * g} points has aliasing bound "
            f"{bound:.1e} > {_ALIAS_TOL:.0e}; this Im tau needs a larger sample_budget"
        )
    estimate = float(np.mean(sqrt_norm_grid(tau, nd, 0.5) ** 2))
    return estimate, 2.0 ** (-g / 2)
