"""Riemann theta evaluation and the translation-invariant theta norm.

Every theta sum has one contract: lattice coordinates x = (n, m) in, s =
theta(n + tau m) exp(-pi m'Ym) out, Y = Im tau, optionally with the
z-gradient and z-Hessian of theta times the same factor.  A term of s has
modulus exp(-pi (M+m)'Y(M+m)), so s is bounded for every m, and sqrt(det Y)
|s|^2 is the theta norm.  Each sum leaves out the terms outside an ellipsoid
{M : (M+m)'Y(M+m) <= r^2}, which sum to at most 2^-bits
(``_ellipsoid_radius2``).  ``_theta_point`` sums one point at tau's working
precision, ``PeriodMatrix.bits``, for ``theta``, ``theta_norm`` and the
maximizer's polish.  Two double kernels sum a box that holds the 2^-60
ellipsoid of every m in [-1/2, 1/2]^g: ``_theta_batch`` at scattered points
(spot checks, the maximizer's Newton steps) and ``sqrt_norm_grid`` on the
m_1-slabs 0, ..., nd // 2 of the grid scan's tensor grids, the half that x
-> -x does not repeat.  The torus average,
``theta_norm_normalization_check``, reads the grid scan's m-slice
coefficients (``_slice_coefficients``) and integrates over n exactly by
Parseval, with a midpoint rule in m alone.

All these sums read their per-tau inputs from the ``PeriodMatrix``, each
built once, on first use (the layout of Deconinck, Heil, Bobenko, van
Hoeij, Schmies, "Computing Riemann theta functions", Math. Comp. 73
(2004)).  For the working precision it holds the factors of Y that
enumerate an ellipsoid axis by axis (Fincke, Pohst, Math. Comp. 44
(1985)), one row of the last axis per prefix of the others, and a
table of exp(pi i M'tau M) filled on demand.  A term is the table entry
times per-axis powers of exp(2 pi i z_k), and each row is summed before its
prefix's powers multiply it once.  ``_theta_point`` does this
arithmetic on Python integers: table entries and powers are fixed-point
complexes of bits + 32 bits, every row is summed at one exponent set by the
bound exp(pi m'Ym) on its terms, and each output is rounded once, so the
computed s is within N c 2^-(bits + 32) of the sum over its N terms, c a
small multiple of the largest |M|_1, plus a rounding of s.  A call whose set
the table already holds makes g + 1 exponentials.  The double part, the box
and its cell-centred term layout, is built on first use by a double kernel
(see ``PeriodMatrix``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import mpmath as mp
import numpy as np
from mpmath.libmp import from_man_exp, fzero, to_fixed

from .errors import BudgetExceeded, InvalidInput, InvalidPeriodMatrix

_SYMMETRY_RTOL = 1e-10
_LAMBDA_MIN_TOL = 1e-20
# Complex values in the largest temporary of one _theta_batch chunk (the
# prod_{k>1} (2R_k+1) partial sums or the sum_k (2R_k+1) per-axis powers of
# each point, for each of its weighted copies), 92 MB, and the most terms a
# PeriodMatrix's box may hold.
_BATCH_TERMS = 20_000 * 289
# Values that one chunk of sqrt_norm_grid's m-slices may hold in a complex
# temporary when a slab of slices holds fewer, and that one block of grid slabs
# holds when maximize._grid_starts filters it:
# enough to amortise numpy's per-call cost at g = 1, small enough to stay in
# cache.
_SCAN_CHUNK = 2**15
# Bound on the log of the product of the g per-axis row moduli of a term in
# PeriodMatrix's layout.  Its phase-table entries have modulus <= 1, so every
# partial sum stays below exp(500) times the box's number of terms.
_ROW_LOG_BOUND = 500.0
# Largest aliasing error of the torus average's midpoint rule that
# theta_norm_normalization_check accepts.
_ALIAS_TOL = 1e-12
# Relative inflation of r^2 before the working-precision lattice set is
# enumerated in doubles.  The rounding error of each partial form is about
# g^2 eps sqrt(cond Y) r^2, far below this for any Y the theta sums can use.
_ELLIPSOID_SLACK = 2.0**-20
# Extra bits of _theta_point's integer arithmetic over the working precision,
# in its fixed-point values and again in the arguments of its exps: its
# error bound N c 2^-(bits + 32) for N terms stays below the 2^-bits tail
# while N c <= 2^32 (see _theta_point).
_GUARD_BITS = 32
# The working precisions, in bits, that a PeriodMatrix and the Arakelov
# functions accept.
_BITS_RANGE = (53, 2048)


def _check_bits(bits) -> int:
    """bits, or InvalidInput when it is not an integer in ``_BITS_RANGE``.

    Called before mp.workprec(bits) is entered: mpmath sets its global
    precision before it fails on a value such as 10**400, and keeps it, so
    every later workprec would fail too.
    """
    lo, hi = _BITS_RANGE
    if not (isinstance(bits, int) and lo <= bits <= hi):
        raise InvalidInput(f"bits must be an integer from {lo} to {hi}")
    return bits


class PeriodMatrix:
    """A g x g symmetric complex matrix with positive-definite imaginary part,
    the working precision ``bits`` of every mpmath sum on it, and the per-tau
    inputs of the lattice sums (see the module docstring).

    Validation happens at construction: bits in ``_BITS_RANGE``, entries
    finite as doubles, symmetry up to a relative tolerance of 1e-10, a
    smallest eigenvalue of Im(tau) above 1e-20, and an Im(tau) that inverts
    at the working precision.  Construction keeps ``tau`` (an mpmath
    matrix), ``tau_rows``, ``X_rows``, ``Y_rows`` and ``Yinv_rows`` (tau, Re
    tau, Im tau and its inverse as lists of rows of mpmath numbers),
    ``detY`` and ``lambda_min``.  Everything else is built on first use:
    ``tau_np`` and ``Y_np`` (tau and Im tau as read-only doubles), ``scale``
    = sqrt(det Y), the factors of Y that ``ellipsoid_rows`` walks
    (``cholesky``) and ``phases`` for the working-precision sums, and the double part below for
    the double kernels.

    The double part: the radii ``R``, the box ``M`` of the M with |M_k| <=
    R_k (rows in lexicographic order), ``quad`` = M'tau M/2, ``freqs`` (the
    rows 2 pi i (-R_k, ..., R_k)), ``cells`` and the cell tables.  At m in
    [-1/2, 1/2]^g, where the double kernels recentre, a term has modulus
    exp(-pi (M+m)'Y(M+m)), so with r^2 = ``_ellipsoid_radius2``(g,
    lambda_min, 0, sqrt(g)/2, 60) the terms outside {M : (M+m)'Y(M+m) <=
    r^2}, with their derivative weights, sum to at most 2^-60.  There |M_k +
    m_k| <= r sqrt((Y^-1)_kk), so R_k = floor(r sqrt((Y^-1)_kk) + 1/2) makes
    the box hold every such set.  Reading ``R`` raises BudgetExceeded before
    any array is built when the box holds more than ``_BATCH_TERMS`` terms
    (a nearly singular Y); the working-precision sums never read it.

    The term of M at w = n + tau m, times exp(-pi m'Ym), is the product of

    - a phase-table entry t_M = exp(2 pi i (M'tau M/2 + M'tau c) - pi c'Yc),
      shared by every m in the cell with centre c (``cell_chunks``);
    - per-axis rows P_k(j) = exp(2 pi i u_k j) at j = M_k, u = n + tau (m - c);
    - exp(-pi (m'Ym - c'Yc)).

    |t_M| = exp(-pi (M+c)'Y(M+c)) <= 1 for every tau.  The cells split each
    axis l of m in [-1/2, 1/2) into ``cells[l]`` = B_l equal parts, so
    |m_l - c_l| <= 1/(2 B_l) and the g row moduli multiply to at most
    exp(2 pi sum_k R_k |Y (m - c)|_k) <= exp(pi sum_l colsum_l / B_l), with
    colsum_l = sum_k R_k |Y_kl|.  B_l = max(1, ceil(pi g colsum_l /
    ``_ROW_LOG_BOUND``)) keeps that below exp(``_ROW_LOG_BOUND``): no factor
    or partial sum of a contraction overflows, and a table entry that
    underflows drops a term below exp(-745 + ``_ROW_LOG_BOUND``).  Each
    product of moduli is the term's own, so rounding errors are those of the
    unfactored sum.  A well-conditioned tau, such as the preset, has one
    cell, c = 0.
    """

    def __init__(self, entries, bits: int = 128):
        with mp.workprec(_check_bits(bits)):
            rows = [[mp.mpc(x) for x in row] for row in entries]
            g = len(rows)
            if g < 1 or any(len(r) != g for r in rows):
                raise InvalidPeriodMatrix("tau must be a square matrix")
            # the grid scan and the double Newton steps read tau as doubles
            if not all(np.isfinite(complex(z)) for row in rows for z in row):
                raise InvalidPeriodMatrix("tau has an entry that is not finite as a double")
            tau = mp.matrix(rows)
            maxabs = max(abs(tau[i, j]) for i in range(g) for j in range(g))
            for i in range(g):
                for j in range(g):
                    if abs(tau[i, j] - tau[j, i]) > _SYMMETRY_RTOL * maxabs:
                        raise InvalidPeriodMatrix("tau is not symmetric")
            # symmetrize so downstream linear algebra sees an exactly symmetric Y
            tau = (tau + tau.T) / 2
            Y = tau.apply(mp.im)
            lam_min = min(mp.eigsy(Y, eigvals_only=True))
            if lam_min <= 0:
                raise InvalidPeriodMatrix("Im(tau) is not positive definite")
            if lam_min <= _LAMBDA_MIN_TOL:
                raise InvalidPeriodMatrix(
                    f"smallest eigenvalue of Im(tau) is {lam_min}, below tolerance"
                )
            try:
                Yinv = Y**-1
            except ZeroDivisionError:  # mpmath's LU refuses a pivot below its tolerance
                raise InvalidPeriodMatrix(f"Im(tau) is numerically singular at {bits} bits") from None
            self.g = g
            self.bits = bits
            self.tau = tau
            self.tau_rows = tau.tolist()
            self.X_rows = tau.apply(mp.re).tolist()
            self.Y_rows = Y.tolist()
            self.Yinv_rows = Yinv.tolist()
            self.detY = mp.det(Y)
            self.lambda_min = lam_min
        # the last cell table built: a table per cell could hold up to
        # prod(cells) prod_k (2R_k+1) values
        self._table = (None, None)

    def __repr__(self):
        return f"PeriodMatrix(g={self.g}, bits={self.bits})"

    @cached_property
    def tau_np(self) -> np.ndarray:
        a = np.array([[complex(v) for v in row] for row in self.tau_rows])
        a.flags.writeable = False
        return a

    @cached_property
    def Y_np(self) -> np.ndarray:
        return self.tau_np.imag

    @cached_property
    def scale(self) -> float:
        return math.sqrt(float(self.detY))

    @cached_property
    def cholesky(self) -> tuple:
        """``(d, mu)``: Y = U U' with U upper triangular, the Cholesky factor
        of Y with its axes reversed, so that (M+c)'Y(M+c) = sum_k d_k (v_k +
        sum_{j<k} mu_jk v_j)^2 with v = M + c, d_k = U_kk^2 and mu_jk = U_jk
        / U_kk."""
        U = np.linalg.cholesky(self.Y_np[::-1, ::-1])[::-1, ::-1]
        return (np.diag(U) ** 2).tolist(), (U / np.diag(U)).tolist()

    @cached_property
    def R(self) -> tuple:
        g = self.g
        r = math.sqrt(_ellipsoid_radius2(g, float(self.lambda_min), 0.0, math.sqrt(g) / 2, 60))
        R = tuple(int(r * math.sqrt(v) + 0.5) for v in np.diag(np.linalg.inv(self.Y_np)))
        terms = math.prod(2 * k + 1 for k in R)
        if terms > _BATCH_TERMS:
            raise BudgetExceeded(
                f"the double kernels' box of radii {R} holds {terms:,} lattice "
                f"terms, more than {_BATCH_TERMS:,}: Im tau is too close to singular"
            )
        return R

    @cached_property
    def M(self) -> np.ndarray:
        return np.array(list(itertools.product(*(range(-k, k + 1) for k in self.R))))

    @cached_property
    def quad(self) -> np.ndarray:
        return 0.5 * np.einsum("li,ij,lj->l", self.M, self.tau_np, self.M)

    @cached_property
    def freqs(self) -> list:
        return [2j * np.pi * np.arange(-r, r + 1) for r in self.R]

    @cached_property
    def cells(self) -> np.ndarray:
        colsum = np.array(self.R) @ np.abs(self.Y_np)
        return np.maximum(1, np.ceil(np.pi * self.g * colsum / _ROW_LOG_BOUND)).astype(int)

    def cell_chunks(self, m: np.ndarray, chunk: int):
        """Yield ``(rows, u, q, t)`` for the rows of ``m`` (N x g, in [-1/2,
        1/2)) grouped by cell, cells in order and rows in their original
        order, at most ``chunk`` rows at a time: the rows' indices (a slice
        when they are consecutive), u = (m - c) tau' and q = m'Ym - c'Yc for
        the cell's centre c, and the cell's phase table t_M of shape (2R_1+1,
        ..., 2R_g+1).  The last table built is kept, so consecutive calls on
        one cell build it once."""
        index = np.minimum(((m + 0.5) * self.cells).astype(int), self.cells - 1)
        key = np.ravel_multi_index(index.T, self.cells)
        order = np.argsort(key, kind="stable")
        edges = np.flatnonzero(np.diff(key[order], prepend=-1, append=-1))
        for start, stop in zip(edges[:-1], edges[1:]):
            cell = key[order[start]]
            if self._table[0] != cell:
                self._table = (cell, self._build_cell_table(cell))
            centre, qc, table = self._table[1]
            for i in range(start, stop, chunk):
                rows = order[i : min(i + chunk, stop)]
                mm = m[rows]
                q = np.einsum("ni,ij,nj->n", mm, self.Y_np, mm) - qc
                if rows[-1] - rows[0] == len(rows) - 1:
                    rows = slice(rows[0], rows[-1] + 1)
                yield rows, (mm - centre) @ self.tau_np.T, q, table

    def _build_cell_table(self, cell) -> tuple:
        centre = (np.array(np.unravel_index(cell, self.cells)) + 0.5) / self.cells - 0.5
        qc = centre @ self.Y_np @ centre
        table = np.exp(2j * np.pi * (self.quad + self.M @ (self.tau_np @ centre)) - np.pi * qc)
        return centre, qc, table.reshape([2 * k + 1 for k in self.R])

    @cached_property
    def phases(self) -> _PhaseTable:
        """exp(pi i M'tau M) at tau's precision as fixed-point complexes
        (``_PhaseTable``), keyed by the tuple M.

        An entry is computed the first time a lattice set asks for its M, and
        kept under M and -M, whose M'tau M is the same sum of the same
        products; so the table holds the union of the sets summed so far and
        their negatives.
        """
        return _PhaseTable(self.tau_rows, self.bits)

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
        g = self.g
        d, mu = self.cholesky
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


@dataclass(frozen=True)
class ThetaPoint:
    """An argument z in C^g, carried as a tuple of mpmath complex numbers."""

    z: tuple

    def __post_init__(self):
        # Coerce at the top of the working-precision range, so that a real or
        # string entry keeps every bit a sum at any tau.bits can use, whatever
        # the ambient precision; an mpc entry is copied without rounding.
        with mp.workprec(max(mp.mp.prec, _BITS_RANGE[1])):
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
        # Coordinates within `snap` of an integer count as exact.  Any integer
        # (n, m) is a valid reduction, so the tolerance only picks the cell's
        # representative; it must exceed the rounding of double input.
        snap = mp.mpf("1e-9")
        k = [int(mp.nint(c) if abs(c - mp.nint(c)) < snap else mp.floor(c))
             for c in _lattice_coords(tau, z)]
        n, m = k[:g], k[g:]
        z0 = [z.z[i] - n[i] - sum(tau.tau[i, j] * m[j] for j in range(g)) for i in range(g)]
        quad = sum(m[i] * tau.tau[i, j] * m[j] for i in range(g) for j in range(g)) / 2
        log_mult = -2j * mp.pi * (quad + sum(m[i] * z0[i] for i in range(g)))
    return ThetaPoint(tuple(z0)), tuple(m), tuple(n), log_mult


def _lattice_coords(tau: PeriodMatrix, z: ThetaPoint) -> list:
    """The lattice coordinates x = (n, m) of z = n + tau m at tau's
    precision: m = Y^-1 Im z and n = Re z - X m.  A z of other than g
    entries raises InvalidInput."""
    if len(z.z) != tau.g:
        raise InvalidInput(f"z has {len(z.z)} entries but tau is {tau.g}x{tau.g}")
    with mp.workprec(tau.bits):
        m = [mp.fdot(row, [w.imag for w in z.z]) for row in tau.Yinv_rows]
        return [w.real - mp.fdot(row, m) for w, row in zip(z.z, tau.X_rows)] + m


class _PhaseTable(dict):
    """exp(pi i M'tau M) at one bit count as a fixed-point complex of bits +
    ``_GUARD_BITS`` bits (``_fixed``), computed on first lookup of M or -M.

    ``pi_tau`` (pairs of the real and imaginary parts) and ``two_pi`` are
    held as integers times 2^-``frac``, frac = bits + 2 ``_GUARD_BITS``: the
    exps' arguments are integer combinations of them, exact for the held
    values.  An entry costs the form M'(pi tau)M in one pass over the pairs
    k <= l and one exp; ``_theta_point`` forms its arguments from the same
    integers.
    """

    def __init__(self, tau: list, bits: int):
        super().__init__()
        self.width = bits + _GUARD_BITS
        self.frac = self.width + _GUARD_BITS
        g = len(tau)
        # |pi tau_kl| < 2^64, so each floor to frac fractional bits is off by
        # at most 2^-frac
        with mp.workprec(self.frac + 64):
            self.pi_tau = [
                [tuple(to_fixed(part._mpf_, self.frac) for part in (v.real, v.imag))
                 for v in (mp.pi * t for t in row)]
                for row in tau
            ]
            self.two_pi = to_fixed((2 * mp.pi)._mpf_, self.frac)
        # the off-diagonal pairs count twice in M'tau M
        self.form = [
            (k, l, *(c * (1 + (k != l)) for c in self.pi_tau[k][l]))
            for k in range(g)
            for l in range(k, g)
        ]

    def __missing__(self, m: tuple):
        re = im = 0
        for k, l, a, b in self.form:
            c = m[k] * m[l]
            if c:
                re += c * a
                im += c * b
        arg = mp.make_mpc((from_man_exp(-im, -self.frac), from_man_exp(re, -self.frac)))
        with mp.workprec(self.width):
            value = self[m] = self[tuple(-c for c in m)] = _fixed(mp.exp(arg), self.width)
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


def _fixed(v, width: int) -> tuple:
    """An mpf or mpc v as a fixed-point complex ``(re, im, e)``: Python ints
    with v = (re + i im) 2^e to within 2^e per part, each part floored, and
    the larger part of ``width`` bits."""
    parts = v._mpc_ if isinstance(v, mp.mpc) else (v._mpf_, fzero)
    e = max(exp + bc for _, man, exp, bc in parts if man) - width
    return to_fixed(parts[0], -e), to_fixed(parts[1], -e), e


def _mul(p: tuple, q: tuple, width: int) -> tuple:
    """The product of two fixed-point complexes, floored back to ``width``
    bits."""
    a, b, e = p
    c, d, f = q
    re, im = a * c - b * d, a * d + b * c
    shift = max(abs(re), abs(im)).bit_length() - width
    return re >> shift, im >> shift, e + f + shift


def _axis_powers(w: tuple, lo: int, hi: int, width: int) -> list:
    """w^j for j in [lo, hi], w a fixed-point complex of ``width`` bits, in a
    list read at index j - lo.  The powers are built outward from w^0 = 1 by
    repeated ``_mul`` with w and with 1/w, the inverse taken by integer
    division, so w^j carries |j| + 1 roundings."""
    a, b, e = w
    norm = a * a + b * b
    inv = ((a << 2 * width) // norm, (-b << 2 * width) // norm, -e - 2 * width)
    up, down = [(1 << width, 0, -width)], [(1 << width, 0, -width)]
    for _ in range(hi):
        up.append(_mul(up[-1], w, width))
    for _ in range(-lo):
        down.append(_mul(down[-1], inv, width))
    return (down[:0:-1] + up)[lo + len(down) - 1 : hi + len(down)]


def _lattice_set(tau: PeriodMatrix, m) -> list:
    """The rows (``PeriodMatrix.ellipsoid_rows``) of the lattice set the
    sum at tau's precision runs over at lattice coordinates (n, m): {M :
    (M+c)'Y(M+c) <= r^2}, with c = m and r^2 from ``_ellipsoid_radius2``."""
    c = np.array([float(v) for v in m])
    r2 = _ellipsoid_radius2(
        tau.g, float(tau.lambda_min), float(c @ tau.Y_np @ c), float(np.linalg.norm(c)), tau.bits
    )
    return tau.ellipsoid_rows(c.tolist(), r2)


def _extent(rows: list) -> tuple:
    """``(lows, highs)``: the least and largest M_k over a lattice set's
    rows, for each axis k."""
    axes = list(zip(*(prefix for prefix, _, _ in rows)))
    lows = [min(a) for a in axes] + [min(lo for _, lo, _ in rows)]
    highs = [max(a) for a in axes] + [max(hi for _, _, hi in rows)]
    return lows, highs


def _theta_point(tau: PeriodMatrix, x, derivs: bool = False):
    """s = theta(n + tau m) exp(-pi m'Ym) at lattice coordinates x = (n, m),
    summed at bits = ``tau.bits``: ``_theta_batch`` at one point, at working
    precision.

    The sum runs over ``_lattice_set``, whose theta terms left out, with
    their derivative weights, sum to at most 2^-bits, so those of s to at
    most 2^-bits exp(-pi m'Ym).  A term exp(2 pi i (M'tau M/2 + M'z)), z = n
    + tau m, is tau's phase for M times the per-axis powers exp(2 pi
    i z_k)^(M_k) over the set's extent.  Along a row's range of M_g the
    phases times the powers of axis g are summed, and the row sum is
    multiplied once by the product of its prefix's g - 1 powers.

    The arithmetic is on Python integers.  Phases and powers are fixed-point
    complexes of W = bits + ``_GUARD_BITS`` bits (``_fixed``), the powers
    built from one exp per axis (``_axis_powers``).  The exps' arguments, 2
    pi i z_k and -pi m'Ym, are integer combinations of x floored to W +
    ``_GUARD_BITS`` fractional bits and of the phase table's pi tau and 2 pi,
    held likewise (``_PhaseTable``).  A term times its prefix product has
    modulus exp(pi m'Ym - pi (M+m)'Y(M+m)) <= B = exp(pi m'Ym), so every row
    is summed at the exponent that puts its product with the prefix at 2^(E
    - W), E = floor(log2 B) - W: each term is floored there, the row sum
    times the prefix product is exact, and the rows add exactly.  The
    derivative weights, M_g and M_g^2 along a row and the prefix's M_k on
    it, are exact integer factors.  Each output is rounded once, to
    ``bits``, as its integer sum times exp(-pi m'Ym) (times 2 pi i or (2 pi
    i)^2 for the derivatives) held in W bits.

    Error bound.  Let u = 2^-W.  A value from an exp, floored to W bits, is
    off by a relative 4u at most; a ``_mul`` adds 3u, and so does the
    division that inverts exp(2 pi i z_k), so the power of exponent j is
    within 10 |j| u.  The arguments are exact combinations of values each
    off by at most 2^-(W + _GUARD_BITS), so the phase of M is off by at most
    (sum_k |M_k|)^2 2^-(W + _GUARD_BITS) more, below u for |M|_1 < 2^16, and
    exp(2 pi i z_k), for |x| <= 1, by (2 pi + 2 sum_l |pi tau_kl| + 2g)
    2^-(W + _GUARD_BITS), below u for |tau| < 2^20.  So large exponents,
    such as exp(-400 pi) and exp(400 pi) multiplying to a term near 1
    (diag(i, 400i)), add no error of their size.  A term's relative error is
    then at most (3g + 10 |M|_1) u, its floor at the row exponent adds 2u of
    B, and the factor exp(-pi m'Ym) = 1/B, held in W bits, adds 5u of each
    term's share of s.  So for a set of N terms the computed s is within

        N (c + 10 max |M|_1) 2^-W  +  |s| 2^-bits,    c = 7 + 3g,

    of the exact sum over the set, the last part the final rounding, and the
    derivatives within the same bound with each term weighted by its |2 pi
    M_k| or |4 pi^2 M_k M_l|.  ``_GUARD_BITS`` = 32 keeps the first part
    below the tail bound 2^-bits while N (c + 10 max |M|_1) <= 2^32: on the
    preset a 128-bit set has about 120 terms with |M|_1 <= 12, so the
    arithmetic adds at most 2^-(bits + 18).

    Returns s, or with ``derivs`` the triple ``(s, d1, d2)``: s, and the
    gradient and Hessian in z of the same truncated theta sum, as numpy
    arrays of mpmath numbers of the per-point shapes of ``_theta_batch``,
    (g,) and (g, g).  Their terms are weighted by 2*pi*i*M and (2*pi*i)^2 *
    M M', each times exp(-pi m'Ym).  Theta is summed in the same rows and
    order either way, so s is bit-identical with and without ``derivs``.
    """
    g, bits = tau.g, tau.bits
    table = tau.phases
    width, frac = table.width, table.frac
    n, m = [[to_fixed(mp.convert(c)._mpf_, frac) for c in half] for half in (x[:g], x[g:])]
    # 2 pi i z_k at 2 frac fractional bits, and pi m'Ym at 3 frac
    args = []
    for k, row in enumerate(table.pi_tau):
        re = -2 * sum(t[1] * c for t, c in zip(row, m))
        im = table.two_pi * n[k] + 2 * sum(t[0] * c for t, c in zip(row, m))
        args.append(mp.make_mpc((from_man_exp(re, -2 * frac), from_man_exp(im, -2 * frac))))
    quad = sum(b * m[k] * m[l] for k, l, _, b in table.form)
    args.append(mp.make_mpf(from_man_exp(-quad, -3 * frac)))
    with mp.workprec(width):
        exps = [mp.exp(a) for a in args]
        factor = exps.pop()
        scales = (1, 2 * mp.pi, 4 * mp.pi**2) if derivs else (1,)
        factors = [_fixed(c * factor, width) for c in scales]
    # E - W, the exponent of every row's product with its prefix
    e_sum = math.floor(quad / (1 << 3 * frac) / math.log(2)) - 2 * width
    rows = _lattice_set(tau, x[g:])
    lows, highs = _extent(rows)
    powers = [_axis_powers(_fixed(w, width), lo, hi, width) for w, lo, hi in zip(exps, lows, highs)]
    last, lo_g = powers[-1], lows[-1]
    one = (1 << width, 0, -width)
    # the row sums times their prefix products, weighted by M_g^q for q = 0
    # (theta), and q = 1, 2 with derivs
    sums = [[] for _ in range(3 if derivs else 1)]
    for prefix, lo, hi in rows:
        pre = one
        for k, j in enumerate(prefix):
            pre = _mul(pre, powers[k][j - lows[k]], width) if k else powers[k][j - lows[k]]
        pa, pb, ep = pre
        e_row = e_sum - ep
        re, im = [], []
        for j in range(lo, hi + 1):
            a, b, e = table[prefix + (j,)]
            c, d, f = last[j - lo_g]
            shift = e_row - e - f
            re.append((a * c - b * d) >> shift)
            im.append((a * d + b * c) >> shift)
        for q, out in enumerate(sums):
            sr = sum(j**q * r for j, r in zip(range(lo, hi + 1), re)) if q else sum(re)
            si = sum(j**q * i for j, i in zip(range(lo, hi + 1), im)) if q else sum(im)
            out.append((sr * pa - si * pb, sr * pb + si * pa))

    def rounded(sr, si, order):
        # (sr + i si) 2^(E - W) exp(-pi m'Ym) (2 pi i)^order, at bits
        f, _, ef = factors[order]
        for _ in range(order):
            sr, si = -si, sr
        return mp.mpc(mp.mpf((sr * f, e_sum + ef)), mp.mpf((si * f, e_sum + ef)))

    with mp.workprec(bits):
        s = rounded(sum(v[0] for v in sums[0]), sum(v[1] for v in sums[0]), 0)
        if not derivs:
            return s

        def weighted(axes):
            # the sum weighted by M_a for each axis a in axes
            vals = sums[axes.count(g - 1)]
            outer = [math.prod(p[a] for a in axes if a < g - 1) for p, _, _ in rows]
            return (sum(w * v[0] for w, v in zip(outer, vals)),
                    sum(w * v[1] for w, v in zip(outer, vals)))

        d1 = [rounded(*weighted((i,)), 1) for i in range(g)]
        d2 = [[None] * g for _ in range(g)]
        for i in range(g):
            for j in range(i + 1):
                d2[i][j] = d2[j][i] = rounded(*weighted((i, j)), 2)
        return s, np.array(d1), np.array(d2)


def theta(tau: PeriodMatrix, z: ThetaPoint):
    """Riemann theta function theta(z, tau), at bits = ``tau.bits``.

    theta(z) = exp(log_multiplier + pi m0'Y m0) s, with z reduced to z0 in
    the fundamental cell and s from ``_theta_point`` at the coordinates
    (n0, m0) of z0.  s is within 2^-bits of its sum, so the error of theta
    is at most 2^-bits exp(pi y'Y^-1 y), y = Im z, plus a relative 2^-bits
    times the size of the multiplier's exponent, which is rounded at the
    working precision.  It is absolute only near the fundamental cell.
    """
    with mp.workprec(tau.bits):
        z0, _, _, log_mult = reduce_to_fundamental(tau, z)
        x0 = _lattice_coords(tau, z0)
        m0 = x0[tau.g :]
        quad = mp.fdot(m0, [mp.fdot(row, m0) for row in tau.Y_rows])
        return mp.exp(log_mult + mp.pi * quad) * _theta_point(tau, x0)


def theta_norm(tau: PeriodMatrix, z: ThetaPoint):
    """Moret-Bailly norm det(Im tau)^(1/2) exp(-2 pi y' (Im tau)^-1 y) |theta|^2,
    at ``tau.bits``.

    sqrt(det Y) |s|^2 with s from ``_theta_point`` at the lattice
    coordinates of z recentred to [-1/2, 1/2): the norm is invariant under
    lattice translation of z, so it needs no multiplier.
    """
    with mp.workprec(tau.bits):
        x = [c - mp.nint(c) for c in _lattice_coords(tau, z)]
        return mp.sqrt(tau.detY) * abs(_theta_point(tau, x)) ** 2


# ---------------------------------------------------------------------------
# Vectorized double-precision paths (spot-check and tensor-grid backends)
# ---------------------------------------------------------------------------

def norm_batch(tau: PeriodMatrix, coords: np.ndarray) -> np.ndarray:
    """<s,s> at lattice coordinates ``coords`` (N x 2g, layout (n, m)), doubles.

    Coordinates are recentred to [-1/2, 1/2) before summation; the norm is
    lattice invariant so the recentring does not change the values.  The
    value is sqrt(det Y) |s|^2 with s from ``_theta_batch``.
    """
    return tau.scale * np.abs(_theta_batch(tau, coords)) ** 2


def _theta_batch(tau: PeriodMatrix, coords: np.ndarray, derivs: bool = False):
    """s = theta(n + tau m) exp(-pi m'Ym) at lattice coordinates ``coords``
    (N x 2g, layout (n, m)) recentred to [-1/2, 1/2), doubles.

    With the factor each term has modulus exp(-pi (M+m)'Y(M+m)) <= 1, so s
    stays in the double range whatever tau is, and sqrt(det Y) |s|^2 is the
    theta norm.  With ``derivs`` returns ``(s, d1, d2)``: s, and the
    z-gradient (N x g) and z-Hessian (N x g x g) of theta, each times the
    same factor.  The factor does not depend on z, so the ratios d1/s and
    d2/s are theta'/theta and theta''/theta.

    The terms are tau's (``PeriodMatrix``), over its box |j_k| <=
    R_k: points are grouped into its cells of m, and in a cell with centre c
    theta is the cell's phase table contracted with the per-axis rows P_k(j)
    = exp(2 pi i u_k j), u = n + tau (m - c), one axis at a time, first one
    (n x L_1) x (L_1 x L_2...L_g) product with L_k = 2R_k+1, then a batched
    vector-matrix product per remaining axis: N (L_1 + ... + L_g)
    exponentials per call, plus L_1...L_g per cell whose table is not the
    last one built, instead of N L_1...L_g.  Since dP_k/dz_k = 2 pi i j P_k,
    the derivatives are the same contraction with axis k's rows weighted by
    2 pi i j for d/dz_k, and axes k and l weighted for d^2/dz_k dz_l (as in
    ``_theta_point``): with ``derivs`` each point contributes K = 1 + g +
    g(g+1)/2 weighted copies of its rows.
    Points are summed in chunks so that no temporary holds more than
    ``_BATCH_TERMS`` complex values.
    """
    g = tau.g
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2 * g:
        raise InvalidInput("coords must have shape (N, 2g)")
    if not np.isfinite(coords).all():
        raise InvalidInput("coords has a non-finite entry")
    js = tau.freqs
    L = [len(j) for j in js]
    weights = [()]
    if derivs:
        weights += [(k,) for k in range(g)] + [(k, l) for k in range(g) for l in range(k + 1)]
    # W[k][w] is (2 pi i j)^(the number of times weight w differentiates in z_k)
    W = [j ** np.array([axes.count(k) for axes in weights])[:, None] for k, j in enumerate(js)]
    K = len(weights)
    nc = coords[:, :g] - np.round(coords[:, :g])
    mc = coords[:, g:] - np.round(coords[:, g:])
    chunk = max(1, _BATCH_TERMS // (K * max(sum(L), math.prod(L[1:]))))
    out = np.empty((len(coords), K), dtype=complex)
    for pts, u, q, table in tau.cell_chunks(mc, chunk):
        u = nc[pts] + u
        rows = [np.exp(u[:, k, None, None] * j) * w for k, (j, w) in enumerate(zip(js, W))]
        th = rows[0].reshape(-1, L[0]) @ table.reshape(L[0], -1)
        for k in range(1, g):
            th = (rows[k].reshape(-1, 1, L[k]) @ th.reshape(len(th), L[k], -1))[:, 0]
        out[pts] = np.exp(-np.pi * q)[:, None] * th.reshape(len(u), K)
    if not derivs:
        return out[:, 0]
    d2 = np.empty((len(coords), g, g), dtype=complex)
    for w, (k, l) in enumerate(weights[1 + g :], start=1 + g):
        d2[:, k, l] = d2[:, l, k] = out[:, w]
    return out[:, 0], out[:, 1 : 1 + g], d2


def _slice_coefficients(tau: PeriodMatrix, ms: np.ndarray, chunk: int):
    """Yield ``(rows, D, w)`` for the m-slices ``ms`` (N x g, in [-1/2,
    1/2)) in the chunks of ``tau.cell_chunks``: the rows' indices, the
    coefficients D of shape (N', 2R_1+1, ..., 2R_g+1) and the weights w of
    shape (N',), so that w |sum_M D_M exp(2 pi i M'n)|^2 is <s,s>(n, m).

    For fixed m the theta sum is a trigonometric polynomial in n,
    theta(n + tau m) = sum_M C_M(m) exp(2 pi i M'n), C_M(m) = exp(pi i
    M'tau M + 2 pi i M'tau m), and tau's terms at n = 0 (see
    ``PeriodMatrix``) give it: in a cell with centre c, D_M = C_M(m)
    exp(-pi c'Yc) is the cell's phase table times the slice's per-axis
    powers exp(2 pi i j (tau (m - c))_k), |j| <= R_k, and w = sqrt(det Y)
    exp(-2 pi (m'Ym - c'Yc)).  A slice costs (2R_1+1) + ... + (2R_g+1)
    exponentials.
    """
    g, js = tau.g, tau.freqs
    for rows, u, q, table in tau.cell_chunks(ms, chunk):
        D = np.exp(u[:, 0, None] * js[0])
        for k in range(1, g):
            power = np.exp(u[:, k, None] * js[k])
            D = D[..., None] * power.reshape((len(u),) + (1,) * k + (-1,))
        D *= table
        yield rows, D, tau.scale * np.exp(-2 * np.pi * q)


def sqrt_norm_grid(tau: PeriodMatrix, nd: int) -> np.ndarray:
    """sqrt(<s,s>) on half the tensor grid {k/nd}^{2g}, doubles.

    theta and exp(-pi m'Ym) are even, so <s,s>(-x) = <s,s>(x), and -x is a
    grid point: index k of an axis goes to -k mod nd (``_mirror``).  The
    m_1-slabs 0, ..., floor(nd/2) are a fundamental domain of -1 on that
    axis, and only they are summed and returned: an array of shape
    (floor(nd/2) + 1,) + (nd,)^(2g-1) indexed by the lattice coordinates
    (m, n), m_1 first, with the values ``norm_batch`` gives at those points
    to within rounding.  A slab that is its own mirror (0, and nd/2 for even
    nd) is averaged with its mirror, so the half is an exact fundamental
    domain of x -> -x.

    Each m-slice's coefficients D (``_slice_coefficients``) are contracted
    with the nd x (2R_k+1) table exp(2 pi i n_k M_k) along each axis k (E_1
    D E_2' for g = 2) into one row of the result.  A matrix product, unlike
    an FFT, does not alias when 2R_k+1 > nd.  The slices are summed in
    chunks of at least nd^(g-1) and of up to ``_SCAN_CHUNK`` complex values
    per temporary (64 slices at g = 1, nd = 512), and a chunk of consecutive
    slices is stored through a slice.  Memory beyond the returned array is a
    few temporaries of max(``_SCAN_CHUNK``, nd^(g-1) max(nd^g, prod_k
    (2R_k+1))) complex values, 16/nd bytes per grid point on the preset.
    """
    g, js = tau.g, tau.freqs
    # recentred to [-1/2, 1/2) as in norm_batch, where the box holds
    axis = np.arange(nd) / nd
    axis -= np.round(axis)
    E = [np.exp(np.outer(axis, j)) for j in js]
    half = nd // 2 + 1
    ms = np.array(list(itertools.product(axis[:half], *[axis] * (g - 1))))
    out = np.empty((len(ms), nd**g))
    chunk = max(nd ** (g - 1), _SCAN_CHUNK // max(nd**g, math.prod(map(len, js))))
    for rows, D, w in _slice_coefficients(tau, ms, chunk):
        for e in E:
            D = np.tensordot(D, e, axes=(1, 1))
        out[rows] = np.abs(D.reshape(len(w), -1)) ** 2 * w[:, None]
    np.sqrt(out, out=out)
    out = out.reshape((half,) + (nd,) * (2 * g - 1))
    for slab in (out[0], out[-1]) if nd % 2 == 0 else (out[0],):
        slab += _mirror(slab, tuple(range(2 * g - 1)))
        slab *= 0.5
    return out


def _mirror(a: np.ndarray, axes: tuple) -> np.ndarray:
    """A copy of a at x -> -x on a grid {k/n}: along each of ``axes``,
    index k reads a at -k mod n."""
    return np.roll(np.flip(a, axes), 1, axes)


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

    The integral over n is exact.  For fixed m, theta(n + tau m) = sum_M
    C_M(m) exp(2 pi i M'n) with C_M(m) = exp(pi i M'tau M + 2 pi i M'tau m),
    so by Parseval the integral of <s,s> = sqrt(det Y) exp(-2 pi m'Ym)
    |theta|^2 over n in [0, 1]^g is

        F(m) = sqrt(det Y) exp(-2 pi m'Ym) sum_M |C_M(m)|^2
             = sqrt(det Y) sum_M exp(-2 pi (M+m)'Y(M+m)),

    which is sum_M w |D_M|^2 over each slice's coefficients from
    ``_slice_coefficients``, the terms ``sqrt_norm_grid`` sums, over the
    box |M_k| <= R_k (its omitted terms sum below 2^-60).  X cancels in
    |C_M|^2, so F depends on Y alone: the check tests the moduli of the
    kernel's terms and the quadrature in m, not the terms' phases, which
    the tests compare against ``norm_batch``.

    The average of F over m is the midpoint rule on {(k + 1/2)/nd}^g, with
    nd the largest integer such that nd^(2g) <= ``sample_budget``.  By
    Poisson summation F has the Fourier coefficient 2^(-g/2) exp(-pi
    b'Y^-1 b/2) at the frequency b in Z^g (the a = 0 coefficients of
    <s,s>), 2^(-g/2) at b = 0.  The midpoint rule averages exp(2 pi i b'm)
    to its integral, 0, for every b != 0 outside nd Z^g; at b = nd j it
    gives (-1)^(j_1 + ... + j_g).  So with A(Q) = sum_{j != 0} exp(-pi nd^2
    j'Qj/2) the error is at most 2^(-g/2) A(Y^-1), and equals it when every
    aliased term has one sign.  Raises BudgetExceeded when that bound
    exceeds ``_ALIAS_TOL``, before any slice is summed: a large Im tau_kk
    narrows the Gaussian in m below what the grid resolves.
    """
    if sample_budget < 10**3:
        raise InvalidInput("sample_budget must be at least 10^3")
    g = tau.g
    nd = 1
    while (nd + 1) ** (2 * g) <= sample_budget:
        nd += 1
    bound = 2.0 ** (-g / 2) * _alias_sum(np.linalg.inv(tau.Y_np), nd)
    if bound > _ALIAS_TOL:
        raise BudgetExceeded(
            f"the midpoint rule on {nd}^{g} slices has aliasing bound "
            f"{bound:.1e} > {_ALIAS_TOL:.0e}; this Im tau needs a larger sample_budget"
        )
    # recentred to [-1/2, 1/2) as in sqrt_norm_grid
    axis = (np.arange(nd) + 0.5) / nd
    axis -= np.round(axis)
    ms = np.array(list(itertools.product(axis, repeat=g)))
    chunk = max(1, _SCAN_CHUNK // math.prod(2 * r + 1 for r in tau.R))
    total = sum(
        w @ (np.abs(D.reshape(len(w), -1)) ** 2).sum(axis=1)
        for _, D, w in _slice_coefficients(tau, ms, chunk)
    )
    return float(total) / nd**g, 2.0 ** (-g / 2)
