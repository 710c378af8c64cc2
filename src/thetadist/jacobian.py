"""Genus-2 hyperelliptic Jacobian arithmetic and p-adic distance to the curve.

Curves are odd-degree models z^2 = f(t) with f monic quintic and squarefree,
embedded in the Jacobian via the single point at infinity.  Divisor classes
are carried in Mumford form (u, v) with u monic of degree <= 2 and u | v^2 - f,
over the rationals or over a residue ring Z/p^j.  The group law is Cantor's
composition and reduction, written out in closed form on the coefficients:
no polynomial gcd and no polynomial division.  A resultant or pivot that is
not a unit of Z/p^j raises RepresentationDegenerate rather than guessing a
representative.

Each coefficient ring owns its normal form: ``R.reduce`` is the identity
over Q and ``x % p^j`` over Z/p^j.  The polynomial helpers pass every
coefficient they return through it, so a zero coefficient is falsy and no
helper branches on the ring; a new ring needs ``coerce``, ``reduce`` and
``inv``, and every scalar inverse of ``add`` goes through ``inv``.

There is one ring object per (p, j): ``residue_ring`` is cached, and
``reduce_mod`` and ``enumerate_curve_points_mod`` build their divisors on
it, so ``add``'s ring check is an identity test and each curve keys its
coerced f by the ring's modulus.  Rings built directly as ResidueRing(p, j)
still compare equal.  A MumfordDivisor is a named tuple, immutable and
cheap to build.

``enumerate_curve_points_mod`` is a numpy sieve: f by a vectorised Horner
at the abscissae that lie over a mod-p abscissa with points, and the roots
of each value from one stable argsort of the squares mod p^j.  It returns
a read-only sequence that builds each point's MumfordDivisor as it is read.
CPython never untracks a named tuple, so up to 10^4 kept pairs would reach
the cyclic garbage collector's oldest generation and set off its full
collections; the sequence keeps exact tuples of ints, which it untracks.

``order_of`` walks k*D only up to half the order and meets a stored -j*D.
The order of a class depends on the curve alone, not on any prime, so each
curve keeps the orders it has found and walks a class at most once.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import chain, product, repeat, zip_longest
from math import gcd
from operator import index
from typing import NamedTuple

import mpmath as mp
import numpy as np

from .errors import (
    BudgetExceeded,
    HypothesisViolated,
    InvalidInput,
    NotPIntegral,
    RepresentationDegenerate,
    UnsupportedPrime,
)

_ENUM_BUDGET = 10**4


# ---------------------------------------------------------------------------
# Coefficient rings
# ---------------------------------------------------------------------------

class RationalField:
    """Exact rational coefficients (Fraction); every value is already reduced."""

    modulus = None

    def coerce(self, x):
        """x as a Fraction: an int, a numpy integer, a Fraction or an exact
        string such as "-3/4".  A float, which would be taken at its binary
        value, and anything Fraction cannot parse raise InvalidInput."""
        if isinstance(x, numbers.Real) and not isinstance(x, numbers.Rational):
            raise InvalidInput(f"{x!r} is not exact: give an int, a Fraction or a string")
        try:
            return Fraction(x)
        except (TypeError, ValueError, ZeroDivisionError):
            raise InvalidInput(f"{x!r} is not a rational number") from None

    def reduce(self, x):
        return x

    def inv(self, x):
        if not x:
            raise RepresentationDegenerate("division by zero over Q")
        return Fraction(1, 1) / x

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


def _integer(x) -> int:
    """x as an int: an int, a numpy integer or a Fraction with denominator 1.
    Anything else, a float included, raises InvalidInput instead of being
    truncated."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return x.numerator
    else:
        try:
            return index(x)
        except TypeError:
            pass
    raise InvalidInput(f"{x!r} is not an integer")


class ResidueRing:
    """Z/m with m = p^j, values reduced into range(m); units are residues
    coprime to p.  Rings compare equal by their modulus; ``residue_ring``
    hands out one shared object per (p, j)."""

    def __init__(self, p: int, j: int):
        p, j = _integer(p), _integer(j)
        if p < 2:
            raise InvalidInput("p must be >= 2")
        if j < 1:
            raise InvalidInput("exponent j must be >= 1")
        self.p = p
        self.j = j
        self.modulus = p**j
        # x % p^j with no Python frame per coefficient.  Every value that
        # reaches it is an int (``coerce`` turns Fractions into residues
        # itself); a Fraction would get NotImplemented back, not a residue.
        self.reduce = self.modulus.__rmod__

    def coerce(self, x):
        """An integer, or a Fraction whose denominator is prime to p, as a
        residue; anything else raises InvalidInput."""
        if isinstance(x, Fraction):
            d = x.denominator
            if d == 1:
                return x.numerator % self.modulus
            if gcd(d, self.p) != 1:
                raise NotPIntegral(f"denominator {d} not coprime to {self.p}")
            return x.numerator * pow(d, -1, self.modulus) % self.modulus
        return _integer(x) % self.modulus

    def inv(self, x):
        if gcd(int(x), self.p) != 1:
            raise RepresentationDegenerate(
                f"{x} is not a unit modulo {self.p}^{self.j}"
            )
        return pow(int(x), -1, self.modulus)

    def __eq__(self, other):
        return isinstance(other, ResidueRing) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("Zmod", self.modulus))

    def __repr__(self):
        return f"Z/{self.p}^{self.j}"


QQ = RationalField()


@cache
def residue_ring(p: int, j: int) -> ResidueRing:
    """The one ResidueRing object for Z/p^j, so that every divisor at a
    level shares its ring and ring checks are identity tests."""
    return ResidueRing(p, j)


# ---------------------------------------------------------------------------
# Dense polynomial helpers (tuples, low degree first) over a ring.  Results
# are in normal form: every coefficient passed through R.reduce, and no
# trailing zero.
# ---------------------------------------------------------------------------

def ptrim(R, a):
    a = list(map(R.reduce, a))
    while a and not a[-1]:
        a.pop()
    return tuple(a)


def pneg(R, a):
    return ptrim(R, [-x for x in a])


def psub(R, a, b):
    return ptrim(R, [x - y for x, y in zip_longest(a, b, fillvalue=0)])


def pmul(R, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ptrim(R, out)


def pdivmod(R, a, b):
    """Euclidean division; requires the leading coefficient of b to be a unit.
    A monic b takes no inverse."""
    if not b:
        raise RepresentationDegenerate("polynomial division by zero")
    inv_lc = None if b[-1] == 1 else R.inv(b[-1])
    a, q = list(a), []
    while len(a) >= len(b):
        c = a.pop()
        c = R.reduce(c if inv_lc is None else c * inv_lc)
        d = len(a) + 1 - len(b)
        for i in range(len(b) - 1):
            a[d + i] = R.reduce(a[d + i] - c * b[i])
        q.append(c)
    return ptrim(R, q[::-1]), ptrim(R, a)


def pmod(R, a, b):
    return pdivmod(R, a, b)[1]


def peval(R, a, x):
    """a(x) in R; Horner in exact ints or Fractions, reduced once at the end
    (reduction is a ring homomorphism)."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return R.reduce(acc)


def _resultant(a, b):
    """Resultant over Q by the Euclidean recurrence."""
    a, b = ptrim(QQ, a), ptrim(QQ, b)
    if not b:
        return Fraction(0)
    if len(b) == 1:
        return b[0] ** (len(a) - 1)
    r = pmod(QQ, a, b)
    if not r:
        return Fraction(0)
    da, db, dr = len(a) - 1, len(b) - 1, len(r) - 1
    return (-1) ** (da * db) * b[-1] ** (da - dr) * _resultant(b, r)


# ---------------------------------------------------------------------------
# Curve and divisors
# ---------------------------------------------------------------------------

class HyperellipticCurve:
    """z^2 = f(t) with f monic quintic over Z, squarefree."""

    def __init__(self, f_coeffs):
        f = tuple(map(_integer, f_coeffs))
        if len(f) != 6 or f[-1] != 1:
            raise InvalidInput("f must be monic of degree exactly 5")
        self.f = f
        fq = tuple(Fraction(c) for c in f)
        dfq = tuple(Fraction(i * f[i]) for i in range(1, 6))
        disc = _resultant(fq, dfq)
        if disc == 0:
            raise InvalidInput("f must be squarefree")
        self.disc_f = int(disc)
        self._f_in = {}
        self._orders = {}  # class -> its order, filled by order_of

    def f_in(self, R):
        """f's coefficients in R, coerced once per ring and keyed by its
        modulus (None for QQ), an int that hashes in C."""
        f = self._f_in.get(R.modulus)
        if f is None:
            f = self._f_in[R.modulus] = tuple(map(R.coerce, self.f))
        return f

    def __repr__(self):
        return f"HyperellipticCurve(f={self.f})"


class MumfordDivisor(NamedTuple):
    """Reduced Mumford pair (u, v): u monic, deg u <= 2, u | v^2 - f.

    A named tuple: immutable, compared and hashed on (u, v, ring), and
    cheap to build, since every sum, reduction and enumerated point builds
    one."""

    u: tuple
    v: tuple
    ring: object

    def is_zero(self):
        return len(self.u) == 1

    def key(self):
        return (self.u, self.v)

    def __repr__(self):
        return f"MumfordDivisor(u={self.u}, v={self.v}, ring={self.ring})"


def make_divisor(curve: HyperellipticCurve, u, v, ring=QQ) -> MumfordDivisor:
    """Validate and build a reduced Mumford divisor over the given ring."""
    R = ring
    u = ptrim(R, map(R.coerce, u))
    v = ptrim(R, map(R.coerce, v))
    if not u or len(u) - 1 > 2:
        raise InvalidInput("u must be nonzero of degree <= 2")
    if u[-1] != 1:
        raise InvalidInput("u must be monic")
    if len(v) >= max(len(u), 2):
        raise InvalidInput("v must have degree < max(deg u, 1)")
    if len(u) == 1 and v:
        raise InvalidInput("the zero class carries v = 0")
    rem = pmod(R, psub(R, pmul(R, v, v), curve.f_in(R)), u)
    if rem:
        raise InvalidInput("u does not divide v^2 - f")
    return MumfordDivisor(u, v, R)


def zero_divisor(ring=QQ) -> MumfordDivisor:
    return MumfordDivisor((ring.coerce(1),), (), ring)


# ---------------------------------------------------------------------------
# Group law: Cantor's composition and reduction in closed form
#
# Pairs are tuples of reduced coefficients, low degree first, with u monic;
# f[-1] is the ring's 1.  A composition is (u1 u2, v1 + u1 k) for one k mod
# u2, found in the residues mod u2 (one scalar for deg u2 = 1, a linear
# polynomial for deg u2 = 2), with one scalar inverse through R.inv.
# ---------------------------------------------------------------------------

def _residue(R, a, u):
    """a mod u for a monic u of degree 1 or 2: deg u reduced coefficients."""
    if len(u) == 2:
        return (peval(R, a, -u[0]),)
    u0, u1 = u[0], u[1]
    c0 = c1 = 0
    for x in reversed(a):  # (c1 t + c0) t + x, with t^2 = -u1 t - u0
        c0, c1 = x - u0 * c1, c0 - u1 * c1
    return R.reduce(c0), R.reduce(c1)


def _divide_mod(R, num, den, u):
    """num / den for residues mod a monic u of degree 1 or 2; None when
    res(u, den), the one scalar inverted, is not a unit."""
    red = R.reduce
    if len(u) == 2:
        res = den[0]
    else:
        b0, b1 = u[0], u[1]
        d0, d1 = den
        res = d0 * d0 - b1 * d0 * d1 + b0 * d1 * d1
    try:
        inv = R.inv(red(res))
    except RepresentationDegenerate:
        return None
    if len(u) == 2:
        return (red(num[0] * inv),)
    # 1 / (d1 t + d0) = (d0 - b1 d1 - d1 t) / res, times n1 t + n0 mod u
    i0, i1 = (d0 - b1 * d1) * inv, -d1 * inv
    n0, n1 = num
    h = n1 * i1
    return red(n0 * i0 - b0 * h), red(n0 * i1 + n1 * i0 - b1 * h)


def _quotient(f, u, v):
    """(f - v^2) / u, exact for u | v^2 - f with u monic, unreduced."""
    if len(u) == 3:  # t^3 + q2 t^2 + q1 t + q0, with deg v <= 1
        a0, a1 = u[0], u[1]
        x1 = v[1] if len(v) == 2 else 0
        q2 = f[4] - a1
        q1 = f[3] - a0 - a1 * q2
        return (f[2] - x1 * x1 - a0 * q2 - a1 * q1, q1, q2, f[5])
    c = f[5]  # u = t - s, and v^2, a constant, only moves the remainder
    q = [c]
    s = -u[0]
    for x in f[4:0:-1]:
        c = x + s * c
        q.append(c)
    return q[::-1]


def _glue(R, u1, v1, u2, k):
    """The composed pair (u1 u2, v1 + u1 k), written out for u1 and u2 monic
    of degree 1 or 2, deg v1 < deg u1 and k of deg u2 coefficients."""
    red = R.reduce
    one, a0, b0 = u1[-1], u1[0], u2[0]
    x0 = v1[0] if v1 else 0
    if len(u1) == 2:
        if len(u2) == 2:
            (k0,) = k
            return (red(a0 * b0), red(a0 + b0), one), (red(x0 + a0 * k0), k0)
        b1, (k0, k1) = u2[1], k
        return ((red(a0 * b0), red(a0 * b1 + b0), red(a0 + b1), one),
                (red(x0 + a0 * k0), red(a0 * k1 + k0), k1))
    a1 = u1[1]
    x1 = v1[1] if len(v1) == 2 else 0
    if len(u2) == 2:
        (k0,) = k
        return ((red(a0 * b0), red(a0 + a1 * b0), red(a1 + b0), one),
                (red(x0 + a0 * k0), red(x1 + a1 * k0), k0))
    b1, (k0, k1) = u2[1], k
    return ((red(a0 * b0), red(a0 * b1 + a1 * b0), red(a0 + a1 * b1 + b0), red(a1 + b1), one),
            (red(x0 + a0 * k0), red(x1 + a0 * k1 + a1 * k0), red(a1 * k1 + k0), k1))


def _remove_root(R, u, v, r):
    """The class (w, v mod w) with w = u / (t - r): a pair less its point at r."""
    one = u[-1]
    if len(u) == 2:
        return (one,), ()
    s = R.reduce(-u[1] - r)  # u = (t - r)(t - s)
    c = peval(R, v, s)
    return (R.reduce(-s), one), ((c,) if c else ())


def _compose(R, f, u1, v1, u2, v2):
    """A pair (u, v) of the sum, deg u <= 4, not yet reduced; the cases
    are those of ``add``.  The same-branch k gives u1 u2 | v^2 - f, and
    v = v2 mod u2 also where u1 and u2 share roots: u1 k (v1 + v2) is
    f - v1^2 = v2^2 - v1^2 mod u2, and v1 + v2 is invertible mod u2, so
    u1 k = v2 - v1 mod u2."""
    if len(u1) == 1:
        return u2, v2
    if len(u2) == 1:
        return u1, v1
    if u1 == u2 and v2 == pneg(R, v1):
        return (f[-1],), ()
    x, y = _residue(R, v1, u2), _residue(R, v2, u2)
    if u1 != u2:
        k = _divide_mod(R, [b - a for a, b in zip(x, y)], _residue(R, u1, u2), u2)
        if k is not None:
            return _glue(R, u1, v1, u2, k)
    k = _divide_mod(R, _residue(R, _quotient(f, u1, v1), u2), [a + b for a, b in zip(x, y)], u2)
    if k is not None:
        return _glue(R, u1, v1, u2, k)
    vsum = tuple(a + b for a, b in zip_longest(v1, v2, fillvalue=0))
    if u1 != u2:
        k = _divide_mod(R, _residue(R, _quotient(f, u2, v2), u1), _residue(R, vsum, u1), u1)
        if k is not None:
            return _glue(R, u2, v2, u1, k)
    # r: the root of v1 + v2 for u1 == u2, else a common root of u1 and u2
    line = vsum if u1 == u2 else u1 if len(u1) == 2 else u2 if len(u2) == 2 else (
        u1[0] - u2[0], u1[1] - u2[1])
    line = (line + (0, 0))[:2]
    r = R.reduce(-line[0] * R.inv(R.reduce(line[1])))
    if peval(R, u1, r) or peval(R, u2, r) or peval(R, vsum, r):
        raise RepresentationDegenerate("the operands share no opposite points in the ring")
    return _compose(R, f, *_remove_root(R, u1, v1, r), *_remove_root(R, u2, v2, r))


def _reduce_step(R, f, u, v):
    """One Cantor reduction of a pair with deg u = 3 or 4: u' = (f - v^2)/u
    made monic and v' = -v mod u', in closed form.  deg u' <= 2."""
    red = R.reduce
    one = u[-1]
    if len(u) == 4:  # (f - v^2)/u = t^2 + q1 t + q0
        v0, v1, v2 = (v + (0, 0, 0))[:3]
        q1 = red(f[4] - v2 * v2 - u[2])
        q0 = red(f[3] - 2 * v1 * v2 - u[1] - u[2] * q1)
        return (q0, q1, one), ptrim(R, (v2 * q0 - v0, v2 * q1 - v1))
    v0, v1, v2, v3 = (v + (0, 0, 0, 0))[:4]
    if not v3:  # (f - v^2)/u = t + q0 = t - s
        s = red(u[3] + v2 * v2 - f[4])
        return (red(-s), one), ptrim(R, (-peval(R, v, s),))
    # (f - v^2)/u = q2 t^2 + q1 t + q0 with q2 = -v3^2, a unit unless v3 is
    # a nonzero non-unit: then the reduced u has no unit leading coefficient
    q2 = red(-v3 * v3)
    q1 = red(1 - 2 * v2 * v3 - u[3] * q2)
    q0 = red(f[4] - v2 * v2 - 2 * v1 * v3 - u[3] * q1 - u[2] * q2)
    inv = R.inv(q2)
    w0, w1 = red(q0 * inv), red(q1 * inv)
    # v mod u', from t^2 = -w1 t - w0 and t^3 = (w1^2 - w0) t + w1 w0
    return (w0, w1, one), ptrim(R, (v2 * w0 - v0 - v3 * w1 * w0, v2 * w1 - v1 - v3 * (w1 * w1 - w0)))


def add(curve: HyperellipticCurve, D1: MumfordDivisor, D2: MumfordDivisor) -> MumfordDivisor:
    """D1 + D2 by Cantor's composition and one reduction step, in closed form.

    A zero operand returns the other one unchanged, and u1 == u2 with
    v1 + v2 = 0 mod u1 gives the zero class.  Otherwise the composition is
    (u1 u2, v1 + u1 k) for one k mod u2, read off in the residues mod u2:

    - coprime: res(u1, u2) is a unit, and k = (v2 - v1) / u1 mod u2 (CRT);
    - same branch: res(u2, v1 + v2) is a unit, for one order of the
      operands, and k = ((f - v1^2) / u1) / (v1 + v2) mod u2.  This is a
      doubling's Hensel step (k = ((f - v^2) / u) / 2v), and it composes
      operands whose points agree at a shared or double root;
    - opposite at a shared root r: the point (t - r, v1(r)) and its
      opposite, a Weierstrass point (v(r) = 0) being its own, are split off
      and cancel, and the rest, of degree <= 1 on each side, composes.

    One closed-form reduction step then takes deg u from 3 or 4 to <= 2.
    Every scalar inverse goes through ``R.inv``.  Over Z/p^j a resultant
    that is not a unit with no shared root in the ring, or a non-unit
    pivot, raises RepresentationDegenerate.
    """
    R = D1.ring
    if R is not D2.ring and R != D2.ring:
        raise InvalidInput("divisors live over different rings")
    if D1.is_zero():
        return D2
    if D2.is_zero():
        return D1
    f = curve.f_in(R)
    u, v = _compose(R, f, D1.u, D1.v, D2.u, D2.v)
    if len(u) > 3:
        u, v = _reduce_step(R, f, u, v)
    else:
        v = ptrim(R, v)
    return MumfordDivisor(u, v, R)


def neg(curve: HyperellipticCurve, D: MumfordDivisor) -> MumfordDivisor:
    """Hyperelliptic involution: (u, -v); deg v < deg u, so -v is reduced."""
    return MumfordDivisor(D.u, pneg(D.ring, D.v), D.ring)


def scalar_mul(curve: HyperellipticCurve, n: int, D: MumfordDivisor) -> MumfordDivisor:
    """n*D by double-and-add; negative n via the involution."""
    if n < 0:
        return scalar_mul(curve, -n, neg(curve, D))
    acc = zero_divisor(D.ring)
    base = D
    while n:
        if n & 1:
            acc = add(curve, acc, base)
        n >>= 1
        if n:
            base = add(curve, base, base)
    return acc


def order_of(curve: HyperellipticCurve, D: MumfordDivisor, search_bound: int = 1000):
    """Smallest n >= 1 with n*D = 0 and n <= search_bound, or the string
    'exceeds-bound'.

    A half walk: k*D for k = 1, 2, ..., ceil(search_bound/2), with the key of
    -j*D kept for every j <= k (j = 0 is the zero class).  The first k with
    k*D = -j*D for some j <= k gives n = k + j, with the smallest such j.  No
    smaller order can hide: an order n' shows at k' = ceil(n'/2), and before
    that 1 <= k + j <= 2k < n'.  That takes ceil(n/2) - 1 additions, not n - 1.

    The k + j found is a multiple of the order n' and at most
    2*ceil(n'/2) <= n' + 1, so it is n' even when it exceeds search_bound.
    The curve keeps it, keyed by the class with its ring, and answers every
    later call on that class from it at any bound, as the walk would.
    """
    if search_bound < 1:
        raise InvalidInput("search_bound must be >= 1")
    n = curve._orders.get(D)
    if n is None:
        negatives = {zero_divisor(D.ring).key(): 0}
        acc = D
        for k in range(1, (search_bound + 1) // 2 + 1):
            negatives.setdefault(neg(curve, acc).key(), k)
            j = negatives.get(acc.key())
            if j is not None:
                n = curve._orders[D] = k + j
                break
            acc = add(curve, acc, D)
        else:
            return "exceeds-bound"
    return n if n <= search_bound else "exceeds-bound"


# ---------------------------------------------------------------------------
# Reduction mod p^j and curve membership
# ---------------------------------------------------------------------------

def reduce_mod(curve: HyperellipticCurve, D: MumfordDivisor, p: int, j: int) -> MumfordDivisor:
    """Coefficient-wise reduction of a rational divisor into Z/p^j.  The
    homomorphism keeps u monic and u | v^2 - f, so the pair is not
    re-checked; a coefficient that is not p-integral raises NotPIntegral."""
    if D.ring != QQ:
        raise InvalidInput("reduce_mod expects a divisor over the rationals")
    if curve.disc_f % p == 0:
        raise UnsupportedPrime(f"{p} divides disc(f): bad reduction")
    R = residue_ring(p, j)
    # coerce returns residues, and a monic u has no trailing zero to trim
    return MumfordDivisor(tuple(map(R.coerce, D.u)), ptrim(R, map(R.coerce, D.v)), R)


class CurvePoints(Sequence):
    """The points of ``enumerate_curve_points_mod``: a read-only sequence
    that builds each MumfordDivisor as it is read and keeps none.  It holds
    the ring and, per point, u and v as exact tuples of ints, which the
    garbage collector stops tracking; points over one abscissa share u."""

    __slots__ = ("ring", "_u", "_v")

    def __init__(self, ring, u: tuple, v: tuple):
        self.ring, self._u, self._v = ring, u, v

    def __len__(self):
        return len(self._u)

    def __getitem__(self, i):
        i = index(i)  # a slice or a float raises TypeError
        return MumfordDivisor(self._u[i], self._v[i], self.ring)

    def __iter__(self):
        return map(_as_divisor, zip(self._u, self._v, repeat(self.ring)))


# MumfordDivisor from a (u, v, ring) tuple with no Python frame per point
_as_divisor = partial(tuple.__new__, MumfordDivisor)


def _horner_mod(f, a, mod):
    """f(a) mod p^j for a monic quintic f and an int64 array a of residues.
    Each step multiplies two residues below p^j <= _ENUM_BUDGET = 10^4, so
    every product stays below 10^8, far inside int64."""
    acc = (a + f[4]) % mod
    for c in f[3::-1]:
        acc = (acc * a + c) % mod
    return acc


def enumerate_curve_points_mod(curve: HyperellipticCurve, p: int, j: int) -> CurvePoints:
    """All embedded curve points over Z/p^j: zero, then every (t - a, b)
    with b^2 = f(a), in ascending a and then ascending b, as a CurvePoints
    sequence over ``residue_ring(p, j)``.

    A numpy sieve: a point mod p^j reduces to a point mod p, so f is
    evaluated, by one vectorised Horner, only at the a over a mod-p
    abscissa with points.  One stable argsort of b^2 mod p^j lists the
    residues b by their square and then in ascending order, and the roots
    of each f(a) are the run that ``searchsorted`` finds there."""
    mod = p**j
    if mod > _ENUM_BUDGET:
        raise BudgetExceeded(f"p^j = {mod} exceeds the enumeration budget")
    R = residue_ring(p, j)
    f = curve.f_in(R)
    residues = np.arange(mod, dtype=np.int64)
    squares = residues * residues % mod
    roots = np.argsort(squares, kind="stable")
    squares = squares[roots]
    low = residues[:p]
    base = np.isin(_horner_mod(f, low, p), low * low % p)
    a = residues[base[residues % p]]
    fa = _horner_mod(f, a, mod)
    lo = np.searchsorted(squares, fa, "left")
    count = np.searchsorted(squares, fa, "right") - lo
    # point k is root k - (points before its a) of its a's run from lo
    start = np.repeat(lo - np.cumsum(count) + count, count)
    b = roots[start + np.arange(len(start))]
    u = chain.from_iterable(map(repeat, zip((-a % mod).tolist(), repeat(1)), count.tolist()))
    v = list(zip(b.tolist()))  # (b,) per point, and () where b = 0
    for i in np.flatnonzero(b == 0).tolist():
        v[i] = ()
    return CurvePoints(R, ((1,), *u), ((), *v))


def on_curve_mod(curve: HyperellipticCurve, Dmod: MumfordDivisor, p: int, j: int) -> bool:
    """Is Dmod the image over Z/p^j of a point of the embedded curve?

    Zero and degree-1 pairs are decided directly.  At j = 1 and p > 2 a
    degree-2 u is off the curve unless it carries a double root a with
    v(a) = 0, in which case the conjugate pair is stripped and the class is
    the base point.  Every other degree-2 u is off the curve: the embedded
    points (``enumerate_curve_points_mod``) have degree at most 1.
    """
    R = Dmod.ring
    if Dmod.is_zero():
        return True
    if len(Dmod.u) == 2:
        a = R.reduce(-Dmod.u[0])
        b = Dmod.v[0] if Dmod.v else 0
        return R.reduce(b * b) == peval(R, curve.f_in(R), a)
    if j > 1 or p == 2:
        return False
    u0, u1 = Dmod.u[0], Dmod.u[1]
    if (u1 * u1 - 4 * u0) % p != 0:
        return False
    alpha = (-u1 * R.inv(2)) % p
    # conjugate pair of a Weierstrass point: the class is the base point
    return peval(R, Dmod.v, alpha) == 0


# ---------------------------------------------------------------------------
# p-adic valuation and distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PadicDistanceResult:
    """v_p and the distance d_p = p^(-v_p), kept as an exact pair (every
    admissible p is unramified, hypothesis (4))."""

    p: int
    v_p: int
    at_least: bool = False   # true when membership still holds at j_max
    infinite: bool = False   # the class is itself a point of the embedded curve

    def d_p_exponent(self):
        if self.infinite:
            return None  # d_p is formally 0
        return Fraction(-self.v_p)


def vp_distance(curve: HyperellipticCurve, D: MumfordDivisor, p: int, j_max: int) -> PadicDistanceResult:
    """Largest j <= j_max with D mod p^j on the embedded curve (v_p >= 0 by
    convention); 'infinite' when D is the class of a curve point over Q."""
    if D.ring != QQ:
        raise InvalidInput("vp_distance expects a divisor over the rationals")
    if j_max < 1:
        raise InvalidInput(f"j_max = {j_max} checks no level p^j; it must be >= 1")
    if len(D.u) - 1 <= 1:
        return PadicDistanceResult(p=p, v_p=0, infinite=True)
    v = 0
    for j in range(1, j_max + 1):
        if on_curve_mod(curve, reduce_mod(curve, D, p, j), p, j):
            v = j
        else:
            break
    return PadicDistanceResult(p=p, v_p=v, at_least=(v == j_max))


def jacobian_order_mod_p(curve: HyperellipticCurve, p: int) -> int:
    """#Jac(F_p) by brute enumeration of reduced Mumford pairs (p small)."""
    if p > 7:
        raise BudgetExceeded("brute-force Jacobian count restricted to p <= 7")
    R = residue_ring(p, 1)
    f = curve.f_in(R)
    count = len(enumerate_curve_points_mod(curve, p, 1))  # zero and deg u = 1
    for u0, u1, v0, v1 in product(range(p), repeat=4):
        v = ptrim(R, (v0, v1))
        if not pmod(R, psub(R, pmul(R, v, v), f), (u0, u1, 1)):
            count += 1
    return count


# ---------------------------------------------------------------------------
# End-to-end verification harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyRow:
    order: object
    v_p: int | None
    d_p: tuple | None            # (p, -v_p) as an exact pair
    bound_exponent_log10: object
    inequality_holds: bool | None
    rejected_reason: str | None = None


def verify_bound(curve: HyperellipticCurve, preset_data, torsion_list, p: int, j_max: int):
    """Check d_p(T, C) >= p^(-(1 + D*H_p)) on concrete off-curve torsion classes.

    v_p is compared with the exponent itself, an mpmath float far beyond float
    range; rows for torsion orders divisible by p are rejected (hypothesis (5)).
    """
    from .arakelov import constant_D
    from .bounds import BOUND_BITS, admissible_prime, h_bound, tate_voloch_exponent_main

    if not admissible_prime(p, preset_data):
        raise HypothesisViolated(f"p = {p} is not an admissible prime for this curve")
    D_const = constant_D(preset_data)
    H_p = h_bound(p, preset_data.g, preset_data.deg_K0)
    exponent = tate_voloch_exponent_main(D_const, H_p)
    with mp.workprec(BOUND_BITS):
        exp_log10 = mp.log10(exponent)
    rows = []
    for T in torsion_list:
        n = order_of(curve, T, search_bound=1000)
        if n == "exceeds-bound":
            rows.append(
                VerifyRow(n, None, None, exp_log10, None, "order exceeds search bound")
            )
            continue
        if n % p == 0:
            rows.append(
                VerifyRow(n, None, None, exp_log10, None, "order divisible by p (hypothesis (5))")
            )
            continue
        res = vp_distance(curve, T, p, j_max)
        if res.infinite:
            continue  # T lies on the curve; the bound does not apply
        holds = res.v_p <= exponent
        rows.append(
            VerifyRow(n, res.v_p, (p, res.d_p_exponent()), exp_log10, holds)
        )
    return rows
