"""Genus-2 hyperelliptic Jacobian arithmetic and p-adic distance to the curve.

Curves are odd-degree models z^2 = f(t) with f monic quintic and squarefree,
embedded in the Jacobian via the single point at infinity.  Divisor classes
are carried in Mumford form (u, v) with u monic of degree <= 2 and u | v^2 - f,
over the rationals or over a residue ring Z/p^j.  The group law is Cantor's
composition and reduction, written out in closed form on the coefficients:
no polynomial gcd and no polynomial division, and one pass per sum that
picks its case, k mod u2, and the reduced pair of (u1 u2, v1 + u1 k) with
no degree-4 intermediate.  A case whose resultant is not a unit falls
through to the next on a test, not on an exception; a sum that no case
composes over Z/p^j, or a reduction pivot that is not a unit, raises
RepresentationDegenerate rather than guessing a representative.

Each coefficient ring owns its normal form: ``R.reduce`` is the identity
over Q and ``x % p^j`` over Z/p^j.  The polynomial helpers pass every
coefficient they return through it, so a zero coefficient is falsy and no
helper branches on the ring.  A new ring needs ``coerce``, ``reduce`` and
``unit_inverse`` (1/x, or None where x is not a unit), through which
``add`` and ``pdivmod`` take every scalar inverse.

There is one ring object per (p, j): ``residue_ring`` is cached, and
``reduce_mod`` and ``enumerate_curve_points_mod`` build their divisors on
it, so ``add``'s ring check is an identity test and each curve keys its
coerced f by the ring's modulus.  Rings built directly as ResidueRing(p, j)
still compare equal.  A MumfordDivisor is a named tuple, immutable and
cheap to build.

``enumerate_curve_points_mod`` is a numpy sieve: f by a vectorised Horner
at the abscissae that lie over a mod-p abscissa with points, and the roots
of each value from one stable argsort of the squares mod p^j, located by a
``bincount`` of the squares and its cumulative sum.  It returns
a read-only sequence that builds each point's MumfordDivisor as it is read.
CPython never untracks a named tuple, so up to 10^4 kept pairs would reach
the cyclic garbage collector's oldest generation and set off its full
collections; the sequence keeps exact tuples of ints, which it untracks.

Curve membership mod p^j is one rule, deg u <= 1: the zero class and the
pairs (t - a, b) that ``enumerate_curve_points_mod`` lists, at every p and j.

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

    def unit_inverse(self, x):
        """1 / x, or None for x = 0."""
        return Fraction(1, 1) / x if x else None

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

    def unit_inverse(self, x):
        """The inverse of the residue x, or None when x is not a unit."""
        return pow(x, -1, self.modulus) if gcd(x, self.p) == 1 else None

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
    inv_lc = None
    if b[-1] != 1:
        inv_lc = R.unit_inverse(b[-1])
        if inv_lc is None:
            raise RepresentationDegenerate(
                f"the divisor's leading coefficient {b[-1]} is not a unit in {R}"
            )
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


# MumfordDivisor from a (u, v, ring) tuple, with no Python frame
_as_divisor = partial(tuple.__new__, MumfordDivisor)


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
# Group law: Cantor's composition and reduction in one pass
#
# Pairs are tuples of reduced coefficients, low degree first, with u monic;
# f[-1] is the ring's 1.  Below, u1 = t^2 + a1 t + a0 (or t + a0), v1 =
# x1 t + x0, u2 = t^2 + b1 t + b0 (or t + b0) and v2 = y1 t + y0.  The sum
# is the reduction of (u1 u2, v1 + u1 k) for one k mod u2: a scalar k0 read
# off at the root s = -b0 when deg u2 = 1, a linear k1 t + k0 mod u2 when
# deg u2 = 2.  k is a quotient n / d of residues mod u2, and each case first
# takes its d's resultant with u2 and asks ``R.unit_inverse`` for its
# inverse; None moves on to the next case before any n is computed.
# ---------------------------------------------------------------------------

def _glue_reduce(R, f, u1, v1, u2, k0, k1):
    """The reduced class of (u1 u2, v1 + u1 k) for k = k1 t + k0 (k1 unused
    when deg u2 = 1), with k0, k1 reduced.  A degree-3 or degree-4 product
    goes through one Cantor step, u' = (f - v^2) / (u1 u2) made monic and
    v' = -v mod u', written out on the coefficients, v = w3 t^3 + ... + w0."""
    red = R.reduce
    one = f[5]
    a0 = u1[0]
    x0 = v1[0] if v1 else 0
    if len(u1) == 2:
        if len(u2) == 2:  # (u1 u2, v1 + u1 k0) is already reduced
            b0 = u2[0]
            w0 = red(x0 + a0 * k0)
            return (red(a0 * b0), red(a0 + b0), one), ((w0, k0) if k0 else (w0,) if w0 else ())
        b0, b1 = u2[0], u2[1]
        w2, w1, w0 = k1, k0 + a0 * k1, x0 + a0 * k0
        c2, c1 = a0 + b1, a0 * b1 + b0  # u1 u2 = t^3 + c2 t^2 + c1 t + a0 b0
    else:
        a1 = u1[1]
        x1 = v1[1] if len(v1) == 2 else 0
        if len(u2) == 2:
            b0 = u2[0]
            w2, w1, w0 = k0, x1 + a1 * k0, x0 + a0 * k0
            c2, c1 = a1 + b0, a0 + a1 * b0
        else:
            b0, b1 = u2[0], u2[1]
            w1, w2 = red(x1 + a0 * k1 + a1 * k0), red(a1 * k1 + k0)
            c3 = a1 + b1  # u1 u2 = t^4 + c3 t^3 + (a0 + a1 b1 + b0) t^2 + ...
            if not k1:  # (f - v^2) / (u1 u2) = t - s
                s = red(c3 + w2 * w2 - f[4])
                w0 = red(x0 + a0 * k0 + (w1 + w2 * s) * s)
                return (red(-s), one), ((red(-w0),) if w0 else ())
            # (f - v^2) / (u1 u2) = q2 t^2 + q1 t + q0 with q2 = -k1^2, a
            # unit unless k1 is a nonzero non-unit: then u' has no unit
            # leading coefficient
            q2 = red(-k1 * k1)
            inv = R.unit_inverse(q2)
            if inv is None:
                raise RepresentationDegenerate(
                    f"the reduced u's leading coefficient {q2} is not a unit in {R}"
                )
            w0 = x0 + a0 * k0
            q1 = one - 2 * w2 * k1 - c3 * q2
            q0 = f[4] - w2 * w2 - 2 * w1 * k1 - c3 * q1 - (a0 + a1 * b1 + b0) * q2
            e0, e1 = red(q0 * inv), red(q1 * inv)
            # u' = t^2 + e1 t + e0, and v' = -v mod u' from t^2 = -e1 t - e0
            # and t^3 = (e1^2 - e0) t + e1 e0
            r0 = red(w2 * e0 - w0 - k1 * e1 * e0)
            r1 = red(w2 * e1 - w1 - k1 * (e1 * e1 - e0))
            return (e0, e1, one), ((r0, r1) if r1 else (r0,) if r0 else ())
    # deg u1 u2 = 3: (f - v^2) / (u1 u2) = t^2 + q1 t + q0
    q1 = red(f[4] - w2 * w2 - c2)
    q0 = red(f[3] - 2 * w1 * w2 - c1 - c2 * q1)
    r0, r1 = red(w2 * q0 - w0), red(w2 * q1 - w1)
    return (q0, q1, one), ((r0, r1) if r1 else (r0,) if r0 else ())


def _divide(R, n0, n1, d0, d1, inv, u2):
    """(n1 t + n0) / (d1 t + d0) mod a monic quadratic u2 = t^2 + b1 t + b0,
    reduced, given inv = 1 / res(u2, d), from 1 / d = (d0 - b1 d1 - d1 t) inv."""
    red = R.reduce
    b0, b1 = u2[0], u2[1]
    i0, i1 = (d0 - b1 * d1) * inv, -d1 * inv
    h = n1 * i1
    return red(n0 * i0 - b0 * h), red(n0 * i1 + n1 * i0 - b1 * h)


def _same_branch(R, f, u1, v1, u2, v2):
    """The reduced sum by k = ((f - v1^2) / u1) / (v1 + v2) mod u2, or None
    when res(u2, v1 + v2) is not a unit.  The quotient (f - v1^2) / u1 is
    read off mod u2 on the coefficients: t^4 + c3 t^3 + ... + c0, f divided
    at t = -a0, for deg u1 = 1, and t^3 + q2 t^2 + q1 t + q0 for deg u1 = 2."""
    red = R.reduce
    a0 = u1[0]
    x0 = v1[0] if v1 else 0
    x1 = v1[1] if len(v1) == 2 else 0
    y0 = v2[0] if v2 else 0
    if len(u2) == 2:  # the values at the root s of u2
        s = -u2[0]
        inv = R.unit_inverse(red(x0 + x1 * s + y0))
        if inv is None:
            return None
        if len(u1) == 2:
            c3 = f[4] - a0
            c2 = f[3] - a0 * c3
            c1 = red(f[2] - a0 * c2)
            n = (((s + c3) * s + c2) * s + c1) * s + f[1] - a0 * c1
        else:
            a1 = u1[1]
            q2 = f[4] - a1
            q1 = f[3] - a0 - a1 * q2
            n = ((s + q2) * s + q1) * s + f[2] - x1 * x1 - a0 * q2 - a1 * q1
        return _glue_reduce(R, f, u1, v1, u2, red(n * inv), 0)
    b0, b1 = u2[0], u2[1]
    d0, d1 = red(x0 + y0), red(x1 + (v2[1] if len(v2) == 2 else 0))
    inv = R.unit_inverse(red(d0 * d0 - b1 * d0 * d1 + b0 * d1 * d1))
    if inv is None:
        return None
    if len(u1) == 2:  # Horner mod u2, from t^2 + c3 t + c2 = (c3 - b1) t + c2 - b0
        c3 = f[4] - a0
        c2 = f[3] - a0 * c3
        c1 = red(f[2] - a0 * c2)
        h1, h0 = c3 - b1, c2 - b0
        h1, h0 = h0 - b1 * h1, c1 - b0 * h1
        n1, n0 = h0 - b1 * h1, f[1] - a0 * c1 - b0 * h1
    else:  # t^3 = (b1^2 - b0) t + b1 b0 mod u2
        a1 = u1[1]
        q2 = f[4] - a1
        q1 = f[3] - a0 - a1 * q2
        e = b1 - q2
        n1, n0 = q1 - b0 + b1 * e, f[2] - x1 * x1 - a0 * q2 - a1 * q1 + b0 * e
    k0, k1 = _divide(R, n0, n1, d0, d1, inv, u2)
    return _glue_reduce(R, f, u1, v1, u2, k0, k1)


def _sum(R, f, u1, v1, u2, v2):
    """(u, v) of the reduced sum of two nonzero classes; the cases are those
    of ``add``, taken by testing a resultant for a unit."""
    red = R.reduce
    a0 = u1[0]
    x0 = v1[0] if v1 else 0
    x1 = v1[1] if len(v1) == 2 else 0
    y0 = v2[0] if v2 else 0
    y1 = v2[1] if len(v2) == 2 else 0
    if u1 == u2:
        if not red(x0 + y0) and not red(x1 + y1):  # opposite classes
            return (f[5],), ()
        pair = _same_branch(R, f, u1, v1, u2, v2)
        if pair is not None:
            return pair
    elif len(u2) == 2:  # CRT: k0 = (v2 - v1) / u1 at the root s of u2
        s = -u2[0]
        inv = R.unit_inverse(red(a0 + s if len(u1) == 2 else a0 + (u1[1] + s) * s))
        if inv is not None:
            return _glue_reduce(R, f, u1, v1, u2, red((y0 - x0 - x1 * s) * inv), 0)
    else:  # CRT: k = (v2 - v1) / (u1 mod u2) mod u2
        b0, b1 = u2[0], u2[1]
        d0, d1 = (a0, f[5]) if len(u1) == 2 else (a0 - b0, u1[1] - b1)
        inv = R.unit_inverse(red(d0 * d0 - b1 * d0 * d1 + b0 * d1 * d1))
        if inv is not None:
            k0, k1 = _divide(R, y0 - x0, y1 - x1, d0, d1, inv, u2)
            return _glue_reduce(R, f, u1, v1, u2, k0, k1)
    # a root r that u1, u2 and v1 + v2 share: on the line v1 + v2 for u1 =
    # u2, else on u1, u2 or u1 - u2, whichever has degree 1
    if u1 == u2 or len(u1) == len(u2) == 3:
        l0, l1 = (x0 + y0, x1 + y1) if u1 == u2 else (a0 - u2[0], u1[1] - u2[1])
        inv = R.unit_inverse(red(l1))
        r = None if inv is None else red(-l0 * inv)
    else:
        r = red(-a0 if len(u1) == 2 else -u2[0])
    if r is not None and not (
        red(a0 + r if len(u1) == 2 else a0 + (u1[1] + r) * r)
        or red(u2[0] + r if len(u2) == 2 else u2[0] + (u2[1] + r) * r)
        or red(x0 + y0 + (x1 + y1) * r)
    ):
        # split off the point at r and its opposite: a quadratic u = (t - r)
        # (t - s) keeps the pair (t - s, v(s)), a linear u the zero class
        rest = []
        for u, c0, c1 in ((u1, x0, x1), (u2, y0, y1)):
            if len(u) == 3:
                s = red(-u[1] - r)
                c = red(c0 + c1 * s)
                rest += (red(-s), f[5]), ((c,) if c else ())
        return rest if len(rest) == 2 else _sum(R, f, *rest)
    if u1 != u2:
        pair = _same_branch(R, f, u1, v1, u2, v2) or _same_branch(R, f, u2, v2, u1, v1)
        if pair is not None:
            return pair
    raise RepresentationDegenerate(f"no case of the composition applies over {R}")


def add(curve: HyperellipticCurve, D1: MumfordDivisor, D2: MumfordDivisor) -> MumfordDivisor:
    """D1 + D2 by Cantor's composition and reduction, in one pass on the
    coefficients.

    A zero operand returns the other one unchanged, and u1 == u2 with
    v1 + v2 = 0 mod u1 gives the zero class.  Otherwise the composition is
    (u1 u2, v1 + u1 k) for one k mod u2, read off in the residues mod u2:

    - coprime: res(u1, u2) is a unit, and k = (v2 - v1) / u1 mod u2 (CRT);
    - opposite at a shared root r: u1, u2 and v1 + v2 vanish at a root r in
      the ring, found on whichever of v1 + v2 (for u1 == u2), u1, u2 or
      u1 - u2 has degree 1.  The point (t - r, v1(r)) and its opposite, a
      Weierstrass point (v(r) = 0) being its own, are split off and
      cancel, and the rest, of degree <= 1 on each side, composes;
    - same branch: res(u2, v1 + v2) is a unit, for one order of the
      operands, and k = ((f - v1^2) / u1) / (v1 + v2) mod u2.  This is a
      doubling's Hensel step (k = ((f - v^2) / u) / 2v), and it composes
      operands whose points agree at a shared or double root.

    The cases are tried in this order, except that u1 == u2, a doubling
    among them, tries the same branch before the shared root.  Each case
    tests its resultant for a unit, through ``R.unit_inverse``, before it
    computes its numerator, and falls through to the next on None: no
    exception is raised or caught.  ``_glue_reduce`` then writes out
    (u1 u2, v1 + u1 k) and its one reduction step, from deg u1 u2 = 3 or 4
    to <= 2, on the coefficients, without building the product.  Over
    Z/p^j a sum that no case composes, or a reduction whose leading
    coefficient is not a unit, raises RepresentationDegenerate.
    """
    R = D1.ring
    if R is not D2.ring and R != D2.ring:
        raise InvalidInput("divisors live over different rings")
    u1, u2 = D1.u, D2.u
    if len(u1) == 1:
        return D2
    if len(u2) == 1:
        return D1
    return _as_divisor((*_sum(R, curve.f_in(R), u1, D1.v, u2, D2.v), R))


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
    re-checked; a coefficient that is not p-integral raises NotPIntegral.

    One pass over the coefficients: each Fraction is read once, by
    ``as_integer_ratio``, and anything else goes through ``R.coerce``; v is
    trimmed only where its leading residue is 0."""
    if D.ring is not QQ and D.ring != QQ:
        raise InvalidInput("reduce_mod expects a divisor over the rationals")
    if curve.disc_f % p == 0:
        raise UnsupportedPrime(f"{p} divides disc(f): bad reduction")
    R = residue_ring(p, j)
    m = R.modulus
    out = []
    for c in D.u + D.v:
        if type(c) is Fraction:
            n, d = c.as_integer_ratio()
            if d != 1:
                if gcd(d, p) != 1:
                    raise NotPIntegral(f"denominator {d} not coprime to {p}")
                n *= pow(d, -1, m)
            out.append(n % m)
        else:
            out.append(R.coerce(c))
    k = len(D.u)  # a monic u has no trailing zero to trim
    while len(out) > k and not out[-1]:
        out.pop()
    return _as_divisor((tuple(out[:k]), tuple(out[k:]), R))


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
    of each f(a) are a run there, whose length and start are read off a
    ``bincount`` of the squares and its cumulative sum at f(a)."""
    mod = p**j
    if mod > _ENUM_BUDGET:
        raise BudgetExceeded(f"p^j = {mod} exceeds the enumeration budget")
    R = residue_ring(p, j)
    f = curve.f_in(R)
    residues = np.arange(mod, dtype=np.int64)
    squares = residues * residues % mod
    # p^j <= _ENUM_BUDGET < 2^16: a stable argsort on 16-bit keys is a radix sort
    roots = np.argsort(squares.astype(np.uint16), kind="stable")
    # the roots of c are the run of tally[c] entries of roots from first[c]
    tally = np.bincount(squares, minlength=mod)
    first = np.cumsum(tally) - tally
    low = residues[:p]
    base = np.isin(_horner_mod(f, low, p), low * low % p)
    a = residues[base[residues % p]]
    fa = _horner_mod(f, a, mod)
    count = tally[fa]
    # point k is root k - (points before its a) of its a's run
    start = np.repeat(first[fa] - np.cumsum(count) + count, count)
    b = roots[start + np.arange(len(start))]
    u = chain.from_iterable(map(repeat, zip((-a % mod).tolist(), repeat(1)), count.tolist()))
    v = list(zip(b.tolist()))  # (b,) per point, and () where b = 0
    for i in np.flatnonzero(b == 0).tolist():
        v[i] = ()
    return CurvePoints(R, ((1,), *u), ((), *v))


def on_curve_mod(curve: HyperellipticCurve, Dmod: MumfordDivisor, p: int, j: int) -> bool:
    """Is the pair Dmod over Z/p^j the image of a point of the embedded
    curve?  Exactly when deg u <= 1, at every p and j: the embedded points
    are zero and the [(a, b) - inf], the pairs (t - a, b) that
    ``enumerate_curve_points_mod`` lists.  A degree-1 pair needs no check
    of b^2 = f(a), since u | v^2 - f is that equation, so the answer reads
    deg u alone; curve, p and j stay in the signature for its callers."""
    return len(Dmod.u) <= 2


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
    convention); 'infinite' when D is the class of a curve point over Q.

    The loop over j is v_p's definition.  ``reduce_mod`` keeps deg u, so a
    degree-2 class stops at j = 1 with v_p = 0 and the check is vacuous in
    this model; a test that can hold beyond j = 1, such as u(0) = v(0) = 0
    with a finite Weierstrass base point, reuses the loop as it stands."""
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
