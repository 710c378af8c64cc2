"""Genus-2 hyperelliptic Jacobian arithmetic and p-adic distance to the curve.

Curves are odd-degree models z^2 = f(t) with f monic quintic and squarefree,
embedded in the Jacobian via the single point at infinity.  Divisor classes
are carried in Mumford form (u, v) with u monic of degree <= 2 and u | v^2 - f,
over the rationals or over a residue ring Z/p^j.  The group law is Cantor
composition-and-reduction; divisions by non-units over Z/p^j raise
RepresentationDegenerate rather than guessing a representative.

Each coefficient ring owns its normal form: ``R.reduce`` is the identity
over Q and ``x % p^j`` over Z/p^j.  The polynomial helpers pass every
coefficient they return through it, so a zero coefficient is falsy and no
helper branches on the ring; a new ring needs ``coerce``, ``reduce`` and
``inv``.

``add`` returns a zero operand's partner as it is, and composes coprime u1,
u2 by the Chinese remainder theorem alone (u = u1*u2, no second gcd and no
division by d); doublings and shared factors take Cantor's general branch.
When u1 == u2 (every doubling, and every D + iota D) it reads the first gcd
off its operands, (d1, e1, e2) = (u1, 0, 1), instead of running ``pxgcd``;
``pdivmod`` takes no inverse of a monic divisor's leading coefficient.
``order_of`` walks k*D only up to half the order and meets a stored -j*D.
The order of a class depends on the curve alone, not on any prime, so each
curve keeps the orders it has found and walks a class at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product, zip_longest
from math import gcd

import mpmath as mp

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
        return Fraction(x)

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


class ResidueRing:
    """Z/m with m = p^j, values reduced into range(m); units are residues
    coprime to p."""

    def __init__(self, p: int, j: int):
        if j < 1:
            raise InvalidInput("exponent j must be >= 1")
        self.p = p
        self.j = j
        self.modulus = p**j
        # x % p^j with no Python frame per coefficient.  Every value that
        # reaches it is an int (``coerce`` converts Fractions first); a
        # Fraction would get NotImplemented back, not a residue.
        self.reduce = self.modulus.__rmod__

    def coerce(self, x):
        if isinstance(x, Fraction):
            if gcd(x.denominator, self.p) != 1:
                raise NotPIntegral(
                    f"denominator {x.denominator} not coprime to {self.p}"
                )
            return self.reduce(x.numerator * pow(x.denominator, -1, self.modulus))
        return self.reduce(int(x))

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


def padd(R, a, b):
    return ptrim(R, [x + y for x, y in zip_longest(a, b, fillvalue=0)])


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


def pscale(R, c, a):
    return ptrim(R, [c * x for x in a])


def pdivmod(R, a, b):
    """Euclidean division; requires the leading coefficient of b to be a unit.
    A monic b, as every divisor of ``add`` outside ``pxgcd`` is, takes no
    inverse."""
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


def pxgcd(R, a, b):
    """Monic extended gcd: returns (d, s, t) with s*a + t*b = d."""
    r0, r1 = ptrim(R, a), ptrim(R, b)
    s0, s1 = (R.coerce(1),), ()
    t0, t1 = (), (R.coerce(1),)
    while r1:
        q, r = pdivmod(R, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, psub(R, s0, pmul(R, q, s1))
        t0, t1 = t1, psub(R, t0, pmul(R, q, t1))
    if r0:
        inv = R.inv(r0[-1])
        r0, s0, t0 = pscale(R, inv, r0), pscale(R, inv, s0), pscale(R, inv, t0)
    return r0, s0, t0


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
        f = tuple(int(c) for c in f_coeffs)
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
        """f's coefficients in R, coerced once per ring."""
        f = self._f_in.get(R)
        if f is None:
            f = self._f_in[R] = tuple(R.coerce(c) for c in self.f)
        return f

    def __repr__(self):
        return f"HyperellipticCurve(f={self.f})"


@dataclass(frozen=True)
class MumfordDivisor:
    """Reduced Mumford pair (u, v): u monic, deg u <= 2, u | v^2 - f."""

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
    return MumfordDivisor(u=u, v=v, ring=R)


def zero_divisor(ring=QQ) -> MumfordDivisor:
    return MumfordDivisor(u=(ring.coerce(1),), v=(), ring=ring)


# ---------------------------------------------------------------------------
# Group law (Cantor)
# ---------------------------------------------------------------------------

def add(curve: HyperellipticCurve, D1: MumfordDivisor, D2: MumfordDivisor) -> MumfordDivisor:
    """Cantor composition followed by reduction to deg u <= 2.

    Operands are reduced Mumford pairs, so a zero operand returns the other
    one unchanged.  When u1 and u2 are coprime (e1*u1 + e2*u2 = 1) the
    composition is u = u1*u2, v = v2 + e2*u2*(v1 - v2) mod u, which is
    v1 mod u1 and v2 mod u2.  Otherwise (a doubling or a shared factor)
    Cantor's general branch takes d = gcd(u1, u2, v1 + v2) and divides by
    it; over Z/p^j a division by a non-unit raises RepresentationDegenerate.
    For u1 == u2 the first gcd is read off: (u1, 0, 1) is what ``pxgcd``
    returns for a monic u1 and itself.
    """
    if D1.ring != D2.ring:
        raise InvalidInput("divisors live over different rings")
    if D1.is_zero():
        return D2
    if D2.is_zero():
        return D1
    R = D1.ring
    f = curve.f_in(R)
    u1, v1 = D1.u, D1.v
    u2, v2 = D2.u, D2.v
    if u1 == u2:
        d1, e1, e2 = u1, (), (R.coerce(1),)
    else:
        d1, e1, e2 = pxgcd(R, u1, u2)
    if len(d1) == 1:  # gcd(u1, u2) = 1
        u = pmul(R, u1, u2)
        v = pmod(R, padd(R, v2, pmul(R, pmul(R, e2, u2), psub(R, v1, v2))), u)
    else:
        d, c1, c2 = pxgcd(R, d1, padd(R, v1, v2))
        s1 = pmul(R, c1, e1)
        s2 = pmul(R, c1, e2)
        s3 = c2
        u = pmul(R, u1, u2)
        num = padd(
            R,
            padd(R, pmul(R, pmul(R, s1, u1), v2), pmul(R, pmul(R, s2, u2), v1)),
            pmul(R, s3, padd(R, pmul(R, v1, v2), f)),
        )
        if len(d) > 1:  # d = 1, as in most doublings, divides nothing
            u, rem = pdivmod(R, u, pmul(R, d, d))
            if rem:
                raise RepresentationDegenerate("composition denominator does not divide")
            num, rem = pdivmod(R, num, d)
            if rem:
                raise RepresentationDegenerate("composition numerator does not divide")
        v = pmod(R, num, u)
    # reduction to genus-2 size; u1 u2 / d^2 is monic, and so is each u_new
    while len(u) - 1 > 2:
        u_new = pdivmod(R, psub(R, f, pmul(R, v, v)), u)[0]
        u_new = pscale(R, R.inv(u_new[-1]), u_new)
        v = pmod(R, pneg(R, v), u_new)
        u = u_new
    return MumfordDivisor(u=u, v=v, ring=R)


def neg(curve: HyperellipticCurve, D: MumfordDivisor) -> MumfordDivisor:
    """Hyperelliptic involution: (u, -v); deg v < deg u, so -v is reduced."""
    return MumfordDivisor(u=D.u, v=pneg(D.ring, D.v), ring=D.ring)


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
    R = ResidueRing(p, j)
    return MumfordDivisor(u=ptrim(R, map(R.coerce, D.u)), v=ptrim(R, map(R.coerce, D.v)), ring=R)


def enumerate_curve_points_mod(curve: HyperellipticCurve, p: int, j: int):
    """All embedded curve points over Z/p^j: zero plus every (t - a, b) with
    b^2 = f(a).  Solutions found by a full square table over the ring."""
    mod = p**j
    if mod > _ENUM_BUDGET:
        raise BudgetExceeded(f"p^j = {mod} exceeds the enumeration budget")
    R = ResidueRing(p, j)
    squares: dict[int, list] = {}
    for b in range(mod):
        squares.setdefault(b * b % mod, []).append(b)
    out = [zero_divisor(R)]
    f = curve.f_in(R)
    for a in range(mod):
        c = peval(R, f, a)
        for b in squares.get(c, ()):
            out.append(MumfordDivisor(u=((-a) % mod, 1), v=(b,) if b else (), ring=R))
    return out


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
    R = ResidueRing(p, 1)
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
