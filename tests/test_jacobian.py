import gc
import random
import sys
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import thetadist as td
from thetadist.jacobian import (
    QQ,
    ResidueRing,
    pdivmod,
    pmod,
    pmul,
    pneg,
    psub,
    ptrim,
    residue_ring,
)


def peval(R, a, x):
    """a(x) in R; Horner in exact ints or Fractions, reduced once at the end
    (reduction is a ring homomorphism)."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return R.reduce(acc)


def D1(curve):
    return td.make_divisor(curve, (0, 1), (1,))


def W(curve):
    return td.make_divisor(curve, (1, 1), ())


def fresh(curve):
    """The same curve with an empty order memo, so order_of walks."""
    return td.HyperellipticCurve(curve.f)


def all_divisors_mod(curve, p):
    """Every valid reduced Mumford pair over F_p, by exhaustion."""
    R = ResidueRing(p, 1)
    f = curve.f_in(R)
    out = [td.zero_divisor(R)]
    for u0 in range(p):
        for v0 in range(p):
            u = ((-u0) % p, 1)
            if not pmod(R, psub(R, pmul(R, (v0,), (v0,)), f), u):
                out.append(td.MumfordDivisor(u=u, v=(v0,) if v0 else (), ring=R))
    for u0 in range(p):
        for u1 in range(p):
            u = (u0, u1, 1)
            for v0 in range(p):
                for v1 in range(p):
                    v = ptrim(R, (v0, v1))
                    if not pmod(R, psub(R, pmul(R, v, v), f), u):
                        out.append(td.MumfordDivisor(u=u, v=v, ring=R))
    return out


class TestCurveConstruction:
    def test_disc_of_preset_curve(self, curve):
        assert curve.disc_f == 5**5

    def test_rejects_non_monic_or_wrong_degree(self):
        with pytest.raises(td.InvalidInput):
            td.HyperellipticCurve((1, 0, 0, 0, 0, 2))
        with pytest.raises(td.InvalidInput):
            td.HyperellipticCurve((1, 0, 0, 0, 1))

    def test_rejects_non_integer_coefficients(self):
        """A float is refused, not truncated (0.9 used to become 0)."""
        for bad in (0.9, 2.0, "1", Fraction(1, 2)):
            with pytest.raises(td.InvalidInput):
                td.HyperellipticCurve([1, 0, 0, 0, bad, 1])

    def test_accepts_integral_types(self):
        C = td.HyperellipticCurve([Fraction(1), np.int64(0), 0, 0, 0, np.uint8(1)])
        assert C.f == (1, 0, 0, 0, 0, 1)
        assert all(type(c) is int for c in C.f)

    def test_rejects_non_squarefree(self):
        # f = t^3(t+1)^2 * ... pick t^5 which has a quintuple root
        with pytest.raises(td.InvalidInput):
            td.HyperellipticCurve((0, 0, 0, 0, 0, 1))


class TestMakeDivisor:
    def test_validation(self, curve):
        with pytest.raises(td.InvalidInput):
            td.make_divisor(curve, (0, 2), (1,))  # not monic
        with pytest.raises(td.InvalidInput):
            td.make_divisor(curve, (0, 0, 0, 1), ())  # degree 3
        with pytest.raises(td.InvalidInput):
            td.make_divisor(curve, (0, 1), (1, 1))  # deg v >= deg u
        with pytest.raises(td.InvalidInput):
            td.make_divisor(curve, (1,), (1,))  # zero class with v != 0
        with pytest.raises(td.InvalidInput):
            td.make_divisor(curve, (1, 1), (1,))  # u does not divide v^2 - f

    def test_float_coefficients_rejected_over_z_mod_p_j(self, curve):
        """Over Z/3^2 the float 0.4 used to truncate to 0, giving (t, 1)."""
        with pytest.raises(td.InvalidInput):
            td.make_divisor(curve, (0.4, 1), (1,), ResidueRing(3, 2))
        with pytest.raises(td.InvalidInput):
            td.make_divisor(curve, (0.4, 1), (1,))

    def test_divisor_from_strings(self, curve):
        D = td.make_divisor(curve, ("0/1", "1"), ("1",))
        assert D == D1(curve)

    @pytest.mark.parametrize("x", [0.0, np.float64(0.0), np.float32(0.0), 0.4])
    def test_float_coefficients_rejected_over_qq(self, curve, x):
        """Over Q a float used to be taken at its binary value: 0.0 gave the
        divisor (t, 1), and 0.4 failed as "u does not divide v^2 - f"."""
        with pytest.raises(td.InvalidInput, match="not exact") as err:
            td.make_divisor(curve, (x, 1), (1,))
        assert repr(x) in str(err.value)

    @pytest.mark.parametrize("x", [0, np.int64(0), Fraction(0), "0", "-0/7"])
    def test_exact_coefficients_accepted_over_qq(self, curve, x):
        assert td.make_divisor(curve, (x, 1), (1,)) == D1(curve)

    def test_zero_divisor(self):
        z = td.zero_divisor()
        assert z.is_zero()
        assert z.v == ()


class TestGroupLaw:
    def test_orders(self, curve):
        assert td.order_of(curve, D1(curve)) == 5
        assert td.order_of(curve, W(curve)) == 2

    def test_known_multiples(self, curve):
        two = td.scalar_mul(curve, 2, D1(curve))
        assert two.u == (Fraction(0), Fraction(0), Fraction(1))
        assert two.v == (Fraction(1),)
        assert td.scalar_mul(curve, 5, D1(curve)).is_zero()

    def test_identity_and_inverse(self, curve, rational_subgroup):
        zero = td.zero_divisor()
        for D in rational_subgroup:
            assert td.add(curve, D, zero) == D
            assert td.add(curve, D, td.neg(curve, D)).is_zero()

    def test_commutativity_and_associativity_rational(self, curve, rational_subgroup):
        rng = random.Random(17)
        for _ in range(50):
            A, B, C = (rng.choice(rational_subgroup) for _ in range(3))
            assert td.add(curve, A, B) == td.add(curve, B, A)
            lhs = td.add(curve, td.add(curve, A, B), C)
            rhs = td.add(curve, A, td.add(curve, B, C))
            assert lhs == rhs

    def test_group_law_over_f11(self, curve):
        R = ResidueRing(11, 1)
        pts = td.enumerate_curve_points_mod(curve, 11, 1)
        rng = random.Random(23)
        # random classes as sums of embedded points
        classes = [
            td.add(curve, rng.choice(pts), rng.choice(pts)) for _ in range(12)
        ]
        for _ in range(50):
            A, B, C = (rng.choice(classes) for _ in range(3))
            assert td.add(curve, A, B) == td.add(curve, B, A)
            assert td.add(curve, td.add(curve, A, B), C) == td.add(
                curve, A, td.add(curve, B, C)
            )
            assert td.add(curve, A, td.neg(curve, A)).is_zero()

    def test_scalar_mul_negative(self, curve):
        D = D1(curve)
        assert td.scalar_mul(curve, -1, D) == td.neg(curve, D)
        assert td.scalar_mul(curve, -2, D) == td.neg(curve, td.scalar_mul(curve, 2, D))

    def test_mixed_rings_rejected(self, curve):
        Dq = D1(curve)
        Dp = td.reduce_mod(curve, Dq, 3, 1)
        with pytest.raises(td.InvalidInput):
            td.add(curve, Dq, Dp)

    def test_order_exceeds_bound(self, curve):
        assert td.order_of(fresh(curve), D1(curve), search_bound=3) == "exceeds-bound"

    def test_order_rejects_bound_below_one(self, curve):
        for bound in (0, -1):
            with pytest.raises(td.InvalidInput):
                td.order_of(curve, td.zero_divisor(), search_bound=bound)

    def test_order_of_every_class_mod_7_and_rational(self, curve, rational_subgroup):
        """The half walk against the definition: the smallest n <= b with
        scalar_mul(n, D) zero, at odd and even bounds and at b = n - 1."""
        classes = all_divisors_mod(curve, 7) + rational_subgroup
        assert len(classes) == 60
        orders = set()
        for D in classes:
            n = next(k for k in range(1, 51) if td.scalar_mul(curve, k, D).is_zero())
            orders.add(n)
            for b in {1, 2, n - 1, n, n + 1} - {0}:
                expected = n if n <= b else "exceeds-bound"
                assert td.order_of(fresh(curve), D, search_bound=b) == expected, (D, b)
        assert {1, 2, 5, 10} <= orders

    def test_memo_answers_every_bound_as_the_walk(self, curve, rational_subgroup):
        """A curve that kept each order answers every bound as the walk on a
        fresh curve does: filled at bound 1000, and filled at n - 1, where
        the walk of an even order n finds n above the bound."""
        classes = all_divisors_mod(curve, 7) + rational_subgroup
        for first in ("1000", "n - 1"):
            memo, above = fresh(curve), 0
            for D in classes:
                n = td.order_of(fresh(curve), D)
                bound = 1000 if first == "1000" else max(n - 1, 1)
                td.order_of(memo, D, search_bound=bound)
                assert memo._orders.get(D) in (n, None)
                above += memo._orders.get(D, 0) > bound
                for b in {1, 2, n - 1, n, n + 1} - {0}:
                    walked = td.order_of(fresh(curve), D, search_bound=b)
                    assert td.order_of(memo, D, search_bound=b) == walked, (D, b, first)
                assert memo._orders[D] == n
            assert len(memo._orders) == 60
            assert above > 0 if first == "n - 1" else above == 0


@st.composite
def classes_over_fp(draw):
    """A squarefree monic quintic, a prime of good reduction p in {3, 5, 7, 11}
    and three classes over F_p, each a sum of two enumerated points."""
    p = draw(st.sampled_from((3, 5, 7, 11)))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=5, max_size=5))
    try:
        curve = td.HyperellipticCurve((*coeffs, 1))
    except td.InvalidInput:
        assume(False)
    assume(curve.disc_f % p != 0)
    pts = td.enumerate_curve_points_mod(curve, p, 1)
    pick = st.integers(0, len(pts) - 1)
    classes = [
        td.add(curve, pts[draw(pick)], pts[draw(pick)]) for _ in range(3)
    ]
    return curve, classes


# ---------------------------------------------------------------------------
# Euclidean oracle: Cantor's composition by the extended gcd, kept here so that
# it stays independent of the closed forms in ``add``.
# ---------------------------------------------------------------------------

def padd(R, a, b):
    return ptrim(R, [x + y for x, y in zip_longest(a, b, fillvalue=0)])


def pscale(R, c, a):
    return ptrim(R, [c * x for x in a])


def unit_inverse(R, c):
    """1 / c in R; a non-unit raises, so the oracle refuses it."""
    inv = R.unit_inverse(c)
    if inv is None:
        raise td.RepresentationDegenerate(f"{c} is not a unit in {R}")
    return inv


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
        inv = unit_inverse(R, r0[-1])
        r0, s0, t0 = pscale(R, inv, r0), pscale(R, inv, s0), pscale(R, inv, t0)
    return r0, s0, t0


def _cantor_general(curve, D1, D2):
    """Cantor's composition by its general branch alone: both gcds by
    ``pxgcd`` and both divisions by d, then the reduction to deg u <= 2,
    which refuses a reduction whose pivot, the leading coefficient -v_3^2
    of f - v^2, is a non-unit."""
    R = D1.ring
    f = curve.f_in(R)
    (u1, v1), (u2, v2) = (D1.u, D1.v), (D2.u, D2.v)
    d1, e1, e2 = pxgcd(R, u1, u2)
    d, c1, c2 = pxgcd(R, d1, padd(R, v1, v2))
    u, rem = pdivmod(R, pmul(R, u1, u2), pmul(R, d, d))
    if rem:
        raise td.RepresentationDegenerate("composition denominator does not divide")
    num = padd(
        R,
        padd(R, pmul(R, pmul(R, c1, e1), pmul(R, u1, v2)), pmul(R, pmul(R, c1, e2), pmul(R, u2, v1))),
        pmul(R, c2, padd(R, pmul(R, v1, v2), f)),
    )
    num, rem = pdivmod(R, num, d)
    if rem:
        raise td.RepresentationDegenerate("composition numerator does not divide")
    v = pmod(R, num, u)
    while len(u) > 3:
        w = psub(R, f, pmul(R, v, v))
        if len(w) < 2 * len(v) - 1:
            # v's leading coefficient squares to 0 mod p^j: the quotient's
            # leading coefficient is a non-unit, not 0
            raise td.RepresentationDegenerate("leading coefficient of v^2 vanishes")
        u = pdivmod(R, w, u)[0]
        u = pscale(R, unit_inverse(R, u[-1]), u)
        v = pmod(R, pneg(R, v), u)
    return td.MumfordDivisor(u=u, v=v, ring=R)


ADD_CASES = {"zero", "opposite", "coprime", "doubling", "shared root", "double root", "2-torsion"}
# (case, deg u1, deg u2) of every pair that meets the Euclidean oracle in
# test_closed_forms_match_euclid: each degree-specialised branch of the sum
ADD_BRANCHES = {
    ("zero", 0, 0), ("zero", 0, 1), ("zero", 0, 2), ("zero", 1, 0), ("zero", 2, 0),
    ("opposite", 1, 1), ("opposite", 2, 2),
    ("coprime", 1, 1), ("coprime", 1, 2), ("coprime", 2, 1), ("coprime", 2, 2),
    ("doubling", 1, 1), ("doubling", 2, 2),
    ("shared root", 1, 1), ("shared root", 1, 2), ("shared root", 2, 1), ("shared root", 2, 2),
    ("double root", 1, 2), ("double root", 2, 1), ("double root", 2, 2),
    ("2-torsion", 1, 2), ("2-torsion", 2, 1), ("2-torsion", 2, 2),
}


def _add_case(curve, A, B):
    """Which case of ``add`` composes A and B, read off over the residue
    field (over Q for rational classes) with the oracle's gcd."""
    if A.is_zero() or B.is_zero():
        return "zero"
    if A.u == B.u and B == td.neg(curve, A):
        return "opposite"
    F = A.ring if A.ring == QQ else ResidueRing(A.ring.p, 1)
    u1, v1, u2, v2 = (ptrim(F, a) for a in (A.u, A.v, B.u, B.v))
    if A == B:
        g = pxgcd(F, u1, v1)[0]
        if g == (1,):
            return "doubling"
    else:
        g = pxgcd(F, u1, u2)[0]
        if g == (1,):
            return "coprime"
        if u1 == u2:  # the root where the operands' points agree
            g = pxgcd(F, u1, psub(F, v1, v2))[0]
    r = F.reduce(-g[0])  # g = t - r
    if not peval(F, v1, r):
        return "2-torsion"
    if any(len(u) == 3 and not peval(F, (u[1], 2), r) for u in (u1, u2)):
        return "double root"  # u = (t - r)^2: u'(r) = 0 as well
    return "shared root"


def _outcome(compose, curve, A, B):
    """The sum with each coefficient's type, or the refusal's message."""
    try:
        S = compose(curve, A, B)
    except td.RepresentationDegenerate as e:
        return "refused", str(e)
    return S, [type(c) for c in S.u + S.v]


def _two_point_sums(curve, p, compose):
    """The sums of two points mod p^2 that ``compose`` returns, sorted."""
    pts = td.enumerate_curve_points_mod(curve, p, 2)
    sums = set()
    for P in pts:
        for Q in pts:
            try:
                sums.add(compose(curve, P, Q))
            except td.RepresentationDegenerate:
                pass
    return sorted(sums, key=lambda D: D.key())


class TestAddProperties:
    def test_shared_u_matches_general_branch(self, curve, rational_subgroup):
        """Over QQ, Z/3^2 and Z/7^2 every doubling, D + iota D and other
        shared-u pair of the rational classes and of the sums of two points
        gives the general branch's sum, with the same coefficient types,
        wherever that branch returns one.  Where its gcd meets a non-unit,
        ``add`` refuses too, or returns a reduced pair S with u | v^2 - f
        and S + (-B) = A."""
        pools = {"QQ": rational_subgroup}
        for p in (3, 7):
            pools[p] = _two_point_sums(curve, p, td.add)
        for name, pool in pools.items():
            seen, refused = set(), 0
            for A in pool:
                for B in pool:
                    if A.u != B.u or A.is_zero():
                        continue
                    seen.add("double" if A == B else "inverse" if B == td.neg(curve, A) else "shared")
                    got = _outcome(td.add, curve, A, B)
                    want = _outcome(_cantor_general, curve, A, B)
                    if want[0] != "refused":
                        assert got == want, (A, B)
                        continue
                    refused += 1
                    S = got[0]
                    if S != "refused":
                        assert td.make_divisor(curve, S.u, S.v, S.ring) == S
                        assert td.add(curve, S, td.neg(curve, B)) == A, (A, B)
            assert seen == ({"double", "inverse"} if name == "QQ" else {"double", "inverse", "shared"})
            assert name == "QQ" or refused > 0

    def test_unit_resultant_with_non_unit_difference_mod_9(self, curve):
        """(t^2 + t, t + 1) + (t^2 - 2t + 2, 2t - 3) mod 3^2: u1 - u2 = 3t - 2
        has a non-unit leading coefficient, on which the Euclidean gcd
        stops, but res(u1, u2) = 10 is a unit.  The sum is the reduction of
        the rational sum (t^2, -1)."""
        A = td.make_divisor(curve, (0, 1, 1), (1, 1))
        B = td.make_divisor(curve, (2, -2, 1), (-3, 2))
        S = td.add(curve, A, B)
        assert S == td.make_divisor(curve, (0, 0, 1), (-1,))
        Ap, Bp = (td.reduce_mod(curve, D, 3, 2) for D in (A, B))
        with pytest.raises(td.RepresentationDegenerate, match="3 is not a unit in Z/3\\^2"):
            _cantor_general(curve, Ap, Bp)
        assert td.add(curve, Ap, Bp) == td.reduce_mod(curve, S, 3, 2)

    def test_closed_forms_match_euclid(self, curve):
        """``add`` against the Euclidean oracle on every pair of classes of
        J(F_p) for p = 3, 5, 7, where both always return a sum, and on pairs
        from the sums of two points mod 3^2 (all 34^2) and mod 7^2 (3,000
        seeded of 974^2).  The sums are equal wherever the oracle returns
        one.  Where it refuses and ``add`` returns S, S + (-B) = A and
        S + (-A) = B wherever ``add`` computes them, and it computes at least
        one: the other can meet a point of S and a distinct point of -A or
        -B that agree mod p, whose difference has no pair over Z/p^2.  Every
        case of ``add`` is taken, at every degree pair it has (ADD_BRANCHES).
        The preset curve has bad reduction at 5, so z^2 = t^5 + t^2 + 1
        serves there, and at 3 and 7 as well."""
        other = td.HyperellipticCurve((1, 0, 1, 0, 0, 1))
        pairs = []
        for C, p in ((curve, 3), (curve, 7), (other, 3), (other, 5), (other, 7)):
            classes = all_divisors_mod(C, p)
            assert len(classes) == td.jacobian_order_mod_p(C, p)
            pairs += [(C, A, B) for A in classes for B in classes]
        n_field = len(pairs)
        rng = random.Random(31)
        for p in (3, 7):
            pool = _two_point_sums(curve, p, _cantor_general)
            every = [(curve, A, B) for A in pool for B in pool]
            pairs += every if len(every) <= 3000 else rng.sample(every, 3000)
        seen, branches, beyond = set(), set(), 0
        for i, (C, A, B) in enumerate(pairs):
            want = _outcome(_cantor_general, C, A, B)
            got = _outcome(td.add, C, A, B)
            if i < n_field:
                assert want[0] != "refused" and got[0] != "refused", (C, A, B)
            if got[0] == "refused":
                continue
            case = _add_case(C, A, B)
            seen.add(case)
            branches.add((case, len(A.u) - 1, len(B.u) - 1))
            if want[0] != "refused":
                assert got == want, (C, A, B)
                continue
            beyond += 1
            S = got[0]
            assert td.make_divisor(C, S.u, S.v, S.ring) == S
            back = [_outcome(td.add, C, S, td.neg(C, Y))[0] for Y in (B, A)]
            assert back[0] in (A, "refused") and back[1] in (B, "refused"), (A, B)
            assert back != ["refused", "refused"], (A, B)
        assert seen == ADD_CASES
        assert branches == ADD_BRANCHES
        assert beyond > 0

    def test_group_law_over_random_curves(self):
        """Commutativity, identity, inverse and associativity over F_p on
        random curves, with every case of ``add`` taken at least once."""
        seen = set()

        @settings(derandomize=True, max_examples=60, deadline=None)
        @given(classes_over_fp())
        def check(drawn):
            curve, (A, B, C) = drawn

            def plus(X, Y):
                seen.add(_add_case(curve, X, Y))
                S = td.add(curve, X, Y)
                # the sum is a valid reduced pair: u monic, u | v^2 - f
                assert td.make_divisor(curve, S.u, S.v, S.ring) == S
                return S

            zero = td.zero_divisor(A.ring)
            assert plus(A, B) == plus(B, A)
            assert plus(A, zero) == A
            assert plus(zero, A) == A
            assert plus(A, td.neg(curve, A)).is_zero()
            assert plus(A, A) == td.scalar_mul(curve, 2, A)
            assert plus(plus(A, B), C) == plus(A, plus(B, C))

        check()
        assert seen == ADD_CASES

    def test_zero_operand_over_z_mod_p_squared(self, curve):
        """0 + P is P at every point mod 3^2 and 7^2, also where v is a
        nonzero non-unit, which Cantor's general branch would invert."""
        for p in (3, 7):
            pts = td.enumerate_curve_points_mod(curve, p, 2)
            zero = pts[0]
            assert any(P.v and P.v[0] % p == 0 for P in pts)
            for P in pts:
                assert td.add(curve, zero, P) == P == td.add(curve, P, zero)


class TestReductionHomomorphism:
    @pytest.mark.parametrize("p", [3, 7, 11])
    @pytest.mark.parametrize("j", [1, 2])
    def test_reduce_commutes_with_add(self, curve, rational_subgroup, p, j):
        checked = 0
        for A in rational_subgroup:
            for B in rational_subgroup:
                lhs = td.reduce_mod(curve, td.add(curve, A, B), p, j)
                try:
                    rhs = td.add(
                        curve,
                        td.reduce_mod(curve, A, p, j),
                        td.reduce_mod(curve, B, p, j),
                    )
                except td.RepresentationDegenerate:
                    # over Z/p^j with j >= 2 the composition can require
                    # inverting a non-unit; the module declares this rather
                    # than guessing a representative
                    assert j >= 2
                    continue
                assert lhs == rhs
                checked += 1
        assert checked >= 90  # the vast majority of pairs must be conclusive

    @pytest.mark.parametrize("p, j", [(97, 3), (199, 3), (13, 4), (3, 4), (7, 3)])
    def test_reduce_commutes_with_add_at_sweep_levels(self, curve, rational_subgroup, p, j):
        """All 100 sums of the ten rational classes at levels as deep as the
        benchmark's homomorphism sums and torsion lifts: each is conclusive
        and equals the reduced rational sum, and no exception is raised
        inside ``add``, since each case falls through on a unit test."""
        red = [td.reduce_mod(curve, D, p, j) for D in rational_subgroup]
        raised = []

        def watch(frame, event, arg):
            if event == "exception":
                raised.append((frame.f_code.co_name, arg[0].__name__))
            return watch

        before = sys.gettrace()
        sys.settrace(watch)
        try:
            sums = [td.add(curve, A, B) for A in red for B in red]
        finally:
            sys.settrace(before)
        assert raised == []
        want = [td.reduce_mod(curve, td.add(curve, A, B), p, j)
                for A in rational_subgroup for B in rational_subgroup]
        assert sums == want

    @pytest.mark.parametrize("p", [3, 7])
    def test_orders_divide_jacobian_order(self, curve, rational_subgroup, p):
        n_jac = td.jacobian_order_mod_p(curve, p)
        for D in rational_subgroup:
            Dp = td.reduce_mod(curve, D, p, 1)
            n = td.order_of(curve, Dp)
            assert n_jac % n == 0

    def test_reduction_matches_checked_pair(self, curve, rational_subgroup):
        """reduce_mod skips make_divisor's u | v^2 - f check, which the
        homomorphism makes hold; the pairs equal the checked ones."""
        for p in [p for p in (3, 7, 11, 13, 17, 19, 23) if curve.disc_f % p]:
            for j in (1, 2, 3):
                R = ResidueRing(p, j)
                for D in rational_subgroup:
                    assert td.reduce_mod(curve, D, p, j) == td.make_divisor(curve, D.u, D.v, R)

    def test_bad_prime_rejected(self, curve):
        with pytest.raises(td.UnsupportedPrime):
            td.reduce_mod(curve, D1(curve), 5, 1)

    def test_non_integral_coefficients_rejected(self, curve):
        D = td.make_divisor(curve, ("0", "1"), ("1",))
        third = td.MumfordDivisor(
            u=(Fraction(1, 3), Fraction(1)), v=(), ring=QQ
        )
        with pytest.raises(td.NotPIntegral):
            td.reduce_mod(curve, third, 3, 1)
        # but the same divisor reduces fine at a prime not dividing the denominator
        assert D == D  # sanity on equality


class TestResidueRings:
    def test_coerce_fraction(self):
        R = ResidueRing(3, 2)
        assert R.coerce(Fraction(1, 2)) == 5  # 2 * 5 = 10 = 1 mod 9
        with pytest.raises(td.NotPIntegral):
            R.coerce(Fraction(1, 3))

    def test_non_unit_inverse(self):
        R = ResidueRing(3, 2)
        assert R.unit_inverse(3) is None
        assert R.unit_inverse(2) == 5
        with pytest.raises(td.RepresentationDegenerate, match="3 is not a unit in Z/3\\^2"):
            pdivmod(R, (1, 1, 1), (1, 3))

    def test_bad_exponent(self):
        with pytest.raises(td.InvalidInput):
            ResidueRing(3, 0)

    @pytest.mark.parametrize("make", [ResidueRing, residue_ring])
    def test_bad_prime(self, make):
        for p in (0, 1, -3):
            with pytest.raises(td.InvalidInput):
                make(p, 1)

    def test_coerce_integers_only(self):
        """Integers of every kind reduce to an int residue; a float or a
        string raises instead of being truncated."""
        R = ResidueRing(3, 2)
        for x in (-7, Fraction(-7), np.int64(-7), Fraction(-14, 2)):
            got = R.coerce(x)
            assert got == 2 and type(got) is int
        for bad in (2.5, 2.0, np.float64(2.0), "2"):
            with pytest.raises(td.InvalidInput):
                R.coerce(bad)

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_coerce_non_p_integral(self, p):
        R = residue_ring(p, 2)
        with pytest.raises(td.NotPIntegral):
            R.coerce(Fraction(1, p))
        with pytest.raises(td.NotPIntegral):
            R.coerce(Fraction(5, 3 * p))
        assert R.coerce(Fraction(1, p + 1)) * (p + 1) % R.modulus == 1

    @pytest.mark.parametrize(
        "ring",
        [QQ] + [ResidueRing(p, j) for p in (3, 7) for j in (1, 2, 3)],
        ids=lambda R: "QQ" if R == QQ else f"p{R.p}j{R.j}",
    )
    def test_results_in_normal_form(self, curve, rational_subgroup, ring):
        """Sums and multiples of the ten rational classes, and the package's
        polynomial helpers applied to their (u, v), carry reduced
        coefficients (in range(p^j) over Z/p^j) and no trailing zero."""

        def assert_normal(a):
            assert not a or a[-1] != 0, a
            if ring == QQ:
                assert all(isinstance(x, Fraction) for x in a), a
            else:
                assert all(type(x) is int and 0 <= x < ring.modulus for x in a), a

        f = curve.f_in(ring)
        classes = [
            D if ring == QQ else td.reduce_mod(curve, D, ring.p, ring.j)
            for D in rational_subgroup
        ]
        results = [td.scalar_mul(curve, k, D) for D in classes for k in (2, 3, 7, -4)]
        for A in classes:
            for B in classes:
                try:
                    results.append(td.add(curve, A, B))
                except td.RepresentationDegenerate:
                    assert ring != QQ and ring.j >= 2
        assert len(results) >= 120
        for D in results:
            assert D.ring == ring
            assert_normal(D.u)
            assert_normal(D.v)
            assert D.u[-1] == 1
            v2f = psub(ring, pmul(ring, D.v, D.v), f)
            for a in (pneg(ring, D.v), v2f, *pdivmod(ring, v2f, D.u)):
                assert_normal(a)
            assert not pmod(ring, v2f, D.u)


class TestEnumeration:
    def test_point_counts_mod_p(self, curve):
        assert len(td.enumerate_curve_points_mod(curve, 3, 1)) == 4
        assert len(td.enumerate_curve_points_mod(curve, 7, 1)) == 8

    def test_lift_counts_mod_p_squared(self, curve):
        # good reduction: every affine point mod p has exactly p lifts mod p^2
        for p in (3, 7):
            n1 = len(td.enumerate_curve_points_mod(curve, p, 1)) - 1
            n2 = len(td.enumerate_curve_points_mod(curve, p, 2)) - 1
            assert n2 == p * n1

    def test_weil_interval(self, curve):
        for p in (3, 7):
            n_aff = len(td.enumerate_curve_points_mod(curve, p, 1)) - 1
            # genus-2 Weil bound on #C(F_p) = affine + 1
            assert abs((n_aff + 1) - (p + 1)) <= 4 * p**0.5

    def test_jacobian_orders(self, curve):
        assert td.jacobian_order_mod_p(curve, 3) == 10
        assert td.jacobian_order_mod_p(curve, 7) == 50
        for p in (3, 7):
            n = td.jacobian_order_mod_p(curve, p)
            assert (p**0.5 - 1) ** 4 <= n <= (p**0.5 + 1) ** 4

    def test_budget_guard(self, curve):
        with pytest.raises(td.BudgetExceeded):
            td.enumerate_curve_points_mod(curve, 13, 4)
        with pytest.raises(td.BudgetExceeded):
            td.jacobian_order_mod_p(curve, 11)


class TestRingAndDivisorInvariants:
    @pytest.mark.parametrize("p, j", [(3, 1), (3, 2), (7, 3), (11, 2)])
    def test_one_ring_object_per_level(self, curve, rational_subgroup, p, j):
        R = residue_ring(p, j)
        assert residue_ring(p, j) is R
        red = [td.reduce_mod(curve, D, p, j) for D in rational_subgroup]
        out = red + list(td.enumerate_curve_points_mod(curve, p, j))
        for A in red:
            out.append(td.scalar_mul(curve, 3, A))
            for B in red:
                try:
                    out.append(td.add(curve, A, B))
                except td.RepresentationDegenerate:
                    assert j >= 2
        assert all(D.ring is R for D in out)

    def test_separate_ring_object_compares_equal(self, curve, rational_subgroup):
        for D in rational_subgroup:
            Dp = td.reduce_mod(curve, D, 7, 2)
            other = td.MumfordDivisor(Dp.u, Dp.v, ResidueRing(7, 2))
            assert other.ring is not Dp.ring
            assert other == Dp and hash(other) == hash(Dp)
            assert td.add(curve, other, Dp) == td.add(curve, Dp, Dp)
        with pytest.raises(td.InvalidInput):
            td.add(curve, td.reduce_mod(curve, D1(curve), 7, 2),
                   td.reduce_mod(curve, D1(curve), 7, 1))

    def test_immutable(self, curve):
        D = D1(curve)
        with pytest.raises(AttributeError):
            D.u = (Fraction(1),)
        with pytest.raises(AttributeError):
            D.extra = 1
        assert D == D1(curve)

    def test_constructors_and_repr(self, curve):
        two = td.scalar_mul(curve, 2, D1(curve))
        assert repr(two) == (
            "MumfordDivisor(u=(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)), "
            "v=(Fraction(1, 1),), ring=QQ)"
        )
        assert repr(td.reduce_mod(curve, two, 3, 2)) == (
            "MumfordDivisor(u=(0, 0, 1), v=(1,), ring=Z/3^2)"
        )
        assert repr(td.zero_divisor(ResidueRing(7, 1))) == "MumfordDivisor(u=(1,), v=(), ring=Z/7^1)"
        R = residue_ring(3, 2)
        by_name = td.MumfordDivisor(u=(0, 0, 1), v=(1,), ring=R)
        assert by_name == td.MumfordDivisor((0, 0, 1), (1,), R) == td.reduce_mod(curve, two, 3, 2)
        assert by_name.key() == ((0, 0, 1), (1,))


def _enumerate_full_table(curve, p, j):
    """The full-square-table enumeration that the fused loop replaced:
    f evaluated at every residue a, roots from a table of all squares."""
    mod = p**j
    R = ResidueRing(p, j)
    squares = {}
    for b in range(mod):
        squares.setdefault(b * b % mod, []).append(b)
    out = [td.zero_divisor(R)]
    f = curve.f_in(R)
    for a in range(mod):
        c = peval(R, f, a)
        for b in squares.get(c, ()):
            out.append(td.MumfordDivisor(u=((-a) % mod, 1), v=(b,) if b else (), ring=R))
    return out


class TestEnumerationOracle:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_matches_full_table(self, curve, p):
        """Same points, same order (ascending a, then b), same coefficient
        types, at every level p^j within the budget; p = 5 divides the
        preset's discriminant."""
        curves = (curve, td.HyperellipticCurve((1, 0, 1, 0, 0, 1)))  # t^5 + t^2 + 1
        j = 1
        while p**j <= 10**4:
            for C in curves:
                got = list(td.enumerate_curve_points_mod(C, p, j))
                want = _enumerate_full_table(C, p, j)
                assert got == want, (C, p, j)
                assert [tuple(map(type, D.u + D.v)) for D in got] == [
                    tuple(map(type, D.u + D.v)) for D in want
                ]
            j += 1
        assert j > 3

    def test_points_kept_untracked(self, curve):
        """The 9,410 points mod 97^2 are read off the sequence, not kept as
        named tuples the garbage collector tracks; indexing and iteration
        agree, negative indices included."""
        td.enumerate_curve_points_mod(curve, 97, 2)  # the ring and its f, once
        gc.collect()
        before = len(gc.get_objects())
        pts = td.enumerate_curve_points_mod(curve, 97, 2)
        gc.collect()
        assert len(gc.get_objects()) - before <= 5
        assert len(pts) == 9410
        *_, last = pts
        assert pts[-1] == last == pts[len(pts) - 1]
        with pytest.raises(IndexError):
            pts[len(pts)]


class TestOnCurveMod:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_independent_classification_at_j1(self, curve, p):
        """Exhaustive comparison over F_p against a root-splitting argument:
        a class is the image of a curve point iff it is zero or a degree-1
        pair on the curve."""
        R = ResidueRing(p, 1)
        f = curve.f_in(R)
        for D in all_divisors_mod(curve, p):
            if D.is_zero():
                expected = True
            elif len(D.u) == 2:
                a = (-D.u[0]) % p
                b = D.v[0] if D.v else 0
                expected = b * b % p == peval(R, f, a)
            else:
                # deg u = 2: off the curve, at p = 5 (which divides disc f)
                # too, where u = (t + 1)^2 with v(-1) = 0 is a valid pair
                expected = False
            assert td.on_curve_mod(curve, D, p, 1) == expected, D

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_equals_enumeration_at_j1(self, curve, p):
        """on_curve_mod is membership in enumerate_curve_points_mod for every
        valid reduced pair over F_p; at p = 5 it used to accept the five
        pairs u = (t + 1)^2, v = c (t + 1), which the oracle does not list."""
        keys = {P.key() for P in td.enumerate_curve_points_mod(curve, p, 1)}
        for D in all_divisors_mod(curve, p):
            assert td.on_curve_mod(curve, D, p, 1) == (D.key() in keys), D

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_equals_enumeration_at_j2(self, curve, rational_subgroup, p):
        """The same at j = 2, on the enumerated points and on the ten
        rational classes taken into Z/p^2 (by coercion, since reduce_mod
        refuses p = 5)."""
        R = residue_ring(p, 2)
        points = td.enumerate_curve_points_mod(curve, p, 2)
        keys = {P.key() for P in points}
        classes = [td.make_divisor(curve, T.u, T.v, R) for T in rational_subgroup]
        assert any(len(D.u) == 3 for D in classes)
        for D in [*points, *classes]:
            assert td.on_curve_mod(curve, D, p, 2) == (D.key() in keys), D

    def test_oracle_membership_at_j2(self, curve):
        for p in (3, 5):
            keys = {d.key() for d in td.enumerate_curve_points_mod(curve, p, 2)}
            for D in td.enumerate_curve_points_mod(curve, p, 2):
                assert td.on_curve_mod(curve, D, p, 2)
            # a genuinely degree-2 class is off the curve at level 2
            if p == 3:
                two = td.reduce_mod(curve, td.scalar_mul(curve, 2, D1(curve)), p, 2)
                assert not td.on_curve_mod(curve, two, p, 2)
                assert two.key() not in keys

    def test_degree2_off_curve_beyond_enumeration_budget(self, curve, preset):
        """p^2 = 10,201 is over the enumeration oracle's budget, and a
        degree-2 class is off the curve without consulting it."""
        p = 101
        assert td.admissible_prime(p, preset.data)
        two = td.reduce_mod(curve, td.scalar_mul(curve, 2, D1(curve)), p, 2)
        assert len(two.u) == 3
        assert not td.on_curve_mod(curve, two, p, 2)


class TestVpDistance:
    def test_curve_point_is_infinite(self, curve):
        res = td.vp_distance(curve, D1(curve), 3, 4)
        assert res.infinite
        assert res.d_p_exponent() is None

    def test_two_d1_at_p3(self, curve):
        res = td.vp_distance(curve, td.scalar_mul(curve, 2, D1(curve)), 3, 4)
        assert res.v_p == 0
        assert not res.infinite
        assert not res.at_least
        assert res.d_p_exponent() == Fraction(0)

    def test_exponent_fraction(self):
        res = td.PadicDistanceResult(p=3, v_p=2)
        assert res.d_p_exponent() == Fraction(-2)

    def test_requires_rational_divisor(self, curve):
        Dp = td.reduce_mod(curve, td.scalar_mul(curve, 2, D1(curve)), 3, 1)
        with pytest.raises(td.InvalidInput):
            td.vp_distance(curve, Dp, 3, 2)

    @pytest.mark.parametrize("j_max", [0, -1])
    def test_requires_a_level(self, curve, j_max):
        """j_max < 1 checks no level p^j: it used to report v_p = 0."""
        with pytest.raises(td.InvalidInput, match="j_max"):
            td.vp_distance(curve, td.scalar_mul(curve, 2, D1(curve)), 3, j_max)


class TestVerifyBound:
    @pytest.fixture()
    def preset_data(self, preset):
        preset.data.theta_max = 1.06639277369136206671054075
        return preset.data

    @pytest.mark.parametrize("p,jmax", [(3, 4), (7, 4), (11, 4), (13, 3)])
    def test_multiples_of_d1_hold(self, curve, preset_data, p, jmax):
        mults = [td.scalar_mul(curve, k, D1(curve)) for k in range(1, 5)]
        rows = td.verify_bound(curve, preset_data, mults, p, jmax)
        # k = 1, 4 are curve points and are skipped; k = 2, 3 remain
        assert len(rows) == 2
        for r in rows:
            assert r.order == 5
            assert r.v_p == 0
            assert r.inequality_holds is True
            assert r.rejected_reason is None

    def test_inadmissible_prime_rejected(self, curve, preset_data):
        with pytest.raises(td.HypothesisViolated):
            td.verify_bound(curve, preset_data, [], 5, 2)
        with pytest.raises(td.HypothesisViolated):
            td.verify_bound(curve, preset_data, [], 2, 2)

    def test_order_divisible_by_p_row_rejected(self, curve):
        # synthetic arithmetic data making p = 5 admissible; the order-5 class
        # must then be rejected under hypothesis (5), before any reduction
        data = td.CurveArithData(
            g=2, deg_K0=40, nt_omega=0.0, h_fal=-1.45, theta_max=1.066, disc=1
        )
        rows = td.verify_bound(
            curve, data, [td.scalar_mul(curve, 2, D1(curve))], 5, 2
        )
        assert len(rows) == 1
        assert rows[0].inequality_holds is None
        assert "divisible by p" in rows[0].rejected_reason

    def test_order_exceeding_search_bound_row(self, curve, preset_data, monkeypatch):
        """verify_bound searches orders up to 1000; a class whose order
        order_of does not find there gets a rejected row, with no v_p."""
        bounds = []

        def no_order(curve, D, search_bound):
            bounds.append(search_bound)
            return "exceeds-bound"

        monkeypatch.setattr(td.jacobian, "order_of", no_order)
        rows = td.verify_bound(curve, preset_data, [td.scalar_mul(curve, 2, D1(curve))], 3, 2)
        assert bounds == [1000]
        assert len(rows) == 1
        assert rows[0].order == "exceeds-bound"
        assert rows[0].v_p is None and rows[0].d_p is None
        assert rows[0].inequality_holds is None
        assert rows[0].rejected_reason == "order exceeds search bound"

    def test_order_walks_half_way(self, curve, preset_data, rational_subgroup, monkeypatch):
        """The ten rational classes, of orders 1, 2, 5 (4 classes) and 10
        (4 classes), take ceil(n/2) - 1 additions each: 24 at the first
        prime, against 53 for a walk to n, and none at a second prime, whose
        orders the curve kept.  Rows skip the four curve points."""
        calls = []
        add = td.jacobian.add

        def counting_add(*args):
            calls.append(args)
            return add(*args)

        monkeypatch.setattr(td.jacobian, "add", counting_add)
        C = fresh(curve)
        for p, expected_calls in ((7, 24), (11, 0)):
            calls.clear()
            rows = td.verify_bound(C, preset_data, rational_subgroup, p, 2)
            assert sorted(r.order for r in rows) == [5, 5, 10, 10, 10, 10]
            assert len(calls) == expected_calls, p

    def test_empty_torsion_list(self, curve, preset_data):
        assert td.verify_bound(curve, preset_data, [], 3, 2) == []
