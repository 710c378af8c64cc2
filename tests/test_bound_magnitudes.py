"""Bound-chain values far beyond float range, carried as plain mpmath floats.

mpmath floats have an unbounded binary exponent, so values like H_199 (about
10^(3.4e16)) are ordinary mpf numbers at BOUND_BITS bits.  Their logs are
checked against exact big integers, or against analytic logs at 600 bits.
"""

import random

import mpmath as mp
import pytest

import thetadist as td
from thetadist.bounds import BOUND_BITS
from test_logscale import ln_l_bound, rel_err


def ln(x):
    with mp.workprec(BOUND_BITS):
        return mp.log(x)


class TestConstruction:
    def test_round_trip_small(self):
        for q in (2, 3, 5, 7, 11):
            v = td.hasse_weil_card_bound(q, 1, 2)
            ref = q * q + 11 * q + 4 * q**1.5
            assert abs(float(v) - ref) <= 1e-14 * ref

    def test_round_trip_huge_int(self):
        n = 10**300 + 12345
        v = td.degree_bound(n, 1)  # n^4, a 1200-digit value
        with mp.workprec(400):
            ref = 4 * mp.log(mp.mpf(n))
        assert rel_err(ln(v), ref) < mp.mpf("1e-30")

    def test_zero_and_one(self):
        H = td.h_bound(199, 2, 40)
        assert td.tate_voloch_exponent_main(0, H) == 1
        params = td.BoundParams(g=2, deg_K0=40, p=199, q=199**40)
        assert td.tate_voloch_exponent_sharp(params, 0) == 1

    def test_negative(self):
        H = td.h_bound(199, 2, 40)
        with pytest.raises(td.InvalidInput):
            td.tate_voloch_exponent_main(-1, H)
        params = td.BoundParams(g=2, deg_K0=40, p=199, q=199**40)
        with pytest.raises(td.InvalidInput):
            td.tate_voloch_exponent_sharp(params, "-0.5")


class TestArithmetic:
    def test_add_matches_exact_integers(self):
        """For even d the Hasse-Weil sum is an exact integer."""
        rng = random.Random(1)
        for _ in range(50):
            q = rng.randint(2, 10**6)
            d = rng.choice((2, 4, 6))
            exact = q ** (2 * d) + 11 * q**d + 4 * q ** (3 * d // 2)
            with mp.workprec(256):
                ref = mp.log(mp.mpf(exact))
            assert abs(ln(td.hasse_weil_card_bound(q, d, 2)) - ref) < mp.mpf("1e-30")

    def test_mul_matches_exact_integers(self):
        """1 + D*L_{2,1} for integer D, with L_{2,1} an exact big integer."""
        b = td.bu(1, 2)
        L = (2 ** (2 * b) + 11 * 2**b + 4 * 2 ** (3 * b // 2)) ** 16
        H = td.l_bound(2, 1, 2)
        rng = random.Random(2)
        for _ in range(50):
            D = rng.randint(1, 10**40)
            with mp.workprec(256):
                ref = mp.log(mp.mpf(1 + D * L))
            assert abs(ln(td.tate_voloch_exponent_main(D, H)) - ref) < mp.mpf("1e-30")

    def test_pow_matches_exact(self):
        rng = random.Random(3)
        for _ in range(20):
            N = rng.randint(2, 10**40)
            with mp.workprec(256):
                ref = mp.log(mp.mpf(N**16))
            assert abs(ln(td.degree_bound(N, 2)) - ref) < mp.mpf("1e-30")

    def test_huge_values_never_overflow(self):
        """H_199 and the sharp exponent at q = 199^40, against 600-bit logs."""
        lnL = ln_l_bound(199**40, 199)
        H = td.h_bound(199, 2, 40)
        assert mp.isfinite(H)
        assert rel_err(ln(H), lnL) < mp.mpf("1e-30")

        arak = "0.603539217162787640475284749960"
        params = td.BoundParams(g=2, deg_K0=40, p=199, q=199**40)
        sharp = td.tate_voloch_exponent_sharp(params, arak)
        with mp.workprec(600):
            ref = mp.log(2 * 40 * mp.mpf(arak)) + lnL
        assert rel_err(ln(sharp), ref) < mp.mpf("1e-30")

    def test_coercion_from_python_numbers(self):
        """ints, floats, strings and mpfs of any precision give one value."""
        with mp.workprec(BOUND_BITS):
            n = mp.mpf(3) ** 40
        assert td.l_bound(n, 3, 2) == td.l_bound(3**40, 3, 2)
        H = td.h_bound(3, 2, 40)
        mains = [td.tate_voloch_exponent_main(D, H) for D in (2, 2.0, "2", mp.mpf(2))]
        assert len(set(mains)) == 1
        params = td.BoundParams(g=2, deg_K0=40, p=3, q=3)
        with mp.workprec(300):
            arak = mp.mpf("0.6035")
        a = td.tate_voloch_exponent_sharp(params, "0.6035")
        b = td.tate_voloch_exponent_sharp(params, arak)
        assert rel_err(a, b) < mp.mpf(2) ** (2 - BOUND_BITS)
