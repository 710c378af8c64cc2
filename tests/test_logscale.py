"""Bound-chain values far beyond float range, carried as plain mpmath floats.

mpmath floats have an unbounded binary exponent, so values like H_199 (about
10^(3.4e16)) are ordinary mpf numbers at BOUND_BITS bits.  Their logs are
checked against exact big integers, or against analytic logs at 600 bits.
"""

import math
import random

import mpmath as mp
import pytest

import thetadist as td
from thetadist.bounds import BOUND_BITS


def ln(x):
    with mp.workprec(BOUND_BITS):
        return mp.log(x)


def ln_l_bound(n, m, g=2):
    """600-bit ln L_{n,m}: 4g^2 times the ln of the Hasse-Weil bound
    n^(dg) + (2^2g - 2g - 1) n^(d(g-1)) + 2g n^(d(g-1/2)) at d = Bu_m,
    factored through its leading term."""
    d = td.bu(m, g)
    with mp.workprec(600):
        n = mp.mpf(n)
        rest = (2 ** (2 * g) - 2 * g - 1) * n ** (-d) + 2 * g * n ** (-mp.mpf(d) / 2)
        return 4 * g * g * (d * g * mp.log(n) + mp.log1p(rest))


def rel_err(value, ref):
    with mp.workprec(600):
        return abs(value - ref) / abs(ref)


@pytest.fixture()
def preset_data(preset):
    preset.data.theta_max = 1.06639277369136206671054075
    return preset.data


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


class TestQueries:
    def test_ordering(self):
        Hs = [td.h_bound(p, 2, 40) for p in (3, 7, 131, 199)]
        assert Hs == sorted(Hs)
        assert Hs[0] > mp.mpf(2) ** (10**6)
        params = td.BoundParams(g=2, deg_K0=40, p=199, q=199)
        assert td.tate_voloch_exponent_sharp(params, 0.6) < td.tate_voloch_exponent_main(
            2 * 40 * 0.6, Hs[-1]
        )

    def test_comparison_with_ints(self, curve, preset_data, monkeypatch):
        """verify_bound at p = 199 compares the integer v_p with the exponent
        itself: an order-5 class with v_p = 0 holds, and a v_p stubbed just
        above a stubbed exponent fails."""
        T = td.scalar_mul(curve, 2, td.make_divisor(curve, (0, 1), (1,)))
        (row,) = td.verify_bound(curve, preset_data, [T], 199, 2)
        assert (row.order, row.v_p, row.inequality_holds) == (5, 0, True)
        assert row.bound_exponent_log10 > 3 * 10**16

        monkeypatch.setattr(
            td.jacobian, "vp_distance", lambda *a: td.PadicDistanceResult(p=199, v_p=10**6)
        )
        (row,) = td.verify_bound(curve, preset_data, [T], 199, 2)
        assert row.inequality_holds is True
        for exponent, holds in ((10**6, True), (mp.mpf(999999.5), False)):
            monkeypatch.setattr(td.bounds, "tate_voloch_exponent_main", lambda D, H: exponent)
            (row,) = td.verify_bound(curve, preset_data, [T], 199, 2)
            assert row.inequality_holds is holds

    def test_log10(self):
        with mp.workprec(BOUND_BITS):
            assert abs(mp.log10(td.degree_bound(10**25, 1)) - 100) < mp.mpf("1e-30")
            huge = mp.mpf(10) ** (10**12)
            assert rel_err(mp.log10(td.degree_bound(huge, 1)), 4 * 10**12) < mp.mpf("1e-30")

    def test_ln_of_nonpositive_rejected(self):
        for N in (0, -2, 0.5):
            with pytest.raises(td.InvalidInput):
                td.degree_bound(N, 2)
        for q in (0, -3, 1):
            with pytest.raises(td.InvalidInput):
                td.hasse_weil_card_bound(q, 1, 2)

    def test_repr_mentions_sign_and_log(self, monkeypatch):
        """The report's main_exponent field is the sign and the natural log of
        the exponent, consistent with log10_main_exponent."""
        with mp.workprec(128):
            value = mp.mpf("1.06639277369136206671054075858")
        result = td.ThetaMaxResult(value, (0.0, 0.0, 0.0, 0.0), float(value))
        monkeypatch.setattr(td.report, "theta_max", lambda tau, nd: result)
        payload = td.run(td.RunConfig(preset="bost-mestre", p=199)).payload
        field = payload["main_exponent"]
        assert field["sign"] == 1
        with mp.workprec(128):
            log10 = mp.mpf(field["ln"]) / mp.log(10)
            assert rel_err(log10, mp.mpf(payload["log10_main_exponent"]["dec"])) < 1e-28
        assert math.isclose(float(field["ln"]), 7.84e16, rel_tol=1e-2)
