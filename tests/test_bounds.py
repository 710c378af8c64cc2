import math

import mpmath as mp
import pytest

import thetadist as td
from thetadist.bounds import BOUND_BITS


def ln(x):
    with mp.workprec(BOUND_BITS):
        return mp.log(x)


class TestBu:
    def test_exact_values_g2(self):
        assert td.bu(1, 2) == 252
        assert td.bu(3, 2) == 26244
        assert td.bu(2, 2) == (2 * 2 + 12) * 2**4 * 9 * 2

    def test_formula_structure(self):
        for g in (2, 3, 4):
            for m in (1, 2, 5):
                v = td.bu(m, g)
                assert v % math.factorial(g) == 0
                assert v % 3**g == 0
                assert v == (m * (2 * g - 2) + 6 * g) * m ** (2 * g) * 3**g * math.factorial(g)

    def test_monotone_in_m(self):
        vals = [td.bu(m, 2) for m in range(1, 10)]
        assert vals == sorted(vals)

    def test_rejects_bad_m(self):
        with pytest.raises(td.InvalidInput):
            td.bu(0, 2)


class TestLBound:
    def test_l_2_1_matches_exact_big_integer(self):
        """L_{2,1} for g = 2: the inner sum has integer exponents, so the
        whole value is an exact big integer."""
        b = td.bu(1, 2)  # 252
        inner = 2 ** (2 * b) + 11 * 2**b + 4 * 2 ** (3 * b // 2)
        exact = inner**16
        v = td.l_bound(2, 1, 2)
        with mp.workprec(400):
            ref = mp.log(mp.mpf(exact))
        assert abs(ln(v) - ref) < mp.mpf("1e-25") * ref

    def test_leading_term_dominates(self):
        # log L_{n,m} ~ 4g^2 * Bu_m * g * log n within 0.1% for large n
        g, m, n = 2, 3, 10**6
        v = td.l_bound(n, m, g)
        lead = 4 * g * g * td.bu(m, g) * g * math.log(n)
        assert abs(float(ln(v)) - lead) / lead < 1e-3

    def test_accepts_mpf_n(self):
        with mp.workprec(BOUND_BITS):
            n = mp.exp(40 * mp.log(3))  # 3^40 to within rounding
        a = td.l_bound(n, 3, 2)
        b = td.l_bound(3**40, 3, 2)
        assert abs(ln(a) - ln(b)) < mp.mpf("1e-25") * ln(b)

    def test_rejects_small_n(self):
        with pytest.raises(td.InvalidInput):
            td.l_bound(1, 1, 2)

    def test_is_degree_bound_of_hasse_weil(self):
        """L_{n,m} = degree_bound(hasse_weil_card_bound(n, Bu_m, g), g)
        exactly, for the preset's H_3 (n = 3^40) and two more."""
        assert td.l_bound(3**40, 3, 2) == td.h_bound(3, 2, 40)
        for n, m, g in ((3**40, 3, 2), (2, 1, 2), (27, 7, 3)):
            a = td.l_bound(n, m, g)
            b = td.degree_bound(td.hasse_weil_card_bound(n, td.bu(m, g), g), g)
            assert a == b


class TestHBound:
    def test_equals_l_at_power(self):
        # H_m = L_{m^[K0:Q], m}
        a = td.h_bound(3, 2, 5)
        b = td.l_bound(3**5, 3, 2)
        assert abs(ln(a) - ln(b)) < mp.mpf("1e-25") * ln(b)

    def test_rejects_small_m(self):
        with pytest.raises(td.InvalidInput):
            td.h_bound(1, 2, 40)


class TestHasseWeil:
    def test_hand_value_g2(self):
        # q=5, d=1, g=2: 25 + 11*5 + 4*5^(3/2)
        v = td.hasse_weil_card_bound(5, 1, 2)
        ref = 25 + 55 + 4 * 5**1.5
        assert abs(float(v) - ref) < 1e-10

    def test_hand_value_g1(self):
        # q=2, d=1, g=1: 2 + 1 + 2*sqrt(2)
        v = td.hasse_weil_card_bound(2, 1, 1)
        assert abs(float(v) - (3 + 2 * math.sqrt(2))) < 1e-12

    def test_dominates_weil_interval(self, curve):
        # the bound must exceed the true Jacobian cardinality
        for p in (3, 7):
            v = td.hasse_weil_card_bound(p, 1, 2)
            assert float(v) >= td.jacobian_order_mod_p(curve, p)

    def test_monotone_in_d(self):
        vals = [td.hasse_weil_card_bound(3, d, 2) for d in (1, 2, 5, 10)]
        assert vals == sorted(vals)

    def test_rejects_bad_args(self):
        with pytest.raises(td.InvalidInput):
            td.hasse_weil_card_bound(1, 1, 2)
        with pytest.raises(td.InvalidInput):
            td.hasse_weil_card_bound(3, 0, 2)


class TestParamsAndExponents:
    def test_bound_params_validation(self):
        td.BoundParams(g=2, deg_K0=40, p=3, q=3**40)
        with pytest.raises(td.InvalidInput):
            td.BoundParams(g=1, deg_K0=40, p=3, q=3)
        with pytest.raises(td.InvalidInput):
            td.BoundParams(g=2, deg_K0=40, p=4, q=4)
        with pytest.raises(td.InvalidInput):
            td.BoundParams(g=2, deg_K0=40, p=3, q=6)  # not a power of p
        with pytest.raises(td.InvalidInput):
            td.BoundParams(g=2, deg_K0=2, p=3, q=3**3)  # f > [K0:Q]

    def test_order_bound_is_hw_at_bu(self):
        params = td.BoundParams(g=2, deg_K0=40, p=3, q=3)
        a = td.order_bound(params)
        b = td.hasse_weil_card_bound(3, td.bu(3, 2), 2)
        assert a == b

    def test_degree_bound(self):
        v = td.degree_bound(2, 2)
        with mp.workprec(BOUND_BITS):
            assert abs(ln(v) - 16 * mp.log(2)) < mp.mpf("1e-30")
        with pytest.raises(td.InvalidInput):
            td.degree_bound(0.5, 2)

    def test_main_exponent(self):
        H = td.h_bound(3, 2, 40)
        e = td.tate_voloch_exponent_main(2.0, H)
        # 1 + 2*H ~ 2*H on log scale for astronomically large H
        with mp.workprec(BOUND_BITS):
            ref = mp.log(2) + ln(H)
        assert abs(ln(e) - ref) < mp.mpf("1e-20")
        assert td.tate_voloch_exponent_main(0.0, H) == 1
        with pytest.raises(td.InvalidInput):
            td.tate_voloch_exponent_main(-1.0, H)

    def test_sharp_exponent(self):
        params = td.BoundParams(g=2, deg_K0=40, p=3, q=3**40)
        e = td.tate_voloch_exponent_sharp(params, 0.6035)
        lq = td.l_bound(3**40, 3, 2)
        with mp.workprec(BOUND_BITS):
            ref = mp.log(2 * 40 * mp.mpf("0.6035")) + ln(lq)
        assert abs(ln(e) - ref) < mp.mpf("1e-18") * ref
        assert td.tate_voloch_exponent_sharp(params, 0.0) == 1

    def test_sharp_below_main_for_small_residue_degree(self):
        # with q = p the actual-residue bound is far below the worst case
        params = td.BoundParams(g=2, deg_K0=40, p=3, q=3)
        sharp = td.tate_voloch_exponent_sharp(params, 0.6035)
        main = td.tate_voloch_exponent_main(
            2 * 40 * 0.6035, td.h_bound(3, 2, 40)
        )
        assert sharp < main


class TestAdmissiblePrime:
    def test_preset_primes(self, preset):
        assert td.admissible_prime(3, preset.data)
        assert td.admissible_prime(7, preset.data)
        assert not td.admissible_prime(2, preset.data)
        assert not td.admissible_prime(5, preset.data)  # ramified: 5 | disc

    def test_bad_prime_and_component_group(self):
        data = td.CurveArithData(
            g=2,
            deg_K0=1,
            nt_omega=0.0,
            h_fal=-1.0,
            bad_primes=frozenset({11}),
            disc=1,
            component_lcm=7,
            good_reduction_everywhere=False,
        )
        assert not td.admissible_prime(11, data)
        assert not td.admissible_prime(7, data)
        assert td.admissible_prime(3, data)
