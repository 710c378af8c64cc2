"""Queries on bound-chain values far beyond float range: their order, their
comparison with the integer v_p, their log10 and the report's exponent field.
Their construction and arithmetic are checked in test_bound_magnitudes.py.
"""

import math

import mpmath as mp
import pytest

import thetadist as td
from thetadist.bounds import BOUND_BITS


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
