from fractions import Fraction

import mpmath as mp
import pytest

import thetadist as td


class TestFaltingsHeightGamma:
    def test_half_integer_fixture(self):
        # Gamma(1/2) = sqrt(pi): constant 0, one term (1/2, 2) gives -log(pi)/2
        v = td.faltings_height_gamma(((Fraction(1, 2), 2),), 0)
        with mp.workprec(128):
            ref = -mp.log(mp.pi) / 2
        assert abs(v - ref) < mp.mpf("1e-35")

    def test_empty_terms_is_constant(self):
        assert td.faltings_height_gamma((), 1.25) == mp.mpf(1.25)

    def test_linearity_in_exponents(self):
        terms1 = ((Fraction(1, 5), 2), (Fraction(2, 5), 1))
        terms2 = ((Fraction(1, 5), 4), (Fraction(2, 5), 2))
        v1 = td.faltings_height_gamma(terms1, 0)
        v2 = td.faltings_height_gamma(terms2, 0)
        with mp.workprec(128):
            assert abs(v2 - 2 * v1) < mp.mpf("1e-30")

    def test_reflection_cancellation(self):
        # Gamma(a)Gamma(1-a) = pi/sin(pi a); equal exponents collapse to that
        terms = ((Fraction(1, 5), 1), (Fraction(4, 5), 1))
        v = td.faltings_height_gamma(terms, 0)
        with mp.workprec(128):
            ref = -mp.log(mp.pi / mp.sin(mp.pi / 5)) / 2
        assert abs(v - ref) < mp.mpf("1e-30")

    def test_rejects_argument_outside_unit_interval(self):
        with pytest.raises(td.InvalidInput):
            td.faltings_height_gamma(((Fraction(6, 5), 1),), 0)

    def test_precision_convergence(self):
        vals = []
        for bits in (64, 128, 256):
            vals.append(td.faltings_height_gamma(td.arakelov.FALTINGS_GAMMA_TERMS, 0, bits))
        assert abs(vals[0] - vals[2]) < mp.mpf(2) ** -56
        assert abs(vals[1] - vals[2]) < mp.mpf(2) ** -120


class TestZarDegreeAndD:
    def test_formula_against_hand_computation(self):
        data = td.CurveArithData(g=2, deg_K0=1, nt_omega=0.8, h_fal=-0.4)
        v = td.zar_degree(data)
        with mp.workprec(128):
            ref = mp.mpf("0.2") - mp.mpf("0.2") + mp.mpf(2) / 4 * mp.log(4 * mp.pi)
        assert abs(v - ref) < 1e-30

    def test_requires_good_reduction(self):
        data = td.CurveArithData(
            g=2,
            deg_K0=1,
            nt_omega=0.0,
            h_fal=-0.4,
            bad_primes=frozenset({3}),
            good_reduction_everywhere=False,
        )
        with pytest.raises(td.HypothesisViolated):
            td.zar_degree(data)

    def test_constant_D(self):
        data = td.CurveArithData(
            g=2, deg_K0=40, nt_omega=0.0, h_fal=-1.45, theta_max=1.066
        )
        v = td.constant_D(data)
        with mp.workprec(128):
            ref = 80 * abs(mp.log(mp.mpf(1.066)) + td.zar_degree(data))
            assert abs(v - ref) < mp.mpf("1e-25")

    def test_constant_D_requires_theta_max(self):
        data = td.CurveArithData(g=2, deg_K0=40, nt_omega=0.0, h_fal=-1.45)
        with pytest.raises(td.InvalidInput):
            td.constant_D(data)


class TestCurveArithData:
    def test_invariant_violations(self):
        with pytest.raises(td.InvalidInput):
            td.CurveArithData(g=1, deg_K0=1, nt_omega=0.0, h_fal=0.0)
        with pytest.raises(td.InvalidInput):
            td.CurveArithData(g=2, deg_K0=0, nt_omega=0.0, h_fal=0.0)
        with pytest.raises(td.InvalidInput):
            td.CurveArithData(g=2, deg_K0=1, nt_omega=-0.1, h_fal=0.0)
        with pytest.raises(td.InvalidInput):
            # good reduction everywhere contradicts a nonempty bad set
            td.CurveArithData(
                g=2, deg_K0=1, nt_omega=0.0, h_fal=0.0, bad_primes=frozenset({3})
            )
        with pytest.raises(td.InvalidInput):
            # hyperelliptic-fixed base point forces nt_omega = 0
            td.CurveArithData(
                g=2,
                deg_K0=1,
                nt_omega=0.5,
                h_fal=0.0,
                base_point_hyperelliptic_fixed=True,
            )


class TestCheckHypotheses:
    def test_all_satisfied_for_preset(self, preset):
        hyp = td.check_hypotheses(preset.data, 3, torsion_order=5)
        assert hyp.all_satisfied()
        assert hyp.violated_conditions() == []

    def test_even_prime_violates(self, preset):
        hyp = td.check_hypotheses(preset.data, 2)
        assert hyp.p_odd == td.arakelov.VIOLATED
        assert "(2) p > 2" in hyp.violated_conditions()
        assert not hyp.all_satisfied()

    def test_order_divisible_by_p_violates(self, preset):
        hyp = td.check_hypotheses(preset.data, 5, torsion_order=10)
        assert hyp.order_coprime_to_p == td.arakelov.VIOLATED

    def test_unknown_fields_stay_unknown(self, preset):
        hyp = td.check_hypotheses(preset.data, 3)
        assert hyp.order_coprime_to_p == td.arakelov.UNKNOWN
        assert not hyp.all_satisfied()
        data = td.CurveArithData(
            g=2, deg_K0=1, h_fal=0.0, good_reduction_everywhere=False, component_lcm=6
        )
        hyp = td.check_hypotheses(data, 3)
        assert hyp.good_reduction_at_p == td.arakelov.UNKNOWN
        assert hyp.neutral_component == td.arakelov.UNKNOWN

    def test_good_everywhere_implies_good_at_p(self, preset):
        hyp = td.check_hypotheses(preset.data, 3)
        assert hyp.good_reduction_at_p == td.arakelov.SATISFIED


class TestPreset:
    def test_bundle_shape(self, preset):
        assert preset.name == "bost-mestre-y2+y=x5"
        assert preset.data.g == 2
        assert preset.data.deg_K0 == 40
        assert preset.data.nt_omega == 0.0
        assert preset.data.good_reduction_everywhere
        assert preset.curve_coeffs == (1, 0, 0, 0, 0, 1)

    def test_period_matrix_from_fifth_root(self, preset):
        tau = preset.tau
        with mp.workprec(tau.bits + 16):
            z5 = mp.exp(2j * mp.pi / 5)
            assert abs(tau.tau[0, 0] + z5**4) < mp.mpf(2) ** -120
            assert abs(tau.tau[0, 1] - (z5**2 + 1)) < mp.mpf(2) ** -120
            assert abs(tau.tau[1, 1] - (z5**2 - z5**3)) < mp.mpf(2) ** -120
        assert tau.lambda_min > 0

    def test_h_fal_close_to_known_value(self, preset):
        ref = mp.mpf("-1.452509239645644650317707042")
        assert abs(mp.mpf(preset.data.h_fal) - ref) < 1e-15


DATA_D = td.CurveArithData(g=2, deg_K0=1, h_fal=0.0, theta_max=1.0)
# every function that takes a working precision, called at bits
BITS_ENTRY_POINTS = {
    "PeriodMatrix": lambda bits: td.PeriodMatrix([[1j]], bits=bits),
    "preset_period_matrix": td.preset_period_matrix,
    "bost_mestre_preset": td.bost_mestre_preset,
    "zar_degree": lambda bits: td.zar_degree(DATA_D, bits),
    "constant_D": lambda bits: td.constant_D(DATA_D, bits),
    "faltings_height_gamma": lambda bits: td.faltings_height_gamma((), 0, bits),
}


class TestBitsRange:
    @pytest.mark.parametrize("name", list(BITS_ENTRY_POINTS))
    @pytest.mark.parametrize("bits", [52, 2049, 10**400], ids=["52", "2049", "10**400"])
    def test_out_of_range_refused_before_workprec(self, name, bits):
        """A precision outside [53, 2048] raises InvalidInput before mpmath's
        precision is touched: mp.workprec(10**400) would raise OverflowError
        and leave mp.mp.prec at 10**400, and every later workprec would fail."""
        prec = mp.mp.prec
        with pytest.raises(td.InvalidInput, match="bits must be an integer from 53 to 2048"):
            BITS_ENTRY_POINTS[name](bits)
        assert mp.mp.prec == prec
        with mp.workprec(128):
            pass

    @pytest.mark.parametrize("name", list(BITS_ENTRY_POINTS))
    def test_range_ends_accepted(self, name):
        for bits in (53, 2048):
            BITS_ENTRY_POINTS[name](bits)
