import itertools
import random
import re
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import thetadist as td
from conftest import brute_theta

# frozen from the naive double-loop oracle (R = 30 at 250 bits)
S4_THETA0_RE = "1.0502862579537883794134248631481479"
S4_THETA0_IM = "-0.16634900114656232797813445567977354"


def set_radii(tau, z0, cfg, shells):
    """Per-axis box radii around the lattice set the working-precision sum
    runs over at a reduced point z0: its extent on each axis plus
    ``shells``."""
    rows = td.periods._lattice_set(tau, z0, cfg.working_precision_bits)
    lows, highs = td.periods._extent(rows)
    return [max(-lo, hi) + shells for lo, hi in zip(lows, highs)]


TAU_G3 = [
    [0.1 + 1.8j, 0.3 + 0.4j, -0.2 + 0.1j],
    [0.3 + 0.4j, -0.2 + 1.6j, 0.25 + 0.2j],
    [-0.2 + 0.1j, 0.25 + 0.2j, 0.4 + 1.7j],
]

# Siegel-reduced matrices with a large Y_22, where the double box's radii
# differ by axis: (4, 1) on both.
TAU_Y21 = [[1j, 0.3 + 0.4j], [0.3 + 0.4j, 21j]]
TAU_Y60 = [[1j, 0.3 + 0.4j], [0.3 + 0.4j, 60j]]
# Matrices with strongly coupled axes: Y = 10 [[1, 0.95], [0.95, 1]] (double
# box radii (4, 4)) and the Minkowski-reduced Y = 113 [[1, 1/2], [1/2, 1]],
# whose double box is {0}.
TAU_R10 = [[10j, 9.5j], [9.5j, 10j]]
TAU_A113 = [[113j, 56.5j], [56.5j, 113j]]
# Unreduced and strongly coupled, Y = 30 [[1, 0.99], [0.99, 1]]: radii (5, 5)
# and 4 x 4 cells of m, so the double kernels sum across cells.
TAU_C30 = [[30j, 29.7j], [29.7j, 30j]]
# Siegel-reduced, with Y = 200 [[2, 1], [1, 2]]: one complex exp per term
# exp(2 pi i (M'tau M/2 + M'tau m)) overflows at m = (1/2, 1/2) - 1/16, so a
# grid scan without the cell-centred terms returns NaN on an 8^4 midpoint grid.
TAU_COUPLED = [[400j, 200j], [200j, 400j]]


def per_term_norm_batch(tau, coords):
    """<s,s> with one complex exp per (point, lattice term) over the context's
    box: the unfactored sum, the reference for ``norm_batch``."""
    g = tau.g
    ctx = tau.lattice
    x = coords - np.round(coords)
    out = []
    for i in range(0, len(x), 1000):
        n, m = x[i : i + 1000, :g], x[i : i + 1000, g:]
        terms = np.exp(2j * np.pi * (ctx.quad[:, None] + ctx.M @ (n + m @ ctx.taun.T).T))
        gauss = np.exp(-2 * np.pi * np.einsum("ni,ij,nj->n", m, ctx.Y, m))
        out.append(ctx.scale * gauss * np.abs(terms.sum(axis=0)) ** 2)
    return np.concatenate(out)


# theta and theta_norm from brute_theta at 300 bits over the boxes |m_k| <= R
# with R = 9, 10, 5 and 6, a 1e-40 tail by a geometric majorant in lambda_min
# (the sums at R + 2 differ by less than 1e-44): (tau, z, Re theta, Im theta,
# theta_norm).
FROZEN_128 = [
    ("s4", (0.3 + 0.2j, -0.1 + 0.4j),
     "1.2573281757964903490774125287228952695030",
     "0.21323628025532574591080321204524827318983",
     "0.60782568394122881335350900589760264330941"),
    ("s4", (1.7 - 0.3j, 0.25 + 1.1j),
     "-112.18201851648166216859792684099291694692",
     "-23.621240246801501989167009105496681587809",
     "0.017944365442950343940105142514516386928411"),
    ("i", (0.4 + 0.3j,),
     "0.76448451162538062248677484765626497922311",
     "-0.16328879883371408609863297127983095523387",
     "0.34715577812811408786357773291391561471341"),
    ("0.8i", (0.1 + 0.2j, -0.3j, 0.45),
     "1.6354163524142758938024508533313341741952",
     "-0.20194825058291694805554493190969049954729",
     "0.69990909930843456954036217564037616706766"),
]

# diag(i, 400i): Siegel reduced; a box of one radius for a 1e-25 tail held a
# median of 491,977 terms at a reduced point, where a 2^-128 tail needs
# about a dozen
TAU_D400 = [[1j, 0], [0, 400j]]
# the matrices of the working-precision lattice-set tests; the preset is
# added by name
SET_TAUS = {"g3": TAU_G3, "y60": TAU_Y60, "r10": TAU_R10, "d400": TAU_D400}


def set_tau(name, tau_s4):
    if name == "s4":
        return tau_s4
    if name == "i":
        return td.PeriodMatrix([[1j]])
    return td.PeriodMatrix(SET_TAUS[name])


class TestTheta:
    def test_g1_value_matches_classical_constant(self, tau_g1, cfg):
        v = td.theta(tau_g1, td.ThetaPoint((0,)), cfg)
        with mp.workprec(200):
            ref = mp.pi ** mp.mpf("0.25") / mp.gamma(mp.mpf(3) / 4)
        assert abs(v - ref) < 2 * cfg.target_abs_error
        assert abs(v.imag) < cfg.target_abs_error

    def test_s4_theta_at_zero_regression(self, tau_s4, cfg):
        v = td.theta(tau_s4, td.ThetaPoint((0, 0)), cfg)
        with mp.workprec(200):
            ref = mp.mpc(mp.mpf(S4_THETA0_RE), mp.mpf(S4_THETA0_IM))
        assert abs(v - ref) < 2 * cfg.target_abs_error

    def test_evenness(self, tau_s4, cfg):
        rng = random.Random(11)
        for _ in range(10):
            z = tuple(
                complex(rng.uniform(-2, 2), rng.uniform(-1, 1)) for _ in range(2)
            )
            zm = tuple(-w for w in z)
            a = td.theta(tau_s4, td.ThetaPoint(z), cfg)
            b = td.theta(tau_s4, td.ThetaPoint(zm), cfg)
            assert abs(a - b) <= 2 * cfg.target_abs_error * max(1, abs(a))

    def test_truncation_soundness(self, tau_s4, cfg):
        """The sum over the lattice set at a reduced point against the
        independent oracle summed over the set's per-axis extent plus two
        shells, on tau = i, the preset and each matrix of SET_TAUS."""
        rng = random.Random(5)
        for name in ["i", "s4"] + list(SET_TAUS):
            tau = set_tau(name, tau_s4)
            for _ in range(5 if tau.g < 3 else 3):
                x = [rng.random() for _ in range(2 * tau.g)]
                z0 = td.reduce_to_fundamental(tau, td.maximize._lattice_point(tau, x))[0]
                a = td.periods._theta_reduced(tau, z0, cfg)
                b = brute_theta(tau, z0.z, set_radii(tau, z0, cfg, 2))
                assert abs(a - b) < 1e-35 * max(1, abs(a)), name

    @pytest.mark.parametrize("name", ["s4"] + list(SET_TAUS))
    def test_lattice_set_is_tight(self, name, tau_s4, cfg, monkeypatch):
        """At ten seeded points theta_norm's sum runs over at most twice the
        M whose term has modulus >= 2^-128 at the reduced point z0: exp(pi
        c'Yc - pi (M+c)'Y(M+c)) with c = Y^-1 Im z0, counted over a box
        around the set."""
        tau = set_tau(name, tau_s4)
        g = tau.g
        sets = []
        rows_of = tau.lattice.ellipsoid_rows
        monkeypatch.setattr(
            tau.lattice, "ellipsoid_rows", lambda *a: sets.append(rows_of(*a)) or sets[-1]
        )
        rng = np.random.default_rng(1)
        Y, Yinv = tau.lattice.Y, np.linalg.inv(tau.lattice.Y)
        for x in rng.random((10, 2 * g)):
            point = td.maximize._lattice_point(tau, x)
            td.theta_norm(tau, point, cfg)
            z0 = td.reduce_to_fundamental(tau, point)[0]
            summed = sum(hi - lo + 1 for _, lo, hi in sets[-1])
            c = Yinv @ np.array([float(w.imag) for w in z0.z])
            box = np.array(list(itertools.product(
                *(range(-r, r + 1) for r in set_radii(tau, z0, cfg, 2))
            )))
            q = np.einsum("li,ij,lj->l", box + c, Y, box + c)
            needed = int((q <= c @ Y @ c + 128 * np.log(2) / np.pi).sum())
            assert needed <= summed <= 2 * needed

    @pytest.mark.parametrize("name", ["s4", "g3"])
    def test_derivatives_match_oracle(self, name, tau_s4, cfg):
        """Newton's gradient and Hessian against mp.diff of the oracle summed
        over the lattice set's extent plus one shell: first derivatives
        along each axis, and second derivatives along e_i + e_j, which are
        v'Hv.  brute_theta is exact to 2^-200, so
        a step of 2^-50 leaves finite-difference errors near 1e-30."""
        tau = tau_s4 if name == "s4" else td.PeriodMatrix(TAU_G3)
        g = tau.g
        with mp.workprec(cfg.working_precision_bits):
            z = [0.3 + 0.1 * i + sum(tau.tau[i, j] * (0.3 - 0.05 * j) for j in range(g))
                 for i in range(g)]
        z0 = td.ThetaPoint(tuple(z))
        _, d1, d2 = td.periods._theta_reduced(tau, z0, cfg, derivs=True)
        R = set_radii(tau, z0, cfg, 1)
        unit = [[int(i == k) for k in range(g)] for i in range(g)]
        with mp.workprec(200):
            h = mp.mpf(2) ** -50
            center = brute_theta(tau, z0.z, R)

            def along(v, order):
                def f(t):
                    if t == 0:
                        return center
                    return brute_theta(tau, [w + t * c for w, c in zip(z0.z, v)], R)

                return mp.diff(f, 0, order, h=h)

            for i in range(g):
                ref = along(unit[i], 1)
                assert abs(d1[i] - ref) <= 1e-20 * max(1, abs(ref))
                for j in range(i + 1):
                    v = [a + b for a, b in zip(unit[i], unit[j])]
                    ref = along(v, 2)
                    got = sum(v[k] * v[l] * d2[k, l] for k in range(g) for l in range(g))
                    assert abs(got - ref) <= 1e-20 * max(1, abs(ref))

    def test_oracle_agreement_random_points(self, tau_s4, cfg):
        rng = random.Random(7)
        for _ in range(100):
            z = tuple(
                complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4))
                for _ in range(2)
            )
            a = td.theta(tau_s4, td.ThetaPoint(z), cfg)
            b = brute_theta(tau_s4, z, R=12, bits=160)
            assert abs(a - b) <= 2 * cfg.target_abs_error

    def test_invalid_period_matrix(self):
        with pytest.raises(td.InvalidPeriodMatrix):
            td.PeriodMatrix([[1j, 0.5], [0.2, 1j]])  # not symmetric
        with pytest.raises(td.InvalidPeriodMatrix):
            td.PeriodMatrix([[-1j]])  # Im not positive definite

    @pytest.mark.parametrize("case", FROZEN_128, ids=lambda c: f"{c[0]}-{c[1]}")
    def test_values_bit_identical(self, case, tau_s4, cfg):
        """theta and theta_norm do not depend on whether derivatives are summed."""
        name, z, re, im, norm = case
        tau = {
            "s4": tau_s4,
            "i": td.PeriodMatrix([[1j]]),
            "0.8i": td.PeriodMatrix([[0.8j, 0, 0], [0, 0.8j, 0], [0, 0, 0.8j]]),
        }[name]
        point = td.ThetaPoint(z)
        with mp.workprec(cfg.working_precision_bits):
            th = td.theta(tau, point, cfg)
            assert abs(th - mp.mpc(re, im)) <= 1e-35 * abs(th)
            nv = td.theta_norm(tau, point, cfg)
            assert abs(nv - mp.mpf(norm)) <= 1e-35 * nv
            z0 = td.reduce_to_fundamental(tau, point)[0]
            th = td.periods._theta_reduced(tau, z0, cfg)
            assert td.periods._theta_reduced(tau, z0, cfg, derivs=True)[0] == th

    def test_precision_floor_rejected(self):
        with pytest.raises(td.PrecisionTooLow):
            td.PrecisionConfig(working_precision_bits=64, target_abs_error=1e-30)


class TestReduceToFundamental:
    def test_identity_inside_cell(self, tau_g1):
        z0, m, n, lm = td.reduce_to_fundamental(tau_g1, td.ThetaPoint((0.25 + 0.5j,)))
        assert m == (0,) and n == (0,)
        assert abs(lm) == 0

    def test_g1_example(self, tau_g1, cfg):
        z = td.ThetaPoint((3 + 2j,))
        z0, m, n, lm = td.reduce_to_fundamental(tau_g1, z)
        assert m == (2,) and n == (3,)
        assert abs(z0.z[0]) < 1e-30
        with mp.workprec(cfg.working_precision_bits):
            lhs = abs(td.theta(tau_g1, z, cfg))
            rhs = abs(mp.exp(lm) * td.theta(tau_g1, z0, cfg))
        assert abs(lhs - rhs) < 1e-12 * max(1, lhs)

    def test_g2_pure_lattice_vector(self, tau_s4):
        with mp.workprec(tau_s4.bits):
            z = tuple(tau_s4.tau[i, 0] + tau_s4.tau[i, 1] for i in range(2))
        z0, m, n, _ = td.reduce_to_fundamental(tau_s4, td.ThetaPoint(z))
        assert m == (1, 1)
        assert max(abs(w) for w in z0.z) < 1e-30


class TestThetaNorm:
    def test_g1_value_at_zero(self, tau_g1, cfg):
        v = td.theta_norm(tau_g1, td.ThetaPoint((0,)), cfg)
        with mp.workprec(200):
            ref = abs(mp.pi ** mp.mpf("0.25") / mp.gamma(mp.mpf(3) / 4)) ** 2
        assert abs(v - ref) < 1e-20

    def test_lattice_invariance(self, tau_s4, cfg):
        rng = random.Random(3)
        base = td.ThetaPoint((0.3 + 0.2j, -0.1 + 0.4j))
        v0 = td.theta_norm(tau_s4, base, cfg)
        for _ in range(6):
            m = [rng.randint(-3, 3) for _ in range(2)]
            n = [rng.randint(-3, 3) for _ in range(2)]
            with mp.workprec(tau_s4.bits):
                z = tuple(
                    base.z[i]
                    + sum(tau_s4.tau[i, j] * m[j] for j in range(2))
                    + n[i]
                    for i in range(2)
                )
            v = td.theta_norm(tau_s4, td.ThetaPoint(z), cfg)
            assert abs(v - v0) <= 1e-10 * v0

    def test_s4_value_at_argmax_matches_paper_square(self, tau_s4, cfg, s4_theta_max):
        coords = s4_theta_max.argmax_coords
        with mp.workprec(cfg.working_precision_bits):
            z = tuple(
                coords[i] + sum(tau_s4.tau[i, j] * coords[2 + j] for j in range(2))
                for i in range(2)
            )
            v = td.theta_norm(tau_s4, td.ThetaPoint(z), cfg)
            paper = mp.mpf("1.06639277369136206671054075") ** 2
        assert abs(v - paper) < 1e-10


class TestNormalization:
    def test_g1_grid(self, tau_g1):
        est, ref = td.theta_norm_normalization_check(tau_g1, 512 * 512)
        assert ref == pytest.approx(2 ** -0.5, abs=1e-15)
        assert abs(est - ref) < 1e-6

    def test_g1_tau_2i(self):
        tau = td.PeriodMatrix([[2j]])
        est, ref = td.theta_norm_normalization_check(tau, 512 * 512)
        assert abs(est - ref) < 1e-6

    def test_g2_grid(self, tau_s4):
        est, ref = td.theta_norm_normalization_check(tau_s4, 10**6)
        assert ref == 0.5
        assert abs(est - ref) < 1e-14

    @pytest.mark.parametrize(
        "name, budget", [("s4", 10**3), ("s4", 10**5), ("s4", 10**6), ("g3", 10**6)]
    )
    def test_exact_at_every_budget(self, name, budget, tau_s4):
        """The midpoint grid average of the lattice-periodic, real-analytic
        norm is exact to rounding already at nd = 5 on the preset."""
        tau = tau_s4 if name == "s4" else td.PeriodMatrix(TAU_G3)
        est, ref = td.theta_norm_normalization_check(tau, budget)
        assert ref == 2.0 ** (-tau.g / 2)
        assert abs(est - ref) < 1e-14

    def test_raises_when_grid_cannot_resolve_m(self):
        """A large Im tau_kk makes the norm's Gaussian in m narrower than the
        31^4 grid of budget 10^6 resolves: the aliasing bound is 2.3e-2 on
        diag(i, 400i), whose average came out 0.4770, and 2.0e-2 on
        TAU_COUPLED.  The check raises instead of returning a wrong value."""
        for entries in ([[1j, 0], [0, 400j]], TAU_COUPLED):
            with pytest.raises(td.BudgetExceeded, match="aliasing bound"):
                td.theta_norm_normalization_check(td.PeriodMatrix(entries), 10**6)

    def test_budget_guard(self, tau_g1):
        with pytest.raises(td.InvalidInput):
            td.theta_norm_normalization_check(tau_g1, 100)


class TestNormBatch:
    def test_chunks_bound_memory_at_g3(self):
        """tau = 0.8i I_3 has an 11^3 box, so 20,000 points in one chunk would
        hold 20,000 x 1,331 complex values (426 MB) per temporary."""
        tau = td.PeriodMatrix([[0.8j, 0, 0], [0, 0.8j, 0], [0, 0, 0.8j]])
        coords = np.random.default_rng(7).random((20000, 6))
        tracemalloc.start()
        try:
            vals = td.periods.norm_batch(tau, coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 300e6
        small = np.concatenate(
            [td.periods.norm_batch(tau, coords[i : i + 500]) for i in range(0, 20000, 500)]
        )
        np.testing.assert_allclose(vals, small, rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coords(self, bad, tau_s4):
        coords = np.array([[0.1, 0.2, 0.2, 0.3], [0.1, bad, 0.2, 0.3]])
        with pytest.raises(td.InvalidInput):
            td.periods.norm_batch(tau_s4, coords)
        with pytest.raises(td.InvalidInput):
            td.periods._theta_batch(tau_s4, coords[1:], derivs=True)

    def test_empty_batch(self, tau_s4):
        assert td.periods.norm_batch(tau_s4, np.empty((0, 4))).shape == (0,)
        s, d1, d2 = td.periods._theta_batch(tau_s4, np.empty((0, 4)), derivs=True)
        assert (s.shape, d1.shape, d2.shape) == ((0,), (0, 2), (0, 2, 2))

    @pytest.mark.parametrize(
        "name, points",
        [
            ("i", 20), ("s4", 20), ("g3", 8), ("y21", 12), ("y60", 6), ("r10", 8),
            ("a113", 40), ("coupled", 6), ("d400", 12),
        ],
    )
    def test_matches_theta_norm(self, name, points, tau_s4, cfg):
        """Against the 128-bit sum, which shares no code with the batch kernel
        beyond the lattice context.  Near a zero of theta both lose all
        relative digits, so the relative bound applies where <s,s> is above
        1e-6 of the batch maximum; elsewhere the bound is absolute."""
        tau = {
            "i": td.PeriodMatrix([[1j]]),
            "s4": tau_s4,
            "g3": td.PeriodMatrix(TAU_G3),
            "y21": td.PeriodMatrix(TAU_Y21),
            "y60": td.PeriodMatrix(TAU_Y60),
            "r10": td.PeriodMatrix(TAU_R10),
            "a113": td.PeriodMatrix(TAU_A113),
            "coupled": td.PeriodMatrix(TAU_COUPLED),
            "d400": td.PeriodMatrix(TAU_D400),
        }[name]
        coords = np.random.default_rng(17).random((points, 2 * tau.g))
        if name in ("coupled", "d400"):
            # the norm is below 1e-20 of its maximum except near the integer
            # m, where it is a Gaussian of width about 1/sqrt(4 pi Y_22)
            coords[:, tau.g :] /= 20
        fast = td.periods.norm_batch(tau, coords)
        with mp.workprec(cfg.working_precision_bits):
            zs = [td.maximize._lattice_point(tau, [float(v) for v in x]) for x in coords]
        ref = np.array([float(td.theta_norm(tau, z, cfg)) for z in zs])
        big = ref > 1e-6 * ref.max()
        assert big.sum() >= 2
        assert np.abs(fast - ref).max() <= 1e-12 * ref.max()
        assert (np.abs(fast - ref)[big] <= 1e-12 * ref[big]).all()

    @pytest.mark.parametrize("name", ["s4", "g3", "y21", "c30"])
    def test_matches_per_term_sum(self, name, tau_s4):
        """The factored sum against one exp per lattice term on 20,000
        uniform points, to 1e-13 of the batch maximum.  TAU_C30 splits the
        points into 4 x 4 cells of m."""
        tau = {"s4": tau_s4, "g3": td.PeriodMatrix(TAU_G3), "y21": td.PeriodMatrix(TAU_Y21),
               "c30": td.PeriodMatrix(TAU_C30)}[name]
        coords = np.random.default_rng(23).random((20000, 2 * tau.g))
        ref = per_term_norm_batch(tau, coords)
        assert np.abs(td.periods.norm_batch(tau, coords) - ref).max() <= 1e-13 * ref.max()


class TestSqrtNormGrid:
    @pytest.mark.parametrize(
        "name, nd, offset",
        [
            ("s4", 8, 0.0), ("s4", 16, 0.5), ("i", 256, 0.0), ("g3", 6, 0.0),
            ("coupled", 8, 0.5), ("r10", 12, 0.0), ("c30", 12, 0.5),
        ],
    )
    def test_matches_norm_batch(self, name, nd, offset, tau_s4):
        """The separable scan against norm_batch at every grid point.  The
        preset's box has 2R_k+1 = 11 > 8 and the g = 3 box 7 > 6, where an FFT
        of length nd would alias.  TAU_C30 has 4 x 4 cells of m.  Both
        kernels take their terms from the lattice context, so the scan is
        also checked against the unfactored sum, one exp per term, except on
        TAU_C30, where those terms reach e^94 before the Gaussian factor."""
        tau = {
            "s4": tau_s4,
            "i": td.PeriodMatrix([[1j]]),
            "g3": td.PeriodMatrix(TAU_G3),
            "coupled": td.PeriodMatrix(TAU_COUPLED),
            "r10": td.PeriodMatrix(TAU_R10),
            "c30": td.PeriodMatrix(TAU_C30),
        }[name]
        grid = td.periods.sqrt_norm_grid(tau, nd, offset)
        assert grid.shape == (nd,) * (2 * tau.g)
        assert np.isfinite(grid).all()
        axis = (np.arange(nd) + offset) / nd
        coords = np.array(list(itertools.product(axis, repeat=2 * tau.g)))
        ref = np.sqrt(td.periods.norm_batch(tau, coords))
        assert np.abs(grid.ravel() - ref).max() <= 1e-14 * grid.max()
        if name != "c30":
            ref = np.sqrt(per_term_norm_batch(tau, coords))
            assert np.abs(grid.ravel() - ref).max() <= 1e-14 * grid.max()


class TestLatticeContext:
    @pytest.mark.parametrize("name", ["s4", "g3"])
    def test_warm_theta_norm_makes_g_plus_two_exps(self, name, tau_s4, cfg, monkeypatch):
        """Once the phase table holds a point's lattice set, a theta_norm
        call exponentiates only per axis, plus the norm's Gaussian factor."""
        tau = tau_s4 if name == "s4" else td.PeriodMatrix(TAU_G3)
        point = td.ThetaPoint(tuple(0.3 + 0.2j - 0.1j * i for i in range(tau.g)))
        td.theta_norm(tau, point, cfg)
        calls = []
        exp = mp.exp
        monkeypatch.setattr(mp, "exp", lambda x: calls.append(x) or exp(x))
        td.theta_norm(tau, point, cfg)
        assert 0 < len(calls) <= tau.g + 2

    def test_double_kernels_reuse_radius(self, monkeypatch):
        tau = td.PeriodMatrix(TAU_G3)
        coords = np.random.default_rng(3).random((50, 6))
        first = td.periods.norm_batch(tau, coords)
        grid = td.periods.sqrt_norm_grid(tau, 4)
        calls = []
        radius = td.periods._ellipsoid_radius2
        monkeypatch.setattr(
            td.periods, "_ellipsoid_radius2", lambda *a: calls.append(a) or radius(*a)
        )
        assert np.array_equal(td.periods.norm_batch(tau, coords), first)
        assert np.array_equal(td.periods.sqrt_norm_grid(tau, 4), grid)
        assert calls == []

    @pytest.mark.parametrize("name", ["s4", "g3", "y60", "r10", "c30", "d400"])
    def test_box_holds_every_point_set(self, name, tau_s4):
        """The double kernels sum the box |M_k| <= R_k.  At m in [-1/2, 1/2]^g
        their terms have modulus exp(-pi (M+m)'Y(M+m)), and those outside
        the set {M : (M+m)'Y(M+m) <= r^2}, r^2 from the 2^-60 ellipsoid
        bound with c'Yc taken as 0 and |c| <= sqrt(g)/2, sum to at most
        2^-60.  Every row of that set lies in the box, at seeded m and at
        the corners of the half cell."""
        tau = tau_s4 if name == "s4" else td.PeriodMatrix({**SET_TAUS, "c30": TAU_C30}[name])
        g, ctx = tau.g, tau.lattice
        r2 = td.periods._ellipsoid_radius2(g, float(tau.lambda_min), 0.0, np.sqrt(g) / 2, 60)
        corners = np.array(list(itertools.product((-0.5, 0.5), repeat=g)))
        ms = np.vstack([np.random.default_rng(9).random((200, g)) - 0.5, corners])
        sets = [ctx.ellipsoid_rows(m.tolist(), r2) for m in ms]
        assert sum(map(len, sets)) > len(ms)
        for m, rows in zip(ms, sets):
            for prefix, lo, hi in rows:
                assert all(abs(k) <= r for k, r in zip(prefix, ctx.R)), (name, m)
                assert -ctx.R[-1] <= lo and hi <= ctx.R[-1], (name, m)

    @pytest.mark.parametrize("eps", [1e-6, 1e-10])
    def test_near_singular_y_fails_fast(self, eps):
        """Y = [[1, 1 - eps], [1 - eps, 1]] would need a double box of tens
        of millions of terms or more; the context raises before building
        any array, and says how large the box is."""
        start = time.perf_counter()
        tau = td.PeriodMatrix([[1j, (1 - eps) * 1j], [(1 - eps) * 1j, 1j]])
        with pytest.raises(td.BudgetExceeded) as info:
            td.periods.norm_batch(tau, np.zeros((1, 4)))
        assert time.perf_counter() - start < 1
        terms = re.search(r"holds ([\d,]+) lattice terms", str(info.value)).group(1)
        assert int(terms.replace(",", "")) > td.periods._BATCH_TERMS

    def test_newton_builds_cell_table_once(self, tau_s4, monkeypatch):
        """The context keeps its last cell table, so Newton in doubles on the
        preset (one cell) builds it once for all its one-point steps."""
        tau = td.PeriodMatrix(tau_s4.tau.tolist())
        ctx = tau.lattice
        builds, steps = [], []
        build, batch = ctx._build_cell_table, td.maximize._theta_batch
        monkeypatch.setattr(ctx, "_build_cell_table", lambda c: builds.append(c) or build(c))
        monkeypatch.setattr(
            td.maximize, "_theta_batch", lambda *a, **k: steps.append(a) or batch(*a, **k)
        )
        assert td.maximize._newton_double(tau, np.array([3, 29, 26, 3]) / 32) is not None
        assert len(steps) >= 3
        assert len(builds) == 1

    def test_tables_keyed_by_precision(self, tau_s4, cfg):
        """A 192-bit sum after a 128-bit one on the same tau uses its own
        table: it equals the sum on a fresh tau, and the 128-bit value to
        the tail bound."""
        hi = td.PrecisionConfig(working_precision_bits=192, target_abs_error=1e-25)
        tau = td.PeriodMatrix(tau_s4.tau.tolist())
        point = td.ThetaPoint((1.7 - 0.3j, 0.25 + 1.1j))
        low = td.theta(tau, point, cfg)
        high = td.theta(tau, point, hi)
        assert high == td.theta(td.PeriodMatrix(tau_s4.tau.tolist()), point, hi)
        with mp.workprec(192):
            assert abs(high - low) < 1e-25 * max(1, abs(high))
