import itertools
import math
import random
import re
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import thetadist as td
from conftest import brute_theta, brute_theta_derivs, lattice_point

# frozen from the naive double-loop oracle (R = 30 at 250 bits)
S4_THETA0_RE = "1.0502862579537883794134248631481479"
S4_THETA0_IM = "-0.16634900114656232797813445567977354"


def set_radii(tau, m, shells):
    """Per-axis box radii around the lattice set the sum at tau's precision
    runs over at lattice coordinates (n, m): its extent on each axis plus
    ``shells``."""
    rows = td.periods._lattice_set(tau, m)
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
    """<s,s> with one complex exp per (point, lattice term) over tau's
    box: the unfactored sum, the reference for ``norm_batch``."""
    g = tau.g
    x = coords - np.round(coords)
    out = []
    for i in range(0, len(x), 1000):
        n, m = x[i : i + 1000, :g], x[i : i + 1000, g:]
        terms = np.exp(2j * np.pi * (tau.quad[:, None] + tau.M @ (n + m @ tau.tau_np.T).T))
        gauss = np.exp(-2 * np.pi * np.einsum("ni,ij,nj->n", m, tau.Y_np, m))
        out.append(tau.scale * gauss * np.abs(terms.sum(axis=0)) ** 2)
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
    def test_g1_value_matches_classical_constant(self, tau_g1):
        v = td.theta(tau_g1, td.ThetaPoint((0,)))
        with mp.workprec(200):
            ref = mp.pi ** mp.mpf("0.25") / mp.gamma(mp.mpf(3) / 4)
        assert abs(v - ref) < 2e-25
        assert abs(v.imag) < 1e-25

    def test_s4_theta_at_zero_regression(self, tau_s4):
        v = td.theta(tau_s4, td.ThetaPoint((0, 0)))
        with mp.workprec(200):
            ref = mp.mpc(mp.mpf(S4_THETA0_RE), mp.mpf(S4_THETA0_IM))
        assert abs(v - ref) < 2e-25

    def test_evenness(self, tau_s4):
        rng = random.Random(11)
        for _ in range(10):
            z = tuple(
                complex(rng.uniform(-2, 2), rng.uniform(-1, 1)) for _ in range(2)
            )
            zm = tuple(-w for w in z)
            a = td.theta(tau_s4, td.ThetaPoint(z))
            b = td.theta(tau_s4, td.ThetaPoint(zm))
            assert abs(a - b) <= 2e-25 * max(1, abs(a))

    def test_truncation_soundness(self, tau_s4):
        """s over the lattice set at x in [-1/2, 1/2)^{2g}, where theta_norm
        and Newton sum, against the independent oracle summed over the
        set's per-axis extent plus two shells, times exp(-pi m'Ym), on tau =
        i, the preset and each matrix of SET_TAUS."""
        rng = random.Random(5)
        for name in ["i", "s4"] + list(SET_TAUS):
            tau = set_tau(name, tau_s4)
            g = tau.g
            for _ in range(5 if g < 3 else 3):
                x = [rng.random() - 0.5 for _ in range(2 * g)]
                a = td.periods._theta_point(tau, x)
                m = x[g:]
                with mp.workprec(200):
                    q = sum(m[i] * tau.Y_rows[i][j] * m[j] for i in range(g) for j in range(g))
                    b = brute_theta(tau, lattice_point(tau, x, 200).z, set_radii(tau, m, 2))
                    b *= mp.exp(-mp.pi * q)
                assert abs(a - b) < 1e-35 * max(1, abs(a)), name

    @pytest.mark.parametrize("name", ["y60", "r10", "coupled"])
    def test_integer_kernel_dynamic_range(self, name):
        """s and its derivatives from the integer kernel at 128, 192 and 256
        bits against the oracle, within the error bound ``_theta_point``
        documents: N (7 + 3g + 10 max |M|_1) 2^-(bits + 32) for the N terms of
        the set, times the derivative weight (2 pi max |M_k|)^order, plus
        2^-bits for the tail and 2^-bits of the value for the final rounding.
        The points are the corners m = +-1/2, where the per-axis powers are
        largest (up to exp(600 pi) per step on TAU_COUPLED), and seeded
        unrecentred coordinates in [0, 1), where ``theta`` sums.  One oracle
        sum at 320 bits over the 256-bit set's extent plus two shells serves
        all three bit counts."""
        entries = {"y60": TAU_Y60, "r10": TAU_R10, "coupled": TAU_COUPLED}[name]
        taus = {bits: td.PeriodMatrix(entries, bits=bits) for bits in (128, 192, 256)}
        tau = taus[256]
        g = tau.g
        corners = [[0.3, -0.2] + list(m) for m in itertools.product((-0.5, 0.5), repeat=g)]
        points = corners + np.random.default_rng(4).random((2, 2 * g)).tolist()
        for x in points:
            m = x[g:]
            with mp.workprec(320):
                q = mp.fsum(m[i] * tau.Y_rows[i][j] * m[j] for i in range(g) for j in range(g))
                z = lattice_point(tau, x, 320).z
                th, grad, hess = brute_theta_derivs(tau, z, set_radii(tau, m, 2), bits=320)
                factor = mp.exp(-mp.pi * q)
                refs = [[th * factor], [v * factor for v in grad],
                        [v * factor for row in hess for v in row]]
            for bits, tau_b in taus.items():
                rows = td.periods._lattice_set(tau_b, m)
                terms = sum(hi - lo + 1 for _, lo, hi in rows)
                l1 = max(sum(map(abs, p)) + max(-lo, hi) for p, lo, hi in rows)
                big = max(max(map(abs, p + (lo, hi))) for p, lo, hi in rows)
                arith = terms * (7 + 3 * g + 10 * l1) * mp.mpf(2) ** -(bits + 32)
                s = td.periods._theta_point(tau_b, x)
                got = td.periods._theta_point(tau_b, x, derivs=True)
                assert got[0] == s
                for order, (value, ref) in enumerate(zip(got, refs)):
                    weight = (2 * mp.pi * max(big, 1)) ** order
                    for v, r in zip(np.ravel(value), ref):
                        tol = weight * (arith + mp.mpf(2) ** -bits) + abs(r) * mp.mpf(2) ** -bits
                        assert abs(v - r) <= tol, (name, x, bits, order)

    @pytest.mark.parametrize("name", ["s4"] + list(SET_TAUS))
    def test_lattice_set_is_tight(self, name, tau_s4, monkeypatch):
        """At ten seeded points theta_norm's sum runs over at most twice the
        M whose term has modulus >= 2^-128 where the sum runs, at the
        coordinates (n, c) of z recentred to [-1/2, 1/2): exp(pi c'Yc - pi
        (M+c)'Y(M+c)), counted over a box around the set."""
        tau = set_tau(name, tau_s4)
        g = tau.g
        sets = []
        rows_of = tau.ellipsoid_rows
        monkeypatch.setattr(
            tau,
            "ellipsoid_rows",
            lambda c, r2: sets.append((c, rows_of(c, r2))) or sets[-1][1],
        )
        rng = np.random.default_rng(1)
        Y = tau.Y_np
        for x in rng.random((10, 2 * g)):
            sets.clear()
            td.theta_norm(tau, lattice_point(tau, x))
            [(c, rows)] = sets
            c = np.array(c)
            assert np.abs(c - (x[g:] - np.round(x[g:]))).max() < 1e-12
            summed = sum(hi - lo + 1 for _, lo, hi in rows)
            box = np.array(list(itertools.product(
                *(range(-r, r + 1) for r in set_radii(tau, c, 2))
            )))
            q = np.einsum("li,ij,lj->l", box + c, Y, box + c)
            needed = int((q <= c @ Y @ c + 128 * np.log(2) / np.pi).sum())
            assert needed <= summed <= 2 * needed

    @pytest.mark.parametrize("name", ["s4", "g3"])
    def test_derivatives_match_oracle(self, name, tau_s4):
        """The ratios Newton reads, theta'/theta and theta''/theta, against
        the oracle's analytic derivatives (``brute_theta_derivs``, each term
        weighted by 2 pi i M_k and (2 pi i)^2 M_k M_l) summed over the
        lattice set's extent plus one shell, to 1e-30."""
        tau = tau_s4 if name == "s4" else td.PeriodMatrix(TAU_G3)
        g = tau.g
        x = [0.3 + 0.1 * i for i in range(g)] + [0.3 - 0.05 * j for j in range(g)]
        s, d1, d2 = td.periods._theta_point(tau, x, derivs=True)
        z0 = lattice_point(tau, x)
        R = set_radii(tau, x[g:], 1)
        with mp.workprec(200):
            th, grad, hess = brute_theta_derivs(tau, z0.z, R)
            for i in range(g):
                ref = grad[i] / th
                assert abs(d1[i] / s - ref) <= 1e-30 * max(1, abs(ref))
                for j in range(g):
                    ref = hess[i][j] / th
                    assert abs(d2[i, j] / s - ref) <= 1e-30 * max(1, abs(ref))

    def test_relative_error_away_from_fundamental_cell(self, tau_s4):
        """theta's error is relative to exp(pi y'Y^-1 y), not absolute: at
        x = (0.2, 0.4, 3.3, 2.7), |theta| = 1.24e40, and at seeded points up
        to 4 cells from the fundamental cell, theta agrees with the oracle
        to a relative 1e-35.  The oracle's box |M_k| <= 14 holds every term
        above exp(-pi lambda_min 100) of the largest."""
        rng = np.random.default_rng(3)
        for x in [[0.2, 0.4, 3.3, 2.7]] + (rng.random((5, 4)) * 8 - 4).tolist():
            z = lattice_point(tau_s4, x, 300)
            a = td.theta(tau_s4, z)
            b = brute_theta(tau_s4, z.z, 14, bits=300)
            assert abs(a - b) <= 1e-35 * abs(b), x

    def test_oracle_agreement_random_points(self, tau_s4):
        """theta at 100 seeded points against the oracle summed over the
        lattice set at z's coordinates plus two shells, radii (9, 8) to
        (10, 9), instead of the box of radius 12."""
        rng = random.Random(7)
        for _ in range(100):
            z = tuple(
                complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4))
                for _ in range(2)
            )
            a = td.theta(tau_s4, td.ThetaPoint(z))
            m = td.periods._lattice_coords(tau_s4, td.ThetaPoint(z))[2:]
            b = brute_theta(tau_s4, z, set_radii(tau_s4, m, 2), bits=160)
            assert abs(a - b) <= 2e-25

    def test_invalid_period_matrix(self):
        with pytest.raises(td.InvalidPeriodMatrix):
            td.PeriodMatrix([[1j, 0.5], [0.2, 1j]])  # not symmetric
        with pytest.raises(td.InvalidPeriodMatrix, match="not positive definite"):
            td.PeriodMatrix([[-1j]])
        with pytest.raises(td.InvalidPeriodMatrix, match="below tolerance"):
            td.PeriodMatrix([[1e-25j]])

    @pytest.mark.parametrize("entry", [
        mp.mpc(mp.nan, 1), mp.mpc(mp.inf, 1), mp.mpc(0, mp.nan), mp.mpc(0, mp.inf),
        complex(0, float("inf")), mp.mpc(10**400, 1), mp.mpc(0, 10**400),
    ])
    def test_non_finite_entry_rejected(self, entry):
        """A NaN or infinite entry, or one beyond double range, is refused
        before the eigenvalue check, which used to raise mpmath's
        RuntimeError or ZeroDivisionError, or to pass a NaN or an infinity on
        to the double kernels."""
        with pytest.raises(td.InvalidPeriodMatrix, match="not finite"):
            td.PeriodMatrix([[1j, 0.5], [0.5, entry]])
        with pytest.raises(td.InvalidPeriodMatrix, match="not finite"):
            td.PeriodMatrix([[entry]])

    def test_numerically_singular_imaginary_part_rejected(self):
        """Im(tau) = [[1e300, 1/2], [1/2, 1]] is positive definite, but at 128
        bits mpmath's LU takes its second pivot for zero: InvalidInput, not
        ZeroDivisionError."""
        with pytest.raises(td.InvalidPeriodMatrix, match="numerically singular"):
            td.PeriodMatrix([[1e300j, 0.5j], [0.5j, 1j]])

    @pytest.mark.parametrize("case", FROZEN_128, ids=lambda c: f"{c[0]}-{c[1]}")
    def test_values_bit_identical(self, case, tau_s4):
        """theta and theta_norm do not depend on whether derivatives are summed."""
        name, z, re, im, norm = case
        tau = {
            "s4": tau_s4,
            "i": td.PeriodMatrix([[1j]]),
            "0.8i": td.PeriodMatrix([[0.8j, 0, 0], [0, 0.8j, 0], [0, 0, 0.8j]]),
        }[name]
        point = td.ThetaPoint(z)
        with mp.workprec(tau.bits):
            th = td.theta(tau, point)
            assert abs(th - mp.mpc(re, im)) <= 1e-35 * abs(th)
            nv = td.theta_norm(tau, point)
            assert abs(nv - mp.mpf(norm)) <= 1e-35 * nv
            x = td.periods._lattice_coords(tau, point)
            s = td.periods._theta_point(tau, x)
            assert td.periods._theta_point(tau, x, derivs=True)[0] == s


class TestReduceToFundamental:
    def test_identity_inside_cell(self, tau_g1):
        z0, m, n, lm = td.reduce_to_fundamental(tau_g1, td.ThetaPoint((0.25 + 0.5j,)))
        assert m == (0,) and n == (0,)
        assert abs(lm) == 0

    def test_g1_example(self, tau_g1):
        z = td.ThetaPoint((3 + 2j,))
        z0, m, n, lm = td.reduce_to_fundamental(tau_g1, z)
        assert m == (2,) and n == (3,)
        assert abs(z0.z[0]) < 1e-30
        with mp.workprec(tau_g1.bits):
            lhs = abs(td.theta(tau_g1, z))
            rhs = abs(mp.exp(lm) * td.theta(tau_g1, z0))
        assert abs(lhs - rhs) < 1e-12 * max(1, lhs)

    def test_g2_pure_lattice_vector(self, tau_s4):
        with mp.workprec(tau_s4.bits):
            z = tuple(tau_s4.tau[i, 0] + tau_s4.tau[i, 1] for i in range(2))
        z0, m, n, _ = td.reduce_to_fundamental(tau_s4, td.ThetaPoint(z))
        assert m == (1, 1)
        assert max(abs(w) for w in z0.z) < 1e-30

    def test_z0_coordinates_in_unit_cell(self, tau_s4):
        """The lattice coordinates (n0, m0) of z0 lie in [0, 1)^{2g}, n0
        included, where Re tau is not 0."""
        rng = random.Random(13)
        Y, X = tau_s4.Y_np, tau_s4.tau_np.real
        for _ in range(20):
            z = tuple(complex(rng.uniform(-5, 5), rng.uniform(-3, 3)) for _ in range(2))
            z0 = td.reduce_to_fundamental(tau_s4, td.ThetaPoint(z))[0]
            w = np.array([complex(v) for v in z0.z])
            m0 = np.linalg.solve(Y, w.imag)
            x0 = np.concatenate([w.real - X @ m0, m0])
            assert ((x0 > -1e-9) & (x0 < 1 + 1e-9)).all(), z

    @pytest.mark.parametrize("z", [(0.1 + 0.2j,), (0.1 + 0.2j, 0.3, 0.4j)], ids=["len1", "len3"])
    @pytest.mark.parametrize("fn", [td.theta, td.theta_norm, td.reduce_to_fundamental])
    def test_wrong_length_z_rejected(self, tau_s4, fn, z):
        """A z of other than g entries: its extra entries used to be dropped
        (theta_norm 0.7726 at length 3) and a short one raised IndexError."""
        with pytest.raises(td.InvalidInput, match="entries"):
            fn(tau_s4, td.ThetaPoint(z))


class TestThetaNorm:
    def test_g1_value_at_zero(self, tau_g1):
        v = td.theta_norm(tau_g1, td.ThetaPoint((0,)))
        with mp.workprec(200):
            ref = abs(mp.pi ** mp.mpf("0.25") / mp.gamma(mp.mpf(3) / 4)) ** 2
        assert abs(v - ref) < 1e-20

    def test_lattice_invariance(self, tau_s4):
        rng = random.Random(3)
        base = td.ThetaPoint((0.3 + 0.2j, -0.1 + 0.4j))
        v0 = td.theta_norm(tau_s4, base)
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
            v = td.theta_norm(tau_s4, td.ThetaPoint(z))
            assert abs(v - v0) <= 1e-10 * v0

    def test_s4_value_at_argmax_matches_paper_square(self, tau_s4, s4_theta_max):
        coords = s4_theta_max.argmax_coords
        with mp.workprec(tau_s4.bits):
            z = tuple(
                coords[i] + sum(tau_s4.tau[i, j] * coords[2 + j] for j in range(2))
                for i in range(2)
            )
            v = td.theta_norm(tau_s4, td.ThetaPoint(z))
            paper = mp.mpf("1.06639277369136206671054075") ** 2
        assert abs(v - paper) < 1e-10


    def test_point_keeps_bits_above_384(self):
        """Real entries made at 1100 bits keep every bit in a ThetaPoint built
        at the ambient 53 bits: theta_norm at 1024 bits is the same as on a
        ThetaPoint built at 1100 bits."""
        tau = td.bost_mestre_preset(1024).tau
        with mp.workprec(1100):
            z = (mp.mpf(1) / 3, mp.mpf(2) / 7)
            inside = td.ThetaPoint(z)
        with mp.workprec(53):
            outside = td.ThetaPoint(z)
        assert td.theta_norm(tau, outside) == td.theta_norm(tau, inside)


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
        31 points per axis of budget 10^6 resolve: the aliasing bound is
        2.3e-2 on diag(i, 400i), whose average came out 0.4770, and 2.0e-2
        on TAU_COUPLED.  The check raises instead of returning a wrong
        value."""
        for entries in ([[1j, 0], [0, 400j]], TAU_COUPLED):
            with pytest.raises(td.BudgetExceeded, match="aliasing bound"):
                td.theta_norm_normalization_check(td.PeriodMatrix(entries), 10**6)

    def test_budget_guard(self, tau_g1):
        with pytest.raises(td.InvalidInput):
            td.theta_norm_normalization_check(tau_g1, 100)

    @pytest.mark.parametrize("name, budget, nd", [("i", 512 * 512, 512), ("s4", 10**5, 17)])
    def test_matches_midpoint_mean_of_norm_batch(self, name, budget, nd, tau_s4):
        """The n-integral taken exactly equals the mean of norm_batch, which
        shares no code with it, over the 2g-dimensional midpoint grid of the
        same nd: 512 on tau = i, and 17 on the preset, more than its box's
        2R_k+1 = 11, so the grid in n does not alias."""
        tau = tau_s4 if name == "s4" else td.PeriodMatrix([[1j]])
        axis = (np.arange(nd) + 0.5) / nd
        coords = np.array(list(itertools.product(axis, repeat=2 * tau.g)))
        est, _ = td.theta_norm_normalization_check(tau, budget)
        assert abs(est - np.mean(td.periods.norm_batch(tau, coords))) <= 1e-14

    @pytest.mark.parametrize("name", ["c30", "y21", "y60"])
    def test_error_is_the_aliased_terms(self, name, monkeypatch):
        """With the tolerance lifted, the error is the aliased Fourier terms
        of the midpoint rule in m, 2^(-g/2) sum_{j != 0} (-1)^(j_1 + ... +
        j_g) exp(-pi nd^2 j'Y^-1 j/2), summed here over |j_k| <= 20, and so
        within 2^(-g/2) A(Y^-1), up to the estimate's rounding.  The bound
        is reached where the aliased terms share a sign (TAU_C30 at 10^5:
        both 2.4844e-7).  Without the midpoint offset the signs would all
        be +1, and without the Gaussian in m the error would be of order 1."""
        monkeypatch.setattr(td.periods, "_ALIAS_TOL", 1.0)
        tau = td.PeriodMatrix({"c30": TAU_C30, "y21": TAU_Y21, "y60": TAU_Y60}[name])
        yinv = np.linalg.inv(tau.Y_np)
        js = np.array(list(itertools.product(range(-20, 21), repeat=tau.g)))
        js = js[js.any(axis=1)]
        signs = (-1.0) ** js.sum(axis=1)
        for budget, nd in ((10**3, 5), (10**4, 10), (10**5, 17)):
            est, ref = td.theta_norm_normalization_check(tau, budget)
            aliased = signs @ np.exp(-np.pi * nd * nd / 2 * np.einsum("li,ij,lj->l", js, yinv, js))
            assert abs(est - ref - ref * aliased) <= 4e-15
            assert abs(est - ref) <= ref * td.periods._alias_sum(yinv, nd) + 4e-15

    def test_sums_no_grid(self, tau_s4, monkeypatch):
        """The check integrates over n without the grid scan: no nd^(2g)
        array, a peak of a few chunk temporaries at 10^6."""

        def refuse(*args):
            raise AssertionError("sqrt_norm_grid called")

        monkeypatch.setattr(td.periods, "sqrt_norm_grid", refuse)
        td.theta_norm_normalization_check(tau_s4, 10**6)
        tracemalloc.start()
        try:
            est, ref = td.theta_norm_normalization_check(tau_s4, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(est - ref) < 1e-14
        assert peak < 2e6

    def test_cells_across_chunks(self, monkeypatch):
        """TAU_C30's 16 cells of m give the same average when each slice is
        its own chunk."""
        tau = td.PeriodMatrix(TAU_C30)
        est, _ = td.theta_norm_normalization_check(tau, 10**6)
        monkeypatch.setattr(td.periods, "_SCAN_CHUNK", 1)
        assert abs(td.theta_norm_normalization_check(tau, 10**6)[0] - est) <= 1e-15


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
    def test_matches_theta_norm(self, name, points, tau_s4):
        """Against the 128-bit sum, which shares no code with the batch kernel
        beyond the PeriodMatrix's cached values.  Near a zero of theta both
        lose all relative digits, so the relative bound applies where <s,s>
        is above 1e-6 of the batch maximum; elsewhere the bound is
        absolute."""
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
        ref = np.array([float(td.theta_norm(tau, lattice_point(tau, x))) for x in coords])
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


def grid_cases(*cases):
    """sqrt_norm_grid cases (name, nd) with IDs name-nd-0.0: the last field
    is the grid's first coordinate, 0 on every axis."""
    return [pytest.param(name, nd, id=f"{name}-{nd}-0.0") for name, nd in cases]


class TestSqrtNormGrid:
    @pytest.mark.parametrize(
        "name, nd",
        grid_cases(
            ("s4", 8), ("s4", 16), ("i", 256), ("g3", 6), ("coupled", 8), ("r10", 12), ("c30", 12)
        ),
    )
    def test_matches_norm_batch(self, name, nd, tau_s4):
        """The separable scan against norm_batch at every point of the half
        grid it returns, given to norm_batch in (n, m) order.  The preset's
        box has 2R_k+1 = 11 > 8 and the g = 3 box 7 > 6, where an FFT of
        length nd would alias.  TAU_C30 has 4 x 4 cells of m.  Both
        kernels take their terms from tau's box and cells, so the scan is
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
        grid = td.periods.sqrt_norm_grid(tau, nd)
        assert grid.shape == (nd // 2 + 1,) + (nd,) * (2 * tau.g - 1)
        assert np.isfinite(grid).all()
        coords = half_grid_coords(grid, tau.g)
        ref = np.sqrt(td.periods.norm_batch(tau, coords))
        assert np.abs(grid.ravel() - ref).max() <= 1e-14 * grid.max()
        if name != "c30":
            ref = np.sqrt(per_term_norm_batch(tau, coords))
            assert np.abs(grid.ravel() - ref).max() <= 1e-14 * grid.max()

    @pytest.mark.parametrize(
        "name, nd",
        grid_cases(("s4", 32), ("s4", 31), ("i", 256), ("i", 255), ("g3", 7), ("c30", 12)),
    )
    def test_reflection_invariant(self, name, nd, tau_s4):
        """<s,s>(-x) = <s,s>(x).  The scan returns the m_1-slabs 0, ...,
        nd // 2, and averages the self-mirrored ones with their mirrors: they
        equal themselves read at index -k mod nd on every axis, bit for bit.
        An even nd has two self-mirrored slabs, 0 and nd/2, an odd nd one.
        norm_batch at the mirror of every point of the half gives the half's
        value; TAU_C30's 4 x 4 cells make its chunks non-consecutive."""
        tau = {
            "s4": tau_s4,
            "i": td.PeriodMatrix([[1j]]),
            "g3": td.PeriodMatrix(TAU_G3),
            "c30": td.PeriodMatrix(TAU_C30),
        }[name]
        grid = td.periods.sqrt_norm_grid(tau, nd)
        axes = tuple(range(grid.ndim - 1))
        for k in {0, nd // 2} if nd % 2 == 0 else {0}:
            assert np.array_equal(grid[k], td.periods._mirror(grid[k], axes))
        ref = np.sqrt(td.periods.norm_batch(tau, -half_grid_coords(grid, tau.g) % 1))
        assert np.abs(grid.ravel() - ref).max() <= 1e-14 * grid.max()

    def test_mirror_copy_buffers_no_half_grid(self, tau_s4):
        """The scan holds its half of the 32^4 grid, 4.5 MB, and a few chunk
        temporaries."""
        td.periods.sqrt_norm_grid(tau_s4, 32)
        tracemalloc.start()
        try:
            grid = td.periods.sqrt_norm_grid(tau_s4, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.nbytes + 2**21

    def test_midpoint_mirror_copy_buffers_no_half_grid(self, tau_s4):
        """The same on the odd 31^4 grid, whose one self-mirrored slab is
        averaged with its mirror."""
        td.periods.sqrt_norm_grid(tau_s4, 31)
        tracemalloc.start()
        try:
            grid = td.periods.sqrt_norm_grid(tau_s4, 31)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.nbytes + 2**21


def half_grid_coords(grid, g):
    """The lattice coordinates (n, m) of the points of a sqrt_norm_grid
    result, indexed (m, n), in the order of grid.ravel()."""
    nd = grid.shape[-1]
    index = np.indices(grid.shape).reshape(grid.ndim, -1)
    return np.roll(index, g, axis=0).T / nd


class TestLatticeContext:
    @pytest.mark.parametrize("name", ["s4", "g3"])
    def test_warm_theta_norm_makes_g_plus_two_exps(self, name, tau_s4, monkeypatch):
        """Once the phase table holds a point's lattice set, a theta_norm
        call exponentiates only per axis, plus the norm's Gaussian factor."""
        tau = tau_s4 if name == "s4" else td.PeriodMatrix(TAU_G3)
        point = td.ThetaPoint(tuple(0.3 + 0.2j - 0.1j * i for i in range(tau.g)))
        td.theta_norm(tau, point)
        calls = []
        exp = mp.exp
        monkeypatch.setattr(mp, "exp", lambda x: calls.append(x) or exp(x))
        td.theta_norm(tau, point)
        assert 0 < len(calls) <= tau.g + 2

    def test_built_on_first_use(self, tau_s4):
        """Construction builds no double array or table, a working-precision
        theta_norm builds no part of the double kernels' box, and the double
        copies of tau are read-only."""
        tau = td.PeriodMatrix(tau_s4.tau.tolist())
        box = {"R", "M", "quad", "freqs", "cells"}
        cached = box | {"tau_np", "Y_np", "scale", "cholesky", "phases"}
        assert not cached & set(vars(tau))
        assert tau._table == (None, None)
        td.theta_norm(tau, td.ThetaPoint((0.3 + 0.2j, -0.1 + 0.4j)))
        assert not box & set(vars(tau))
        for a in (tau.tau_np, tau.Y_np):
            with pytest.raises(ValueError):
                a[0, 0] = 0

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
        g = tau.g
        r2 = td.periods._ellipsoid_radius2(g, float(tau.lambda_min), 0.0, np.sqrt(g) / 2, 60)
        corners = np.array(list(itertools.product((-0.5, 0.5), repeat=g)))
        ms = np.vstack([np.random.default_rng(9).random((200, g)) - 0.5, corners])
        sets = [tau.ellipsoid_rows(m.tolist(), r2) for m in ms]
        assert sum(map(len, sets)) > len(ms)
        for m, rows in zip(ms, sets):
            for prefix, lo, hi in rows:
                assert all(abs(k) <= r for k, r in zip(prefix, tau.R)), (name, m)
                assert -tau.R[-1] <= lo and hi <= tau.R[-1], (name, m)

    @pytest.mark.parametrize(
        "eps, bits, target, rtol, box_fits",
        [(1e-3, 128, 1e-25, 1e-35, True), (5e-6, 64, 1e-16, 1e-16, False)],
    )
    def test_theta_on_near_singular_y(self, eps, bits, target, rtol, box_fits):
        """Y = [[1, 1 - eps], [1 - eps, 1]] at a diagonal point z_1 = z_2,
        against the Jacobi inversion theta(z, iY) = det Y^(-1/2) exp(-pi
        z'Y^-1 z) theta(-i Y^-1 z, i Y^-1): there the dual sum over |M_k| <=
        9 converges fast.  theta at tau's ``bits`` is within ``target`` of
        it, and within ``rtol`` of it relatively.  At eps = 5e-6 the double
        box holds more than _BATCH_TERMS terms, but theta sums its own
        ellipsoid and never builds the double part; norm_batch still
        raises."""
        a = 1 - eps
        tau = td.PeriodMatrix([[1j, a * 1j], [a * 1j, 1j]], bits=bits)
        w = 0.3 + 0.2j
        v = td.theta(tau, td.ThetaPoint((w, w)))
        assert "R" not in vars(tau)
        with mp.workprec(300):
            det = 1 - mp.mpf(a) ** 2
            yinv = [[1 / det, -a / det], [-a / det, 1 / det]]
            dual = td.PeriodMatrix([[1j * c for c in row] for row in yinv], bits=300)
            u = [sum(row) * w for row in yinv]
            ref = (
                mp.exp(-mp.pi * w * sum(u)) / mp.sqrt(det)
                * brute_theta(dual, [-1j * c for c in u], 9, bits=300)
            )
            assert abs(v - ref) <= min(target, rtol * abs(ref))
        if not box_fits:
            start = time.perf_counter()
            with pytest.raises(td.BudgetExceeded, match="holds [\\d,]+ lattice terms"):
                td.periods.norm_batch(tau, np.zeros((1, 4)))
            assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("eps", [1e-6, 1e-10])
    def test_near_singular_y_fails_fast(self, eps):
        """Y = [[1, 1 - eps], [1 - eps, 1]] would need a double box of tens
        of millions of terms or more; reading the box raises before building
        any array, and says how large the box is."""
        start = time.perf_counter()
        tau = td.PeriodMatrix([[1j, (1 - eps) * 1j], [(1 - eps) * 1j, 1j]])
        with pytest.raises(td.BudgetExceeded) as info:
            td.periods.norm_batch(tau, np.zeros((1, 4)))
        assert time.perf_counter() - start < 1
        terms = re.search(r"holds ([\d,]+) lattice terms", str(info.value)).group(1)
        assert int(terms.replace(",", "")) > td.periods._BATCH_TERMS

    def test_newton_builds_cell_table_once(self, tau_s4, monkeypatch):
        """tau keeps its last cell table, so Newton in doubles on the
        preset (one cell) builds it once for all its one-point steps."""
        tau = td.PeriodMatrix(tau_s4.tau.tolist())
        builds, steps = [], []
        build, batch = tau._build_cell_table, td.maximize._theta_batch
        monkeypatch.setattr(tau, "_build_cell_table", lambda c: builds.append(c) or build(c))
        monkeypatch.setattr(
            td.maximize, "_theta_batch", lambda *a, **k: steps.append(a) or batch(*a, **k)
        )
        assert td.maximize._newton(tau, np.array([3, 29, 26, 3]) / 32) is not None
        assert len(steps) >= 3
        assert len(builds) == 1

    def test_chunks_split_cells(self, monkeypatch):
        """Both double kernels give the same values, to 1e-13 of their
        maximum, when TAU_C30's 16 cells of m span several chunks each.
        The box is read first: _BATCH_TERMS also caps it."""
        tau = td.PeriodMatrix(TAU_C30)
        L = [2 * r + 1 for r in tau.R]
        coords = np.random.default_rng(31).random((2000, 4))

        def kernels():
            s, d1, d2 = td.periods._theta_batch(tau, coords, derivs=True)
            grids = [td.periods.sqrt_norm_grid(tau, nd) for nd in (24, 23)]
            return [td.periods._theta_batch(tau, coords), s, d1, d2] + grids

        ref = kernels()
        # 42 points a chunk without derivatives, 7 with them, and one m-slab
        # of 24 or 23 slices in the scan, so that most cells span several chunks
        monkeypatch.setattr(td.periods, "_BATCH_TERMS", 42 * max(sum(L), math.prod(L[1:])))
        monkeypatch.setattr(td.periods, "_SCAN_CHUNK", 1)
        tables, chunks = [], tau.cell_chunks

        def spy(m, chunk):
            for item in chunks(m, chunk):
                tables.append(item[3])
                yield item

        monkeypatch.setattr(tau, "cell_chunks", spy)
        for got, want in zip(kernels(), ref):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert len(tables) > 2 * len({id(t) for t in tables})
