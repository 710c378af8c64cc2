import itertools
import random
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import thetadist as td
from test_theta import TAU_C30, TAU_G3, TAU_Y21

# not Minkowski reduced; its best 16^4 grid points lie on one ridge
TAU_RIDGE = [[-0.446 + 3.397j, -0.104 - 0.358j], [-0.104 - 0.358j, -0.455 + 1.238j]]
# Theta_Max of the preset at 32^4 and its argmax, frozen from Newton at 128
# bits started from the raw grid points
S4_THETA_MAX = "1.0663927736913620667105407585684746528"
S4_ARGMAX = ("0.1", "0.9", "0.8", "0.1")


class TestThetaMaxG1:
    def test_beats_dense_grid(self, tau_g1):
        res = td.theta_max(tau_g1, 64)
        # an independent, much denser grid must not beat the reported max
        axis = np.arange(400) / 400.0
        coords = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        dense = float(np.sqrt(td.periods.norm_batch(tau_g1, coords)).max())
        assert float(res.value) >= dense - 1e-9

    def test_grid_best_below_value(self, tau_g1):
        res = td.theta_max(tau_g1, 64)
        assert res.grid_best <= float(res.value) + 1e-12


class TestThetaMaxG2:
    def test_block_diagonal_factorizes(self):
        """For tau = diag(tau1, tau2) the norm is a product of g=1 norms, so
        the maxima multiply."""
        r_i = td.theta_max(td.PeriodMatrix([[1j]]), 64)
        r_2i = td.theta_max(td.PeriodMatrix([[2j]]), 64)
        r_d = td.theta_max(td.PeriodMatrix([[1j, 0], [0, 2j]]), 12)
        with mp.workprec(128):
            assert abs(r_d.value - r_i.value * r_2i.value) < 1e-20

    def test_probes_never_beat_max(self, tau_s4, s4_theta_max):
        rng = np.random.default_rng(42)
        coords = rng.random((1000, 4))
        vals = np.sqrt(td.periods.norm_batch(tau_s4, coords))
        assert float(vals.max()) <= float(s4_theta_max.value) + 1e-12

    def test_grid_monotone_in_budget(self, tau_s4):
        v8 = td.theta_max(tau_s4, 8).value
        v16 = td.theta_max(tau_s4, 16).value
        assert float(v16) >= float(v8) - 1e-12

    def test_shifted_grid_stability(self, tau_s4, s4_theta_max):
        """No coordinate of the 17^4 grid equals one of the argmax's (0.1,
        0.9, 0.8), so Newton starts off the 32^4 grid points."""
        shifted = td.theta_max(tau_s4, 17)
        with mp.workprec(128):
            assert abs(shifted.value - s4_theta_max.value) < 1e-20

    def test_closed_form_value(self, preset, s4_theta_max):
        """log Theta_Max + zar_degree = (3/8) log 5 to within the 1e-25 theta
        tail bound, so Newton must bring the value that close."""
        with mp.workprec(128):
            closed = mp.exp(mp.mpf(3) / 8 * mp.log(5) - td.zar_degree(preset.data))
            assert abs(s4_theta_max.value - closed) < mp.mpf("1e-24")

    def test_ridge_matrix_converges(self):
        """The 8 best 16^4 grid points of this (not Minkowski-reduced) matrix
        lie on one ridge where the Hessian is indefinite, so Newton drops
        every start taken from them; one start per grid local maximum still
        reaches the maximum the 24^4 grid finds."""
        tau = td.PeriodMatrix(TAU_RIDGE)
        r16 = td.theta_max(tau, 16)
        r24 = td.theta_max(tau, 24)
        with mp.workprec(128):
            assert abs(r16.value - mp.mpf("1.4324439077679387733")) < 1e-18
            assert abs(r16.value - r24.value) < 1e-20

    def test_grid_scan_memory(self, tau_s4):
        """The 32^4 scan and start selection hold a few 8 MB value arrays."""
        tracemalloc.start()
        try:
            td.theta_max(tau_s4, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_argmax_reproduces_value(self, tau_s4, s4_theta_max):
        coords = s4_theta_max.argmax_coords
        with mp.workprec(128):
            z = tuple(
                coords[i] + sum(tau_s4.tau[i, j] * coords[2 + j] for j in range(2))
                for i in range(2)
            )
            v = mp.sqrt(td.theta_norm(tau_s4, td.ThetaPoint(z)))
        assert abs(v - s4_theta_max.value) < 1e-12


    def test_preset_cost_and_value(self, tau_s4, monkeypatch):
        """At 32^4 the three half-period starts (value 0.99694) are dropped in
        doubles; of the two symmetric maxima x* and -x* only x* is polished,
        at two derivative sums, and the value comes from the last of them."""
        calls = []
        kernel = td.periods._theta_point

        def counted(tau, x, derivs=False):
            calls.append(np.array([float(c) for c in x]))
            return kernel(tau, x, derivs)

        monkeypatch.setattr(td.periods, "_theta_point", counted)
        monkeypatch.setattr(td.maximize, "_theta_point", counted)
        res = td.theta_max(tau_s4, 32)

        half_periods = [(0, 0, 0.5, 0.5), (0, 0.5, 0, 0), (0.5, 0, 0, 0)]
        vals = td.periods.sqrt_norm_grid(tau_s4, 32)
        starts = np.unravel_index(td.maximize._grid_starts(vals), vals.shape)
        starts = {tuple(x) for x in np.roll(starts, 2, axis=0).T / 32}
        assert set(half_periods) <= starts
        assert len(calls) <= 2
        for x in calls:
            for h in half_periods:
                d = (x - np.array(h)) % 1
                assert np.minimum(d, 1 - d).max() > 1e-3
        with mp.workprec(128):
            assert abs(res.value - mp.mpf(S4_THETA_MAX)) < mp.mpf("1e-35")
            assert max(abs(c - mp.mpf(a)) for c, a in zip(res.argmax_coords, S4_ARGMAX)) < 1e-30

    def test_polish_quadratic_at_512_bits(self, monkeypatch):
        """The polish converges quadratically at 512 bits as well: from
        double accuracy the one polished maximum takes at most 4 derivative
        sums.  Every polish sum runs at tau.bits: on this tau, with mpmath
        at 512 bits, and with a phase table of 512 + 32 bits."""
        tau = td.bost_mestre_preset(512).tau
        calls = []
        kernel = td.periods._theta_point

        def counted(t, x, derivs=False):
            calls.append((t is tau, mp.mp.prec, t.phases.width))
            return kernel(t, x, derivs)

        monkeypatch.setattr(td.maximize, "_theta_point", counted)
        td.theta_max(tau, 32)
        assert calls and set(calls) == {(True, 512, 512 + td.periods._GUARD_BITS)}
        assert len(calls) <= 4


class TestThetaDerivs:
    @pytest.mark.parametrize("name", ["i", "s4", "ridge", "g3", "y21", "c30"])
    def test_matches_working_precision_kernel(self, name, tau_s4):
        """_theta_batch(derivs=True) against _theta_point(derivs=True) at
        seeded points, taken at the recentred coordinates the double kernel
        sums at: both return s and its derivatives with the same factor
        exp(-pi m'Ym).  TAU_C30 (4 x 4 cells) takes the derivatives across
        cells."""
        tau = {"i": td.PeriodMatrix([[1j]]), "s4": tau_s4,
               "ridge": td.PeriodMatrix(TAU_RIDGE), "g3": td.PeriodMatrix(TAU_G3),
               "y21": td.PeriodMatrix(TAU_Y21), "c30": td.PeriodMatrix(TAU_C30)}[name]
        g = tau.g
        rng = np.random.default_rng(7)
        for x in rng.random((4, 2 * g)):
            fast = [v[0] for v in td.periods._theta_batch(tau, x[None], derivs=True)]
            x = x - np.round(x)
            th, d1, d2 = td.periods._theta_point(tau, x, derivs=True)
            slow = (
                np.array(complex(th)),
                np.array([complex(d1[i]) for i in range(g)]),
                np.array([[complex(d2[i, j]) for j in range(g)] for i in range(g)]),
            )
            for f, s in zip(fast, slow):
                assert np.abs(f - s).max() <= 1e-12 * np.abs(s).max()


class TestSolveDefinite:
    """The one definiteness rule of both Newton stages."""

    @staticmethod
    def system(seed, n, to):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((n, n))
        A = B @ B.T + n * np.eye(n)
        b = rng.standard_normal(n)
        return np.array([[to(v) for v in row] for row in A]), np.array([to(v) for v in b])

    @pytest.mark.parametrize("seed", range(4))
    def test_solves_spd_in_doubles(self, seed):
        A, b = self.system(seed, 4 + seed, float)
        x = td.maximize._solve_definite(A, b)
        assert x.dtype == float
        assert np.abs(x - np.linalg.solve(A, b)).max() <= 1e-13 * np.abs(x).max()

    @pytest.mark.parametrize("seed", range(4))
    def test_solves_spd_at_128_bits(self, seed):
        with mp.workprec(128):
            A, b = self.system(seed, 4 + seed, mp.mpf)
            x = td.maximize._solve_definite(A, b)
            residual = max(abs(r) for r in A @ x - b)
            assert residual <= mp.mpf(2) ** -120 * max(abs(v) for v in b)

    @pytest.mark.parametrize("to", [float, mp.mpf])
    def test_rejects_indefinite_and_zero_pivot(self, to):
        for A in ([[1, 0], [0, -1]], [[1, 2], [2, 1]], [[0, 0], [0, 1]], [[1, 1], [1, 1]]):
            with mp.workprec(128):
                A = np.array([[to(v) for v in row] for row in A])
                assert td.maximize._solve_definite(A, np.array([to(1), to(1)])) is None


class TestGridStarts:
    def test_one_start_per_symmetric_maximum(self, tau_s4):
        """The 5 points of the preset's 32^4 half grid within 1e-14 of its
        maximum form one cluster and make one start.  With their mirrors
        they are the two clusters around the symmetric maxima x* and -x*."""
        vals = td.periods.sqrt_norm_grid(tau_s4, 32)
        starts = td.maximize._grid_starts(vals)
        near = np.flatnonzero(vals >= vals.max() * (1 - 1e-14))
        picked = [i for i in starts if i in near]
        near = np.array(np.unravel_index(near, vals.shape))
        assert near.shape[1] == 5

        def spread(a, b):
            d = np.abs(a[:, :, None] - b[:, None, :]) % 32
            return np.minimum(d, 32 - d).max(axis=0)

        assert len(picked) == 1
        assert spread(near, near).max() <= 2
        assert spread(near, -near % 32).min() > 2
        assert list(starts) == sorted(starts)

    def test_rounding_noise_keeps_starts(self, tau_s4):
        vals = td.periods.sqrt_norm_grid(tau_s4, 32)
        starts = td.maximize._grid_starts(vals)
        for seed in range(3):
            eps = np.random.default_rng(seed).uniform(-1e-15, 1e-15, vals.shape)
            assert np.array_equal(td.maximize._grid_starts(vals * (1 + eps)), starts)

    def test_plateau_is_one_cluster(self):
        """Equal neighbours across the wrap-around edge are one start, at the
        lowest flat index; starts come in flat-index order."""
        k = np.cos(2 * np.pi * np.arange(8) / 8)
        vals = k[:, None] + k[None, :]
        vals[0, 7] = vals[0, 1] = 2.0
        vals[4, 4] = 3.0
        assert list(td.maximize._grid_starts(vals[:5])) == [0, 36]

    def test_matches_whole_grid_filter(self):
        """On grids invariant under x -> -x, the half-torus filter picks the
        whole-grid filter's starts in first-axis slabs 0, ..., nd // 2:
        continuous values, values rounded to one decimal (plateaus), and a
        pair of mirrored cosine peaks, one centred on first-axis slab 0, 1,
        nd // 2 - 1, nd // 2, nd // 2 + 1, nd - 2 or nd - 1.  These peaks
        put maxima next to both edges of the half, where the neighbours are
        read as mirrors.  nd = 300 and 301 at d = 2 split into blocks of
        several slabs; d = 6 stops at nd = 9, whose 9^6 points already take
        one block per slab."""
        rng = np.random.default_rng(19)
        sizes = [(d, nd) for d in (2, 4, 6) for nd in (8, 9, 13) if nd**d < 10**6]
        for d, nd in sizes + [(2, 300), (2, 301)]:
            shape = (nd,) * d
            noise = symmetric(rng.standard_normal(shape))
            grids = [noise, np.round(noise, 1)]
            for peak in (0, 1, nd // 2 - 1, nd // 2, nd // 2 + 1, nd - 2, nd - 1):
                centre = np.array([peak] + list(rng.integers(0, nd, d - 1)))
                x = np.indices(shape) - centre.reshape((d,) + (1,) * d)
                grids.append(symmetric(np.cos(2 * np.pi * x / nd).sum(axis=0)))
            for vals in grids:
                assert np.array_equal(td.maximize._grid_starts(vals[: nd // 2 + 1]),
                                      half_of_whole_grid_starts(vals)), (d, nd)

    def test_half_torus_matches_whole_grid_cut(self):
        """On a grid invariant under x -> -x, the half-torus filter picks the
        whole-grid filter's starts in first-axis slabs 0, ..., nd // 2, with
        neighbours read across the wrap.  Seeded symmetric grids: noise,
        the same rounded to one decimal (plateaus), and a pair of mirrored
        cosine peaks, at odd and even nd; nd = 300 and 301 at d = 2 take
        several blocks of slabs."""
        rng = np.random.default_rng(20)
        for d, nd in [(2, 8), (2, 9), (4, 8), (4, 9), (6, 8), (6, 9), (2, 300), (2, 301)]:
            shape = (nd,) * d
            noise = symmetric(rng.standard_normal(shape))
            centre = rng.integers(0, nd, d).reshape((d,) + (1,) * d)
            peaks = symmetric(np.cos(2 * np.pi * (np.indices(shape) - centre) / nd).sum(axis=0))
            for vals in (noise, np.round(noise, 1), peaks):
                half = td.maximize._grid_starts(vals[: nd // 2 + 1])
                assert np.array_equal(half, half_of_whole_grid_starts(vals)), (d, nd)

    def test_allocates_no_grid_sized_array(self, tau_s4):
        vals = td.periods.sqrt_norm_grid(tau_s4, 32)
        tracemalloc.start()
        try:
            td.maximize._grid_starts(vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < vals.nbytes / 2

    def test_two_block_buffers(self, tau_s4):
        """Start selection on the preset's half grid holds two block buffers
        and the block's ties, at most four blocks of 256 KB in all."""
        vals = td.periods.sqrt_norm_grid(tau_s4, 32)
        tracemalloc.start()
        try:
            td.maximize._grid_starts(vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * td.periods._SCAN_CHUNK * vals.itemsize


def symmetric(a):
    """a plus a read at x -> -x, index k of every axis at -k mod nd."""
    return a + np.roll(np.flip(a), 1, tuple(range(a.ndim)))


def half_of_whole_grid_starts(vals):
    """whole_grid_starts(vals) in first-axis slabs 0, ..., nd // 2."""
    starts = whole_grid_starts(vals)
    return starts[starts < (len(vals) // 2 + 1) * vals[0].size]


def whole_grid_starts(vals):
    """The start selection of _grid_starts as one whole-grid filter: the 3^d
    neighbourhood maximum by np.roll over every axis, then the clustering of
    neighbouring maxima to their lowest flat index."""
    shape = vals.shape
    top = vals.copy()
    for ax in range(vals.ndim):
        np.maximum(top, np.maximum(np.roll(top, 1, ax), np.roll(top, -1, ax)), out=top)
    flat = np.flatnonzero(top <= vals * (1 + td.maximize._GRID_RTOL))
    coords = np.array(np.unravel_index(flat, shape))
    src, dst = [], []
    for step in itertools.product((-1, 0, 1), repeat=vals.ndim):
        nbr = np.ravel_multi_index(coords + np.array(step)[:, None], shape, mode="wrap")
        pos = np.minimum(np.searchsorted(flat, nbr), len(flat) - 1)
        hit = flat[pos] == nbr
        src.append(np.flatnonzero(hit))
        dst.append(pos[hit])
    src, dst = np.concatenate(src), np.concatenate(dst)
    label = flat.copy()
    while True:
        new = label.copy()
        np.minimum.at(new, src, label[dst])
        if np.array_equal(new, label):
            break
        label = new
    return flat[label == flat]


def two_polishes(monkeypatch, refine):
    """Make theta_max polish twice.  Newton in doubles converges from the
    first two starts only, to two points of one value that are not each
    other's mirror, so both are polished; the k-th polish returns ``refine(tau,
    k)``.  Returns the list of polished starts."""
    points = [(0.0, 0.2, 0.5, 0.5), (0.0, 0.3, 0.5, 0.5)]
    doubles, polished = [], []

    def stub(tau, start, polish=False):
        if not polish:
            doubles.append(start)
            return (1.07, points[len(doubles) - 1]) if len(doubles) <= 2 else None
        polished.append(start)
        return refine(tau, len(polished) - 1)

    monkeypatch.setattr(td.maximize, "_newton", stub)
    return polished


class TestConfigAndGuards:
    def test_optimizer_config_validation(self, tau_g1):
        with pytest.raises(td.InvalidInput, match=">= 8"):
            td.theta_max(tau_g1, 4)

    def test_grid_budget_guard(self, tau_s4):
        with pytest.raises(td.ConfigRejected):
            td.theta_max(tau_s4, 200)

    def test_default_config_by_genus(self):
        assert td.default_optimizer_config(1) == 256
        assert td.default_optimizer_config(2) == 32
        # 10^6 <= 32^4 < 11^6; at g = 4 no nd >= 8 fits 32^4, and 8^8 is
        # within the grid budget
        assert td.default_optimizer_config(3) == 10
        assert td.default_optimizer_config(4) == 8

    def test_no_converged_start_raises(self, tau_g1, monkeypatch):
        newton = td.maximize._newton

        def no_polish(tau, start, polish=False):
            return None if polish else newton(tau, start)

        monkeypatch.setattr(td.maximize, "_newton", no_polish)
        with pytest.raises(td.BudgetExceeded):
            td.theta_max(tau_g1, 8)

    def test_no_double_converged_start_raises(self, tau_g1, monkeypatch):
        """When Newton in doubles drops every start, no start is polished at
        working precision."""
        def newton(tau, start, polish=False):
            if polish:
                raise AssertionError("polished a start Newton in doubles dropped")
            return None

        monkeypatch.setattr(td.maximize, "_newton", newton)
        with pytest.raises(td.BudgetExceeded):
            td.theta_max(tau_g1, 8)

    def test_refined_below_grid_raises(self, tau_g1, monkeypatch):
        newton = td.maximize._newton

        def low_polish(tau, start, polish=False):
            return (mp.mpf("0.5"), (mp.mpf(0),) * 2) if polish else newton(tau, start)

        monkeypatch.setattr(td.maximize, "_newton", low_polish)
        with pytest.raises(td.BudgetExceeded):
            td.theta_max(tau_g1, 8)

    def test_tie_break_ignores_ambient_precision(self, tau_s4, monkeypatch):
        """Polishes of the symmetric maxima x* and -x* tie up to rounding.
        With the value of the twin of higher coordinates raised by a relative
        2^-120, far below the 128-bit tie unit 2^-64, the lowest coordinates still win
        at an ambient precision of 53 bits and of 300 bits."""
        newton = td.maximize._newton
        maxima = [tuple(float(c) for c in S4_ARGMAX), tuple(1 - float(c) for c in S4_ARGMAX)]

        def polish(tau, k):
            value, x = newton(tau, maxima[k], polish=True)
            if x[0] > 0.5:
                with mp.workprec(tau.bits):
                    value *= 1 + mp.mpf(2) ** -120
            return value, x

        argmaxes = []
        for ambient in (53, 300):
            calls = two_polishes(monkeypatch, polish)
            with mp.workprec(ambient):
                argmaxes.append(td.theta_max(tau_s4, 8).argmax_coords)
            assert len(calls) == 2
        assert argmaxes[0] == argmaxes[1]
        assert argmaxes[0][0] < 0.5

    def test_tie_break_reads_coordinates_mod_one(self, tau_s4, monkeypatch):
        """Twin maxima whose first coordinate is 0 mod 1, one polish leaving
        it at 1 - 1e-30 and the other at 1e-30, with equal values: the
        tie-break takes both as 0, and the second coordinate picks the 0.2
        twin, whichever polish comes first."""
        with mp.workprec(128):
            eps = mp.mpf("1e-30")
            twins = [(1 - eps, mp.mpf("0.2"), 0.5, 0.5), (eps, mp.mpf("0.3"), 0.5, 0.5)]
        for first in (0, 1):

            def polish(tau, k):
                # the first polish returns one twin, every later one the other
                with mp.workprec(tau.bits):
                    return mp.mpf(S4_THETA_MAX), twins[first if k == 0 else 1 - first]

            polished = two_polishes(monkeypatch, polish)
            assert td.theta_max(tau_s4, 8).argmax_coords == twins[0]
            assert len(polished) >= 2

    @pytest.mark.parametrize("twins", [(0,), (1,), (0, 1), (1, 0)])
    def test_polishes_one_member_per_pair(self, tau_s4, monkeypatch, twins):
        """theta is even, so x* and -x* are one maximum: whichever of them
        Newton in doubles reaches, and in either order, one polish runs, from
        x*, the member of lower coordinates, and x* is the argmax."""
        newton = td.maximize._newton
        maxima = [tuple(float(c) for c in S4_ARGMAX), tuple(1 - float(c) for c in S4_ARGMAX)]
        doubles, starts = iter(twins), []

        def stub(tau, start, polish=False):
            if not polish:
                k = next(doubles, None)
                return None if k is None else newton(tau, maxima[k])
            starts.append(np.array([float(c) for c in start]))
            return newton(tau, start, polish=True)

        monkeypatch.setattr(td.maximize, "_newton", stub)
        res = td.theta_max(tau_s4, 8)
        assert len(starts) == 1
        assert np.abs(starts[0] - np.array(maxima[0])).max() < 1e-12
        with mp.workprec(128):
            assert max(abs(c - mp.mpf(a)) for c, a in zip(res.argmax_coords, S4_ARGMAX)) < 1e-30

    def test_deterministic_rerun(self, tau_s4):
        a = td.theta_max(tau_s4, 12)
        b = td.theta_max(tau_s4, 12)
        assert a.value == b.value
        assert a.argmax_coords == b.argmax_coords
