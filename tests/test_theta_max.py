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
    def test_beats_dense_grid(self, tau_g1, cfg):
        ocfg = td.OptimizerConfig(grid_points_per_dim=64)
        res = td.theta_max(tau_g1, ocfg, cfg)
        # an independent, much denser grid must not beat the reported max
        axis = np.arange(400) / 400.0
        coords = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        dense = float(np.sqrt(td.periods.norm_batch(tau_g1, coords)).max())
        assert float(res.value) >= dense - 1e-9

    def test_grid_best_below_value(self, tau_g1, cfg):
        res = td.theta_max(tau_g1, td.OptimizerConfig(grid_points_per_dim=64), cfg)
        assert res.grid_best <= float(res.value) + 1e-12


class TestThetaMaxG2:
    def test_block_diagonal_factorizes(self, cfg):
        """For tau = diag(tau1, tau2) the norm is a product of g=1 norms, so
        the maxima multiply."""
        o1 = td.OptimizerConfig(grid_points_per_dim=64)
        r_i = td.theta_max(td.PeriodMatrix([[1j]]), o1, cfg)
        r_2i = td.theta_max(td.PeriodMatrix([[2j]]), o1, cfg)
        o2 = td.OptimizerConfig(grid_points_per_dim=12)
        r_d = td.theta_max(td.PeriodMatrix([[1j, 0], [0, 2j]]), o2, cfg)
        with mp.workprec(cfg.working_precision_bits):
            assert abs(r_d.value - r_i.value * r_2i.value) < 1e-20

    def test_probes_never_beat_max(self, tau_s4, s4_theta_max):
        rng = np.random.default_rng(42)
        coords = rng.random((1000, 4))
        vals = np.sqrt(td.periods.norm_batch(tau_s4, coords))
        assert float(vals.max()) <= float(s4_theta_max.value) + 1e-12

    def test_grid_monotone_in_budget(self, tau_s4, cfg):
        v8 = td.theta_max(
            tau_s4, td.OptimizerConfig(grid_points_per_dim=8), cfg
        ).value
        v16 = td.theta_max(
            tau_s4, td.OptimizerConfig(grid_points_per_dim=16), cfg
        ).value
        assert float(v16) >= float(v8) - 1e-12

    def test_shifted_grid_stability(self, tau_s4, cfg, s4_theta_max):
        """No coordinate of the 17^4 grid equals one of the argmax's (0.1,
        0.9, 0.8), so Newton starts off the 32^4 grid points."""
        shifted = td.theta_max(tau_s4, td.OptimizerConfig(grid_points_per_dim=17), cfg)
        with mp.workprec(cfg.working_precision_bits):
            assert abs(shifted.value - s4_theta_max.value) < 1e-20

    def test_closed_form_value(self, preset, cfg, s4_theta_max):
        """log Theta_Max + zar_degree = (3/8) log 5 to within the 1e-25 theta
        tail bound, so Newton must bring the value that close."""
        with mp.workprec(cfg.working_precision_bits):
            closed = mp.exp(mp.mpf(3) / 8 * mp.log(5) - td.zar_degree(preset.data, cfg))
            assert abs(s4_theta_max.value - closed) < mp.mpf("1e-24")

    def test_ridge_matrix_converges(self, cfg):
        """The 8 best 16^4 grid points of this (not Minkowski-reduced) matrix
        lie on one ridge where the Hessian is indefinite, so Newton drops
        every start taken from them; one start per grid local maximum still
        reaches the maximum the 24^4 grid finds."""
        tau = td.PeriodMatrix(TAU_RIDGE)
        r16 = td.theta_max(tau, td.OptimizerConfig(grid_points_per_dim=16), cfg)
        r24 = td.theta_max(tau, td.OptimizerConfig(grid_points_per_dim=24), cfg)
        with mp.workprec(cfg.working_precision_bits):
            assert abs(r16.value - mp.mpf("1.4324439077679387733")) < 1e-18
            assert abs(r16.value - r24.value) < 1e-20

    def test_grid_scan_memory(self, tau_s4, cfg):
        """The 32^4 scan and start selection hold a few 8 MB value arrays."""
        tracemalloc.start()
        try:
            td.theta_max(tau_s4, td.OptimizerConfig(grid_points_per_dim=32), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_argmax_reproduces_value(self, tau_s4, cfg, s4_theta_max):
        coords = s4_theta_max.argmax_coords
        with mp.workprec(cfg.working_precision_bits):
            z = tuple(
                coords[i] + sum(tau_s4.tau[i, j] * coords[2 + j] for j in range(2))
                for i in range(2)
            )
            v = mp.sqrt(td.theta_norm(tau_s4, td.ThetaPoint(z), cfg))
        assert abs(v - s4_theta_max.value) < 1e-12


    def test_preset_cost_and_value(self, tau_s4, cfg, monkeypatch):
        """At 32^4 the three half-period starts (value 0.99694) are dropped in
        doubles; only the two symmetric maxima are polished, at two
        derivative sums each, and the value comes from the last of them."""
        calls = []
        kernel = td.periods._theta_reduced

        def counted(tau, z0, cfg, derivs=False):
            calls.append(z0)
            return kernel(tau, z0, cfg, derivs)

        monkeypatch.setattr(td.periods, "_theta_reduced", counted)
        monkeypatch.setattr(td.maximize, "_theta_reduced", counted)
        res = td.theta_max(tau_s4, td.OptimizerConfig(grid_points_per_dim=32), cfg)

        half_periods = {528: (0, 0, 0.5, 0.5), 16384: (0, 0.5, 0, 0), 524288: (0.5, 0, 0, 0)}
        starts = td.maximize._grid_starts(td.periods.sqrt_norm_grid(tau_s4, 32))
        assert set(half_periods) <= set(starts)
        assert len(calls) <= 4
        Yinv = np.linalg.inv(tau_s4.lattice.Y)
        for z0 in calls:
            z = np.array([complex(w) for w in z0.z])
            m = Yinv @ z.imag
            x = np.concatenate([z.real - tau_s4.lattice.taun.real @ m, m])
            for h in half_periods.values():
                d = (x - np.array(h)) % 1
                assert np.minimum(d, 1 - d).max() > 1e-3
        with mp.workprec(cfg.working_precision_bits):
            assert abs(res.value - mp.mpf(S4_THETA_MAX)) < mp.mpf("1e-35")
            assert max(abs(c - mp.mpf(a)) for c, a in zip(res.argmax_coords, S4_ARGMAX)) < 1e-30


class TestThetaDerivs:
    @pytest.mark.parametrize("name", ["i", "s4", "ridge", "g3", "y21", "c30"])
    def test_matches_working_precision_kernel(self, name, tau_s4, cfg):
        """_theta_batch(derivs=True) against _theta_reduced(derivs=True) at
        seeded points, taken at the recentred coordinates the double kernel
        sums at and times its factor exp(-pi m'Ym).  TAU_C30 (4 x 4 cells)
        takes the derivatives across cells."""
        tau = {"i": td.PeriodMatrix([[1j]]), "s4": tau_s4,
               "ridge": td.PeriodMatrix(TAU_RIDGE), "g3": td.PeriodMatrix(TAU_G3),
               "y21": td.PeriodMatrix(TAU_Y21), "c30": td.PeriodMatrix(TAU_C30)}[name]
        g = tau.g
        rng = np.random.default_rng(7)
        for x in rng.random((4, 2 * g)):
            fast = [v[0] for v in td.periods._theta_batch(tau, x[None], derivs=True)]
            x = x - np.round(x)
            with mp.workprec(cfg.working_precision_bits):
                z = tuple(
                    x[i] + sum(tau.tau[i, j] * x[g + j] for j in range(g)) for i in range(g)
                )
                th, d1, d2 = td.periods._theta_reduced(tau, td.ThetaPoint(z), cfg, derivs=True)
                m = x[g:]
                factor = mp.exp(
                    -mp.pi * sum(m[i] * tau.Y[i, j] * m[j] for i in range(g) for j in range(g))
                )
                th, d1, d2 = factor * th, factor * d1, factor * d2
            slow = (
                np.array(complex(th)),
                np.array([complex(d1[i]) for i in range(g)]),
                np.array([[complex(d2[i, j]) for j in range(g)] for i in range(g)]),
            )
            for f, s in zip(fast, slow):
                assert np.abs(f - s).max() <= 1e-12 * np.abs(s).max()


class TestGridStarts:
    def test_one_start_per_symmetric_maximum(self, tau_s4):
        """The 10 grid points within 1e-14 of the preset's 32^4 maximum form
        two 5-point clusters, one around each of two symmetric maxima."""
        vals = td.periods.sqrt_norm_grid(tau_s4, 32)
        starts = td.maximize._grid_starts(vals)
        near = np.flatnonzero(vals.ravel() >= vals.max() * (1 - 1e-14))
        assert len(near) == 10

        def cluster(i):
            d = np.abs(np.array(np.unravel_index(near, vals.shape)).T
                       - np.array(np.unravel_index(i, vals.shape))) % 32
            return set(near[np.minimum(d, 32 - d).max(axis=1) <= 2])

        picked = [i for i in starts if i in near]
        assert len(picked) == 2
        a, b = cluster(picked[0]), cluster(picked[1])
        assert len(a) == len(b) == 5 and not a & b
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
        vals[0, 7] = vals[7, 0] = 2.0
        vals[4, 4] = 3.0
        assert list(td.maximize._grid_starts(vals)) == [0, 36]


class TestConfigAndGuards:
    def test_optimizer_config_validation(self):
        with pytest.raises(td.InvalidInput):
            td.OptimizerConfig(grid_points_per_dim=4)

    def test_grid_budget_guard(self, tau_s4, cfg):
        with pytest.raises(td.ConfigRejected):
            td.theta_max(tau_s4, td.OptimizerConfig(grid_points_per_dim=200), cfg)

    def test_default_config_by_genus(self):
        assert td.default_optimizer_config(1).grid_points_per_dim == 256
        assert td.default_optimizer_config(2).grid_points_per_dim == 32
        # 10^6 <= 32^4 < 11^6; at g = 4 no nd >= 8 fits 32^4, and 8^8 is
        # within the grid budget
        assert td.default_optimizer_config(3).grid_points_per_dim == 10
        assert td.default_optimizer_config(4).grid_points_per_dim == 8

    def test_no_converged_start_raises(self, tau_g1, cfg, monkeypatch):
        monkeypatch.setattr(td.maximize, "_newton", lambda tau, start, cfg: None)
        with pytest.raises(td.BudgetExceeded):
            td.theta_max(tau_g1, td.OptimizerConfig(grid_points_per_dim=8), cfg)

    def test_no_double_converged_start_raises(self, tau_g1, cfg, monkeypatch):
        """When Newton in doubles drops every start, no start is polished at
        working precision."""
        def polish(tau, start, cfg):
            raise AssertionError("polished a start Newton in doubles dropped")

        monkeypatch.setattr(td.maximize, "_newton_double", lambda tau, start: None)
        monkeypatch.setattr(td.maximize, "_newton", polish)
        with pytest.raises(td.BudgetExceeded):
            td.theta_max(tau_g1, td.OptimizerConfig(grid_points_per_dim=8), cfg)

    def test_refined_below_grid_raises(self, tau_g1, cfg, monkeypatch):
        monkeypatch.setattr(
            td.maximize, "_newton", lambda tau, start, cfg: (mp.mpf("0.5"), (mp.mpf(0),) * 2)
        )
        with pytest.raises(td.BudgetExceeded):
            td.theta_max(tau_g1, td.OptimizerConfig(grid_points_per_dim=8), cfg)

    def test_tie_break_ignores_ambient_precision(self, tau_s4, cfg, monkeypatch):
        """The polishes of the symmetric maxima x and -x tie up to rounding.
        With the value of the twin of higher coordinates raised by a relative
        2^-120, far below target_abs_error, the lowest coordinates still win
        at an ambient precision of 53 bits and of 300 bits."""
        newton = td.maximize._newton

        def nudged(tau, start, cfg):
            value, x = newton(tau, start, cfg)
            if x[0] > 0.5:
                with mp.workprec(cfg.working_precision_bits):
                    value *= 1 + mp.mpf(2) ** -120
            return value, x

        monkeypatch.setattr(td.maximize, "_newton", nudged)
        ocfg = td.OptimizerConfig(grid_points_per_dim=8)
        argmaxes = []
        for ambient in (53, 300):
            with mp.workprec(ambient):
                argmaxes.append(td.theta_max(tau_s4, ocfg, cfg).argmax_coords)
        assert argmaxes[0] == argmaxes[1]
        assert argmaxes[0][0] < 0.5

    def test_deterministic_rerun(self, tau_s4, cfg):
        ocfg = td.OptimizerConfig(grid_points_per_dim=12)
        a = td.theta_max(tau_s4, ocfg, cfg)
        b = td.theta_max(tau_s4, ocfg, cfg)
        assert a.value == b.value
        assert a.argmax_coords == b.argmax_coords
