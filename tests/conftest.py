import mpmath as mp
import pytest

import thetadist as td


@pytest.fixture(scope="session")
def cfg():
    return td.PrecisionConfig(working_precision_bits=128, target_abs_error=1e-25)


@pytest.fixture(scope="session")
def tau_g1():
    return td.PeriodMatrix([[1j]])


@pytest.fixture(scope="session")
def preset(cfg):
    return td.bost_mestre_preset(cfg)


@pytest.fixture(scope="session")
def tau_s4(preset):
    return preset.tau


@pytest.fixture(scope="session")
def curve(preset):
    return td.HyperellipticCurve(preset.curve_coeffs)


@pytest.fixture(scope="session")
def s4_theta_max_timed(tau_s4, cfg):
    """Full-budget maximization on the built-in period matrix, computed once."""
    import time

    ocfg = td.OptimizerConfig(grid_points_per_dim=32)
    t0 = time.perf_counter()
    result = td.theta_max(tau_s4, ocfg, cfg)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def s4_theta_max(s4_theta_max_timed):
    return s4_theta_max_timed[0]


@pytest.fixture(scope="session")
def rational_subgroup(curve):
    """The ten rational classes a*[(0,1)-inf] + b*[(-1,0)-inf]."""
    D1 = td.make_divisor(curve, (0, 1), (1,))
    W = td.make_divisor(curve, (1, 1), ())
    return [
        td.add(curve, td.scalar_mul(curve, a, D1), td.scalar_mul(curve, b, W))
        for a in range(5)
        for b in range(2)
    ]


def _box(g: int, R):
    """The lattice vectors with |m_k| <= R_k, for R an int or one per axis."""
    import itertools

    radii = [R] * g if isinstance(R, int) else list(R)
    return itertools.product(*(range(-r, r + 1) for r in radii))


def brute_theta(tau: td.PeriodMatrix, z, R, bits: int = 200):
    """Independent naive double-loop theta sum over |m_k| <= R (an int, or
    one radius per axis)."""
    g = tau.g
    with mp.workprec(bits):
        zt = [mp.mpc(w) for w in z]
        total = mp.mpc(0)
        for m in _box(g, R):
            quad = mp.mpc(0)
            lin = mp.mpc(0)
            for i in range(g):
                if m[i]:
                    lin += m[i] * zt[i]
                    for j in range(g):
                        if m[j]:
                            quad += m[i] * m[j] * tau.tau[i, j]
            total += mp.exp(2j * mp.pi * (quad / 2 + lin))
        return total

