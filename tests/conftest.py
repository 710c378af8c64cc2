import importlib.metadata
import os

import mpmath as mp
import pytest

import thetadist as td


@pytest.fixture(scope="session")
def installed_env():
    """os.environ without PYTHONPATH, for running the installed package from
    outside the checkout.  Skips when no thetadist distribution is installed."""
    try:
        importlib.metadata.distribution("thetadist")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("no thetadist distribution is installed (pip install .)")
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


@pytest.fixture(scope="session")
def tau_g1():
    return td.PeriodMatrix([[1j]])


@pytest.fixture(scope="session")
def preset():
    return td.bost_mestre_preset(128)


@pytest.fixture(scope="session")
def tau_s4(preset):
    return preset.tau


@pytest.fixture(scope="session")
def curve(preset):
    return td.HyperellipticCurve(preset.curve_coeffs)


@pytest.fixture(scope="session")
def s4_theta_max_timed(tau_s4):
    """Full-budget maximization on the built-in period matrix, computed once."""
    import time

    t0 = time.perf_counter()
    result = td.theta_max(tau_s4, 32)
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


def lattice_point(tau: td.PeriodMatrix, x, bits: int = 128) -> td.ThetaPoint:
    """z = n + tau m from lattice coordinates x = (n, m), at ``bits``."""
    g = tau.g
    with mp.workprec(bits):
        return td.ThetaPoint(
            tuple(x[i] + sum(tau.tau[i, j] * x[g + j] for j in range(g)) for i in range(g))
        )


def _box(g: int, R):
    """The lattice vectors with |m_k| <= R_k, for R an int or one per axis."""
    import itertools

    radii = [R] * g if isinstance(R, int) else list(R)
    return itertools.product(*(range(-r, r + 1) for r in radii))


def _brute_terms(tau: td.PeriodMatrix, z, R):
    """(m, exp(2 pi i (m'tau m/2 + m'z))) for each m of the box |m_k| <= R,
    the exponent formed by a naive double loop at the caller's precision."""
    g = tau.g
    zt = [mp.mpc(w) for w in z]
    for m in _box(g, R):
        quad = mp.mpc(0)
        lin = mp.mpc(0)
        for i in range(g):
            if m[i]:
                lin += m[i] * zt[i]
                for j in range(g):
                    if m[j]:
                        quad += m[i] * m[j] * tau.tau[i, j]
        yield m, mp.exp(2j * mp.pi * (quad / 2 + lin))


def brute_theta(tau: td.PeriodMatrix, z, R, bits: int = 200):
    """Independent naive double-loop theta sum over |m_k| <= R (an int, or
    one radius per axis)."""
    with mp.workprec(bits):
        total = mp.mpc(0)
        for _, term in _brute_terms(tau, z, R):
            total += term
        return total


def brute_theta_derivs(tau: td.PeriodMatrix, z, R, bits: int = 200):
    """``(theta, gradient, Hessian)`` in z from the naive loop of
    ``brute_theta``: the same terms, weighted by 2 pi i m_k for the gradient
    and by (2 pi i)^2 m_k m_l for the Hessian, as lists of mpmath numbers."""
    g = tau.g
    with mp.workprec(bits):
        w = 2j * mp.pi
        total = mp.mpc(0)
        grad = [mp.mpc(0)] * g
        hess = [[mp.mpc(0)] * g for _ in range(g)]
        for m, term in _brute_terms(tau, z, R):
            total += term
            for i in range(g):
                grad[i] += w * m[i] * term
                for j in range(g):
                    hess[i][j] += w * w * m[i] * m[j] * term
        return total, grad, hess
