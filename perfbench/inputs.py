"""Seeded inputs for the benchmark workloads.

Everything here is computed by the benchmark from ``--seed`` alone; the
package only ever receives the generated values.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Term budget of one ``norm_batch`` chunk on the preset: 20,000 points times
# the 17^2 lattice terms of its truncation box.  Benchmark-side batches of the
# g = 3 matrices stay within it, so their complex128 temporaries are no larger
# than the preset's.
CHUNK_TERMS = 20_000 * 289

# Double-precision tail target used by the batch kernel.
BATCH_TARGET = 1e-18


def primes_below(n: int) -> list[int]:
    return [p for p in range(2, n) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def box_radius(g: int, lam_min: float, y_norm: float, target: float = BATCH_TARGET) -> int:
    """Box radius of the geometric-majorant tail rule for the batch kernel.

    The benchmark's own copy of the rule, so that input sizing and the
    ``periods.lattice_terms`` count stay fixed when the kernel changes: the
    count measures the work of box truncation on the same inputs.
    """

    def log_shell(k):
        return (
            math.log(2 * g) + (g - 1) * math.log(2 * k + 1)
            - math.pi * lam_min * k * k + 2 * math.pi * y_norm * k
        )

    R = 1
    while True:
        k = R + 1
        if log_shell(k + 1) - log_shell(k) <= math.log(0.5) and math.log(2) + log_shell(k) < math.log(target):
            return R
        R += 1


def box_terms(tau_np: np.ndarray) -> int:
    """(2R+1)^g for the box the batch kernel sums over at this tau."""
    g = tau_np.shape[0]
    Y = tau_np.imag
    lam = float(np.linalg.eigvalsh(Y)[0])
    y_norm = float(np.linalg.norm(np.abs(Y) @ np.full(g, 0.5)))
    return (2 * box_radius(g, lam, y_norm) + 1) ** g


def _minkowski_reduced(Y: np.ndarray) -> bool:
    """Minkowski conditions; for g <= 3 vectors with entries in {-1, 0, 1} suffice."""
    g = Y.shape[0]
    if any(Y[i, i] > Y[i + 1, i + 1] for i in range(g - 1)):
        return False
    for v in itertools.product((-1, 0, 1), repeat=g):
        v = np.array(v)
        q = v @ Y @ v
        for k in range(g):
            if v[k:].any() and q < Y[k, k] - 1e-12:
                return False
    return True


def siegel_reduced_tau(rng: np.random.Generator, g: int, radius: int) -> np.ndarray:
    """A random Siegel-reduced tau whose batch truncation radius is ``radius``.

    Siegel-reduced as in Deconinck et al., "Computing Riemann theta
    functions" (Math. Comp. 2004): Im tau Minkowski reduced, |Re tau_ij| <=
    1/2 and |tau_11| >= 1.  The radius is fixed per slot and lambda_min is
    left free, so each seed gives other matrices at the same lattice-term
    count and run times stay comparable across seeds.
    """
    for _ in range(100_000):
        d = np.sort(rng.uniform(1.0, 2.0, g))
        Y = np.diag(d)
        for i in range(g):
            for j in range(i + 1, g):
                Y[i, j] = Y[j, i] = rng.uniform(-0.9, 0.9) * d[i] / 2
        if g == 2:
            Y[0, 1] = Y[1, 0] = abs(Y[0, 1])
        if np.linalg.eigvalsh(Y)[0] <= 0 or not _minkowski_reduced(Y):
            continue
        X = np.triu(rng.uniform(-0.5, 0.5, (g, g)))
        tau = X + np.triu(X, 1).T + 1j * Y
        if box_terms(tau) == (2 * radius + 1) ** g:
            return tau
    raise RuntimeError(f"no Siegel-reduced tau with g={g}, R={radius} found")
