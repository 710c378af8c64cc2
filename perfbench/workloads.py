"""The three workloads: seeded inputs, one timed round, and its correctness check.

Each workload is a class whose constructor is the set-up (imports done by
the caller, then inputs built from the seed), whose ``round`` is the timed
section and whose ``check`` compares a round's outputs with references.  A
check returns ``attempted``, ``failed`` and ``refused`` operation counts; a
refusal is a degeneration the package declares (``RepresentationDegenerate``
from Cantor over Z/p^j) and is not a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

import mpmath as mp
import numpy as np
from scipy.stats import qmc

from thetadist import arakelov, bounds, cli, jacobian, periods
from thetadist.errors import RepresentationDegenerate

from inputs import CHUNK_TERMS, box_terms, primes_below, siegel_reduced_tau

THETA_MAX_REF = "1.06639277369136206671054075"
THETA_MAX_DIGITS_CAP = 26.0
# A double-precision value agreeing to the last bit still reads as 17 digits.
KERNEL_DIGITS_CAP = 17.0
# End-to-end digits a workload does not compute are reported at their cap,
# so they never read as a change.
NOT_MEASURED = {"theta_max_digits": THETA_MAX_DIGITS_CAP, "kernel_digits": KERNEL_DIGITS_CAP}
PRIME_LIMIT = 200
SPOT_RTOL = 1e-9


def digits(err, ref, cap):
    """Correct decimal digits: -log10 of the relative error, capped."""
    with mp.workprec(200):
        rel = abs(mp.mpf(err)) / abs(mp.mpf(ref))
        return cap if rel == 0 else min(cap, float(-mp.log10(rel)))


def admissible_primes(data) -> list[int]:
    return [p for p in primes_below(PRIME_LIMIT) if bounds.admissible_prime(p, data)]


def lattice_point(tau, coords):
    """z = n + tau m at 128 bits from lattice coordinates (n, m)."""
    g = tau.g
    with mp.workprec(128):
        c = [mp.mpf(float(x)) for x in coords]
        return periods.ThetaPoint(tuple(
            c[i] + sum(tau.tau[i, j] * c[g + j] for j in range(g)) for i in range(g)
        ))


def spot_check(tau, coords):
    """norm_batch on the spot points as one batch, theta_norm at each point."""
    fast = periods.norm_batch(tau, coords)
    slow = [periods.theta_norm(tau, lattice_point(tau, c)) for c in coords]
    return [float(v) for v in fast], slow


def compare_spots(fast, slow):
    """Digits of each batch value against the 128-bit value, and misses."""
    d = [digits(f - s, s, KERNEL_DIGITS_CAP) for f, s in zip(fast, slow)]
    misses = sum(1 for f, s in zip(fast, slow) if abs(f - s) > SPOT_RTOL * abs(s))
    return d, misses


class ReportPreset:
    """``thetadist.cli.main`` on the preset with ``--verify`` at the default grid.

    The user's command, and the only workload that runs the grid scan, the
    double refinement and the 128-bit polish of ``maximize``; polish and scan
    take almost all of its time.
    """

    name = "report-preset"

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        self.preset = arakelov.bost_mestre_preset()
        self.p = rng.choice(admissible_primes(self.preset.data))
        self.f = rng.randint(1, self.preset.data.deg_K0)
        self.argv = ["--preset", "bost-mestre", "--p", str(self.p), "--f", str(self.f), "--verify"]
        if smoke:
            self.argv += ["--grid", "8"]
        self.spots = np.array([[rng.random() for _ in range(4)] for _ in range(3)])
        self.seed_info = {"p": self.p, "f": self.f}

    def round(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        return code, out.getvalue()

    def check(self, outputs):
        code, text = outputs
        res = {"attempted": 1, "failed": 0, "refused": 0, "problems": []}
        if code != 0:
            res["failed"] = 1
            res["problems"].append(f"cli exit code {code}")
            return res
        rep = json.loads(text)
        with mp.workprec(200):
            theta = mp.mpf(rep["theta_max"]["value"]["dec"])
            err = theta - mp.mpf(THETA_MAX_REF)
            obs = mp.mpf(rep["combined_constant"]["dec"]) - mp.mpf(3) / 8 * mp.log(5)
        rows = rep["verification_table"]
        if abs(err) >= mp.mpf("1e-10"):
            res["problems"].append(f"theta_max error {mp.nstr(err, 3)}")
        if abs(obs) >= mp.mpf("1e-13"):
            res["problems"].append(f"combined constant off (3/8) log 5 by {mp.nstr(obs, 3)}")
        if not rows or not all(r["inequality_holds"] is True for r in rows):
            res["problems"].append("a verification row does not hold")
        argmax = [float(c) for c in rep["theta_max"]["argmax_coords"]]
        fast, slow = spot_check(self.preset.tau, np.vstack([argmax, self.spots]))
        kd, misses = compare_spots(fast, slow)
        if misses:
            res["problems"].append(f"{misses} spot points disagree with theta_norm")
        res["failed"] = 1 if res["problems"] else 0
        res["theta_max_digits"] = digits(err, THETA_MAX_REF, THETA_MAX_DIGITS_CAP)
        res["kernel_digits"] = min(kd)
        return res


class NormQuadrature:
    """Torus averages and spot values of the theta norm on several matrices.

    Uses ``periods`` through a few large scattered batches with no tensor grid
    and no ``maximize``: kernel, truncation and per-tau work move it, a grid
    scan or refinement change should not.  The random matrices are drawn at a
    fixed truncation radius per slot, and their point counts are set from a
    lattice-term budget, so every seed asks for the same amount of work.
    """

    name = "norm-quadrature"

    # (genus, batch truncation radius) of each seeded Siegel-reduced matrix
    SLOTS = ((2, 4), (2, 6), (3, 5))
    SLOT_TERMS = 15_000_000
    # spot points per genus; at least two, so every spot call is a batch
    SPOTS = {1: 4, 2: 4, 3: 2}

    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng(seed)
        self.tau_i = periods.PeriodMatrix([[1j]])
        self.preset_tau = arakelov.bost_mestre_preset().tau
        self.budget_g1 = 2**10 if smoke else 512 * 512
        self.budget_preset = 2**10 if smoke else 10**6
        self.random = []
        for g, radius in self.SLOTS:
            tau = periods.PeriodMatrix(siegel_reduced_tau(rng, g, radius).tolist())
            terms = box_terms(tau.tau_np)
            n = 2 ** int(math.log2(self.SLOT_TERMS / terms))
            if smoke:
                n = min(n, 2**12)
            self.random.append((tau, n))
        self.spots = [
            (tau, rng.random((self.SPOTS[tau.g], 2 * tau.g)))
            for tau in [self.tau_i, self.preset_tau] + [t for t, _ in self.random]
        ]
        self.seed_info = {
            "lambda_min": [round(float(t.lambda_min), 6) for t, _ in self.random],
            "points": [n for _, n in self.random],
        }

    def _average(self, tau, n):
        if tau.g == 2:
            return periods.theta_norm_normalization_check(tau, n)[0]
        # g = 3 goes through norm_batch in batches of the preset's chunk term
        # count: one call over all points would hold points x (2R+1)^3
        # complex128 values per chunk, gigabytes at R >= 5.
        coords = qmc.Sobol(2 * tau.g, scramble=False).random(n)
        step = max(1, CHUNK_TERMS // box_terms(tau.tau_np))
        vals = [periods.norm_batch(tau, coords[i:i + step]) for i in range(0, n, step)]
        return float(np.concatenate(vals).mean())

    def round(self):
        averages = [
            (1, periods.theta_norm_normalization_check(self.tau_i, self.budget_g1)[0]),
            (2, periods.theta_norm_normalization_check(self.preset_tau, self.budget_preset)[0]),
        ]
        averages += [(tau.g, self._average(tau, n)) for tau, n in self.random]
        spots = [spot_check(tau, coords) for tau, coords in self.spots]
        return averages, spots

    def check(self, outputs):
        averages, spots = outputs
        res = {"attempted": len(averages), "failed": 0, "refused": 0, "problems": []}
        for g, est in averages:
            tol = 1e-6 if g == 1 else 1e-3
            err = abs(est - 2.0 ** (-g / 2))
            if not err < tol:
                res["failed"] += 1
                res["problems"].append(f"g={g} torus average off 2^(-g/2) by {err:.2e}")
        kd = []
        for fast, slow in spots:
            d, misses = compare_spots(fast, slow)
            kd += d
            res["attempted"] += len(fast)
            res["failed"] += misses
            if misses:
                res["problems"].append(f"{misses} spot points disagree with theta_norm")
        res["kernel_digits"] = min(kd)
        return res


class PadicSweep:
    """``jacobian`` alone: verify_bound, Z/p^j homomorphism sums, torsion-lift
    scalar multiplications and the enumeration oracle.

    ``jacobian`` is under 0.01% of report-preset's time; a Cantor or Q_p
    rewrite shows its effect on time and on refusals only here.
    """

    name = "padic-sweep"

    J_MAX = 4
    HOM_LEVELS = (1, 2, 3)
    SCALAR_LEVELS = (1, 4)
    SCALAR_PER_LEVEL = 16
    ENUM_LIMIT = 10**4
    ORACLE_POINTS = 8

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        preset = arakelov.bost_mestre_preset()
        self.data = preset.data
        with mp.workprec(128):
            self.data.theta_max = mp.mpf(THETA_MAX_REF)
        self.curve = jacobian.HyperellipticCurve(preset.curve_coeffs)
        D1 = jacobian.make_divisor(self.curve, (0, 1), (1,))
        W = jacobian.make_divisor(self.curve, (1, 1), ())
        # the ten rational torsion classes a*[(0,1) - inf] + b*[(-1,0) - inf]
        self.classes = [
            jacobian.add(self.curve, jacobian.scalar_mul(self.curve, a, D1),
                         jacobian.scalar_mul(self.curve, b, W))
            for a in range(5) for b in range(2)
        ]
        self.orders = [jacobian.order_of(self.curve, T) for T in self.classes]
        self.primes = admissible_primes(self.data)[: 2 if smoke else None]
        per_level = 2 if smoke else self.SCALAR_PER_LEVEL
        nonzero = [i for i, T in enumerate(self.classes) if not T.is_zero()]
        self.scalar_cases = [
            (rng.choice(nonzero), rng.choice(self.primes), j, rng.getrandbits(128))
            for j in self.SCALAR_LEVELS for _ in range(per_level)
        ]
        self.levels = [(p, j) for p in self.primes for j in range(1, self.J_MAX + 1)
                       if p**j <= self.ENUM_LIMIT]
        degree2 = [i for i, T in enumerate(self.classes) if len(T.u) == 3]
        # per level: one off-curve class and fractions that pick enumerated points
        self.oracle_picks = [
            (rng.choice(degree2), [rng.random() for _ in range(self.ORACLE_POINTS)])
            for _ in self.levels
        ]
        self.seed_info = {"scalar_cases": len(self.scalar_cases), "levels": len(self.levels)}

    def round(self):
        C, J = self.curve, jacobian
        rows = [
            [r.inequality_holds for r in J.verify_bound(C, self.data, self.classes, p, self.J_MAX)]
            for p in self.primes
        ]
        n = len(self.classes)
        sums = {(a, b): J.add(C, self.classes[a], self.classes[b]) for a in range(n) for b in range(n)}
        # homomorphism sums are compared as they come, so that the round's
        # working set stays small: [refused, disagreeing]
        hom = [0, 0]
        for p in self.primes:
            for j in self.HOM_LEVELS:
                red = [J.reduce_mod(C, T, p, j) for T in self.classes]
                for (a, b), s in sums.items():
                    try:
                        got = J.add(C, red[a], red[b])
                    except RepresentationDegenerate:
                        hom[0] += 1
                        continue
                    hom[1] += got != J.reduce_mod(C, s, p, j)
        scalar = []
        for i, p, j, k in self.scalar_cases:
            try:
                scalar.append(J.scalar_mul(C, k, J.reduce_mod(C, self.classes[i], p, j)))
            except RepresentationDegenerate:
                scalar.append(None)
        oracle = []
        for (p, j), (ci, fracs) in zip(self.levels, self.oracle_picks):
            pts = J.enumerate_curve_points_mod(C, p, j)
            picked = [pts[int(u * len(pts))] for u in fracs]
            off = J.reduce_mod(C, self.classes[ci], p, j)
            oracle.append((
                [J.on_curve_mod(C, P, p, j) for P in picked],
                J.on_curve_mod(C, off, p, j),
                off.key() in {P.key() for P in pts},
            ))
        return rows, hom, scalar, oracle

    def check(self, outputs):
        rows, hom, scalar, oracle = outputs
        res = {"failed": 0, "refused": 0, "problems": []}
        n_hom = len(self.primes) * len(self.HOM_LEVELS) * len(self.classes) ** 2
        res["attempted"] = len(rows) + n_hom + len(scalar) + sum(2 + len(o[0]) for o in oracle)
        bad_rows = sum(1 for rs in rows if not rs or not all(h is True for h in rs))
        if bad_rows:
            res["problems"].append(f"verify_bound fails at {bad_rows} primes")
        res["failed"] += bad_rows
        res["refused"] += hom[0]
        res["failed"] += hom[1]
        for (i, p, j, k), got in zip(self.scalar_cases, scalar):
            if got is None:
                res["refused"] += 1
                continue
            T = jacobian.scalar_mul(self.curve, k % self.orders[i], self.classes[i])
            if got != jacobian.reduce_mod(self.curve, T, p, j):
                res["failed"] += 1
        for picked_on, off_on, off_enumerated in oracle:
            res["failed"] += sum(1 for on in picked_on if on is not True)
            if off_on != off_enumerated:
                res["failed"] += 1
        if res["failed"] > bad_rows:
            res["problems"].append(f"{res['failed'] - bad_rows} Cantor or oracle results disagree")
        return res


WORKLOADS = {w.name: w for w in (ReportPreset, NormQuadrature, PadicSweep)}
