"""Acceptance gate: one printed pass/fail line per criterion.

Each test prints `criterion N: PASS|FAIL - <summary>` on the live terminal
(outside pytest capture) and then asserts, so the suite output doubles as the
acceptance checklist.
"""

import json
import math
import random
import time

import mpmath as mp
import pytest

import thetadist as td
from thetadist import cli

PAPER_THETA_MAX = "1.06639277369136206671054075"
PAPER_H_FAL = "-1.452509239645644650317707042"
PAPER_COMBINED = "0.60353921716278764047528474"


@pytest.fixture()
def announce(capsys):
    def _announce(n, ok, summary):
        with capsys.disabled():
            print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {summary}")
        assert ok, f"criterion {n}: {summary}"

    return _announce


def test_criterion_1_theta_max(s4_theta_max_timed, announce):
    result, seconds = s4_theta_max_timed
    with mp.workprec(200):
        err = abs(result.value - mp.mpf(PAPER_THETA_MAX))
    ok = err < mp.mpf("1e-10") and seconds < 600
    announce(
        1,
        ok,
        f"theta_max grid 32^4 reproduces the 27-digit value "
        f"(|err| = {mp.nstr(err, 3)}, {seconds:.1f}s)",
    )


def test_criterion_2_faltings_height(preset, announce):
    v = td.faltings_height_gamma(preset.gamma_terms, preset.gamma_constant, preset.tau.bits)
    with mp.workprec(200):
        err = abs(v - mp.mpf(PAPER_H_FAL))
    announce(2, err < mp.mpf("1e-15"), f"gamma-product Faltings height (|err| = {mp.nstr(err, 3)})")


def test_criterion_3_combined_constant(preset, s4_theta_max, announce):
    preset.data.theta_max = s4_theta_max.value
    with mp.workprec(preset.tau.bits):
        combined = mp.log(s4_theta_max.value) + td.zar_degree(preset.data, preset.tau.bits)
        err = abs(combined - mp.mpf(PAPER_COMBINED))
        obs = abs(combined - mp.mpf(3) / 8 * mp.log(5))
    ok = err < mp.mpf("1e-10") and obs < mp.mpf("1e-13")
    announce(
        3,
        ok,
        f"log theta_max + zar_degree (|err| = {mp.nstr(err, 3)}; observation: "
        f"|combined - (3/8)log 5| = {mp.nstr(obs, 3)} < 1e-13)",
    )


def test_criterion_4_normalization(tau_g1, tau_s4, announce):
    est1, ref1 = td.theta_norm_normalization_check(tau_g1, 512 * 512)
    est2, ref2 = td.theta_norm_normalization_check(tau_s4, 10**6)
    e1, e2 = abs(est1 - ref1), abs(est2 - ref2)
    ok = e1 < 1e-6 and e2 < 1e-3
    announce(
        4,
        ok,
        f"normalization integral 2^(-g/2): g=1 err {e1:.2e} (< 1e-6), "
        f"g=2 err {e2:.2e} (< 1e-3)",
    )


def test_criterion_5_bound_chain_exactness(announce):
    ok_bu = td.bu(3, 2) == 26244 and td.bu(1, 2) == 252
    b = td.bu(1, 2)
    exact = (2 ** (2 * b) + 11 * 2**b + 4 * 2 ** (3 * b // 2)) ** 16
    with mp.workprec(400):
        ref = mp.log(mp.mpf(exact))
        rel = abs(mp.log(td.l_bound(2, 1, 2)) - ref) / ref
    ok = ok_bu and rel < mp.mpf("1e-25")
    announce(
        5,
        ok,
        f"bu(3,2)=26244, bu(1,2)=252 exact; log L_2,1 vs exact integer "
        f"(rel err {mp.nstr(rel, 3)})",
    )


def test_criterion_6_final_exponent(preset, s4_theta_max, announce):
    preset.data.theta_max = s4_theta_max.value
    D = td.constant_D(preset.data, preset.tau.bits)
    H_3 = td.h_bound(3, 2, 40)
    exponent = td.tate_voloch_exponent_main(D, H_3)
    log10_exp = float(mp.log10(exponent))
    estimate = 16 * 26244 * 2 * 40 * math.log10(3)
    rel = abs(log10_exp - estimate) / estimate
    announce(
        6,
        rel < 1e-3,
        f"log10(main exponent) = {log10_exp:.1f} vs leading-term estimate "
        f"{estimate:.1f} (rel err {rel:.2e} < 0.1%)",
    )


def test_criterion_7_jacobian_arithmetic(curve, rational_subgroup, announce):
    D1 = td.make_divisor(curve, (0, 1), (1,))
    W = td.make_divisor(curve, (1, 1), ())
    ok_orders = td.order_of(curve, D1) == 5 and td.order_of(curve, W) == 2
    rng = random.Random(99)
    ok_laws = True
    for _ in range(50):
        A, B, C = (rng.choice(rational_subgroup) for _ in range(3))
        assoc = td.add(curve, td.add(curve, A, B), C) == td.add(
            curve, A, td.add(curve, B, C)
        )
        inv = td.add(curve, A, td.neg(curve, A)).is_zero()
        ok_laws = ok_laws and assoc and inv
    ok_hom = True
    for p in (3, 7, 11):
        for j in (1, 2):
            for A in rational_subgroup:
                for B in rational_subgroup:
                    lhs = td.reduce_mod(curve, td.add(curve, A, B), p, j)
                    try:
                        rhs = td.add(
                            curve,
                            td.reduce_mod(curve, A, p, j),
                            td.reduce_mod(curve, B, p, j),
                        )
                    except td.RepresentationDegenerate:
                        continue  # declared degeneration over Z/p^j, j >= 2
                    ok_hom = ok_hom and lhs == rhs
    ok = ok_orders and ok_laws and ok_hom
    announce(
        7,
        ok,
        "orders 5 and 2; 50 random associativity/inverse triples; reduction "
        "homomorphism for p in {3,7,11}, j in {1,2}",
    )


def test_criterion_8_padic_harness(curve, preset, announce):
    t0 = time.perf_counter()
    D1 = td.make_divisor(curve, (0, 1), (1,))
    ok_vp = td.vp_distance(curve, td.scalar_mul(curve, 2, D1), 3, 4).v_p == 0
    preset.data.theta_max = 1.06639277369136206671054075
    mults = [td.scalar_mul(curve, k, D1) for k in range(1, 5)]
    ok_rows = True
    for p, jmax in ((3, 4), (7, 4), (11, 4), (13, 3)):
        rows = td.verify_bound(curve, preset.data, mults, p, jmax)
        ok_rows = ok_rows and len(rows) == 2 and all(
            r.inequality_holds is True for r in rows
        )
    ok_oracle = True
    for p in (3, 5):
        for j in (1, 2):
            pts = td.enumerate_curve_points_mod(curve, p, j)
            ok_oracle = ok_oracle and all(
                td.on_curve_mod(curve, P, p, j) for P in pts
            )
    for j in (1, 2):
        two = td.reduce_mod(curve, td.scalar_mul(curve, 2, D1), 3, j)
        ok_oracle = ok_oracle and not td.on_curve_mod(curve, two, 3, j)
    seconds = time.perf_counter() - t0
    ok = ok_vp and ok_rows and ok_oracle and seconds < 60
    announce(
        8,
        ok,
        f"v_3(2*D1) = 0; verify_bound holds at p in {{3,7,11,13}}; on_curve_mod "
        f"matches the enumeration oracle for p <= 5, j <= 2 ({seconds:.1f}s)",
    )


def test_criterion_9_cli_determinism(tmp_path, capsys, announce):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    args = ["--preset", "bost-mestre", "--p", "3", "--grid", "16", "--verify"]
    codes = [cli.main(args + ["--out", str(p)]) for p in paths]
    blobs = [p.read_bytes() for p in paths]
    ok = codes == [0, 0] and blobs[0] == blobs[1] and len(blobs[0]) > 0
    announce(9, ok, "two preset CLI invocations produce byte-identical reports")
