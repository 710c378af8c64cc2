"""Assemble the explicit distance-bound exponent for the built-in curve.

The chain runs: theta-norm maximization -> Arakelov constants -> combinatorial
bounds -> the exponent of the p-adic distance bound p^(-e).  The numbers past
Bu_m are astronomically large; mpmath floats have an unbounded exponent, so
they are carried as they are and reported in log10.

Run:  python demos/bound_report.py
"""

import mpmath as mp

import thetadist as td

# every constant below, and the theta sums on preset.tau, run at 128 bits
bits = 128
preset = td.bost_mestre_preset(bits)
g, deg_K0, p = preset.data.g, preset.data.deg_K0, 3

# --- combinatorial chain ---------------------------------------------------
print("Bu_m = (m(2g-2) + 6g) m^2g 3^g g!  (exact integers):")
for m in (1, 2, 3, 5):
    print(f"  Bu_{m} = {td.bu(m, g)}")

H_p = td.h_bound(p, g, deg_K0)
print(f"\nH_{p} = L_{{{p}^{deg_K0}, {p}}}:  log10 =", mp.nstr(mp.log10(H_p), 15))

order = td.order_bound(td.BoundParams(g=g, deg_K0=deg_K0, p=p, q=p))
print(f"torsion-order bound (Hasse-Weil at d = Bu_{p}):  log10 =",
      mp.nstr(mp.log10(order), 15))
print("Galois-degree bound on that order:  log10 =",
      mp.nstr(mp.log10(td.degree_bound(order, g)), 15))

# --- Arakelov side ---------------------------------------------------------
h_fal = td.faltings_height_gamma(preset.gamma_terms, preset.gamma_constant, bits)
print("\nFaltings height (gamma product):", mp.nstr(h_fal, 28))

tm = td.theta_max(preset.tau, grid_points_per_dim=16)
preset.data.theta_max = tm.value
with mp.workprec(bits):
    zd = td.zar_degree(preset.data, bits)
    combined = mp.log(tm.value) + zd
    arak = abs(combined)
    print("zar_degree =", mp.nstr(zd, 25))
    print("combined constant log Theta_Max + zar_degree =", mp.nstr(combined, 25))
    print("   (numerically indistinguishable from (3/8) log 5 =",
          mp.nstr(mp.mpf(3) / 8 * mp.log(5), 25), ")")

D = td.constant_D(preset.data, bits)
print("constant D = 2 [K0:Q] |combined| =", mp.nstr(D, 25))

# --- the exponents ---------------------------------------------------------
main = td.tate_voloch_exponent_main(D, H_p)
print(f"\nmain exponent 1 + D*H_{p}:  log10 =", mp.nstr(mp.log10(main), 15))
print(f"so every off-curve torsion point satisfies d_{p}(T, C) >= {p}^(-e)",
      "with log10(e) as above")

sharp = td.tate_voloch_exponent_sharp(
    td.BoundParams(g=g, deg_K0=deg_K0, p=p, q=p**deg_K0), arak
)
print("sharp exponent (residue degree 40):  log10 =", mp.nstr(mp.log10(sharp), 15))

# --- hypotheses ------------------------------------------------------------
print("\nhypothesis checklist at p = 3:")
hyp = td.check_hypotheses(preset.data, p, torsion_order=5)
for name in ("semistable", "p_odd", "good_reduction_at_p", "unramified_at_p",
             "order_coprime_to_p", "neutral_component", "p_admissible"):
    print(f"  {name}: {getattr(hyp, name)}")
print("all satisfied:", hyp.all_satisfied())
