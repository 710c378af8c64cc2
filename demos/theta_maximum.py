"""Evaluate the Riemann theta function, its translation-invariant norm, and
locate the global maximum of sqrt(<s,s>) over the Jacobian torus for the
built-in genus-2 curve y^2 + y = x^5.

Run:  python demos/theta_maximum.py
"""

import mpmath as mp

import thetadist as td

# tau carries the working precision of every theta sum on it: 128 bits
preset = td.bost_mestre_preset(128)
tau = preset.tau

print("period matrix (from the fifth root of unity):")
for i in range(2):
    print("  ", [mp.nstr(tau.tau[i, j], 20) for j in range(2)])
print("lambda_min(Im tau) =", mp.nstr(mp.mpf(tau.lambda_min), 10))

# --- theta at a few points -------------------------------------------------
z0 = td.ThetaPoint((0, 0))
print("\ntheta(0, tau) =", mp.nstr(td.theta(tau, z0), 25))

z1 = td.ThetaPoint((0.25 + 0.1j, -0.3 + 0.2j))
print("theta(z1, tau) =", mp.nstr(td.theta(tau, z1), 25))

# quasi-periodicity: shifting by a lattice vector leaves the norm unchanged
with mp.workprec(tau.bits):
    shift = tuple(z1.z[i] + tau.tau[i, 0] + 2 for i in range(2))
n1 = td.theta_norm(tau, z1)
n2 = td.theta_norm(tau, td.ThetaPoint(shift))
print("\n<s,s>(z1)           =", mp.nstr(n1, 25))
print("<s,s>(z1 + lattice) =", mp.nstr(n2, 25))

# the metric is normalized so the torus average of <s,s> is 2^(-g/2)
est, ref = td.theta_norm_normalization_check(tau, 10**5)
print("\ntorus average of <s,s>: estimate", f"{est:.8f}", "reference", ref)

# --- global maximization ---------------------------------------------------
# grid 16^4 keeps this demo fast; the acceptance run uses 32^4
result = td.theta_max(tau, grid_points_per_dim=16)
print("\nTheta_Max =", mp.nstr(result.value, 27))
print("argmax (lattice coordinates):", [mp.nstr(c, 10) for c in result.argmax_coords])
print("best raw grid value:", f"{result.grid_best:.15f}")
print("known 27-digit value: 1.06639277369136206671054075")
