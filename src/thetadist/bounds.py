"""The combinatorial bound chain and the final distance-bound exponents.

Chain: the mod-l^2 point bound Bu_m, the Galois-degree bound L_{n,m} built
from the Hasse-Weil cardinality estimate, H_m = L_{m^[K0:Q], m}, and the two
exponent assemblies 1 + D*H_p (worst case over the residue degree) and
1 + 2*L_q*[K0:Q]*|combined constant| (actual residue cardinality).
Everything past Bu_m lives in log scale; exact big integers serve as the
cross-check oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

from .errors import InvalidInput
from .logscale import LogScaledReal


@dataclass(frozen=True)
class BoundParams:
    """Arithmetic inputs of the bound chain: genus, degree, prime, residue size."""

    g: int
    deg_K0: int
    p: int
    q: int

    def __post_init__(self):
        if self.g < 2:
            raise InvalidInput("genus must be >= 2")
        if self.deg_K0 < 1:
            raise InvalidInput("[K0:Q] must be >= 1")
        if self.p < 2 or any(self.p % d == 0 for d in range(2, int(math.isqrt(self.p)) + 1)):
            raise InvalidInput("p must be prime")
        q, f = self.q, 0
        while q % self.p == 0 and q > 1:
            q //= self.p
            f += 1
        if q != 1 or f < 1 or f > self.deg_K0:
            raise InvalidInput("q must be a power p^f with 1 <= f <= [K0:Q]")


def bu(m: int, g: int) -> int:
    """Exact value of (m(2g-2) + 6g) * m^(2g) * 3^g * g!."""
    if m < 1:
        raise InvalidInput("m must be >= 1")
    return (m * (2 * g - 2) + 6 * g) * m ** (2 * g) * 3**g * math.factorial(g)


def _ln_of(n) -> mp.mpf:
    if isinstance(n, LogScaledReal):
        return n.ln()
    with mp.workprec(192):
        return mp.log(mp.mpf(n))


def l_bound(n, m: int, g: int) -> LogScaledReal:
    """L_{n,m}: the Galois-degree bound on the Hasse-Weil bound with d = Bu_m,
    [n^(Bu_m g) + (2^2g - 2g - 1) n^(Bu_m (g-1)) + 2g n^(Bu_m (g-1/2))]^(4g^2)."""
    return degree_bound(hasse_weil_card_bound(n, bu(m, g), g), g)


def h_bound(m: int, g: int, deg_K0: int) -> LogScaledReal:
    """H_m = L_{m^[K0:Q], m}."""
    if m < 2:
        raise InvalidInput("m must be >= 2")
    with mp.workprec(192):
        n = LogScaledReal.exp_of(deg_K0 * mp.log(mp.mpf(m)))
    return l_bound(n, m, g)


def hasse_weil_card_bound(q, d: int, g: int) -> LogScaledReal:
    """Upper bound q^(dg) + (2^2g - 2g - 1) q^(d(g-1)) + 2g q^(d(g-1/2)) on
    #A(F_q^d); q is an int or a LogScaledReal."""
    if q < 2 or d < 1:
        raise InvalidInput("need q >= 2 and d >= 1")
    with mp.workprec(192):
        ln_q = _ln_of(q)
        return (
            LogScaledReal.exp_of(d * g * ln_q)
            + LogScaledReal.from_int(2 ** (2 * g) - 2 * g - 1)
            * LogScaledReal.exp_of(d * (g - 1) * ln_q)
            + LogScaledReal.from_int(2 * g)
            * LogScaledReal.exp_of(d * (mp.mpf(g) - mp.mpf(1) / 2) * ln_q)
        )


def order_bound(params: BoundParams) -> LogScaledReal:
    """Bound on the order of the torsion point: Hasse-Weil with d = Bu_p."""
    return hasse_weil_card_bound(params.q, bu(params.p, params.g), params.g)


def degree_bound(N: LogScaledReal, g: int) -> LogScaledReal:
    """Galois-degree bound N^(4g^2) (via #GL_2g(Z/NZ) <= N^(4g^2))."""
    if not isinstance(N, LogScaledReal):
        N = LogScaledReal.from_int(N)
    if N < LogScaledReal.one():
        raise InvalidInput("N must be >= 1")
    return N ** (4 * g * g)


def tate_voloch_exponent_main(D, H_p: LogScaledReal) -> LogScaledReal:
    """Exponent 1 + D*H_p; the distance bound is then p^(-exponent)."""
    D = mp.mpf(D) if not isinstance(D, mp.mpf) else D
    if D < 0:
        raise InvalidInput("D must be nonnegative")
    return LogScaledReal.one() + LogScaledReal.from_real(D) * H_p


def tate_voloch_exponent_sharp(params: BoundParams, arak_const) -> LogScaledReal:
    """Exponent 1 + 2*L_q*[K0:Q]*|combined constant|, with L_q = L_{q,p}."""
    arak = mp.mpf(arak_const)
    if arak < 0:
        raise InvalidInput("arak_const must be nonnegative")
    lq = l_bound(params.q, params.p, params.g)
    return LogScaledReal.one() + LogScaledReal.from_int(2 * params.deg_K0) * LogScaledReal.from_real(arak) * lq


def admissible_prime(p: int, data) -> bool:
    """True iff p is coprime to 2, the field discriminant, the component-group
    lcm, and every bad-reduction prime."""
    if p == 2:
        return False
    if data.disc % p == 0:
        return False
    if data.component_lcm % p == 0:
        return False
    return p not in data.bad_primes
