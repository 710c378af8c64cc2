"""The combinatorial bound chain and the final distance-bound exponents.

Chain: the mod-l^2 point bound Bu_m, the Galois-degree bound L_{n,m} built
from the Hasse-Weil cardinality estimate, H_m = L_{m^[K0:Q], m}, and the two
exponent assemblies 1 + D*H_p (worst case over the residue degree) and
1 + 2*L_q*[K0:Q]*|combined constant| (actual residue cardinality).
Everything past Bu_m is an mpmath float at BOUND_BITS bits: its binary
exponent is unbounded, so values like 10^(10^16) need no log scale.  Exact
big integers serve as the cross-check oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

from .errors import InvalidInput

BOUND_BITS = 192  # every bound value, whatever mpmath's ambient precision


def is_prime(n: int) -> bool:
    """True iff n >= 2 has no divisor d with 2 <= d <= isqrt(n) (trial division)."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


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
        if not is_prime(self.p):
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


def l_bound(n, m: int, g: int) -> mp.mpf:
    """L_{n,m}: the Galois-degree bound on the Hasse-Weil bound with d = Bu_m,
    [n^(Bu_m g) + (2^2g - 2g - 1) n^(Bu_m (g-1)) + 2g n^(Bu_m (g-1/2))]^(4g^2)."""
    return degree_bound(hasse_weil_card_bound(n, bu(m, g), g), g)


def h_bound(m: int, g: int, deg_K0: int) -> mp.mpf:
    """H_m = L_{m^[K0:Q], m}."""
    if m < 2:
        raise InvalidInput("m must be >= 2")
    return l_bound(m**deg_K0, m, g)


def hasse_weil_card_bound(q, d: int, g: int) -> mp.mpf:
    """Upper bound q^(dg) + (2^2g - 2g - 1) q^(d(g-1)) + 2g q^(d(g-1/2)) on
    #A(F_q^d); q is an int or an mpf."""
    if q < 2 or d < 1:
        raise InvalidInput("need q >= 2 and d >= 1")
    with mp.workprec(BOUND_BITS):
        q = mp.mpf(q)
        return (
            q ** (d * g)
            + (2 ** (2 * g) - 2 * g - 1) * q ** (d * (g - 1))
            + 2 * g * mp.sqrt(q) ** (d * (2 * g - 1))
        )


def order_bound(params: BoundParams) -> mp.mpf:
    """Bound on the order of the torsion point: Hasse-Weil with d = Bu_p."""
    return hasse_weil_card_bound(params.q, bu(params.p, params.g), params.g)


def degree_bound(N, g: int) -> mp.mpf:
    """Galois-degree bound N^(4g^2) (via #GL_2g(Z/NZ) <= N^(4g^2))."""
    if N < 1:
        raise InvalidInput("N must be >= 1")
    with mp.workprec(BOUND_BITS):
        return mp.mpf(N) ** (4 * g * g)


def tate_voloch_exponent_main(D, H_p) -> mp.mpf:
    """Exponent 1 + D*H_p; the distance bound is then p^(-exponent)."""
    with mp.workprec(BOUND_BITS):
        D = mp.mpf(D)
        if D < 0:
            raise InvalidInput("D must be nonnegative")
        return 1 + D * H_p


def tate_voloch_exponent_sharp(params: BoundParams, arak_const) -> mp.mpf:
    """Exponent 1 + 2*L_q*[K0:Q]*|combined constant|, with L_q = L_{q,p}."""
    with mp.workprec(BOUND_BITS):
        arak = mp.mpf(arak_const)
        if arak < 0:
            raise InvalidInput("arak_const must be nonnegative")
        return 1 + 2 * params.deg_K0 * arak * l_bound(params.q, params.p, params.g)


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
