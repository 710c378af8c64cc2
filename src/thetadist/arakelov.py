"""Arakelov-side constants: the combined degree invariant, the constant D,
the gamma-product Faltings height, and the hypothesis checklist.

The curve invariants (Neron-Tate height of the canonical class image, Faltings
height, reduction data) are user-supplied or taken from the built-in preset for
the genus-2 curve y^2 + y = x^5; the package does not compute them from
equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction

import mpmath as mp

from .errors import HypothesisViolated, InvalidInput
from .periods import PeriodMatrix, _check_bits

SATISFIED = "satisfied"
VIOLATED = "violated"
UNKNOWN = "unknown"


@dataclass
class CurveArithData:
    """Arithmetic invariants of the curve and its base field."""

    g: int
    deg_K0: int
    h_fal: float
    nt_omega: float = 0.0
    theta_max: float | None = None
    bad_primes: frozenset = frozenset()
    disc: int = 1
    component_lcm: int = 1
    good_reduction_everywhere: bool = True
    semistable: bool = True
    base_point_hyperelliptic_fixed: bool = False

    def __post_init__(self):
        if self.g < 2:
            raise InvalidInput("genus must be >= 2")
        if self.deg_K0 < 1:
            raise InvalidInput("[K0:Q] must be >= 1")
        if self.nt_omega < 0:
            raise InvalidInput("Neron-Tate heights are nonnegative")
        if self.disc < 1 or self.component_lcm < 1:
            raise InvalidInput("disc and component_lcm must be positive")
        if self.good_reduction_everywhere:
            if self.bad_primes or self.component_lcm != 1:
                raise InvalidInput(
                    "good reduction everywhere forces empty bad_primes and trivial component group"
                )
        if self.g == 2 and self.base_point_hyperelliptic_fixed and self.nt_omega != 0:
            # the canonical-class image is 2-torsion in this configuration
            raise InvalidInput("hyperelliptic-fixed base point forces nt_omega = 0")


@dataclass(frozen=True)
class HypothesisReport:
    """Status of the six bound hypotheses plus admissibility of p."""

    semistable: str
    p_odd: str
    good_reduction_at_p: str
    unramified_at_p: str
    order_coprime_to_p: str
    neutral_component: str
    p_admissible: str

    def all_satisfied(self) -> bool:
        return all(getattr(self, f.name) == SATISFIED for f in fields(self))

    def violated_conditions(self) -> list:
        names = [
            ("(1) semistable reduction", self.semistable),
            ("(2) p > 2", self.p_odd),
            ("(3) good reduction at p", self.good_reduction_at_p),
            ("(4) p unramified", self.unramified_at_p),
            ("(5) order coprime to p", self.order_coprime_to_p),
            ("(6) neutral component", self.neutral_component),
            ("admissible prime", self.p_admissible),
        ]
        return [n for n, v in names if v == VIOLATED]


def zar_degree(data: CurveArithData, bits: int = 128):
    """Per-degree arithmetic degree of the restricted metrized theta bundle:
    nt_omega/4 + h_fal/2 + (g/4) log(4 pi), at ``bits``.

    Valid under good reduction everywhere; otherwise the closed form does not
    apply and the call is rejected.
    """
    if not data.good_reduction_everywhere:
        raise HypothesisViolated("zar_degree requires good reduction everywhere")
    with mp.workprec(_check_bits(bits)):
        return (
            mp.mpf(data.nt_omega) / 4
            + mp.mpf(data.h_fal) / 2
            + mp.mpf(data.g) / 4 * mp.log(4 * mp.pi)
        )


def constant_D(data: CurveArithData, bits: int = 128):
    """D = 2 [K0:Q] |log theta_max + zar_degree|, at ``bits``."""
    if data.theta_max is None or data.theta_max <= 0:
        raise InvalidInput("data.theta_max must be a positive real")
    with mp.workprec(_check_bits(bits)):
        return 2 * data.deg_K0 * abs(mp.log(mp.mpf(data.theta_max)) + zar_degree(data, bits))


def faltings_height_gamma(terms, constant_part, bits: int = 128):
    """constant_part - (1/2) sum_e e*log Gamma(a) over (a, e) pairs, a in
    (0,1), at ``bits``."""
    with mp.workprec(_check_bits(bits)):
        acc = mp.mpf(0)
        for a, e in terms:
            a = mp.mpf(a.numerator) / a.denominator if isinstance(a, Fraction) else mp.mpf(a)
            if not (0 < a < 1):
                raise InvalidInput("gamma arguments must lie in (0,1)")
            acc += e * mp.log(mp.gamma(a))
        return mp.mpf(constant_part) - acc / 2


def check_hypotheses(
    data: CurveArithData, p: int, torsion_order: int | None = None
) -> HypothesisReport:
    """Map the curve data onto the six bound hypotheses.  (3) holds under good
    reduction everywhere, (4) when p does not divide disc, and (6) when the
    component group is trivial, which puts every class in the neutral
    component; (3) and (6) are 'unknown' otherwise, as is (5) without an order."""
    from .bounds import admissible_prime
    from math import gcd

    def tri(flag):
        return SATISFIED if flag else VIOLATED

    def known(flag):
        return SATISFIED if flag else UNKNOWN

    return HypothesisReport(
        semistable=tri(data.semistable),
        p_odd=tri(p > 2),
        good_reduction_at_p=known(data.good_reduction_everywhere),
        unramified_at_p=tri(data.disc % p != 0),
        order_coprime_to_p=(
            UNKNOWN if torsion_order is None else tri(gcd(torsion_order, p) == 1)
        ),
        neutral_component=known(data.component_lcm == 1),
        p_admissible=tri(admissible_prime(p, data)),
    )


# ---------------------------------------------------------------------------
# Built-in preset: the genus-2 curve y^2 + y = x^5 (model z^2 = t^5 + 1 over
# K0 = Q(sqrt(1 - zeta_5), 2^(1/5)), [K0:Q] = 40, good reduction everywhere,
# 2 and 5 the only ramified primes).
# ---------------------------------------------------------------------------

PRESET_NAME = "bost-mestre-y2+y=x5"

FALTINGS_GAMMA_TERMS = (
    (Fraction(1, 5), 5),
    (Fraction(2, 5), 3),
    (Fraction(3, 5), 1),
    (Fraction(4, 5), -1),
)


@dataclass(frozen=True)
class PresetBundle:
    name: str
    data: CurveArithData
    tau: PeriodMatrix
    gamma_terms: tuple
    gamma_constant: object
    curve_coeffs: tuple  # z^2 = f(t), coefficients of f low-to-high
    torsion: tuple  # (u, v) pairs of the classes --verify checks by default


def preset_period_matrix(bits: int = 128) -> PeriodMatrix:
    with mp.workprec(_check_bits(bits) + 16):
        z5 = mp.exp(2j * mp.pi / 5)
        entries = [
            [-(z5**4), z5**2 + 1],
            [z5**2 + 1, z5**2 - z5**3],
        ]
    return PeriodMatrix(entries, bits=bits)


def bost_mestre_preset(bits: int = 128) -> PresetBundle:
    """The preset curve's data, period matrix and torsion classes, with its
    constants and tau at ``bits``."""
    with mp.workprec(_check_bits(bits)):
        gamma_constant = 2 * mp.log(2 * mp.pi)
        h_fal = faltings_height_gamma(FALTINGS_GAMMA_TERMS, gamma_constant, bits)
    data = CurveArithData(
        g=2,
        deg_K0=40,
        nt_omega=0.0,
        h_fal=h_fal,
        theta_max=None,  # filled by the pipeline after maximization
        bad_primes=frozenset(),
        disc=10,  # radical of |D_{K0/Q}|: the ramified primes are exactly 2 and 5
        component_lcm=1,
        good_reduction_everywhere=True,
        semistable=True,
        base_point_hyperelliptic_fixed=True,
    )
    return PresetBundle(
        name=PRESET_NAME,
        data=data,
        tau=preset_period_matrix(bits),
        gamma_terms=FALTINGS_GAMMA_TERMS,
        gamma_constant=gamma_constant,
        curve_coeffs=(1, 0, 0, 0, 0, 1),
        # the off-curve multiples of the 5-torsion class [(0,1) - infinity]
        torsion=(((0, 0, 1), (1,)), ((0, 0, 1), (-1,))),
    )
