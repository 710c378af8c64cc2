"""Explicit p-adic distance bounds for torsion points near a curve of genus
>= 2 embedded in its Jacobian.

Pieces: error-controlled Riemann theta evaluation and the translation-invariant
theta norm, its global maximum over the Jacobian torus, the combinatorial
bound chain in mpmath floats, assembly of the Arakelov-side constants, and
genus-2 Mumford/Cantor arithmetic with the p-adic valuation of the distance to
the embedded curve.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    ConfigRejected,
    HypothesisViolated,
    InvalidInput,
    InvalidPeriodMatrix,
    NotPIntegral,
    PrecisionTooLow,
    RepresentationDegenerate,
    ThetadistError,
    UnsupportedPrime,
)
from .periods import (
    PeriodMatrix,
    ThetaPoint,
    reduce_to_fundamental,
    theta,
    theta_norm,
    theta_norm_normalization_check,
)
from .maximize import (
    ThetaMaxResult,
    default_optimizer_config,
    theta_max,
)
from .bounds import (
    BoundParams,
    admissible_prime,
    bu,
    degree_bound,
    h_bound,
    hasse_weil_card_bound,
    l_bound,
    order_bound,
    tate_voloch_exponent_main,
    tate_voloch_exponent_sharp,
)
from .arakelov import (
    CurveArithData,
    HypothesisReport,
    bost_mestre_preset,
    check_hypotheses,
    constant_D,
    faltings_height_gamma,
    preset_period_matrix,
    zar_degree,
)
from .jacobian import (
    HyperellipticCurve,
    MumfordDivisor,
    PadicDistanceResult,
    add,
    enumerate_curve_points_mod,
    jacobian_order_mod_p,
    make_divisor,
    neg,
    on_curve_mod,
    order_of,
    reduce_mod,
    scalar_mul,
    verify_bound,
    vp_distance,
    zero_divisor,
)
from .report import BoundReport, RunConfig, parse_report, run, serialize_report
