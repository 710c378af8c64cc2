"""Pipeline assembly and canonical report serialization.

run() chains theta-norm maximization, the Arakelov constants, the bound
chain, and (optionally) the p-adic verification table into a single
report dictionary whose serialization is byte-stable for a fixed config.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial

import mpmath as mp

from . import __version__
from .arakelov import (
    CurveArithData,
    bost_mestre_preset,
    check_hypotheses,
    constant_D,
    faltings_height_gamma,
    zar_degree,
)
from .bounds import (
    BoundParams,
    admissible_prime,
    h_bound,
    is_prime,
    tate_voloch_exponent_main,
    tate_voloch_exponent_sharp,
)
from .errors import ConfigRejected, HypothesisViolated
from .jacobian import HyperellipticCurve, make_divisor, verify_bound
from .maximize import OptimizerConfig, default_optimizer_config, theta_max
from .periods import PeriodMatrix, PrecisionConfig

_PRESET_ALIASES = {"bost-mestre", "bost-mestre-y2+y=x5"}


@dataclass
class RunConfig:
    preset: str | None = None
    inline: dict | None = None
    p: int = 3
    residue_degree: int | None = None
    precision_bits: int = 128
    grid_points_per_dim: int | None = None
    jmax: int = 4
    torsion_list: list | None = None   # [(u_strs, v_strs), ...]
    verify: bool = False
    output_path: str = "-"

    def __post_init__(self):
        if (self.preset is None) == (self.inline is None):
            raise ConfigRejected("exactly one of preset/inline must be given")
        if self.inline is not None and not isinstance(self.inline, dict):
            raise ConfigRejected("inline must be an object of curve data")
        optional = ("grid_points_per_dim", "residue_degree")
        for name in ("p", "jmax", "precision_bits") + optional:
            value = getattr(self, name)
            if value is None and name in optional:
                continue
            _require_int(name, value)
        _require_bool("verify", self.verify)
        if not isinstance(self.output_path, str):
            raise ConfigRejected(f"output_path must be a string, not {self.output_path!r}")
        if self.jmax < 1:
            raise ConfigRejected(f"jmax = {self.jmax} checks no level p^j; it must be >= 1")
        if not is_prime(self.p):
            raise ConfigRejected(f"p = {self.p} is not prime")
        if self.preset is not None and self.preset not in _PRESET_ALIASES:
            raise ConfigRejected(f"unknown preset {self.preset!r}")
        if self.torsion_list is not None and not (
            isinstance(self.torsion_list, (list, tuple))
            and all(
                isinstance(t, (list, tuple))
                and len(t) == 2
                and all(isinstance(w, (list, tuple)) for w in t)
                for t in self.torsion_list
            )
        ):
            raise ConfigRejected(
                "torsion_list must be a list of [u, v] pairs of coefficient lists, "
                f"not {self.torsion_list!r}"
            )


def _require_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigRejected(f"{name} must be an integer, not {value!r}")
    return value


def _require_bool(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigRejected(f"{name} must be true or false, not {value!r}")
    return value


def _parse_number(name: str, value, parse=mp.mpf):
    """parse(value) for a field that takes a number or its decimal string;
    ConfigRejected naming the field when value is a bool, does not parse or
    is not finite."""
    try:
        if not isinstance(value, bool):
            x = parse(value)
            if mp.isfinite(x):
                return x
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise ConfigRejected(f"{name} must be a finite number, not {value!r}")


@dataclass
class BoundReport:
    payload: dict


def _digits(bits: int) -> int:
    """Significant digits printed at ``bits``: 30, or two fewer than the
    decimal digits the precision carries when that is less (26 at 96 bits),
    so the last printed digit is not rounding noise."""
    return min(30, mp.libmp.prec_to_dps(bits) - 2)


def _dec(x, bits: int) -> dict:
    with mp.workprec(bits):
        return {"dec": mp.nstr(mp.mpf(x), _digits(bits), strip_zeros=False), "bits": bits}


def _coord(c, bits: int) -> str:
    """A lattice coordinate in [0, 1) to 20 digits: the rounding taken mod 1,
    so a coordinate just below 1 prints as 0."""
    with mp.workprec(bits):
        r = mp.mpf(mp.nstr(mp.mpf(c), 20))
        return mp.nstr(r - mp.floor(r), 20)


def _parse_complex(entry):
    """An {"re", "im"} entry as an mpc at mpmath's current precision."""
    if not isinstance(entry, dict) or not {"re", "im"} <= entry.keys():
        raise ConfigRejected(
            f"period_matrix entry {entry!r} must be an object with keys 're' and 'im'"
        )
    try:
        return mp.mpc(mp.mpf(entry["re"]), mp.mpf(entry["im"]))
    except (TypeError, ValueError):
        raise ConfigRejected(f"period_matrix entry {entry!r} is not a complex number") from None


def _parse_rows(name: str, rows):
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ConfigRejected(f"{name} must be a list of rows of entries, not {rows!r}")
    return [[_parse_complex(e) for e in row] for row in rows]


def _parse_gamma_terms(name: str, terms):
    if not isinstance(terms, (list, tuple)) or not all(
        isinstance(t, (list, tuple)) and len(t) == 2 for t in terms
    ):
        raise ConfigRejected(f"{name} must be a list of [a, e] pairs, not {terms!r}")
    return [
        (_parse_number(name, a, Fraction), _require_int(f"{name} exponent", e))
        for a, e in terms
    ]


def _parse_primes(name: str, primes):
    if not isinstance(primes, (list, tuple)):
        raise ConfigRejected(f"{name} must be a list of integers, not {primes!r}")
    return frozenset(_require_int(name, x) for x in primes)


# Each inline key and the parser of its value, called as parse(key, value) at
# the working precision.  Any other key is refused, so that a misspelt
# optional field is not silently replaced by its default; an optional key
# that is left out takes CurveArithData's default.
_INLINE_FIELDS = {
    "g": _require_int,
    "deg_K0": _require_int,
    "period_matrix": _parse_rows,
    "h_fal": _parse_number,
    "gamma_terms": _parse_gamma_terms,
    "gamma_constant": _parse_number,
    "nt_omega": partial(_parse_number, parse=float),
    "bad_primes": _parse_primes,
    "disc": _require_int,
    "component_lcm": _require_int,
    "good_reduction_everywhere": _require_bool,
    "semistable": _require_bool,
    "base_point_hyperelliptic_fixed": _require_bool,
}


def _inline_curve(inline: dict, cfg: PrecisionConfig):
    """(data, tau, curve) of an inline curve document.  The document holds no
    curve equation, so curve is None."""
    unknown = inline.keys() - _INLINE_FIELDS.keys()
    if unknown:
        names = ", ".join(sorted(map(repr, unknown)))
        raise ConfigRejected(f"inline curve has unknown keys: {names}")
    gamma = sorted(inline.keys() & {"gamma_terms", "gamma_constant"})
    if "h_fal" in inline and gamma:
        keys = ", ".join(map(repr, ["h_fal", *gamma]))
        raise ConfigRejected(f"inline curve gives the Faltings height twice: {keys}; give h_fal "
                             "or gamma_terms and gamma_constant")
    missing = [k for k in ("g", "period_matrix", "deg_K0") if k not in inline]
    if "h_fal" not in inline and not {"gamma_terms", "gamma_constant"} <= inline.keys():
        missing.append("h_fal (or gamma_terms and gamma_constant)")
    if missing:
        raise ConfigRejected(f"inline curve lacks required keys: {', '.join(missing)}")
    bits = cfg.working_precision_bits
    with mp.workprec(bits):
        values = {
            key: parse(key, inline[key]) for key, parse in _INLINE_FIELDS.items() if key in inline
        }
        if "h_fal" not in values:
            values["h_fal"] = faltings_height_gamma(
                values.pop("gamma_terms"), values.pop("gamma_constant"), cfg
            )
    tau = PeriodMatrix(values.pop("period_matrix"), bits=bits)
    if tau.g != values["g"]:
        raise ConfigRejected(f"period matrix is {tau.g}x{tau.g} but g = {values['g']}")
    return CurveArithData(**values), tau, None


def _curve_record(config: RunConfig, cfg: PrecisionConfig):
    """(data, tau, curve, torsion pairs, echo) of the config's curve: the
    preset's, or an inline document's, which has no torsion pairs."""
    if config.preset is not None:
        bundle = bost_mestre_preset(cfg)
        curve = HyperellipticCurve(bundle.curve_coeffs)
        return bundle.data, bundle.tau, curve, bundle.torsion, {"preset": bundle.name}
    data, tau, curve = _inline_curve(config.inline, cfg)
    return data, tau, curve, (), {"inline": config.inline}


def run(config: RunConfig) -> BoundReport:
    cfg = PrecisionConfig(working_precision_bits=config.precision_bits)
    bits = cfg.working_precision_bits
    data, tau, curve, torsion, echo_curve = _curve_record(config, cfg)
    p = config.p

    if config.verify:
        if curve is None:
            raise ConfigRejected("p-adic verification needs a curve equation (preset only)")
        classes = [make_divisor(curve, u, v) for u, v in config.torsion_list or torsion]

    hyp = check_hypotheses(data, p)
    violated = hyp.violated_conditions()
    if violated:
        raise HypothesisViolated("; ".join(violated))

    if config.grid_points_per_dim is None:
        ocfg = default_optimizer_config(tau.g)
    else:
        ocfg = OptimizerConfig(grid_points_per_dim=config.grid_points_per_dim)

    tm = theta_max(tau, ocfg, cfg)
    data.theta_max = tm.value

    with mp.workprec(bits):
        zd = zar_degree(data, cfg)
        combined = mp.log(tm.value) + zd
        D = constant_D(data, cfg)
        H_p = h_bound(p, data.g, data.deg_K0)
        main_exp = tate_voloch_exponent_main(D, H_p)
        log10_H_p = mp.log10(H_p)
        log10_main = mp.log10(main_exp)
        # the exponent is at least 1, so its sign is +1 and its log is real
        main_sign_ln = {
            "sign": int(mp.sign(main_exp)),
            "ln": mp.nstr(mp.log(main_exp), _digits(bits), strip_zeros=False),
        }
        log10_sharp = None
        if config.residue_degree is not None:
            params = BoundParams(
                g=data.g, deg_K0=data.deg_K0, p=p, q=p**config.residue_degree
            )
            log10_sharp = mp.log10(tate_voloch_exponent_sharp(params, abs(combined)))

    rows = verify_bound(curve, data, classes, p, config.jmax) if config.verify else []
    verification = [
        {
            "order": r.order,
            "v_p": r.v_p,
            "d_p": None if r.d_p is None else [r.d_p[0], str(r.d_p[1])],
            "inequality_holds": r.inequality_holds,
            "rejected_reason": r.rejected_reason,
        }
        for r in rows
    ]

    payload = {
        "tool_version": __version__,
        "config_echo": {
            "curve": echo_curve,
            "p": p,
            "residue_degree": config.residue_degree,
            "precision_bits": bits,
            "grid_points_per_dim": ocfg.grid_points_per_dim,
            "jmax": config.jmax,
            "verify": config.verify,
        },
        "theta_max": {
            "value": _dec(tm.value, bits),
            "argmax_coords": [_coord(c, bits) for c in tm.argmax_coords],
            # a double only ever compared at a relative 1e-13 (maximize._GRID_RTOL):
            # 13 significant digits, so the report does not move with its rounding
            "grid_best": {"dec": f"{tm.grid_best:#.13g}", "bits": 53},
        },
        "zar_degree": _dec(zd, bits),
        "combined_constant": _dec(combined, bits),
        "D": _dec(D, bits),
        "log10_H_p": _dec(log10_H_p, bits),
        "log10_main_exponent": _dec(log10_main, bits),
        "main_exponent": main_sign_ln,
        "log10_sharp_exponent": None if log10_sharp is None else _dec(log10_sharp, bits),
        "admissible_prime": admissible_prime(p, data),
        "hypotheses": asdict(hyp),
        "verification_table": verification,
    }
    return BoundReport(payload=payload)


def serialize_report(report: BoundReport) -> str:
    """Canonical JSON: sorted keys, fixed decimal strings, trailing newline."""
    return json.dumps(report.payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def parse_report(text: str) -> BoundReport:
    return BoundReport(payload=json.loads(text))
