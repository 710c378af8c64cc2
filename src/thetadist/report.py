"""Pipeline assembly and canonical report serialization.

run() chains theta-norm maximization, the Arakelov constants, the bound
chain, and (optionally) the p-adic verification table into a single
report dictionary whose serialization is byte-stable for a fixed config.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import isqrt

import mpmath as mp

from . import __version__
from .arakelov import (
    CurveArithData,
    bost_mestre_preset,
    check_hypotheses,
    constant_D,
    zar_degree,
)
from .bounds import (
    BoundParams,
    admissible_prime,
    h_bound,
    tate_voloch_exponent_main,
    tate_voloch_exponent_sharp,
)
from .errors import ConfigRejected, HypothesisViolated
from .jacobian import (
    QQ,
    HyperellipticCurve,
    make_divisor,
    verify_bound,
)
from .maximize import OptimizerConfig, default_optimizer_config, theta_max
from .periods import PeriodMatrix, PrecisionConfig

_PRESET_ALIASES = {"bost-mestre", "bost-mestre-y2+y=x5"}
# the keys _inline_curve reads; any other key is refused, so that a misspelt
# optional field is not silently replaced by its default
_INLINE_KEYS = frozenset({
    "g", "period_matrix", "deg_K0", "h_fal", "gamma_terms", "gamma_constant",
    "good_reduction_everywhere", "semistable", "base_point_hyperelliptic_fixed",
    "bad_primes", "disc", "component_lcm", "nt_omega",
})


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
        if not isinstance(self.verify, bool):
            raise ConfigRejected(f"verify must be true or false, not {self.verify!r}")
        if not isinstance(self.output_path, str):
            raise ConfigRejected(f"output_path must be a string, not {self.output_path!r}")
        if self.jmax < 1:
            raise ConfigRejected(f"jmax = {self.jmax} checks no level p^j; it must be >= 1")
        if self.p < 2 or any(self.p % d == 0 for d in range(2, isqrt(self.p) + 1)):
            raise ConfigRejected(f"p = {self.p} is not prime")
        if self.preset is not None and self.preset not in _PRESET_ALIASES:
            raise ConfigRejected(f"unknown preset {self.preset!r}")
        if self.torsion_list is not None and not (
            isinstance(self.torsion_list, (list, tuple))
            and all(isinstance(t, (list, tuple)) and len(t) == 2 for t in self.torsion_list)
        ):
            raise ConfigRejected(
                f"torsion_list must be a list of [u, v] pairs, not {self.torsion_list!r}"
            )


def _require_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigRejected(f"{name} must be an integer, not {value!r}")


def _parse_number(name: str, value, parse):
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


def _parse_complex(entry, bits: int):
    if not isinstance(entry, dict) or not {"re", "im"} <= entry.keys():
        raise ConfigRejected(
            f"period_matrix entry {entry!r} must be an object with keys 're' and 'im'"
        )
    with mp.workprec(bits):
        try:
            return mp.mpc(mp.mpf(entry["re"]), mp.mpf(entry["im"]))
        except (TypeError, ValueError):
            raise ConfigRejected(f"period_matrix entry {entry!r} is not a complex number") from None


def _inline_curve(inline: dict, cfg: PrecisionConfig):
    unknown = inline.keys() - _INLINE_KEYS
    if unknown:
        names = ", ".join(sorted(map(repr, unknown)))
        raise ConfigRejected(f"inline curve has unknown keys: {names}")
    missing = [k for k in ("g", "period_matrix", "deg_K0") if k not in inline]
    if "h_fal" not in inline and not {"gamma_terms", "gamma_constant"} <= inline.keys():
        missing.append("h_fal (or gamma_terms and gamma_constant)")
    if missing:
        raise ConfigRejected(f"inline curve lacks required keys: {', '.join(missing)}")
    g = inline["g"]
    _require_int("g", g)
    _require_int("deg_K0", inline["deg_K0"])
    if g < 2:
        raise ConfigRejected("genus must be >= 2")
    bits = cfg.working_precision_bits
    tau_entries = [
        [_parse_complex(e, bits) for e in row] for row in inline["period_matrix"]
    ]
    tau = PeriodMatrix(tau_entries, bits=bits)
    if tau.g != g:
        raise ConfigRejected(f"period matrix is {tau.g}x{tau.g} but g = {g}")
    with mp.workprec(bits):
        if "h_fal" in inline:
            h_fal = _parse_number("h_fal", inline["h_fal"], mp.mpf)
        else:
            from .arakelov import faltings_height_gamma

            terms = inline["gamma_terms"]
            if not isinstance(terms, (list, tuple)) or not all(
                isinstance(t, (list, tuple)) and len(t) == 2 for t in terms
            ):
                raise ConfigRejected(f"gamma_terms must be a list of [a, e] pairs, not {terms!r}")
            for _, e in terms:
                _require_int("gamma_terms exponent", e)
            terms = [(_parse_number("gamma_terms", a, Fraction), e) for a, e in terms]
            constant = _parse_number("gamma_constant", inline["gamma_constant"], mp.mpf)
            h_fal = faltings_height_gamma(terms, constant, cfg)
    flags = {
        name: inline.get(name, default)
        for name, default in (
            ("good_reduction_everywhere", True),
            ("semistable", True),
            ("base_point_hyperelliptic_fixed", False),
        )
    }
    for name, value in flags.items():
        if not isinstance(value, bool):
            raise ConfigRejected(f"{name} must be true or false, not {value!r}")
    bad_primes = inline.get("bad_primes", [])
    if not isinstance(bad_primes, (list, tuple)):
        raise ConfigRejected(f"bad_primes must be a list of integers, not {bad_primes!r}")
    for x in bad_primes:
        _require_int("bad_primes", x)
    disc, component_lcm = inline.get("disc", 1), inline.get("component_lcm", 1)
    _require_int("disc", disc)
    _require_int("component_lcm", component_lcm)
    data = CurveArithData(
        g=g,
        deg_K0=inline["deg_K0"],
        nt_omega=_parse_number("nt_omega", inline.get("nt_omega", 0.0), float),
        h_fal=h_fal,
        bad_primes=frozenset(bad_primes),
        disc=disc,
        component_lcm=component_lcm,
        **flags,
    )
    return data, tau, None


def _default_torsion_list(curve: HyperellipticCurve):
    # the off-curve multiples of the 5-torsion class [(0,1) - infinity]
    return [
        make_divisor(curve, (0, 0, 1), (1,), QQ),
        make_divisor(curve, (0, 0, 1), (-1,), QQ),
    ]


def run(config: RunConfig) -> BoundReport:
    cfg = PrecisionConfig(working_precision_bits=config.precision_bits)
    bits = cfg.working_precision_bits

    if config.preset is not None:
        bundle = bost_mestre_preset(cfg)
        data, tau = bundle.data, bundle.tau
        curve = HyperellipticCurve(bundle.curve_coeffs)
        echo_curve = {"preset": bundle.name}
    else:
        data, tau, curve = _inline_curve(config.inline, cfg)
        echo_curve = {"inline": config.inline}

    p = config.p
    hyp = check_hypotheses(
        data,
        p,
        torsion_order=None,
        neutral_component=True if config.preset else None,
        unramified_at_p=(data.disc % p != 0),
    )
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

    verification = []
    if config.verify:
        if curve is None:
            raise ConfigRejected("p-adic verification needs a curve equation (preset only)")
        if config.torsion_list:
            tlist = [make_divisor(curve, u, v) for u, v in config.torsion_list]
        else:
            tlist = _default_torsion_list(curve)
        rows = verify_bound(curve, data, tlist, p, config.jmax)
        for r in rows:
            verification.append(
                {
                    "order": r.order,
                    "v_p": r.v_p,
                    "d_p": None if r.d_p is None else [r.d_p[0], str(r.d_p[1])],
                    "inequality_holds": r.inequality_holds,
                    "rejected_reason": r.rejected_reason,
                }
            )

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
