"""Pipeline assembly and canonical report serialization.

run() chains theta-norm maximization, the Arakelov constants, the bound
chain, and (optionally) the p-adic verification table into a single
report dictionary whose serialization is byte-stable for a fixed config.
"""

from __future__ import annotations

import json
import math
import os
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
from .maximize import _GRID_BUDGET, default_optimizer_config, theta_max
from .periods import _BITS_RANGE, PeriodMatrix

_PRESET_ALIASES = ("bost-mestre", "bost-mestre-y2+y=x5")


def _require(test, expected: str):
    """The parser of a field whose value must pass test: the value, or
    ConfigRejected naming the field and saying what it must be."""
    def parse(name: str, value):
        if not test(value):
            raise ConfigRejected(f"{name} must be {expected}, not {value!r}")
        return value
    return parse


def _optional(parse):
    """parse, for a field that may also be null."""
    return lambda name, value: None if value is None else parse(name, value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_list(value) -> bool:
    return isinstance(value, (list, tuple))


def _is_pairs(value, item=lambda x: True) -> bool:
    """value is a list of [a, b] pairs, and item(a) and item(b) hold."""
    return _is_list(value) and all(_is_list(t) and len(t) == 2 and all(map(item, t)) for t in value)


def _int_in(lo: int, hi=math.inf):
    return _require(lambda v: _is_int(v) and lo <= v <= hi, f"an integer in [{lo}, {hi}]")


_require_int = _require(_is_int, "an integer")
_require_bool = _require(lambda v: isinstance(v, bool), "true or false")


def _parse_number(name: str, value, parse=mp.mpf):
    """parse(value) for a field that takes a number or its decimal string;
    ConfigRejected naming the field when value is a bool, does not parse or
    is not finite."""
    try:
        if not isinstance(value, bool):
            x = parse(value)
            if mp.isfinite(x):
                return x
    except (TypeError, ValueError, ArithmeticError):
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
    """A lattice coordinate in [0, 1) to 20 digits, or ``_digits(bits)`` when
    that is less: the rounding taken mod 1, so a coordinate just below 1
    prints as 0."""
    digits = min(20, _digits(bits))
    with mp.workprec(bits):
        r = mp.mpf(mp.nstr(mp.mpf(c), digits))
        return mp.nstr(r - mp.floor(r), digits)


def _parse_complex(name: str, entry):
    """An {"re", "im"} entry as an mpc at mpmath's current precision."""
    _require(lambda e: isinstance(e, dict) and {"re", "im"} <= e.keys(),
             "an object with keys 're' and 'im'")(f"{name} entry", entry)
    return mp.mpc(_parse_number(name, entry["re"]), _parse_number(name, entry["im"]))


def _parse_rows(name: str, rows):
    _require(lambda r: _is_list(r) and all(map(_is_list, r)), "a list of rows")(name, rows)
    return [[_parse_complex(name, e) for e in row] for row in rows]


def _parse_gamma_terms(name: str, terms):
    _require(_is_pairs, "a list of [a, e] pairs")(name, terms)
    return [(_parse_number(name, a, Fraction), _require_int(f"{name} exponent", e))
            for a, e in terms]


def _parse_primes(name: str, primes):
    _require(_is_list, "a list of integers")(name, primes)
    return frozenset(_require_int(name, x) for x in primes)


def _writable(path) -> bool:
    """True for "-", stdout, and for a new or writable file in an existing
    directory.  No file is created."""
    if path == "-":
        return True
    if not isinstance(path, str) or "\0" in path:
        return False
    target = path if os.path.exists(path) else os.path.dirname(path) or "."
    return bool(os.path.basename(path)) and not os.path.isdir(path) and os.access(target, os.W_OK)


# Each inline key and the parser of its value, called as parse(key, value) at
# the working precision.  An optional key that is left out takes
# CurveArithData's default.  deg_K0 is capped because h_bound builds
# p**deg_K0 exactly.
_INLINE_FIELDS = {
    "g": _require_int,
    "deg_K0": _int_in(1, 10**4),
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

# Each top-level key and the parser of its value.  The caps bound the work of
# every accepted document: 2048 bits (PeriodMatrix's range), and p < 2^32,
# below which is_prime's trial division takes under 2^16 steps, keep a run
# within seconds.  run() checks residue_degree and the grid against the curve
# before any theta work.
_RUN_FIELDS = {
    "preset": _optional(_require(lambda v: isinstance(v, str) and v in _PRESET_ALIASES,
                                 "'bost-mestre'")),
    "inline": _optional(_require(lambda v: isinstance(v, dict), "an object of curve data")),
    "p": _require(lambda p: _is_int(p) and p < 2**32 and is_prime(p), "a prime below 2^32"),
    "residue_degree": _optional(_int_in(1)),
    "precision_bits": _int_in(*_BITS_RANGE),
    "grid_points_per_dim": _optional(_int_in(8)),
    "jmax": _int_in(1),
    "torsion_list": _optional(_require(partial(_is_pairs, item=_is_list),
                                       "a list of [u, v] pairs of coefficient lists")),
    "verify": _require_bool,
    "output_path": _require(_writable, "'-' or a writable file in an existing directory"),
}


def _parse_fields(what: str, doc: dict, table: dict, required=()) -> dict:
    """{key: table[key](key, value)} over a document's keys.  ConfigRejected
    names every key that table lacks, so that a misspelt optional key does not
    run with its default, and every required key that the document lacks."""
    unknown = ", ".join(sorted(map(repr, doc.keys() - table.keys())))
    if unknown:
        raise ConfigRejected(f"{what} has unknown keys: {unknown}")
    missing = ", ".join(k for k in required if k not in doc)
    if missing:
        raise ConfigRejected(f"{what} lacks required keys: {missing}")
    return {key: table[key](key, value) for key, value in doc.items()}


@dataclass(init=False)
class RunConfig:
    """A run's settings: each keyword argument is parsed by its _RUN_FIELDS entry."""

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

    def __init__(self, **doc):
        vars(self).update(_parse_fields("config", doc, _RUN_FIELDS))
        if (self.preset is None) == (self.inline is None):
            raise ConfigRejected("exactly one of preset/inline must be given")


def _inline_curve(inline: dict, bits: int):
    """(data, tau, curve) of an inline curve document at ``bits``.  The
    document holds no curve equation, so curve is None."""
    with mp.workprec(bits):
        required = ("g", "period_matrix", "deg_K0")
        values = _parse_fields("inline curve", inline, _INLINE_FIELDS, required)
        height = [k for k in ("h_fal", "gamma_terms", "gamma_constant") if k in values]
        if height == ["gamma_terms", "gamma_constant"]:
            terms, constant = values.pop("gamma_terms"), values.pop("gamma_constant")
            values["h_fal"] = faltings_height_gamma(terms, constant, bits)
        elif height != ["h_fal"]:
            raise ConfigRejected(f"inline curve gives the Faltings height by the keys {height}; "
                                 "give h_fal, or gamma_terms and gamma_constant")
    tau = PeriodMatrix(values.pop("period_matrix"), bits=bits)
    if tau.g != values["g"]:
        raise ConfigRejected(f"period matrix is {tau.g}x{tau.g} but g = {values['g']}")
    return CurveArithData(**values), tau, None


def _curve_record(config: RunConfig):
    """(data, tau, curve, torsion pairs, echo) of the config's curve at its
    precision: the preset's, or an inline document's, which has no torsion
    pairs."""
    if config.preset is not None:
        bundle = bost_mestre_preset(config.precision_bits)
        curve = HyperellipticCurve(bundle.curve_coeffs)
        return bundle.data, bundle.tau, curve, bundle.torsion, {"preset": bundle.name}
    return (*_inline_curve(config.inline, config.precision_bits), (), {"inline": config.inline})


def run(config: RunConfig) -> BoundReport:
    bits = config.precision_bits
    data, tau, curve, torsion, echo_curve = _curve_record(config)
    p = config.p
    if (config.residue_degree or 0) > data.deg_K0:
        raise ConfigRejected(f"residue_degree must be at most deg_K0 = {data.deg_K0}")
    nd = config.grid_points_per_dim or default_optimizer_config(tau.g)
    if nd ** (2 * tau.g) > _GRID_BUDGET:
        raise ConfigRejected(f"grid_points_per_dim = {nd} exceeds the grid budget at g = {tau.g}")

    if config.verify:
        if curve is None:
            raise ConfigRejected("p-adic verification needs a curve equation (preset only)")
        pairs = torsion if config.torsion_list is None else config.torsion_list
        classes = [make_divisor(curve, u, v) for u, v in pairs]

    hyp = check_hypotheses(data, p)
    violated = hyp.violated_conditions()
    if violated:
        raise HypothesisViolated("; ".join(violated))

    zd = zar_degree(data, bits)
    tm = theta_max(tau, nd)
    data.theta_max = tm.value

    with mp.workprec(bits):
        combined = mp.log(tm.value) + zd
        D = constant_D(data, bits)
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
            "grid_points_per_dim": nd,
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
