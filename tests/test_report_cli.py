import contextlib
import copy
import io
import json
import re
import shutil
import subprocess
import warnings
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thetadist as td
from thetadist import cli
from test_bound_magnitudes import ln_l_bound
from test_theta import TAU_G3


# the default-grid `--preset bost-mestre --p 3 --f 2 --verify` report
GOLDEN_P3_F2 = Path(__file__).parent / "data" / "preset_p3_f2.json"

# a valid genus-2 inline curve, for the field checks below
VALID_INLINE = {
    "g": 2,
    "deg_K0": 1,
    "h_fal": 0.0,
    "period_matrix": [
        [{"re": "0", "im": "1"}, {"re": "0.5", "im": "0.5"}],
        [{"re": "0.5", "im": "0.5"}, {"re": "0", "im": "1"}],
    ],
}
# VALID_INLINE with its Faltings height given by the gamma product instead
GAMMA_INLINE = {
    **{k: v for k, v in VALID_INLINE.items() if k != "h_fal"},
    "gamma_terms": [["1/5", 5]],
    "gamma_constant": "0",
}

# period matrices that are not symmetric, and whose Im tau is indefinite
NON_SYMMETRIC = [
    [{"re": "0", "im": "1"}, {"re": "0.5", "im": "0.5"}],
    [{"re": "0.5", "im": "0.4"}, {"re": "0", "im": "1"}],
]
INDEFINITE = [
    [{"re": "0", "im": "1"}, {"re": "0", "im": "2"}],
    [{"re": "0", "im": "2"}, {"re": "0", "im": "1"}],
]

# the preset with --verify on a coarse grid, for the torsion_list checks below
PRESET_VERIFY = {"preset": "bost-mestre", "p": 3, "grid_points_per_dim": 8, "verify": True}

# declares g = 2 but carries the 1x1 period matrix [[i]]
GENUS_MISMATCH_INLINE = {
    "g": 2,
    "deg_K0": 1,
    "h_fal": 0.0,
    "period_matrix": [[{"re": "0", "im": "1"}]],
}

# a genus-3 inline curve: 30^6 grid points exceed the 10^8 budget
G3_INLINE = {
    "g": 3,
    "deg_K0": 1,
    "h_fal": 0.0,
    "period_matrix": [[{"re": repr(z.real), "im": repr(z.imag)} for z in row] for row in TAU_G3],
}


def tau_with(re="0", im="1"):
    """VALID_INLINE's period matrix with its first entry replaced."""
    rows = [list(row) for row in VALID_INLINE["period_matrix"]]
    rows[0][0] = {"re": re, "im": im}
    return rows


def inline(base=VALID_INLINE, **fields):
    """A document whose inline curve is base with the given fields replaced."""
    return {"inline": {**base, **fields}}


# documents that exit 2 and name their field, by row id
MALFORMED = {
    "entry-without-im": (inline(GENUS_MISMATCH_INLINE, period_matrix=[[{"re": "0"}]]),
                         "period_matrix"),
    "genus-string": (inline(GENUS_MISMATCH_INLINE, g="two"), "g"),
    "torsion-list-int": ({"preset": "bost-mestre", "torsion_list": 5}, "torsion_list"),
    "semistable-string": (inline(semistable="false"), "semistable"),
    "good-reduction-int": (inline(good_reduction_everywhere=0), "good_reduction_everywhere"),
    "base-point-string": (inline(base_point_hyperelliptic_fixed="yes"),
                          "base_point_hyperelliptic_fixed"),
    "disc-float": (inline(disc=10.7), "disc"),
    "disc-string": (inline(disc="ten"), "disc"),
    "component-lcm-string": (inline(component_lcm="x"), "component_lcm"),
    "bad-prime-string": (inline(bad_primes=["x"]), "bad_primes"),
    "nt-omega-string": (inline(nt_omega="abc"), "nt_omega"),
    "nt-omega-nan": (inline(nt_omega="nan"), "nt_omega"),
    "h-fal-string": (inline(h_fal="abc"), "h_fal"),
    "gamma-exponent-string": (inline(GAMMA_INLINE, gamma_terms=[["1/5", "x"]]), "gamma_terms"),
    "tau-non-symmetric": (inline(period_matrix=NON_SYMMETRIC), "symmetric"),
    "tau-indefinite": (inline(period_matrix=INDEFINITE), "positive definite"),
    "tau-empty": (inline(period_matrix=[]), "square"),
    "tau-int": (inline(period_matrix=5), "period_matrix"),
    "tau-flat-list": (inline(period_matrix=[5, 6]), "period_matrix"),
    "torsion-strings": ({**PRESET_VERIFY, "torsion_list": [["x", "1"]]}, "torsion_list"),
    "torsion-ints": ({**PRESET_VERIFY, "torsion_list": [[5, 1]]}, "torsion_list"),
    "torsion-zero-denominator": ({**PRESET_VERIFY, "torsion_list": [[[0, 0, "1/0"], [1]]]},
                                 "'1/0'"),
    "torsion-non-number": ({**PRESET_VERIFY, "torsion_list": [[[0, 0, "x"], [1]]]}, "'x'"),
    "h-fal-and-gamma-product": (inline(GAMMA_INLINE, h_fal="0.5"), "'gamma_terms'"),
    "h-fal-and-gamma-constant": (inline(gamma_constant="0"), "'gamma_constant'"),
    # caps that bound the work of an accepted document, and values that used
    # to raise out of cli.main
    "tau-re-nan": (inline(period_matrix=tau_with(re="nan")), "period_matrix"),
    "tau-re-inf": (inline(period_matrix=tau_with(re="inf")), "period_matrix"),
    "tau-im-nan": (inline(period_matrix=tau_with(im="nan")), "period_matrix"),
    "tau-im-inf": (inline(period_matrix=tau_with(im="inf")), "period_matrix"),
    "tau-zero-denominator": (inline(period_matrix=tau_with(im="1/0")), "period_matrix"),
    "preset-list": ({"preset": ["bost-mestre"]}, "preset"),
    "preset-object": ({"preset": {"name": "bost-mestre"}}, "preset"),
    "precision-4096": ({"preset": "bost-mestre", "precision_bits": 4096}, "precision_bits"),
    "precision-huge": ({"preset": "bost-mestre", "precision_bits": 10**30}, "precision_bits"),
    "p-above-2-32": ({"preset": "bost-mestre", "p": 10**14 + 31}, "p must be a prime"),
    "p-huge": ({"preset": "bost-mestre", "p": 10**30}, "p must be a prime"),
    "deg-K0-huge": (inline(deg_K0=10**7), "deg_K0"),
    "residue-degree-above-deg-K0": ({"preset": "bost-mestre", "residue_degree": 41},
                                    "residue_degree"),
    "residue-degree-huge": ({"preset": "bost-mestre", "residue_degree": 10**30}, "residue_degree"),
    "grid-huge": ({"preset": "bost-mestre", "grid_points_per_dim": 10**30}, "grid_points_per_dim"),
    "grid-over-budget-at-g3": ({"inline": G3_INLINE, "grid_points_per_dim": 30},
                               "grid_points_per_dim"),
}


def refuse_theta_max(*args):
    raise AssertionError("theta_max ran")


CLI_ARGS = [
    "--preset", "bost-mestre",
    "--p", "3",
    "--f", "40",
    "--grid", "12",
    "--jmax", "3",
    "--verify",
]


@pytest.fixture(scope="module")
def cli_reports(tmp_path_factory):
    """Two identical CLI invocations against the preset, kept for reuse."""
    root = tmp_path_factory.mktemp("cli")
    paths = [root / "a.json", root / "b.json"]
    codes = [cli.main(CLI_ARGS + ["--out", str(p)]) for p in paths]
    return codes, [p.read_bytes() for p in paths]


class TestRunConfig:
    def test_exactly_one_source(self):
        with pytest.raises(td.ConfigRejected):
            td.RunConfig()
        with pytest.raises(td.ConfigRejected):
            td.RunConfig(preset="bost-mestre", inline={"g": 2})

    def test_prime_check(self):
        with pytest.raises(td.ConfigRejected):
            td.RunConfig(preset="bost-mestre", p=4)
        with pytest.raises(td.ConfigRejected):
            td.RunConfig(preset="bost-mestre", p=1)

    def test_unknown_preset(self):
        with pytest.raises(td.ConfigRejected):
            td.RunConfig(preset="no-such-curve")

    def test_aliases_accepted(self):
        td.RunConfig(preset="bost-mestre")
        td.RunConfig(preset="bost-mestre-y2+y=x5")

    @pytest.mark.parametrize("jmax", [0, -2])
    def test_jmax_below_one_rejected(self, jmax):
        """jmax < 1 checks no level p^j, yet used to verify with v_p = 0."""
        with pytest.raises(td.ConfigRejected, match="jmax"):
            td.RunConfig(preset="bost-mestre", jmax=jmax, verify=True)

    @pytest.mark.parametrize("verify", ["false", "true", 0, 1, None])
    def test_verify_must_be_bool(self, verify):
        """The string "false" is truthy, so it used to run the verification."""
        with pytest.raises(td.ConfigRejected, match="verify"):
            td.RunConfig(preset="bost-mestre", verify=verify)

    @pytest.mark.parametrize("output_path", [1, None, ["r.json"]])
    def test_output_path_must_be_str(self, output_path):
        """An int used to reach open() as a file descriptor."""
        with pytest.raises(td.ConfigRejected, match="output_path"):
            td.RunConfig(preset="bost-mestre", output_path=output_path)


@dataclass(frozen=True)
class Case:
    """One thetadist run: its exit code, the config document it reads as
    cfg.json (JSON-encoded unless a str; no file when None), its argv, a
    regular expression that stderr matches, and a predicate check(out, err,
    cwd) on stdout, stderr and the directory it ran in.  A run that exits 2 does no
    theta work, unless it is `late`: refused at the report's write."""

    code: int
    doc: object = None
    argv: tuple = ("--config", "cfg.json")
    err: str = ""
    check: object = None
    late: bool = False
    id: str | None = None


def preset_args(*flags):
    return ("--preset", "bost-mestre", "--p", "3", *flags)


GOLDEN_THETA = json.loads(GOLDEN_P3_F2.read_text())["theta_max"]


def golden_bytes(out, err, cwd):
    return (cwd / "r.json").read_bytes() == GOLDEN_P3_F2.read_bytes()


def golden_digits(out, err, cwd):
    """Theta_Max prints the golden report's digits."""
    return json.loads(out)["theta_max"]["value"]["dec"] == GOLDEN_THETA["value"]["dec"]


def golden_at_64_bits(out, err, cwd):
    """At 64 bits Theta_Max prints 16 digits, the golden value rounded there."""
    with mp.workprec(300):
        rounded = mp.nstr(mp.mpf(GOLDEN_THETA["value"]["dec"]), 16, strip_zeros=False)
    return td.report._digits(64) == 16 and json.loads(out)["theta_max"]["value"]["dec"] == rounded


def golden_coords_at_64_bits(out, err, cwd):
    """At 64 bits the argmax coordinates print no more significant digits than
    Theta_Max, 16, and so print the golden report's; Theta_Max is the golden
    value to within one unit of its last printed digit."""
    theta = json.loads(out)["theta_max"]
    a, b = Decimal(theta["value"]["dec"]), Decimal(GOLDEN_THETA["value"]["dec"])
    return (all(len(Decimal(c).normalize().as_tuple().digits) <= 16 for c in theta["argmax_coords"])
            and theta["argmax_coords"] == GOLDEN_THETA["argmax_coords"]
            and abs(a - b) <= Decimal(1).scaleb(a.as_tuple().exponent))


def no_stdout(out, err, cwd):
    return out == ""


def hypothesis_4_not_3(out, err, cwd):
    """The preset has good reduction everywhere: the prime violates (4), not (3)."""
    return "(4) p unramified" in err and "(3)" not in err


# The CLI cases, filed under the name of the in-process test that runs them
# (run_source, below).  test_installed_script runs every row again through
# the installed console script.
CASES = {
    "test_success": [
        Case(0, argv=preset_args("--grid", "8", "--verify", "--out", "r.json"),
             check=lambda out, err, cwd: "theta_max" in json.loads((cwd / "r.json").read_text()))],
    "test_golden_digits": [
        Case(0, argv=preset_args("--grid", "8", "--out", "-"), check=golden_digits, id="grid-8"),
        Case(0, argv=preset_args("--grid", "8", "--precision-bits", "192", "--out", "-"),
             check=golden_digits, id="bits-192"),
        Case(0, argv=preset_args("--grid", "8", "--precision-bits", "2048", "--out", "-"),
             check=golden_digits, id="bits-2048"),
        # an odd grid has one self-mirrored slab, and the start selection's
        # far edge reads the last slab's own mirror
        Case(0, argv=preset_args("--grid", "9", "--out", "-"), check=golden_digits, id="grid-9"),
    ],
    "test_precision_64_bits_runs": [
        Case(0, argv=("--preset", "bost-mestre", "--precision-bits", "64", "--out", "-"),
             check=golden_at_64_bits)],
    "test_precision_64_bits_coordinates": [
        Case(0, argv=preset_args("--grid", "8", "--precision-bits", "64", "--out", "-"),
             check=golden_coords_at_64_bits)],
    "test_preset_p3_f2_byte_for_byte": [
        # the CLI writes the committed report: a change to the maximization,
        # the constants or the verification table that moves any printed
        # digit shows here
        Case(0, argv=preset_args("--f", "2", "--verify", "--out", "r.json"), check=golden_bytes)],
    "test_torsion_list_strings": [
        # the default classes spelled out as 'a/b' strings give the golden report
        Case(0, {"torsion_list": [[["0/1", "0", "1"], ["1"]], [["0", "0", "2/2"], ["-1/1"]]]},
             argv=("--config", "cfg.json", *preset_args("--f", "2", "--verify", "--out", "r.json")),
             check=golden_bytes)],
    "test_empty_torsion_list_checks_none": [
        # an explicit [] used to fall back to the preset's two default classes
        Case(0, {**PRESET_VERIFY, "torsion_list": []}, argv=("--config", "cfg.json", "--out", "-"),
             check=lambda out, err, cwd: json.loads(out)["verification_table"] == [])],
    "test_composite_p_rejected": [Case(2, argv=("--preset", "bost-mestre", "--p", "4"))],
    "test_grid_budget_rejected": [Case(2, argv=("--preset", "bost-mestre", "--grid", "200"))],
    "test_even_prime_violates_hypotheses": [
        Case(3, argv=("--preset", "bost-mestre", "--p", "2"), check=hypothesis_4_not_3)],
    "test_ramified_prime_violates_hypotheses": [
        Case(3, argv=("--preset", "bost-mestre", "--p", "5"), check=hypothesis_4_not_3)],
    "test_singular_box_exceeds_budget": [
        # Im tau = [[1, 0.999999], [0.999999, 1]] is valid, but the double
        # kernels' box would hold too many terms
        Case(4, {**inline(period_matrix=[
            [{"re": "0", "im": "1"}, {"re": "0", "im": "0.999999"}],
            [{"re": "0", "im": "0.999999"}, {"re": "0", "im": "1"}],
        ]), "p": 3}, argv=("--config", "cfg.json", "--out", "-"), err="lattice terms",
             check=no_stdout)],
    "test_huge_im_tau_exceeds_budget": [
        # tau = diag(i, im i): at m_2 != 0 the double sum underflows to 0, and
        # Newton drops that start instead of dividing by it; every start is dropped
        Case(4, {**inline(period_matrix=[[{"re": "0", "im": "1"}, {"re": "0", "im": "0"}],
                                         [{"re": "0", "im": "0"}, {"re": "0", "im": im}]]),
                 "p": 3, "grid_points_per_dim": 8}, err="budget exceeded", id=im)
        for im in [str(2**31 - 1), "1e30"]
    ],
    "test_inline_genus_one_rejected": [
        Case(2, inline(GENUS_MISMATCH_INLINE, g=1))],
    "test_inline_genus_mismatch_rejected": [Case(2, {"inline": GENUS_MISMATCH_INLINE})],
    "test_inline_missing_key_rejected": [
        # without h_fal the Faltings height needs gamma_terms
        Case(2, {"inline": {k: v for k, v in GENUS_MISMATCH_INLINE.items() if k != drop}},
             err="gamma_terms" if drop == "h_fal" else drop, id=drop)
        for drop in ["g", "period_matrix", "deg_K0", "h_fal"]
    ] + [Case(2, {"inline": {"g": 2}}, err="lacks required keys", id="only-g")],
    "test_inline_unknown_key_rejected": [
        # instead of running with the field's default, hypothesis (1) satisfied
        Case(2, inline(semistabel=False), err="'semistabel'")],
    "test_non_integer_field_rejected": [
        Case(2, {"preset": "bost-mestre", key: value}, err=key, id=f"{key}-{value}")
        for key, value in [("p", "7"), ("jmax", 2.0), ("precision_bits", "128"),
                           ("grid_points_per_dim", 12.5), ("residue_degree", True), ("p", None)]
    ],
    # a boolean is JSON true or false, not any value Python reads as one, and
    # an integer is not truncated
    "test_malformed_value_rejected": [
        Case(2, doc, err=field, id=row) for row, (doc, field) in MALFORMED.items()],
    "test_torsion_list_off_curve_rejected": [
        # u = t^2 does not divide v^2 - f for v = 2
        Case(2, {"torsion_list": [[["0", "0", "1"], ["2"]]]},
             argv=("--config", "cfg.json", "--preset", "bost-mestre", "--grid", "8", "--verify",
                   "--out", "r.json"), err="u does not divide")],
    "test_unreadable_document_exits_2": [
        Case(2, text, err=f"cfg.json: .*{fault}", id=f"{text}-{fault}")
        for text, fault in [("[1, 2]", "JSON object"), ('{"preset": ', "Expecting value"),
                            (None, "No such file")]
    ] + [Case(2, "[" * 100_000 + "]" * 100_000, err="cfg.json: maximum recursion depth",
              id="nested-too-deep")],
    "test_string_verify_exits_2": [
        # "false" used to run the verification and print its table
        Case(2, {"preset": "bost-mestre", "p": 3, "verify": "false"}, err="verify",
             check=no_stdout)],
    "test_unknown_top_level_key_exits_2": [
        # "verfy" used to be dropped, and run with verify false
        Case(2, {**PRESET_VERIFY, **extra}, err=repr(next(iter(extra))), check=no_stdout, id=row)
        for row, extra in [("misspelt-verify", {"verfy": True}),
                           ("comment", {"comment": "ignored"})]
    ],
    "test_unwritable_output_rejected_before_theta_max": [
        # a report path in a missing directory, or that is not a file name,
        # used to raise FileNotFoundError after the whole run
        Case(2, argv=("--preset", "bost-mestre", "--out", out), err="output_path",
             check=lambda out, err, cwd: list(cwd.iterdir()) == [], id=row)
        for row, out in [("missing-directory", "no-such-dir/r.json"), ("empty", ""),
                         ("directory", ".")]
    ],
    "test_unwritable_output_rejected_at_write": [
        # writable by os.access, yet every write fails with ENOSPC
        Case(2, argv=preset_args("--grid", "8", "--out", "/dev/full"), err="output_path",
             late=True, id="dev-full")],
}


def pytest_generate_tests(metafunc):
    """A name in CASES with several rows runs each of them."""
    rows = CASES.get(metafunc.definition.name, ())
    if "case" in metafunc.fixturenames and len(rows) > 1:
        metafunc.parametrize("case", rows, ids=[row.id for row in rows])


@pytest.fixture
def case(request):
    """The one row filed under the test's name in CASES."""
    (row,) = CASES[request.node.name]
    return row


def check_case(case, code, out, err, cwd):
    assert code == case.code, out + err
    assert re.search(case.err, err), err
    assert case.check is None or case.check(out, err, cwd), out + err


def write_document(case, cwd):
    if case.doc is not None:
        text = case.doc if isinstance(case.doc, str) else json.dumps(case.doc)
        (cwd / "cfg.json").write_text(text)


def run_source(self, case, tmp_path, monkeypatch, capsys):
    """A row through cli.main from a temporary directory, with warnings as
    errors; a row that exits 2 before any theta work runs with theta_max
    refused."""
    monkeypatch.chdir(tmp_path)
    write_document(case, tmp_path)
    if case.code == 2 and not case.late:
        monkeypatch.setattr(td.report, "theta_max", refuse_theta_max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(list(case.argv))
    check_case(case, code, *capsys.readouterr(), tmp_path)


INSTALLED_CASES = [
    pytest.param(row, id=name.removeprefix("test_") + (f"-{row.id}" if row.id else ""))
    for name, rows in CASES.items() for row in rows
]


@pytest.mark.parametrize("row", INSTALLED_CASES)
def test_installed_script(row, installed_env, tmp_path):
    """A row through the thetadist script on PATH, from a temporary directory
    and with no PYTHONPATH, so the installed package runs, not src/."""
    script = shutil.which("thetadist", path=installed_env.get("PATH"))
    assert script, "the thetadist distribution is installed, but no thetadist script is on PATH"
    write_document(row, tmp_path)
    proc = subprocess.run([script, *row.argv], cwd=tmp_path, capture_output=True, text=True,
                          env={**installed_env, "PYTHONWARNINGS": "error"}, timeout=600)
    check_case(row, proc.returncode, proc.stdout, proc.stderr, tmp_path)


@pytest.mark.parametrize("exc, code", [
    (td.ConfigRejected, 2), (td.InvalidInput, 2), (td.HypothesisViolated, 3),
    (td.BudgetExceeded, 4), (td.PrecisionTooLow, 5),
])
def test_exit_code_of_each_refusal(monkeypatch, capsys, exc, code):
    """cli.main maps each refusal of run to its documented exit code; no
    config reaches exit 5 today."""

    def run(config):
        raise exc("stub")

    monkeypatch.setattr(cli, "run", run)
    assert cli.main(["--preset", "bost-mestre"]) == code
    assert "stub" in capsys.readouterr().err


class TestCliExitCodes:
    # each name runs the CASES rows filed under it through run_source
    test_success = run_source
    test_golden_digits = run_source
    test_precision_64_bits_runs = run_source
    test_precision_64_bits_coordinates = run_source
    test_composite_p_rejected = run_source
    test_grid_budget_rejected = run_source
    test_even_prime_violates_hypotheses = run_source
    test_ramified_prime_violates_hypotheses = run_source
    test_singular_box_exceeds_budget = run_source
    test_huge_im_tau_exceeds_budget = run_source
    test_inline_genus_one_rejected = run_source
    test_inline_genus_mismatch_rejected = run_source
    test_inline_missing_key_rejected = run_source
    test_inline_unknown_key_rejected = run_source
    test_non_integer_field_rejected = run_source
    test_malformed_value_rejected = run_source
    test_unwritable_output_rejected_before_theta_max = run_source
    test_unwritable_output_rejected_at_write = run_source

    @pytest.mark.parametrize("doc, field", MALFORMED.values(), ids=MALFORMED.keys())
    def test_rejected_before_theta_max(self, monkeypatch, doc, field):
        """The library refuses each malformed document as the CLI does,
        before the maximization starts: p**f for f = 10^30 used to grow until
        memory ran out after theta_max."""
        monkeypatch.setattr(td.report, "theta_max", refuse_theta_max)
        with pytest.raises((td.ConfigRejected, td.InvalidInput), match=re.escape(field)):
            td.run(td.RunConfig(**doc))


class TestReportContent:
    test_torsion_list_strings = run_source
    test_torsion_list_off_curve_rejected = run_source
    test_empty_torsion_list_checks_none = run_source

    def test_byte_determinism(self, cli_reports):
        _, blobs = cli_reports
        assert blobs[0] == blobs[1]

    def test_payload_fields(self, cli_reports):
        _, blobs = cli_reports
        payload = json.loads(blobs[0])
        assert payload["config_echo"]["p"] == 3
        assert payload["config_echo"]["curve"] == {"preset": "bost-mestre-y2+y=x5"}
        assert payload["admissible_prime"] is True
        assert all(v != "violated" for v in payload["hypotheses"].values())
        assert payload["hypotheses"]["order_coprime_to_p"] == "unknown"
        assert payload["hypotheses"]["p_odd"] == "satisfied"
        assert payload["hypotheses"]["p_admissible"] == "satisfied"
        tm = float(payload["theta_max"]["value"]["dec"])
        assert abs(tm - 1.06639277369136) < 1e-6
        assert abs(float(payload["combined_constant"]["dec"]) - 0.603539217) < 1e-6
        # main exponent is astronomically large, reported in log scale
        assert float(payload["log10_main_exponent"]["dec"]) > 1e7
        assert payload["log10_sharp_exponent"] is not None
        assert payload["main_exponent"]["sign"] == 1

    def test_verification_table(self, cli_reports):
        _, blobs = cli_reports
        payload = json.loads(blobs[0])
        rows = payload["verification_table"]
        assert len(rows) == 2
        for row in rows:
            assert row["order"] == 5
            assert row["v_p"] == 0
            assert row["inequality_holds"] is True
            assert row["d_p"] == [3, "0"]

    def test_stdout_matches_file(self, cli_reports, capsys):
        """``--out -`` writes the bytes ``--out FILE`` writes."""
        _, blobs = cli_reports
        capsys.readouterr()
        assert cli.main(CLI_ARGS + ["--out", "-"]) == 0
        assert capsys.readouterr().out.encode() == blobs[0]

    def test_round_trip(self, cli_reports):
        _, blobs = cli_reports
        report = td.parse_report(blobs[0].decode())
        assert td.serialize_report(report).encode() == blobs[0]


class TestGoldenReport:
    test_preset_p3_f2_byte_for_byte = run_source


class TestThetaMaxFields:
    """The report's theta_max block, on a stubbed maximization result."""

    @pytest.fixture
    def stub_run(self, monkeypatch):
        def run(argmax_coords, grid_best):
            value = mp.mpf("1.0663927736913620667")
            result = td.ThetaMaxResult(value, argmax_coords, grid_best)
            monkeypatch.setattr(td.report, "theta_max", lambda tau, nd: result)
            return td.run(td.RunConfig(preset="bost-mestre", p=3)).payload["theta_max"]

        return run

    def test_coordinate_below_one_prints_in_unit_interval(self, stub_run):
        with mp.workprec(128):
            coords = (1 - mp.mpf("3e-42"), mp.mpf("3e-42"), mp.mpf("0.25"), mp.mpf("0.9"))
        printed = stub_run(coords, 1.0)["argmax_coords"]
        assert printed == ["0.0", "3.0e-42", "0.25", "0.9"]
        assert all(0 <= mp.mpf(c) < 1 for c in printed)

    def test_grid_best_prints_13_digits(self, stub_run):
        grid_best = 0.1 + 0.2
        printed = stub_run((0.1, 0.9, 0.8, 0.1), grid_best)["grid_best"]
        assert float(printed["dec"]) == pytest.approx(grid_best, rel=1e-13)
        assert printed == {"dec": "0.3000000000000", "bits": 53}


def preset_inline(preset, digits=40):
    """The preset as an inline config: tau and the gamma-product constant as
    decimal strings of the given length."""
    with mp.workprec(256):
        entries = [
            [
                {"re": mp.nstr(preset.tau.tau[i, j].real, digits),
                 "im": mp.nstr(preset.tau.tau[i, j].imag, digits)}
                for j in range(2)
            ]
            for i in range(2)
        ]
        gamma_constant = mp.nstr(preset.gamma_constant, digits)
    return {
        "g": 2,
        "deg_K0": 40,
        "nt_omega": 0.0,
        "gamma_terms": [["1/5", 5], ["2/5", 3], ["3/5", 1], ["4/5", -1]],
        "gamma_constant": gamma_constant,
        "period_matrix": entries,
        "disc": 10,
        "base_point_hyperelliptic_fixed": True,
    }


class TestRunInline:
    def test_inline_curve_runs(self, preset):
        config = td.RunConfig(inline=preset_inline(preset), p=3, grid_points_per_dim=12)
        report = td.run(config)
        tm = float(report.payload["theta_max"]["value"]["dec"])
        assert abs(tm - 1.06639277369136) < 1e-6

    def test_inline_copy_matches_preset(self, preset):
        """The preset's data typed inline gets the preset's hypotheses, Theta_Max
        and D: (6) is read off component_lcm, not off the curve's source."""
        payloads = [
            td.run(td.RunConfig(grid_points_per_dim=12, p=3, **source)).payload
            for source in ({"preset": "bost-mestre"}, {"inline": preset_inline(preset, 45)})
        ]
        for key in ("hypotheses", "D"):
            assert payloads[0][key] == payloads[1][key], key
        assert payloads[0]["theta_max"]["value"] == payloads[1]["theta_max"]["value"]
        assert payloads[1]["hypotheses"]["neutral_component"] == "satisfied"

    @pytest.mark.parametrize("source", [
        {"inline": VALID_INLINE},
        {"preset": "bost-mestre", "torsion_list": [[[0, 0, 1], [2]]]},
    ], ids=["inline-verify", "off-curve-class"])
    def test_verify_refused_before_theta_max(self, monkeypatch, source):
        """--verify on an inline curve, and a class off the curve, are refused
        before the maximization runs."""
        monkeypatch.setattr(td.report, "theta_max", refuse_theta_max)
        with pytest.raises((td.ConfigRejected, td.InvalidInput)):
            td.run(td.RunConfig(p=3, verify=True, **source))

    def test_inline_verify_needs_curve_equation(self, preset):
        """The preset's own data typed inline carries no curve equation."""
        config = td.RunConfig(inline=preset_inline(preset), p=3, grid_points_per_dim=12,
                              verify=True)
        with pytest.raises(td.ConfigRejected):
            td.run(config)

    def test_inline_genus_mismatch_rejected(self):
        with pytest.raises(td.ConfigRejected):
            td.run(td.RunConfig(inline=GENUS_MISMATCH_INLINE, p=3))

    def test_inline_genus_three_default_grid(self):
        """Without a grid size, g = 3 runs at 10^6 grid points, within the
        grid budget, and gives the value the 12^6 scan gives."""
        report = td.run(td.RunConfig(inline=G3_INLINE, p=3))
        assert report.payload["config_echo"]["grid_points_per_dim"] == 10
        assert report.payload["theta_max"]["value"]["dec"] == "1.48984839546273286995697154643"


class TestWorkingPrecision:
    """Every printed digit comes from the working precision, not from
    mpmath's ambient precision."""

    PRESET_131 = dict(preset="bost-mestre", p=131, residue_degree=1, grid_points_per_dim=8)

    def test_sharp_exponent_at_p131(self):
        payload = td.run(td.RunConfig(**self.PRESET_131)).payload
        # 600-bit analytic value of log10(1 + 2 [K0:Q] |combined| L_{131,131}),
        # from the printed constant
        ln_L = ln_l_bound(131, 131)
        with mp.workprec(600):
            combined = mp.mpf(payload["combined_constant"]["dec"])
            ref = (mp.log(2 * 40 * combined) + ln_L) / mp.log(10)
            ref = mp.nstr(ref, 30, strip_zeros=False)
        assert ref == "98408981854021.8487616167821694"
        assert payload["log10_sharp_exponent"]["dec"] == ref

    @pytest.mark.parametrize("source", ["preset", "inline"])
    def test_report_ignores_ambient_precision(self, preset, source):
        if source == "preset":
            config = td.RunConfig(**self.PRESET_131)
        else:
            config = td.RunConfig(
                inline=preset_inline(preset), p=131, residue_degree=1, grid_points_per_dim=8
            )
        texts = []
        for ambient in (53, 300):
            with mp.workprec(ambient):
                texts.append(td.serialize_report(td.run(config)))
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("bits", [96, 100])
    def test_printed_digits_follow_precision(self, bits):
        """Below 112 bits a report prints fewer than 30 digits, and each
        decimal field is the 128-bit value rounded to that many: no printed
        digit is rounding noise of the lower precision."""

        def decimals(precision_bits):
            payload = td.run(td.RunConfig(
                preset="bost-mestre", p=3, residue_degree=1,
                precision_bits=precision_bits, grid_points_per_dim=8,
            )).payload
            fields = {
                key: entry["dec"] for key, entry in payload.items()
                if isinstance(entry, dict) and "dec" in entry
            }
            fields["theta_max.value"] = payload["theta_max"]["value"]["dec"]
            fields["main_exponent.ln"] = payload["main_exponent"]["ln"]
            return fields

        digits = {96: 26, 100: 27}[bits]
        ref = decimals(128)
        low = decimals(bits)
        assert low.keys() == ref.keys() and len(low) == 8
        with mp.workprec(300):
            for key, dec in ref.items():
                assert low[key] == mp.nstr(mp.mpf(dec), digits, strip_zeros=False), key

    @pytest.mark.parametrize("source", ["h_fal", "gamma_constant"])
    def test_inline_h_fal_at_working_precision(self, preset, source):
        inline = preset_inline(preset)
        with mp.workprec(256):
            h_ref = mp.mpf(mp.nstr(preset.data.h_fal, 40))
        if source == "h_fal":  # in place of the gamma product, not beside it
            del inline["gamma_terms"], inline["gamma_constant"]
            inline["h_fal"] = mp.nstr(h_ref, 40)
        data, _, _ = td.report._inline_curve(inline, 128)
        with mp.workprec(256):
            assert abs(data.h_fal - h_ref) < mp.mpf("1e-35")


class TestFlagOverrides:
    test_unreadable_document_exits_2 = run_source
    test_string_verify_exits_2 = run_source
    test_unknown_top_level_key_exits_2 = run_source

    def test_flags_override_config_file(self, tmp_path):
        doc = {"preset": "bost-mestre", "p": 7, "jmax": 2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        args = cli.build_parser().parse_args(
            ["--config", str(path), "--p", "3", "--grid", "12"]
        )
        config = cli.config_from_args(args)
        assert config.p == 3
        assert config.jmax == 2
        assert config.grid_points_per_dim == 12

    def test_document_verify_kept_without_flag(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "bost-mestre", "verify": True}))
        args = cli.build_parser().parse_args(["--config", str(path), "--p", "7"])
        config = cli.config_from_args(args)
        assert config.verify is True
        assert config.p == 7

    def test_preset_only_document_gives_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "bost-mestre"}))
        args = cli.build_parser().parse_args(["--config", str(path)])
        config = cli.config_from_args(args)
        assert config == td.RunConfig(preset="bost-mestre")
        assert (config.p, config.precision_bits, config.jmax) == (3, 128, 4)
        assert config.output_path == "-"
        assert config.verify is False
        assert config.grid_points_per_dim is None


# what a mutation puts in place of a value or appends to a list: wrong types,
# non-finite numbers, a zero denominator, huge integers and nested lists
FUZZ_ATOMS = [
    None, True, False, 0, -1, 2.5, "", "x", "nan", "inf", "-inf", "1/0",
    float("nan"), float("inf"), 2**31 - 1, 10**30, -10**30, 10**400,
    [], [[]], [1, [2]], {}, {"re": "0"},
]
# the valid documents that the mutations start from, which between them give
# every key a value
FUZZ_SEEDS = [
    {**PRESET_VERIFY, "residue_degree": 2, "precision_bits": 128, "jmax": 4,
     "torsion_list": [[[0, 0, 1], [1]], [[0, 0, 1], [-1]]], "output_path": "-"},
    {"inline": {**VALID_INLINE, "nt_omega": 0.0, "bad_primes": [], "disc": 1, "component_lcm": 1,
                "good_reduction_everywhere": True, "semistable": True,
                "base_point_hyperelliptic_fixed": False},
     "p": 3, "residue_degree": 1, "grid_points_per_dim": 8},
    {"inline": GAMMA_INLINE, "p": 3, "grid_points_per_dim": 8},
]


def nodes(doc, path=()):
    """(path, value) of every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from nodes(value, path + (key,))


@st.composite
def mutated_documents(draw):
    """A seed document after 1-3 mutations, each of which swaps a value for an
    atom, deletes a key or a list element, or appends an element to a list:
    an atom or a copy of one of the list's elements."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["swap", "delete", "append"]))
        found = [(path, v) for path, v in nodes(doc) if kind != "append" or isinstance(v, list)]
        if not found:
            continue
        path, value = draw(st.sampled_from(found))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "swap":
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(FUZZ_ATOMS)))
        elif kind == "delete":
            del parent[path[-1]]
        else:
            value.append(copy.deepcopy(draw(st.sampled_from(FUZZ_ATOMS + value))))
    return doc


class TestConfigFuzz:
    def test_every_mutated_document_exits_with_a_documented_code(self, tmp_path, monkeypatch):
        """cli.main on a mutated document returns 0, 2, 3, 4 or 5, raises
        nothing and, since every accepted value is capped, takes seconds at
        most.  A mutated output_path writes into tmp_path."""
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        codes = set()

        @settings(derandomize=True, max_examples=1000, deadline=5000, database=None)
        @given(mutated_documents())
        def check(doc):
            path.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["--config", str(path)])
            assert code in (0, 2, 3, 4, 5)
            codes.add(code)

        check()
        assert {0, 2} <= codes
