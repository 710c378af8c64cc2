import contextlib
import copy
import io
import json
import warnings
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


# documents that exit 2 and name their field, the second of each pair
MALFORMED = [
    ({"inline": {**GENUS_MISMATCH_INLINE, "period_matrix": [[{"re": "0"}]]}},
     "period_matrix"),
    ({"inline": {**GENUS_MISMATCH_INLINE, "g": "two"}}, "g"),
    ({"preset": "bost-mestre", "torsion_list": 5}, "torsion_list"),
    ({"inline": {**VALID_INLINE, "semistable": "false"}}, "semistable"),
    ({"inline": {**VALID_INLINE, "good_reduction_everywhere": 0}},
     "good_reduction_everywhere"),
    ({"inline": {**VALID_INLINE, "base_point_hyperelliptic_fixed": "yes"}},
     "base_point_hyperelliptic_fixed"),
    ({"inline": {**VALID_INLINE, "disc": 10.7}}, "disc"),
    ({"inline": {**VALID_INLINE, "disc": "ten"}}, "disc"),
    ({"inline": {**VALID_INLINE, "component_lcm": "x"}}, "component_lcm"),
    ({"inline": {**VALID_INLINE, "bad_primes": ["x"]}}, "bad_primes"),
    ({"inline": {**VALID_INLINE, "nt_omega": "abc"}}, "nt_omega"),
    ({"inline": {**VALID_INLINE, "nt_omega": "nan"}}, "nt_omega"),
    ({"inline": {**VALID_INLINE, "h_fal": "abc"}}, "h_fal"),
    ({"inline": {**GAMMA_INLINE, "gamma_terms": [["1/5", "x"]]}}, "gamma_terms"),
    ({"inline": {**VALID_INLINE, "period_matrix": NON_SYMMETRIC}}, "symmetric"),
    ({"inline": {**VALID_INLINE, "period_matrix": INDEFINITE}}, "positive definite"),
    ({"inline": {**VALID_INLINE, "period_matrix": []}}, "square"),
    ({"inline": {**VALID_INLINE, "period_matrix": 5}}, "period_matrix"),
    ({"inline": {**VALID_INLINE, "period_matrix": [5, 6]}}, "period_matrix"),
    ({**PRESET_VERIFY, "torsion_list": [["x", "1"]]}, "torsion_list"),
    ({**PRESET_VERIFY, "torsion_list": [[5, 1]]}, "torsion_list"),
    ({**PRESET_VERIFY, "torsion_list": [[[0, 0, "1/0"], [1]]]}, "'1/0'"),
    ({**PRESET_VERIFY, "torsion_list": [[[0, 0, "x"], [1]]]}, "'x'"),
    ({"inline": {**GAMMA_INLINE, "h_fal": "0.5"}}, "'gamma_terms'"),
    ({"inline": {**VALID_INLINE, "gamma_constant": "0"}}, "'gamma_constant'"),
    # caps that bound the work of an accepted document, and values that used
    # to raise out of cli.main
    ({"inline": {**VALID_INLINE, "period_matrix": tau_with(re="nan")}}, "period_matrix"),
    ({"inline": {**VALID_INLINE, "period_matrix": tau_with(re="inf")}}, "period_matrix"),
    ({"inline": {**VALID_INLINE, "period_matrix": tau_with(im="nan")}}, "period_matrix"),
    ({"inline": {**VALID_INLINE, "period_matrix": tau_with(im="inf")}}, "period_matrix"),
    ({"inline": {**VALID_INLINE, "period_matrix": tau_with(im="1/0")}}, "period_matrix"),
    ({"preset": ["bost-mestre"]}, "preset"),
    ({"preset": {"name": "bost-mestre"}}, "preset"),
    ({"preset": "bost-mestre", "precision_bits": 4096}, "precision_bits"),
    ({"preset": "bost-mestre", "precision_bits": 10**30}, "precision_bits"),
    ({"preset": "bost-mestre", "p": 10**14 + 31}, "p must be a prime"),
    ({"preset": "bost-mestre", "p": 10**30}, "p must be a prime"),
    ({"inline": {**VALID_INLINE, "deg_K0": 10**7}}, "deg_K0"),
    ({"preset": "bost-mestre", "residue_degree": 41}, "residue_degree"),
    ({"preset": "bost-mestre", "residue_degree": 10**30}, "residue_degree"),
    ({"preset": "bost-mestre", "grid_points_per_dim": 10**30}, "grid_points_per_dim"),
    ({"inline": G3_INLINE, "grid_points_per_dim": 30}, "grid_points_per_dim"),
]
MALFORMED_IDS = [
    "entry-without-im", "genus-string", "torsion-list-int", "semistable-string",
    "good-reduction-int", "base-point-string", "disc-float", "disc-string",
    "component-lcm-string", "bad-prime-string", "nt-omega-string", "nt-omega-nan",
    "h-fal-string", "gamma-exponent-string", "tau-non-symmetric", "tau-indefinite",
    "tau-empty", "tau-int", "tau-flat-list", "torsion-strings", "torsion-ints",
    "torsion-zero-denominator", "torsion-non-number", "h-fal-and-gamma-product",
    "h-fal-and-gamma-constant",
    "tau-re-nan", "tau-re-inf", "tau-im-nan", "tau-im-inf", "tau-zero-denominator",
    "preset-list", "preset-object", "precision-4096", "precision-huge", "p-above-2-32",
    "p-huge", "deg-K0-huge", "residue-degree-above-deg-K0", "residue-degree-huge", "grid-huge",
    "grid-over-budget-at-g3",
]


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


class TestCliExitCodes:
    def test_success(self, cli_reports):
        codes, _ = cli_reports
        assert codes == [0, 0]

    def test_composite_p_rejected(self, capsys):
        assert cli.main(["--preset", "bost-mestre", "--p", "4"]) == 2

    def test_even_prime_violates_hypotheses(self, capsys):
        """The preset has good reduction everywhere: 2 violates (2) and (4),
        not (3)."""
        assert cli.main(["--preset", "bost-mestre", "--p", "2"]) == 3
        err = capsys.readouterr().err
        assert "(4) p unramified" in err
        assert "(3)" not in err

    def test_ramified_prime_violates_hypotheses(self, capsys):
        assert cli.main(["--preset", "bost-mestre", "--p", "5"]) == 3
        err = capsys.readouterr().err
        assert "(4) p unramified" in err
        assert "(3)" not in err

    def test_singular_box_exceeds_budget(self, tmp_path, capsys):
        """Im tau = [[1, 0.999999], [0.999999, 1]] is valid, but the double
        kernels' box would hold too many terms: exit 4, nothing on stdout."""
        inline = {"g": 2, "deg_K0": 1, "h_fal": 0.0, "period_matrix": [
            [{"re": "0", "im": "1"}, {"re": "0", "im": "0.999999"}],
            [{"re": "0", "im": "0.999999"}, {"re": "0", "im": "1"}],
        ]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"inline": inline, "p": 3}))
        assert cli.main(["--config", str(path), "--out", "-"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "budget exceeded" in err and "lattice terms" in err

    def test_grid_budget_rejected(self, capsys):
        assert cli.main(["--preset", "bost-mestre", "--grid", "200"]) == 2

    def test_precision_64_bits_runs(self, capsys):
        """Every precision_bits in range runs: at 64 bits the report prints
        Theta_Max to 16 digits, the golden 128-bit value rounded there."""
        assert cli.main(["--preset", "bost-mestre", "--precision-bits", "64", "--out", "-"]) == 0
        printed = json.loads(capsys.readouterr().out)["theta_max"]["value"]["dec"]
        golden = json.loads(GOLDEN_P3_F2.read_text())["theta_max"]["value"]["dec"]
        digits = td.report._digits(64)
        assert len(printed.replace(".", "")) == digits == 16
        with mp.workprec(300):
            assert printed == mp.nstr(mp.mpf(golden), digits, strip_zeros=False)

    def test_precision_64_bits_coordinates(self, capsys):
        """At 64 bits the argmax coordinates print no more significant digits
        than Theta_Max, 16, and so print the golden 128-bit report's."""
        args = ["--preset", "bost-mestre", "--grid", "8", "--precision-bits", "64", "--out", "-"]
        assert cli.main(args) == 0
        coords = json.loads(capsys.readouterr().out)["theta_max"]["argmax_coords"]
        assert all(len(Decimal(c).normalize().as_tuple().digits) <= 16 for c in coords)
        assert coords == json.loads(GOLDEN_P3_F2.read_text())["theta_max"]["argmax_coords"]

    @pytest.mark.parametrize("im", [str(2**31 - 1), "1e30"])
    def test_huge_im_tau_exceeds_budget(self, tmp_path, capsys, im):
        """tau = diag(i, im i): at m_2 != 0 the double sum s underflows to 0,
        and Newton drops that start instead of dividing by it.  Every start
        is dropped, so the run exits 4, with no RuntimeWarning."""
        rows = [[{"re": "0", "im": "1"}, {"re": "0", "im": "0"}],
                [{"re": "0", "im": "0"}, {"re": "0", "im": im}]]
        inline = {"g": 2, "deg_K0": 1, "h_fal": 0.0, "period_matrix": rows}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"inline": inline, "p": 3, "grid_points_per_dim": 8}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["--config", str(path)]) == 4
        assert "budget exceeded" in capsys.readouterr().err

    def test_inline_genus_one_rejected(self, tmp_path, capsys):
        doc = {
            "inline": {
                "g": 1,
                "deg_K0": 1,
                "h_fal": 0.0,
                "period_matrix": [[{"re": "0", "im": "1"}]],
            }
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["--config", str(path)]) == 2

    def test_inline_genus_mismatch_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"inline": GENUS_MISMATCH_INLINE}))
        assert cli.main(["--config", str(path)]) == 2

    @pytest.mark.parametrize("drop", ["g", "period_matrix", "deg_K0", "h_fal"])
    def test_inline_missing_key_rejected(self, tmp_path, capsys, drop):
        """A missing required key is named, not raised as a KeyError; without
        h_fal the Faltings height needs gamma_terms."""
        inline = {k: v for k, v in GENUS_MISMATCH_INLINE.items() if k != drop}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"inline": inline}))
        assert cli.main(["--config", str(path)]) == 2
        assert ("gamma_terms" if drop == "h_fal" else drop) in capsys.readouterr().err

    def test_inline_unknown_key_rejected(self, tmp_path, capsys):
        """A misspelt optional key exits 2 and is named, instead of running
        with the field's default (here hypothesis (1) reported satisfied)."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"inline": {**VALID_INLINE, "semistabel": False}}))
        assert cli.main(["--config", str(path)]) == 2
        assert "'semistabel'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("p", "7"), ("jmax", 2.0), ("precision_bits", "128"),
            ("grid_points_per_dim", 12.5), ("residue_degree", True), ("p", None),
        ],
    )
    def test_non_integer_field_rejected(self, tmp_path, capsys, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "bost-mestre", key: value}))
        assert cli.main(["--config", str(path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("doc, field", MALFORMED, ids=MALFORMED_IDS)
    def test_malformed_value_rejected(self, tmp_path, capsys, doc, field):
        """A malformed value inside the document exits 2 and names its
        field, instead of ending in a traceback or being coerced: a boolean
        is JSON true or false, not any value Python reads as one, and an
        integer is not truncated."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["--config", str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("doc, field", MALFORMED, ids=MALFORMED_IDS)
    def test_rejected_before_theta_max(self, tmp_path, capsys, monkeypatch, doc, field):
        """Every value is checked before the maximization starts: p**f for
        f = 10^30 used to grow until memory ran out after theta_max."""
        monkeypatch.setattr(td.report, "theta_max", refuse_theta_max)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["--config", str(path)]) == 2

    @pytest.mark.parametrize("out", ["missing/r.json", "", "."],
                             ids=["missing-directory", "empty", "directory"])
    def test_unwritable_output_rejected_before_theta_max(self, tmp_path, capsys, monkeypatch,
                                                         out):
        """A report path in a directory that does not exist, or that is not a
        file name, exits 2 before any theta work and creates nothing; it used
        to raise FileNotFoundError after the whole run."""
        monkeypatch.setattr(td.report, "theta_max", refuse_theta_max)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["--preset", "bost-mestre", "--out", out]) == 2
        assert "output_path" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestReportContent:
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

    def test_torsion_list_strings(self, cli_reports, tmp_path):
        """A config's torsion list of 'a/b' strings, the default list
        spelled out, gives the default report."""
        _, blobs = cli_reports
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"torsion_list": [
            [["0/1", "0", "1"], ["1"]], [["0", "0", "2/2"], ["-1/1"]],
        ]}))
        out = tmp_path / "r.json"
        assert cli.main(["--config", str(path)] + CLI_ARGS + ["--out", str(out)]) == 0
        assert out.read_bytes() == blobs[0]

    def test_torsion_list_off_curve_rejected(self, tmp_path, capsys):
        """u = t^2 does not divide v^2 - f for v = 2: exit 2."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"torsion_list": [[["0", "0", "1"], ["2"]]]}))
        args = ["--config", str(path), "--preset", "bost-mestre", "--grid", "8", "--verify"]
        assert cli.main(args + ["--out", str(tmp_path / "r.json")]) == 2
        assert "u does not divide" in capsys.readouterr().err

    def test_empty_torsion_list_checks_none(self, tmp_path, capsys):
        """An explicit [] checks no class: it used to fall back to the
        preset's two default classes and print two rows."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**PRESET_VERIFY, "torsion_list": []}))
        assert cli.main(["--config", str(path), "--out", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["verification_table"] == []

    def test_round_trip(self, cli_reports):
        _, blobs = cli_reports
        report = td.parse_report(blobs[0].decode())
        assert td.serialize_report(report).encode() == blobs[0]


class TestGoldenReport:
    def test_preset_p3_f2_byte_for_byte(self, tmp_path):
        """The CLI writes the committed report: a change to the maximization,
        the constants or the verification table that moves any printed digit
        shows here."""
        out = tmp_path / "report.json"
        args = ["--preset", "bost-mestre", "--p", "3", "--f", "2", "--verify"]
        assert cli.main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_P3_F2.read_bytes()


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

        def refuse(*args):
            raise AssertionError("theta_max ran")

        monkeypatch.setattr(td.report, "theta_max", refuse)
        with pytest.raises((td.ConfigRejected, td.InvalidInput)):
            td.run(td.RunConfig(p=3, verify=True, **source))

    def test_inline_verify_needs_curve_equation(self, preset):
        inline = {
            "g": 2,
            "deg_K0": 40,
            "h_fal": -1.4525,
            "period_matrix": [
                [
                    {"re": str(preset.tau.tau[i, j].real),
                     "im": str(preset.tau.tau[i, j].imag)}
                    for j in range(2)
                ]
                for i in range(2)
            ],
            "disc": 10,
            "base_point_hyperelliptic_fixed": True,
        }
        config = td.RunConfig(inline=inline, p=3, grid_points_per_dim=12, verify=True)
        with pytest.raises(td.ConfigRejected):
            td.run(config)

    def test_inline_genus_mismatch_rejected(self):
        with pytest.raises(td.ConfigRejected):
            td.run(td.RunConfig(inline=GENUS_MISMATCH_INLINE, p=3))

    def test_inline_genus_three_default_grid(self):
        """Without a grid size, g = 3 runs at 10^6 grid points, within the
        grid budget, and gives the value the 12^6 scan gives."""
        inline = {
            "g": 3,
            "deg_K0": 1,
            "h_fal": 0.0,
            "period_matrix": [
                [{"re": repr(z.real), "im": repr(z.imag)} for z in row] for row in TAU_G3
            ],
        }
        report = td.run(td.RunConfig(inline=inline, p=3))
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

    @pytest.mark.parametrize("text, fault", [
        ("[1, 2]", "JSON object"),
        ('{"preset": ', "Expecting value"),
        (None, "No such file"),
    ])
    def test_unreadable_document_exits_2(self, tmp_path, capsys, text, fault):
        """A document that is not a JSON object, not JSON, or not there
        used to end in a traceback with exit 1."""
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        assert cli.main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and fault in err

    def test_string_verify_exits_2(self, tmp_path, capsys):
        """"false" used to run the verification and print its table."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "bost-mestre", "p": 3, "verify": "false"}))
        assert cli.main(["--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "verify" in err

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

    @pytest.mark.parametrize("extra", [{"verfy": True}, {"comment": "ignored"}],
                             ids=["misspelt-verify", "comment"])
    def test_unknown_top_level_key_exits_2(self, tmp_path, capsys, extra):
        """A document key that is not a RunConfig field used to be dropped:
        "verfy" ran with verify false and an empty verification table."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**PRESET_VERIFY, **extra}))
        assert cli.main(["--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and repr(next(iter(extra))) in err


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
