"""Command-line entry point.

Reads an optional JSON config, applies flag overrides, runs the pipeline and
writes the canonical report.  Exit codes: 0 success, 2 config rejected,
3 hypothesis violated, 4 budget exceeded, 5 internal precision failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (BudgetExceeded, ConfigRejected, HypothesisViolated, InvalidInput,
                     PrecisionTooLow)
from .report import RunConfig, run, serialize_report

EXIT_OK = 0
EXIT_CONFIG_REJECTED = 2
EXIT_HYPOTHESIS_VIOLATED = 3
EXIT_BUDGET_EXCEEDED = 4
EXIT_PRECISION_FAILURE = 5


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="thetadist",
        description="Explicit p-adic distance bound for torsion points near a "
        "genus >= 2 curve embedded in its Jacobian.",
    )
    ap.add_argument("--config", help="path to a JSON config document")
    ap.add_argument("--preset", help="built-in curve preset (e.g. bost-mestre)")
    ap.add_argument("--p", type=int, help="the prime p")
    ap.add_argument("--f", type=int, dest="residue_degree", help="residue degree of p")
    ap.add_argument("--precision-bits", type=int, help="working precision in bits")
    ap.add_argument(
        "--grid", type=int, dest="grid_points_per_dim", metavar="GRID",
        help="grid points per dimension",
    )
    ap.add_argument("--jmax", type=int, help="deepest residue level p^j scanned")
    ap.add_argument("--out", dest="output_path", metavar="OUT", help="report path, '-' for stdout")
    ap.add_argument(
        "--verify", action="store_true", default=None,
        help="run the p-adic verification table",
    )
    return ap


def config_from_args(args) -> RunConfig:
    """RunConfig from the config document's keys, overlaid with the flags
    that were given.  A document that cannot be read, is not JSON or is not
    a JSON object raises ConfigRejected naming its path."""
    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigRejected(f"config {args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigRejected(
                f"config {args.config}: the document must be a JSON object, not {type(doc).__name__}"
            )
    flags = {k: v for k, v in vars(args).items() if k != "config" and v is not None}
    if "preset" in flags:
        doc.pop("inline", None)
    return RunConfig(**{**doc, **flags})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        report = run(config)
    except (ConfigRejected, InvalidInput) as exc:
        print(f"config rejected: {exc}", file=sys.stderr)
        return EXIT_CONFIG_REJECTED
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS_VIOLATED
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET_EXCEEDED
    except PrecisionTooLow as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return EXIT_PRECISION_FAILURE

    text = serialize_report(report)
    try:
        if config.output_path == "-":
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(config.output_path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"config rejected: output_path {config.output_path!r}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_REJECTED
    pl = report.payload
    print(f"theta_max={pl['theta_max']['value']['dec']} combined={pl['combined_constant']['dec']} "
          f"log10(main exponent)={pl['log10_main_exponent']['dec']}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
