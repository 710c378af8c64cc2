"""One workload in its own process; started by run.py, never in parallel.

Protocol on stdout: ``READY`` once the inputs are built, then, unless
``--setup-only``, one ``RESULT <json>`` line.  Everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def timed_rounds(work, seconds, tracer=None):
    """Run rounds while the next is expected to end within ``seconds``; at least one.

    Returns the round times, the check of the first round's outputs and a
    fingerprint of every round's outputs.  No output outlives its round:
    holding one would slow the garbage collector in every later round.
    """
    times, check, prints = [], None, set()
    start = time.perf_counter()
    while not times or time.perf_counter() - start + statistics.median(times) <= seconds:
        if tracer is not None:
            tracer.run_id = len(times)
        t0 = time.perf_counter()
        out = work.round()
        times.append(time.perf_counter() - t0)
        if check is None:
            check = work.check(out)
        prints.add(hashlib.sha256(repr(out).encode()).hexdigest())
        del out
    return times, check, prints


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import mpmath
    import numpy
    import scipy
    import thetadist

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(thetadist.__file__).resolve().parent.parent != src:
        print(f"thetadist imported from {thetadist.__file__}, not from {src}", file=sys.stderr)
        return 2

    from workloads import NOT_MEASURED, WORKLOADS

    work = WORKLOADS[args.workload](args.seed, args.smoke)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "mpmath": mpmath.__version__},
        "inputs": work.seed_info,
    }
    if args.trace:
        import spans

        # the untraced half gives the baseline for trace.overhead_s
        plain, check, prints = timed_rounds(work, args.seconds / 2)
        tracer = spans.Tracer()
        spans.install(tracer)
        traced, _, traced_prints = timed_rounds(work, args.seconds / 2, tracer)
        prints |= traced_prints
        per_layer = spans.summarize(tracer.spans, len(traced))
        per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        result["per_layer"] = per_layer
        result["traced_solve_s"] = statistics.median(traced)
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        times = plain
    else:
        times, check, prints = timed_rounds(work, args.seconds)

    check["not_measured"] = [name for name in NOT_MEASURED if name not in check]
    for name in check["not_measured"]:
        check[name] = NOT_MEASURED[name]
    if len(prints) > 1:
        check["failed"] += 1
        check["problems"].append("rounds on the same inputs gave different outputs")
    result.update(
        round_times=times,
        check=check,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
