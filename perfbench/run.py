"""thetadist benchmark: one workload per call, end to end or layer by layer.

    python3 perfbench/run.py --workload report-preset --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src``.  Workloads (see ``workloads.py`` for why each was chosen):
``report-preset``, ``norm-quadrature`` and ``padic-sweep``; ``--workload all``
runs the three one after the other and prints a block for each.

The workload runs in a child process with BLAS and OpenMP threads fixed at
one.  Set-up is timed in that child and in ``SETUP_PROBES`` extra children
that only build their inputs; ``setup_s`` is the median.  The child repeats
its timed round while another fits in ``--seconds`` (at least once) and
reports the median round as ``solve_s``.  With ``--trace 1`` the child runs
untraced for half the time and traced for the other half, and the metrics
are the per-layer ones; spans go to ``perfbench/out/``.

``--smoke`` shrinks every workload (grid 8, 2^10 points, at most 2^12 on the
random matrices, two primes).  The last line of stdout is one JSON object;
earlier lines name each metric with its unit, the seed, the inputs drawn
from it and the run environment.
Exit code 0 when every correctness check passes, 1 when one fails, 2 when
the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("report-preset", "norm-quadrature", "padic-sweep")
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170
# Floor of ops_failed_ratio: a clean run reads 1e-6, not 0, so that a
# regression check relative to the median stays defined.
FAILED_RATIO_FLOOR = 1e-6


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_child(args, workload: str, setup_only: bool):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    return proc, t0


def finish(proc, deadline: float) -> list[str]:
    """Wait for the child within the deadline and return its stdout lines."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child process timed out")
    if proc.returncode != 0:
        raise BenchError(f"child process exited with code {proc.returncode}")
    return out.splitlines()


def wait_ready(proc, t0: float) -> float:
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise BenchError("child process failed during set-up")
    return ready


def measure(args, workload: str) -> tuple[dict, list[float]]:
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    setups = []
    for _ in range(SETUP_PROBES):
        proc, t0 = start_child(args, workload, setup_only=True)
        setups.append(wait_ready(proc, t0))
        finish(proc, deadline)
    proc, t0 = start_child(args, workload, setup_only=False)
    setups.append(wait_ready(proc, t0))
    lines = finish(proc, deadline)
    results = [line[len("RESULT "):] for line in lines if line.startswith("RESULT ")]
    if len(results) != 1:
        raise BenchError("child process printed no result")
    return json.loads(results[0]), setups


def end_to_end(res: dict, setups: list[float]) -> dict:
    check = res["check"]
    ratio = (check["failed"] + check["refused"]) / check["attempted"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (statistics.median(res["round_times"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ops_failed_ratio": (max(ratio, FAILED_RATIO_FLOOR), "ratio"),
        "theta_max_digits": (check["theta_max_digits"], "digits"),
        "kernel_digits": (check["kernel_digits"], "digits"),
    }


def run_workload(args, workload: str) -> int:
    try:
        res, setups = measure(args, workload)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    check = res["check"]
    env = {"nproc": len(os.sched_getaffinity(0)), "threads": {v: THREADS for v in THREAD_VARS},
           **res["versions"]}
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload} seed {args.seed} inputs " + json.dumps(res["inputs"], sort_keys=True))
    print(f"ops attempted {check['attempted']} failed {check['failed']} refused {check['refused']}")
    print("rounds " + " ".join(f"{t:.4f}" for t in res["round_times"]))
    for problem in check["problems"]:
        print(f"check failed: {problem}")
    if args.trace:
        layers = res["per_layer"]
        from spans import PER_LAYER_UNITS

        metrics = {k: (layers[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS}
        self_s = sum(v for k, v in layers.items() if k.endswith(".s"))
        print(f"traced solve_s {res['traced_solve_s']} s")
        print(f"self time coverage {self_s / res['traced_solve_s']}")
    else:
        metrics = end_to_end(res, setups)
        for name in check["not_measured"]:
            print(f"{name} not measured by this workload; reported at its cap")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    correct = check["failed"] == 0 and not check["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "thetadist" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one workload after the other, never in parallel
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(args, w) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
