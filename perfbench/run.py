"""gaugekit benchmark: one workload, timed passes, correctness gate, JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload no-solve --seed 0 --seconds 20 --trace 0

Set-up is measured by starting the workload interpreter SETUP_PROBES + 1
times and timing each until gaugekit is imported (``setup_s`` is the
median). The workload runs in one single-threaded worker process
(worker.py) with the BLAS/OpenMP thread caps set to 1. Every pass's checks are compared against
the stored reference report of the workload seed; a check counts as failed
if it fails its own threshold, drifts beyond the stated tolerance, or is
missing because its suite raised. ``correct`` is false when any pass does
not reproduce the reference (drift, changed verdict, missing check). The
last line of standard output is the result object; the line before it
records the machine, and the one before that every sample behind the
medians. A traced run writes its spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, workload_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: interpreter starts timed for setup_s, besides the workload process itself
SETUP_PROBES = 12
#: the run is abandoned (and fails) after this many seconds
DEADLINE_S = 175.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def start_worker(args, env):
    """Start worker.py and wait for its ``ready`` line; return (proc, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("the workload process did not import gaugekit")
    return proc, ready


def close_enough(value, ref, rtol, atol):
    """|value - ref| <= rtol |ref| + atol; NaN and infinities match only
    themselves."""
    if value == ref or (math.isnan(value) and math.isnan(ref)):
        return True
    if math.isinf(value) or math.isinf(ref):
        return False
    return abs(value - ref) <= rtol * abs(ref) + atol


def gate(checks, expected, rtol, atol):
    """Compare one pass with its reference report.

    Returns ({key: reason} for every failed check, the number of checks
    attempted, and whether every value and verdict matches the reference).
    A check that fails its own threshold exactly as the reference does is
    failed but matches; drift, a changed verdict, a missing check (its
    suite raised) or an unknown check is failed and does not match.
    """
    bad = {}
    matches = expected.keys() == checks.keys()
    for key, (ref, ref_passed) in expected.items():
        if key not in checks:
            bad[key] = "missing (suite raised)"
            continue
        value, passed = checks[key]
        if not close_enough(value, ref, rtol, atol):
            bad[key] = f"drifted to {value!r} from reference {ref!r}"
            matches = False
        elif passed != ref_passed:
            bad[key] = f"verdict changed to passed={passed} at {value!r}"
            matches = False
        elif not passed:
            bad[key] = f"fails its threshold at {value!r}, as in the reference"
    for key in checks.keys() - expected.keys():
        bad[key] = "not in the reference report"
    return bad, len(expected.keys() | checks.keys()), matches


def machine_record(worker_machine):
    rec = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "thread_caps": {var: "1" for var in THREAD_VARS},
    }
    rec.update(worker_machine)
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()

    if not (ROOT / "src" / "gaugekit" / "__init__.py").is_file():
        print(f"no gaugekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference" / f"{args.workload}.json").read_text())
    seed = workload_seed(args.seed)
    expected = reference["seeds"][str(seed)]

    env = worker_env()
    setups = []
    for _ in range(SETUP_PROBES):
        proc, ready = start_worker(["--probe"], env)
        proc.wait()
        setups.append(ready)
    wargs = ["--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--spans", str(OUT / f"spans-{args.workload}.jsonl")]
    if args.trace:
        OUT.mkdir(exist_ok=True)
    proc, ready = start_worker(wargs, env)
    setups.append(ready)
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S - (time.perf_counter() - t_start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("the workload process ran past the deadline", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"the workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])

    attempted = failed = 0
    correct = True
    for i, p in enumerate(res["passes"]):
        bad, n, matches = gate(p["checks"], expected, reference["rtol"], reference["atol"])
        attempted += n
        failed += len(bad)
        correct = correct and matches
        for key, why in sorted(bad.items()):
            print(f"FAILED pass {i} {key}: {why}", file=sys.stderr)

    if args.trace:
        values = res["per_layer"]
        wanted = spec["per_layer"]
    else:
        walls = [p["wall_s"] for p in res["passes"]]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": res["peak_rss_mib"],
        }
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    samples = {"workload_seed": seed, "pass_walls_s": [p["wall_s"] for p in res["passes"]],
               "setups_s": setups}
    print("samples " + json.dumps(samples))
    print("machine " + json.dumps(machine_record(res["machine"]), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
