"""Regenerate the stored reference reports the correctness gate reads.

    python3 perfbench/make_reference.py [--workload NAME ...] [--seeds 0 1 ...]

Runs one untraced pass of each workload at each workload seed in a fresh
worker process and stores every check's value and verdict, as the report
gives them, in perfbench/reference/<workload>.json. Checks that fail their
own threshold are stored as they are and still count as failures when the
benchmark runs. Regenerate only when a change is meant to alter results.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, start_worker, worker_env
from workloads import N_SEEDS, WORKLOADS

#: drift tolerance of the gate: |value - ref| <= RTOL * |ref| + ATOL
RTOL = 1e-6
ATOL = 1e-10


def reference_checks(workload, seed, env):
    proc, _ = start_worker(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0"], env
    )
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: worker exited {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    (only,) = res["passes"]
    print(f"{workload} seed {seed}: {only['wall_s']:.2f} s, "
          f"{sum(not p for _, p in only['checks'].values())} failing", flush=True)
    return only["checks"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(N_SEEDS)))
    args = ap.parse_args(argv)
    env = worker_env()
    (HERE / "reference").mkdir(exist_ok=True)
    for workload in args.workload or sorted(WORKLOADS):
        fresh = {str(s): reference_checks(workload, s, env) for s in args.seeds}
        path = HERE / "reference" / f"{workload}.json"
        doc = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
        doc.update(rtol=RTOL, atol=ATOL)
        doc["seeds"].update(fresh)
        doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
