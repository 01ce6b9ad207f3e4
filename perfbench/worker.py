"""One workload process: imports gaugekit, runs timed passes, prints JSON.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the
BLAS/OpenMP thread caps already in its environment. It prints ``ready``
once gaugekit is imported, then, unless ``--probe`` is given, runs the
workload and prints one JSON line with the per-pass walls, the check values
of every pass, and (with ``--trace 1``) the per-layer metrics of one extra
traced pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

from gaugekit import RunConfig, emit_report, run_all

import spans
from workloads import WORKLOADS


def numpy_info():
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        info["blas"] = deps["blas"].get("name")
        info["lapack"] = deps["lapack"].get("name")
    except (KeyError, TypeError, ValueError):
        info["blas"] = None
    return info


def run_pass(parts, seed, rec=None):
    """Run every suite of a workload once, with a span per suite when `rec`
    is given. Returns (wall seconds, {check key: [value, passed]}).

    A suite that raises leaves its checks out, so the gate counts each of
    them as failed; the traceback goes to stderr.
    """
    t0 = time.perf_counter()
    checks = {}
    for label, kw, suites in parts:
        cfg = RunConfig(seed=seed, **kw)
        for suite in suites:
            span = rec.span(f"harness.run_suite.{suite}") if rec else nullcontext()
            try:
                with span:
                    report = run_all(cfg, [suite])
                doc = json.loads(emit_report(report, "json"))
            except Exception:
                print(f"{label}/{suite} raised:", file=sys.stderr)
                traceback.print_exc()
                continue
            for s in doc["suites"]:
                for c in s["checks"]:
                    # numpy booleans reach the JSON report as the string "True"
                    passed = c["passed"] in (True, "True")
                    checks[f"{label}/{s['suite']}/{c['name']}"] = [c["value"], passed]
    return time.perf_counter() - t0, checks


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true", help="exit once ready")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="JSON-lines file for the traced spans")
    args = ap.parse_args(argv)
    print("ready", flush=True)
    if args.probe:
        return 0

    parts = WORKLOADS[args.workload]
    passes = []
    start = time.perf_counter()
    while True:
        wall, checks = run_pass(parts, args.seed)
        passes.append({"wall_s": wall, "checks": checks})
        # stop before a pass that would end past the budget
        if time.perf_counter() - start + wall > args.seconds:
            break

    result = {"passes": passes, "machine": numpy_info()}
    if args.trace:
        rec = spans.Recorder()
        with spans.instrument(rec):
            wall, checks = run_pass(parts, args.seed, rec)
        passes.append({"wall_s": wall, "checks": checks, "traced": True})
        untraced = statistics.median(p["wall_s"] for p in passes if not p.get("traced"))
        # every workload's suites, so each run reports the same metric names
        suites = sorted({s for ps in WORKLOADS.values() for _, _, ss in ps for s in ss})
        result["per_layer"] = spans.per_layer_metrics(rec.spans, wall, untraced, suites)
        if args.spans:
            rec.write_jsonl(args.spans)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
