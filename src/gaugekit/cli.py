"""Command-line entry point: verify, study."""

from __future__ import annotations

import argparse
import contextlib
import sys

from .errors import GaugekitError
from .harness import (
    SUITES,
    RunConfig,
    emit_report,
    emit_study,
    parse_grid,
    run_all,
)

_STUDY = [
    "boundary-identity",
    "chart-inverse",
    "bracket-identity",
    "mean-curvature",
    "generator",
    "full-decompose",
]


def _run_flags(sp):
    sp.add_argument("--config", help="JSON run configuration file")
    sp.add_argument("--seed", type=int, help="run seed (overrides config)")
    sp.add_argument(
        "--grid",
        help="base grid (128x128, 24x24x24) or refinement sizes (32,64,128)",
    )
    sp.add_argument(
        "--domain",
        help="annulus | slab | shell | annulus_log (long names accepted)",
    )
    sp.add_argument("--out", help="write the report to this file")


def build_parser():
    p = argparse.ArgumentParser(
        prog="gaugekit",
        description="Desk-scale workbench for gauge connections on bounded domains.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run verification suites (default: all)")
    _run_flags(v)
    v.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    v.add_argument("suites", nargs="*", metavar="suite",
                   help=f"subset of {', '.join(sorted(SUITES))}")
    s = sub.add_parser(
        "study", help="ladder tables: every series per rung, then the order checks"
    )
    _run_flags(s)
    s.add_argument("suites", nargs="*", metavar="suite")
    return p


def _load_config(args):
    cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
    over = {}
    if args.seed is not None:
        over["seed"] = args.seed
    if args.domain is not None:
        over["domain"] = args.domain
    if args.grid is not None:
        parsed = parse_grid(args.grid)
        if "grid" in parsed:
            over["grid"] = parsed["grid"]
        else:
            domain = over.get("domain", cfg.domain)
            dim = 3 if domain in ("cylindrical_shell", "shell") else 2
            over["ladder"] = parsed["sizes"]
            over["grid"] = (parsed["sizes"][-1],) * dim
    return cfg.with_overrides(**over)


def _output(path):
    """Where the report goes: the file at `path`, opened before any suite
    runs so that a path it cannot write fails at once, or standard output."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        study = args.command == "study"
        with _output(args.out) as fh:
            report = run_all(cfg, args.suites or (_STUDY if study else None))
            fh.write(emit_study(report) if study else emit_report(report, args.fmt))
        return 0 if report.passed else 1
    except (GaugekitError, OSError) as exc:  # OSError: a report not written
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
