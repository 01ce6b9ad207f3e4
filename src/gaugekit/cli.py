"""Command-line entry point: verify, construct, study, dump."""

from __future__ import annotations

import argparse
import sys

from .errors import GaugekitError
from .harness import (
    SUITES,
    RunConfig,
    dump_run_fields,
    emit_report,
    emit_study,
    parse_grid,
    run_all,
)

_CONSTRUCT = ["chart-inverse", "generator", "full-decompose"]
_STUDY = [
    "boundary-identity",
    "chart-inverse",
    "bracket-identity",
    "mean-curvature",
    "generator",
    "full-decompose",
]


def _common(sp):
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
    sp.add_argument("--jobs", type=int, help="parallel suite workers")
    sp.add_argument("--out", help="write the report to this file")
    sp.add_argument(
        "--format", dest="fmt", choices=("text", "json", "csv"), default=None
    )
    sp.add_argument(
        "--dump-fields", dest="dump_fields", help="directory for field text dumps"
    )


def build_parser():
    p = argparse.ArgumentParser(
        prog="gaugekit",
        description="Desk-scale workbench for gauge connections on bounded domains.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run verification suites (default: all)")
    _common(v)
    v.add_argument("suites", nargs="*", metavar="suite",
                   help=f"subset of {', '.join(sorted(SUITES))}")
    c = sub.add_parser("construct", help="run the constructive suites")
    _common(c)
    s = sub.add_parser(
        "study", help="ladder tables: every series per rung, then the order checks"
    )
    _common(s)
    s.add_argument("suites", nargs="*", metavar="suite")
    d = sub.add_parser("dump", help="write representative fields as text dumps")
    _common(d)
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
    if args.jobs is not None:
        over["jobs"] = args.jobs
    return cfg.with_overrides(**over)


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "dump":
            outdir = args.dump_fields or args.out or "gaugekit-fields"
            for path in dump_run_fields(cfg, outdir):
                sys.stdout.write(path + "\n")
            return 0
        if args.command == "verify":
            names = args.suites or None
        elif args.command == "construct":
            names = _CONSTRUCT
        else:
            names = args.suites or _STUDY
        report = run_all(cfg, names)
        if args.command == "study" and (args.fmt or "text") == "text":
            _emit(emit_study(report), args.out)
        else:
            _emit(emit_report(report, args.fmt or "text"), args.out)
        if args.dump_fields:
            dump_run_fields(cfg, args.dump_fields)
        return 0 if report.passed else 1
    except (GaugekitError, OSError) as exc:  # OSError: a report or dump not written
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
