"""Command-line entry point.

    localtts theory|testbed|scaling|maskgen --config cfg.json \
        [--set key=value]... [--out DIR]

Exit codes: 0 success, 2 configuration error, 3 infeasible parameters.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import KINDS, ConfigError, load_config
from .harness import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, run_experiment
from .theory import InfeasibleParameterError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localtts",
        description="Localized test-time scaling laboratory.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind, help=f"run a {kind} experiment")
        sp.add_argument("--config", required=True, help="path to a JSON config file")
        sp.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a config key (dotted path, JSON value)")
        sp.add_argument("--out", default="out", help="output directory (default: out)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, applied = load_config(args.config, args.overrides)
        if cfg.kind != args.kind:
            raise ConfigError(
                [f"kind: config declares {cfg.kind!r} but the {args.kind!r} "
                 f"subcommand was invoked"])
        report = run_experiment(cfg, args.out, overrides=applied)
    except ConfigError as exc:
        for message in exc.errors:
            print(f"config error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleParameterError as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    for warning in report["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"wrote {Path(args.out) / 'report.json'}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
