"""Command-line interface: run, verify, compare."""

from __future__ import annotations

import argparse
import sys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinvlasov",
        description=(
            "1D1V two-species kinetic plasma solver driven by the convective "
            "vector-potential force, with a conventional-force comparator mode"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a simulation from a config file")
    run.add_argument("--config", required=True, help="path to the config file")
    run.add_argument("--out", required=True, help="output directory")

    ver = sub.add_parser("verify", help="run the built-in oracle suite")
    ver.add_argument("--case", default=None, help="run a single named case")

    cmp_ = sub.add_parser("compare", help="run both force modes and diff them")
    cmp_.add_argument("--config", required=True, help="path to the config file")
    cmp_.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        from .runner import run_command

        return run_command(args.config, args.out)
    if args.command == "verify":
        from .verify import verify_command

        return verify_command(args.case)
    if args.command == "compare":
        from .runner import compare_command

        return compare_command(args.config, args.out)
    return 2


if __name__ == "__main__":
    sys.exit(main())
