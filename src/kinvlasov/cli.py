"""Command-line interface: run, verify, compare.

The one module that prints.  Each command prints one line (``verify`` one per
case, as each case finishes) and returns its exit code:

- 0: success
- 1: a solver abort, or a failed verify case
- 2: a missing or invalid config (including a ``ConfigError`` raised while
  the run is set up), an unknown verify case, or ``MemoryError``
- 3: outputs that cannot be written
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


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


# Each outcome is its one line: a run that overflows prints no numpy warnings ahead of it.
@np.errstate(all="ignore")
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The solver is imported at call time: this module binds none of its
    # functions, so a tracer installed before the import sees every call.
    if args.command == "verify":
        from .verify import CASES

        if args.case is not None and args.case not in CASES:
            print(f"error: unknown case {args.case!r}; available: {', '.join(CASES)}")
            return 2
        passed = True
        for name in [args.case] if args.case else CASES:
            result = CASES[name]()
            passed &= result.passed
            print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.details}")
        return 0 if passed else 1

    from .config import ConfigError, load_config
    from .runner import compare_simulations, run_simulation

    try:
        config = load_config(args.config)
        if args.command == "run":
            run = run_simulation(config, out_dir=args.out)
            if run.aborted:
                print(f"solver aborted at step {run.abort_step}: {run.abort_reason}")
                return 1
            print(f"completed {run.n_steps} steps to t = {run.final_state.time:.6g}; "
                  f"outputs in {args.out}")
            return 0
        rows, *runs = compare_simulations(config, out_dir=args.out)
        if any(run.aborted for run in runs):
            print("comparison aborted: " + "; ".join(
                f"{run.config.force_mode} run aborted at step {run.abort_step}: "
                f"{run.abort_reason}" if run.aborted
                else f"{run.config.force_mode} run completed {run.n_steps} steps"
                for run in runs))
            return 1
        print(f"compared {len(rows)} snapshots; final f_minus distance "
              f"{rows[-1].f_minus_dist:.6g}; outputs in {args.out}")
        return 0
    except ConfigError as exc:
        print(f"error: {exc}")
        return 2
    except MemoryError as exc:
        print(f"error: cannot allocate the run's arrays: {exc}")
        return 2
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
