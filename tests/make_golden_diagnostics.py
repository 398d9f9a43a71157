"""Write ``tests/data/golden_diagnostics.json``: every diagnostics row of eight
short runs and every divergence row of two short comparisons, the reference
that ``test_golden_diagnostics.py`` holds the solver to within roundoff.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden_diagnostics.py [--check | --add]

Regenerate the file only for an intended change to what the solver computes
(a new scheme, source or force term), never to make a kernel rewrite pass;
name that change where the project records its changes.  ``--add`` computes
only the cases that the committed file lacks, so a new case joins without
moving the committed rows.  ``--check`` writes nothing: it recomputes every
case, prints each column's worst absolute and relative deviation from the
committed rows, and exits 1 if any deviation exceeds the test tolerance
ATOL + RTOL * |golden|.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

from kinvlasov.config import Config, InitConfig
from kinvlasov.diagnostics import DIAGNOSTICS_FIELDS
from kinvlasov.grid import build_grid
from kinvlasov.output import DIVERGENCE_FIELDS
from kinvlasov.runner import compare_simulations, run_simulation

from conftest import landau_config

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_diagnostics.json"

# A recomputed value v matches its golden value g when |v - g| <= ATOL + RTOL |g|.
ATOL = 1e-13
RTOL = 1e-12

N_STEPS = 60


def case_config(preset: str, force_mode: str, amplitude: float, drift: float,
                temperature: float):
    """The tests' 64x128 pair plasma with one preset's initial state."""
    config = landau_config(amplitude=amplitude, drift=drift, temperature=temperature,
                           force_mode=force_mode)
    return replace(config, init=replace(config.init, preset=preset))


def multi_cell_config(force_mode: str):
    """A nonrelativistic 16x512 landau run whose amplitude-0.9 fields kick f by
    more than one momentum cell on many of its first N_STEPS steps."""
    return replace(Config(nx=16, np=512, relativistic=False, force_mode=force_mode),
                   init=InitConfig(amplitude=0.9))


def row_blocked_config(force_mode: str):
    """A 24x2048 landau run: the p-kick and the residual take it in row blocks
    of 32768 // 2048 = 16 rows, a whole block and a partial one."""
    return replace(case_config("landau", force_mode, 0.05, 0.5, 1.0), nx=24, np=2048)


# (case name, config)
CASES = (
    ("landau_modified", case_config("landau", "modified", 0.05, 0.5, 1.0)),
    ("landau_standard", case_config("landau", "standard", 0.05, 0.5, 1.0)),
    ("two_stream_modified", case_config("two_stream", "modified", 0.01, 2.0, 0.25)),
    ("two_stream_standard", case_config("two_stream", "standard", 0.01, 2.0, 0.25)),
    ("landau_multi_cell_modified", multi_cell_config("modified")),
    ("landau_multi_cell_standard", multi_cell_config("standard")),
    ("landau_row_blocked_modified", row_blocked_config("modified")),
    ("landau_row_blocked_standard", row_blocked_config("standard")),
)

# (case name, preset, amplitude, drift, temperature) of the comparisons, which
# record a snapshot every DIVERGENCE_EVERY of their N_STEPS steps.
DIVERGENCE_CASES = (
    ("landau_compare", "landau", 0.05, 0.5, 1.0),
    ("two_stream_compare", "two_stream", 0.01, 2.0, 0.25),
)
DIVERGENCE_EVERY = 10


def case_rows(case: tuple) -> list:
    """The diagnostics rows of one case's run, one list of column values per
    step in ``DIAGNOSTICS_FIELDS`` order."""
    _, config = case
    result = run_simulation(config, n_steps=N_STEPS)
    assert not result.aborted, result.abort_reason
    return [list(astuple(record)) for record in result.records]


def divergence_rows(case: tuple) -> list:
    """The divergence rows of one comparison of both force modes over N_STEPS
    steps, one list of column values per snapshot in ``DIVERGENCE_FIELDS``
    order."""
    _, preset, *params = case
    config = case_config(preset, "modified", *params)
    dt = build_grid(config).dt
    config = replace(config, t_end=N_STEPS * dt, output_every=DIVERGENCE_EVERY)
    rows, run_modified, run_standard = compare_simulations(config)
    for run in (run_modified, run_standard):
        assert not run.aborted and run.n_steps == N_STEPS, run.abort_reason
    return [list(astuple(row)) for row in rows]


def _json_cases(cases: dict) -> str:
    lines = [f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows)
             + "\n ]" for name, rows in cases.items()]
    return "{\n" + ",\n".join(lines) + "\n}"


def excess(got, expected) -> np.ndarray:
    """How far each value lies beyond the tolerance; <= 0 where it matches."""
    got, expected = np.array(got, dtype=float), np.array(expected, dtype=float)
    return np.abs(got - expected) - (ATOL + RTOL * np.abs(expected))


def check() -> int:
    """Print each column's worst deviation from the committed rows over every
    case; 1 if any value lies outside the tolerance."""
    golden = json.loads(GOLDEN_PATH.read_text())
    failed = False
    for kind, cases, compute, columns in (
            ("cases", CASES, case_rows, DIAGNOSTICS_FIELDS),
            ("divergence_cases", DIVERGENCE_CASES, divergence_rows, DIVERGENCE_FIELDS)):
        got = np.concatenate([compute(case) for case in cases])
        expected = np.concatenate([golden[kind][case[0]] for case in cases])
        deviation = np.abs(got - expected)
        relative = deviation / np.where(expected == 0.0, 1.0, np.abs(expected))
        worst_excess = excess(got, expected).max(axis=0)
        print(f"{kind}: worst over {len(cases)} cases")
        for column, name in enumerate(columns):
            bad = worst_excess[column] > 0.0
            failed |= bad
            print(f"{name:26s} abs {deviation[:, column].max():.3e}  "
                  f"rel {relative[:, column].max():.3e}{'  FAIL' if bad else ''}")
    print(f"{'FAIL' if failed else 'ok'}: tolerance {ATOL:g} + {RTOL:g} |golden|")
    return int(failed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed file instead of writing it")
    parser.add_argument("--add", action="store_true",
                        help="compute only the cases the committed file lacks and "
                             "keep its rows byte for byte")
    args = parser.parse_args()
    if args.check:
        sys.exit(check())
    kept = json.loads(GOLDEN_PATH.read_text()) if args.add else {}
    cases = {case[0]: kept.get("cases", {}).get(case[0]) or case_rows(case)
             for case in CASES}
    divergence = {case[0]: kept.get("divergence_cases", {}).get(case[0])
                  or divergence_rows(case) for case in DIVERGENCE_CASES}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        f'{{"columns": {json.dumps(DIAGNOSTICS_FIELDS)},\n"cases": {_json_cases(cases)},\n'
        f'"divergence_columns": {json.dumps(DIVERGENCE_FIELDS)},\n'
        f'"divergence_cases": {_json_cases(divergence)}}}\n')
    print(f"wrote {GOLDEN_PATH} ({len(cases)} runs and {len(divergence)} comparisons, "
          f"{N_STEPS} steps each)")


if __name__ == "__main__":
    main()
