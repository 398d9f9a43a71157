"""Write ``tests/data/golden_diagnostics.json``: every diagnostics row of four
short runs, the reference that ``test_golden_diagnostics.py`` holds the solver
to within roundoff.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden_diagnostics.py

Regenerate the file only for an intended change to what the solver computes
(a new scheme, source or force term), never to make a kernel rewrite pass;
name that change where the project records its changes.
"""

from __future__ import annotations

import json
from dataclasses import astuple, replace
from pathlib import Path

from kinvlasov.diagnostics import DIAGNOSTICS_FIELDS
from kinvlasov.runner import run_simulation

from conftest import landau_config

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_diagnostics.json"

N_STEPS = 60

# (case name, preset, force mode, amplitude, drift, temperature)
CASES = (
    ("landau_modified", "landau", "modified", 0.05, 0.5, 1.0),
    ("landau_standard", "landau", "standard", 0.05, 0.5, 1.0),
    ("two_stream_modified", "two_stream", "modified", 0.01, 2.0, 0.25),
    ("two_stream_standard", "two_stream", "standard", 0.01, 2.0, 0.25),
)


def case_config(preset: str, force_mode: str, amplitude: float, drift: float,
                temperature: float):
    """The tests' 64x128 pair plasma with one preset's initial state."""
    config = landau_config(amplitude=amplitude, drift=drift, temperature=temperature,
                           force_mode=force_mode)
    return replace(config, init=replace(config.init, preset=preset))


def case_rows(case: tuple) -> list:
    """The diagnostics rows of one case's run, one list of column values per
    step in ``DIAGNOSTICS_FIELDS`` order."""
    _, *params = case
    result = run_simulation(case_config(*params), n_steps=N_STEPS)
    assert not result.aborted, result.abort_reason
    return [list(astuple(record)) for record in result.records]


def main() -> None:
    cases = {case[0]: case_rows(case) for case in CASES}
    lines = [f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows)
             + "\n ]" for name, rows in cases.items()]
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        f'{{"columns": {json.dumps(DIAGNOSTICS_FIELDS)},\n"cases": {{\n'
        + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {GOLDEN_PATH} ({len(cases)} cases, {N_STEPS} steps each)")


if __name__ == "__main__":
    main()
