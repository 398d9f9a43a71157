"""Every diagnostics column of four short runs agrees with the committed golden
rows to roundoff, so a kernel rewrite cannot change what the solver computes.

The golden file is written by ``make_golden_diagnostics.py``; regenerate it
only for an intended change to what the solver computes.
"""

import json

import numpy as np
import pytest

from kinvlasov.diagnostics import DIAGNOSTICS_FIELDS

from make_golden_diagnostics import CASES, GOLDEN_PATH, N_STEPS, case_rows

ATOL = 1e-13
RTOL = 1e-12


@pytest.fixture(scope="module")
def golden():
    data = json.loads(GOLDEN_PATH.read_text())
    assert tuple(data["columns"]) == DIAGNOSTICS_FIELDS
    return data["cases"]


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_diagnostics_match_golden_rows(golden, case):
    expected = np.array(golden[case[0]], dtype=float)
    got = np.array(case_rows(case), dtype=float)
    assert got.shape == expected.shape == (N_STEPS + 1, len(DIAGNOSTICS_FIELDS))
    excess = np.abs(got - expected) - (ATOL + RTOL * np.abs(expected))
    for column, name in enumerate(DIAGNOSTICS_FIELDS):
        worst = int(np.argmax(excess[:, column]))
        assert excess[worst, column] <= 0.0, (
            f"{name} at step {worst}: {got[worst, column]!r} against golden "
            f"{expected[worst, column]!r}")
