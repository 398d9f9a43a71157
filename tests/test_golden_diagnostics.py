"""Every diagnostics column of eight short runs, and every divergence column of
two short comparisons, agrees with the committed golden rows to roundoff, so a
kernel rewrite cannot change what the solver computes.

The golden file is written by ``make_golden_diagnostics.py``; regenerate it
only for an intended change to what the solver computes.
"""

import json

import numpy as np
import pytest

from kinvlasov.diagnostics import DIAGNOSTICS_FIELDS
from kinvlasov.output import DIVERGENCE_FIELDS

from make_golden_diagnostics import (
    CASES,
    DIVERGENCE_CASES,
    DIVERGENCE_EVERY,
    GOLDEN_PATH,
    N_STEPS,
    case_rows,
    divergence_rows,
    excess,
)


@pytest.fixture(scope="module")
def golden():
    data = json.loads(GOLDEN_PATH.read_text())
    assert tuple(data["columns"]) == DIAGNOSTICS_FIELDS
    assert tuple(data["divergence_columns"]) == DIVERGENCE_FIELDS
    return data


def assert_rows_match(got, expected, columns):
    got = np.array(got, dtype=float)
    expected = np.array(expected, dtype=float)
    assert got.shape == expected.shape
    beyond = excess(got, expected)
    for column, name in enumerate(columns):
        worst = int(np.argmax(beyond[:, column]))
        assert beyond[worst, column] <= 0.0, (
            f"{name} in row {worst}: {got[worst, column]!r} against golden "
            f"{expected[worst, column]!r}")


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_diagnostics_match_golden_rows(golden, case):
    expected = golden["cases"][case[0]]
    assert np.shape(expected) == (N_STEPS + 1, len(DIAGNOSTICS_FIELDS))
    assert_rows_match(case_rows(case), expected, DIAGNOSTICS_FIELDS)


@pytest.mark.parametrize("case", DIVERGENCE_CASES, ids=[case[0] for case in DIVERGENCE_CASES])
def test_divergence_matches_golden_rows(golden, case):
    expected = golden["divergence_cases"][case[0]]
    assert np.shape(expected) == (N_STEPS // DIVERGENCE_EVERY + 1, len(DIVERGENCE_FIELDS))
    assert_rows_match(divergence_rows(case), expected, DIVERGENCE_FIELDS)
