"""Every config text ends ``kinvlasov run`` and ``compare`` in one line.

Each example is a runnable config with up to three of its numbers replaced
by finite floats from +-5e-324 to +-1e300 or integers up to 1e23, so that
many examples pass validation and step.  Grids stay tiny: an nx or np that
passes validation is at most 16, and any larger one is rejected before an
array is allocated.  ``runner.MAX_STEPS`` is lowered to 4 so that an
accepted config takes a few steps and a longer one meets the step cap.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinvlasov import runner
from kinvlasov.cli import main
from kinvlasov.config import FORCE_MODES, PRESETS

FLOATS = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)
INTS = st.integers(-10**23, 10**23)
# Below 8 nx and np are rejected; from 2**60 up, nx * np float64s exceed sys.maxsize bytes.
GRID_SIZES = st.integers(-10**23, 16) | st.integers(2**60, 10**23)

# Per section, each key with a strategy of runnable values: tails below the
# 1e-12 limit at p_max = 8, k_mode below nx / 2, and the minus species' charge
# (None) the negated plus charge.
RUNNABLE = {
    "grid": {"nx": st.integers(8, 16), "x_max": st.floats(1.0, 20.0),
             "np": st.integers(8, 16), "p_max": st.just(8.0)},
    "time": {"cfl_fraction": st.floats(0.01, 1.0), "t_end": st.floats(5e-324, 1.0),
             "output_every": st.integers(1, 3)},
    "physics": {"c": st.floats(2.0, 10.0), "relativistic": st.sampled_from(["true", "false"]),
                "force_mode": st.sampled_from(FORCE_MODES)},
    "species.plus": {"q": st.floats(0.01, 1.0), "m": st.floats(0.5, 1.0)},
    "species.minus": {"q": None, "m": st.floats(0.5, 1.0)},
    "init": {"preset": st.sampled_from(PRESETS), "n0": st.floats(0.1, 10.0),
             "amplitude": st.floats(-1.0, 1.0), "k_mode": st.integers(1, 3),
             "temperature": st.floats(0.5, 1.0), "drift": st.floats(-0.5, 0.5)},
}
EXTREMES = {"nx": GRID_SIZES, "np": GRID_SIZES, "output_every": INTS, "k_mode": INTS}
NUMBERS = [(name, key) for name, keys in RUNNABLE.items() for key in keys
           if key not in ("relativistic", "force_mode", "preset")]


@st.composite
def config_texts(draw):
    """A runnable config with up to three of its numbers drawn from the extremes."""
    extreme = draw(st.lists(st.sampled_from(NUMBERS), max_size=3, unique=True))
    drawn, lines = {}, []
    for name, keys in RUNNABLE.items():
        lines.append(f"[{name}]")
        for key, runnable in keys.items():
            if (name, key) in extreme:
                item = draw(EXTREMES.get(key, FLOATS))
            else:
                item = -drawn["species.plus", "q"] if runnable is None else draw(runnable)
            drawn[name, key] = item
            lines.append(f"{key} = {repr(item) if isinstance(item, float) else item}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", ["run", "compare"])
@settings(max_examples=100)
@given(text=config_texts())
def test_every_config_ends_in_one_line_and_a_documented_exit_code(command, text):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(runner, "MAX_STEPS", 4), \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("always")
        config = Path(tmp) / "run.cfg"
        config.write_text(text)
        code = main([command, "--config", str(config), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2, 3)
    assert len(out.getvalue().splitlines()) == 1 and out.getvalue().endswith("\n")
    assert err.getvalue() == "" and [str(w.message) for w in caught] == []


@settings(max_examples=100)
@given(text=config_texts())
def test_run_ends_alike_at_every_output_cadence(text):
    # The non-finite check reads a state's density at a row and bounds its
    # spectra off the rows; both give one verdict.  So the exit code, the line
    # and the last finite state's row do not depend on output_every.
    ends = {}
    for every in (1, 3):
        cadenced = "\n".join(f"output_every = {every}" if line.startswith("output_every =")
                             else line for line in text.splitlines()) + "\n"
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(runner, "MAX_STEPS", 4), \
                warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            config, out_dir = Path(tmp) / "run.cfg", Path(tmp) / "out"
            config.write_text(cadenced)
            code = main(["run", "--config", str(config), "--out", str(out_dir)])
            csv = out_dir / "diagnostics.csv"
            rows = csv.read_bytes().splitlines()[1:] if csv.exists() else []
        ends[every] = code, out.getvalue().replace(str(out_dir), "<out>"), rows
    (code, line, rows_1), (code_3, line_3, rows_3) = ends[1], ends[3]
    assert (code, line) == (code_3, line_3)
    assert bool(rows_1) == bool(rows_3)
    if rows_3:
        # Every row at output_every = 3 is the row of its step at output_every = 1,
        # and an aborted run's last row is its last finite state's at both.
        assert set(rows_3) <= set(rows_1)
        assert code != 1 or rows_3[-1] == rows_1[-1]
