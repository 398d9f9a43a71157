import importlib.util
import sys
import warnings

import numpy as np
import pytest

from kinvlasov import runner, verify, vlasov
from kinvlasov.cli import main
from kinvlasov.config import SolverAbort
from kinvlasov.state import build, refresh_moments

from conftest import read_snapshot

GOOD_CONFIG = """
[grid]
nx = 32
x_max = 12.0
np = 32
p_max = 8.0
[time]
cfl_fraction = 0.9
t_end = 0.5
output_every = 4
[physics]
c = 4.0
relativistic = true
force_mode = modified
[species.plus]
q = 0.1995
m = 1.0
[species.minus]
q = -0.1995
m = 1.0
[init]
preset = landau
n0 = 1.0
amplitude = 0.001
k_mode = 1
temperature = 1.0
drift = 0.0
"""


# Masses and temperature whose product underflows to 0: a Gaussian of no width.
NO_WIDTH_CONFIG = (GOOD_CONFIG.replace("m = 1.0", "m = 1e-200")
                   .replace("temperature = 1.0", "temperature = 1e-200")
                   .replace("p_max = 8.0", "p_max = 1e-190"))

# Masses whose square underflows to 0: v(p) = p / sqrt(m^2 + p^2 / c^2) is 0/0 at
# the p = 0 node that an odd np has.
NO_MASS_CONFIG = GOOD_CONFIG.replace("m = 1.0", "m = 1e-200").replace("np = 32", "np = 33")


def write_config(tmp_path, text=GOOD_CONFIG):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_run_command_end_to_end(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    assert (out / "diagnostics.csv").exists()
    assert (out / "f_plus_0.dat").exists()
    assert "completed" in capsys.readouterr().out


def test_run_command_bad_config(tmp_path, capsys):
    config = write_config(tmp_path, "[grid]\nnx = 2\n")
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "nx" in capsys.readouterr().out


def test_run_command_missing_file(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_verify_single_fast_case(capsys):
    assert main(["verify", "--case", "poisson_mode"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS poisson_mode")


@pytest.mark.parametrize("case", ["moment_oracles", "manufactured_residuals"])
def test_verify_oracle_cases_pass(capsys, case):
    # The acceptance tests run the other three cases through kinvlasov.verify.
    assert main(["verify", "--case", case]) == 0
    assert capsys.readouterr().out.startswith(f"PASS {case}")


def test_verify_case_solver_abort_is_one_fail_line(capsys, monkeypatch):
    def abort(state, config, grid):
        raise SolverAbort("momentum displacement past its bound")

    monkeypatch.setattr(verify, "step", abort)
    assert main(["verify", "--case", "langmuir_comparator"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == ["FAIL langmuir_comparator: solver aborted at step 1: "
                                "momentum displacement past its bound"]


def test_verify_unknown_case(capsys):
    assert main(["verify", "--case", "nope"]) == 2
    assert "unknown case" in capsys.readouterr().out


def test_compare_command_end_to_end(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(config), "--out", str(out)]) == 0
    divergence = (out / "divergence.csv").read_text().splitlines()
    assert divergence[0] == "step,time,f_plus_dist,f_minus_dist,phi_dist,a_dist,force_dist"
    first = divergence[1].split(",")
    assert first[0] == "0"
    # identical initial states: the f distance at step 0 is exactly zero
    assert float(first[2]) == 0.0 and float(first[3]) == 0.0
    # both force modes leave per-mode run outputs too
    assert (out / "modified" / "diagnostics.csv").exists()
    assert (out / "standard" / "diagnostics.csv").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_non_utf8_config_exits_2_with_one_line(tmp_path, capsys, command):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"\xff\xfe" + GOOD_CONFIG.encode())
    code = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "UTF-8" in lines[0]
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "o").exists()


NON_NEUTRAL_CONFIG = GOOD_CONFIG.replace("q = 0.1995", "q = 0.3").replace(
    "q = -0.1995", "q = -0.2")


@pytest.mark.parametrize("command", ["run", "compare"])
def test_non_neutral_config_exits_2_with_one_line(tmp_path, capsys, command):
    config = write_config(tmp_path, NON_NEUTRAL_CONFIG)
    code = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "neutral" in lines[0]
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("k_mode", [16, 32])
def test_k_mode_from_half_nx_exits_2_with_one_line(tmp_path, capsys, command, k_mode):
    # nx = 32: k_mode = 32 makes the minus species uniform and non-neutral.
    config = write_config(tmp_path, GOOD_CONFIG.replace("k_mode = 1", f"k_mode = {k_mode}"))
    code = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "k_mode" in lines[0]
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("preset", ["free_stream", "landau", "two_stream"])
def test_small_amplitude_config_completes(tmp_path, capsys, command, preset):
    text = GOOD_CONFIG.replace("amplitude = 0.001", "amplitude = 1e-05").replace(
        "preset = landau", f"preset = {preset}").replace("np = 32", "np = 64")
    config = write_config(tmp_path, text)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 0


ABORTING_CONFIG = GOOD_CONFIG.replace("q = 0.1995", "q = 40.0").replace(
    "q = -0.1995", "q = -40.0").replace("amplitude = 0.001", "amplitude = 0.5")


# A density or charges of 1e200 overflow the field energy and the force at step 1.
OVERFLOWING_N0_CONFIG = GOOD_CONFIG.replace("n0 = 1.0", "n0 = 1e200")
OVERFLOWING_Q_CONFIG = GOOD_CONFIG.replace("q = 0.1995", "q = 1e200").replace(
    "q = -0.1995", "q = -1e200")


@pytest.mark.parametrize("command, text", [
    ("run", ABORTING_CONFIG),
    ("run", OVERFLOWING_N0_CONFIG),
    ("compare", OVERFLOWING_N0_CONFIG),
    ("run", OVERFLOWING_Q_CONFIG),
    ("compare", OVERFLOWING_Q_CONFIG),
], ids=["run-q_40", "run-n0_1e200", "compare-n0_1e200", "run-q_1e200", "compare-q_1e200"])
def test_run_command_solver_abort(tmp_path, capsys, command, text):
    config = write_config(tmp_path, text)
    out = tmp_path / "aborted"
    # The abort is its one line: no numpy floating-point warning goes ahead of it.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert [str(w.message) for w in caught] == [] and captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1 and "aborted at step" in lines[0]
    # partial diagnostics were flushed before the abort
    run_dir = out if command == "run" else out / "modified"
    lines = (run_dir / "diagnostics.csv").read_text().splitlines()
    assert len(lines) >= 2


def test_free_stream_run_writes_one_distinct_plus_row(tmp_path):
    # The x-uniform plus species stays bitwise uniform under free streaming
    # (test_output), so each of its snapshot files repeats a single line.
    text = GOOD_CONFIG.replace("preset = landau", "preset = free_stream").replace(
        "output_every = 4", "output_every = 1")
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
    files = sorted(out.glob("f_plus_*.dat"))
    assert len(files) > 2
    for path in files:
        data = path.read_text().splitlines()[1:]
        assert len(data) == 32 and len(set(data)) == 1, path.name


def test_run_outputs_self_describing(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out)])
    meta, matrix = read_snapshot(out / "f_minus_0.dat")
    assert matrix.shape == (meta["nx"], meta["np"])
    assert meta["t"] == 0.0
    assert np.isfinite(matrix).all()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("setting, bad", [
    ("t_end = 0.5", "t_end = inf"),
    ("c = 4.0", "c = nan"),
    ("amplitude = 0.001", "amplitude = nan"),
])
def test_non_finite_config_exits_2_with_one_line(tmp_path, capsys, command, setting, bad):
    config = write_config(tmp_path, GOOD_CONFIG.replace(setting, bad))
    code = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "must be finite" in lines[0]
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("setting, bad, line", [
    # Beyond |amplitude| = 1 the perturbed f is negative somewhere.
    ("amplitude = 0.001", "amplitude = 1e5", "amplitude must lie in [-1, 1] (got 100000.0)"),
    ("amplitude = 0.001", "amplitude = -1.5", "amplitude must lie in [-1, 1] (got -1.5)"),
    # A key that left the schema is unknown; it lands on line 11.
    *(("output_every = 4", f"output_every = 4\nkick_refine = {value}",
       "unknown key 'kick_refine' in [time] at line 11") for value in (0, 1)),
    # nx * np float64s beyond sys.maxsize bytes: numpy cannot even index such a grid.
    ("nx = 32", f"nx = {10**23}", f"grid too large: nx * np = {32 * 10**23} cells exceed "
                                  f"numpy's {sys.maxsize}-byte array limit"),
    # Run constants that a float cannot hold: dx * dx, c * c or p_max * p_max
    # leaves (0, inf), or dt underflows to 0.
    ("x_max = 12.0", "x_max = 1e-320",
     "dx = x_max / nx = 3.11261e-322 is out of range: its square is 0"),
    ("x_max = 12.0", "x_max = 1e300",
     "dx = x_max / nx = 3.125e+298 is out of range: its square is inf"),
    ("p_max = 8.0", "p_max = 1e200", "p_max = 1e+200 is out of range: its square is inf"),
    ("c = 4.0", "c = 1e-300", "c = 1e-300 is out of range: its square is 0"),
    ("cfl_fraction = 0.9", "cfl_fraction = 5e-324",
     "t_end = 0.5 takes more than 10000000 steps of dt = 0"),
    # An initial Gaussian of no width, or one that no p node resolves, is
    # rejected before numpy divides by its 0 width or its 0 quadrature sum.
    (GOOD_CONFIG, NO_WIDTH_CONFIG, "; ".join(
        f"species {label}: the initial Gaussian has no width: "
        "m * temperature = 1e-200 * 1e-200 underflows to 0" for label in ("plus", "minus"))),
    ("temperature = 1.0", "temperature = 1e-300", "species minus: no p node resolves "
     "the initial Gaussian: m * temperature = 1e-300 against dp = 0.5"),
    # A v(p) that is not finite on some p node is rejected before the run
    # steps on it (and before numpy warns of it).
    (GOOD_CONFIG, NO_MASS_CONFIG, "; ".join(
        f"species {label}: m = 1e-200 is out of range: v(p) is not finite on every p node"
        for label in ("plus", "minus"))),
    ("drift = 0.0", "drift 0.0", "expected 'key = value' at line 27: 'drift 0.0'"),
], ids=["amplitude_1e5", "amplitude_-1.5", "kick_refine_0", "kick_refine_1", "nx_1e23",
        "x_max_1e-320", "x_max_1e300", "p_max_1e200", "c_1e-300", "cfl_fraction_5e-324",
        "m_temperature_1e-200", "temperature_1e-300", "m_1e-200_np_33", "no_equals_sign"])
def test_rejected_config_exits_2_with_exactly_one_line(tmp_path, capsys, command, setting,
                                                       bad, line):
    config = write_config(tmp_path, GOOD_CONFIG.replace(setting, bad))
    code = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"error: {line}"]
    assert "Traceback" not in captured.out + captured.err
    assert captured.err == ""


@pytest.mark.parametrize("command", ["run", "compare"])
def test_step_cap_rejects_a_run_before_its_first_step(tmp_path, capsys, monkeypatch, command):
    # c = 1e300 makes dt = 3.4e-301: t_end = 0.5 would take 1.5e300 steps.
    def no_step(state, config, grid):
        raise AssertionError("a step ran")

    monkeypatch.setattr(runner, "step", no_step)
    config = write_config(tmp_path, GOOD_CONFIG.replace("c = 4.0", "c = 1e300"))
    code = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"error: t_end = 0.5 takes more than {runner.MAX_STEPS} steps of dt = 3.375e-301"]
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_unwritable_out_exits_3_with_one_line(tmp_path, capsys, command):
    config = write_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    # A regular file, a path beneath one, and an empty --out, which the library
    # would read as "no outputs".
    for out in (taken, taken / "out", ""):
        code = main([command, "--config", str(config), "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write outputs:")
        assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("command", ["run", "compare"])
def test_grid_too_large_to_allocate_exits_2_with_one_line(tmp_path, capsys, monkeypatch,
                                                          command):
    # Stands in for numpy's allocation failure on a huge grid; nothing is allocated.
    def too_large(config, grid):
        raise MemoryError("Unable to allocate 7.28 PiB for an array with shape "
                          "(10000000, 100000000) and data type float64")

    monkeypatch.setattr(runner, "initialize_state", too_large)
    config = write_config(tmp_path)
    code = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot allocate ")
    assert "7.28 PiB" in lines[0]
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("command", ["run", "compare"])
def test_missing_lapack_extension_exits_2_with_one_line(tmp_path, capsys, monkeypatch,
                                                        command):
    # With no scipy to be found, a kicking preset cannot build its p-spline solve.
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *args: None if name == "scipy" else find_spec(name, *args))
    config = write_config(tmp_path)
    code = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot set up the run: ")
    assert "scipy.linalg._flapack" in lines[0]
    assert "Traceback" not in captured.out + captured.err


ONE_MODE_ABORTS_CONFIG = GOOD_CONFIG.replace("q = 0.1995", "q = 2.0").replace(
    "q = -0.1995", "q = -2.0").replace("amplitude = 0.001", "amplitude = 0.5").replace(
    "t_end = 0.5", "t_end = 3.0")


def test_compare_one_mode_aborting_exits_1_with_one_line(tmp_path, capsys):
    # The standard run aborts at its first step; the modified run completes.
    config = write_config(tmp_path, ONE_MODE_ABORTS_CONFIG)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("comparison aborted:")
    assert "standard run aborted at step 1: momentum displacement" in lines[0]
    assert "modified run completed 36 steps" in lines[0]
    assert "Traceback" not in captured.out + captured.err
    # the rows cover the snapshots both runs recorded: the initial state only
    divergence = (out / "divergence.csv").read_text().splitlines()
    assert len(divergence) == 2 and divergence[1].startswith("0,")
    modified = (out / "modified" / "diagnostics.csv").read_text().splitlines()
    assert modified[-1].startswith("36,")


def test_compare_both_modes_aborting_names_each_on_one_line(tmp_path, capsys):
    config = write_config(tmp_path, ABORTING_CONFIG)
    assert main(["compare", "--config", str(config), "--out", str(tmp_path / "cmp")]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("comparison aborted:")
    modified, standard = lines[0].removeprefix("comparison aborted: ").split("; standard ")
    assert modified.startswith("modified run aborted at step ")
    assert standard.startswith("run aborted at step 1: momentum displacement")
    assert "momentum displacement" in modified
    assert "Traceback" not in captured.out + captured.err


def mode_files(run_dir):
    return {path.name: path.read_bytes() for path in run_dir.iterdir()}


def run_file_names(snapshot_steps):
    return {"manifest.json", "diagnostics.csv"} | {
        f"{name}_{k}.dat" for name in ("f_plus", "f_minus", "fields") for k in snapshot_steps}


def test_compare_writes_each_mode_as_its_own_run(tmp_path):
    # The two runs of a compare advance in lockstep; each directory must still
    # be byte for byte what ``kinvlasov run`` writes for that force mode.
    text = GOOD_CONFIG.replace("t_end = 0.5", "t_end = 1.5")
    assert main(["compare", "--config", str(write_config(tmp_path, text)),
                 "--out", str(tmp_path / "cmp")]) == 0
    for mode in ("modified", "standard"):
        config = write_config(tmp_path, text.replace("force_mode = modified",
                                                     f"force_mode = {mode}"))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / mode)]) == 0
        files = mode_files(tmp_path / mode)
        assert "f_minus_16.dat" in files
        assert mode_files(tmp_path / "cmp" / mode) == files


def test_compare_leading_mode_aborting_mid_interval(tmp_path, capsys, monkeypatch):
    # The modified run, which runs a snapshot ahead of the standard run, gets a
    # NaN at step 10, between its snapshots at 8 and 12.
    real_step = runner.step

    def poisoned_step(state, config, grid):
        new = real_step(state, config, grid)
        if config.force_mode == "modified" and new.step == 10:
            build(new, config, grid).minus.f[3, 5] = np.nan
            new = refresh_moments(new, config, grid)
        return new

    monkeypatch.setattr(runner, "step", poisoned_step)
    config = write_config(tmp_path, GOOD_CONFIG.replace("t_end = 0.5", "t_end = 1.5"))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "comparison aborted: modified run aborted at step 10: non-finite value in "
        "f_minus at step 10; standard run completed 18 steps"]
    assert captured.err == ""
    # the rows stop at the modified run's last snapshot
    divergence = (out / "divergence.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in divergence] == ["0", "4", "8"]
    assert set(mode_files(out / "modified")) == run_file_names((0, 4, 8))
    # the last finite state's row was flushed
    assert (out / "modified" / "diagnostics.csv").read_text().splitlines()[-1].startswith("9,")
    # the standard run still ran to its end and wrote every file
    assert set(mode_files(out / "standard")) == run_file_names((0, 4, 8, 12, 16))
    assert len((out / "standard" / "diagnostics.csv").read_text().splitlines()) == 1 + 5


# q = +-1.2 and amplitude 0.5 drive a kick past its bound at step 126, between
# two rows of output_every = 4.
KICK_ABORT_CONFIG = GOOD_CONFIG.replace("q = 0.1995", "q = 1.2").replace(
    "q = -0.1995", "q = -1.2").replace("amplitude = 0.001", "amplitude = 0.5").replace(
    "t_end = 0.5", "t_end = 20")
LONGER_CONFIG = GOOD_CONFIG.replace("t_end = 0.5", "t_end = 1.5")


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("abort, text, last_step, reason", [
    ("kick", KICK_ABORT_CONFIG, 125, "momentum displacement"),
    ("non_finite", LONGER_CONFIG, 9, "non-finite value in f_minus"),
    ("wave", LONGER_CONFIG, 9, "wave update produced non-finite values"),
], ids=["kick_step_126", "non_finite_step_10", "wave_step_10"])
def test_abort_between_rows_writes_the_last_finite_row(tmp_path, capsys, monkeypatch,
                                                       command, abort, text, last_step, reason):
    # The row written at the abort must be the one the run writes for that
    # step at output_every = 1: built from the same three states.
    real_step, real_wave_step, stepping = runner.step, vlasov.wave_step, []

    def poisoned_step(state, config, grid):
        new = real_step(state, config, grid)
        if new.step == 10:
            build(new, config, grid).minus.f[3, 5] = np.nan
            new = refresh_moments(new, config, grid)
        return new

    def counted_step(state, config, grid):
        stepping.append(state.step + 1)
        return real_step(state, config, grid)

    def nan_sourced_wave_step(u_prev, u_curr, source, grid, dt, c):
        # the real wave update, given a NaN source cell at step 10
        if stepping[-1] == 10:
            source = source.copy()
            source[3] = np.nan
        return real_wave_step(u_prev, u_curr, source, grid, dt, c)

    if abort == "non_finite":
        monkeypatch.setattr(runner, "step", poisoned_step)
    elif abort == "wave":
        monkeypatch.setattr(runner, "step", counted_step)
        monkeypatch.setattr(vlasov, "wave_step", nan_sourced_wave_step)
    rows = {}
    for every in (4, 1):
        config = write_config(tmp_path, text.replace("output_every = 4",
                                                     f"output_every = {every}"))
        out = tmp_path / f"every_{every}"
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        assert f"aborted at step {last_step + 1}: {reason}" in capsys.readouterr().out
        for mode in ["."] if command == "run" else ["modified", "standard"]:
            rows[every, mode] = (out / mode / "diagnostics.csv").read_bytes().splitlines()
    for mode in {mode for _, mode in rows}:
        last = rows[4, mode][-1]
        assert last == rows[1, mode][1 + int(last.split(b",")[0])]
    assert rows[4, "." if command == "run" else "modified"][-1].startswith(
        f"{last_step},".encode())


def test_run_non_finite_f_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    # A NaN that a step leaves in f_minus stops the run after that step.
    real_step = runner.step

    def poisoned_step(state, config, grid):
        new = real_step(state, config, grid)
        if new.step == 2:
            build(new, config, grid).minus.f[3, 5] = np.nan
            new = refresh_moments(new, config, grid)
        return new

    monkeypatch.setattr(runner, "step", poisoned_step)
    config = write_config(tmp_path)
    out = tmp_path / "nan"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "solver aborted at step 2: non-finite value in f_minus at step 2"]
    assert "Traceback" not in captured.out + captured.err
    # the last finite state's row was flushed; the poisoned state has none
    rows = (out / "diagnostics.csv").read_text().splitlines()
    assert rows[-1].startswith("1,")


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_kick_yielding_a_non_finite_cell_aborts_at_that_step(tmp_path, capsys, monkeypatch,
                                                             command, bad):
    # The real path: the modified run's kick of f_minus at step 10 returns one
    # bad cell, between the rows at 8 and 12 of output_every = 4.
    real_step, real_kick = runner.step, vlasov.kick_p
    current = {}

    def tracking_step(state, config, grid):
        current.update(step=state.step + 1, mode=config.force_mode, kicks=0)
        return real_step(state, config, grid)

    def bad_kick(f, coefficients, v, grid, dt):
        kicked = real_kick(f, coefficients, v, grid, dt)
        current["kicks"] += 1
        if current == {"step": 10, "mode": "modified", "kicks": 2}:
            kicked[3, 5] = bad
        return kicked

    monkeypatch.setattr(runner, "step", tracking_step)
    monkeypatch.setattr(vlasov, "kick_p", bad_kick)
    text = GOOD_CONFIG.replace("t_end = 0.5", "t_end = 1.5")
    rows = {}
    for every in (4, 1):
        config = write_config(tmp_path, text.replace("output_every = 4",
                                                     f"output_every = {every}"))
        out = tmp_path / f"every_{every}"
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == [
            "solver aborted at step 10: non-finite value in f_minus at step 10"
            if command == "run" else
            "comparison aborted: modified run aborted at step 10: non-finite value in "
            "f_minus at step 10; standard run completed 18 steps"]
        run_dir = out if command == "run" else out / "modified"
        rows[every] = (run_dir / "diagnostics.csv").read_bytes().splitlines()
    # the last finite state's row, as the run writes it at output_every = 1
    assert rows[4][-1].startswith(b"9,") and rows[4][-1] == rows[1][-1]


@pytest.mark.parametrize("preset", ["landau", "free_stream"])
def test_huge_finite_f_runs_alike_at_every_output_cadence(tmp_path, capsys, preset):
    # n0 = 1e307 keeps f and its density finite, while sums over its spectrum
    # overflow.  Steps 1 to 3 are off the cadence of output_every = 4.
    text = (GOOD_CONFIG.replace("n0 = 1.0", "n0 = 1e307").replace("amplitude = 0.001",
                                                                  "amplitude = 0.0")
            .replace("preset = landau", f"preset = {preset}").replace("t_end = 0.5", "t_end = 0.3"))
    rows = {}
    for every in (4, 1):
        config = write_config(tmp_path, text.replace("output_every = 4",
                                                     f"output_every = {every}"))
        out = tmp_path / f"every_{every}"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("completed 4 steps")
        rows[every] = (out / "diagnostics.csv").read_bytes().splitlines()
    assert rows[4][-1].startswith(b"4,") and rows[4][-1] == rows[1][-1]
