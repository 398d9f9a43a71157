import sys
import warnings

import numpy as np
import pytest

from kinvlasov import runner
from kinvlasov.cli import main
from kinvlasov.output import read_snapshot
from kinvlasov.state import refresh_moments

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
], ids=["amplitude_1e5", "amplitude_-1.5", "kick_refine_0", "kick_refine_1", "nx_1e23",
        "x_max_1e-320", "x_max_1e300", "p_max_1e200", "c_1e-300", "cfl_fraction_5e-324",
        "m_temperature_1e-200", "temperature_1e-300", "m_1e-200_np_33"])
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
    for out in (taken, taken / "out"):    # a regular file, and a path beneath one
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


def test_run_non_finite_f_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    # A NaN that a step leaves in f_minus stops the run after that step.
    real_step = runner.step

    def poisoned_step(state, config, grid):
        new = real_step(state, config, grid)
        if new.step == 2:
            new.minus.f[3, 5] = np.nan
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
