"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import ast
import filecmp
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import kinvlasov
from kinvlasov.config import Config, InitConfig, load_config, validate_config
from kinvlasov.diagnostics import EQUATION_PARTITION, compare_runs, residual_report
from kinvlasov.fields import d1_periodic
from kinvlasov.forces import force_field
from kinvlasov.grid import build_grid
from kinvlasov.runner import run_simulation
from kinvlasov.state import FieldState, initialize_state
from kinvlasov.verify import (
    MIN_CONVERGENCE_ORDER,
    case_free_streaming,
    case_langmuir_comparator,
    case_wave_mms,
)

from conftest import landau_config, pair_species


def report(number, name, passed, details):
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'} {name}: {details}")
    assert passed, f"criterion {number} ({name}): {details}"


# Criteria 1, 2 and 4 are verify cases; their thresholds live in kinvlasov.verify.

def test_criterion_1_free_streaming_convergence():
    result = case_free_streaming()
    report(1, "free-streaming translation oracle", result.passed, result.details)


def test_criterion_2_wave_manufactured_solution():
    result = case_wave_mms()
    report(2, "wave-equation manufactured solution", result.passed, result.details)


def test_criterion_3_force_novelty_null():
    config = validate_config(landau_config(nx=64, n_p=64, amplitude=1e-2))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    dt = grid.dt
    q, m = config.minus.q, config.minus.m

    # Any nonzero phi with A = 0 at both levels: the convective force is the
    # bitwise zero field, the comparator equals -q D1 phi to roundoff.
    fields = state.fields
    assert np.any(fields.phi_curr != 0.0)
    mod = force_field(fields, grid, dt, q, m, config.c, config.relativistic, "modified")
    std = force_field(fields, grid, dt, q, m, config.c, config.relativistic, "standard")
    expected = -q * d1_periodic(fields.phi_curr, grid.dx)
    bitwise_zero = bool(np.all(mod == 0.0))
    std_ok = np.allclose(std, expected[:, None], rtol=1e-13, atol=0.0)

    # compare_runs at step 0 reports exactly the L2 of q D1 phi.
    run_mod = run_simulation(replace(config, force_mode="modified"),
                             collect_snapshots=True, n_steps=1)
    run_std = run_simulation(replace(config, force_mode="standard"),
                             collect_snapshots=True, n_steps=1)
    row0 = compare_runs(run_mod, run_std)[0]
    reference = float(np.sqrt(np.sum((q * d1_periodic(fields.phi_curr, grid.dx)) ** 2)
                              * grid.dx))
    rel = abs(row0.force_dist - reference) / reference
    ok = bitwise_zero and std_ok and rel <= 1e-12
    report(3, "force-novelty null test", ok,
           f"convective force bitwise zero: {bitwise_zero}; comparator matches "
           f"-q D1 phi: {std_ok}; step-0 force distance off by {rel:.2e} (<= 1e-12)")


def test_criterion_4_comparator_bohm_gross():
    result = case_langmuir_comparator()
    report(4, "warm Langmuir oscillation vs Bohm-Gross", result.passed, result.details)


def test_criterion_5_conservation_modified_mode():
    config = validate_config(landau_config(nx=64, n_p=128, force_mode="modified"))
    dt = build_grid(config).dt
    config = validate_config(replace(config, t_end=500 * dt))
    result = run_simulation(config)
    assert result.n_steps == 500 and not result.aborted
    n_plus = np.array([r.n_total_plus for r in result.records])
    n_minus = np.array([r.n_total_minus for r in result.records])
    drift_plus = float(np.max(np.abs(n_plus - n_plus[0])) / n_plus[0])
    drift_minus = float(np.max(np.abs(n_minus - n_minus[0])) / n_minus[0])
    v_max = max(r.max_abs_v_over_c for r in result.records)
    ok = drift_plus < 1e-6 and drift_minus < 1e-6 and v_max < 1.0
    report(5, "500-step conservation, convective force mode", ok,
           f"number drift plus {drift_plus:.2e}, minus {drift_minus:.2e} (< 1e-6); "
           f"max |v|/c = {v_max:.3f} (< 1)")


def _ledger_at(nx, n_p, steps_at_coarse, force_mode):
    coarse = validate_config(landau_config(nx=64, n_p=128, force_mode=force_mode))
    dt_coarse = build_grid(coarse).dt
    t_end = steps_at_coarse * dt_coarse
    config = validate_config(landau_config(nx=nx, n_p=n_p, force_mode=force_mode,
                                           t_end=t_end))
    result = run_simulation(config)
    return residual_report(result.history, result.config, result.grid)


def test_criterion_6_overdetermination_ledger():
    # Convergence of the monitored residuals is measured in the comparator
    # mode, where the continuum system satisfies both surplus equations
    # exactly; in the convective mode they expose a genuine model defect and
    # plateau (that is the point of monitoring them).
    coarse = _ledger_at(64, 128, 40, "standard")
    fine = _ledger_at(128, 256, 40, "standard")
    orders = {eq: math.log2(coarse[eq] / fine[eq]) for eq in ("e", "h")}
    totals_ok = (EQUATION_PARTITION["full_equation_total"] == 12
                 and EQUATION_PARTITION["full_unknown_total"] == 10
                 and len(coarse) == 9
                 and list(coarse) == [e["equation"] for e in EQUATION_PARTITION["entries"]])
    definitions_ok = coarse["f"] <= 1e-12 and coarse["g"] <= 1e-12
    orders_ok = all(o >= MIN_CONVERGENCE_ORDER for o in orders.values())
    ok = totals_ok and definitions_ok and orders_ok
    report(6, "overdetermined-system ledger", ok,
           f"totals 12 equations / 10 unknowns verbatim: {totals_ok}; definition "
           f"residuals at roundoff: {definitions_ok}; gauge order {orders['e']:.2f}, "
           f"continuity order {orders['h']:.2f} (>= {MIN_CONVERGENCE_ORDER})")


def test_criterion_7_nonrelativistic_toggle():
    base = Config(
        nx=64, x_max=2.0 * math.pi, np=64, p_max=0.01, c=1.0,
        relativistic=True, force_mode="modified", cfl_fraction=0.9,
        t_end=1.0, output_every=10**9, species=pair_species(),
        init=InitConfig(preset="landau", n0=1.0, amplitude=1e-2, k_mode=1,
                        temperature=(0.01 / 7.6) ** 2, drift=0.0),
    )
    # p_max = 0.01 * m * c, so u = (p/mc)^2 <= 1e-4 and the velocity laws
    # differ by at most u/2 relative.
    assert base.p_max == 0.01 * base.minus.m * base.c
    final = {}
    for rel in (True, False):
        config = validate_config(replace(base, relativistic=rel))
        final[rel] = run_simulation(config, n_steps=100).final_state.minus.f
    diff = float(np.sqrt(np.sum((final[True] - final[False]) ** 2))
                 / np.sqrt(np.sum(final[True] ** 2)))
    report(7, "nonrelativistic limit toggle", diff < 1e-4,
           f"relative L2 divergence after 100 steps {diff:.2e} (< 1e-4, "
           f"consistent with the u/2 velocity bound, u <= 1e-4)")


RERUN_CONFIG = """
[grid]
nx = 32
x_max = 20.94
np = 32
p_max = 8.0
[time]
t_end = 0.8
output_every = 5
[physics]
c = 4.0
force_mode = modified
[species.plus]
q = 0.19947114020071635
m = 1.0
[species.minus]
q = -0.19947114020071635
m = 1.0
[init]
preset = landau
amplitude = 0.001
"""


def test_criterion_8_byte_identical_reruns(tmp_path):
    from kinvlasov.cli import main

    config_path = tmp_path / "run.cfg"
    config_path.write_text(RERUN_CONFIG)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["run", "--config", str(config_path), "--out", str(d)]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
    ok = not mismatch and not errors and len(match) == len(names)
    report(8, "byte-identical reruns", ok,
           f"{len(match)} files identical across reruns ({', '.join(mismatch) or 'no mismatches'})")


THREAD_CAP_CONFIG = RERUN_CONFIG.replace("np = 32", "np = 64").replace(
    "preset = landau\namplitude = 0.001",
    "preset = two_stream\namplitude = 0.01\ndrift = 2.0\ntemperature = 0.25")


def test_reruns_byte_identical_across_thread_caps(tmp_path):
    # No output may depend on the thread caps, as a BLAS reduction ordered by
    # the thread count could make it.
    config_path = tmp_path / "run.cfg"
    config_path.write_text(THREAD_CAP_CONFIG)
    config = validate_config(load_config(config_path))
    dt = build_grid(config).dt
    config_path.write_text(THREAD_CAP_CONFIG.replace("t_end = 0.8", f"t_end = {20 * dt!r}"))
    src = os.path.dirname(os.path.dirname(kinvlasov.__file__))
    dirs = [tmp_path / "threads1", tmp_path / "threads2"]
    for threads, out in zip(("1", "2"), dirs):
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-m", "kinvlasov.cli", "run", "--config",
                               str(config_path), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "completed 20 steps" in done.stdout
    names = sorted(p.name for p in dirs[0].iterdir())
    assert "f_minus_20.dat" in names
    assert names == sorted(p.name for p in dirs[1].iterdir())
    match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
    assert not mismatch and not errors and len(match) == len(names)


BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "tensordot"}


def test_solver_source_has_no_blas_products():
    # The rule behind the thread-cap test, read off the source: products and
    # their sums are einsums, never BLAS, whose reductions a thread cap may
    # reorder.  A small rerun may not tell the two apart; the source does.
    found = []
    for path in sorted(Path(kinvlasov.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno}: @")
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in BLAS_CALLS:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found, found


def scipy_names(node, scope="<module>"):
    """The scope (function name, or <module>) of each scipy import under node, and
    of each string outside a docstring that names scipy."""
    body = getattr(node, "body", None)
    docstring = (body[0].value if isinstance(body, list) and body
                 and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                 else None)
    for child in ast.iter_child_nodes(node):
        names = ([alias.name for alias in child.names] if isinstance(child, ast.Import)
                 else [child.module or ""] if isinstance(child, ast.ImportFrom) else [])
        if any(name.split(".")[0] == "scipy" for name in names):
            yield scope, "import"
        if isinstance(child, ast.Expr) and child.value is docstring:
            continue
        if isinstance(child, ast.Constant) and "scipy" in str(child.value):
            yield scope, child.value
        inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                 else scope)
        yield from scipy_names(child, inner)


def test_scipy_is_imported_only_where_the_spline_solve_is_built():
    # scipy provides only the p-kick's spline solve, so only a run that kicks
    # may load it, and only its LAPACK extension: no module imports scipy, and
    # natural_spline_solver is the only code that names it.
    found = [(path.name, scope, name)
             for path in sorted(Path(kinvlasov.__file__).parent.glob("*.py"))
             for scope, name in scipy_names(ast.parse(path.read_text(encoding="utf-8")))]
    assert {(path, scope) for path, scope, _ in found} == {
        ("interpolate.py", "natural_spline_solver")}, found
    assert "import" not in {name for _, _, name in found}, found
    assert {"scipy", "scipy.linalg._flapack"} <= {name for _, _, name in found}, found


def fresh_python(code, cwd):
    """Run ``code`` in a new interpreter on this kinvlasov and return its stdout;
    the test process itself has scipy loaded already."""
    src = os.path.dirname(os.path.dirname(kinvlasov.__file__))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), text=True, timeout=120)
    assert done.returncode == 0 and not done.stderr, done.stdout + done.stderr
    return done.stdout.splitlines()


def test_free_streaming_runs_never_load_scipy(tmp_path):
    (tmp_path / "run.cfg").write_text(
        RERUN_CONFIG.replace("preset = landau", "preset = free_stream"))
    lines = fresh_python(
        "import sys\n"
        "from kinvlasov import Config, InitConfig, run_simulation\n"
        "from kinvlasov.cli import main\n"
        "run = run_simulation(Config(nx=16, np=32, init=InitConfig(preset='free_stream')),\n"
        "                     n_steps=3)\n"
        "print(run.aborted, 'scipy' in sys.modules)\n"
        "print(main(['run', '--config', 'run.cfg', '--out', 'out']), 'scipy' in sys.modules)\n",
        tmp_path)
    assert lines[0] == "False False" and lines[1].startswith("completed")
    assert lines[2] == "0 False"


def test_kicked_runs_load_scipy_in_their_setup(tmp_path):
    # The import is paid before the first step, never inside the stepping, and
    # it loads scipy's LAPACK extension alone: neither scipy.linalg nor scipy._lib.
    assert fresh_python(
        "import sys\n"
        "from kinvlasov import Config, runner\n"
        "print('scipy' in sys.modules)\n"
        "step = runner.step\n"
        "def first_step(state, config, grid):\n"
        "    print(sorted(name for name in sys.modules if name.startswith('scipy')))\n"
        "    runner.step = step\n"
        "    return step(state, config, grid)\n"
        "runner.step = first_step\n"
        "print(runner.run_simulation(Config(nx=16, np=32), n_steps=2).aborted)\n",
        tmp_path) == ["False", "['scipy.linalg._flapack']", "False"]


def test_spline_solve_is_scipy_lapack_dpttrs_in_either_import_order(tmp_path):
    # The extension module is scipy.linalg.lapack's own, whether scipy.linalg
    # is imported before the grid is built (this process) or after it.
    import scipy.linalg.lapack

    assert build_grid(Config(nx=16, np=32)).spline_solve.func is scipy.linalg.lapack.dpttrs
    assert fresh_python(
        "from kinvlasov import Config, build_grid\n"
        "solve = build_grid(Config(nx=16, np=32)).spline_solve\n"
        "import scipy.linalg\n"
        "print(solve.func is scipy.linalg.lapack.dpttrs)\n",
        tmp_path) == ["True"]


def test_only_the_cli_prints_or_exits():
    # One command layer: cli.main turns every outcome into its line and exit
    # code; the library returns results and raises, and never prints.
    found = []
    for path in sorted(Path(kinvlasov.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("print", "exit"):
                found.append(f"{path.name}:{node.lineno}: {func.id}")
            elif (isinstance(func, ast.Attribute) and func.attr == "exit"
                  and isinstance(func.value, ast.Name) and func.value.id == "sys"):
                found.append(f"{path.name}:{node.lineno}: sys.exit")
    assert not found, found


def test_cli_binds_no_solver_function():
    # perfbench/child.py wraps the solver's functions in their own modules and
    # only then imports kinvlasov.cli: a function that cli bound at import
    # time would escape the wrapping.
    import kinvlasov.cli as cli

    bound = [name for name, value in vars(cli).items()
             if callable(value) and getattr(value, "__module__", "").startswith("kinvlasov.")
             and value.__module__ != cli.__name__]
    assert not bound, bound
