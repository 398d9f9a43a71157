"""The per-thread work arrays: results never alias them, threads never share
them, and a step with its diagnostics row stays within an allocation budget."""

import sys
import threading
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np

from kinvlasov import workspace
from kinvlasov.config import Config, InitConfig, validate_config
from kinvlasov.diagnostics import make_record, vlasov_residual
from kinvlasov.fields import FieldState
from kinvlasov.forces import force_coefficients, force_field
from kinvlasov.grid import build_grid
from kinvlasov.interpolate import (
    eval_natural_spline,
    natural_spline_moments,
    periodic_shift_transfer,
)
from kinvlasov.moments import particle_flux
from kinvlasov.state import build, initialize_state
from kinvlasov.vlasov import advect_x, kick_p, step
from kinvlasov.workspace import row_blocks

from conftest import landau_config, pair_species


def small_grid(nx, n_p):
    return build_grid(Config(nx=nx, x_max=8.0, np=n_p, p_max=4.0))


def kernel_results(grid, seed):
    """Every function whose intermediates use the work arrays, on random
    inputs.  The kicks move each foot point by up to a tenth of a cell or by
    up to one and a half cells, the direct evaluation by up to one and a half."""
    rng = np.random.default_rng(seed)
    f = rng.random((grid.nx, grid.np))
    fields = FieldState(*(0.01 * rng.standard_normal(grid.nx) for _ in range(4)))
    config = Config(nx=grid.nx, x_max=8.0, np=grid.np, p_max=4.0, **pair_species(0.5))
    force = force_field(fields, grid, 0.1, config)[0]
    coefficients = force_coefficients(fields, grid, 0.1, config)[0]
    v = grid.v[0]
    dt = 0.1 * grid.dp / np.max(np.abs(force))
    moments = natural_spline_moments(f, grid.spline_solve)
    cells = np.sort(rng.uniform(-1.5, 1.5, f.shape), axis=1)
    transfer = periodic_shift_transfer(grid.nx, v * 0.05 / grid.dx)
    return {
        "advect_x to a spectrum": advect_x(f, transfer, grid.nx),
        "advect_x from a spectrum": advect_x(np.fft.rfft(f, axis=0), transfer, grid.nx),
        "kick_p sub-cell": kick_p(f, coefficients, grid.ones_v[0], grid, dt),
        "kick_p multi-cell": kick_p(f, coefficients, grid.ones_v[0], grid, 15.0 * dt),
        "natural_spline_moments": moments,
        "eval_natural_spline": eval_natural_spline(f, moments, cells, out=np.empty(f.shape)),
        "force_field": force,
        "force_field standard": force_field(fields, grid, 0.1,
                                            replace(config, force_mode="standard"))[0],
        "particle_flux": particle_flux(f, v, grid),
        "vlasov_residual": vlasov_residual(
            f, f, f, force_coefficients(fields, grid, dt, config)[0], grid.ones_v[0], grid, dt),
    }


def in_fresh_thread(fn, *args):
    """fn(*args) on a new thread, which starts with empty work arrays."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn(*args)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    return out[0]


def test_results_survive_later_calls():
    mid, large, small = small_grid(32, 48), small_grid(64, 128), small_grid(16, 24)
    first = kernel_results(mid, 1)
    kept = {name: np.copy(out) for name, out in first.items()}
    kernel_results(mid, 2)        # other inputs, same grid
    kernel_results(large, 3)      # a larger grid grows every buffer
    again = kernel_results(mid, 1)
    after_large = kernel_results(small, 4)  # a smaller grid after a larger one
    for name, out in first.items():
        assert np.array_equal(out, kept[name]), name
        assert np.array_equal(again[name], kept[name]), name
    fresh = in_fresh_thread(kernel_results, small, 4)
    for name, out in after_large.items():
        assert np.array_equal(out, fresh[name]), name


def stepped(config, n_steps):
    grid = build_grid(config)
    state = initialize_state(config, grid)
    for _ in range(n_steps):
        state = step(state, config, grid)
    return build(state, config, grid)


def test_threads_stepping_different_grids_match_sequential_runs():
    configs = [validate_config(landau_config(nx=nx, n_p=n_p, amplitude=1e-2))
               for nx, n_p in ((64, 128), (32, 48))] * 2
    expected = [stepped(config, 4) for config in configs]

    results = [None] * len(configs)
    start = threading.Barrier(len(configs))

    def work(i):
        start.wait(timeout=60)
        results[i] = stepped(configs[i], 4)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(len(configs))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for got, want in zip(results, expected):
        assert got is not None
        assert np.array_equal(got.plus.f, want.plus.f)
        assert np.array_equal(got.minus.f, want.minus.f)
        assert np.array_equal(got.fields.phi_curr, want.fields.phi_curr)
        assert np.array_equal(got.fields.a_curr, want.fields.a_curr)


def step_and_record_peak(config, warm_up):
    """Peak traced allocation of one step and its record, in f.nbytes, after
    ``warm_up`` steps have filled the work arrays and the cached operators."""
    grid = build_grid(config)
    state = initialize_state(config, grid)
    history = deque([state], maxlen=3)
    for _ in range(warm_up):
        state = build(step(state, config, grid), config, grid)
        history.append(state)
        make_record(state, history, config, grid)

    tracemalloc.start()
    try:
        state = build(step(state, config, grid), config, grid)
        history.append(state)
        make_record(state, history, config, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / state.plus.f.nbytes


def test_step_and_record_allocation_budget():
    # One step and its record allocate the new state's f pair, the kernels'
    # results and the forces, but no intermediates.
    config = validate_config(landau_config(nx=64, n_p=128, amplitude=1e-2))
    assert step_and_record_peak(config, 3) <= 7


def test_row_blocked_step_and_record_allocation_budget():
    # At np = 2048 the kick and the residual take four blocks of 16 rows.  By
    # step 25 the nonrelativistic amplitude-0.9 fields kick by two cells, so
    # the kick gathers its node terms: grid-sized, they would take 14 f.nbytes.
    config = validate_config(replace(
        Config(nx=64, x_max=16.0 * np.pi, np=2048, relativistic=False),
        init=InitConfig(amplitude=0.9)))
    assert len(row_blocks((config.nx, config.np))) == 4
    assert step_and_record_peak(config, 24) <= 8


def test_step_between_rows_allocation_budget():
    # Between two rows no state is read, so a step builds no integer-time f:
    # it allocates the f* pair, the kicked f and the two closing spectra.
    # Sub-cell kicks at np = 2048: 3.54 f.nbytes, and 5.07 when every step
    # also built its f from the closing spectra.
    config = validate_config(replace(
        Config(nx=64, x_max=16.0 * np.pi, np=2048, relativistic=False),
        init=InitConfig(amplitude=0.01)))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    for _ in range(3):
        state = step(state, config, grid)
    tracemalloc.start()
    try:
        state = step(state, config, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.plus is None     # f was not built
    assert peak / (grid.nx * grid.np * 8) <= 4.75


def test_results_never_share_memory_with_work_arrays():
    results = kernel_results(small_grid(32, 48), 5)
    buffers = workspace._local.buffers
    for name, out in results.items():
        assert not any(np.shares_memory(out, buffer) for buffer in buffers), name
