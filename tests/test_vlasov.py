import math
from dataclasses import replace

import numpy as np
import pytest

from kinvlasov.config import Config, InitConfig, validate_config
from kinvlasov.grid import build_grid
from kinvlasov.state import initialize_state, momentum_gaussian
from kinvlasov.vlasov import (
    KickDisplacementError,
    advect_x,
    kick_p,
    step,
    time_step,
)

from conftest import landau_config


@pytest.fixture
def grid():
    return build_grid(Config(nx=64, x_max=8.0, np=32, p_max=4.0))


def gaussian_f(grid, x_width=1.0, seed=None):
    bump = np.exp(-((grid.x_nodes - 0.5 * grid.x_max) ** 2) / (2 * x_width**2))
    prof = np.exp(-(grid.p_nodes**2))
    return bump[:, None] * prof[None, :]


def test_advect_zero_dt_is_identity(grid):
    f = gaussian_f(grid)
    out = advect_x(f, grid, 0.0, 1.0, 2.0, True)
    assert np.array_equal(out, f)


def test_advect_exact_cell_shift(grid):
    f = gaussian_f(grid)
    j = 28  # nonrelativistic: v = p_j / m
    v = grid.p_nodes[j]
    dt = grid.dx / v
    out = advect_x(f, grid, dt, 1.0, 2.0, False)
    assert np.max(np.abs(out[:, j] - np.roll(f[:, j], 1))) <= 1e-12 * np.max(f)


def test_advect_reversibility():
    # Forward 50 steps then backward 50 returns the bump to 1e-6 of its peak.
    config = Config(nx=256, x_max=8.0, np=16, p_max=2.0, relativistic=False)
    grid = build_grid(config)
    width = config.x_max / 12.0
    f0 = gaussian_f(grid, x_width=width)
    dt = 0.4 * grid.dx / np.max(np.abs(grid.p_nodes))
    f = f0.copy()
    for _ in range(50):
        f = advect_x(f, grid, dt, 1.0, config.c, False)
    for _ in range(50):
        f = advect_x(f, grid, -dt, 1.0, config.c, False)
    assert np.max(np.abs(f - f0)) <= 1e-6 * np.max(f0)


def test_kick_zero_force_is_identity(grid):
    f = gaussian_f(grid)
    out = kick_p(f, np.zeros_like(f), grid, 0.1)
    assert np.array_equal(out, f)


def test_kick_uniform_cell_shift(grid):
    f = np.ones((grid.nx, 1)) * momentum_gaussian(grid.p_nodes, 1.0, 0.25, 0.0,
                                                  grid.dp)[None, :]
    dt = 0.05
    force = np.full_like(f, grid.dp / dt)
    out = kick_p(f, force, grid, dt)
    shifted = np.roll(f, 1, axis=1)
    interior = slice(1, grid.np - 1)
    assert np.max(np.abs(out[:, interior] - shifted[:, interior])) <= 1e-12 * np.max(f)
    # mass leaves only through the (validated, negligible) tail
    assert np.sum(out) == pytest.approx(np.sum(f), rel=1e-8)


def test_kick_displacement_bound(grid):
    f = gaussian_f(grid)
    force = np.full_like(f, grid.np * grid.dp)  # far beyond the quarter-grid bound
    with pytest.raises(KickDisplacementError):
        kick_p(f, force, grid, 1.0)


def test_kick_refine_close_to_plain_for_uniform_force(grid):
    f = gaussian_f(grid)
    force = np.full_like(f, 0.3)
    plain = kick_p(f, force, grid, 0.05, refine=0)
    refined = kick_p(f, force, grid, 0.05, refine=1)
    assert np.allclose(plain, refined, atol=1e-12 * np.max(f))


def test_step_zero_charge_reduces_to_free_streaming():
    config = validate_config(replace(
        landau_config(nx=32, n_p=32),
        species=tuple(replace(s, q=0.0) for s in landau_config().species),
        init=InitConfig(preset="landau", n0=1.0, amplitude=0.1, k_mode=1,
                        temperature=1.0, drift=0.0),
    ))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    dt = time_step(config, grid)
    new = step(state, config, grid)
    assert np.all(new.fields.phi_curr == 0.0)
    assert np.all(new.fields.a_curr == 0.0)
    streamed = advect_x(
        advect_x(state.minus.f, grid, 0.5 * dt, config.minus.m, config.c, True),
        grid, 0.5 * dt, config.minus.m, config.c, True)
    assert np.allclose(new.minus.f, streamed, atol=1e-14 * np.max(streamed))


def test_step_uniform_plasma_is_fixed_point():
    config = validate_config(landau_config(amplitude=0.0, nx=32, n_p=64))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    new = step(state, config, grid)
    scale = np.max(state.minus.f)
    assert np.max(np.abs(new.minus.f - state.minus.f)) <= 1e-12 * scale
    assert np.max(np.abs(new.plus.f - state.plus.f)) <= 1e-12 * np.max(state.plus.f)
    assert np.all(new.fields.phi_curr == 0.0)
    assert np.all(new.fields.a_curr == 0.0)


def test_step_with_kick_refinement():
    base = validate_config(landau_config(nx=32, n_p=64, amplitude=1e-2))
    refined = validate_config(replace(base, kick_refine=1))
    grid = build_grid(base)
    s_plain = step(initialize_state(base, grid), base, grid)
    s_refined = step(initialize_state(refined, grid), refined, grid)
    scale = np.max(s_plain.minus.f)
    # refinement is a higher-order correction, not a different trajectory
    assert np.allclose(s_refined.minus.f, s_plain.minus.f, atol=1e-6 * scale)
    assert not np.array_equal(s_refined.minus.f, s_plain.minus.f)


def test_step_deterministic():
    config = validate_config(landau_config(nx=32, n_p=32, amplitude=1e-2))
    grid = build_grid(config)
    a = step(initialize_state(config, grid), config, grid)
    b = step(initialize_state(config, grid), config, grid)
    assert np.array_equal(a.minus.f, b.minus.f)
    assert np.array_equal(a.fields.phi_curr, b.fields.phi_curr)


def test_step_does_not_mutate_input():
    config = validate_config(landau_config(nx=32, n_p=32, amplitude=1e-2))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    f_before = state.minus.f.copy()
    phi_before = state.fields.phi_curr.copy()
    step(state, config, grid)
    assert np.array_equal(state.minus.f, f_before)
    assert np.array_equal(state.fields.phi_curr, phi_before)


def test_positivity_undershoot_bounded():
    config = validate_config(landau_config(nx=32, n_p=64, amplitude=1e-2))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    for _ in range(20):
        state = step(state, config, grid)
        assert state.minus.f.min() >= -1e-3 * state.minus.f.max()


def test_time_step_respects_both_speeds():
    config = validate_config(landau_config())
    grid = build_grid(config)
    dt = time_step(config, grid)
    assert config.c * dt / grid.dx <= config.cfl_fraction * (1 + 1e-12)
    slow = validate_config(replace(landau_config(relativistic=False), c=0.5))
    dt_kinetic = time_step(slow, build_grid(slow))
    v_char = slow.p_max / slow.minus.m
    assert v_char * dt_kinetic / grid.dx <= slow.cfl_fraction * (1 + 1e-12)
