import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from kinvlasov import vlasov
from kinvlasov.config import Config, InitConfig, SpeciesConfig, validate_config
from kinvlasov.forces import force_coefficients, force_field, velocity_from_momentum
from kinvlasov.grid import build_grid
from kinvlasov.interpolate import (
    eval_natural_spline,
    natural_spline_moments,
    periodic_shift_transfer,
)
from kinvlasov.runner import run_simulation
from kinvlasov.state import FieldState, initialize_state, momentum_gaussian
from kinvlasov.vlasov import (
    KickDisplacementError,
    advect_x,
    kick_p,
    step,
)
from kinvlasov.workspace import row_blocks

from conftest import landau_config, pair_species


@pytest.fixture
def grid():
    return build_grid(Config(nx=64, x_max=8.0, np=32, p_max=4.0))


def gaussian_f(grid, x_width=1.0, seed=None):
    bump = np.exp(-((grid.x_nodes - 0.5 * grid.x_max) ** 2) / (2 * x_width**2))
    prof = np.exp(-(grid.p_nodes**2))
    return bump[:, None] * prof[None, :]


def streamed(f, grid, dt, m, c, relativistic):
    """advect_x of f by dt, for a species of mass m."""
    v = velocity_from_momentum(grid.p_nodes, m, c, relativistic)
    return advect_x(f, periodic_shift_transfer(grid.nx, v * dt / grid.dx))


def test_advect_zero_dt_is_identity(grid):
    f = gaussian_f(grid)
    out = streamed(f, grid, 0.0, 1.0, 2.0, True)
    assert np.max(np.abs(out - f)) <= 1e-15 * np.max(f)


def test_advect_exact_cell_shift(grid):
    f = gaussian_f(grid)
    j = 28  # nonrelativistic: v = p_j / m
    v = grid.p_nodes[j]
    dt = grid.dx / v
    out = streamed(f, grid, dt, 1.0, 2.0, False)
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
        f = streamed(f, grid, dt, 1.0, config.c, False)
    for _ in range(50):
        f = streamed(f, grid, -dt, 1.0, config.c, False)
    assert np.max(np.abs(f - f0)) <= 1e-6 * np.max(f0)


@settings(deadline=None)
@given(nx=st.integers(8, 97), n_p=st.integers(8, 48), c=st.floats(0.5, 20.0),
       m=st.floats(0.1, 10.0), dt=st.floats(-5.0, 5.0), relativistic=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_advect_conserves_every_column_sum(nx, n_p, c, m, dt, relativistic, seed):
    grid = build_grid(Config(nx=nx, x_max=6.0, np=n_p, p_max=4.0))
    f = np.random.default_rng(seed).random((nx, n_p))
    out = streamed(f, grid, dt, m, c, relativistic)
    assert np.all(np.abs(out.sum(axis=0) - f.sum(axis=0)) <= 1e-13 * f.sum(axis=0))


def row_constant(grid, a):
    """Coefficient rows of a p-independent force a (b = 0)."""
    return np.array([np.broadcast_to(a, grid.nx), np.zeros(grid.nx)], dtype=float)


def test_kick_zero_force_is_identity(grid):
    f = gaussian_f(grid)
    out = kick_p(f, np.zeros((2, grid.nx)), grid.p_nodes, grid, 0.1)
    assert np.array_equal(out, f)


def test_kick_uniform_cell_shift(grid):
    f = np.ones((grid.nx, 1)) * momentum_gaussian(grid.p_nodes, 1.0, 0.25, 0.0,
                                                  grid.dp)[None, :]
    dt = 0.05
    out = kick_p(f, row_constant(grid, grid.dp / dt), grid.p_nodes, grid, dt)
    shifted = np.roll(f, 1, axis=1)
    interior = slice(1, grid.np - 1)
    assert np.max(np.abs(out[:, interior] - shifted[:, interior])) <= 1e-12 * np.max(f)
    # mass leaves only through the (validated, negligible) tail
    assert np.sum(out) == pytest.approx(np.sum(f), rel=1e-8)


def test_kick_displacement_bound(grid):
    f = gaussian_f(grid)
    # far beyond the quarter-grid bound
    with pytest.raises(KickDisplacementError):
        kick_p(f, row_constant(grid, grid.np * grid.dp), grid.p_nodes, grid, 1.0)


@pytest.mark.parametrize("end", ["p_min", "p_max"])
def test_kick_bound_fires_at_either_momentum_end(grid, end):
    # F = a + b v is largest at one end of each row only: 0.55 + 0.5 = 1.05
    # bounds there and 0.55 - 0.5 = 0.05 at the other, so a bound that looked
    # at one end alone would miss half of these cases.
    f = gaussian_f(grid)
    v = velocity_from_momentum(grid.p_nodes, 1.0, 2.0, True)
    limit = 0.25 * grid.np * grid.dp
    sign = 1.0 if end == "p_max" else -1.0
    coefficients = np.zeros((2, grid.nx))
    coefficients[:, 7] = 0.55 * limit, sign * 0.5 * limit / v[-1]
    with pytest.raises(KickDisplacementError, match="exceeds sanity bound"):
        kick_p(f, coefficients, v, grid, 1.0)
    coefficients[:, 7] *= 0.95 / 1.05   # just inside the bound at that end
    kick_p(f, coefficients, v, grid, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kick_rejects_non_finite_force(grid, bad):
    # NaN fails every comparison: a `worst >= limit` bound lets it through, and
    # the spline's range mask then zeroes its cells of f
    f = gaussian_f(grid)
    for row in (0, 1):      # a non-finite a and a non-finite b
        coefficients = np.full((2, grid.nx), 0.1)
        coefficients[row, 3] = bad
        with pytest.raises(KickDisplacementError, match="non-finite"):
            kick_p(f, coefficients, grid.p_nodes, grid, 0.05)


def banded_take_along_axis_kick(f, force, grid, dt):
    """Reference: the kick as a per-call banded solve and four take_along_axis
    gathers, driven by the force on every phase-space node."""
    queries = grid.p_nodes[None, :] - force * dt

    n, h = grid.np, grid.dp
    rhs = 6.0 * (f[:, 2:] - 2.0 * f[:, 1:-1] + f[:, :-2]) / (h * h)
    ab = np.ones((3, n - 2))
    ab[1] = 4.0
    ab[0, 0] = 0.0
    ab[2, -1] = 0.0
    moments = np.zeros_like(f)
    moments[:, 1:-1] = solve_banded((1, 1), ab, rhs.T).T

    nodes = grid.p_nodes
    h = nodes[1] - nodes[0]
    k = np.clip(np.floor((queries - nodes[0]) / h).astype(int), 0, n - 2)
    t = (queries - (nodes[0] + k * h)) / h
    lo = np.take_along_axis(f, k, axis=1)
    hi = np.take_along_axis(f, k + 1, axis=1)
    mlo = np.take_along_axis(moments, k, axis=1)
    mhi = np.take_along_axis(moments, k + 1, axis=1)
    one_m = 1.0 - t
    values = (lo * one_m + hi * t
              + (h * h / 6.0) * ((one_m**3 - one_m) * mlo + (t**3 - t) * mhi))
    inside = (queries >= nodes[0]) & (queries <= nodes[-1])
    return np.where(inside, values, 0.0)


def end_displacements(coefficients, v, dt):
    """F dt at both ends of each row, in kick_p's arithmetic: v is monotone in
    p, so kick_p bounds every |F dt| by the largest of these."""
    a, b = coefficients * dt
    return a[:, None] + b[:, None] * v[[0, -1]]


def at_one_cell(coefficients, force, v, grid, dt):
    """Nudge the a of the row whose end attains the bound, and that row of
    the force, until the largest |F dt| is dp exactly."""
    ends = end_displacements(coefficients, v, dt)
    row, end = np.unravel_index(np.argmax(np.abs(ends)), ends.shape)
    outward = np.sign(ends[row, end]) * np.inf
    for _ in range(64):
        worst = np.max(np.abs(end_displacements(coefficients, v, dt)))
        if worst == grid.dp:
            break
        a = coefficients[0, row]
        coefficients[0, row] = np.nextafter(a, outward if worst < grid.dp else -outward)
        force[row] += coefficients[0, row] - a
    assert np.max(np.abs(end_displacements(coefficients, v, dt))) == grid.dp


@pytest.mark.parametrize("mode", ["modified", "standard"])
def test_kick_matches_banded_take_along_axis_reference(mode):
    config = validate_config(landau_config(nx=32, n_p=64, amplitude=0.1))
    grid = build_grid(config)
    f = initialize_state(config, grid).minus.f
    x = 2.0 * np.pi * grid.x_nodes / grid.x_max
    # potentials strong enough to move f by several cells
    fields = FieldState(phi_prev=75.0 * np.sin(x), phi_curr=78.0 * np.sin(x + 0.1),
                        a_prev=50.0 * np.cos(x), a_curr=60.0 * np.cos(x - 0.2))
    dt = 0.1
    q, m = config.minus.q, config.minus.m
    force = force_field(fields, grid, dt, q, m, config.c, config.relativistic, mode)
    coefficients = force_coefficients(fields, grid, dt, q, config.c, mode)
    v = velocity_from_momentum(grid.p_nodes, m, config.c, config.relativistic)
    multi_cell = np.max(np.abs(end_displacements(coefficients, v, dt))) / grid.dp
    assert 2.0 < multi_cell < 0.25 * grid.np
    # F is linear in the potentials, so scaling its rows and the reference's
    # force scales the potentials.  Each input's largest |F dt| in cells: the
    # first three are within one cell, the third at one cell exactly, where a
    # row end's foot lands on the neighbouring node.
    for cells in (0.05, 0.5, 1.0, multi_cell):
        scaled, scaled_force = (cells / multi_cell) * coefficients, (cells / multi_cell) * force
        if cells == 1.0:
            at_one_cell(scaled, scaled_force, v, grid, dt)
        expected = banded_take_along_axis_kick(f, scaled_force, grid, dt)
        out = kick_p(f, scaled, v, grid, dt)
        assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(expected)), cells


@pytest.mark.parametrize("mode", ["modified", "standard"])
def test_run_takes_the_gather_path_and_matches_the_reference(mode, monkeypatch):
    # Nonrelativistic at np = 512, dt is bound by the fastest node, and the
    # amplitude-0.9 fields kick by more than one cell on many steps.
    config = replace(Config(nx=16, np=512, relativistic=False, force_mode=mode, t_end=3.0),
                     init=InitConfig(amplitude=0.9))
    multi_cell = []

    def checked_kick(f, coefficients, v, grid, dt):
        out = kick_p(f, coefficients, v, grid, dt)
        if np.max(np.abs(end_displacements(coefficients, v, dt))) > grid.dp:
            force = coefficients[0][:, None] + coefficients[1][:, None] * v
            expected = banded_take_along_axis_kick(f, force, grid, dt)
            multi_cell.append(np.max(np.abs(out - expected)) / np.max(np.abs(f)))
        return out

    monkeypatch.setattr(vlasov, "kick_p", checked_kick)
    result = run_simulation(config)
    assert not result.aborted
    assert multi_cell and max(multi_cell) <= 1e-14


@settings(deadline=None, max_examples=150)
@given(nx=st.integers(8, 40), n_p=st.integers(8, 96), dp_exponent=st.integers(-4, 1),
       dt=st.sampled_from([1.0, 0.5, 0.125]), sub_cell=st.booleans(), nan_row=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_kick_matches_banded_reference_up_to_a_quarter_grid(nx, n_p, dp_exponent, dt,
                                                            sub_cell, nan_row, seed):
    # Node spacing, v and the end displacements are dyadic, so every foot
    # point p - dt (a + b v) is exact: the kick and the reference see the same
    # cubic at the same point, and what is compared is their own roundoff.
    rng = np.random.default_rng(seed)
    dp = 2.0**dp_exponent
    grid = build_grid(Config(nx=nx, x_max=8.0, np=n_p, p_max=0.5 * n_p * dp))
    assert grid.p_nodes[1] - grid.p_nodes[0] == dp
    v = np.round(np.linspace(-1.0, 1.0, n_p) * 2**12) / 2**12
    # F dt at p_min and at p_max of each row, in cells, |.| <= 1 or up to
    # np/4 - 1: the first rows take every sign pair, then both unit feet
    # (outward and inward).
    reach = 2**8 if sub_cell else 2**6 * n_p - 2**8
    ends = rng.integers(-reach, reach + 1, (nx, 2)) / 2**8
    ends[:4] = np.abs(ends[:4]) * [[1, 1], [1, -1], [-1, 1], [-1, -1]]
    ends[4:6] = [[1.0, -1.0], [-1.0, 1.0]]
    coefficients = (dp / dt) * np.array([ends.mean(axis=1), 0.5 * (ends[:, 1] - ends[:, 0])])
    f = rng.random((nx, n_p))
    if nan_row:
        f[3, rng.integers(n_p)] = np.nan

    out = kick_p(f, coefficients, v, grid, dt)
    force = coefficients[0][:, None] + coefficients[1][:, None] * v
    expected = banded_take_along_axis_kick(np.nan_to_num(f), force, grid, dt)
    finite = np.arange(nx) != 3 if nan_row else slice(None)
    assert not nan_row or np.isnan(out[3]).any()
    assert not np.isnan(out[finite]).any()
    assert np.max(np.abs(out[finite] - expected[finite])) <= 1e-14 * np.nanmax(f)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_whole_cell_kick_moves_every_row_exactly(sign):
    # p_max and np make dp non-dyadic, so the nodes p_j = p_min + (j + 1/2) dp
    # are not exactly dp apart.  A kick by exactly k cells still lands every
    # foot on a node: each row moves k columns, with zero fill, bit for bit.
    grid = build_grid(Config(nx=6, x_max=8.0, np=62, p_max=8.2916))
    f = np.random.default_rng(62).random((grid.nx, grid.np))
    for k in range(2, 16):
        coefficients = row_constant(grid, sign * k)
        out = kick_p(f, coefficients, grid.p_nodes, grid, grid.dp)
        expected = np.zeros_like(f)
        if sign > 0:
            expected[:, k:] = f[:, :-k]
        else:
            expected[:, :-k] = f[:, k:]
        assert np.array_equal(out, expected), k


def test_blocked_kick_is_bitwise_the_one_block_kick():
    # At np = 1024 the kick takes blocks of 32 rows: 80 rows are two whole
    # blocks and a partial one.  The middle block's rows kick by up to three
    # cells, so it gathers its node terms; the outer blocks stay within a cell.
    grid = build_grid(Config(nx=80, x_max=8.0, np=1024, p_max=4.0))
    blocks = row_blocks((grid.nx, grid.np))
    assert [rows.stop - rows.start for rows in blocks] == [32, 32, 16]
    rng = np.random.default_rng(1024)
    f = rng.random((grid.nx, grid.np))
    v = grid.v[0]
    reach = np.where((np.arange(grid.nx) // 32) == 1, 3.0, 0.5)
    coefficients = reach * np.array([rng.uniform(-0.8, 0.8, grid.nx),
                                     rng.uniform(-0.2, 0.2, grid.nx) / np.max(np.abs(v))])
    cells = np.einsum("ki,kj->ij", coefficients, np.vstack((np.ones_like(v), v)))
    assert [np.max(np.abs(cells[rows])) > 1.0 for rows in blocks] == [False, True, False]

    out = kick_p(f, coefficients, v, grid, grid.dp)   # dt = dp: s = a + b v
    moments = natural_spline_moments(f, grid.dp, grid.spline_solve)
    expected = eval_natural_spline(f, moments, cells, grid.dp)
    assert np.array_equal(out.view(np.int64), expected.view(np.int64))
    # Given ``out``, the evaluator writes the same bits there, gathering or not.
    for rows in blocks:
        block = np.full((rows.stop - rows.start, grid.np), np.nan)
        block_moments = natural_spline_moments(f[rows], grid.dp, grid.spline_solve)
        assert eval_natural_spline(f[rows], block_moments, cells[rows], grid.dp,
                                   out=block) is block
        assert np.array_equal(block.view(np.int64), expected[rows].view(np.int64))


def test_step_zero_charge_reduces_to_free_streaming():
    config = validate_config(replace(
        landau_config(nx=32, n_p=32),
        species=tuple(replace(s, q=0.0) for s in landau_config().species),
        init=InitConfig(preset="landau", n0=1.0, amplitude=0.1, k_mode=1,
                        temperature=1.0, drift=0.0),
    ))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    dt = grid.dt
    new = step(state, config, grid)
    assert np.all(new.fields.phi_curr == 0.0)
    assert np.all(new.fields.a_curr == 0.0)
    expected = streamed(
        streamed(state.minus.f, grid, 0.5 * dt, config.minus.m, config.c, True),
        grid, 0.5 * dt, config.minus.m, config.c, True)
    assert np.allclose(new.minus.f, expected, atol=1e-14 * np.max(expected))


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


@settings(deadline=None, max_examples=60)
@given(nx=st.integers(8, 64), n_p=st.integers(16, 96), c=st.floats(1.0, 20.0),
       m=st.floats(0.2, 1.0), relativistic=st.booleans())
def test_uniform_neutral_pair_plasma_is_fixed_point(nx, n_p, c, m, relativistic):
    config = validate_config(replace(
        landau_config(amplitude=0.0, nx=nx, n_p=n_p, c=c, relativistic=relativistic),
        species=pair_species(m=m)))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    initial = state
    for _ in range(3):
        state = step(state, config, grid)
        for new, old in ((state.plus.f, initial.plus.f), (state.minus.f, initial.minus.f)):
            assert np.max(np.abs(new - old)) <= 1e-12 * np.max(old)
        assert np.all(state.fields.phi_curr == 0.0)
        assert np.all(state.fields.a_curr == 0.0)


@pytest.mark.parametrize("change", [{"x_max": 30.0}, {"c": 6.0}, {"cfl_fraction": 0.5},
                                    {"np": 48}])
def test_alternating_configs_step_as_if_alone(change):
    # A fresh grid per step frees the last one, so its address (its id) comes
    # back for the other config's grid.
    base = validate_config(landau_config(nx=32, n_p=32, amplitude=1e-2))
    configs = (base, validate_config(replace(base, **change)))
    alone = []
    for config in configs:
        grid = build_grid(config)
        state = initialize_state(config, grid)
        for _ in range(3):
            state = step(state, config, grid)
        alone.append(state)
    mixed = [initialize_state(config, build_grid(config)) for config in configs]
    for _ in range(3):
        for i, config in enumerate(configs):
            mixed[i] = step(mixed[i], config, build_grid(config))
    for a, b in zip(alone, mixed):
        assert a.time == b.time
        assert np.array_equal(a.plus.f, b.plus.f)
        assert np.array_equal(a.minus.f, b.minus.f)
        assert np.array_equal(a.fields.a_curr, b.fields.a_curr)


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
    dt = grid.dt
    assert config.c * dt / grid.dx <= config.cfl_fraction * (1 + 1e-12)
    slow = validate_config(replace(landau_config(relativistic=False), c=0.5))
    dt_kinetic = build_grid(slow).dt
    v_char = slow.p_max / slow.minus.m
    assert v_char * dt_kinetic / grid.dx <= slow.cfl_fraction * (1 + 1e-12)


@settings(deadline=None, max_examples=200)
@given(m_plus=st.floats(1e-3, 1e3), m_minus=st.floats(1e-3, 1e3), c=st.floats(1e-2, 1e3),
       relativistic=st.booleans(), cfl_fraction=st.floats(0.0, 1.0, exclude_min=True),
       nx=st.integers(4, 512), n_p=st.integers(4, 512), x_max=st.floats(1e-2, 1e3),
       p_max=st.floats(1e-2, 1e3))
def test_derived_time_step_satisfies_both_cfl_bounds(m_plus, m_minus, c, relativistic,
                                                     cfl_fraction, nx, n_p, x_max, p_max):
    # build_grid derives dt from the bounds themselves, so no run can violate them.
    config = Config(nx=nx, x_max=x_max, np=n_p, p_max=p_max, c=c,
                    relativistic=relativistic, cfl_fraction=cfl_fraction,
                    species=(SpeciesConfig("plus", 0.2, m_plus),
                             SpeciesConfig("minus", -0.2, m_minus)))
    grid = build_grid(config)
    dt = grid.dt
    # dt is derived from the ratio itself, so allow for that roundoff only.
    assert c * dt / grid.dx <= 1.0 + 1e-9
    assert grid.v_max * dt / grid.dx <= 1.0 + 1e-9
