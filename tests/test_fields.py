import math

import numpy as np
import pytest

from kinvlasov import state as state_module
from kinvlasov.config import Config, SolverAbort
from kinvlasov.fields import (
    FieldState,
    d1_periodic,
    d2_periodic,
    field_energy_proxy,
    gauge_residual,
    poisson_init,
    wave_step,
)
from kinvlasov.grid import build_grid
from kinvlasov.verify import MIN_CONVERGENCE_ORDER


@pytest.fixture
def grid():
    return build_grid(Config(nx=64, x_max=2.0 * math.pi, np=8, p_max=8.0))


def test_wave_zero_stays_zero(grid):
    u_prev, u_curr = np.zeros(grid.nx), np.zeros(grid.nx)
    source = np.zeros(grid.nx)
    for _ in range(10):
        new = wave_step(u_prev, u_curr, source, grid, 0.01, 1.0)
        assert np.all(new == 0.0)
        u_prev, u_curr = u_curr, new


def test_wave_nonfinite_aborts(grid):
    source = np.full(grid.nx, np.inf)
    with pytest.raises(SolverAbort, match="wave update produced non-finite values"):
        wave_step(np.zeros(grid.nx), np.zeros(grid.nx), source, grid, 0.01, 1.0)


def test_wave_static_source_fixed_point(grid):
    # Discrete-matched static solution is an exact fixed point of the update.
    k = 2.0
    rho0 = 0.3
    source = 4.0 * np.pi * rho0 * np.cos(k * grid.x_nodes)
    k_d_sq = (2.0 - 2.0 * np.cos(k * grid.dx)) / grid.dx**2
    phi = source / k_d_sq
    dt = 0.5 * grid.dx
    u_prev, u_curr = phi.copy(), phi.copy()
    for _ in range(50):
        u_prev, u_curr = u_curr, wave_step(u_prev, u_curr, source, grid, dt, 1.0)
    assert np.max(np.abs(u_curr - phi)) <= 1e-12 * np.max(np.abs(phi))

    # The analytically matched solution drifts by at most O(dx^2) per step.
    phi_analytic = source / k**2
    new = wave_step(phi_analytic.copy(), phi_analytic.copy(), source, grid, dt, 1.0)
    per_step = np.max(np.abs(new - phi_analytic))
    bound = (1.0 * dt) ** 2 * 4.0 * np.pi * rho0 * (k * grid.dx) ** 2 / 6.0
    assert per_step <= bound


def test_wave_linearity(grid):
    rng = np.random.default_rng(0)
    dt, c = 0.4 * grid.dx, 1.0
    la = rng.normal(size=grid.nx), rng.normal(size=grid.nx)
    lb = rng.normal(size=grid.nx), rng.normal(size=grid.nx)
    sa, sb = rng.normal(size=grid.nx), rng.normal(size=grid.nx)
    combined = wave_step(la[0] + lb[0], la[1] + lb[1], sa + sb, grid, dt, c)
    separate = wave_step(*la, sa, grid, dt, c) + wave_step(*lb, sb, grid, dt, c)
    assert np.allclose(combined, separate, atol=1e-12 * np.max(np.abs(combined)))


def test_wave_energy_bounded_without_source(grid):
    c = 1.0
    dt = 0.8 * grid.dx / c
    u0 = np.cos(grid.x_nodes)
    u_prev = u0
    u_curr = u0 + 0.5 * (c * dt) ** 2 * d2_periodic(u0, grid.dx)
    zeros = np.zeros(grid.nx)
    source = np.zeros(grid.nx)
    proxies = []
    for _ in range(1000):
        u_next = wave_step(u_prev, u_curr, source, grid, dt, c)
        u_prev, u_curr = u_curr, u_next
        proxies.append(field_energy_proxy(FieldState(u_prev, u_curr, zeros, zeros),
                                          grid, dt, c))
    proxies = np.array(proxies)
    spread = (proxies.max() - proxies.min()) / proxies.mean()
    assert spread <= 0.01  # oscillates within +-1%, no secular growth


def test_poisson_zero_input(grid):
    assert np.all(poisson_init(np.zeros(grid.nx), grid) == 0.0)


def test_poisson_resolved_mode_exact(grid):
    k = 3.0
    rho = np.cos(k * grid.x_nodes)
    phi = poisson_init(rho, grid)
    k_d_sq = (2.0 - 2.0 * np.cos(k * grid.dx)) / grid.dx**2
    expected = 4.0 * np.pi * rho / k_d_sq
    assert np.max(np.abs(phi - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert abs(phi.mean()) <= 1e-12


def test_poisson_drops_the_mean(grid):
    # The k = 0 mode is dropped, so a charge offset leaves phi unchanged and a
    # uniform density gives phi = 0; neutrality is judged by initialize_state.
    rho = np.cos(3.0 * grid.x_nodes)
    phi = poisson_init(rho, grid)
    offset = poisson_init(rho + 0.7, grid)
    assert np.max(np.abs(offset - phi)) <= 1e-12 * np.max(np.abs(phi))
    assert np.max(np.abs(poisson_init(np.ones(grid.nx), grid))) <= 1e-15


def test_field_state_mid_is_each_potentials_level_mean(grid):
    rng = np.random.default_rng(5)
    fields = FieldState(*rng.normal(size=(4, grid.nx)))
    phi, a = fields.mid()
    assert np.array_equal(phi.view(np.int64),
                          (0.5 * (fields.phi_prev + fields.phi_curr)).view(np.int64))
    assert np.array_equal(a.view(np.int64), (0.5 * (fields.a_prev + fields.a_curr)).view(np.int64))


def test_field_state_is_defined_in_fields_only():
    # state reads the levels through this class; it defines none of its own.
    assert FieldState.__module__ == "kinvlasov.fields"
    assert getattr(state_module, "FieldState", FieldState) is FieldState


def pointwise_gauge_residual(fields, grid, dt, c):
    """Reference: phi_t / c + A_x on every cell, with a centered difference of
    the level-averaged A."""
    a_mid = 0.5 * (fields.a_prev + fields.a_curr)
    a_x = (np.roll(a_mid, -1) - np.roll(a_mid, 1)) / (2.0 * grid.dx)
    return (fields.phi_curr - fields.phi_prev) / (c * dt) + a_x


def test_gauge_residual_static_phi_zero_a(grid):
    phi = np.sin(grid.x_nodes)
    zero = np.zeros(grid.nx)
    fields = FieldState(phi, phi.copy(), zero, zero.copy())
    assert np.all(pointwise_gauge_residual(fields, grid, 0.1, 2.0) == 0.0)
    assert gauge_residual(fields, grid, 0.1, 2.0) == 0.0


def test_gauge_residual_uniform_a(grid):
    phi = np.cos(grid.x_nodes)
    a = np.full(grid.nx, 0.7)
    fields = FieldState(phi, phi.copy(), a, a.copy())
    assert np.all(pointwise_gauge_residual(fields, grid, 0.1, 2.0) == 0.0)
    assert gauge_residual(fields, grid, 0.1, 2.0) == 0.0


def test_gauge_residual_is_the_norm_of_the_pointwise_residual(grid):
    rng = np.random.default_rng(11)
    fields = FieldState(*rng.normal(size=(4, grid.nx)))
    r = pointwise_gauge_residual(fields, grid, 0.1, 2.0)
    expected = math.sqrt(np.sum(r * r) * grid.dx)
    assert expected > 0.0
    assert gauge_residual(fields, grid, 0.1, 2.0) == pytest.approx(expected, rel=1e-14)


def test_gauge_residual_manufactured_convergence():
    # phi = c t sin(kx), A = cos(kx)/k makes the residual vanish analytically.
    def residual(nx):
        g = build_grid(Config(nx=nx, x_max=2.0 * math.pi, np=8, p_max=8.0))
        c, k, dt = 2.0, 1.0, 0.01
        a = np.cos(k * g.x_nodes) / k
        fields = FieldState(np.zeros(g.nx), c * dt * np.sin(k * g.x_nodes), a, a.copy())
        return gauge_residual(fields, g, dt, c)

    order = math.log2(residual(32) / residual(64))
    assert order >= MIN_CONVERGENCE_ORDER


def test_difference_operators_periodic(grid):
    u = np.sin(2.0 * grid.x_nodes)
    du = d1_periodic(u, grid.dx)
    expected = 2.0 * np.cos(2.0 * grid.x_nodes) * math.sin(2.0 * grid.dx) / (2.0 * grid.dx)
    assert np.allclose(du, expected, atol=1e-12)
    d2u = d2_periodic(u, grid.dx)
    assert np.allclose(d2u, -u * (2.0 - 2.0 * math.cos(2.0 * grid.dx)) / grid.dx**2,
                       atol=1e-11)


@pytest.mark.parametrize("nx", [1, 2, 7, 64, 255])
def test_differences_equal_their_roll_forms_bitwise(nx):
    u = np.random.default_rng(nx).normal(size=nx)
    for mine, rolled in ((d1_periodic(u, 0.3), (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * 0.3)),
                         (d2_periodic(u, 0.3),
                          (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / (0.3 * 0.3))):
        assert np.array_equal(mine.view(np.int64), rolled.view(np.int64))
