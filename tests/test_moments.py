import inspect
import math
from dataclasses import fields

import numpy as np
import pytest

from kinvlasov.config import Config, SpeciesConfig
from kinvlasov.grid import PhaseSpaceGrid, build_grid
from kinvlasov.moments import (
    charge_density,
    continuity_residual,
    current_density,
    number_density,
    particle_flux,
)
from kinvlasov.state import SimulationState, SpeciesState, momentum_gaussian, refresh_moments
from kinvlasov.verify import MIN_CONVERGENCE_ORDER

from conftest import one_v


@pytest.fixture
def grid():
    return build_grid(Config(nx=16, x_max=4.0, np=128, p_max=8.0))


def species_pair(q_plus, q_minus, m_plus=1.0, m_minus=1.0, **keys):
    """A config of these two species, on the ``grid`` fixture's grid unless
    ``keys`` say otherwise, and its grid: the sums read charges and rows from them."""
    config = Config(**{"nx": 16, "x_max": 4.0, "np": 128, "p_max": 8.0, **keys},
                    plus=SpeciesConfig(q_plus, m_plus), minus=SpeciesConfig(q_minus, m_minus))
    return config, build_grid(config)


def uniform_f(grid, m=1.0, temperature=1.0, drift=0.0, n0=1.0):
    g = momentum_gaussian(grid.p_nodes, m, temperature, drift, grid.dp)
    return n0 * np.ones((grid.nx, 1)) * g[None, :]


def test_identical_species_cancel_exactly():
    config, grid = species_pair(0.4, -0.4)
    f = uniform_f(grid)
    rho = charge_density(f, f, config, grid)
    assert np.all(rho == 0.0)


def test_single_species_density():
    n0, q = 1.3, -0.5
    config, grid = species_pair(-q, q)
    f = uniform_f(grid, n0=n0)
    rho = charge_density(np.zeros_like(f), f, config, grid)
    assert np.allclose(rho, q * n0, rtol=1e-8)


def test_charge_density_linear_scaling():
    config, grid = species_pair(0.4, -0.4)
    f = uniform_f(grid)
    base = charge_density(f, 0.5 * f, config, grid)
    doubled = charge_density(2.0 * f, f, config, grid)
    assert np.array_equal(doubled, 2.0 * base)


def test_even_f_has_no_current_or_flux():
    config, grid = species_pair(0.4, -0.8)      # c = 4, relativistic
    f = uniform_f(grid)
    scale = 0.4 * np.max(np.abs(number_density(f, grid)))
    j = current_density(f, f, config, grid)
    flux = particle_flux(f, grid.ones_v[0], grid)
    assert np.max(np.abs(j)) <= 1e-12 * scale
    assert np.max(np.abs(flux)) <= 1e-12 * scale


def test_drifting_maxwellian_current():
    n0, q, m, drift = 1.0, -0.7, 1.0, 0.75
    config, grid = species_pair(-q, q, m, m, relativistic=False)
    f = uniform_f(grid, m=m, drift=drift, n0=n0)
    j = current_density(np.zeros_like(f), f, config, grid)
    assert np.allclose(j, q * n0 * drift / m, rtol=1e-6)


def test_relativistic_cold_beam_limit():
    n0, q, p0, width = 1.0, -0.6, 2.0, 0.02
    config, grid = species_pair(-q, q, nx=8, x_max=1.0, np=1600, p_max=4.0, c=1.0)
    f = n0 * np.ones((grid.nx, 1)) * momentum_gaussian(
        grid.p_nodes, 1.0, width**2, p0, grid.dp)[None, :]
    j = current_density(np.zeros_like(f), f, config, grid)
    v0 = p0 / math.sqrt(1.0 + p0 * p0)
    assert np.allclose(j, q * n0 * v0, rtol=1e-4)


def test_species_swap_leaves_totals_unchanged():
    (qa, ma), (qb, mb) = (0.4, 1.0), (-0.4, 2.0)
    config_ab, grid_ab = species_pair(qa, qb, ma, mb)
    config_ba, grid_ba = species_pair(qb, qa, mb, ma)
    rng = np.random.default_rng(2)
    fa = np.abs(rng.normal(size=(grid_ab.nx, grid_ab.np)))
    fb = np.abs(rng.normal(size=(grid_ab.nx, grid_ab.np)))
    assert np.array_equal(charge_density(fa, fb, config_ab, grid_ab),
                          charge_density(fb, fa, config_ba, grid_ba))
    assert np.array_equal(current_density(fa, fb, config_ab, grid_ab),
                          current_density(fb, fa, config_ba, grid_ba))


def test_the_grid_holds_v_once_as_each_species_ones_v_rows():
    assert "v" not in {field.name for field in fields(PhaseSpaceGrid)}
    assert not hasattr(build_grid(Config()), "v")


@pytest.mark.parametrize("sum_", [charge_density, current_density])
def test_the_two_species_sums_take_the_run_not_its_charges_and_velocities(sum_):
    assert list(inspect.signature(sum_).parameters) == ["f_plus", "f_minus", "config", "grid"]


def two_mass_state(seed):
    """A config of two masses and non-default charges, its grid, and a state of random f."""
    config, grid = species_pair(0.3, -0.7, 1.0, 3.0)
    rng = np.random.default_rng(seed)
    f_plus, f_minus = (rng.random((grid.nx, grid.np)) for _ in range(2))
    return config, grid, SimulationState(0.0, 0, SpeciesState(f_plus), SpeciesState(f_minus),
                                         fields=None)


def test_the_two_species_sums_read_the_configs_charges_and_the_grids_rows():
    config, grid, state = two_mass_state(5)
    q_plus, q_minus, f_plus, f_minus = config.plus.q, config.minus.q, state.plus.f, state.minus.f
    v_plus, v_minus = (rows[1] for rows in grid.ones_v)
    assert not np.array_equal(v_plus, v_minus)
    rho = (q_plus * (np.einsum("ij->i", f_plus) * grid.dp)
           + q_minus * (np.einsum("ij->i", f_minus) * grid.dp))
    j = (q_plus * (np.einsum("ij,j->i", f_plus, v_plus) * grid.dp)
         + q_minus * (np.einsum("ij,j->i", f_minus, v_minus) * grid.dp))
    assert np.array_equal(charge_density(f_plus, f_minus, config, grid).view(np.int64),
                          rho.view(np.int64))
    assert np.array_equal(current_density(f_plus, f_minus, config, grid).view(np.int64),
                          j.view(np.int64))


def test_refresh_moments_reads_each_species_ones_v_rows():
    config, grid, state = two_mass_state(6)
    refresh_moments(state, config, grid)
    for s, rows in zip(state.species, grid.ones_v):
        assert np.array_equal(s.flux.view(np.int64),
                              particle_flux(s.f, rows, grid).view(np.int64))
    for cached, fresh in ((state.rho, charge_density(state.plus.f, state.minus.f, config, grid)),
                          (state.j, current_density(state.plus.f, state.minus.f, config, grid))):
        assert np.array_equal(cached.view(np.int64), fresh.view(np.int64))


def test_midpoint_exact_for_linear_integrand(grid):
    # f linear in p: density integrates exactly (symmetric nodes).
    a, b = 0.8, 0.05
    f = a + b * grid.p_nodes[None, :] * np.ones((grid.nx, 1))
    n = number_density(f, grid)
    assert np.allclose(n, a * 2.0 * grid.p_max, rtol=1e-13)


def test_number_density_uniform(grid):
    f = uniform_f(grid, n0=2.0)
    n = number_density(f, grid)
    assert np.allclose(n, n[0])
    assert n[0] == pytest.approx(2.0, rel=1e-12)


def test_agreement_with_fine_quadrature():
    coarse = build_grid(Config(nx=16, x_max=4.0, np=128, p_max=8.0))
    fine = build_grid(Config(nx=16, x_max=4.0, np=1280, p_max=8.0))
    results = []
    for grid in (coarse, fine):
        f = uniform_f(grid, temperature=1.0, drift=0.4, n0=1.2)
        results.append((number_density(f, grid)[0],
                        particle_flux(f, one_v(grid.p_nodes), grid)[0]))
    (n_c, flux_c), (n_f, flux_f) = results
    assert n_c == pytest.approx(n_f, rel=1e-6)
    assert flux_c == pytest.approx(flux_f, rel=1e-6)


def pointwise_continuity_residual(n_prev, n_next, flux_mid, grid, dt, time_factor=1.0):
    """Reference: time_factor dn/dt + d(flux)/dx on every cell, centered."""
    flux_x = (np.roll(flux_mid, -1) - np.roll(flux_mid, 1)) / (2.0 * grid.dx)
    return time_factor * (n_next - n_prev) / (2.0 * dt) + flux_x


def l2(r, grid):
    return math.sqrt(np.sum(r * r) * grid.dx)


def test_continuity_residual_static_uniform(grid):
    n = np.full(grid.nx, 1.5)
    flux = np.zeros(grid.nx)
    assert np.all(pointwise_continuity_residual(n, n.copy(), flux, grid, 0.1) == 0.0)
    assert continuity_residual(n, n.copy(), flux, grid, 0.1) == 0.0


def test_continuity_residual_linear(grid):
    rng = np.random.default_rng(4)
    n_prev, n_next = rng.normal(size=grid.nx), rng.normal(size=grid.nx)
    flux = rng.normal(size=grid.nx)
    base = continuity_residual(n_prev, n_next, flux, grid, 0.1)
    double = continuity_residual(2 * n_prev, 2 * n_next, 2 * flux, grid, 0.1)
    expected = l2(pointwise_continuity_residual(n_prev, n_next, flux, grid, 0.1), grid)
    assert base == pytest.approx(expected, rel=1e-14)
    assert double == pytest.approx(2.0 * expected, rel=1e-14)


def test_continuity_residual_manufactured_convergence():
    def residual(nx):
        grid = build_grid(Config(nx=nx, x_max=2.0 * math.pi, np=8, p_max=8.0))
        eps, k, omega, t = 0.01, 1.0, 1.3, 0.7
        dt = 0.4 * grid.dx

        def n_of(tt):
            return 1.0 + eps * np.cos(k * grid.x_nodes - omega * tt)

        flux = (omega / k) * eps * np.cos(k * grid.x_nodes - omega * t)
        return continuity_residual(n_of(t - dt), n_of(t + dt), flux, grid, dt)

    order = math.log2(residual(32) / residual(64))
    assert order >= MIN_CONVERGENCE_ORDER


def test_continuity_time_factor_scales_time_term(grid):
    n_prev = np.zeros(grid.nx)
    n_next = np.full(grid.nx, 2.0)
    flux = np.zeros(grid.nx)
    dt, c = 0.5, 4.0
    consistent = continuity_residual(n_prev, n_next, flux, grid, dt)
    literal = continuity_residual(n_prev, n_next, flux, grid, dt, time_factor=1.0 / c)
    pointwise = pointwise_continuity_residual(n_prev, n_next, flux, grid, dt)
    assert np.all(pointwise == 2.0)
    assert consistent == pytest.approx(l2(pointwise, grid), rel=1e-15)
    assert literal == pytest.approx(l2(pointwise / c, grid), rel=1e-15)
