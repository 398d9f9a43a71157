import math

import numpy as np
import pytest

from kinvlasov.config import Config
from kinvlasov.grid import build_grid, velocity_from_momentum
from kinvlasov.moments import (
    charge_density,
    continuity_residual,
    current_density,
    number_density,
    particle_flux,
)
from kinvlasov.state import momentum_gaussian
from kinvlasov.verify import MIN_CONVERGENCE_ORDER


@pytest.fixture
def grid():
    return build_grid(Config(nx=16, x_max=4.0, np=128, p_max=8.0))


def uniform_f(grid, m=1.0, temperature=1.0, drift=0.0, n0=1.0):
    g = momentum_gaussian(grid.p_nodes, m, temperature, drift, grid.dp)
    return n0 * np.ones((grid.nx, 1)) * g[None, :]


def test_identical_species_cancel_exactly(grid):
    f = uniform_f(grid)
    rho = charge_density(f, f, 0.4, -0.4, grid)
    assert np.all(rho == 0.0)


def test_single_species_density(grid):
    n0, q = 1.3, -0.5
    f = uniform_f(grid, n0=n0)
    rho = charge_density(np.zeros_like(f), f, -q, q, grid)
    assert np.allclose(rho, q * n0, rtol=1e-8)


def test_charge_density_linear_scaling(grid):
    f = uniform_f(grid)
    base = charge_density(f, 0.5 * f, 0.4, -0.4, grid)
    doubled = charge_density(2.0 * f, f, 0.4, -0.4, grid)
    assert np.array_equal(doubled, 2.0 * base)


def test_even_f_has_no_current_or_flux(grid):
    f = uniform_f(grid)
    scale = 0.4 * np.max(np.abs(number_density(f, grid)))
    v = velocity_from_momentum(grid.p_nodes, 1.0, 4.0, True)
    j = current_density(f, f, 0.4, -0.8, v, v, grid)
    flux = particle_flux(f, v, grid)
    assert np.max(np.abs(j)) <= 1e-12 * scale
    assert np.max(np.abs(flux)) <= 1e-12 * scale


def test_drifting_maxwellian_current(grid):
    n0, q, m, drift = 1.0, -0.7, 1.0, 0.75
    f = uniform_f(grid, m=m, drift=drift, n0=n0)
    v = velocity_from_momentum(grid.p_nodes, m, 4.0, False)
    j = current_density(np.zeros_like(f), f, -q, q, v, v, grid)
    assert np.allclose(j, q * n0 * drift / m, rtol=1e-6)


def test_relativistic_cold_beam_limit():
    grid = build_grid(Config(nx=8, x_max=1.0, np=1600, p_max=4.0))
    n0, q, p0, width = 1.0, -0.6, 2.0, 0.02
    f = n0 * np.ones((grid.nx, 1)) * momentum_gaussian(
        grid.p_nodes, 1.0, width**2, p0, grid.dp)[None, :]
    v = velocity_from_momentum(grid.p_nodes, 1.0, 1.0, True)
    j = current_density(np.zeros_like(f), f, -q, q, v, v, grid)
    v0 = p0 / math.sqrt(1.0 + p0 * p0)
    assert np.allclose(j, q * n0 * v0, rtol=1e-4)


def test_species_swap_leaves_totals_unchanged(grid):
    rng = np.random.default_rng(2)
    fa = np.abs(rng.normal(size=(grid.nx, grid.np)))
    fb = np.abs(rng.normal(size=(grid.nx, grid.np)))
    qa, qb = 0.4, -0.4
    va, vb = (velocity_from_momentum(grid.p_nodes, m, 4.0, True) for m in (1.0, 2.0))
    assert np.array_equal(charge_density(fa, fb, qa, qb, grid),
                          charge_density(fb, fa, qb, qa, grid))
    assert np.array_equal(
        current_density(fa, fb, qa, qb, va, vb, grid),
        current_density(fb, fa, qb, qa, vb, va, grid))


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
                        particle_flux(f, grid.p_nodes, grid)[0]))
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
