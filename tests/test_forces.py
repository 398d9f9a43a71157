import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kinvlasov import forces
from kinvlasov.config import Config, InitConfig, SpeciesConfig, validate_config
from kinvlasov.diagnostics import compare_runs
from kinvlasov.fields import FieldState, d1_periodic, electric_field
from kinvlasov.forces import force_coefficients, force_field
from kinvlasov.grid import build_grid, velocity_from_momentum
from kinvlasov.runner import run_simulation, start_run

from conftest import landau_config


def config_of(q=0.5, m=1.0, c=2.0, relativistic=True, mode="modified"):
    """A pair of charges +-q and mass m on the grid of the ``grid`` fixture."""
    return Config(nx=32, x_max=4.0, np=16, p_max=2.0, c=c, relativistic=relativistic,
                  force_mode=mode, plus=SpeciesConfig(q, m), minus=SpeciesConfig(-q, m))


@pytest.fixture
def grid():
    return build_grid(Config(nx=32, x_max=4.0, np=16, p_max=2.0))


def species_force(fields, dt, q, m, c, relativistic, mode):
    """``force_field`` of the species of charge q and mass m, the plus one of its pair."""
    config = config_of(q, m, c, relativistic, mode)
    return force_field(fields, build_grid(config), dt, config)[0]


def fields_of(grid, phi_prev=None, phi_curr=None, a_prev=None, a_curr=None):
    zero = np.zeros(grid.nx)
    return FieldState(
        phi_prev=zero.copy() if phi_prev is None else phi_prev,
        phi_curr=zero.copy() if phi_curr is None else phi_curr,
        a_prev=zero.copy() if a_prev is None else a_prev,
        a_curr=zero.copy() if a_curr is None else a_curr,
    )


def test_velocity_values():
    assert velocity_from_momentum(0.0, 1.0, 1.0, True) == 0.0
    assert velocity_from_momentum(1.0, 1.0, 1.0, True) == pytest.approx(1.0 / math.sqrt(2.0))
    v = velocity_from_momentum(1e6, 1.0, 1.0, True)
    assert 0.9999999 < v < 1.0


@given(p=st.floats(-50.0, 50.0), m=st.floats(0.1, 10.0), c=st.floats(0.5, 10.0))
def test_velocity_odd_and_subluminal(p, m, c):
    v = velocity_from_momentum(p, m, c, True)
    assert abs(v) < c
    assert v == pytest.approx(-velocity_from_momentum(-p, m, c, True), abs=1e-15)


@given(m=st.floats(0.1, 10.0), c=st.floats(0.5, 10.0),
       p=st.floats(0.01, 40.0), dp=st.floats(0.001, 1.0))
def test_velocity_strictly_increasing(m, c, p, dp):
    assert velocity_from_momentum(p + dp, m, c, True) > velocity_from_momentum(p, m, c, True)


@given(p=st.floats(-30.0, 30.0), m=st.floats(0.1, 10.0), c=st.floats(0.5, 10.0))
def test_nonrelativistic_consistency_bound(p, m, c):
    # 1 - 1/sqrt(1+u) <= u/2 for u >= 0, so |v_rel - v_nr| <= (u/2) |v_nr|.
    u = (p / (m * c)) ** 2
    v_rel = velocity_from_momentum(p, m, c, True)
    v_nr = velocity_from_momentum(p, m, c, False)
    assert abs(v_rel - v_nr) <= 0.5 * u * abs(v_nr) + 1e-15


def test_modified_force_constant_potentials(grid):
    a0 = np.full(grid.nx, 1.7)
    fields = fields_of(grid, a_prev=a0, a_curr=a0.copy())
    force = species_force(fields, 0.1, 0.5, 1.0, 2.0, True, "modified")
    assert np.all(force == 0.0)


def test_modified_force_uniform_da_dt(grid):
    a0, t1, t2 = 0.8, 0.3, 0.5
    q, c = 0.5, 2.0
    fields = fields_of(grid, a_prev=np.full(grid.nx, a0 * t1),
                       a_curr=np.full(grid.nx, a0 * t2))
    force = species_force(fields, t2 - t1, q, 1.0, c, True, "modified")
    assert np.allclose(force, -(q / c) * a0, rtol=1e-13)


def test_modified_force_linear_static_a(grid):
    a1, q, c = 0.4, -0.7, 3.0
    a = a1 * grid.x_nodes
    fields = fields_of(grid, a_prev=a, a_curr=a.copy())
    force = species_force(fields, 0.1, q, 1.0, c, False, "modified")
    v = grid.p_nodes / 1.0
    interior = slice(1, grid.nx - 1)  # the periodic wrap corrupts the edge rows
    assert np.allclose(force[interior, :], -(q / c) * v[None, :] * a1, rtol=1e-12)


def test_modified_force_ignores_phi(grid):
    rng = np.random.default_rng(3)
    a_prev, a_curr = rng.normal(size=grid.nx), rng.normal(size=grid.nx)
    base = fields_of(grid, a_prev=a_prev, a_curr=a_curr)
    swapped = fields_of(grid, phi_prev=rng.normal(size=grid.nx),
                        phi_curr=rng.normal(size=grid.nx),
                        a_prev=a_prev.copy(), a_curr=a_curr.copy())
    f1 = species_force(base, 0.05, 0.5, 1.0, 2.0, True, "modified")
    f2 = species_force(swapped, 0.05, 0.5, 1.0, 2.0, True, "modified")
    assert np.array_equal(f1, f2)


def test_standard_force_constant_potentials(grid):
    fields = fields_of(grid, phi_prev=np.full(grid.nx, 2.0),
                       phi_curr=np.full(grid.nx, 2.0),
                       a_prev=np.full(grid.nx, -1.0), a_curr=np.full(grid.nx, -1.0))
    force = species_force(fields, 0.1, 0.5, 1.0, 2.0, True, "standard")
    assert np.allclose(force, 0.0, atol=1e-14)


def test_standard_force_electrostatic_slope(grid):
    e0, q = 0.9, 0.5
    phi = -e0 * grid.x_nodes
    fields = fields_of(grid, phi_prev=phi, phi_curr=phi.copy())
    force = species_force(fields, 0.1, q, 1.0, 2.0, True, "standard")
    interior = slice(1, grid.nx - 1)
    assert np.allclose(force[interior, :], q * e0, rtol=1e-12)
    # row-constant in p
    assert np.array_equal(force[:, 0:1], force[:, 1:2])


def test_force_novelty_with_zero_a(grid):
    # Identical fields fed to both laws with A = 0 at both levels: the
    # convective force vanishes identically while the comparator sees the
    # full electrostatic gradient.
    rng = np.random.default_rng(11)
    phi = rng.normal(size=grid.nx)
    fields = fields_of(grid, phi_prev=phi, phi_curr=phi.copy())
    q = -0.6
    mod = species_force(fields, 0.1, q, 1.0, 2.0, True, "modified")
    std = species_force(fields, 0.1, q, 1.0, 2.0, True, "standard")
    assert np.all(mod == 0.0)
    expected = -q * d1_periodic(phi, grid.dx)
    assert np.allclose(std, expected[:, None], rtol=1e-14, atol=0.0)


def test_forces_linear_in_potentials(grid):
    rng = np.random.default_rng(5)
    dt, q, m, c = 0.07, 0.4, 1.2, 2.5

    def random_fields():
        return fields_of(grid, *(rng.normal(size=grid.nx) for _ in range(4)))

    fa, fb = random_fields(), random_fields()
    combined = FieldState(
        phi_prev=fa.phi_prev + fb.phi_prev, phi_curr=fa.phi_curr + fb.phi_curr,
        a_prev=fa.a_prev + fb.a_prev, a_curr=fa.a_curr + fb.a_curr,
    )
    for law in (lambda f: species_force(f, dt, q, m, c, True, "modified"),
                lambda f: species_force(f, dt, q, 1.0, c, True, "standard")):
        together = law(combined)
        separate = law(fa) + law(fb)
        scale = np.max(np.abs(together)) or 1.0
        assert np.allclose(together, separate, atol=1e-12 * scale)


def test_charge_antisymmetry(grid):
    rng = np.random.default_rng(9)
    fields = fields_of(grid, *(rng.normal(size=grid.nx) for _ in range(4)))
    q, m, c, dt = 0.8, 1.0, 2.0, 0.05
    assert np.array_equal(species_force(fields, dt, -q, m, c, True, "modified"),
                          -species_force(fields, dt, q, m, c, True, "modified"))
    assert np.array_equal(species_force(fields, dt, -q, 1.0, c, True, "standard"),
                          -species_force(fields, dt, q, 1.0, c, True, "standard"))


@pytest.mark.parametrize("relativistic", [True, False])
@pytest.mark.parametrize("mode", ["modified", "standard"])
def test_force_field_is_the_expansion_of_its_coefficients(mode, relativistic):
    rng = np.random.default_rng(13)
    config = config_of(-0.4, 1.3, 2.5, relativistic, mode)
    grid, dt = build_grid(config), 0.07
    fields = fields_of(grid, *(rng.normal(size=grid.nx) for _ in range(4)))
    coefficients = force_coefficients(fields, grid, dt, config)
    assert coefficients.shape == (2, 2, grid.nx)
    force = force_field(fields, grid, dt, config)
    assert force.shape == (2, grid.nx, grid.np)
    for (a, b), species, species_force in zip(coefficients, (config.plus, config.minus), force):
        v = velocity_from_momentum(grid.p_nodes, species.m, config.c, relativistic)
        assert np.array_equal(species_force, a[:, None] + b[:, None] * v[None, :])
        if mode == "standard":
            assert np.all(b == 0.0) and not np.any(np.signbit(b))
        else:
            q, c = species.q, config.c
            da_dt = (fields.a_curr - fields.a_prev) / dt
            da_dx = d1_periodic(0.5 * (fields.a_prev + fields.a_curr), grid.dx)
            assert np.array_equal(a, -(q / c) * da_dt)
            assert np.array_equal(b, -(q / c) * da_dx)


def test_standard_row_is_q_times_the_electric_field_bit_for_bit(grid):
    # The inline form the standard row had before E had a function of its own.
    rng = np.random.default_rng(17)
    fields = fields_of(grid, *(rng.normal(size=grid.nx) for _ in range(4)))
    dt, c, config = 0.07, 2.5, config_of(-0.4, 1.0, 2.5, True, "standard")
    dphi_dx = d1_periodic(0.5 * (fields.phi_prev + fields.phi_curr), grid.dx)
    da_dt = (fields.a_curr - fields.a_prev) / dt
    rows = force_coefficients(fields, grid, dt, config)
    for (a, b), q in zip(rows, (-0.4, 0.4)):
        assert np.array_equal(a, q * (-dphi_dx - da_dt / c))
        assert np.array_equal(a, q * electric_field(fields, grid, dt, c))
        # b is +0.0, not q * 0.0, which is -0.0 for the negative charge
        assert np.all(b == 0.0) and not np.any(np.signbit(b))


def test_force_coefficients_are_none_when_the_preset_does_not_kick(grid):
    config = replace(config_of(), init=InitConfig(preset="free_stream"))
    for mode in ("modified", "standard"):
        fields = fields_of(grid, *(np.ones(grid.nx) for _ in range(4)))
        assert force_coefficients(fields, grid, 0.1, replace(config, force_mode=mode)) is None
        assert force_field(fields, grid, 0.1, replace(config, force_mode=mode)) is None


def test_force_coefficients_reject_unknown_mode(grid):
    with pytest.raises(ValueError, match="unknown force mode"):
        force_coefficients(fields_of(grid), grid, 0.1, config_of(mode="lorentz"))


@pytest.mark.parametrize("mode", ["modified", "standard"])
def test_a_field_state_is_differentiated_once_for_both_species(mode, monkeypatch):
    # The modified rows take one d1_periodic, the standard ones one electric_field.
    calls = []
    for law in ("d1_periodic", "electric_field"):
        def counted(*args, real=getattr(forces, law)):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(forces, law, counted)
    # A 10-step library run rows every state: each step's kick reads one field
    # state, and so does each of the 9 rows with three states of history.
    config = validate_config(landau_config(nx=16, n_p=32, amplitude=1e-2, force_mode=mode))
    result = run_simulation(config, n_steps=10)
    assert len(result.records) == 11 and len(calls) == 10 + 9
    calls.clear()
    (run_mod, mod_states), (run_std, std_states) = (
        start_run(replace(config, force_mode=other), n_steps=1)
        for other in ("modified", "standard"))
    compare_runs(run_mod, run_std, next(mod_states), next(std_states))
    assert len(calls) == 2
