import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from kinvlasov import runner
from kinvlasov.config import (
    PRESETS,
    Config,
    ConfigError,
    InitConfig,
    SpeciesConfig,
    validate_config,
)
from kinvlasov.diagnostics import compare_runs
from kinvlasov.fields import d2_periodic, poisson_init
from kinvlasov.grid import build_grid, velocity_from_momentum
from kinvlasov.moments import (
    charge_density,
    current_density,
    number_density,
    particle_flux,
)
from kinvlasov.runner import compare_simulations, run_simulation
from kinvlasov.state import build, initialize_state, refresh_moments
from kinvlasov.vlasov import step

from conftest import landau_config, one_v, pair_species


def test_x_nodes_are_cell_centers():
    grid = build_grid(Config(nx=8, x_max=8.0))
    assert np.allclose(grid.x_nodes[:4], [0.5, 1.5, 2.5, 3.5])
    assert grid.dx * grid.nx == pytest.approx(grid.x_max, rel=1e-15, abs=0.0)


def test_p_nodes_symmetric_cell_centers():
    grid = build_grid(Config(np=8, p_max=4.0))
    assert np.allclose(grid.p_nodes[:4], [-3.5, -2.5, -1.5, -0.5])
    assert np.allclose(grid.p_nodes, -grid.p_nodes[::-1])
    assert not np.any(grid.p_nodes == 0.0)


def test_build_grid_deterministic():
    config = Config(nx=48, x_max=7.3, np=40, p_max=5.1)
    a, b = build_grid(config), build_grid(config)
    assert np.array_equal(a.x_nodes, b.x_nodes)
    assert np.array_equal(a.p_nodes, b.p_nodes)


def test_unperturbed_state_has_no_sources():
    config = validate_config(landau_config(amplitude=0.0))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    assert np.all(state.rho == 0.0)
    assert np.all(state.j == 0.0)
    assert np.all(state.fields.phi_curr == 0.0)
    assert np.all(state.fields.a_curr == 0.0)


def test_total_number_matches_n0_xmax():
    from dataclasses import replace

    for preset, drift in (("free_stream", 0.5), ("landau", 0.0), ("two_stream", 2.0)):
        config = validate_config(replace(
            landau_config(),
            init=InitConfig(preset=preset, n0=1.0, amplitude=0.0,
                            k_mode=1, temperature=0.5, drift=drift),
        ))
        grid = build_grid(config)
        state = initialize_state(config, grid)
        for species in state.species:
            total = np.sum(species.f) * grid.dx * grid.dp
            assert total == pytest.approx(config.init.n0 * config.x_max, rel=1e-8)


def test_landau_charge_density_is_single_cosine():
    config = validate_config(landau_config(amplitude=1e-2, n_p=128))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    k = 2.0 * np.pi * config.init.k_mode / config.x_max
    rho0 = config.minus.q * config.init.n0 * config.init.amplitude
    expected = rho0 * np.cos(k * grid.x_nodes)
    assert np.allclose(state.rho, expected, atol=1e-8 * abs(rho0))

    # phi solves the discrete electrostatic problem for that mode exactly.
    k_discrete_sq = (2.0 - 2.0 * np.cos(k * grid.dx)) / grid.dx**2
    expected_phi = 4.0 * np.pi * rho0 * np.cos(k * grid.x_nodes) / k_discrete_sq
    assert np.allclose(state.fields.phi_curr, expected_phi,
                       atol=1e-8 * np.max(np.abs(expected_phi)))
    # ... and the analytic -phi'' = 4 pi rho solution to second order.
    analytic = 4.0 * np.pi * rho0 * np.cos(k * grid.x_nodes) / k**2
    assert np.allclose(state.fields.phi_curr, analytic,
                       rtol=0.0, atol=2e-3 * np.max(np.abs(analytic)))


def test_two_stream_total_momentum_vanishes():
    config = validate_config(Config(
        **pair_species(),
        init=InitConfig(preset="two_stream", n0=1.0, amplitude=0.05,
                        k_mode=1, temperature=0.5, drift=2.0),
    ))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    for species in state.species:
        momentum = np.sum(species.f * grid.p_nodes[None, :]) * grid.dx * grid.dp
        assert abs(momentum) <= 1e-10 * config.init.n0 * config.x_max


def test_initial_field_levels_equal():
    config = validate_config(landau_config(amplitude=1e-2))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    assert np.array_equal(state.fields.phi_prev, state.fields.phi_curr)
    assert np.all(state.fields.a_prev == 0.0)


def test_non_neutral_species_rejected():
    # validate_config rejects this pair; initialize_state still refuses it when
    # handed an unvalidated config.
    config = Config(
        plus=SpeciesConfig(0.3, 1.0), minus=SpeciesConfig(-0.2, 1.0),
        init=InitConfig(preset="landau", amplitude=1e-3, temperature=1.0),
    )
    grid = build_grid(config)
    with pytest.raises(ConfigError, match="initial state is non-neutral"):
        initialize_state(config, grid)


def assert_moments_cached(state, config, grid, initial):
    q_plus, q_minus = config.plus.q, config.minus.q
    for s, species in zip(state.species, (config.plus, config.minus)):
        v = velocity_from_momentum(grid.p_nodes, species.m, config.c, config.relativistic)
        assert np.array_equal(s.n, number_density(s.f, grid))
        assert np.array_equal(s.flux, particle_flux(s.f, one_v(v), grid))
    rho = q_plus * state.plus.n + q_minus * state.minus.n
    j = q_plus * state.plus.flux + q_minus * state.minus.flux
    assert np.array_equal(rho, charge_density(state.plus.f, state.minus.f, config, grid))
    assert np.array_equal(j, current_density(state.plus.f, state.minus.f, config, grid))
    for cached, combination in ((state.rho, rho), (state.j, j)):
        # initialize_state may scrub a roundoff-sized source to exact zeros.
        scrubbed = initial and not np.any(cached)
        assert scrubbed or np.array_equal(cached, combination)


@pytest.mark.parametrize("preset,amplitude", [("landau", 0.05), ("two_stream", 0.05),
                                              ("landau", 0.0)])
def test_cached_moments_match_f_after_init_and_step(preset, amplitude):
    config = landau_config(nx=32, n_p=64, amplitude=amplitude, drift=0.5)
    config = validate_config(replace(config, init=replace(config.init, preset=preset)))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    assert_moments_cached(state, config, grid, initial=True)
    assert_moments_cached(build(step(state, config, grid), config, grid), config, grid,
                          initial=False)


def state_bytes(state):
    """Every array of a state, as bytes, in a fixed order."""
    arrays = [getattr(s, name) for s in state.species for name in ("f", "n", "flux")]
    arrays += [state.rho, state.j, *vars(state.fields).values()]
    return [a.tobytes() for a in arrays]


def test_runs_leave_their_initial_state_unchanged(monkeypatch):
    # States are never mutated, so the two runs of a comparison share one
    # initial state and a run may start from a caller's state without a copy.
    config = validate_config(landau_config(nx=16, n_p=32, amplitude=0.05, output_every=2))
    grid = build_grid(config)
    want = state_bytes(initialize_state(config, grid))
    state = initialize_state(config, grid)
    result = run_simulation(config, initial_state=state)
    assert result.final_state.step >= 3 and not result.aborted
    assert state_bytes(state) == want

    pairs = []     # the (modified, standard) states of each divergence row

    def recording_compare_runs(run_a, run_b, state_a, state_b):
        pairs.append((state_a, state_b))
        return compare_runs(run_a, run_b, state_a, state_b)

    monkeypatch.setattr(runner, "compare_runs", recording_compare_runs)
    compare_simulations(config)
    shared = pairs[0][0]
    assert shared is pairs[0][1] and shared.step == 0
    assert len(pairs) >= 2
    assert state_bytes(shared) == want


@pytest.mark.parametrize("preset", PRESETS)
def test_small_amplitude_state_is_neutral(preset):
    # The mean of rho is roundoff of two O(q n0) densities; it is judged against
    # q n0, not against max|rho|, which is only O(amplitude).
    config = landau_config(nx=32, n_p=64, amplitude=1e-5, drift=0.5)
    config = validate_config(replace(config, init=replace(config.init, preset=preset)))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    scale = config.plus.q * config.init.n0 * config.init.amplitude
    k = 2.0 * np.pi * config.init.k_mode / config.x_max
    expected = -scale * np.cos(k * grid.x_nodes)
    assert np.max(np.abs(state.rho - expected)) <= 1e-9 * scale
    assert not run_simulation(config, initial_state=state, n_steps=2).aborted


def test_poisson_solution_satisfies_discrete_equation():
    config = validate_config(Config(nx=96, x_max=5.0))
    grid = build_grid(config)
    rng = np.random.default_rng(7)
    rho = rng.normal(size=grid.nx)
    rho -= rho.mean()
    phi = poisson_init(rho, grid)
    residual = np.max(np.abs(-d2_periodic(phi, grid.dx) - 4.0 * np.pi * rho))
    assert residual <= 1e-10 * 4.0 * np.pi * np.max(np.abs(rho))
    assert abs(phi.mean()) <= 1e-12 * np.max(np.abs(phi))


def test_refresh_moments_fills_the_state_it_is_given():
    config = validate_config(landau_config(nx=16, n_p=32, amplitude=0.1, drift=0.3))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    for s in state.species:
        s.f *= 1.0 + 0.5 * np.random.default_rng(3).random(s.f.shape)
    assert refresh_moments(state, config, grid) is state
    (n_plus, flux_plus), (n_minus, flux_minus) = (
        (number_density(s.f, grid), particle_flux(s.f, ones_v, grid))
        for s, ones_v in zip(state.species, grid.ones_v))
    q_plus, q_minus = config.plus.q, config.minus.q
    pairs = [(state.plus.n, n_plus), (state.plus.flux, flux_plus),
             (state.minus.n, n_minus), (state.minus.flux, flux_minus),
             (state.rho, q_plus * n_plus + q_minus * n_minus),
             (state.j, q_plus * flux_plus + q_minus * flux_minus)]
    for cached, fresh in pairs:
        assert np.array_equal(cached.view(np.int64), fresh.view(np.int64))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_run_from_a_state_with_one_non_finite_value_aborts(value):
    config = validate_config(landau_config(nx=16, n_p=16))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    state.minus.f[3, 5] = value
    result = run_simulation(config, initial_state=refresh_moments(state, config, grid))
    assert result.aborted and result.abort_step == 0
    assert result.abort_reason == "non-finite value in f_minus at step 0"
    assert result.records == []


def test_velocities_are_evaluated_per_run_not_per_step(monkeypatch):
    # dt, each species' v(p) and the x multipliers are built with the grid,
    # so a longer run evaluates v(p) no more often than a shorter one.
    real, calls = velocity_from_momentum, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("kinvlasov") and getattr(module, "velocity_from_momentum",
                                                    None) is real:
            monkeypatch.setattr(module, "velocity_from_momentum", counted)
    config = validate_config(landau_config(nx=32, n_p=32, amplitude=1e-2, output_every=5))
    counts = []
    for n_steps in (5, 20):
        calls.clear()
        assert not run_simulation(config, n_steps=n_steps).aborted
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_the_runs_per_species_constants_are_read_only():
    # A write to a species' (1, v) rows would change its v for every later kernel.
    same = build_grid(Config(nx=16, np=32))
    two = build_grid(Config(nx=16, np=32, plus=SpeciesConfig(0.5, 1.0),
                            minus=SpeciesConfig(-0.5, 2.0)))
    for grid in (same, two):
        for table in (grid.ones_v, grid.half_transfer):
            assert not any(array.flags.writeable for array in table)
        with pytest.raises(ValueError, match="read-only"):
            grid.ones_v[0][1, 0] = 1.0
    # Equal masses share one object; two masses have one each.
    assert all(table[0] is table[1] for table in (same.ones_v, same.half_transfer))
    assert not any(table[0] is table[1] for table in (two.ones_v, two.half_transfer))


@pytest.mark.parametrize("built", [True, False], ids=["built", "unbuilt"])
def test_a_state_of_another_grid_is_one_config_error(built, tmp_path):
    config = validate_config(Config(nx=64, np=128))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    if not built:
        state = step(state, config, grid)
    expected = ("f shapes are [(64, 128), (64, 128)], not [(32, 128), (32, 128)]" if built else
                "f spectra shapes are [(33, 128), (33, 128)], not [(17, 128), (17, 128)]")
    # No ``as``: a caught traceback would keep the run's frames, and their states, alive.
    with pytest.raises(ConfigError, match=re.escape(
            f"initial_state does not fit the 32x128 grid: its {expected}")):
        run_simulation(replace(config, nx=32), out_dir=tmp_path / "out", initial_state=state)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("built", [True, False], ids=["built", "unbuilt"])
def test_a_state_whose_field_levels_are_of_another_grid_is_one_config_error(built):
    # nx = 64 and 65 give spectra of one shape, and a built state's f can fit
    # while its levels come from another grid: the message names the levels only.
    config = validate_config(Config(nx=64, np=128))
    state = initialize_state(config, build_grid(config))
    if built:
        other = replace(config, nx=32)
        state.fields = initialize_state(other, build_grid(other)).fields
        run_nx, held_nx = 64, 32
    else:
        state = step(state, config, build_grid(config))
        run_nx, held_nx = 65, 64
    with pytest.raises(ConfigError, match=re.escape(
            f"initial_state does not fit the {run_nx}x128 grid: its field level shapes are "
            f"{[(held_nx,)] * 4}, not {[(run_nx,)] * 4}") + "$"):
        run_simulation(replace(config, nx=run_nx), initial_state=state, n_steps=2)


@pytest.mark.parametrize("missing, expected", [
    ("fields", "field level shapes are None, not [(64,), (64,), (64,), (64,)]"),
    ("plus", "f shapes are [None, (64, 128)], not [(64, 128), (64, 128)]"),
    ("minus", "f shapes are [(64, 128), None], not [(64, 128), (64, 128)]"),
], ids=["fields", "plus", "minus"])
def test_an_incomplete_initial_state_is_one_config_error(missing, expected):
    # A hand-built state with no field levels, or a species but no spectra to
    # build it from, is refused by the fit check, not by a traceback in the step.
    config = validate_config(Config(nx=64, np=128))
    state = initialize_state(config, build_grid(config))
    setattr(state, missing, None)
    with pytest.raises(ConfigError, match=re.escape(
            f"initial_state does not fit the 64x128 grid: its {expected}") + "$"):
        run_simulation(config, initial_state=state, n_steps=1)
