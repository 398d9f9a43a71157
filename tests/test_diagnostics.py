import math
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from kinvlasov import workspace
from kinvlasov.config import Config, InitConfig, SpeciesConfig, validate_config
from kinvlasov.diagnostics import (
    EQUATION_PARTITION,
    LEDGER_LAYOUT,
    compare_runs,
    conserved_totals,
    residual_report,
    snapshot_state,
    vlasov_residual,
)
from kinvlasov.fields import FieldState
from kinvlasov.forces import force_coefficients, force_field
from kinvlasov.grid import build_grid
from kinvlasov.runner import compare_simulations, run_simulation, start_run
from kinvlasov.state import initialize_state, momentum_gaussian
from kinvlasov.verify import MIN_CONVERGENCE_ORDER
from kinvlasov.workspace import row_blocks

from conftest import PAIR_CHARGE, landau_config, pair_species


def zero_fields(grid):
    z = np.zeros(grid.nx)
    return FieldState(z.copy(), z.copy(), z.copy(), z.copy())


def free_stream_config(nx, n_p):
    return validate_config(Config(
        nx=nx, x_max=8.0, np=n_p, p_max=4.0, c=2.0, relativistic=False,
        **pair_species(),
        init=InitConfig(preset="free_stream", n0=1.0, amplitude=0.5, k_mode=1,
                        temperature=0.25, drift=0.0),
    ))


def translated_profiles(config, grid, dt, speed_factor=1.0):
    """Analytic free-streaming snapshots f(x - v p t, p) at three times."""
    g = momentum_gaussian(grid.p_nodes, 1.0, config.init.temperature, 0.0, grid.dp)
    v = speed_factor * grid.p_nodes / config.minus.m
    k = 2.0 * np.pi / config.x_max
    t0 = 0.3

    def sample(t):
        x_shift = grid.x_nodes[:, None] - v[None, :] * t
        return g[None, :] * (1.0 + config.init.amplitude * np.cos(k * x_shift))

    return sample(t0 - dt), sample(t0), sample(t0 + dt)


def test_vlasov_residual_static_uniform():
    config = validate_config(landau_config(nx=32, n_p=32, amplitude=0.0))
    grid = build_grid(config)
    g = momentum_gaussian(grid.p_nodes, 1.0, 1.0, 0.0, grid.dp)
    f = np.ones((grid.nx, 1)) * g[None, :]
    rows = force_coefficients(zero_fields(grid), grid, 0.05, config)[1]
    r = vlasov_residual(f, f, f, rows, grid.ones_v[1], grid, 0.05)
    assert r <= 1e-14 * np.max(f)


def test_vlasov_residual_converges_on_analytic_snapshots():
    norms = []
    for nx, n_p, dt in ((32, 32, 0.02), (64, 64, 0.01)):
        config = free_stream_config(nx, n_p)
        grid = build_grid(config)
        f0, f1, f2 = translated_profiles(config, grid, dt)
        norms.append(vlasov_residual(f0, f1, f2, None, grid.ones_v[1], grid, dt))
    order = math.log2(norms[0] / norms[1])
    assert order >= MIN_CONVERGENCE_ORDER


def test_vlasov_residual_flags_wrong_transport_speed():
    config = free_stream_config(128, 64)
    grid = build_grid(config)
    dt = 0.01
    correct = translated_profiles(config, grid, dt, speed_factor=1.0)
    wrong = translated_profiles(config, grid, dt, speed_factor=2.0)
    r_ok = vlasov_residual(*correct, None, grid.ones_v[1], grid, dt)
    r_bad = vlasov_residual(*wrong, None, grid.ones_v[1], grid, dt)
    assert r_bad >= 10.0 * r_ok


def three_term_residual(f_prev, f_mid, f_next, fields_mid, species, config, grid, dt):
    """Reference: the L2 norm of df/dt + v df/dx + F df/dp for species 0 (plus)
    or 1 (minus), each term divided by its own step, with F on every
    phase-space node."""
    dfdt = (f_next - f_prev)[:, 1:-1] / (2.0 * dt)
    dfdx = (np.roll(f_mid, -1, axis=0) - np.roll(f_mid, 1, axis=0))[:, 1:-1] / (2.0 * grid.dx)
    residual = dfdt + grid.v[species][None, 1:-1] * dfdx
    force = force_field(fields_mid, grid, dt, config)
    if force is not None:
        residual += force[species, :, 1:-1] * (f_mid[:, 2:] - f_mid[:, :-2]) / (2.0 * grid.dp)
    return float(np.sqrt(np.sum(residual**2) * grid.dx * grid.dp))


@pytest.mark.parametrize("preset,force_mode", [("landau", "modified"),
                                               ("landau", "standard"),
                                               ("free_stream", "modified")])
def test_vlasov_residual_matches_three_term_form(preset, force_mode):
    config = validate_config(replace(
        landau_config(nx=32, n_p=64, amplitude=0.05, drift=0.5, force_mode=force_mode),
        init=replace(landau_config().init, preset=preset, amplitude=0.05, drift=0.5)))
    result = run_simulation(config, n_steps=2)
    grid, dt = result.grid, result.grid.dt
    s0, s1, s2 = result.history
    x = 2.0 * np.pi * grid.x_nodes / grid.x_max
    # fields strong enough that the force term dominates the residual
    strong = FieldState(phi_prev=30.0 * np.sin(x), phi_curr=32.0 * np.sin(x + 0.1),
                        a_prev=20.0 * np.cos(x), a_curr=21.0 * np.cos(x - 0.2))
    for fields_mid in (s1.fields, strong):
        rows = force_coefficients(fields_mid, grid, dt, config)
        for species, ones_v in enumerate(grid.ones_v):
            f = tuple(s.species[species].f for s in (s0, s1, s2))
            expected = three_term_residual(*f, fields_mid, species, config, grid, dt)
            assert (vlasov_residual(*f, None if rows is None else rows[species], ones_v, grid, dt)
                    == pytest.approx(expected, rel=1e-12, abs=0.0))
    if config.forces_enabled:
        unforced = replace(config, init=replace(config.init, preset="free_stream"))
        without = three_term_residual(*f, fields_mid, species, unforced, grid, dt)
        assert without < 0.2 * expected


@pytest.mark.parametrize("preset,force_mode", [("landau", "modified"),
                                               ("landau", "standard"),
                                               ("free_stream", "modified")])
def test_blocked_vlasov_residual_is_bitwise_the_one_block_residual(preset, force_mode,
                                                                   monkeypatch):
    # At np = 2048 the residual takes blocks of 16 rows: 40 rows are two whole
    # blocks and a partial one, so the periodic wrap rows 0 and 39 fall in the
    # first and the last block and the middle one reads neighbours across both edges.
    config = validate_config(replace(
        landau_config(nx=40, n_p=2048, amplitude=0.05, drift=0.5, force_mode=force_mode),
        init=replace(landau_config().init, preset=preset, amplitude=0.05, drift=0.5)))
    result = run_simulation(config, n_steps=2)
    grid = result.grid
    assert [rows.stop - rows.start for rows in row_blocks((grid.nx, grid.np))] == [16, 16, 8]
    s0, s1, s2 = result.history
    x = 2.0 * np.pi * grid.x_nodes / grid.x_max
    strong = FieldState(phi_prev=30.0 * np.sin(x), phi_curr=32.0 * np.sin(x + 0.1),
                        a_prev=20.0 * np.cos(x), a_curr=21.0 * np.cos(x - 0.2))
    rows = [force_coefficients(fields_mid, grid, grid.dt, config)
            for fields_mid in (s1.fields, strong)]
    cases = [(s0.plus.f, s1.plus.f, s2.plus.f, None if r is None else r[0], grid.ones_v[0],
              grid, grid.dt) for r in rows]
    blocked = [vlasov_residual(*args) for args in cases]
    monkeypatch.setattr(workspace, "BLOCK_CELLS", grid.nx * grid.np)
    assert len(row_blocks((grid.nx, grid.np))) == 1
    one_block = [vlasov_residual(*args) for args in cases]
    assert np.array_equal(np.array(blocked).view(np.int64), np.array(one_block).view(np.int64))


def run_history(config, steps):
    result = run_simulation(config, n_steps=steps)
    return result


def test_residual_report_structure(small_landau):
    result = run_history(validate_config(small_landau), 3)
    ledger = residual_report(result.history, result.config, result.grid)
    assert list(ledger) == [eq for eq, *_ in LEDGER_LAYOUT]
    assert len(ledger) == 9
    assert all(isinstance(r, float) for r in ledger.values())
    entries = EQUATION_PARTITION["entries"]
    assert [e["equation"] for e in entries] == list(ledger)
    assert EQUATION_PARTITION["full_equation_total"] == 12
    assert EQUATION_PARTITION["full_unknown_total"] == 10
    assert EQUATION_PARTITION["reduced_equation_total"] == 8
    assert EQUATION_PARTITION["reduced_unknown_total"] == 6
    assert sum(e["full_multiplicity"] for e in entries) == 12
    assert sum(e["reduced_multiplicity"] for e in entries) == 8
    statuses = {e["equation"]: e["status"] for e in entries}
    assert statuses == {
        "c+": "evolved", "c-": "evolved", "d1": "evolved", "d2": "evolved",
        "e": "monitored", "f": "definition", "g": "definition",
        "h": "monitored", "h/c": "monitored",
    }


def test_definition_residuals_are_roundoff(small_landau):
    # Each state's rho and j come from its own f in one moment pass, so the
    # definition rows are exactly 0 by construction.
    result = run_history(validate_config(small_landau), 4)
    by_eq = residual_report(result.history, result.config, result.grid)
    assert by_eq["f"] == 0.0
    assert by_eq["g"] == 0.0


@pytest.mark.parametrize("force_mode", ["modified", "standard"])
def test_record_residuals_equal_ledger_entries(small_landau, force_mode):
    config = validate_config(replace(small_landau, force_mode=force_mode))
    result = run_simulation(config, n_steps=5)
    by_eq = residual_report(result.history, result.config, result.grid)
    last = result.records[-1]
    assert by_eq["c+"] > 0.0 and by_eq["h"] > 0.0
    assert last.vlasov_residual_plus_l2 == by_eq["c+"]
    assert last.vlasov_residual_minus_l2 == by_eq["c-"]
    assert last.continuity_residual_l2 == by_eq["h"]


def test_residual_report_needs_three_steps(small_landau):
    config = validate_config(small_landau)
    grid = build_grid(config)
    history = deque([snapshot_state(initialize_state(config, grid))], maxlen=3)
    with pytest.raises(ValueError, match="three stored steps"):
        residual_report(history, config, grid)


def test_evolved_residuals_converge_second_order():
    def ledger_at(nx, n_p, t_end):
        config = validate_config(landau_config(nx=nx, n_p=n_p,
                                               force_mode="standard", t_end=t_end))
        result = run_simulation(config)
        return residual_report(result.history, result.config, result.grid)

    coarse_cfg = validate_config(landau_config(nx=32, n_p=64))
    t_end = 20 * build_grid(coarse_cfg).dt
    coarse = ledger_at(32, 64, t_end)
    fine = ledger_at(64, 128, t_end)
    for eq in ("c+", "c-", "d1"):
        assert math.log2(coarse[eq] / fine[eq]) >= MIN_CONVERGENCE_ORDER


def test_conserved_totals_two_stream_symmetric():
    config = validate_config(Config(
        **pair_species(),
        init=InitConfig(preset="two_stream", n0=1.0, amplitude=0.0, k_mode=1,
                        temperature=0.5, drift=2.0),
    ))
    grid = build_grid(config)
    state = initialize_state(config, grid)
    totals = conserved_totals(state, grid, config)
    bound = 1e-10 * config.init.n0 * config.x_max
    assert abs(totals["charge_total"]) <= bound
    assert abs(totals["current_total"]) <= bound
    assert totals["max_abs_v_over_c"] < 1.0


def test_forces_off_number_conservation():
    config = validate_config(Config(
        nx=32, x_max=8.0, np=32, p_max=4.0, c=2.0, relativistic=False,
        cfl_fraction=0.9, t_end=1.0, output_every=10**9,
        **pair_species(),
        init=InitConfig(preset="free_stream", n0=1.0, amplitude=0.3, k_mode=1,
                        temperature=0.25, drift=0.0),
    ))
    result = run_simulation(config, n_steps=200)
    n_plus = np.array([r.n_total_plus for r in result.records])
    n_minus = np.array([r.n_total_minus for r in result.records])
    assert np.max(np.abs(n_plus - n_plus[0])) <= 1e-8 * n_plus[0]
    assert np.max(np.abs(n_minus - n_minus[0])) <= 1e-8 * n_minus[0]


def test_relativistic_velocity_ratio_below_one():
    config = validate_config(landau_config(nx=32, n_p=32))
    result = run_simulation(config, n_steps=10)
    assert all(r.max_abs_v_over_c < 1.0 for r in result.records)


def run_states(config, n_steps):
    """A run of n_steps and the states it wrote at its output cadence."""
    run, states = start_run(config, n_steps=n_steps)
    return run, list(states)


def test_compare_runs_identical_modes_all_zero(small_landau):
    config = validate_config(small_landau)
    a, states_a = run_states(config, 8)
    b, states_b = run_states(config, 8)
    for sa, sb in zip(states_a, states_b):
        row = compare_runs(a, b, sa, sb)
        assert row.f_plus_dist == 0.0 and row.f_minus_dist == 0.0
        assert row.phi_dist == 0.0 and row.a_dist == 0.0 and row.force_dist == 0.0


def test_compare_runs_symmetric(small_landau):
    config = validate_config(small_landau)
    a, states_a = run_states(replace(config, force_mode="modified"), 8)
    b, states_b = run_states(replace(config, force_mode="standard"), 8)
    for sa, sb in zip(states_a, states_b):
        ra, rb = compare_runs(a, b, sa, sb), compare_runs(b, a, sb, sa)
        assert ra.f_minus_dist == rb.f_minus_dist
        assert ra.force_dist == rb.force_dist



def both_modes(config, n_steps):
    return [run_states(replace(config, force_mode=mode), n_steps)
            for mode in ("modified", "standard")]


def reference_force_dist(run_a, run_b, snap_a, snap_b):
    """Species-averaged x-space L2 of the p-mean of the squared difference of
    the two forces, expanded on the full phase-space grid."""
    grid, total = run_a.grid, 0.0
    forces = (force_field(snap.fields, grid, run.grid.dt, run.config)
              for run, snap in ((run_a, snap_a), (run_b, snap_b)))
    for fa, fb in zip(*forces):
        total += np.sum(np.mean((fa - fb) ** 2, axis=1)) * grid.dx
    return math.sqrt(0.5 * total)


MASS_RATIO_4 = replace(
    landau_config(nx=32, n_p=64, amplitude=0.05, relativistic=False, temperature=0.25,
                  output_every=5),
    plus=SpeciesConfig(PAIR_CHARGE, 4.0), minus=SpeciesConfig(-PAIR_CHARGE, 1.0))


@pytest.mark.parametrize("config", [
    landau_config(nx=32, n_p=64, amplitude=0.05, drift=0.5, output_every=5),
    MASS_RATIO_4,
], ids=["landau_drift", "mass_ratio_4_nonrelativistic"])
def test_compare_runs_force_dist_matches_phase_space_reference(config):
    runs = both_modes(validate_config(config), 20)
    for (run_a, states_a), (run_b, states_b) in (runs, runs[::-1]):
        rows = [compare_runs(run_a, run_b, sa, sb) for sa, sb in zip(states_a, states_b)]
        assert len(rows) == 5
        for row, sa, sb in zip(rows, states_a, states_b):
            reference = reference_force_dist(run_a, run_b, sa, sb)
            assert reference > 0.0
            assert abs(row.force_dist - reference) <= 1e-13 * reference


def test_compare_runs_rejects_configs_differing_beyond_force_mode(small_landau):
    config = validate_config(small_landau)
    run_a, states_a = start_run(config, n_steps=4)
    other = replace(config, force_mode="standard",
                    init=replace(config.init, amplitude=2e-3))
    run_b, states_b = start_run(other, n_steps=4)
    with pytest.raises(ValueError, match="force_mode"):
        compare_runs(run_a, run_b, next(states_a), next(states_b))


def test_compare_runs_rejects_different_snapshot_steps(small_landau):
    config = validate_config(small_landau)
    (run_a, states_a), _ = both_modes(config, 8)
    _, (run_b, states_b) = both_modes(config, 4)
    with pytest.raises(ValueError, match="snapshot steps"):
        compare_runs(run_a, run_b, states_a[-1], states_b[-1])

def test_compare_runs_uniform_plasma_stays_coincident():
    config = validate_config(landau_config(nx=32, n_p=32, amplitude=0.0,
                                           output_every=5))
    a, states_a = run_states(replace(config, force_mode="modified"), 20)
    b, states_b = run_states(replace(config, force_mode="standard"), 20)
    for sa, sb in zip(states_a, states_b):
        row = compare_runs(a, b, sa, sb)
        assert row.f_minus_dist <= 1e-10
        assert row.phi_dist <= 1e-10
        assert row.force_dist <= 1e-10


def test_compare_memory_does_not_grow_with_the_row_count():
    # Each divergence row is computed as both runs reach its step, and its two
    # states are then dropped: 101 rows need no more working memory than 51.
    # Both runs use output_every 1, so their runs interleave alike.  (While the
    # standard run steps, the modified run's newest state keeps its two
    # x-spectra, 2 (nx/2 + 1) np complex values or about 2 f, for its next
    # step; at output_every 100 the modified run has ended and freed them
    # first.  That is a constant gap between cadences, not growth per row.)
    # Working memory is the peak less what the call still holds on return:
    # the rows and both runs' records, which grow by about 1.2 KB per step.
    config = validate_config(landau_config(nx=32, n_p=64, amplitude=0.05, output_every=1))
    dt = build_grid(config).dt
    compare_simulations(replace(config, t_end=100 * dt))    # one-time allocations

    def working_bytes(n_steps):
        tracemalloc.start()
        try:
            rows, *_ = compare_simulations(replace(config, t_end=n_steps * dt))
            held, peak = tracemalloc.get_traced_memory()
            return len(rows), peak - held
        finally:
            tracemalloc.stop()

    (rows_51, work_51), (rows_101, work_101) = working_bytes(50), working_bytes(100)
    assert (rows_51, rows_101) == (51, 101)
    f_nbytes = 32 * 64 * 8
    assert abs(work_101 - work_51) <= 4 * f_nbytes
