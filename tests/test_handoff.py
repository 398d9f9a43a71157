"""The x-spectrum hand-off between consecutive steps, and the run's history.

Each step's closing half-advection leaves its spectrum on the state it
returns; the next step's opening half-advection of that same f takes it in
place of an ``rfft``.  These tests pin the FFT count, show that the hand-off
changes f by roundoff only, and that a state without one steps as before.
"""

from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from kinvlasov import runner
from kinvlasov.config import validate_config
from kinvlasov.grid import build_grid
from kinvlasov.interpolate import periodic_shift_columns
from kinvlasov.runner import compare_simulations, run_simulation
from kinvlasov.state import initialize_state, refresh_moments
from kinvlasov.vlasov import step

from conftest import landau_config


def stripped(state):
    """The same state with fresh, empty hand-offs (its arrays shared)."""
    return replace(state, plus=replace(state.plus, handoff={}),
                   minus=replace(state.minus, handoff={}))


def roughened(config, grid, seed=0):
    """An initial state whose f carries a random component, so that every
    wavenumber, the Nyquist row included, is excited."""
    state = initialize_state(config, grid)
    rng = np.random.default_rng(seed)
    noisy = (replace(s, f=s.f * (1.0 + 0.05 * rng.random(s.f.shape))) for s in state.species)
    plus, minus = noisy
    return refresh_moments(replace(state, plus=plus, minus=minus), config, grid)


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts of np.fft.rfft and np.fft.irfft calls, by name."""
    counts = {"rfft": 0, "irfft": 0}
    for name in counts:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts


def test_run_frees_the_dead_history_state_before_each_step(monkeypatch, tmp_path):
    histories = []
    real_make_record, real_step = runner.make_record, runner.step

    def recording(state, history, *args):
        histories.append(history)
        return real_make_record(state, history, *args)

    def checked_step(state, config, grid):
        assert len(histories[-1]) <= 2
        return real_step(state, config, grid)

    monkeypatch.setattr(runner, "make_record", recording)
    monkeypatch.setattr(runner, "step", checked_step)
    result = run_simulation(validate_config(landau_config(nx=32, n_p=32, amplitude=1e-2)),
                            n_steps=6)
    assert not result.aborted
    assert len(result.history) == 3
    assert result.history[-1] is result.final_state

    # A run that writes files builds rows at steps 0, 4 and 8 only.  It keeps
    # the oldest state until the newest has its row, which an abort would write.
    config = validate_config(landau_config(nx=32, n_p=32, amplitude=1e-2, output_every=4))
    result, states = runner.start_run(config, out_dir=tmp_path, n_steps=10)
    held = []

    def writer_step(state, config, grid):
        held.append(len(result.history))
        return real_step(state, config, grid)

    monkeypatch.setattr(runner, "step", writer_step)
    deque(states, maxlen=0)
    assert not result.aborted and result.history[-1] is result.final_state
    assert held == [1, 2, 3, 3, 2, 3, 3, 3, 2, 3]


def test_non_finite_abort_leaves_the_last_finite_state_in_the_history(monkeypatch):
    real_step = runner.step

    def poisoned_step(state, config, grid):
        new = real_step(state, config, grid)
        if new.step == 5:
            new.minus.f[3, 5] = np.nan
            new = refresh_moments(new, config, grid)
        return new

    monkeypatch.setattr(runner, "step", poisoned_step)
    result = run_simulation(validate_config(landau_config(nx=32, n_p=32, amplitude=1e-2)),
                            n_steps=10)
    assert result.aborted and result.abort_step == 5
    assert result.history[-1] is result.final_state and result.final_state.step == 4
    # step 4 had its row, so the run freed step 2 before the step that failed
    assert [s.step for s in result.history] == [3, 4]
    assert all(np.all(np.isfinite(s.f)) for state in result.history for s in state.species)


@pytest.mark.parametrize("preset", ["landau", "free_stream"])
def test_fft_traffic_per_step(preset, monkeypatch, fft_calls):
    config = landau_config(nx=32, n_p=32, amplitude=1e-2)
    config = validate_config(replace(config, init=replace(config.init, preset=preset)))
    per_step = []
    real_step = runner.step

    def counting_step(state, config, grid):
        before = dict(fft_calls)
        new = real_step(state, config, grid)
        per_step.append({name: fft_calls[name] - before[name] for name in fft_calls})
        return new

    monkeypatch.setattr(runner, "step", counting_step)
    run_simulation(config, n_steps=5)
    assert per_step[0] == {"rfft": 4, "irfft": 4}
    assert per_step[1:] == [{"rfft": 2, "irfft": 4}] * 4


@pytest.mark.parametrize("nx", [16, 17])
def test_kept_spectrum_is_the_rfft_of_the_result(nx):
    # irfft ignores the imaginary part of an even nx's Nyquist row, so the kept
    # spectrum drops it.  The spline transfer is real there (to 3e-16), so a
    # step alone cannot see it; a transfer with a complex Nyquist row can.
    rng = np.random.default_rng(1)
    f = rng.random((nx, 6))
    transfer = np.exp(1j * rng.uniform(-np.pi, np.pi, (nx // 2 + 1, 6)))
    transfer[0] = 1.0
    keep = {}
    shifted = periodic_shift_columns(f, transfer, keep=keep)
    kept_f, spectrum = keep.pop(id(shifted))
    assert kept_f is shifted and not keep
    error = np.max(np.abs(spectrum - np.fft.rfft(shifted, axis=0)))
    assert error <= 1e-13 * np.max(np.abs(spectrum))
    assert np.array_equal(periodic_shift_columns(f, transfer), shifted)


@pytest.mark.parametrize("nx", [32, 33])
@pytest.mark.parametrize("relativistic", [True, False])
@pytest.mark.parametrize("force_mode", ["modified", "standard"])
def test_handoff_steps_agree_with_stripped_steps(force_mode, relativistic, nx):
    config = validate_config(landau_config(nx=nx, n_p=32, amplitude=1e-2,
                                           relativistic=relativistic, force_mode=force_mode))
    grid = build_grid(config)
    with_handoff = without = roughened(config, grid)
    for _ in range(20):
        taken, with_handoff = with_handoff, step(with_handoff, config, grid)
        assert not taken.plus.handoff and not taken.minus.handoff or taken.step == 0
        without = step(stripped(without), config, grid)
        for a, b in zip(with_handoff.species, without.species):
            assert np.max(np.abs(a.f - b.f)) <= 1e-13 * np.max(np.abs(b.f))


def test_state_rebuilt_around_another_f_never_uses_the_old_spectrum(fft_calls):
    config = validate_config(landau_config(nx=32, n_p=32, amplitude=1e-2))
    grid = build_grid(config)
    state = step(roughened(config, grid), config, grid)
    rebuilt = replace(state, plus=replace(state.plus, f=2.0 * state.plus.f),
                      minus=replace(state.minus, f=state.minus.f.copy()))
    expected = step(stripped(rebuilt), config, grid)
    fft_calls["rfft"] = 0
    got = step(rebuilt, config, grid)
    assert fft_calls["rfft"] == 4
    for a, b in zip(got.species, expected.species):
        assert np.array_equal(a.f, b.f)
    for species in state.species:   # the old state's hand-offs are left alone
        assert species.handoff[id(species.f)][0] is species.f


def test_second_step_of_one_state_takes_the_rfft_path(fft_calls):
    config = validate_config(landau_config(nx=32, n_p=32, amplitude=1e-2))
    grid = build_grid(config)
    state = step(roughened(config, grid), config, grid)
    fft_calls["rfft"] = 0
    first = step(state, config, grid)
    assert fft_calls["rfft"] == 2 and not state.plus.handoff and not state.minus.handoff
    second = step(state, config, grid)
    assert fft_calls["rfft"] == 6
    for a, b in zip(first.species, second.species):
        assert np.max(np.abs(a.f - b.f)) <= 1e-13 * np.max(np.abs(b.f))


def test_runs_from_a_state_holding_a_handoff_are_identical(monkeypatch):
    config = validate_config(landau_config(nx=32, n_p=32, amplitude=1e-2, output_every=2,
                                           t_end=0.4))
    grid = build_grid(config)

    def evolved():
        state = initialize_state(config, grid)
        for _ in range(3):
            state = step(state, config, grid)
        assert state.plus.handoff and state.minus.handoff
        return state

    def same_runs(a, b):
        assert a.records == b.records
        for x, y in zip(a.final_state.species, b.final_state.species):
            assert np.array_equal(x.f, y.f)

    reference = run_simulation(config, initial_state=stripped(evolved()))
    start = evolved()
    first = run_simulation(config, initial_state=start)
    assert not start.plus.handoff and not first.final_state.minus.handoff
    same_runs(first, reference)
    same_runs(run_simulation(config, initial_state=start), reference)

    monkeypatch.setattr(runner, "initialize_state", lambda config, grid: evolved())
    _, modified, standard = compare_simulations(config)
    same_runs(modified, reference)
    same_runs(standard, run_simulation(replace(config, force_mode="standard"),
                                       initial_state=stripped(evolved())))
