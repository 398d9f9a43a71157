"""The x-spectrum that each step hands to the next, and the run's history.

A step returns an unbuilt state, which holds each species' f only as its
x-spectrum, the closing half-advection's output; the next step's opening
half-advection reads it in place of an ``rfft``.  ``build`` fills in f and its
moments from the spectra, and a run calls it only where a state is read.
These tests pin the FFT and moment-pass counts, show that a step
from the spectra changes f by roundoff only against a step from f, and that
runs from one state are alike.
"""

import copy
import gc
import pickle
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from kinvlasov import runner, state as state_module
from kinvlasov.config import validate_config
from kinvlasov.grid import build_grid
from kinvlasov.interpolate import periodic_shift_columns
from kinvlasov.runner import compare_simulations, run_simulation
from kinvlasov.state import SimulationState, build, initialize_state, refresh_moments
from kinvlasov.vlasov import step

from conftest import landau_config


def stripped(state, config, grid):
    """The same state built around its f, with no spectra (its arrays shared)."""
    return replace(build(state, config, grid))


def is_built(state):
    """Whether a state's f and moments are in memory, not only its spectra."""
    return state.plus is not None


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
    """Counts of np.fft.rfft and np.fft.irfft calls, and of moment passes, by name."""
    counts = {"rfft": 0, "irfft": 0, "moments": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    monkeypatch.setattr(state_module, "refresh_moments",
                        counting("moments", state_module.refresh_moments))
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
            build(new, config, grid).minus.f[3, 5] = np.nan
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


@pytest.mark.parametrize("entry", ["library", "writer", "compare"])
def test_only_history_states_live_at_each_step(entry, monkeypatch, tmp_path):
    # At every step the live states are those of each run's history and its
    # final state, plus, in a comparison, the one state the lockstep loop holds.
    # A state holds spectra only while a step may read them: unbuilt, or the
    # newest of its history.
    config = validate_config(landau_config(nx=16, n_p=16, amplitude=1e-2, output_every=10))
    results, counts = [], []
    real_start, real_step = runner.start_run, runner.step

    def recording_start(*args, **kwargs):
        result, states = real_start(*args, **kwargs)
        results.append(result)
        return result, states

    def counting_step(state, config, grid):
        live = [s for s in gc.get_objects() if isinstance(s, SimulationState)]
        held = [s for r in results for s in (*r.history, r.final_state)]
        with_spectra = [s for s in live if s.spectra is not None]
        assert all(not is_built(s) or any(s is r.history[-1] for r in results)
                   for s in with_spectra)
        counts.append((len(live), sum(not any(s is h for h in held) for s in live),
                       len(with_spectra)))
        del live, held, with_spectra
        return real_step(state, config, grid)

    monkeypatch.setattr(runner, "start_run", recording_start)
    monkeypatch.setattr(runner, "step", counting_step)
    if entry == "compare":
        compare_simulations(replace(config, t_end=25.25 * build_grid(config).dt),
                            out_dir=tmp_path)
        assert len(counts) == 50 and max(stray for _, stray, _ in counts) == 1
        assert max(live for live, _, _ in counts) == 7
        return
    run_simulation(config, out_dir=tmp_path if entry == "writer" else None, n_steps=23)
    live, stray, with_spectra = zip(*counts)
    assert set(stray) == {0}
    if entry == "library":   # every state is built at once and lets its spectra go at its step
        assert live == (1,) + (2,) * 22 and with_spectra == (0,) + (1,) * 22
    else:   # the rows at 10 and 20 build their states and free the older ones' spectra
        assert live == (1, 2) + (3,) * 8 + (2,) + (3,) * 9 + (2, 3, 3)
        assert with_spectra == (0, 1, 2) + (3,) * 7 + (1, 1, 2) + (3,) * 7 + (1, 1, 2)


def assert_same_state(got, want):
    """Equal time, step and form, and every array bit for bit."""
    assert (got.time, got.step, is_built(got)) == (want.time, want.step, is_built(want))
    pairs = list(zip(vars(got.fields).values(), vars(want.fields).values()))
    pairs += zip(got.spectra or (), want.spectra or (), strict=True)
    if is_built(want):
        pairs += [(getattr(g, name), getattr(w, name))
                  for g, w in zip(got.species, want.species) for name in ("f", "n", "flux")]
        pairs += [(got.rho, want.rho), (got.j, want.j)]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def copies(state):
    return copy.deepcopy(state), pickle.loads(pickle.dumps(state))


def test_states_deep_copy_and_pickle_bit_for_bit(monkeypatch, tmp_path):
    # A state holds no run constants (the grid's LAPACK routines do not pickle),
    # so a stepped state and the unbuilt states of a run's history copy.
    config = validate_config(landau_config(nx=32, n_p=32, amplitude=1e-2, output_every=4))
    grid = build_grid(config)
    stepped = step(roughened(config, grid), config, grid)
    copied = copies(stepped)
    for each in copied:
        assert_same_state(each, stepped)
    build(stepped, config, grid)
    for each in copied:
        assert_same_state(build(each, config, grid), stepped)

    result, states = runner.start_run(config, out_dir=tmp_path, n_steps=8)
    unbuilt, real_step = [], runner.step

    def copying_step(state, config, grid):
        if state.step == 6:     # the history holds steps 4 (a row's), 5 and 6
            for held in result.history:
                if not is_built(held):
                    unbuilt.append(held.step)
                    for copied in copies(held):
                        assert_same_state(copied, held)
        return real_step(state, config, grid)

    monkeypatch.setattr(runner, "step", copying_step)
    deque(states, maxlen=0)
    assert unbuilt == [5, 6]


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
    # The first step transforms the initial f; none builds the f it returns.
    assert per_step[0] == {"rfft": 4, "irfft": 2, "moments": 0}
    assert per_step[1:] == [{"rfft": 2, "irfft": 2, "moments": 0}] * 4


def test_only_read_states_build_f_and_moments(monkeypatch, fft_calls, tmp_path):
    config = validate_config(landau_config(nx=32, n_p=32, amplitude=1e-2, output_every=10))
    starts = []
    real_step = runner.step

    def marking_step(state, config, grid):
        starts.append(dict(fft_calls))
        return real_step(state, config, grid)

    monkeypatch.setattr(runner, "step", marking_step)
    run_simulation(config, out_dir=tmp_path, n_steps=20)
    starts.append(dict(fft_calls))
    intervals = [{name: b[name] - a[name] for name in a} for a, b in zip(starts, starts[1:])]
    # Only the rows at steps 10 and 20 read states, k - 2, k - 1 and k, and build them.
    for k, counts in enumerate(intervals, start=1):
        builds = 3 if k % 10 == 0 else 0
        assert counts == {"rfft": 4 if k == 1 else 2, "irfft": 2 + 2 * builds,
                          "moments": builds}, k

    # A run without an output directory reads every state, so it builds each
    # one: per step 2 rfft and 4 irfft, as when every step built its f.  The
    # initial Poisson solve adds one of each.
    for name in fft_calls:
        fft_calls[name] = 0
    run_simulation(config, n_steps=20)
    assert fft_calls == {"rfft": 2 * 20 + 2 + 1, "irfft": 4 * 20 + 1, "moments": 20 + 1}


@pytest.mark.parametrize("nx", [16, 17])
def test_kept_spectrum_is_the_rfft_of_the_result(nx):
    # irfft ignores the imaginary part of an even nx's Nyquist row, so the
    # spectrum drops it.  The spline transfer is real there (to 3e-16), so a
    # step alone cannot see it; a transfer with a complex Nyquist row can.
    rng = np.random.default_rng(1)
    f = rng.random((nx, 6))
    transfer = np.exp(1j * rng.uniform(-np.pi, np.pi, (nx // 2 + 1, 6)))
    transfer[0] = 1.0
    spectrum = periodic_shift_columns(f, transfer, nx)
    shifted = np.fft.irfft(spectrum, n=nx, axis=0)
    error = np.max(np.abs(spectrum - np.fft.rfft(shifted, axis=0)))
    assert error <= 1e-13 * np.max(np.abs(spectrum))
    # A spectrum shifts back to the same f and is left as it is.
    full = np.fft.rfft(f, axis=0)
    kept = full.copy()
    assert np.array_equal(periodic_shift_columns(full, transfer, nx), shifted)
    assert np.array_equal(full, kept)


@pytest.mark.parametrize("nx", [32, 33])
@pytest.mark.parametrize("relativistic", [True, False])
@pytest.mark.parametrize("force_mode", ["modified", "standard"])
def test_handoff_steps_agree_with_stripped_steps(force_mode, relativistic, nx):
    config = validate_config(landau_config(nx=nx, n_p=32, amplitude=1e-2,
                                           relativistic=relativistic, force_mode=force_mode))
    grid = build_grid(config)
    with_handoff = without = roughened(config, grid)
    for _ in range(20):
        with_handoff = step(with_handoff, config, grid)
        assert with_handoff.spectra is not None and not is_built(with_handoff)
        assert not any(spectrum.flags.writeable for spectrum in with_handoff.spectra)
        without = step(stripped(without, config, grid), config, grid)
        for a, b in zip(build(with_handoff, config, grid).species,
                        build(without, config, grid).species):
            assert np.max(np.abs(a.f - b.f)) <= 1e-13 * np.max(np.abs(b.f))


def test_state_rebuilt_around_another_f_never_uses_the_old_spectrum(fft_calls):
    config = validate_config(landau_config(nx=32, n_p=32, amplitude=1e-2))
    grid = build_grid(config)
    state = build(step(roughened(config, grid), config, grid), config, grid)
    spectra = state.spectra
    rebuilt = replace(state, plus=replace(state.plus, f=2.0 * state.plus.f),
                      minus=replace(state.minus, f=state.minus.f.copy()))
    assert rebuilt.spectra is None
    expected = step(refresh_moments(rebuilt, config, grid), config, grid)
    fft_calls["rfft"] = 0
    got = step(rebuilt, config, grid)
    assert fft_calls["rfft"] == 4
    for a, b in zip(build(got, config, grid).species, build(expected, config, grid).species):
        assert np.array_equal(a.f, b.f)
    assert state.spectra is spectra   # the old state keeps its own


def test_second_step_of_one_state_takes_the_rfft_path(fft_calls):
    config = validate_config(landau_config(nx=32, n_p=32, amplitude=1e-2))
    grid = build_grid(config)
    # A state whose f was never read keeps its spectra: its steps are alike.
    state = step(roughened(config, grid), config, grid)
    fft_calls["rfft"] = 0
    first, second = step(state, config, grid), step(state, config, grid)
    assert fft_calls["rfft"] == 4 and state.spectra is not None and not is_built(state)
    for a, b in zip(build(first, config, grid).species, build(second, config, grid).species):
        assert np.array_equal(a.f, b.f)
    # A caller's build keeps the spectra, also once the state was stepped from
    # (only a run drops them): its next step reads them, bit for bit alike, and
    # then lets them go.  A later step transforms f instead, which agrees to
    # roundoff.
    assert np.all(np.isfinite(build(state, config, grid).plus.f)) and state.spectra is not None
    fft_calls["rfft"] = 0
    third = step(state, config, grid)
    assert fft_calls["rfft"] == 2 and state.spectra is None
    for a, b in zip(first.species, build(third, config, grid).species):
        assert np.array_equal(a.f, b.f)
    fft_calls["rfft"] = 0
    fourth = step(state, config, grid)
    assert fft_calls["rfft"] == 4
    for a, b in zip(first.species, build(fourth, config, grid).species):
        assert np.max(np.abs(a.f - b.f)) <= 1e-13 * np.max(np.abs(b.f))
    # Built before its first step, it keeps them until that step.
    built = first
    assert np.all(np.isfinite(built.minus.f)) and built.spectra is not None
    fft_calls["rfft"] = 0
    once = step(built, config, grid)
    assert fft_calls["rfft"] == 2 and built.spectra is None
    again = step(built, config, grid)
    assert fft_calls["rfft"] == 6
    for a, b in zip(build(once, config, grid).species, build(again, config, grid).species):
        assert np.max(np.abs(a.f - b.f)) <= 1e-13 * np.max(np.abs(b.f))


def test_runs_from_a_state_holding_a_handoff_are_identical(monkeypatch):
    config = validate_config(landau_config(nx=32, n_p=32, amplitude=1e-2, output_every=2,
                                           t_end=0.4))
    grid = build_grid(config)

    def evolved():
        state = initialize_state(config, grid)
        for _ in range(3):
            state = step(state, config, grid)
        assert state.spectra is not None
        return state

    def same_runs(a, b):
        assert a.records == b.records
        for x, y in zip(a.final_state.species, b.final_state.species):
            assert np.array_equal(x.f, y.f)

    reference = run_simulation(config, initial_state=stripped(evolved(), config, grid))
    start = evolved()
    spectra = start.spectra
    first = run_simulation(config, initial_state=start)
    assert start.spectra is spectra     # the run steps from a copy built around f
    same_runs(first, reference)
    same_runs(run_simulation(config, initial_state=start), reference)

    monkeypatch.setattr(runner, "initialize_state", lambda config, grid: evolved())
    _, modified, standard = compare_simulations(config)
    same_runs(modified, reference)
    same_runs(standard, run_simulation(replace(config, force_mode="standard"),
                                       initial_state=stripped(evolved(), config, grid)))
