"""Simulation orchestration: the run loop, a generator of the states written
at the output cadence, and the comparison run, which advances both force
modes in lockstep.  A diagnostics row is built only where it is read.  It
returns results and never prints."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from itertools import chain
from numbers import Integral
from pathlib import Path

import numpy as np

from .config import Config, ConfigError, SolverAbort, validate_config
from .diagnostics import compare_runs, make_record, snapshot_state
from .grid import PhaseSpaceGrid, build_grid
from .output import (
    DiagnosticsWriter,
    manifest_payload,
    write_divergence,
    write_manifest,
    write_snapshot,
)
from .state import SimulationState, build, initialize_state
from .vlasov import step

# A config whose t_end takes more steps than this is rejected before its first step.
MAX_STEPS = 10**7


@dataclass
class RunResult:
    config: Config
    grid: PhaseSpaceGrid    # with the run's dt
    n_steps: int
    records: list           # every step's row; with out_dir, the written rows
    history: deque          # the last three finite states, oldest first (two if
                            # the step after a row aborted)
    final_state: SimulationState    # it and the history are built, with no spectra
    aborted: bool = False
    abort_reason: str = ""
    abort_step: int = 0     # the step being computed or checked when it aborted


def start_run(config: Config, *, out_dir=None, initial_state: SimulationState | None = None,
              n_steps: int | None = None):
    """Set up a run and return ``(result, states)``: validate the config and
    ``n_steps`` (None runs to t_end), build the grid and write the manifest.
    The generator ``states`` runs it: it yields each state of the
    output_every cadence (the initial state first) once its row and snapshot
    are written, and fills ``result`` as it goes.
    A diagnostics record is built where it is read: every step in a run
    without ``out_dir``, else at the cadence only.  Only ``states`` builds what
    ``step`` returns (``state.build``): the states a row reads, yielded or in
    ``result``.  On a solver abort a run that writes files also writes the row
    of its last finite state, then ``states`` sets ``aborted`` and ends.  Drain
    or close ``states``: its diagnostics file closes when it ends.
    """
    if n_steps is not None and (isinstance(n_steps, bool) or not isinstance(n_steps, Integral)
                                or n_steps < 0):
        raise ConfigError([f"n_steps must be a non-negative integer (got {n_steps!r})"])
    config = validate_config(config)
    grid = build_grid(config)
    if n_steps is None and not config.t_end <= MAX_STEPS * grid.dt:   # dt may be 0
        raise ConfigError([f"t_end = {config.t_end:g} takes more than {MAX_STEPS} steps "
                           f"of dt = {grid.dt:g}"])
    total = max(1, round(config.t_end / grid.dt)) if n_steps is None else int(n_steps)

    state = initial_state if initial_state is not None else initialize_state(config, grid)
    held = state.spectra or [s.f for s in state.species]    # as the first step reads it
    fits = [(grid.nx // 2 + 1 if state.spectra else grid.nx, grid.np)] * 2
    if [np.shape(f) for f in held] != fits:
        raise ConfigError([f"initial_state does not fit the {grid.nx}x{grid.np} grid: its f"
                           f"{' spectra' if state.spectra else ''} shapes are "
                           f"{[np.shape(f) for f in held]}, not {fits}"])
    if state.spectra is not None:   # a run steps from f, so every run from one state is alike
        state = replace(build(state, config, grid))
    if out_dir:
        write_manifest(manifest_payload(config, grid, total), out_dir)
    history, records = deque(maxlen=3), []
    limit = 1e300 / (grid.nx + grid.np * (1.0 + grid.dp))
    result = RunResult(config=config, grid=grid, n_steps=total, records=records,
                       history=history, final_state=state)

    def settle(keep=None):
        # Build each history state but ``keep`` and free its spectra: no step reads them.
        for held in history:
            if held is not keep:
                build(held, config, grid).spectra = None

    def check_finite(state):
        # A NaN, an inf or an overflow in f makes its density non-finite; a built
        # state's is read.  An unbuilt one passes unbuilt while its spectra
        # square-sum to S < limit^2 (an einsum: no allocation, no warning), as then
        # |f| <= sqrt(2 S) (Parseval) and neither f nor its density can overflow;
        # else it is built.  A row's state comes built: built among the row's
        # temporaries, its f would fragment the heap.
        for i, label in enumerate(("plus", "minus")):
            if state.plus is None:
                parts = state.spectra[i].view(float)
                if np.sqrt(np.einsum("ij,ij->", parts, parts)) < limit:
                    continue
            if not np.all(np.isfinite(build(state, config, grid).species[i].n)):
                raise SolverAbort(f"non-finite value in f_{label} at step {state.step}")

    def states():
        state = result.final_state
        writer = DiagnosticsWriter(Path(out_dir) / "diagnostics.csv") if out_dir else None
        attempt = state.step
        try:
            for k in range(total + 1):
                if k:
                    attempt = state.step + 1
                    # Once the newest state has its row, no row reads the oldest
                    # again: free it before the step.  Else an abort needs it.
                    if len(history) == history.maxlen and records[-1].step == state.step:
                        history.popleft()
                    state = step(state, config, grid)
                on_cadence = k % config.output_every == 0
                row = writer is None or on_cadence
                check_finite(build(state, config, grid) if row else state)
                history.append(snapshot_state(state))
                result.final_state = state
                if row:
                    settle(keep=state)  # which the next step starts from
                    records.append(make_record(state, history, config, grid))
                if on_cadence:
                    if writer is not None:
                        writer.write(records[-1])
                        write_snapshot(state, grid, out_dir)
                    yield state
            settle()
        except SolverAbort as exc:
            result.aborted, result.abort_reason, result.abort_step = True, str(exc), attempt
            settle()
            # the last finite state's row shows where the run died
            if writer is not None and history and records[-1].step != history[-1].step:
                records.append(make_record(history[-1], history, config, grid))
                writer.write(records[-1])
        finally:
            if writer is not None:
                writer.close()

    return result, states()


def run_simulation(config: Config, *, out_dir=None,
                   initial_state: SimulationState | None = None,
                   n_steps: int | None = None) -> RunResult:
    """Run a simulation to its end (see ``start_run``) and return its result."""
    result, states = start_run(config, out_dir=out_dir, initial_state=initial_state,
                               n_steps=n_steps)
    deque(states, maxlen=0)     # drained without holding a yielded state
    return result


def compare_simulations(config: Config, *, out_dir=None):
    """Run the same configuration under both force modes from one shared
    initial state, which neither run mutates, and return (rows, run_modified,
    run_standard).  The runs advance in lockstep, the modified run one snapshot
    ahead so that its first step precedes the standard run's first snapshot.
    Each row is computed from the two states at its step, which are then
    dropped.  If a run aborts, the rows stop at its last snapshot and the other
    run still runs to its end and writes its files."""
    run_mod, modified = start_run(replace(config, force_mode="modified"),
                                  out_dir=Path(out_dir) / "modified" if out_dir else None)
    run_std, standard = start_run(replace(config, force_mode="standard"),
                                  out_dir=Path(out_dir) / "standard" if out_dir else None,
                                  initial_state=run_mod.final_state)
    rows, current = [], next(modified, None)
    while current is not None:
        ahead, other = next(modified, None), next(standard, None)
        if other is None:
            break
        rows.append(compare_runs(run_mod, run_std, current, other))
        current, other = ahead, None    # no standard state is held while that run steps
    deque(chain(modified, standard), maxlen=0)     # a run not yet ended writes its other files
    if out_dir:
        write_divergence(rows, Path(out_dir) / "divergence.csv")
    return rows, run_mod, run_std
