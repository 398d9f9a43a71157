"""Simulation orchestration: the run loop, output emission and the
two-force-mode comparison run.  It returns results and never prints."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import FORCE_MODES, Config, ConfigError, validate_config
from .diagnostics import compare_runs, make_record, snapshot_state
from .fields import FieldBlowupError
from .grid import PhaseSpaceGrid, build_grid
from .output import (
    DiagnosticsWriter,
    manifest_payload,
    write_divergence,
    write_manifest,
    write_snapshot,
)
from .state import SimulationState, initialize_state, release_handoffs
from .vlasov import KickDisplacementError, step


class NonFiniteStateError(RuntimeError):
    """A distribution function holds a NaN or an infinity."""


SOLVER_ABORTS = (KickDisplacementError, FieldBlowupError, NonFiniteStateError)

# A config whose t_end takes more steps than this is rejected before its first step.
MAX_STEPS = 10**7


@dataclass
class RunResult:
    config: Config
    grid: PhaseSpaceGrid    # with the run's dt
    n_steps: int
    records: list
    snapshots: list
    history: deque          # the last three states, oldest first (two if a step aborted)
    final_state: SimulationState
    aborted: bool = False
    abort_reason: str = ""
    abort_step: int = 0     # the step being computed or checked when it aborted


def run_simulation(config: Config, *, out_dir=None, collect_snapshots: bool = False,
                   initial_state: SimulationState | None = None,
                   n_steps: int | None = None) -> RunResult:
    """Run a full simulation; optionally emit manifest, diagnostics, snapshots.

    Diagnostics records are computed every step; rows and snapshots are
    written at the output_every cadence plus the initial state.  On a solver
    abort the partial diagnostics are already flushed; the result is returned
    with ``aborted`` set.
    """
    config = validate_config(config)
    grid = build_grid(config)
    if n_steps is None and not config.t_end <= MAX_STEPS * grid.dt:   # dt may be 0
        raise ConfigError([f"t_end = {config.t_end:g} takes more than {MAX_STEPS} steps "
                           f"of dt = {grid.dt:g}"])
    total = max(1, round(config.t_end / grid.dt)) if n_steps is None else n_steps

    state = initial_state if initial_state is not None else initialize_state(config, grid)
    release_handoffs(state)     # every run from one state steps the same
    history = deque([snapshot_state(state)], maxlen=3)

    writer = DiagnosticsWriter(Path(out_dir) / "diagnostics.csv") if out_dir else None
    if out_dir:
        write_manifest(manifest_payload(config, grid, total), out_dir)

    records = []
    snapshots = []
    written = 0

    def emit(current: SimulationState, write_files: bool) -> None:
        nonlocal written
        # A NaN or an inf in f makes its row's density non-finite: an O(nx) check.
        for label, species in zip(("plus", "minus"), current.species):
            if not np.all(np.isfinite(species.n)):
                raise NonFiniteStateError(f"non-finite value in f_{label} at step {current.step}")
        record = make_record(current, history, config, grid)
        records.append(record)
        if write_files and writer is not None:
            writer.write(record)
            written = len(records)
        if write_files:
            if collect_snapshots:
                snapshots.append(current)
            if out_dir:
                write_snapshot(current, grid, out_dir)

    result = RunResult(config=config, grid=grid, n_steps=total,
                       records=records, snapshots=snapshots, history=history,
                       final_state=state)
    attempt = state.step
    try:
        emit(state, True)
        for k in range(1, total + 1):
            attempt = state.step + 1
            if len(history) == history.maxlen:
                history.popleft()   # no residual reads it again: free it before the step
            state = step(state, config, grid)
            history.append(snapshot_state(state))
            emit(state, k % config.output_every == 0)
            result.final_state = state
    except SOLVER_ABORTS as exc:
        result.aborted = True
        result.abort_reason = str(exc)
        result.abort_step = attempt
        # flush the last computed record so the file shows where the run died
        if writer is not None and records and written < len(records):
            writer.write(records[-1])
    finally:
        release_handoffs(state)
        if writer is not None:
            writer.close()
    return result


def compare_simulations(config: Config, *, out_dir=None):
    """Run the same configuration under both force modes from one shared
    initial state, which neither run mutates, and return (rows, run_modified,
    run_standard).  If a run aborts, its snapshot steps are a prefix of the
    other's, and the rows cover the snapshots that both runs recorded."""
    config = validate_config(config)
    grid = build_grid(config)
    state0 = initialize_state(config, grid)

    runs = {}
    for mode in FORCE_MODES:
        mode_config = replace(config, force_mode=mode)
        mode_dir = Path(out_dir) / mode if out_dir else None
        runs[mode] = run_simulation(
            mode_config,
            out_dir=mode_dir,
            collect_snapshots=True,
            initial_state=state0,
        )
    shared = min(len(run.snapshots) for run in runs.values())
    rows = compare_runs(*(replace(run, snapshots=run.snapshots[:shared])
                          for run in runs.values()))
    if out_dir:
        write_divergence(rows, Path(out_dir) / "divergence.csv")
    return rows, *runs.values()
