"""Run diagnostics: conserved totals, per-equation residuals of the
overdetermined system, and run comparison.

The evolved system integrates the two kinetic equations and the two potential
wave equations; the charge and current moments are definitions, and the gauge
condition plus the minus-species continuity equation are monitored residuals.
In the full three-dimensional form that bookkeeping is 12 coupled equations
for 10 unknowns; reduced to this 1D geometry it is 8 equations for 6 unknowns.
The surplus equations never feed back into the evolution, so their residuals
act as a built-in consistency dashboard.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import Config
from .fields import d2_periodic, field_energy_proxy, gauge_residual, l2_x
from .forces import force_coefficients
from .grid import PhaseSpaceGrid
from .moments import continuity_residual
from .state import SimulationState
from .workspace import row_blocks, work_array


@dataclass
class DiagnosticsRecord:
    step: int
    time: float
    n_total_plus: float
    n_total_minus: float
    charge_total: float
    current_total: float
    gauge_residual_l2: float
    continuity_residual_l2: float
    vlasov_residual_plus_l2: float
    vlasov_residual_minus_l2: float
    max_abs_v_over_c: float
    field_energy_proxy: float


DIAGNOSTICS_FIELDS = tuple(f.name for f in fields(DiagnosticsRecord))


# (equation, status, full multiplicity, reduced multiplicity).  The h/c row
# repeats the continuity residual with its time term scaled by 1/c; it is
# informational and carries no multiplicity of its own.
LEDGER_LAYOUT = (
    ("c+", "evolved", 1, 1),
    ("c-", "evolved", 1, 1),
    ("d1", "evolved", 1, 1),
    ("d2", "evolved", 3, 1),
    ("e", "monitored", 1, 1),
    ("f", "definition", 1, 1),
    ("g", "definition", 3, 1),
    ("h", "monitored", 1, 1),
    ("h/c", "monitored", 0, 0),
)

UNKNOWNS_FULL = {"f+-": 2, "phi,A": 4, "rho,j": 4}
UNKNOWNS_REDUCED = {"f+-": 2, "phi,A": 2, "rho,j": 2}

# The static partition of the system, as the manifest records it.
EQUATION_PARTITION = {
    "entries": [
        {"equation": eq, "status": status,
         "full_multiplicity": full, "reduced_multiplicity": reduced}
        for eq, status, full, reduced in LEDGER_LAYOUT
    ],
    "full_equation_total": sum(row[2] for row in LEDGER_LAYOUT),
    "full_unknown_total": sum(UNKNOWNS_FULL.values()),
    "reduced_equation_total": sum(row[3] for row in LEDGER_LAYOUT),
    "reduced_unknown_total": sum(UNKNOWNS_REDUCED.values()),
    "unknowns_full": UNKNOWNS_FULL,
    "unknowns_reduced": UNKNOWNS_REDUCED,
}


def snapshot_state(state: SimulationState) -> SimulationState:
    """The history entry of a state: the state itself.  ``step`` returns a new
    state and ``state.build`` only fills one in, so an entry needs no copy."""
    return state


def _l2_phase(field: np.ndarray, grid: PhaseSpaceGrid) -> float:
    # einsum sums the squares in one pass without storing them, and unlike a
    # BLAS dot its result does not depend on the thread count.
    return float(np.sqrt(np.einsum("ij,ij->", field, field) * grid.dx * grid.dp))


def vlasov_residual(f_prev: np.ndarray, f_mid: np.ndarray, f_next: np.ndarray,
                    coefficients: np.ndarray | None, ones_v: np.ndarray, grid: PhaseSpaceGrid,
                    dt: float) -> float:
    """L2 norm of R = df/dt + v df/dx + F df/dp over interior phase-space nodes,
    for a species' rows (1, v) on the p nodes (``grid.ones_v``) and force rows
    (a, b) at f_mid's time, as ``kick_p`` takes both (F = 0 if (a, b) is None).

    All derivatives are centered at f_mid's time; the scheme does not
    collocate the equation, so the expected size is O(dt^2 + dx^2 + dp^2).
    The stored field levels of the middle snapshot straddle its time, so its
    ``force_coefficients`` are the rows to pass.  With F = a + b v and the
    centered differences D, 2 dt R = D_t f + (dt/dx) v D_x f + (dt/dp) F D_p f.
    Its terms are built over the whole rows of one ``workspace.row_blocks``
    block at a time, D_x f across the block's edges; only R is full-size.  The
    boundary columns are zeroed before the norm.
    """
    nx, residual, transport_v = len(f_mid), work_array(0, f_mid.shape), dt / grid.dx * ones_v[1]
    if coefficients is not None:
        # (dt/dp) F in one sweep a block: the rows (a, b) times (1, v), summed by einsum.
        ab = (dt / grid.dp) * coefficients
    for rows in row_blocks(f_mid.shape):
        block = np.subtract(f_next[rows], f_prev[rows], out=residual[rows])
        # Periodic centered difference in x; only rows 0 and nx - 1 wrap.
        transport, lo, hi = work_array(1, block.shape), max(rows.start, 1), min(rows.stop, nx - 1)
        np.subtract(f_mid[lo + 1:hi + 1], f_mid[lo - 1:hi - 1],
                    out=transport[lo - rows.start:hi - rows.start])
        for row, up, down in ((0, 1, -1), (nx - 1, 0, -2)):
            if rows.start <= row < rows.stop:
                np.subtract(f_mid[up], f_mid[down], out=transport[row - rows.start])
        transport *= transport_v
        block += transport
        if coefficients is not None:
            fp, flat = work_array(2, block.shape), np.ravel(f_mid[rows])
            np.subtract(flat[2:], flat[:-2], out=fp.reshape(-1)[1:-1])
            fp.flat[[0, -1]] = 0.0
            block += np.multiply(fp, np.einsum("ki,kj->ij", ab[:, rows], ones_v,
                                               out=work_array(3, block.shape)), out=fp)
    residual[:, [0, -1]] = 0.0
    return _l2_phase(residual, grid) / float(2.0 * dt)


def history_residuals(history: deque, config: Config, grid: PhaseSpaceGrid) -> dict:
    """The kinetic residuals c+, c- and the minus-species continuity residual h,
    all centered at the middle of the three states in ``history``."""
    s0, s1, s2 = history
    rows = force_coefficients(s1.fields, grid, grid.dt, config)
    measured = {label: vlasov_residual(s0.species[i].f, s1.species[i].f, s2.species[i].f,
                                       None if rows is None else rows[i], grid.ones_v[i],
                                       grid, grid.dt)
                for i, label in enumerate(("c+", "c-"))}
    measured["h"] = continuity_residual(s0.minus.n, s2.minus.n, s1.minus.flux, grid, grid.dt)
    return measured


def residual_report(history: deque, config: Config, grid: PhaseSpaceGrid) -> dict:
    """The equation ledger ``{equation: residual_l2}``, in ``LEDGER_LAYOUT``
    order, from three consecutive states (a run's ``history``, oldest first).

    Kinetic, gauge, and continuity residuals are centered at the middle step;
    the wave-equation residuals are centered between the last two steps (where
    three consecutive field levels are available) with the source interpolated
    to the level time from the adjacent cached moments.  The history must come
    from a run of this config, whose step is ``grid.dt``.

    The definition rows f (rho) and g (j) are 0.0 by construction: a built
    state's rho and j come from its own f in one moment pass
    (``refresh_moments``) and never change, so recomputing them could only read 0.
    """
    if len(history) < 3:
        raise ValueError("residual_report needs three stored steps")
    s0, s1, s2 = history
    dt, c = grid.dt, config.c
    measured = history_residuals(history, config, grid)

    # Wave-equation residuals from the three levels (prev, curr of step 1 plus
    # curr of step 2); sources averaged onto the middle level time.
    def wave_residual(u0, u1, u2, source):
        r = (u2 - 2.0 * u1 + u0) / (c * dt) ** 2 - d2_periodic(u1, grid.dx) - source
        return l2_x(r, grid)

    measured.update({
        "d1": wave_residual(s1.fields.phi_prev, s1.fields.phi_curr, s2.fields.phi_curr,
                            4.0 * np.pi * 0.5 * (s1.rho + s2.rho)),
        "d2": wave_residual(s1.fields.a_prev, s1.fields.a_curr, s2.fields.a_curr,
                            (4.0 * np.pi / c) * 0.5 * (s1.j + s2.j)),
        "e": gauge_residual(s1.fields, grid, dt, c),
        "f": 0.0,
        "g": 0.0,
        "h/c": continuity_residual(s0.minus.n, s2.minus.n, s1.minus.flux, grid, dt,
                                   time_factor=1.0 / c),
    })
    return {eq: measured[eq] for eq, *_ in LEDGER_LAYOUT}


def conserved_totals(state: SimulationState, grid: PhaseSpaceGrid,
                     config: Config) -> dict:
    """The diagnostics columns read from one state, keyed by column name."""
    return {
        "n_total_plus": float(np.sum(state.plus.n) * grid.dx),
        "n_total_minus": float(np.sum(state.minus.n) * grid.dx),
        "charge_total": float(np.sum(state.rho) * grid.dx),
        "current_total": float(np.sum(state.j) * grid.dx),
        "field_energy_proxy": field_energy_proxy(state.fields, grid, grid.dt, config.c),
        "max_abs_v_over_c": grid.v_max / config.c,
    }


@dataclass
class DivergenceRow:
    step: int
    time: float
    f_plus_dist: float
    f_minus_dist: float
    phi_dist: float
    a_dist: float
    force_dist: float


def compare_runs(run_a, run_b, state_a: SimulationState,
                 state_b: SimulationState) -> DivergenceRow:
    """The distances between state_a of run_a and state_b of run_b, two runs
    whose configurations differ at most in force_mode, at one snapshot step.
    Symmetric in the two (run, state) pairs.

    force_dist is the x-space L2 of the momentum mean of (F_a - F_b)^2, in
    mean square over the species, so a p-independent force reads as its plain
    x-space norm.  Both runs give a species the same v(p), so with the rows
    da, db of F_a - F_b = da + db v that mean is (da + db <v>)^2 + db^2 var(v)
    over the p nodes: a sum of squares, never negative at roundoff, and no
    phase-space force is formed.
    """
    config = run_a.config
    if replace(run_b.config, force_mode=config.force_mode) != config:
        raise ValueError("runs differ in more than force_mode")
    if state_a.step != state_b.step:
        raise ValueError(f"states at snapshot steps {state_a.step} and {state_b.step}")

    grid, dt = run_a.grid, run_a.grid.dt
    rows_a, rows_b = (force_coefficients(s.fields, grid, dt, run.config)
                      for run, s in ((run_a, state_a), (run_b, state_b)))
    # each potential at the snapshot's time, the mean of its two levels
    (phi_a, a_a), (phi_b, a_b) = state_a.fields.mid(), state_b.fields.mid()
    force_sq = 0.0
    for (da, db), (_, v) in zip(() if rows_a is None else rows_a - rows_b, grid.ones_v):
        mean_sq = (da + db * np.mean(v)) ** 2 + db * db * np.var(v)
        force_sq += float(np.sum(mean_sq) * grid.dx)
    return DivergenceRow(
        step=state_a.step,
        time=state_a.time,
        f_plus_dist=_l2_phase(state_a.plus.f - state_b.plus.f, grid),
        f_minus_dist=_l2_phase(state_a.minus.f - state_b.minus.f, grid),
        phi_dist=l2_x(phi_a - phi_b, grid),
        a_dist=l2_x(a_a - a_b, grid),
        force_dist=float(np.sqrt(0.5 * force_sq)),
    )


def make_record(state: SimulationState, history: deque, config: Config,
                grid: PhaseSpaceGrid) -> DiagnosticsRecord:
    """The diagnostics row of ``state``, the newest entry of ``history``.

    The gauge residual is centered at this state's time.  The kinetic and
    continuity residuals need three snapshots, so they are centered one step
    back and report 0 until enough history exists.
    """
    gauge = gauge_residual(state.fields, grid, grid.dt, config.c)
    centered = (history_residuals(history, config, grid) if len(history) == 3
                else dict.fromkeys(("c+", "c-", "h"), 0.0))
    return DiagnosticsRecord(
        step=state.step,
        time=state.time,
        gauge_residual_l2=gauge,
        continuity_residual_l2=centered["h"],
        vlasov_residual_plus_l2=centered["c+"],
        vlasov_residual_minus_l2=centered["c-"],
        **conserved_totals(state, grid, config),
    )
