"""Strang-split semi-Lagrangian evolution of both distribution functions.

Each step executes the fixed stage sequence

    half advection in x  ->  field update  ->  momentum kick  ->  half advection in x

with the charge and current recomputed after the first half advection, at the
current field level's time (levels are staggered half a step ahead of f).  That
holds to first order in dt only: the kick moves j by O(dt), so the source lags
its level (ROADMAP item 1).  The kick force is built from the two field
levels that straddle the kick time, a centered difference spanning 2 dt.

Between steps f is held as its x-spectrum: the closing half advection stops
at rfft(kicked f) times the half-step multiplier, and the next opening one
multiplies that by it again before its irfft.  A step returns f only as that
spectrum, and a run builds f and its moments (``state.build``) only where a row
or its result reads them, so a species-step between rows is one rfft and one irfft.

dt, each species' (1, v(p)) rows, the half-step x multipliers and the kick's
p-spline solve are constants of the run, built with its grid
(``grid.build_grid``); a step reads them, and the charges from the config, and
recomputes none.
"""

from __future__ import annotations

import math

import numpy as np

from .config import Config, SolverAbort
from .fields import FieldState, wave_step
from .forces import force_coefficients
from .grid import PhaseSpaceGrid
from .interpolate import eval_natural_spline, natural_spline_moments, periodic_shift_columns
from .moments import charge_density, current_density
from .state import SimulationState
from .workspace import row_blocks, work_array


def advect_x(f: np.ndarray, transfer: np.ndarray, nx: int) -> np.ndarray:
    """f(x, p) <- f(x - v(p) dt, p) by ``interpolate.periodic_shift_columns``,
    from f of nx rows to its x-spectrum or back.  ``transfer`` is the shift's
    Fourier multiplier (``grid.half_transfer`` for a step's half advection)."""
    return periodic_shift_columns(f, transfer, nx)


def kick_p(f: np.ndarray, coefficients: np.ndarray, ones_v: np.ndarray,
           grid: PhaseSpaceGrid, dt: float) -> np.ndarray:
    """f(x, p) <- f(x, p - F(x, p) dt), natural cubic splines in p, zero outside.

    F = a(x) + b(x) v(p), frozen at the pre-kick p, from the rows (a, b) of
    ``forces.force_coefficients`` and a species' rows (1, v) (``grid.ones_v``).
    Per ``workspace.row_blocks`` block, s = (a + b v) dt / dp in cells is formed
    once, and the spline, its moments unscaled (dp^2/6) M, is evaluated at each
    node's foot p - s dp straight into the block's result rows.
    """
    a, b = coefficients * dt
    # v is monotone in p, so each row's largest |F dt| is at an end (NaN if any is)
    worst = float(np.max(np.abs(a[:, None] + b[:, None] * ones_v[1, [0, -1]])))
    limit = 0.25 * grid.np * grid.dp
    if not worst < limit:
        if not math.isfinite(worst):
            raise SolverAbort(
                f"non-finite momentum displacement ({worst}); check the fields")
        raise SolverAbort(
            f"momentum displacement {worst:.3e} exceeds sanity bound {limit:.3e} "
            f"({grid.np}/4 cells); reduce dt or check the fields"
        )
    rows_ab = coefficients * (dt / grid.dp)
    kicked = np.empty(f.shape)
    for rows in row_blocks(f.shape):
        cells = np.einsum("ki,kj->ij", rows_ab[:, rows], ones_v, out=work_array(0, f[rows].shape))
        moments = natural_spline_moments(f[rows], grid.spline_solve)
        eval_natural_spline(f[rows], moments, cells, out=kicked[rows])
    return kicked


def step(state: SimulationState, config: Config, grid: PhaseSpaceGrid) -> SimulationState:
    """Advance the coupled system by one dt and return the new state unbuilt,
    with f only as its read-only x-spectra.  A step reads the input's spectra,
    else an rfft of its f.  It leaves the input as it is, except that a built
    input lets its spectra go: its f stands for them.  A stage loops over the
    species; one ``force_coefficients`` call gives both kicks their rows."""
    # A run's first step builds the x multipliers, before the spectra exist.
    dt, c, nx, halves = grid.dt, config.c, grid.nx, grid.half_transfer

    # Stage 1: half advection in x, each spectrum freed after use unless an
    # unbuilt state keeps it to build its f.
    spectra = list(state.spectra or (np.fft.rfft(s.f, axis=0) for s in state.species))
    if state.plus is not None:
        state.spectra = None
    f = [advect_x(spectra.pop(0), half, nx) for half in halves]

    # Stage 2: field update, sourced by the mid-step moments.
    rho_mid = charge_density(*f, config.plus.q, config.minus.q, grid)
    j_mid = current_density(*f, config.plus.q, config.minus.q, *grid.v, grid)
    old = state.fields
    phi_new = wave_step(old.phi_prev, old.phi_curr, 4.0 * np.pi * rho_mid, grid, dt, c)
    a_new = wave_step(old.a_prev, old.a_curr, (4.0 * np.pi / c) * j_mid, grid, dt, c)

    # Stage 3: momentum kick with the force centered at the kick time.  The
    # pre-update prev level and the post-update level straddle it by dt each.
    straddle = FieldState(phi_prev=old.phi_prev, phi_curr=phi_new,
                          a_prev=old.a_prev, a_curr=a_new)
    rows = force_coefficients(straddle, grid, 2.0 * dt, config)
    if rows is not None:
        # One at a time, so that each pre-kick f is freed before the next kick.
        for i, ones_v in enumerate(grid.ones_v):
            f[i] = kick_p(f[i], rows[i], ones_v, grid, dt)

    # Stage 4: half advection in x, to the spectra the new state holds (each
    # kicked f is freed as its spectrum replaces it).
    for i, half in enumerate(halves):
        f[i] = advect_x(f[i], half, nx)
        f[i].flags.writeable = False
    fields = FieldState(phi_prev=old.phi_curr, phi_curr=phi_new, a_prev=old.a_curr, a_curr=a_new)
    new = SimulationState(state.time + dt, state.step + 1, None, None, fields)
    new.spectra = tuple(f)
    return new
