"""Strang-split semi-Lagrangian evolution of both distribution functions.

Each step executes the fixed stage sequence

    half advection in x  ->  field update  ->  momentum kick  ->  half advection in x

with the charge and current recomputed after the first half advection, at the
current field level's time (levels are staggered half a step ahead of f).  That
holds to first order in dt only: the kick moves j by O(dt), so the source lags
its level (ROADMAP item 1).  The kick force is built from the two field
levels that straddle the kick time, a centered difference spanning 2 dt.

The closing half advection hands its spectrum to the next step's opening one
(``SpeciesState.handoff``), which then skips its ``rfft``: 3 FFTs per species
and step instead of 4, with f the same to roundoff.

dt, each species' v(p), the half-step x multipliers and the kick's p-spline
solve are constants of the run, built with its grid (``grid.build_grid``); a
step reads them, and the charges from the config, and recomputes none.
"""

from __future__ import annotations

import math

import numpy as np

from .config import Config
from .fields import wave_step
from .forces import force_coefficients
from .grid import PhaseSpaceGrid
from .interpolate import eval_natural_spline, natural_spline_moments, periodic_shift_columns
from .moments import charge_density, current_density
from .state import FieldState, SimulationState, SpeciesState, refresh_moments
from .workspace import row_blocks, work_array


class KickDisplacementError(RuntimeError):
    """Momentum displacement exceeded the sanity bound (CFL or physics blow-up)."""


def advect_x(f: np.ndarray, transfer: np.ndarray, take: dict | None = None,
             keep: dict | None = None) -> np.ndarray:
    """f(x, p) <- f(x - v(p) dt, p), periodic cubic-spline interpolation in x.

    ``transfer`` is the shift's Fourier multiplier (``grid.half_transfer``
    for a step's half advection).  One ``irfft`` of rfft(f) times it.  The
    ``rfft`` is skipped for a spectrum that ``take`` (a ``SpeciesState.handoff``)
    holds for this very f object, taken out of it; ``keep`` receives the result's.
    """
    spectrum = take.pop(id(f), (None, None))[1] if take else None
    return periodic_shift_columns(f, transfer, spectrum, keep)


def kick_p(f: np.ndarray, coefficients: np.ndarray, v: np.ndarray,
           grid: PhaseSpaceGrid, dt: float) -> np.ndarray:
    """f(x, p) <- f(x, p - F(x, p) dt), natural cubic splines in p, zero outside.

    F = a(x) + b(x) v(p) from the rows of ``forces.force_coefficients`` and
    the species' v on the p nodes.  The characteristic is frozen at the
    pre-kick p.  Per ``workspace.row_blocks`` block, s = (a + b v) dt / dp in
    cells is formed once, and ``interpolate.eval_natural_spline`` writes the
    spline at each node's foot p - s dp straight into the block's result rows.
    """
    a, b = coefficients * dt
    # v is monotone in p, so each row's largest |F dt| is at an end (NaN if any is)
    worst = float(np.max(np.abs(a[:, None] + b[:, None] * v[[0, -1]])))
    limit = 0.25 * grid.np * grid.dp
    if not worst < limit:
        if not math.isfinite(worst):
            raise KickDisplacementError(
                f"non-finite momentum displacement ({worst}); check the fields")
        raise KickDisplacementError(
            f"momentum displacement {worst:.3e} exceeds sanity bound {limit:.3e} "
            f"({grid.np}/4 cells); reduce dt or check the fields"
        )
    rows_ab, ones_v = coefficients * (dt / grid.dp), np.vstack((np.ones_like(v), v))
    kicked = np.empty(f.shape)
    for rows in row_blocks(f.shape):
        cells = np.einsum("ki,kj->ij", rows_ab[:, rows], ones_v, out=work_array(0, f[rows].shape))
        moments = natural_spline_moments(f[rows], grid.dp, grid.spline_solve)
        eval_natural_spline(f[rows], moments, cells, grid.dp, out=kicked[rows])
    return kicked


def step(state: SimulationState, config: Config, grid: PhaseSpaceGrid) -> SimulationState:
    """Advance the coupled system by one dt; returns a new state.  Of the input,
    only its spectrum hand-off is taken (emptied); nothing else is touched."""
    dt, c = grid.dt, config.c
    q_plus, q_minus = config.plus.q, config.minus.q
    v_plus, v_minus = grid.v
    half_plus, half_minus = grid.half_transfer
    plus, minus = state.plus, state.minus

    # Stage 1: half advection in x, from the spectra the last step handed off.
    f_plus = advect_x(plus.f, half_plus, take=plus.handoff)
    f_minus = advect_x(minus.f, half_minus, take=minus.handoff)

    # Stage 2: field update, sourced by the mid-step moments.
    rho_mid = charge_density(f_plus, f_minus, q_plus, q_minus, grid)
    j_mid = current_density(f_plus, f_minus, q_plus, q_minus, v_plus, v_minus, grid)
    old = state.fields
    phi_new = wave_step(old.phi_prev, old.phi_curr, 4.0 * np.pi * rho_mid, grid, dt, c)
    a_new = wave_step(old.a_prev, old.a_curr, (4.0 * np.pi / c) * j_mid, grid, dt, c)

    # Stage 3: momentum kick with the force centered at the kick time.  The
    # pre-update prev level and the post-update level straddle it by dt each.
    if config.forces_enabled:
        straddle = FieldState(phi_prev=old.phi_prev, phi_curr=phi_new,
                              a_prev=old.a_prev, a_curr=a_new)

        def kicked(f, q, v):
            coefficients = force_coefficients(straddle, grid, 2.0 * dt, q, c,
                                              config.force_mode)
            return kick_p(f, coefficients, v, grid, dt)

        # One at a time, so that each pre-kick f is freed before the next kick.
        f_plus = kicked(f_plus, q_plus, v_plus)
        f_minus = kicked(f_minus, q_minus, v_minus)

    # Stage 4: half advection in x, each spectrum handed off to the next step.
    kept = {}, {}
    f_plus = advect_x(f_plus, half_plus, keep=kept[0])
    f_minus = advect_x(f_minus, half_minus, keep=kept[1])

    new_state = SimulationState(
        time=state.time + dt,
        step=state.step + 1,
        plus=SpeciesState(f_plus, handoff=kept[0]),
        minus=SpeciesState(f_minus, handoff=kept[1]),
        fields=FieldState(phi_prev=old.phi_curr, phi_curr=phi_new,
                          a_prev=old.a_curr, a_curr=a_new),
    )
    return refresh_moments(new_state, config, grid)
