"""Strang-split semi-Lagrangian evolution of both distribution functions.

Each step executes the fixed stage sequence

    half advection in x  ->  field update  ->  momentum kick  ->  half advection in x

with the charge and current recomputed after the first half advection, at the
current field level's time (levels are staggered half a step ahead of f).  That
holds to first order in dt only: the kick moves j by O(dt), so the source lags
its level (ROADMAP: "time-centre the current source").  The kick force is
built from the two field levels that straddle the kick time, a centered
difference spanning 2 dt.

The closing half advection hands its spectrum to the next step's opening one
(``SpeciesState.handoff``), which then skips its ``rfft``: 3 FFTs per species
and step instead of 4, with f the same to roundoff.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .config import Config
from .fields import wave_step
from .forces import force_coefficients, velocity_from_momentum
from .grid import PhaseSpaceGrid
from .interpolate import (
    eval_natural_spline,
    natural_spline_moments,
    periodic_shift_columns,
    periodic_shift_transfer,
)
from .moments import charge_density, current_density
from .state import FieldState, SimulationState, SpeciesState, refresh_moments
from .workspace import work_array


class KickDisplacementError(RuntimeError):
    """Momentum displacement exceeded the sanity bound (CFL or physics blow-up)."""


def time_step(config: Config, grid: PhaseSpaceGrid) -> float:
    """dt = cfl_fraction * dx / max(c, v_char), v_char the fastest grid velocity."""
    v_char = max(
        abs(velocity_from_momentum(config.p_max, s.m, config.c, config.relativistic))
        for s in config.species
    )
    return config.cfl_fraction * grid.dx / max(config.c, v_char)


def max_velocity(config: Config, grid: PhaseSpaceGrid) -> float:
    """Fastest |v| reachable on the momentum grid across both species."""
    p_edge = np.max(np.abs(grid.p_nodes))
    return max(
        abs(velocity_from_momentum(p_edge, s.m, config.c, config.relativistic))
        for s in config.species
    )


@lru_cache(maxsize=16)
def advection_transfer(grid: PhaseSpaceGrid, dt: float, m: float, c: float,
                       relativistic: bool) -> np.ndarray:
    """Fourier transfer function of ``advect_x``, built once per run and species.

    Every input is part of the cache key, and a grid hashes by identity and is
    held by the cache, so an entry is never handed to another grid or step.
    The array is read-only because every caller shares it.
    """
    v = velocity_from_momentum(grid.p_nodes, m, c, relativistic)
    transfer = periodic_shift_transfer(grid.nx, v * dt / grid.dx)
    transfer.flags.writeable = False
    return transfer


def advect_x(f: np.ndarray, grid: PhaseSpaceGrid, dt: float, m: float,
             c: float, relativistic: bool, take: dict | None = None,
             keep: dict | None = None) -> np.ndarray:
    """f(x, p) <- f(x - v(p) dt, p), periodic cubic-spline interpolation in x.

    One ``irfft`` of rfft(f) times the transfer.  The ``rfft`` is skipped for a
    spectrum that ``take`` (a ``SpeciesState.handoff``) holds for this very f
    object, taken out of it; ``keep`` receives the result's.
    """
    if dt == 0.0:
        return f.copy()
    spectrum = take.pop(id(f), (None, None))[1] if take else None
    transfer = advection_transfer(grid, dt, m, c, relativistic)
    return periodic_shift_columns(f, transfer, spectrum, keep)


def kick_p(f: np.ndarray, coefficients: np.ndarray, v: np.ndarray,
           grid: PhaseSpaceGrid, dt: float) -> np.ndarray:
    """f(x, p) <- f(x, p - F(x, p) dt), natural cubic splines in p, zero outside.

    F = a(x) + b(x) v(p) from the rows of ``forces.force_coefficients`` and
    the species' v on the p nodes.  The characteristic is frozen at the
    pre-kick p.  Its displacement in cells, s = (a + b v) dt / dp, is formed
    once; ``interpolate.eval_natural_spline`` evaluates the spline at each
    node's foot p - s dp from node-local Taylor terms.
    """
    if dt == 0.0 or not np.any(coefficients):
        return f.copy()
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
    cells = np.einsum("ki,kj->ij", coefficients * (dt / grid.dp),
                      np.vstack((np.ones_like(v), v)), out=work_array(0, f.shape))
    return eval_natural_spline(f, natural_spline_moments(f, grid.dp), cells, grid.dp)


def step(state: SimulationState, config: Config, grid: PhaseSpaceGrid) -> SimulationState:
    """Advance the coupled system by one dt; returns a new state.  Of the input,
    only its spectrum hand-off is taken (emptied); nothing else is touched."""
    dt = time_step(config, grid)
    half = 0.5 * dt
    c = config.c
    rel = config.relativistic
    plus, minus = state.plus, state.minus

    # Stage 1: half advection in x, from the spectra the last step handed off.
    f_plus = advect_x(plus.f, grid, half, plus.m, c, rel, take=plus.handoff)
    f_minus = advect_x(minus.f, grid, half, minus.m, c, rel, take=minus.handoff)

    # Stage 2: field update, sourced by the mid-step moments.
    rho_mid = charge_density(f_plus, f_minus, plus.q, minus.q, grid)
    j_mid = current_density(f_plus, f_minus, plus.q, minus.q, plus.m, minus.m,
                            c, rel, grid)
    old = state.fields
    phi_new = wave_step(old.phi_prev, old.phi_curr, 4.0 * np.pi * rho_mid, grid, dt, c)
    a_new = wave_step(old.a_prev, old.a_curr, (4.0 * np.pi / c) * j_mid, grid, dt, c)

    # Stage 3: momentum kick with the force centered at the kick time.  The
    # pre-update prev level and the post-update level straddle it by dt each.
    if config.forces_enabled:
        straddle = FieldState(phi_prev=old.phi_prev, phi_curr=phi_new,
                              a_prev=old.a_prev, a_curr=a_new)

        def kicked(f, species):
            coefficients = force_coefficients(straddle, grid, 2.0 * dt, species.q, c,
                                              config.force_mode)
            v = velocity_from_momentum(grid.p_nodes, species.m, c, rel)
            return kick_p(f, coefficients, v, grid, dt)

        f_plus, f_minus = kicked(f_plus, plus), kicked(f_minus, minus)

    # Stage 4: half advection in x, each spectrum handed off to the next step.
    kept = {}, {}
    f_plus = advect_x(f_plus, grid, half, plus.m, c, rel, keep=kept[0])
    f_minus = advect_x(f_minus, grid, half, minus.m, c, rel, keep=kept[1])

    new_state = SimulationState(
        time=state.time + dt,
        step=state.step + 1,
        plus=SpeciesState(plus.q, plus.m, f_plus, handoff=kept[0]),
        minus=SpeciesState(minus.q, minus.m, f_minus, handoff=kept[1]),
        fields=FieldState(phi_prev=old.phi_curr, phi_curr=phi_new,
                          a_prev=old.a_curr, a_curr=a_new),
    )
    return refresh_moments(new_state, config, grid)
