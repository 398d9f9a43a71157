"""Uniform cell-centered phase-space grid, periodic in x and truncated in p.
Built once per run, it also holds the run's constants: dt, each species' (1, v)
rows on the p nodes, the p-basis of every force F = a + b v, the half-step x
multipliers and, in a run that kicks, the p-spline solve."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import Config, ConfigError
from .interpolate import natural_spline_solver, periodic_shift_transfer


def velocity_from_momentum(p, m: float, c: float, relativistic: bool):
    """v = p / sqrt(m^2 + p^2/c^2) relativistically, p/m otherwise; |v| < c always holds."""
    p = np.asarray(p, dtype=float) if np.ndim(p) else float(p)
    if not relativistic:
        return p / m
    return p / np.sqrt(m * m + (p * p) / (c * c))


@dataclass(frozen=True, eq=False)
class PhaseSpaceGrid:
    nx: int
    np: int
    x_max: float
    p_max: float
    dx: float
    dp: float
    x_nodes: np.ndarray  # (nx,) cell centers in [0, x_max)
    p_nodes: np.ndarray  # (np,) cell centers in [-p_max, p_max], symmetric about 0
    dt: float
    ones_v: tuple        # per species its (1, v) rows, shape (2, np); one array per mass
    v: tuple             # per species v on the p nodes: row 1 of its ones_v, one view per mass
    v_max: float         # fastest |v| on the p nodes across both species
    spline_solve: object  # the p-kick's natural_spline_solver(np); None if nothing kicks

    @cached_property
    def half_transfer(self) -> tuple:
        """Per species, the read-only Fourier multiplier of a dt/2 x-advection
        (one for species that share v), built at first use, outside a run's setup."""
        built = {id(v): periodic_shift_transfer(self.nx, v * (0.5 * self.dt) / self.dx)
                 for v in self.v}
        for transfer in built.values():
            transfer.flags.writeable = False
        return tuple(built[id(v)] for v in self.v)


def build_grid(config: Config) -> PhaseSpaceGrid:
    dx = config.x_max / config.nx
    dp = 2.0 * config.p_max / config.np
    # The wave and Poisson operators divide by dx * dx; v(p) divides by c * c
    # and squares every p up to p_max.
    for name, value, ok in (("dx = x_max / nx", dx, 0.0 < dx * dx < math.inf),
                            ("c", config.c, config.c * config.c > 0.0),
                            ("p_max", config.p_max, config.p_max * config.p_max < math.inf)):
        if not ok:
            raise ConfigError([f"{name} = {value:g} is out of range: its square is "
                               f"{value * value:g}"])
    x_nodes = (np.arange(config.nx) + 0.5) * dx
    p_nodes = -config.p_max + (np.arange(config.np) + 0.5) * dp

    species = (("plus", config.plus), ("minus", config.minus))
    # A mass whose square underflows (0/0 at p = 0) or whose p/m overflows is rejected.
    with np.errstate(all="ignore"):
        by_mass = {s.m: np.vstack((np.ones(config.np), velocity_from_momentum(
            p_nodes, s.m, config.c, config.relativistic))) for _, s in species}
    unrunnable = [f"species {name}: m = {s.m:g} is out of range: v(p) is not finite "
                  "on every p node" for name, s in species if not np.isfinite(by_mass[s.m]).all()]
    if unrunnable:
        raise ConfigError(unrunnable)
    for rows in by_mass.values():
        rows.flags.writeable = False
    v = {m: rows[1] for m, rows in by_mass.items()}
    # dt = cfl_fraction * dx / max(c, v_char), v_char the speed at p_max; v_max
    # is |v| at the outermost node (at the other end roundoff can add an ulp).
    return PhaseSpaceGrid(
        nx=config.nx,
        np=config.np,
        x_max=config.x_max,
        p_max=config.p_max,
        dx=dx,
        dp=dp,
        x_nodes=x_nodes,
        p_nodes=p_nodes,
        dt=config.cfl_fraction * dx / max(config.c, *(abs(velocity_from_momentum(
            config.p_max, m, config.c, config.relativistic)) for m in by_mass)),
        ones_v=tuple(by_mass[s.m] for _, s in species),
        v=tuple(v[s.m] for _, s in species),
        v_max=max(abs(float(row[np.argmax(np.abs(p_nodes))])) for row in v.values()),
        spline_solve=natural_spline_solver(config.np) if config.forces_enabled else None,
    )
