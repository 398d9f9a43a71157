"""Uniform cell-centered phase-space grid, periodic in x and truncated in p.
Built once per run, it also holds the run's constants: dt, each species'
velocity on the p nodes and its (1, v) rows, the half-step x multipliers
and, in a run that kicks, the p-spline solve."""

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
    v: tuple             # (v_plus, v_minus) on the p nodes, one array if the masses agree
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

    @cached_property
    def _ones_v(self) -> dict:
        built = {id(v): np.vstack((np.ones_like(v), v)) for v in self.v}
        for rows in built.values():
            rows.flags.writeable = False
        return built

    def ones_v(self, v: np.ndarray) -> np.ndarray:
        """The rows (1, v) of F = a + b v: a species' read-only ones, built once, else new ones."""
        return self._ones_v[id(v)] if id(v) in self._ones_v else np.vstack((np.ones_like(v), v))


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

    def speed(p):
        return max(abs(velocity_from_momentum(p, s.m, config.c, config.relativistic))
                   for _, s in species)

    # A mass whose square underflows (0/0 at p = 0) or whose p/m overflows is rejected.
    with np.errstate(all="ignore"):
        by_mass = {s.m: velocity_from_momentum(p_nodes, s.m, config.c, config.relativistic)
                   for _, s in species}
    unrunnable = [f"species {name}: m = {s.m:g} is out of range: v(p) is not finite "
                  "on every p node" for name, s in species if not np.isfinite(by_mass[s.m]).all()]
    if unrunnable:
        raise ConfigError(unrunnable)
    # dt = cfl_fraction * dx / max(c, v_char), v_char the speed at p_max;
    # v_max is taken at the outermost node instead.
    return PhaseSpaceGrid(
        nx=config.nx,
        np=config.np,
        x_max=config.x_max,
        p_max=config.p_max,
        dx=dx,
        dp=dp,
        x_nodes=x_nodes,
        p_nodes=p_nodes,
        dt=config.cfl_fraction * dx / max(config.c, speed(config.p_max)),
        v=tuple(by_mass[s.m] for _, s in species),
        v_max=speed(np.max(np.abs(p_nodes))),
        spline_solve=natural_spline_solver(config.np) if config.forces_enabled else None,
    )
