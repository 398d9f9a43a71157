"""Pointwise relativistic kinematics and the two force laws.

The force that drives the momentum advection here is the convective derivative
of the vector potential,

    F = -(q/c) [dA/dt + v(p) dA/dx],

which carries no -q dphi/dx term and no magnetic term.  The conventional
potential-form force

    F = q [-dphi/dx - (1/c) dA/dt]

is kept as a comparator (its magnetic part v x curl A vanishes identically in
this 1D geometry, where A has only an x component depending on x alone).

Both force builders take a FieldState whose two time levels bracket the
evaluation time symmetrically and are separated by ``dt``: time derivatives are
the forward difference over dt, space derivatives act on the level average, so
the result is time-centered at the midpoint.
"""

from __future__ import annotations

import numpy as np

from .fields import d1_periodic
from .grid import PhaseSpaceGrid


def velocity_from_momentum(p, m: float, c: float, relativistic: bool):
    """v = p / sqrt(m^2 + p^2/c^2) relativistically, p/m otherwise; |v| < c always holds."""
    p = np.asarray(p, dtype=float) if np.ndim(p) else float(p)
    if not relativistic:
        return p / m
    return p / np.sqrt(m * m + (p * p) / (c * c))


def modified_force(fields, grid: PhaseSpaceGrid, dt: float, q: float, m: float,
                   c: float, relativistic: bool) -> np.ndarray:
    """F(x, p) = -(q/c) [dA/dt + v(p) dA/dx] on the full phase-space grid.

    phi is never read: this force law has no electrostatic-gradient term.
    """
    da_dt = (fields.a_curr - fields.a_prev) / dt
    da_dx = d1_periodic(0.5 * (fields.a_prev + fields.a_curr), grid.dx)
    v = velocity_from_momentum(grid.p_nodes, m, c, relativistic)
    force = np.multiply.outer(da_dx, v)
    force += da_dt[:, None]
    force *= -(q / c)
    return force


def standard_force(fields, grid: PhaseSpaceGrid, dt: float, q: float,
                   c: float) -> np.ndarray:
    """F(x) = q [-dphi/dx - (1/c) dA/dt], broadcast over p (row-constant).

    The magnetic term q/c v x curl A is identically zero in this geometry and
    is therefore omitted rather than computed.
    """
    dphi_dx = d1_periodic(0.5 * (fields.phi_prev + fields.phi_curr), grid.dx)
    da_dt = (fields.a_curr - fields.a_prev) / dt
    fx = q * (-dphi_dx - da_dt / c)
    return np.repeat(fx[:, None], grid.np, axis=1)


def force_field(fields, grid: PhaseSpaceGrid, dt: float, q: float, m: float,
                c: float, relativistic: bool, mode: str) -> np.ndarray:
    if mode == "modified":
        return modified_force(fields, grid, dt, q, m, c, relativistic)
    if mode == "standard":
        return standard_force(fields, grid, dt, q, c)
    raise ValueError(f"unknown force mode {mode!r}")
