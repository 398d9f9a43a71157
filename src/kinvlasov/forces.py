"""The two force laws that drive the momentum kick.

The force that drives the momentum advection here is the convective derivative
of the vector potential,

    F = -(q/c) [dA/dt + v(p) dA/dx],

which carries no -q dphi/dx term and no magnetic term.  The conventional
potential-form force

    F = q [-dphi/dx - (1/c) dA/dt]

is kept as a comparator (its magnetic part v x curl A vanishes identically in
this 1D geometry, where A has only an x component depending on x alone).

Both have the form F = a(x) + b(x) v(p), with b = 0 for the comparator, and
the rows a, b of ``force_coefficients`` are the one representation of a force
that the solver uses.  Only this module reads the force law from the config:
a field state is differentiated once for both species' rows, which the kick,
the Vlasov residual and the run comparison take, and no program path builds
an (nx, np) force.  ``force_field`` expands the rows on the phase-space grid,
as the tests' reference.  A ``fields.FieldState``'s two time levels bracket
the evaluation time symmetrically and are separated by ``dt``: time
derivatives are the forward difference over dt, space derivatives act on the
level mean (``FieldState.mid``), so the result is time-centered at the midpoint.
"""

from __future__ import annotations

import numpy as np

from .config import Config
from .fields import FieldState, d1_periodic, electric_field
from .grid import PhaseSpaceGrid


def force_coefficients(fields: FieldState, grid: PhaseSpaceGrid, dt: float,
                       config: Config) -> np.ndarray | None:
    """Rows a and b of F = a(x) + b(x) v(p) for the plus and the minus species,
    shape (2, 2, nx), or None if the preset does not kick.  modified:
    a = -(q/c) dA/dt, b = -(q/c) dA/dx, phi unread; standard: a = q E, b = +0.0."""
    if not config.forces_enabled:
        return None
    charges, c = [s.q for s in (config.plus, config.minus)], config.c
    if config.force_mode == "modified":
        da_dt = (fields.a_curr - fields.a_prev) / dt
        da_dx = d1_periodic(fields.mid()[1], grid.dx)
        return np.array([-(q / c) * np.array([da_dt, da_dx]) for q in charges])
    if config.force_mode == "standard":
        e = electric_field(fields, grid, dt, c)
        return np.array([[q * e, np.zeros(grid.nx)] for q in charges])
    raise ValueError(f"unknown force mode {config.force_mode!r}")


def force_field(fields: FieldState, grid: PhaseSpaceGrid, dt: float,
                config: Config) -> np.ndarray | None:
    """Each species' force a(x) + b(x) v(p) of ``force_coefficients`` on the
    full grid, shape (2, nx, np) with v from ``grid.v``, or None if the preset
    does not kick."""
    rows = force_coefficients(fields, grid, dt, config)
    if rows is None:
        return None
    return np.array([np.multiply.outer(b, v) + a[:, None] for (a, b), v in zip(rows, grid.v)])
