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
that the solver uses: the kick, the Vlasov residual and the run comparison
read them, and no program path builds an (nx, np) force.  ``force_field``
expands the rows on the phase-space grid, as the tests' reference.  The
FieldState's two time levels bracket the evaluation time symmetrically and
are separated by ``dt``: time derivatives are the forward difference over dt,
space derivatives act on the level average, so the result is time-centered at
the midpoint.
"""

from __future__ import annotations

import numpy as np

from .fields import d1_periodic, electric_field
from .grid import PhaseSpaceGrid, velocity_from_momentum


def force_coefficients(fields, grid: PhaseSpaceGrid, dt: float, q: float, c: float,
                       mode: str) -> np.ndarray:
    """Rows a and b of F = a(x) + b(x) v(p), shape (2, nx).  modified:
    a = -(q/c) dA/dt, b = -(q/c) dA/dx, phi unread; standard: a = q E, b = 0 exactly."""
    if mode == "modified":
        da_dt = (fields.a_curr - fields.a_prev) / dt
        da_dx = d1_periodic(0.5 * (fields.a_prev + fields.a_curr), grid.dx)
        return -(q / c) * np.array([da_dt, da_dx])
    if mode == "standard":
        return np.array([q * electric_field(fields, grid, dt, c), np.zeros(grid.nx)])
    raise ValueError(f"unknown force mode {mode!r}")


def force_field(fields, grid: PhaseSpaceGrid, dt: float, q: float, m: float,
                c: float, relativistic: bool, mode: str) -> np.ndarray:
    """The force a(x) + b(x) v(p) of ``force_coefficients`` on the full grid."""
    a, b = force_coefficients(fields, grid, dt, q, c, mode)
    force = np.multiply.outer(b, velocity_from_momentum(grid.p_nodes, m, c, relativistic))
    force += a[:, None]
    return force
