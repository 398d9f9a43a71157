"""Momentum-space quadratures of the distribution functions.

All moments use the midpoint rule on the cell-centered p grid; the symmetric
node placement makes odd-integrand cancellations exact to roundoff.  Current
and flux integrands are weighted by the relativistic velocity v(p), never by
p/m directly.

Number density and particle flux are the only quadratures; the charge and
current densities are their charge-weighted sums over the two species.
"""

from __future__ import annotations

import numpy as np

from .fields import d1_periodic, l2_x
from .grid import PhaseSpaceGrid


def number_density(f, grid: PhaseSpaceGrid) -> np.ndarray:
    return np.einsum("ij->i", f) * grid.dp


def particle_flux(f, v: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """The flux of f, whose species has velocity v on the p nodes (``grid.v``)."""
    # einsum takes the product and the sum in one pass, without BLAS, whose
    # reductions may be ordered by the thread count.
    return np.einsum("ij,j->i", f, v) * grid.dp


def charge_density(f_plus, f_minus, q_plus: float, q_minus: float,
                   grid: PhaseSpaceGrid) -> np.ndarray:
    return q_plus * number_density(f_plus, grid) + q_minus * number_density(f_minus, grid)


def current_density(f_plus, f_minus, q_plus: float, q_minus: float,
                    v_plus: np.ndarray, v_minus: np.ndarray,
                    grid: PhaseSpaceGrid) -> np.ndarray:
    return (q_plus * particle_flux(f_plus, v_plus, grid)
            + q_minus * particle_flux(f_minus, v_minus, grid))


def continuity_residual(n_prev, n_next, flux_mid, grid: PhaseSpaceGrid,
                        dt: float, time_factor: float = 1.0) -> float:
    """L2 norm of the species continuity residual, centered at flux_mid's time.

    The default time_factor of 1 gives the dimensionally consistent
    dn/dt + d(flux)/dx; time_factor = 1/c reproduces the alternative form that
    scales the time term by 1/c (both are reported by the equation ledger).
    """
    r = time_factor * (n_next - n_prev) / (2.0 * dt) + d1_periodic(flux_mid, grid.dx)
    return l2_x(r, grid)
