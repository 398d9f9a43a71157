"""Lorenz-gauge wave-equation field solver: the field levels, explicit
leapfrog, periodic Poisson initialization, and the gauge-condition monitor.

Both potentials obey u_tt / c^2 - u_xx = s with s = 4 pi rho for phi and
s = (4 pi / c) j for A.  The gauge condition phi_t / c + A_x = 0 is never
enforced; it is evaluated as a residual.  A ``FieldState`` holds both
potentials at two times; ``FieldState.mid`` is their one midpoint mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SolverAbort
from .grid import PhaseSpaceGrid


@dataclass
class FieldState:
    """phi and A at two times, prev before curr; an operator takes their spacing as dt."""
    phi_prev: np.ndarray
    phi_curr: np.ndarray
    a_prev: np.ndarray
    a_curr: np.ndarray

    def mid(self) -> tuple:
        """(phi, A) at the midpoint of the two times: each potential's level mean."""
        return 0.5 * (self.phi_prev + self.phi_curr), 0.5 * (self.a_prev + self.a_curr)


# Centered periodic differences of a 1-D u, its neighbours sliced (np.roll's bits, faster).

def d1_periodic(u: np.ndarray, dx: float) -> np.ndarray:
    return (np.concatenate((u[1:], u[:1])) - np.concatenate((u[-1:], u[:-1]))) / (2.0 * dx)


def d2_periodic(u: np.ndarray, dx: float) -> np.ndarray:
    return (np.concatenate((u[1:], u[:1])) - 2.0 * u + np.concatenate((u[-1:], u[:-1]))) / (dx * dx)


def l2_x(u: np.ndarray, grid: PhaseSpaceGrid) -> float:
    """Discrete L2 norm over the x cells."""
    return float(np.sqrt(np.sum(u * u) * grid.dx))


def wave_step(u_prev: np.ndarray, u_curr: np.ndarray, source: np.ndarray,
              grid: PhaseSpaceGrid, dt: float, c: float) -> np.ndarray:
    """One leapfrog update from the levels at t - dt and t; the source must be
    sampled at u_curr's time t.  The caller rotates levels."""
    u_next = (
        2.0 * u_curr
        - u_prev
        + (c * dt) ** 2 * (d2_periodic(u_curr, grid.dx) + source)
    )
    if not np.all(np.isfinite(u_next)):
        raise SolverAbort("wave update produced non-finite values")
    return u_next


def poisson_init(rho: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """Solve -D2 phi = 4 pi (rho - mean rho) exactly in the discrete sense, zero-mean.

    D2 is diagonal in the discrete Fourier basis with symbol
    (2 - 2 cos(2 pi k / nx)) / dx^2, so the solve is exact for every resolved
    mode; the k = 0 mode, which the periodic problem cannot balance, is dropped.
    Neutrality is judged by ``state.initialize_state``, not here.
    """
    rho = np.asarray(rho, dtype=float)
    nx = grid.nx
    rho_hat = np.fft.rfft(rho)
    theta = 2.0 * np.pi * np.arange(rho_hat.size) / nx
    symbol = (2.0 - 2.0 * np.cos(theta)) / grid.dx**2
    phi_hat = np.zeros_like(rho_hat)
    phi_hat[1:] = 4.0 * np.pi * rho_hat[1:] / symbol[1:]
    phi = np.fft.irfft(phi_hat, n=nx)
    return phi - phi.mean()


def gauge_residual(fields: FieldState, grid: PhaseSpaceGrid, dt: float, c: float) -> float:
    """L2 norm of phi_t / c + A_x at the levels' midpoint time, with A there
    their mean (``FieldState.mid``)."""
    r = (fields.phi_curr - fields.phi_prev) / (c * dt) + d1_periodic(fields.mid()[1], grid.dx)
    return l2_x(r, grid)


def electric_field(fields: FieldState, grid: PhaseSpaceGrid, dt: float, c: float) -> np.ndarray:
    """E = -D1 phi - (1/c) dA/dt from the stored levels, centered at their midpoint."""
    dphi_dx = d1_periodic(fields.mid()[0], grid.dx)
    return -dphi_dx - ((fields.a_curr - fields.a_prev) / dt) / c


def field_energy_proxy(fields: FieldState, grid: PhaseSpaceGrid, dt: float, c: float) -> float:
    """Quadratic field-energy proxy from the stored levels, time-centered.

    Sum of squared time derivatives (per c) and squared space derivatives of
    both potentials, integrated over x.
    """
    total = 0.0
    for u_prev, u_curr, u_mid in zip((fields.phi_prev, fields.a_prev),
                                     (fields.phi_curr, fields.a_curr), fields.mid()):
        du_dt = (u_curr - u_prev) / (c * dt)
        du_dx = d1_periodic(u_mid, grid.dx)
        total += float(np.sum(du_dt * du_dt + du_dx * du_dx) * grid.dx)
    return total
