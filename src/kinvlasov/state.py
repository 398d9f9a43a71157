"""Simulation state containers and initial-condition synthesis.

Initial distributions are normalized momentum Gaussians (width^2 = m * T).
The presets perturb or drift the minus species only; the plus species is a
spatially uniform stationary background of the same temperature, so every
preset is charge-neutral by construction while a nonzero amplitude still
produces a nonzero initial charge density.

A state's moments are caches of its f that ``refresh_moments`` fills in place.
Its field levels, a ``fields.FieldState``, are staggered half a step around f's
time: a state at time t holds (u_prev, u_curr) at t -+ dt/2.  At t = 0 both
levels equal the electrostatic solve of -phi_xx = 4 pi rho (and A = 0), which
is consistent to third order because phi_t(0) = 0 and the Poisson solve makes
phi_tt(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import PRESETS, Config, ConfigError
from .fields import FieldState, poisson_init
from .grid import PhaseSpaceGrid
from .moments import number_density, particle_flux


@dataclass
class SpeciesState:
    """A species' f and its moments; its charge and mass are read from the config."""
    f: np.ndarray  # (nx, np), particles per (length * momentum)
    n: np.ndarray | None = None     # cached moments of f, filled by refresh_moments
    flux: np.ndarray | None = None


@dataclass
class SimulationState:
    """The coupled system at one time.  Built, it holds plus, minus, rho and j;
    unbuilt, as ``vlasov.step`` returns it, those are None and ``spectra`` holds f."""
    time: float
    step: int
    plus: SpeciesState | None
    minus: SpeciesState | None
    fields: FieldState
    rho: np.ndarray | None = None  # cached sources, filled by refresh_moments
    j: np.ndarray | None = None
    # Per species rfft(f, axis=0) to roundoff, read-only, which a step reads in place
    # of an rfft of f.  ``replace`` keeps none, so a state built around its f has none.
    spectra: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def species(self):
        return (self.plus, self.minus)


def build(state: SimulationState, config: Config, grid: PhaseSpaceGrid) -> SimulationState:
    """Fill in an unbuilt state's plus, minus, rho and j in place, by one irfft
    per species and one moment pass, and return it; its spectra are kept."""
    if state.plus is None:
        state.plus, state.minus = (SpeciesState(np.fft.irfft(spectrum, n=grid.nx, axis=0))
                                   for spectrum in state.spectra)
        refresh_moments(state, config, grid)
    return state


def momentum_gaussian(p_nodes: np.ndarray, m: float, temperature: float,
                      drift: float, dp: float, name: str = "") -> np.ndarray:
    """Gaussian in p with width^2 = m * temperature, normalized so the midpoint
    quadrature over the grid is exactly 1.  One that is 0 at every node (even
    at the node nearest its centre it underflows) is a ``ConfigError`` naming
    species ``name``."""
    sigma_sq = m * temperature
    with np.errstate(over="ignore"):    # an exponent that overflows to -inf gives 0 anyway
        g = np.exp(-((p_nodes - drift) ** 2) / (2.0 * sigma_sq))
    total = np.sum(g)
    if not total > 0.0:
        raise ConfigError([f"species {name}: no p node resolves the initial Gaussian: "
                           f"m * temperature = {sigma_sq:g} against dp = {dp:g}"])
    return g / (total * dp)


def _preset_f(config: Config, grid: PhaseSpaceGrid):
    init = config.init
    if init.preset not in PRESETS:
        raise ValueError(f"unknown preset {init.preset!r}")
    wave = 1.0 + init.amplitude * np.cos(2.0 * np.pi * init.k_mode * grid.x_nodes / config.x_max)
    # two_stream's minus species is the mean of two Gaussians drifting apart.
    drifts = (init.drift, -init.drift) if init.preset == "two_stream" else (init.drift,)
    g_minus = sum(momentum_gaussian(grid.p_nodes, config.minus.m, init.temperature,
                                    drift, grid.dp, "minus") for drift in drifts) / len(drifts)
    g_plus = momentum_gaussian(grid.p_nodes, config.plus.m, init.temperature,
                               0.0, grid.dp, "plus")
    return np.tile(init.n0 * g_plus, (grid.nx, 1)), init.n0 * wave[:, None] * g_minus[None, :]


def refresh_moments(state: SimulationState, config: Config,
                    grid: PhaseSpaceGrid) -> SimulationState:
    """The one moment pass over the current f: fill each species' n and flux,
    and the rho, j they sum to, in place (recompute-on-write); return ``state``."""
    plus, minus = state.species
    for s, v in zip(state.species, grid.v):
        s.n, s.flux = number_density(s.f, grid), particle_flux(s.f, v, grid)
    q_plus, q_minus = config.plus.q, config.minus.q
    state.rho = q_plus * plus.n + q_minus * minus.n
    state.j = q_plus * plus.flux + q_minus * minus.flux
    return state


def initialize_state(config: Config, grid: PhaseSpaceGrid) -> SimulationState:
    f_plus, f_minus = _preset_f(config, grid)
    state = SimulationState(0.0, 0, SpeciesState(f_plus), SpeciesState(f_minus), fields=None)
    refresh_moments(state, config, grid)

    # An unperturbed neutral plasma has no sources; scrub quadrature roundoff
    # below 1e-13 of the natural source scales so it stays an exact fixed point.
    q_scale = max(abs(config.plus.q), abs(config.minus.q))
    rho_scale = q_scale * config.init.n0
    v_scale = np.sqrt(config.init.temperature / config.minus.m) + abs(config.init.drift) / config.minus.m
    if np.max(np.abs(state.rho)) <= 1e-13 * rho_scale:
        state.rho = np.zeros(grid.nx)
    if np.max(np.abs(state.j)) <= 1e-13 * rho_scale * v_scale:
        state.j = np.zeros(grid.nx)

    # Against q n0, not max|rho| = O(amplitude), which mean-rho roundoff can exceed.
    if abs(np.mean(state.rho)) > 1e-12 * rho_scale:
        raise ConfigError([f"initial state is non-neutral (mean rho {np.mean(state.rho):.3e});"
                           " a periodic domain requires zero total charge"])
    phi0 = poisson_init(state.rho, grid)
    state.fields = FieldState(phi_prev=phi0.copy(), phi_curr=phi0,
                              a_prev=np.zeros(grid.nx), a_curr=np.zeros(grid.nx))
    return state
