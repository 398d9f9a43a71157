"""Built-in verification suite: fixed hermetic oracle cases, no config files.

Every case checks the solver against an independent reference: an exact
translated solution, a closed-form wave or electrostatic solution, Gaussian
moment identities, manufactured residual fields, or the kinetic Landau root
of a Langmuir wave.  Each case returns a ``CaseResult``, and
``kinvlasov verify`` prints it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Config, InitConfig, SolverAbort, SpeciesConfig, validate_config
from .fields import FieldState, d2_periodic, electric_field, gauge_residual, poisson_init, wave_step
from .grid import build_grid
from .moments import continuity_residual, current_density, particle_flux
from .runner import run_simulation
from .state import initialize_state, momentum_gaussian
from .vlasov import step


# Pass thresholds shared by the cases below and the acceptance tests.
MIN_CONVERGENCE_ORDER = 1.8  # free streaming, manufactured and ledger residuals
WAVE_ORDER = 2.0             # leapfrog wave equation, within WAVE_ORDER_TOL
WAVE_ORDER_TOL = 0.3
# The kinetic Landau root of 1 + (1 + zeta Z(zeta)) / (k lambda_D)^2 = 0 at k lambda_D = 0.3
# (Fried & Conte, 1961), and the relative tolerances on its omega and gamma.
LANGMUIR_OMEGA, LANGMUIR_GAMMA = 1.159846, -0.0126204
LANGMUIR_OMEGA_TOL, LANGMUIR_GAMMA_TOL = 1e-3, 1e-2


@dataclass
class CaseResult:
    name: str
    passed: bool
    details: str


def matrix_pencil(series, dt: float, n_poles: int) -> np.ndarray:
    """The complex rates gamma + i omega of the n_poles complex exponentials
    that best fit a series sampled every dt, by the matrix pencil (Hua &
    Sarkar, IEEE Trans. Acoust. Speech Signal Process. 38, 1990): the rows of
    a Hankel matrix's SVD truncated to n_poles, shifted by one sample, have
    the poles z = exp((gamma + i omega) dt) as their pencil's eigenvalues."""
    series = np.asarray(series, dtype=complex)
    width = series.size // 2    # the pencil parameter: n_poles <= width <= size - n_poles
    if width < n_poles:
        raise ValueError(f"a {n_poles}-pole fit needs at least {2 * n_poles} samples, "
                         f"got {series.size}")
    hankel = np.lib.stride_tricks.sliding_window_view(series, width + 1)
    rows = np.linalg.svd(hankel, full_matrices=False)[2][:n_poles]
    shift = np.linalg.lstsq(rows[:, :-1].T, rows[:, 1:].T)[0]
    return np.log(np.linalg.eigvals(shift)) / dt


# --- free streaming against the exact translated solution -------------------

def _free_stream_config(nx: int, n_p: int) -> Config:
    # cfl_fraction chosen so dt = t_end / 100 at nx = 64 and halves with dx.
    return Config(
        nx=nx, x_max=8.0, np=n_p, p_max=6.0,
        c=2.0, relativistic=False, force_mode="modified",
        cfl_fraction=0.96, t_end=2.0, output_every=1000,
        init=InitConfig(preset="free_stream", n0=1.0, amplitude=0.5,
                        k_mode=1, temperature=0.49, drift=0.0),
    )


def free_streaming_error(nx: int, n_p: int) -> tuple[float, int]:
    config = _free_stream_config(nx, n_p)
    result = run_simulation(config)
    grid = result.grid
    state = result.final_state

    gaussian = momentum_gaussian(grid.p_nodes, config.minus.m,
                                 config.init.temperature, 0.0, grid.dp)
    v = grid.p_nodes / config.minus.m
    phase = 2.0 * np.pi * config.init.k_mode / config.x_max
    x_shifted = grid.x_nodes[:, None] - v[None, :] * state.time
    exact = config.init.n0 * gaussian[None, :] * (
        1.0 + config.init.amplitude * np.cos(phase * x_shifted)
    )
    err = float(np.sqrt(np.sum((state.minus.f - exact) ** 2) * grid.dx * grid.dp))
    return err, result.n_steps


def case_free_streaming() -> CaseResult:
    err_coarse, steps_coarse = free_streaming_error(64, 64)
    err_fine, steps_fine = free_streaming_error(128, 128)
    order = math.log2(err_coarse / err_fine)
    passed = order >= MIN_CONVERGENCE_ORDER
    return CaseResult(
        "free_streaming", passed,
        f"L2 errors {err_coarse:.3e} -> {err_fine:.3e} over {(steps_coarse, steps_fine)} steps, "
        f"observed order {order:.2f} (need >= {MIN_CONVERGENCE_ORDER})",
    )


# --- homogeneous wave equation against cos(kx) cos(ckt) ----------------------

def wave_mms_error(nx: int) -> float:
    """Largest Linf deviation from cos(kx) cos(ckt) over one period, at c dt / dx = 1/2."""
    config = Config(nx=nx, x_max=2.0 * math.pi, np=8, p_max=8.0, c=1.0)
    grid = build_grid(config)
    c = config.c
    k = 1.0
    dt = 0.5 * grid.dx / c
    u0 = np.cos(k * grid.x_nodes)
    source = np.zeros(grid.nx)
    # Second-order start for u_t(0) = 0.
    u_prev = u0
    u_curr = u0 + 0.5 * (c * dt) ** 2 * d2_periodic(u0, grid.dx)
    t = dt
    period = 2.0 * math.pi / (c * k)
    n_steps = round(period / dt) - 1
    worst = 0.0
    for _ in range(n_steps):
        u_next = wave_step(u_prev, u_curr, source, grid, dt, c)
        u_prev, u_curr = u_curr, u_next
        t += dt
        exact = np.cos(k * grid.x_nodes) * math.cos(c * k * t)
        worst = max(worst, float(np.max(np.abs(u_curr - exact))))
    return worst


def case_wave_mms() -> CaseResult:
    errors = [wave_mms_error(nx) for nx in (64, 128, 256)]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    passed = all(abs(o - WAVE_ORDER) <= WAVE_ORDER_TOL for o in orders)
    return CaseResult(
        "wave_mms", passed,
        f"Linf errors {', '.join(f'{e:.3e}' for e in errors)} at nx=64,128,256; "
        f"orders {', '.join(f'{o:.2f}' for o in orders)} "
        f"(need {WAVE_ORDER} +- {WAVE_ORDER_TOL})",
    )


# --- periodic electrostatic solve on an exactly resolved mode ----------------

def case_poisson_mode() -> CaseResult:
    config = Config(nx=64, x_max=2.0 * math.pi, np=8, p_max=8.0)
    grid = build_grid(config)
    k = 3.0
    rho = np.cos(k * grid.x_nodes)
    phi = poisson_init(rho, grid)
    k_discrete_sq = (2.0 - 2.0 * math.cos(k * grid.dx)) / grid.dx**2
    expected = 4.0 * math.pi * rho / k_discrete_sq
    rel = float(np.max(np.abs(phi - expected)) / np.max(np.abs(expected)))
    mean_abs = abs(float(phi.mean()))
    identity = float(
        np.max(np.abs(-d2_periodic(phi, grid.dx) - 4.0 * np.pi * rho))
        / (4.0 * np.pi * np.max(np.abs(rho)))
    )
    passed = rel <= 1e-12 and mean_abs <= 1e-12 and identity <= 1e-10
    return CaseResult(
        "poisson_mode", passed,
        f"mode error {rel:.2e} (<= 1e-12), mean {mean_abs:.2e}, "
        f"-D2 phi vs 4 pi rho {identity:.2e} (<= 1e-10)",
    )


# --- moment quadratures against Gaussian identities --------------------------

def case_moment_oracles() -> CaseResult:
    config = Config(nx=16, x_max=4.0, np=128, p_max=8.0, c=4.0, relativistic=False)
    grid = build_grid(config)
    q, m, n0 = -0.5, 1.0, 1.3   # m is both config species' mass, so grid.v is v(p) twice
    checks = []

    # Parity: even f gives vanishing current and flux.
    g_even = momentum_gaussian(grid.p_nodes, m, 1.0, 0.0, grid.dp)
    f_even = n0 * np.ones((grid.nx, 1)) * g_even[None, :]
    zero_f = np.zeros_like(f_even)
    j_even = current_density(f_even, zero_f, q, -q, *grid.v, grid)
    flux_even = particle_flux(f_even, grid.v[1], grid)
    scale = abs(q) * n0
    checks.append(("parity", float(np.max(np.abs(j_even))) <= 1e-12 * scale
                   and float(np.max(np.abs(flux_even))) <= 1e-12 * scale))

    # First moment of a drifting Maxwellian: j = q n0 drift / m.
    drift = 0.75
    g_drift = momentum_gaussian(grid.p_nodes, m, 1.0, drift, grid.dp)
    f_drift = n0 * np.ones((grid.nx, 1)) * g_drift[None, :]
    j_drift = current_density(f_drift, zero_f, q, -q, *grid.v, grid)
    rel_j = float(np.max(np.abs(j_drift - q * n0 * drift / m))
                  / abs(q * n0 * drift / m))
    checks.append(("drift_current", rel_j <= 1e-6))

    # Narrow relativistic beam approaches q n0 v(p0).
    beam_cfg = Config(nx=8, x_max=1.0, np=1600, p_max=4.0, c=1.0, relativistic=True)
    beam_grid = build_grid(beam_cfg)
    p0, width = 2.0, 0.02
    g_beam = momentum_gaussian(beam_grid.p_nodes, 1.0, width**2, p0, beam_grid.dp)
    f_beam = n0 * np.ones((beam_grid.nx, 1)) * g_beam[None, :]
    j_beam = current_density(f_beam, np.zeros_like(f_beam), q, -q, *beam_grid.v, beam_grid)
    v0 = p0 / math.sqrt(1.0 + p0 * p0)
    rel_beam = float(np.max(np.abs(j_beam - q * n0 * v0)) / abs(q * n0 * v0))
    checks.append(("cold_beam", rel_beam <= 1e-4))

    # Densities agree with a ten-times-finer quadrature of the same preset.
    n_coarse, n_fine = (initialize_state(cfg, build_grid(cfg)).minus.n
                        for cfg in (Config(np=128), Config(np=1280)))
    rel_n = float(np.max(np.abs(n_coarse - n_fine)) / np.max(np.abs(n_fine)))
    checks.append(("fine_quadrature", rel_n <= 1e-6))

    failed = [name for name, ok in checks if not ok]
    return CaseResult(
        "moment_oracles", not failed,
        "all Gaussian moment identities hold" if not failed
        else f"failed: {', '.join(failed)}",
    )


# --- manufactured gauge and continuity residuals -----------------------------

def _gauge_manufactured_l2(nx: int) -> float:
    config = Config(nx=nx, x_max=2.0 * math.pi, np=8, p_max=8.0, c=2.0)
    grid = build_grid(config)
    c, k, dt = config.c, 1.0, 0.01
    # phi = c t sin(kx) with A = cos(kx)/k satisfies phi_t / c + A_x = 0.
    a_static = np.cos(k * grid.x_nodes) / k
    fields = FieldState(phi_prev=c * 0.0 * np.sin(k * grid.x_nodes),
                        phi_curr=c * dt * np.sin(k * grid.x_nodes),
                        a_prev=a_static, a_curr=a_static.copy())
    return gauge_residual(fields, grid, dt, c)


def _continuity_manufactured_l2(nx: int) -> float:
    config = Config(nx=nx, x_max=2.0 * math.pi, np=8, p_max=8.0)
    grid = build_grid(config)
    eps, k, omega = 0.01, 1.0, 1.3
    dt = 0.4 * grid.dx
    t = 0.7

    def n_of(tt):
        return 1.0 + eps * np.cos(k * grid.x_nodes - omega * tt)

    flux = (omega / k) * eps * np.cos(k * grid.x_nodes - omega * t)
    return continuity_residual(n_of(t - dt), n_of(t + dt), flux, grid, dt)


def case_manufactured_residuals() -> CaseResult:
    gauge_order = math.log2(_gauge_manufactured_l2(32) / _gauge_manufactured_l2(64))
    cont_order = math.log2(_continuity_manufactured_l2(32) / _continuity_manufactured_l2(64))
    passed = gauge_order >= MIN_CONVERGENCE_ORDER and cont_order >= MIN_CONVERGENCE_ORDER
    return CaseResult(
        "manufactured_residuals", passed,
        f"gauge residual order {gauge_order:.2f}, continuity residual order "
        f"{cont_order:.2f} (need >= {MIN_CONVERGENCE_ORDER})",
    )


# --- warm Langmuir wave in the comparator force mode against its Landau root -

def langmuir_config() -> Config:
    # Equal-mass pair plasma normalized to total plasma frequency 1; thermal
    # momentum spread 1, so k lambda_D = k = 0.3 with x_max = 2 pi / 0.3.
    # c is large enough that the free wave transients launched by the
    # electrostatic start (amplitude ~ (omega/ck)^2) stay below the noise.
    q = 1.0 / math.sqrt(8.0 * math.pi)
    return Config(
        nx=64, x_max=2.0 * math.pi / 0.3, np=256, p_max=8.0,
        c=30.0, relativistic=False, force_mode="standard",
        cfl_fraction=0.9, t_end=25.0,
        plus=SpeciesConfig(+q, 1.0), minus=SpeciesConfig(-q, 1.0),
        init=InitConfig(preset="landau", n0=1.0, amplitude=1e-3, k_mode=1,
                        temperature=1.0, drift=0.0),
    )


def case_langmuir_comparator() -> CaseResult:
    # Step without rows, reading e1, the mode-1 coefficient of E, after each step;
    # fit t in [5, t_end], decimated to at most 256 samples, with 4 poles.
    config = validate_config(langmuir_config())
    grid = build_grid(config)
    state, first, e1 = initialize_state(config, grid), math.ceil(5.0 / grid.dt), []
    try:
        for n in range(1, round(config.t_end / grid.dt) + 1):
            state = step(state, config, grid)
            if n >= first:
                e1.append(np.fft.rfft(electric_field(state.fields, grid, grid.dt, config.c))[1])
    except SolverAbort as exc:
        return CaseResult("langmuir_comparator", False, f"solver aborted at step {n}: {exc}")
    stride = math.ceil(len(e1) / 256)
    rates = matrix_pencil(e1[::stride], stride * grid.dt, 4)
    fit = rates[np.argmin(np.abs(rates - complex(LANGMUIR_GAMMA, LANGMUIR_OMEGA)))]
    err_omega = abs(fit.imag / LANGMUIR_OMEGA - 1.0)
    err_gamma = abs(fit.real / LANGMUIR_GAMMA - 1.0)
    passed = err_omega <= LANGMUIR_OMEGA_TOL and err_gamma <= LANGMUIR_GAMMA_TOL
    return CaseResult(
        "langmuir_comparator", passed,
        f"omega {fit.imag:.5f}, gamma {fit.real:.6f} vs Landau root {LANGMUIR_OMEGA:.5f}, "
        f"{LANGMUIR_GAMMA:.6f} (off by {err_omega:.1e} and {err_gamma:.1e}, need <= "
        f"{LANGMUIR_OMEGA_TOL:g} and {LANGMUIR_GAMMA_TOL:g})",
    )


CASES = {
    "free_streaming": case_free_streaming,
    "wave_mms": case_wave_mms,
    "poisson_mode": case_poisson_mode,
    "moment_oracles": case_moment_oracles,
    "manufactured_residuals": case_manufactured_residuals,
    "langmuir_comparator": case_langmuir_comparator,
}
