"""kinvlasov: a 1D1V two-species relativistic kinetic plasma solver.

The evolved system couples two collisionless kinetic equations to Lorenz-gauge
wave equations for the potentials phi and A.  The force acting on the
distributions is the convective derivative of the vector potential,
F = -(q/c)(dA/dt + v dA/dx); the conventional potential-form Lorentz force is
available as a comparator mode.  The gauge condition and the minus-species
continuity equation are monitored as residuals rather than enforced, making
the redundancy of the overdetermined system a runtime consistency check.
"""

__version__ = "0.1.0"

from .config import (  # noqa: F401
    Config,
    ConfigError,
    InitConfig,
    SpeciesConfig,
    load_config,
    parse_config,
    validate_config,
)
from .diagnostics import (  # noqa: F401
    LEDGER_LAYOUT,
    DiagnosticsRecord,
    compare_runs,
    conserved_totals,
    residual_report,
    vlasov_residual,
)
from .fields import (  # noqa: F401
    field_energy_proxy,
    gauge_residual,
    poisson_init,
    wave_step,
)
from .forces import force_field  # noqa: F401
from .grid import PhaseSpaceGrid, build_grid, velocity_from_momentum  # noqa: F401
from .moments import (  # noqa: F401
    charge_density,
    continuity_residual,
    current_density,
    number_density,
    particle_flux,
)
from .runner import RunResult, compare_simulations, run_simulation, start_run  # noqa: F401
from .state import (  # noqa: F401
    FieldState,
    SimulationState,
    SpeciesState,
    build,
    initialize_state,
)
from .vlasov import (  # noqa: F401
    KickDisplacementError,
    advect_x,
    kick_p,
    step,
)
