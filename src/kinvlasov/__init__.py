"""kinvlasov: a 1D1V two-species relativistic kinetic plasma solver.

The evolved system couples two collisionless kinetic equations to Lorenz-gauge
wave equations for the potentials phi and A.  The force acting on the
distributions is the convective derivative of the vector potential,
F = -(q/c)(dA/dt + v dA/dx); the conventional potential-form Lorentz force is
available as a comparator mode.  The gauge condition and the minus-species
continuity equation are monitored as residuals rather than enforced, making
the redundancy of the overdetermined system a runtime consistency check.

The package exports the library's entry points; every other name is imported
from its module (``kinvlasov.vlasov.advect_x``, ``kinvlasov.fields.wave_step``).
"""

__version__ = "0.1.0"

from .config import (  # noqa: F401
    Config,
    ConfigError,
    InitConfig,
    SpeciesConfig,
    load_config,
    validate_config,
)
from .diagnostics import LEDGER_LAYOUT, residual_report  # noqa: F401
from .grid import build_grid  # noqa: F401
from .runner import RunResult, compare_simulations, run_simulation, start_run  # noqa: F401
from .state import build, initialize_state  # noqa: F401
from .vlasov import step  # noqa: F401
