import math

import numpy as np
import pytest
from hypothesis import settings

from kinvlasov.config import Config, InitConfig, SpeciesConfig

# One Hypothesis profile for every module: a solver call on a slow or busy
# host must not fail an example on time alone.
settings.register_profile("ci", deadline=None)
settings.load_profile("ci")

PAIR_CHARGE = 1.0 / math.sqrt(8.0 * math.pi)


def pair_species(q=PAIR_CHARGE, m=1.0):
    """Config's plus and minus of a pair plasma: charges +-q, both of mass m."""
    return {"plus": SpeciesConfig(+q, m), "minus": SpeciesConfig(-q, m)}


def one_v(v):
    """The (1, v) rows the kernels take, for a v that is not the grid's."""
    return np.vstack((np.ones_like(v), v))


def read_snapshot(path):
    """Parse a snapshot file of ``output.write_snapshot`` back into
    (metadata dict, value matrix)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        matrix = np.array(
            [[float(v) for v in line.split()] for line in fh if line.strip()]
        )
    meta = {}
    for token in header.lstrip("# ").split():
        key, _, value = token.partition("=")
        if key in ("nx", "np"):
            meta[key] = int(value)
        elif key == "columns":
            meta[key] = value
        else:
            meta[key] = float(value)
    return meta, matrix


def landau_config(nx=64, n_p=128, amplitude=1e-3, c=4.0, relativistic=True,
                  force_mode="modified", cfl_fraction=0.9, t_end=1.0,
                  output_every=10**9, temperature=1.0, drift=0.0, k_mode=1):
    """Pair plasma with total plasma frequency 1 and k lambda_D = 0.3."""
    return Config(
        nx=nx, x_max=2.0 * math.pi / 0.3, np=n_p, p_max=8.0,
        c=c, relativistic=relativistic, force_mode=force_mode,
        cfl_fraction=cfl_fraction, t_end=t_end, output_every=output_every,
        **pair_species(),
        init=InitConfig(preset="landau", n0=1.0, amplitude=amplitude,
                        k_mode=k_mode, temperature=temperature, drift=drift),
    )


@pytest.fixture
def small_landau():
    return landau_config(nx=32, n_p=32, t_end=0.5, output_every=4)
