"""Benchmark workloads and the inputs each one generates from a seed.

A workload fixes the grid, the preset, the entry point and the step count.
The seed picks one of ``N_VARIANTS`` input variants; a variant draws the
perturbation amplitude, drift and temperature from the workload's ranges,
each of which keeps the preset valid (the initial tail at p_max stays below
the solver's 1e-12 limit).  The seed is reduced to a finite set of variants so
that every input the benchmark can generate has a stored reference result
(``references.json``) to check the run against.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES_PATH = HERE / "references.json"

N_VARIANTS = 16

# Solver defaults the generated configs rely on: dt = CFL * dx / c holds
# because c exceeds every grid velocity in relativistic mode.
X_MAX = 4.0 * math.pi
C = 4.0
CFL_FRACTION = 0.9


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str          # "library": run_simulation; "run" / "compare": the CLI
    preset: str
    nx: int
    np: int
    n_steps: int        # per force mode
    output_every: int
    amplitude: tuple    # (low, high) ranges the variants draw from
    drift: tuple
    temperature: tuple
    mass_drift_tol: float  # largest relative change of either species' total mass
    numpy_weight: float    # share of the run that is numpy array work (hostspeed.slowness)

    @property
    def modes(self) -> tuple:
        return ("modified", "standard") if self.entry == "compare" else ("modified",)

    @property
    def cell_updates(self) -> int:
        """Distribution values updated per simulation: 2 species x nx x np x steps."""
        return 2 * self.nx * self.np * self.n_steps * len(self.modes)


# Each mass_drift_tol is ten times the worst drift over the stored variants,
# rounded up to a power of ten: 9.4e-6 (landau), 2.6e-6 (two_stream) and
# 4.0e-15 (free_stream, where only the exactly conservative x-advection acts).
WORKLOADS = {
    w.name: w for w in (
        # Kernel workload: x-advection and the p-kick dominate, no output.
        Workload("landau_256x512", "library", "landau", 256, 512, 100, 10**9,
                 amplitude=(0.01, 0.05), drift=(-0.3, 0.3), temperature=(0.8, 1.0),
                 mass_drift_tol=1e-4, numpy_weight=1.0),
        # Both force modes from one state: the only user of standard_force and
        # compare_runs; kernel work mixed with a snapshot every 20 steps.
        Workload("two_stream_compare_128x256", "compare", "two_stream", 128, 256, 100, 20,
                 amplitude=(0.002, 0.01), drift=(1.5, 2.5), temperature=(0.2, 0.3),
                 mass_drift_tol=1e-4, numpy_weight=0.6),
        # Write workload: a snapshot every step, no kick, small arrays.
        Workload("free_stream_snapshots_64x128", "run", "free_stream", 64, 128, 200, 1,
                 amplitude=(0.01, 0.1), drift=(-0.4, 0.4), temperature=(0.6, 1.0),
                 mass_drift_tol=1e-13, numpy_weight=0.1),
    )
}


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def make_inputs(workload: Workload, seed: int) -> dict:
    """Amplitude, drift and temperature for this seed; the same seed gives the same inputs."""
    variant = variant_of(seed)
    rng = random.Random(f"{workload.name}/{variant}")
    return {
        "variant": variant,
        "amplitude": rng.uniform(*workload.amplitude),
        "drift": rng.uniform(*workload.drift),
        "temperature": rng.uniform(*workload.temperature),
    }


def nominal_dt(workload: Workload) -> float:
    return CFL_FRACTION * (X_MAX / workload.nx) / C


def config_text(workload: Workload, inputs: dict) -> str:
    """The config file the CLI workloads pass to ``kinvlasov run|compare``.

    t_end sits a quarter step past the last step so the solver's rounding of
    t_end / dt lands on ``n_steps``.
    """
    t_end = (workload.n_steps + 0.25) * nominal_dt(workload)
    return (
        "[grid]\n"
        f"nx = {workload.nx}\n"
        f"x_max = {X_MAX!r}\n"
        f"np = {workload.np}\n"
        "[time]\n"
        f"cfl_fraction = {CFL_FRACTION!r}\n"
        f"t_end = {t_end!r}\n"
        f"output_every = {workload.output_every}\n"
        "[physics]\n"
        f"c = {C!r}\n"
        "force_mode = modified\n"
        "[init]\n"
        f"preset = {workload.preset}\n"
        f"amplitude = {inputs['amplitude']!r}\n"
        f"drift = {inputs['drift']!r}\n"
        f"temperature = {inputs['temperature']!r}\n"
    )


def load_references() -> dict:
    if not REFERENCES_PATH.is_file():
        return {}
    return json.loads(REFERENCES_PATH.read_text(encoding="utf-8"))
