"""Host-speed probes: two fixed loops whose time tracks how fast the host runs now.

The benchmark's host is a shared virtual machine whose speed changes in
stretches of seconds: pure-Python work (float formatting) slows by up to 2x,
numpy array work by up to 1.4x.  The timed child runs both probes about every
``PROBE_EVERY_S`` seconds of a simulation, between two ``step`` calls, and the
driver divides each measured interval by the host's slowness at that moment
(``slowness``).  The probes are fixed code that imports nothing from the
solver, so a change to the solver moves the measured intervals and not the
probes.  Each probe takes about 2 ms.
"""

from __future__ import annotations

import time

PROBE_EVERY_S = 0.25

# Probe times at a fast moment on the host the benchmark was defined on (2-vCPU
# VM, Python 3.11, numpy 2.4).  They only set the scale of adjusted times:
# there, adjusted times read within about 20% of raw wall times.
REF_PYTHON_MS = 1.80
REF_NUMPY_MS = 1.60

_FLOATS = [i * 0.1234567891 + 1.0 / (i + 1) for i in range(2500)]
_ARRAYS = []


def python_probe_ms() -> float:
    """Format a fixed list of floats as text, as the solver's snapshot writer does."""
    t0 = time.perf_counter()
    " ".join(repr(v) for v in _FLOATS)
    return (time.perf_counter() - t0) * 1e3


def numpy_probe_ms() -> float:
    """Shift, scale and add 256x512 arrays, as the solver's kernels do.

    The arrays are allocated once and every operation writes into them, so the
    probe's time does not depend on the state the solver left the allocator in.
    """
    import numpy as np

    if not _ARRAYS:
        rng = np.random.default_rng(0)
        _ARRAYS.extend((rng.random((256, 512)), rng.random((256, 512)),
                        np.empty((256, 512)), np.empty((256, 512))))
    a, b, x, y = _ARRAYS
    t0 = time.perf_counter()
    np.copyto(x, a)
    for shift in (1, 2, 3, 5):
        y[:, shift:] = x[:, :-shift]
        y[:, :shift] = x[:, -shift:]
        np.multiply(y, 0.999, out=y)
        np.add(y, b, out=x)
    return (time.perf_counter() - t0) * 1e3


def slowness(numpy_ms: float, python_ms: float, numpy_weight: float) -> float:
    """How much slower than the reference moment the host runs a workload whose
    time is ``numpy_weight`` numpy array work and the rest pure Python."""
    return (numpy_weight * numpy_ms / REF_NUMPY_MS
            + (1.0 - numpy_weight) * python_ms / REF_PYTHON_MS)
