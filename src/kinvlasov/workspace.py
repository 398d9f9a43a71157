"""Per-thread work arrays for the phase-space intermediates of the kernels and
the diagnostics.

A step and its diagnostics row need dozens of (nx, np) intermediates.  Taken
fresh from the allocator, a megabyte-sized array is handed back to the
operating system when it is freed, so the next one page-faults on every page it
touches.  Instead each thread keeps ``SLOTS`` buffers (``threading.local``);
a buffer grows to the largest array asked of it and is reused from then on.

kick_p and vlasov_residual take f in ``row_blocks`` of 256 KiB, so that a
block's terms stay in the L2 cache.  The slot of every intermediate is fixed
where it is used.  Intermediates whose lifetimes never overlap share a slot,
and no function asks for a slot that a caller of it still holds:

    slot 0  kick_p's displacements in cells; full-size, vlasov_residual's sum
            and periodic_shift_columns' product of a spectrum and its transfer
    slot 1  eval_natural_spline's 3m; vlasov_residual's transport term
            (dt/dx) v D_x f
    slot 2  eval_natural_spline's moment differences; vlasov_residual's
            p-difference D_p f
    slot 3  eval_natural_spline's bracket; vlasov_residual's (dt/dp) (a + b v)
    slot 4  eval_natural_spline's mask of feet left of their node

All others hold one row block.  natural_spline_moments and particle_flux use no slot.

A work array is never returned by a public function, so no later call can
overwrite a result.
"""

from __future__ import annotations

import math
import threading

import numpy as np

SLOTS = 5
BLOCK_CELLS = 32768     # float64s in a row block: 256 KiB

_local = threading.local()


def work_array(slot: int, shape: tuple, dtype=float) -> np.ndarray:
    """A C-ordered array of ``shape`` in this thread's buffer ``slot``.

    Its contents are whatever the slot last held; the next request for the
    same slot on this thread reuses its memory.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    buffers = getattr(_local, "buffers", None)
    if buffers is None:
        buffers = _local.buffers = [np.empty(0, dtype=np.uint8)] * SLOTS
    if buffers[slot].size < nbytes:
        buffers[slot] = np.empty(nbytes, dtype=np.uint8)
    return buffers[slot][:nbytes].view(dtype).reshape(shape)


def row_blocks(shape: tuple) -> list:
    """Slices of ``max(1, BLOCK_CELLS // np)`` rows, the last maybe fewer, over (nx, np)."""
    rows = max(1, BLOCK_CELLS // shape[1])
    return [slice(start, min(start + rows, shape[0])) for start in range(0, shape[0], rows)]
