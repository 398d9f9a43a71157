"""Cubic-spline interpolation kernels for the semi-Lagrangian sweeps.

Two variants are needed:

* periodic splines on the uniform x grid, shifted by a constant amount per
  column.  On a uniform periodic grid the cubic-spline interpolant equals the
  cardinal cubic B-spline series whose coefficients solve a circulant
  tridiagonal system.  Both that solve (the prefilter) and the evaluation at a
  constant shift are circulant, so the whole shift is one Fourier multiplier
  per column, the transfer function, built once per shift;

* natural splines (zero second derivative at both ends) along p, evaluated at
  each node moved back by its own displacement in cells, with zero extension
  outside the node range.  Every row's moment system has the same matrix,
  tridiag(1, 4, 1), which is symmetric positive definite: it is LDL^T-factored
  (``dpttrf``, no pivots) once per run, with the run's plan, and only a run
  that kicks loads scipy's LAPACK extension for it.  Each foot is evaluated from
  the Taylor terms of the node whose cells hold it, with no cell search: its
  own node while every displacement is within one cell.
"""

from __future__ import annotations

import os
from functools import partial
from importlib import machinery, util

import numpy as np

from .workspace import work_array


def periodic_shift_transfer(nx: int, alpha: np.ndarray) -> np.ndarray:
    """Transfer function of the spline shift of each column by alpha[j] cells.

    Row k multiplies wavenumber theta_k = 2 pi k / nx of column j's ``rfft``:
    the cubic B-spline evaluation symbol at the foot offset -alpha[j] divided
    by the prefilter symbol (4 + 2 cos theta_k) / 6.  Row 0 is exactly 1, so
    every column sum is kept.
    """
    g = -np.asarray(alpha, dtype=float)     # foot point x_i + g * dx
    s = np.floor(g)
    u = g - s                               # fractional offset in [0, 1)

    one_m = 1.0 - u
    w0 = one_m**3 / 6.0
    w1 = (4.0 - 6.0 * u**2 + 3.0 * u**3) / 6.0
    w2 = (1.0 + 3.0 * u + 3.0 * u**2 - 3.0 * u**3) / 6.0
    w3 = u**3 / 6.0

    # Taps sit at s - 1 .. s + 2 cells.  The whole-cell factor exp(i theta s)
    # takes its phase mod nx in integers, so multi-cell shifts lose no accuracy.
    k = np.arange(nx // 2 + 1)
    theta = 2.0 * np.pi * k / nx
    whole = np.exp((2j * np.pi / nx) * np.mod(np.outer(k, s.astype(np.int64)), nx))
    e = np.exp(1j * theta)[:, None]
    taps = w0 / e + w1 + w2 * e + w3 * (e * e)
    prefilter = (4.0 + 2.0 * np.cos(theta)) / 6.0
    transfer = whole * taps / prefilter[:, None]
    transfer[0] = 1.0
    return transfer


def periodic_shift_columns(f: np.ndarray, transfer: np.ndarray, spectrum=None,
                           keep: dict | None = None) -> np.ndarray:
    """Spline-interpolated periodic shift of each column of f along axis 0.

    ``transfer`` comes from ``periodic_shift_transfer(f.shape[0], alpha)``:
    column j is resampled at x_i - alpha[j] * dx, i.e. values move forward by
    alpha[j] cells.  Exact at nodes (up to FFT roundoff) for integer alpha.

    A given ``spectrum`` stands in for rfft(f, axis=0) and is overwritten.
    ``keep`` maps id(result) to (result, the spectrum irfft read with the
    Nyquist row's ignored imaginary part zeroed), which is rfft(result) to roundoff.
    """
    if spectrum is None:
        spectrum = np.fft.rfft(f, axis=0)
    spectrum *= transfer
    shifted = np.fft.irfft(spectrum, n=f.shape[0], axis=0)
    if keep is not None:
        if f.shape[0] % 2 == 0:
            spectrum[-1].imag = 0.0
        keep[id(shifted)] = shifted, spectrum
    return shifted


def natural_spline_solver(n: int) -> partial:
    """The in-place solve of the moment system of n nodes: ``dpttrs`` against the
    ``dpttrf`` factors of [1] + tridiag(1, 4, 1) + [1].  Its borders factor exactly,
    so its interior is tridiag's, bit for bit.  Both come from scipy.linalg._flapack,
    the extension that scipy.linalg.lapack re-exports, loaded alone: no __init__ of
    the scipy packages runs, and a later import of scipy.linalg reuses the module."""
    if n < 4:
        raise ValueError(f"a natural spline needs at least 4 nodes (got {n})")
    scipy = util.find_spec("scipy")     # a top-level name's spec imports nothing
    spec = scipy and machinery.PathFinder.find_spec("scipy.linalg._flapack", [
        os.path.join(path, "linalg") for path in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError("scipy's LAPACK extension scipy.linalg._flapack was not found")
    flapack = util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    d, e, _ = flapack.dpttrf(np.r_[1.0, np.full(n - 2, 4.0), 1.0], np.r_[0.0, np.ones(n - 3), 0.0])
    return partial(flapack.dpttrs, d, e, overwrite_b=1)


def natural_spline_moments(f: np.ndarray, h: float, solve: partial) -> np.ndarray:
    """Second derivatives of the natural cubic spline through each row of f.

    Rows of f sample uniformly spaced nodes (spacing h) along axis 1; ``solve``
    is ``natural_spline_solver`` of their count.  The returned array has the
    same shape, with zero end values.
    """
    # Second differences of the raveled f; those that straddle two rows fall
    # in the end columns, whose right-hand side is 0.  6/h^2 is applied last.
    moments = np.empty(f.shape)
    flat, rhs = np.ravel(f), moments.reshape(-1)[1:-1]
    np.subtract(flat[2:], flat[1:-1], out=rhs)
    rhs -= flat[1:-1]
    rhs += flat[:-2]
    moments[:, [0, -1]] = 0.0
    # moments.T is Fortran-ordered, so dpttrs solves every row in place.
    solve(moments.T)
    moments[:, [0, -1]] = 0.0      # a NaN row's forward sweep reaches its end
    moments *= 6.0 / (h * h)
    return moments


def eval_natural_spline(f: np.ndarray, moments: np.ndarray, cells: np.ndarray,
                        h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Each row's natural spline at its nodes moved back by ``cells`` cells.

    Node j of row i, at p_j on nodes spaced h apart, is evaluated at
    p_j - s h with s = cells[i, j]; a foot outside [p_0, p_{n-1}] returns 0.
    ``moments`` comes from ``natural_spline_moments`` (zero end columns).  Each
    row of ``cells`` must be monotone, as a kick's a + b v(p) is, so that its
    two end columns hold its largest |s|.  The values go to ``out`` (C-contiguous,
    f's shape) when it is given, else to a new array.

    Write s = k + r, with k the whole-cell part of s (k = 0 when no |s|
    exceeds 1).  The foot lies within one cell of node e = j - k, where the
    spline is a cubic, so its Taylor expansion at that node is exact:

        S = f_e - r g_e + r^2 (h^2/2) M_e - r^3 (h^2/6) dM_e

    with g_e = h f'(p_e) and dM_e the moment difference across the foot's cell
    (M_e - M_{e-1} for r > 0, M_{e+1} - M_e otherwise).  The node terms are
    contiguous passes over the raveled f and M; only when some |s| > 1 are
    they gathered at e.
    """
    n = f.shape[1]
    c = h * h / 6.0
    flat, flat_moments = np.ravel(f), np.ravel(moments)
    # diffs[e] = M_e - M_{e-1} over the raveled moments.  A difference that
    # straddles two rows joins two zero end moments, so it is 0 too.
    diffs = work_array(2, (f.size + 1,))
    diffs[[0, -1]] = 0.0
    np.subtract(flat_moments[1:], flat_moments[:-1], out=diffs[1:-1])
    right, left = diffs[1:].reshape(f.shape), diffs[:-1].reshape(f.shape)
    three_m = np.multiply(moments, 3.0, out=work_array(1, f.shape))
    # f_{j+1} - f_j.  The last column has no right cell: its 3M + dM_right is 0,
    # and its g comes from the left cell, (f_{n-1} - f_{n-2}) + c (2 M_{n-1} + M_{n-2}).
    values = out = np.empty(f.shape) if out is None else out
    np.subtract(flat[1:], flat[:-1], out=values.reshape(-1)[:-1])
    values[:, -1] = f[:, -1] - f[:, -2] + c * (2.0 * moments[:, -1] + moments[:, -2])
    # The foot of each evaluated node sits at column position - s.  Within one
    # cell, only the end columns' feet can leave [0, n - 1].
    position, edges = np.arange(n), [0, -1]
    if np.max(np.abs(cells[:, edges])) > 1.0:
        # From here on f and the node terms are those of node e = j - k, within
        # one cell of the foot (clipped into the row: a foot beyond it reads 0
        # below), and cells holds r = s - k, which is exact.
        whole = np.trunc(cells)
        position = position - whole
        nodes = np.clip(position, 0, n - 1).astype(np.intp)
        nodes += np.arange(0, f.size, n)[:, None]
        f, values, three_m, right, left = (
            np.take(term, nodes) for term in (f, values, three_m, right, left))
        cells, edges = cells - whole, slice(None)
    bracket = work_array(3, f.shape)
    np.copyto(bracket, right)
    np.copyto(bracket, left, where=np.greater(cells, 0.0, out=work_array(4, f.shape, bool)))

    # S = f - s (g - c s (3M - s dM)), where g = (f_{j+1} - f_j) - c (3M + dM_right)
    # from the node's right cell, so S = f - s ((f_{j+1} - f_j) - bracket) with
    # bracket = c (3M + dM_right + s (3M - s dM)).
    bracket *= cells
    np.subtract(three_m, bracket, out=bracket)
    bracket *= cells
    bracket += three_m
    bracket += right
    bracket *= c
    values -= bracket
    values *= cells
    np.subtract(f, values, out=out)     # values was gathered anew if some |s| > 1
    s, at = cells[:, edges], position[..., edges]
    out[:, edges] = np.where((s > at) | (s < at - (n - 1)), 0.0, out[:, edges])
    return out
