"""Cubic-spline interpolation kernels for the semi-Lagrangian sweeps.

Two variants are needed:

* periodic splines on the uniform x grid, shifted by a constant amount per
  column.  On a uniform periodic grid the cubic-spline interpolant equals the
  cardinal cubic B-spline series whose coefficients solve a circulant
  tridiagonal system.  Both that solve (the prefilter) and the evaluation at a
  constant shift are circulant, so the whole shift is one Fourier multiplier
  per column, the transfer function, built once per shift;

* natural splines (zero second derivative at both ends) along p, evaluated at
  arbitrary per-point foot locations, with zero extension outside the node
  range.  Every row's moment system has the same matrix, tridiag(1, 4, 1),
  which is symmetric positive definite: it is LDL^T-factored (``dpttrf``, no
  pivots) once per node count.  Feet within one cell of their own nodes are
  evaluated from node-local Taylor terms instead, with no cell search.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

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


@lru_cache(maxsize=8)
def _natural_spline_ldlt(n: int) -> tuple:
    """``dpttrf`` factors of [1] + tridiag(1, 4, 1) + [1], the moment matrix of n
    nodes; its borders factor exactly, so its interior is tridiag's, bit for bit."""
    d, e, _ = dpttrf(np.r_[1.0, np.full(n - 2, 4.0), 1.0], np.r_[0.0, np.ones(n - 3), 0.0])
    d.flags.writeable = False
    e.flags.writeable = False
    return d, e


def natural_spline_moments(f: np.ndarray, h: float) -> np.ndarray:
    """Second derivatives of the natural cubic spline through each row of f.

    Rows of f sample uniformly spaced nodes (spacing h) along axis 1; the
    returned array has the same shape, with zero end values.
    """
    if f.shape[1] < 4:
        raise ValueError(f"a natural spline needs at least 4 nodes (got {f.shape[1]})")
    # Second differences of the raveled f; those that straddle two rows fall
    # in the end columns, whose right-hand side is 0.  6/h^2 is applied last.
    moments = np.empty(f.shape)
    flat, rhs = np.ravel(f), moments.reshape(-1)[1:-1]
    np.subtract(flat[2:], flat[1:-1], out=rhs)
    rhs -= flat[1:-1]
    rhs += flat[:-2]
    moments[:, [0, -1]] = 0.0
    # moments.T is Fortran-ordered, so dpttrs solves every row in place.
    dpttrs(*_natural_spline_ldlt(f.shape[1]), moments.T, overwrite_b=1)
    moments[:, [0, -1]] = 0.0      # a NaN row's forward sweep reaches its end
    moments *= 6.0 / (h * h)
    return moments


def eval_natural_spline(nodes: np.ndarray, f: np.ndarray, moments: np.ndarray,
                        queries: np.ndarray) -> np.ndarray:
    """Evaluate each row's natural spline at that row's query points.

    Queries outside [nodes[0], nodes[-1]] return 0 (zero extension beyond the
    resolved momentum range); a NaN query returns NaN.
    """
    # Each query's cell, clamped to the node range, as the flat index of its
    # left node (slot 1), and its offset from that node in cells (slot 2),
    # which is in [0, 1] inside the range.  Only the edge columns, which hold
    # a query outside [nodes[0], nodes[-2]] or a NaN, can need the clamp.
    # Truncation is floor wherever the clip keeps it; NaN casts to an index
    # that the clip brings into range, and keeps a NaN offset.
    h = nodes[1] - nodes[0]
    t = work_array(2, queries.shape)
    np.subtract(queries, nodes[0], out=t)
    t /= h
    k = work_array(1, queries.shape, np.intp)
    np.copyto(k, t, casting="unsafe")
    edges = np.flatnonzero(~((np.min(queries, axis=0) >= nodes[0])
                             & (np.max(queries, axis=0) <= nodes[-2])))
    k[:, edges] = np.clip(k[:, edges], 0, nodes.size - 2)
    t -= k
    k += np.arange(0, f.size, nodes.size)[:, None]
    flat, flat_moments = np.ravel(f), np.ravel(moments)

    # S = lo + t (hi - lo) - (h^2/6) t (1-t) [(2-t) mlo + (1+t) mhi], which is
    # (1-t) lo + t hi + (h^2/6) [((1-t)^3 - (1-t)) mlo + (t^3 - t) mhi]
    # factored.  Every index is in range, so the gathers into work arrays use
    # mode "clip", which numpy does not buffer.
    values = flat.take(k)
    work = flat[1:].take(k, out=work_array(3, k.shape), mode="clip")
    work -= values
    work *= t
    values += work
    bracket = flat_moments[1:].take(k, out=work_array(4, k.shape), mode="clip")
    np.add(t, 1.0, out=work)
    bracket *= work
    flat_moments.take(k, out=work, mode="clip")
    bracket += work
    bracket += work
    work *= t
    bracket -= work
    np.multiply(t, t, out=work)
    t -= work
    bracket *= t
    bracket *= h * h / 6.0
    values -= bracket
    edge = queries[:, edges]
    values[:, edges] = np.where((edge < nodes[0]) | (edge > nodes[-1]), 0.0, values[:, edges])
    return values


def eval_natural_spline_near_nodes(nodes: np.ndarray, f: np.ndarray, moments: np.ndarray,
                                   cells: np.ndarray, end_queries: np.ndarray) -> np.ndarray:
    """Each row's natural spline at its nodes moved back by ``cells`` cells.

    Node j of row i is evaluated at nodes[j] - cells[i, j] * h.  For
    |cells| <= 1 that foot lies in one of the node's two cells, where the
    spline is a cubic, so its Taylor expansion at the node is exact:

        S_j = f_j - s g_j + s^2 (h^2/2) M_j - s^3 (h^2/6) dM_j

    with s = cells, g_j = h f'(p_j) and dM_j the moment difference across the
    foot's cell (M_j - M_{j-1} for s > 0, M_{j+1} - M_j otherwise).  No foot
    point is located and nothing is gathered.  ``moments`` comes from
    ``natural_spline_moments`` (zero end columns).  ``end_queries``, shape
    (rows, 2), holds the foot points of the first and last columns: a foot
    outside [nodes[0], nodes[-1]] returns 0, decided as in
    ``eval_natural_spline``.
    """
    h = nodes[1] - nodes[0]
    c = h * h / 6.0
    flat, flat_moments, s = np.ravel(f), np.ravel(moments), np.ravel(cells)
    # diffs[e] = M_e - M_{e-1} over the raveled moments.  A difference that
    # straddles two rows joins two zero end moments, so it is 0 too.
    diffs = work_array(2, (f.size + 1,))
    diffs[[0, -1]] = 0.0
    np.subtract(flat_moments[1:], flat_moments[:-1], out=diffs[1:-1])
    right, left = diffs[1:], diffs[:-1]
    bracket = work_array(3, (f.size,))
    np.copyto(bracket, right)
    np.copyto(bracket, left, where=np.greater(s, 0.0, out=work_array(4, (f.size,), bool)))

    # S = f - s (g - c s (3M - s dM)), where g = (f_{j+1} - f_j) - c (3M + dM_right)
    # from the node's right cell, so S = f - s ((f_{j+1} - f_j) - bracket) with
    # bracket = c (3M + dM_right + s (3M - s dM)).
    three_m = np.multiply(flat_moments, 3.0, out=work_array(1, (f.size,)))
    bracket *= s
    np.subtract(three_m, bracket, out=bracket)
    bracket *= s
    bracket += three_m
    bracket += right
    bracket *= c
    values = np.empty(f.shape)
    flat_values = values.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=flat_values[:-1])
    # The last column has no right cell.  Its bracket's 3M + dM_right is 0, and
    # its g comes from the left cell: (f_{n-1} - f_{n-2}) + c (2 M_{n-1} + M_{n-2}).
    values[:, -1] = f[:, -1] - f[:, -2] + c * (2.0 * moments[:, -1] + moments[:, -2])
    flat_values -= bracket
    flat_values *= s
    np.subtract(flat, flat_values, out=flat_values)
    values[:, [0, -1]] = np.where((end_queries < nodes[0]) | (end_queries > nodes[-1]),
                                  0.0, values[:, [0, -1]])
    return values
