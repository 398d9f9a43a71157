import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dpttrf, dpttrs

from kinvlasov.interpolate import (
    eval_natural_spline,
    natural_spline_moments,
    natural_spline_solver,
    periodic_shift_columns,
    periodic_shift_transfer,
)


def smooth_periodic(nx, seed=0):
    rng = np.random.default_rng(seed)
    x = np.arange(nx)
    f = np.zeros(nx)
    for k in range(1, 6):
        f += rng.normal() * np.cos(2 * np.pi * k * x / nx)
        f += rng.normal() * np.sin(2 * np.pi * k * x / nx)
    return f


def shift(f, alpha):
    # a spectrum in gives the shifted real f out
    nx = f.shape[0]
    return periodic_shift_columns(np.fft.rfft(f, axis=0), periodic_shift_transfer(nx, alpha), nx)


def four_tap_shift(f, alpha):
    """Reference: the prefiltered B-spline coefficients gathered at four taps."""
    nx, ncol = f.shape
    fhat = np.fft.rfft(f, axis=0)
    theta = 2.0 * np.pi * np.arange(fhat.shape[0]) / nx
    bspline_symbol = (4.0 + 2.0 * np.cos(theta)) / 6.0
    coef = np.fft.irfft(fhat / bspline_symbol[:, None], n=nx, axis=0)

    g = -np.asarray(alpha, dtype=float)
    s = np.floor(g).astype(int)
    u = g - s

    one_m = 1.0 - u
    w0 = one_m**3 / 6.0
    w1 = (4.0 - 6.0 * u**2 + 3.0 * u**3) / 6.0
    w2 = (1.0 + 3.0 * u + 3.0 * u**2 - 3.0 * u**3) / 6.0
    w3 = u**3 / 6.0

    rows = np.arange(nx)[:, None]
    cols = np.arange(ncol)[None, :]
    base = rows + s[None, :] - 1
    out = np.zeros_like(f)
    for d, w in enumerate((w0, w1, w2, w3)):
        out += w[None, :] * coef[(base + d) % nx, cols]
    return out


@pytest.mark.parametrize("nx", [47, 48, 9, 256])
def test_fourier_shift_matches_four_tap_gather(nx):
    rng = np.random.default_rng(nx)
    alpha = np.concatenate([
        [0.0, -0.0, 1.0, -1.0, 3.0, -7.0, 0.5, -0.5, 1e-12, -1e-12],
        [2.75, -13.2, 41.6, -95.01, 2.0 * nx + 0.3, -3.0 * nx - 0.8],
        rng.uniform(-3.0, 3.0, size=20),
    ])
    f = rng.normal(size=(nx, alpha.size))
    f[:, :8] = np.column_stack([smooth_periodic(nx, seed=j) for j in range(8)])
    error = np.max(np.abs(shift(f, alpha) - four_tap_shift(f, alpha)))
    assert error <= 1e-14 * np.max(np.abs(f))


def test_shift_transfer_keeps_the_mean_exactly():
    transfer = periodic_shift_transfer(40, np.array([0.3, -2.6, 17.0]))
    assert np.all(transfer[0] == 1.0)


@pytest.mark.parametrize("alpha", [0.3, -1.7, 5.0, 0.5, 2.25])
def test_periodic_shift_matches_scipy(alpha):
    nx = 48
    f = smooth_periodic(nx)
    x = np.arange(nx + 1.0)
    reference = CubicSpline(x, np.append(f, f[0]), bc_type="periodic")
    mine = shift(f[:, None], np.array([alpha]))[:, 0]
    expected = reference((np.arange(nx) - alpha) % nx)
    assert np.allclose(mine, expected, atol=1e-12)


def test_integer_shift_is_exact():
    f = smooth_periodic(64, seed=2)
    shifted = shift(f[:, None], np.array([3.0]))[:, 0]
    assert np.max(np.abs(shifted - np.roll(f, 3))) <= 1e-12 * np.max(np.abs(f))


def test_shift_preserves_constants_and_mass():
    nx = 32
    f = np.column_stack([np.full(nx, 2.5), smooth_periodic(nx, seed=4)])
    shifted = shift(f, np.array([0.37, -1.22]))
    assert np.allclose(shifted[:, 0], 2.5, atol=1e-13)
    # the collocation weights sum to one, so column sums are invariant
    assert np.sum(shifted[:, 1]) == pytest.approx(np.sum(f[:, 1]), abs=1e-11)


def monotone_cells(rng, rows, n, reach):
    """Per-row displacements in cells, monotone along each row as a kick's are,
    within +-reach; every other row decreasing."""
    cells = np.sort(rng.uniform(-reach, reach, size=(rows, n)), axis=1)
    cells[1::2] = cells[1::2, ::-1]
    return cells


def scipy_at_feet(nodes, rows, cells):
    """CubicSpline(bc_type="natural") at each node's foot p_j - s h, 0 outside
    [nodes[0], nodes[-1]]."""
    h = nodes[1] - nodes[0]
    columns = np.arange(nodes.size)
    outside = (cells > columns) | (cells < columns - (nodes.size - 1))
    expected = np.array([CubicSpline(nodes, row, bc_type="natural")(nodes - s * h)
                         for row, s in zip(rows, cells)])
    return np.where(outside, 0.0, expected)


def spline_moments(rows):
    return natural_spline_moments(rows, natural_spline_solver(rows.shape[1]))


def test_natural_spline_matches_scipy():
    rng = np.random.default_rng(1)
    n = 40
    nodes = np.linspace(-2.0, 2.0, n)
    rows = rng.normal(size=(5, n))
    moments = spline_moments(rows)
    for reach in (1.0, 9.5):
        cells = monotone_cells(rng, 5, n, reach)
        mine = eval_natural_spline(rows, moments, cells, out=np.empty(rows.shape))
        assert np.allclose(mine, scipy_at_feet(nodes, rows, cells), atol=1e-12)


def test_natural_spline_exact_at_nodes():
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(3, 25))
    values = eval_natural_spline(rows, spline_moments(rows), np.zeros((3, 25)),
                                 out=np.empty(rows.shape))
    assert np.array_equal(values, rows)


def test_natural_spline_zero_outside():
    # Rows of ones kicked by whole and half cells: every foot beyond an end
    # reads 0, interior columns too once |s| > 1; every other foot reads 1.
    n = 16
    rows = np.ones((6, n))
    cells = np.array([20.0, -20.0, 3.5, -3.5, 0.5, -1.0])[:, None] * np.ones(n)
    values = eval_natural_spline(rows, spline_moments(rows), cells, out=np.empty(rows.shape))
    outside = np.zeros((6, n), bool)
    outside[:2] = True
    outside[2, :4] = outside[3, 12:] = outside[4, 0] = outside[5, -1] = True
    assert np.all(values[outside] == 0.0)
    assert np.allclose(values[~outside], 1.0, atol=1e-14)


@pytest.mark.parametrize("n", [4, 5])
def test_natural_spline_on_the_fewest_nodes_matches_scipy(n):
    rng = np.random.default_rng(n)
    nodes = np.linspace(-1.0, 2.0, n)
    rows = rng.normal(size=(4, n))
    h = nodes[1] - nodes[0]
    moments = spline_moments(rows)
    for reach in (1.0, n - 1.0):
        cells = monotone_cells(rng, 4, n, reach)
        mine = eval_natural_spline(rows, moments, cells, out=np.empty(rows.shape))
        assert np.allclose(mine, scipy_at_feet(nodes, rows, cells), atol=1e-12)
    for i in range(4):
        # the moments are m = (h^2/6) M for scipy's second derivatives M
        reference = CubicSpline(nodes, rows[i], bc_type="natural")
        assert np.allclose(moments[i], (h * h / 6.0) * reference(nodes, 2), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_natural_spline_rejects_fewer_than_four_nodes(n):
    with pytest.raises(ValueError, match="at least 4 nodes"):
        natural_spline_solver(n)


def interior_solve_moments(f):
    """The natural spline moments m = (h^2/6) M as one dpttrf/dpttrs solve of
    tridiag(1, 4, 1) on the interior second differences."""
    d, e, _ = dpttrf(np.full(f.shape[1] - 2, 4.0), np.ones(f.shape[1] - 3))
    rhs = f[:, 2:] - f[:, 1:-1]
    rhs -= f[:, 1:-1]
    rhs += f[:, :-2]
    solution, _ = dpttrs(d, e, rhs.T)
    moments = np.zeros_like(f)
    moments[:, 1:-1] = solution.T
    return moments


@pytest.mark.parametrize("shape", [(1, 4), (3, 5), (9, 17), (64, 128), (256, 512)])
def test_block_factored_moments_equal_the_interior_solve_bitwise(shape):
    rows = np.random.default_rng(shape[1]).normal(size=shape)
    assert np.array_equal(spline_moments(rows), interior_solve_moments(rows))


def test_nan_row_keeps_its_nan_and_zero_ends():
    rows = np.random.default_rng(3).normal(size=(9, 17))
    rows[4, 8] = np.nan
    with np.errstate(invalid="ignore"):
        moments = spline_moments(rows)
    assert np.isnan(moments[4, 1:-1]).all()
    assert np.all(moments[4, [0, -1]] == 0.0)
    finite = np.arange(9) != 4
    assert np.array_equal(moments[finite], interior_solve_moments(rows[finite]))


def test_zero_extension_only_where_feet_leave_the_range():
    # Feet exactly on an end node read that node; a foot just beyond it reads 0.
    rng = np.random.default_rng(11)
    nodes = np.linspace(-1.0, 2.0, 24)
    rows = rng.normal(size=(6, 24))
    moments = spline_moments(rows)
    cells = np.zeros((6, 24))
    cells[0] = np.linspace(0.9, -0.9, 24)               # sub-cell, both ends leave
    cells[1] = np.linspace(1e-12, 0.5, 24)              # only p_0's foot leaves
    cells[2] = np.linspace(-0.5, -1e-12, 24)            # only p_{n-1}'s foot leaves
    cells[3] = np.linspace(0.0, 0.7, 24)                # p_0's foot on p_0
    cells[4] = 5.0                                      # whole cells, multi-cell
    cells[5] = np.linspace(-7.0, -3.0, 24)              # multi-cell, p_0's foot on p_7
    values = eval_natural_spline(rows, moments, cells, out=np.empty(rows.shape))
    assert np.allclose(values, scipy_at_feet(nodes, rows, cells), atol=1e-12, rtol=0.0)
    assert values[0, 0] == values[0, -1] == values[1, 0] == values[2, -1] == 0.0
    assert values[1, -1] != 0.0 and values[2, 0] != 0.0 and values[3, 0] == rows[3, 0]
    assert np.all(values[4, :5] == 0.0) and np.array_equal(values[4, 5:], rows[4, :-5])
    assert values[5, 0] == rows[5, 7]
    assert np.all(values[5, 20:] == 0.0) and np.all(values[5, :20] != 0.0)
