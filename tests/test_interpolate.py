import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dpttrf, dpttrs

from kinvlasov.interpolate import (
    eval_natural_spline,
    natural_spline_moments,
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
    return periodic_shift_columns(f, periodic_shift_transfer(f.shape[0], alpha))


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


def test_natural_spline_matches_scipy():
    rng = np.random.default_rng(1)
    n = 40
    nodes = np.linspace(-2.0, 2.0, n)
    rows = rng.normal(size=(5, n))
    moments = natural_spline_moments(rows, nodes[1] - nodes[0])
    queries = rng.uniform(-2.0, 2.0, size=(5, 17))
    mine = eval_natural_spline(nodes, rows, moments, queries)
    for i in range(5):
        reference = CubicSpline(nodes, rows[i], bc_type="natural")
        assert np.allclose(mine[i], reference(queries[i]), atol=1e-12)


def test_natural_spline_exact_at_nodes():
    rng = np.random.default_rng(8)
    nodes = np.linspace(-1.0, 3.0, 25)
    rows = rng.normal(size=(3, 25))
    moments = natural_spline_moments(rows, nodes[1] - nodes[0])
    values = eval_natural_spline(nodes, rows, moments,
                                 np.tile(nodes, (3, 1)))
    assert np.allclose(values, rows, atol=1e-13)


def test_natural_spline_zero_outside():
    nodes = np.linspace(-1.0, 1.0, 16)
    rows = np.ones((2, 16))
    moments = natural_spline_moments(rows, nodes[1] - nodes[0])
    outside = np.array([[-1.5, 1.0001, 2.0]] * 2)
    assert np.all(eval_natural_spline(nodes, rows, moments, outside) == 0.0)


def test_natural_spline_nan_query_is_not_zeroed():
    nodes = np.linspace(-1.0, 1.0, 16)
    rows = np.ones((1, 16))
    moments = natural_spline_moments(rows, nodes[1] - nodes[0])
    with np.errstate(invalid="ignore"):
        values = eval_natural_spline(nodes, rows, moments, np.array([[np.nan, 0.1]]))
    assert np.isnan(values[0, 0])
    assert values[0, 1] == pytest.approx(1.0)


@pytest.mark.parametrize("n", [4, 5])
def test_natural_spline_on_the_fewest_nodes_matches_scipy(n):
    rng = np.random.default_rng(n)
    nodes = np.linspace(-1.0, 2.0, n)
    rows = rng.normal(size=(3, n))
    moments = natural_spline_moments(rows, nodes[1] - nodes[0])
    queries = rng.uniform(-1.0, 2.0, size=(3, 11))
    mine = eval_natural_spline(nodes, rows, moments, queries)
    for i in range(3):
        reference = CubicSpline(nodes, rows[i], bc_type="natural")
        assert np.allclose(moments[i], reference(nodes, 2), atol=1e-12)
        assert np.allclose(mine[i], reference(queries[i]), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_natural_spline_rejects_fewer_than_four_nodes(n):
    with pytest.raises(ValueError, match="at least 4 nodes"):
        natural_spline_moments(np.ones((2, n)), 0.5)


def interior_solve_moments(f, h):
    """The natural spline moments as one dpttrf/dpttrs solve of tridiag(1, 4, 1)
    on the interior second differences, scaled by 6/h^2 as they are copied out."""
    d, e, _ = dpttrf(np.full(f.shape[1] - 2, 4.0), np.ones(f.shape[1] - 3))
    rhs = f[:, 2:] - f[:, 1:-1]
    rhs -= f[:, 1:-1]
    rhs += f[:, :-2]
    solution, _ = dpttrs(d, e, rhs.T)
    moments = np.zeros_like(f)
    moments[:, 1:-1] = solution.T * (6.0 / (h * h))
    return moments


@pytest.mark.parametrize("shape", [(1, 4), (3, 5), (9, 17), (64, 128), (256, 512)])
def test_block_factored_moments_equal_the_interior_solve_bitwise(shape):
    rows = np.random.default_rng(shape[1]).normal(size=shape)
    assert np.array_equal(natural_spline_moments(rows, 0.37), interior_solve_moments(rows, 0.37))


def test_nan_row_keeps_its_nan_and_zero_ends():
    rows = np.random.default_rng(3).normal(size=(9, 17))
    rows[4, 8] = np.nan
    with np.errstate(invalid="ignore"):
        moments = natural_spline_moments(rows, 0.37)
    assert np.isnan(moments[4, 1:-1]).all()
    assert np.all(moments[4, [0, -1]] == 0.0)
    finite = np.arange(9) != 4
    assert np.array_equal(moments[finite], interior_solve_moments(rows[finite], 0.37))


def test_zero_extension_and_nan_only_where_queries_leave_the_range():
    rng = np.random.default_rng(11)
    nodes = np.linspace(-1.0, 2.0, 24)
    rows = rng.normal(size=(6, 24))
    moments = natural_spline_moments(rows, nodes[1] - nodes[0])
    queries = rng.uniform(-0.9, 1.9, size=(6, 30))
    queries[1, 3] = -1.2                        # below the range in one row only
    queries[2, 7] = 2.0 + 1e-12                 # just above it
    queries[3, 7] = 2.0                         # exactly at each end
    queries[4, 9] = -1.0
    queries[5, 12] = np.nan
    queries[0, 20] = 1.99                       # in the last interval
    queries[1, 25] = 2.0                        # a column's only end query
    with np.errstate(invalid="ignore"):
        values = eval_natural_spline(nodes, rows, moments, queries)
    outside = (queries < -1.0) | (queries > 2.0)
    for i in range(6):
        reference = CubicSpline(nodes, rows[i], bc_type="natural")(np.nan_to_num(queries[i]))
        reference[outside[i]] = 0.0
        inside = ~np.isnan(queries[i])
        assert np.allclose(values[i, inside], reference[inside], atol=1e-12, rtol=0.0)
    assert np.isnan(values[5, 12]) and np.isnan(values).sum() == 1
    assert values[1, 3] == 0.0 and values[2, 7] == 0.0
    assert values[3, 7] == pytest.approx(rows[3, -1]) and values[4, 9] == pytest.approx(rows[4, 0])
    assert values[1, 25] == pytest.approx(rows[1, -1])
