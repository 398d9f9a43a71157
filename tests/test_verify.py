import numpy as np
import pytest

from kinvlasov.verify import matrix_pencil


def test_matrix_pencil_recovers_a_damped_and_a_growing_mode():
    dt = 0.05
    t = dt * np.arange(200)
    rates = np.array([-0.03 + 1.2j, 0.02 - 0.7j])
    series = 1.5 * np.exp(rates[0] * t) + (0.4 - 0.3j) * np.exp(rates[1] * t)
    fitted = matrix_pencil(series, dt, 2)
    assert np.max(np.abs(np.sort_complex(fitted) - np.sort_complex(rates))) <= 1e-10


def test_matrix_pencil_of_a_real_cosine_is_the_pair_plus_minus_omega():
    dt = 0.02
    fitted = matrix_pencil(np.cos(1.7 * dt * np.arange(300)), dt, 2)
    assert np.allclose(np.sort(fitted.imag), [-1.7, 1.7], rtol=0.0, atol=1e-10)
    assert np.max(np.abs(fitted.real)) <= 1e-10


def test_matrix_pencil_needs_two_samples_per_pole():
    with pytest.raises(ValueError, match="4-pole fit needs at least 8 samples, got 7"):
        matrix_pencil(np.ones(7), 0.1, 4)
