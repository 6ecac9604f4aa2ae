import numpy as np
import pytest

from buyhold import SingularMatrixError
from buyhold.games import _inverse_sums as inverse_sums
from buyhold.market import MarketParams, payoff_matrix_K


def test_identity_roundtrip():
    x, y = inverse_sums(np.eye(3))
    assert np.array_equal(x, np.ones(3)) and np.array_equal(y, np.ones(3))


def test_two_by_two_hand_inverse():
    # adjugate of [[.5, 1.5], [1, 2]] over its determinant -0.5 is
    # [[-4, 3], [2, -1]]: column sums (-2, 2), row sums (-1, 1).  The
    # larger first-column entry sits in row 2, so the rows are swapped.
    x, y = inverse_sums([[0.5, 1.5], [1.0, 2.0]])
    assert np.abs(x - [-2.0, 2.0]).max() <= 1e-12
    assert np.abs(y - [-1.0, 1.0]).max() <= 1e-12


def test_downturn_kernel_residual():
    K = payoff_matrix_K(MarketParams(2.0, 2.0, 3))
    x, y = inverse_sums(K)
    assert np.abs(x @ K - 1.0).max() <= 1e-9 * 3
    assert np.abs(K @ y - 1.0).max() <= 1e-9 * 3


@pytest.mark.parametrize("n", [1, 2, 5, 16, 33, 64])
def test_residual_well_conditioned_random(n):
    rng = np.random.default_rng(n)
    m = rng.uniform(-1.0, 1.0, size=(n, n)) + n * np.eye(n)
    x, y = inverse_sums(m)
    assert np.abs(x @ m - 1.0).max() <= 1e-9 * n
    assert np.abs(m @ y - 1.0).max() <= 1e-9 * n


def test_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse_sums([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMatrixError):
        inverse_sums([[0.0]])
    # Nonsingular in exact arithmetic, but the second pivot (1e-13) is
    # below PIVOT_TOL.
    with pytest.raises(SingularMatrixError):
        inverse_sums([[1.0, 1.0], [1.0, 1.0 + 1e-13]])

