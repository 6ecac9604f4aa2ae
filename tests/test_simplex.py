import numpy as np
import pytest

from buyhold.simplex import solve_packing


def test_maximization_via_negation():
    # max y1 + y2 s.t. y1 + y2/2 <= 1, y1/2 + y2 <= 1.
    x, y, obj = solve_packing([[1.0, 0.5], [0.5, 1.0]])
    assert obj == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert y == pytest.approx([2.0 / 3.0, 2.0 / 3.0], abs=1e-10)
    assert x == pytest.approx([2.0 / 3.0, 2.0 / 3.0], abs=1e-10)


TIE_GAMES = [
    ([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0]),
    ([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0]], [0.5, 0.0, 0.5]),
    ([[1.0, 2.0, 1.0, 2.0], [2.0, 1.0, 2.0, 1.0]], [0.5, 0.5]),
]


def test_degenerate_instance_terminates():
    # Duplicate rows or columns tie the ratio test; Bland's tie-break
    # must still reach the optimum with zero duality gap.
    for H, online in TIE_GAMES:
        x, y, obj = solve_packing(H)
        H = np.array(H)
        assert x / x.sum() == pytest.approx(online, abs=1e-12)
        assert x.sum() == pytest.approx(obj, abs=1e-12)
        assert (x @ H).min() == pytest.approx(1.0, abs=1e-12)
        assert (H @ y).max() == pytest.approx(1.0, abs=1e-12)


def test_dimension_validation():
    with pytest.raises(ValueError):
        solve_packing([1.0, 2.0])
    with pytest.raises(ValueError):
        solve_packing(np.ones((0, 3)))
    with pytest.raises(ValueError):
        solve_packing(np.ones((2, 2, 2)))
