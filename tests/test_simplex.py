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


# float.hex of (x, y, objective) as the textbook pivot, a fresh
# ``T - np.outer(factors, pivot_row)`` per step, computes them.  The
# tableau update is elementwise IEEE arithmetic with no BLAS call, so
# these bits hold on every platform.
PINNED_BITS = {
    "tie0": (
        "0x1.0000000000000p+0 0x0.0p+0",
        "0x1.0000000000000p+0 0x0.0p+0",
        "0x1.0000000000000p+0",
    ),
    "tie1": (
        "0x1.5555555555555p-2 0x0.0p+0 0x1.5555555555556p-2",
        "0x1.5555555555556p-2 0x1.5555555555555p-2",
        "0x1.5555555555555p-1",
    ),
    "tie2": (
        "0x1.5555555555555p-2 0x1.5555555555556p-2",
        (
            "0x1.5555555555556p-2 0x1.5555555555555p-2 0x0.0p+0 "
            "0x0.0p+0"
        ),
        "0x1.5555555555555p-1",
    ),
    "seeded_12x20": (
        (
            "0x0.0p+0 0x1.6f504100e4723p-3 0x1.2e119a5a8dddfp-2 "
            "0x0.0p+0 0x1.18391ea7264dap-3 0x1.4ab00983e9291p-2 "
            "0x0.0p+0 0x0.0p+0 0x1.87e0e6922aa44p-4 "
            "0x0.0p+0 0x1.cfbb16197ffc5p-5 0x1.12f8a229e1f86p-2"
        ),
        (
            "0x1.d3b6f52e0f1a4p-3 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.a07405a251d16p-5 0x0.0p+0 "
            "0x1.23b08a906a0e0p-5 0x0.0p+0 0x1.1c83b51900a3cp-2 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.139509cb183e6p-2 "
            "0x0.0p+0 0x0.0p+0 0x1.dc6f57f1b0d65p-5 "
            "0x0.0p+0 0x1.bd67dbc46b027p-2"
        ),
        "0x1.5adba49106421p+0",
    ),
    "seeded_30x30": (
        (
            "0x1.0962eac051732p-3 0x0.0p+0 0x1.4b1f3792cb4efp-5 "
            "0x1.bcaba9c99e0dap-5 0x1.0a99141324e0dp-3 0x0.0p+0 "
            "0x1.8085c3747953fp-7 0x0.0p+0 0x1.f89e96687f35cp-5 "
            "0x1.4dd0061821e21p-3 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.4e3ece03a250ep-4 0x0.0p+0 "
            "0x0.0p+0 0x1.00790eb96eaaap-6 0x0.0p+0 "
            "0x1.30fee23d2796cp-2 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x1.1686e2bfa49ffp-4 0x0.0p+0 "
            "0x1.9f9151227b995p-4 0x0.0p+0 0x0.0p+0 "
            "0x1.3340b20466e20p-4 0x1.2dc82032122dep-4 0x0.0p+0"
        ),
        (
            "0x1.a08c893f1ec40p-6 0x1.63da3d1cee10ap-3 0x0.0p+0 "
            "0x1.b7838542c7b46p-4 0x1.4490f93036660p-10 0x1.956dd3f35e330p-3 "
            "0x0.0p+0 0x1.bcbe04b1e4691p-5 0x1.afcf8891e4595p-6 "
            "0x1.76c1f9bbddbc8p-3 0x1.0f2a49c9f2dc2p-2 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.8a9e263b6dee3p-3 "
            "0x0.0p+0 0x1.81fdbe6cde68ep-6 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x0.0p+0 "
            "0x0.0p+0 0x0.0p+0 0x1.316a84d8f72bap-7 "
            "0x1.360e95dfc2c60p-9 0x0.0p+0 0x1.57e921acbc381p-5"
        ),
        "0x1.4dd571ee76988p+0",
    ),
    "basis_tie_4x3": (
        "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p-1",
        "0x0.0p+0 0x1.0000000000000p-1 0x0.0p+0",
        "0x1.0000000000000p-1",
    ),
    "near_tie_5x4": (
        (
            "0x0.0p+0 0x1.af286bca1a9b5p-4 0x1.af286bca17d3fp-5 "
            "0x1.435e50d7951cbp-3 0x1.435e50d7942fbp-3"
        ),
        (
            "0x1.af286bca1d61dp-5 0x1.af286bca19ae4p-4 0x1.af286bca1d622p-4 "
            "0x1.af286bca19ae4p-3"
        ),
        "0x1.e50d79435e478p-2",
    ),
}

PINNED_GAMES = {
    **{f"tie{k}": np.array(H) for k, (H, _) in enumerate(TIE_GAMES)},
    "seeded_12x20": np.random.default_rng(12).uniform(0.5, 1.0, size=(12, 20)),
    "seeded_30x30": np.random.default_rng(30).uniform(0.5, 1.0, size=(30, 30)),
    # A ratio-test tie whose lowest basic index is not its lowest row.
    "basis_tie_4x3": np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 3.0], [2.0, 2.0, 2.0], [3.0, 2.0, 2.0]]),
    # Ratios that tie only within FEASIBILITY_TOL.
    "near_tie_5x4": np.array(
        [
            [1.0, 1.0, 1.999999999999, 1.0],
            [2.999999999999, 2.999999999999, 1.000000000001, 2.000000000001],
            [0.999999999999, 1.000000000001, 2.000000000001, 3.0],
            [3.000000000001, 1.999999999999, 2.0, 2.0],
            [0.999999999999, 2.000000000001, 2.999999999999, 2.0],
        ]
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_BITS))
def test_solutions_are_pinned_bit_for_bit(name):
    x, y, objective = solve_packing(PINNED_GAMES[name])
    got = (" ".join(map(float.hex, x.tolist())), " ".join(map(float.hex, y.tolist())), objective.hex())
    assert got == PINNED_BITS[name]


def test_dimension_validation():
    with pytest.raises(ValueError):
        solve_packing([1.0, 2.0])
    with pytest.raises(ValueError):
        solve_packing(np.ones((0, 3)))
    with pytest.raises(ValueError):
        solve_packing(np.ones((2, 2, 2)))
