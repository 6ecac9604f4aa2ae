from unittest import mock

import numpy as np
import pytest

from buyhold import (
    DimensionMismatch,
    NonPositiveEntry,
    NumericalFailure,
    PreconditionViolated,
    check_extreme_point,
    solve_game,
    solve_game_closed_form,
    solve_game_lp,
    solve_primal_dual,
    worst_case_columns,
)
from buyhold import games
from buyhold.games import OPTIMALITY_TOL, as_payoff_matrix
from buyhold.market import MarketParams, payoff_matrix_K

SYM2 = np.array([[1.0, 0.5], [0.5, 1.0]])
K3 = payoff_matrix_K(MarketParams(2.0, 2.0, 3))


def is_mixed_strategy(weights, tol):
    """True iff ``weights`` is a probability vector, within ``tol`` on the sum."""
    w = np.asarray(weights, dtype=float).ravel()
    return w.size > 0 and bool(np.all(w >= 0.0)) and abs(float(w.sum()) - 1.0) <= tol


def test_payoff_validation():
    with pytest.raises(NonPositiveEntry):
        as_payoff_matrix([[1.0, 0.0], [0.5, 1.0]])
    with pytest.raises(NonPositiveEntry):
        as_payoff_matrix([[1.0, -2.0]])
    with pytest.raises(NonPositiveEntry):
        as_payoff_matrix([[np.inf]])
    assert as_payoff_matrix([1.0, 2.0]).shape == (1, 2)


def test_lp_one_by_one():
    sol = solve_game_lp([[1.0]])
    assert sol.value == pytest.approx(1.0, abs=1e-12)
    assert sol.ratio == pytest.approx(1.0, abs=1e-12)
    assert sol.online_strategy == pytest.approx([1.0], abs=1e-12)
    assert sol.adversary_strategy == pytest.approx([1.0], abs=1e-12)
    assert not sol.unique


def test_lp_symmetric_two():
    # Mixing evenly equalizes both columns at 0.75.
    sol = solve_game_lp(SYM2)
    assert sol.value == pytest.approx(0.75, abs=1e-10)
    assert sol.ratio == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert sol.online_strategy == pytest.approx([0.5, 0.5], abs=1e-10)
    assert sol.adversary_strategy == pytest.approx([0.5, 0.5], abs=1e-10)


def test_lp_downturn_kernel():
    sol = solve_game_lp(K3)
    assert sol.ratio == pytest.approx(5.0 / 3.0, abs=1e-10)
    assert sol.online_strategy == pytest.approx([0.4, 0.2, 0.4], abs=1e-10)


def test_closed_form_symmetric_two():
    sol = solve_game_closed_form(SYM2)
    assert sol.ratio == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert sol.online_strategy == pytest.approx([0.5, 0.5], abs=1e-12)
    assert sol.unique


def test_closed_form_identity():
    # Both routes read the game through as_payoff_matrix, so a zero entry is refused.
    for solve in (solve_game_closed_form, solve_game):
        with pytest.raises(NonPositiveEntry, match=r"entry \(0, 1\) = 0 is not positive"):
            solve(np.eye(2))


def test_closed_form_downturn_kernel():
    sol = solve_game_closed_form(K3)
    assert sol.ratio == pytest.approx(5.0 / 3.0, abs=1e-10)
    assert sol.online_strategy == pytest.approx([0.4, 0.2, 0.4], abs=1e-10)
    assert sol.adversary_strategy == pytest.approx([0.4, 0.2, 0.4], abs=1e-10)
    assert sol.unique


def test_closed_form_rejects_nonsquare_and_negative_candidates():
    with pytest.raises(PreconditionViolated):
        solve_game_closed_form([[1.0, 0.5, 0.2], [0.5, 1.0, 0.4]])
    # Row 1 dominates row 2, so the inverse-based candidate has a
    # negative component and the route must refuse.
    dominated = [[1.0, 1.0], [0.5, 0.4]]
    with pytest.raises(PreconditionViolated):
        solve_game_closed_form(dominated)
    sol, route = solve_game(dominated)
    assert route == "lp"
    assert sol.ratio == pytest.approx(1.0, abs=1e-10)
    assert sol.online_strategy == pytest.approx([1.0, 0.0], abs=1e-10)


NOT_A_MATRIX = DimensionMismatch, "expected a nonempty 2-D matrix"


@pytest.mark.parametrize(
    "H, error, match",
    [
        pytest.param(np.ones((2, 2, 2)), *NOT_A_MATRIX, id="H0"),
        pytest.param(np.zeros((0, 0)), *NOT_A_MATRIX, id="H1"),
        pytest.param(np.zeros((2, 0)), *NOT_A_MATRIX, id="H2"),
        pytest.param([], *NOT_A_MATRIX, id="H3"),
        pytest.param([[1, 2], [1]], DimensionMismatch, "rows of different lengths", id="ragged"),
        pytest.param([[1.0, 2.0], 3.0], DimensionMismatch, "rows of different lengths", id="row-and-scalar"),
        pytest.param([[1 + 1j]], NonPositiveEntry, "real numbers", id="complex"),
        pytest.param(np.array([[2.0, 1.0 + 0j], [1.0, 2.0]]), NonPositiveEntry, "real numbers", id="complex-array"),
        pytest.param([["a", 1.0]], NonPositiveEntry, "real numbers", id="string"),
        pytest.param([[10**400]], NonPositiveEntry, "must be finite", id="int-past-float"),
    ],
)
def test_closed_form_rejects_a_non_matrix(H, error, match):
    # solve_game refuses the same input with the same error.
    for solve in (solve_game_closed_form, solve_game):
        with pytest.raises(error, match=match):
            solve(H)


def test_lp_route_validates_the_game_once():
    # solve_game reaches the LP route only through the public solve_game_lp,
    # and solve_game_lp and solve_primal_dual each check what they are given.
    dominated = [[1.0, 1.0], [0.5, 0.4]]
    rectangular = [[1.0, 0.5, 0.2], [0.5, 1.0, 0.4]]
    with mock.patch.object(games, "solve_game_lp", wraps=games.solve_game_lp) as route:
        for H in (dominated, rectangular):
            route.reset_mock()
            sol, name = solve_game(H)
            assert name == "lp"
            route.assert_called_once()
        route.reset_mock()
        assert solve_game(K3)[1] == "closed-form"
        route.assert_not_called()
    with mock.patch.object(games, "as_payoff_matrix", wraps=games.as_payoff_matrix) as check:
        for solve in (solve_game_lp, solve_primal_dual):
            check.reset_mock()
            solve(rectangular)
            assert check.call_count == 1
    want = solve_game_lp(rectangular)
    assert (sol.value, sol.ratio, sol.unique) == (want.value, want.ratio, want.unique)
    assert sol.online_strategy.tobytes() == want.online_strategy.tobytes()
    assert sol.adversary_strategy.tobytes() == want.adversary_strategy.tobytes()


def test_lp_error_after_a_fallback_carries_no_closed_form_error():
    dominated = [[1.0, 1.0], [0.5, 0.4]]
    failure = NumericalFailure("stub")
    with mock.patch.object(games, "solve_game_lp", side_effect=failure):
        with pytest.raises(NumericalFailure) as raised:
            solve_game(dominated)
    assert raised.value.__context__ is None


def test_solve_game_prefers_closed_form():
    sol, route = solve_game(K3)
    assert route == "closed-form"
    assert sol.unique


def test_worst_case_columns():
    # Row-1 payoffs against the three columns are (1, 0.5, 0.25).
    assert worst_case_columns(K3, [1.0, 0.0, 0.0]) == {2}
    # The balanced strategy ties on every column.
    assert worst_case_columns(K3, [0.4, 0.2, 0.4]) == {0, 1, 2}
    assert worst_case_columns([[1.0]], [3.0]) == {0}
    with pytest.raises(PreconditionViolated):
        worst_case_columns(K3, [1.0, -0.5, 0.0])
    with pytest.raises(PreconditionViolated):
        worst_case_columns(K3, [0.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        worst_case_columns(K3, [1.0, 1.0])


@pytest.mark.parametrize(
    "H, x, expected",
    [
        # Column 1 pays 50% more, however small the payoffs.
        pytest.param(1e-12 * np.array([[1.0, 1.5]]), [1.0], {0}, id="small-payoffs"),
        # A near tie holds for the same strategy at any scale.
        pytest.param([[1.0, 1.0 + 1e-11]], [1.0], {0, 1}, id="unit-strategy"),
        pytest.param([[1.0, 1.0 + 1e-11]], [1e12], {0, 1}, id="large-strategy"),
        # The unscaled x @ H overflows to inf, with a RuntimeWarning.
        pytest.param([[1.0, 2.0], [2.0, 2.0]], [1e308, 1e308], {0}, id="overflow"),
    ],
)
def test_worst_case_columns_ties_on_the_unit_scaled_game(H, x, expected):
    assert worst_case_columns(H, x) == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_worst_case_columns_rejects_non_finite_x(bad):
    for x in ([bad, 1.0], [1.0, bad]):
        with pytest.raises(ValueError, match="x must be finite"):
            worst_case_columns([[1.0, 2.0], [2.0, 1.0]], x)


def test_check_extreme_point():
    K2 = payoff_matrix_K(MarketParams(2.0, 2.0, 2))
    x = np.array([2.0 / 3.0, 2.0 / 3.0])
    assert check_extreme_point(K2, x, x, [0, 1], [0, 1])
    assert check_extreme_point(K2, x, x, np.arange(2), [np.int32(0), np.int64(1)])
    assert check_extreme_point([[1.0]], [1.0], [1.0], [0], [0])
    # A non-square support selection is simply not a certificate.
    assert not check_extreme_point(K2, [4.0 / 3.0, 0.0], x, [0], [0, 1])
    # Wrong values on the support fail the defining equations.
    assert not check_extreme_point(K2, [1.0, 1.0], x, [0, 1], [0, 1])
    # Nonzero components off the support disqualify the certificate.
    assert not check_extreme_point(K2, x, x, [0], [0])
    with pytest.raises(DimensionMismatch):
        check_extreme_point(K2, [1.0], x, [0, 1], [0, 1])
    with pytest.raises(DimensionMismatch):
        check_extreme_point(K2, x, x, [0, 5], [0, 1])


@pytest.mark.parametrize("rows, cols", [([0, 2], [0, 1]), ([0, 1], [0, 2])], ids=["row", "column"])
def test_check_extreme_point_index_at_the_count_is_out_of_range(rows, cols):
    # For a 2x2 game, index 2 is the first one past the end.
    x = np.array([2.0 / 3.0, 2.0 / 3.0])
    with pytest.raises(DimensionMismatch, match="out of range"):
        check_extreme_point(SYM2, x, x, rows, cols)


@pytest.mark.parametrize(
    "rows, cols", [([0.7], [0.2]), ([0], [0.0]), (["0"], [0]), ([np.float64(0.0)], [0]), (0, [0])]
)
def test_check_extreme_point_refuses_non_integer_indices(rows, cols):
    # int() would read 0.7 and 0.2 as the certificate {0} x {0}, which holds here.
    with pytest.raises(DimensionMismatch, match="integers"):
        check_extreme_point([[1.0, 2.0], [2.0, 1.0]], [1.0, 0.0], [1.0, 0.0], rows, cols)


def test_check_extreme_point_rejects_nan():
    nan = float("nan")
    assert not check_extreme_point(SYM2, [nan, nan], [nan, nan], [0, 1], [0, 1])
    # NaN off the support, where the certificate wants zeros.
    assert not check_extreme_point(SYM2, [1.0, nan], [1.0, 0.0], [0], [0])


@pytest.mark.parametrize("lam", [1e-13, 1e13])
def test_check_extreme_point_scale_free(lam):
    # The certificate of SYM2 (x = y = (2/3, 2/3)) holds for lam * SYM2 with x/lam, y/lam.
    x = np.array([2.0 / 3.0, 2.0 / 3.0]) / lam
    assert check_extreme_point(lam * SYM2, x, x, [0, 1], [0, 1])
    # On the support {0} x {0}, x = y = (1/lam, 0) is a certificate, and an
    # off-support component of 1e-3 of the support's value is not zero.
    one = np.array([1.0, 0.0]) / lam
    assert check_extreme_point(lam * SYM2, one, one, [0], [0])
    assert not check_extreme_point(lam * SYM2, one + [0.0, 1e-3 / lam], one, [0], [0])


def test_check_extreme_point_singular_submatrix():
    H = np.array([[1.0, 1.0], [1.0, 1.0]]) + np.diag([0.0, 0.0])
    assert not check_extreme_point(H, [0.5, 0.5], [0.5, 0.5], [0, 1], [0, 1])


def _random_game(seed):
    rng = np.random.default_rng(1000 + seed)
    m, n = rng.integers(1, 9, size=2)
    return rng.uniform(0.1, 5.0, size=(int(m), int(n)))


# Games whose ratio test ties: duplicate rows and columns.
TIE_GAMES = {
    "ties-2x2": [[1.0, 1.0], [1.0, 1.0]],
    "ties-3x2": [[1.0, 2.0], [1.0, 2.0], [2.0, 1.0]],
    "ties-2x4": [[1.0, 2.0, 1.0, 2.0], [2.0, 1.0, 2.0, 1.0]],
}


@pytest.mark.parametrize(
    "H",
    [pytest.param(_random_game(seed), id=str(seed)) for seed in range(12)]
    + [pytest.param(np.array(H), id=name) for name, H in TIE_GAMES.items()],
)
def test_duality_feasibility_and_saddle(H):
    lp = solve_primal_dual(H)
    assert abs(lp.primal_objective - lp.dual_objective) <= OPTIMALITY_TOL
    assert np.all(lp.x @ H >= 1.0 - 1e-9)
    assert np.all(H @ lp.y <= 1.0 + 1e-9)
    sol = solve_game_lp(H)
    assert sol.ratio * sol.value == pytest.approx(1.0, abs=1e-12)
    assert is_mixed_strategy(sol.online_strategy, tol=1e-9)
    assert is_mixed_strategy(sol.adversary_strategy, tol=1e-9)
    assert (sol.online_strategy @ H).min() >= sol.value - OPTIMALITY_TOL
    assert (H @ sol.adversary_strategy).max() <= sol.value + OPTIMALITY_TOL


def test_duality_gap_raises(monkeypatch):
    # x = (1, 1) and y = (1/3, 1/3) are feasible for [[1, 2], [2, 1]],
    # but only y is optimal: sum(x) = 2 against sum(y) = 2/3.  The
    # tableau gets the matrix scaled by c, so the fake scales by 1/c.
    def feasible_with_gap(H):
        c = H[0, 0]
        return np.array([1.0, 1.0]) / c, np.array([1.0, 1.0]) / (3.0 * c), 2.0 / (3.0 * c)

    monkeypatch.setattr(games, "_solve_packing", feasible_with_gap)
    with pytest.raises(NumericalFailure, match="duality gap"):
        solve_primal_dual([[1.0, 2.0], [2.0, 1.0]])


@pytest.mark.parametrize("side", ["primal", "dual"])
def test_constraint_residual_raises(monkeypatch, side):
    # The tableau gets [[0.5]], whose optimum is x = y = 2.  The fake misses
    # x H >= 1 (or H y <= 1) by 2e-8 and has no duality gap.
    low, high = 2.0 * (1.0 - 2e-8), 2.0 * (1.0 + 2e-8)
    x, y = (low, low) if side == "primal" else (high, high)
    monkeypatch.setattr(games, "_solve_packing", lambda H: (np.array([x]), np.array([y]), y))
    with pytest.raises(NumericalFailure, match="violates its constraints by 2"):
        solve_primal_dual([[1.0]])


@pytest.mark.parametrize(
    "H, primal, accepted",
    [
        # The tableau gets [[0.5]] and sum(x) = 2, so the gap of 1e-8 lies
        # between OPTIMALITY_TOL / 2 and OPTIMALITY_TOL * 2.
        pytest.param([[1.0]], 2.0, True, id="accepted"),
        # [[1 - 2**-53]] is not rescaled, and x = 1 - 9e-9 meets x H >= 1 within
        # OPTIMALITY_TOL, so sum(x) < 1 and the gap lies above OPTIMALITY_TOL * sum(x).
        pytest.param([[np.nextafter(1.0, 0.0)]], 1.0 - 9e-9, False, id="refused"),
    ],
)
def test_duality_gap_is_relative_to_the_ratio(monkeypatch, H, primal, accepted):
    dual = primal - 1e-8
    gap = primal - dual
    low, high = sorted((OPTIMALITY_TOL * primal, OPTIMALITY_TOL / primal))
    assert low < gap < high
    monkeypatch.setattr(games, "_solve_packing", lambda H: (np.array([primal]), np.array([dual]), dual))
    if accepted:
        assert solve_primal_dual(H).primal_objective == 1.0
    else:
        with pytest.raises(NumericalFailure, match="duality gap"):
            solve_primal_dual(H)


def test_scale_covariance():
    rng = np.random.default_rng(42)
    H = rng.uniform(0.5, 3.0, size=(5, 7))
    base = solve_game_lp(H)
    # At 3e-8 the ratio is about 2e7 and its rounding gap is 1.5e-8, so
    # the duality gap must be checked relative to the ratio.  The last
    # scale puts the largest entry near 1e300.
    for lam in (0.25, 3.0, 3e-8, 2.0**40, 2.0**-40, 1e9, 1e-9, 0.99e300 / H.max()):
        scaled = solve_game_lp(lam * H)
        assert scaled.value == pytest.approx(lam * base.value, rel=1e-12)
        assert scaled.online_strategy == pytest.approx(base.online_strategy, abs=1e-8)
        assert scaled.adversary_strategy == pytest.approx(base.adversary_strategy, abs=1e-8)
        if np.log2(lam).is_integer():
            # A power-of-two scale is exact, and so is the solution.
            assert scaled.value == lam * base.value and scaled.ratio == base.ratio / lam
            assert np.array_equal(scaled.online_strategy, base.online_strategy)
            assert np.array_equal(scaled.adversary_strategy, base.adversary_strategy)


@pytest.mark.parametrize("lam", [2.0**40, 2.0**-40])
def test_closed_form_scale_covariance(lam):
    K = payoff_matrix_K(MarketParams(1 / 0.93, 1.07, 21))
    base, route = solve_game(K)
    scaled, scaled_route = solve_game(lam * K)
    assert route == scaled_route == "closed-form" and scaled.unique
    assert scaled.value == pytest.approx(lam * base.value, rel=1e-12)
    assert scaled.online_strategy == pytest.approx(base.online_strategy, abs=1e-12)
    assert scaled.adversary_strategy == pytest.approx(base.adversary_strategy, abs=1e-12)


@pytest.mark.parametrize("H", [[[1e-320]], [[1e-310, 2e-310, 1e-310], [2e-310, 1e-310, 1e-310]]])
def test_ratio_past_float_range_raises(H):
    # The value is below 1/sys.float_info.max, so its reciprocal overflows;
    # the first matrix takes the closed form, the second the LP.
    with pytest.raises(NumericalFailure, match="too small"):
        solve_game(H)


def test_closed_form_agrees_with_lp_when_applicable():
    rng = np.random.default_rng(7)
    matched = 0
    for _ in range(60):
        n = int(rng.integers(2, 7))
        H = rng.uniform(0.2, 2.0, size=(n, n)) + 2.0 * np.eye(n)
        try:
            cf = solve_game_closed_form(H)
        except PreconditionViolated:
            continue
        lp = solve_game_lp(H)
        assert cf.ratio == pytest.approx(lp.ratio, abs=1e-8)
        assert cf.online_strategy == pytest.approx(lp.online_strategy, abs=1e-8)
        assert cf.adversary_strategy == pytest.approx(lp.adversary_strategy, abs=1e-8)
        matched += 1
    assert matched >= 10
